"""Regenerate the inline-mode durability fixture in this directory.

The fixture is a durability directory written by a ``ResilientEngine``
running the retired ``update_mode="inline"`` path (commit ``b38f489`` is
the last one that has it), so it only regenerates there::

    mkdir ../fahl-inline && git archive b38f489 | tar -x -C ../fahl-inline
    PYTHONPATH=../fahl-inline/src python tests/data/inline_engine/generate.py

Newer code fails the ``deferred`` assertions below instead of writing a
fixture that never ran inline.

It writes ``wal/`` (checkpoint generation 1 plus the generation-0 and
generation-1 logs) and ``expected.json`` (the graph recipe and the
weights and flows after every acknowledged update).  The checkpointed
state carries ``update_mode="inline"`` and two deferred updates (one
flow, one weight, forced with the maintenance fault seam); the log tail
after it holds ILU and ISU outcome records plus one more deferred
(``applied: false``) weight update.  ``tests/test_durability.py`` checks
that today's overlay-only recovery keeps every one of them.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

from repro.durability import Durability
from repro.flow.synthetic import generate_flow_series
from repro.graph.frn import FlowAwareRoadNetwork
from repro.graph.generators import grid_network
from repro.serving.engine import ResilientEngine
from repro.serving.updates import FlowUpdate, WeightUpdate
from repro.testing import FaultInjector

HERE = Path(__file__).resolve().parent
RECIPE = {"rows": 4, "cols": 4, "graph_seed": 42, "flow_days": 1, "flow_seed": 3}


def make_frn() -> FlowAwareRoadNetwork:
    graph = grid_network(RECIPE["rows"], RECIPE["cols"], seed=RECIPE["graph_seed"])
    flow = generate_flow_series(
        graph, days=RECIPE["flow_days"], seed=RECIPE["flow_seed"]
    )
    return FlowAwareRoadNetwork(graph, flow)


def main() -> None:
    root = HERE / "wal"
    shutil.rmtree(root, ignore_errors=True)
    frn = make_frn()
    weights = {(u, v): w for u, v, w in frn.graph.edges()}
    flows: dict[int, float] = {}
    edges = sorted(weights)
    durability = Durability(root)
    engine = ResilientEngine(
        frn, update_mode="inline", durability=durability, max_retries=0
    )

    def ack(update, fault: str | None = None, deferred: bool = False) -> None:
        if fault is None:
            outcome = engine.submit(update)
        else:
            with FaultInjector() as injector:
                injector.fail_at(fault, times=-1)
                outcome = engine.submit(update)
        assert outcome.accepted and outcome.deferred == deferred, outcome
        if isinstance(update, WeightUpdate):
            weights[(update.u, update.v)] = update.value
        else:
            flows[update.vertex] = update.value

    def reweight(i: int, factor: float, ts: float) -> WeightUpdate:
        u, v = edges[i]
        return WeightUpdate(u, v, round(weights[(u, v)] * factor, 3), ts)

    # generation 0: two ILUs, two deferred updates, one quarantined reject
    ack(reweight(0, 1.5, 1.0))
    ack(reweight(3, 0.7, 2.0))
    ack(FlowUpdate(5, 123.0, 3.0), fault="flow:flow-set", deferred=True)
    ack(reweight(7, 2.5, 4.0), fault="ilu:weight-set", deferred=True)
    assert not engine.submit(WeightUpdate(0, 0, -1.0, 5.0)).accepted
    assert engine.status().deferred_updates == 2
    durability.checkpoint(engine)

    # generation-1 tail: ILU, ISU and one more deferred weight update
    ack(reweight(9, 1.8, 6.0))
    ack(FlowUpdate(2, 77.0, 7.0))
    ack(reweight(11, 3.0, 8.0), fault="ilu:weight-set", deferred=True)
    ack(reweight(0, 0.5, 9.0))
    durability.close()

    expected = {
        "recipe": RECIPE,
        "final_weights": [[u, v, w] for (u, v), w in sorted(weights.items())],
        "final_flows": {str(k): v for k, v in sorted(flows.items())},
    }
    (HERE / "expected.json").write_text(json.dumps(expected, indent=1) + "\n")


if __name__ == "__main__":
    main()

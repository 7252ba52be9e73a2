"""End-to-end chaos run: the serving layer under corrupted streams + faults.

Acceptance check for the resilience work: feed the :class:`ResilientEngine`
a deterministic stream mixing clean and corrupted updates while injecting
consolidation faults (transient and fatal) and a label corruption, and
assert that

* every corrupted update is quarantined with the matching reason,
* every answered query is *correct* (index distances match Dijkstra on the
  live graph, FSPQ scores match an index-free reference engine),
* failing consolidations never touch the serving pair and escalate to the
  full rebuild, a failed audit degrades the engine rather than letting it
  serve wrong answers, and a final :meth:`repair` returns it to healthy.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.dijkstra import dijkstra_distances
from repro.core.fpsps import FlowAwareEngine
from repro.core.maintenance import FAULT_POINTS
from repro.core.fspq import FSPQuery
from repro.flow.synthetic import generate_flow_series
from repro.graph.frn import FlowAwareRoadNetwork
from repro.graph.road_network import RoadNetwork
from repro.serving import FlowUpdate, ResilientEngine, WeightUpdate
from repro.testing import FaultInjector, corrupt_updates

KIND_TO_REASON = {
    "nan": "non-finite",
    "inf": "non-finite",
    "negative": "negative-flow",
    "unknown-vertex": "unknown-vertex",
}

N = 8


def fixed_graph() -> RoadNetwork:
    edges = [
        (0, 1, 4.0), (0, 2, 7.0), (1, 2, 2.0), (1, 3, 5.0),
        (2, 4, 3.0), (3, 4, 6.0), (3, 5, 1.0), (4, 6, 8.0),
        (5, 6, 2.0), (5, 7, 9.0), (6, 7, 3.0), (0, 7, 20.0),
        (2, 5, 11.0),
    ]
    return RoadNetwork(N, edges=edges)


def assert_serving_correct(serving: ResilientEngine, frn) -> None:
    """Index distances match Dijkstra; FSPQ answers match an index-free run."""
    for s in range(N):
        ref = dijkstra_distances(frn.graph, s)
        for t in range(N):
            assert serving.distance(s, t).value == pytest.approx(ref[t]), (s, t)
    reference = FlowAwareEngine(frn, oracle=None, alpha=0.5, eta_u=3.0)
    for s, t in ((0, 7), (2, 6), (5, 1)):
        query = FSPQuery(s, t, 3)
        got = serving.query(query).result
        want = reference.query(query)
        assert got.score == pytest.approx(want.score), (s, t)
        assert got.distance == pytest.approx(want.distance), (s, t)


@pytest.mark.chaos
class TestChaosRun:
    def test_serving_survives_corrupted_stream_and_faults(self):
        graph = fixed_graph()
        frn = FlowAwareRoadNetwork(graph, generate_flow_series(graph, days=1, seed=5))
        serving = ResilientEngine(frn, max_retries=1)
        rng = np.random.default_rng(42)
        edges = [(u, v) for u, v, _ in graph.edges()]

        timestamp = 0.0
        expected_rejections: list[str] = []
        expected_flows = serving.index.flows.copy()
        # consolidation states per round: clean, fatal ISU faults (two
        # failures exhaust max_retries=1 and pull the rebuild valve), one
        # transient fault (the retry commits)
        expected_states = (["done"], ["failed", "rebuilt"], ["failed", "done"])

        for round_no, want_states in enumerate(expected_states):
            vertices = rng.choice(N, size=4, replace=False)
            clean = {int(v): float(rng.uniform(1.0, 300.0)) for v in vertices}
            dirty, corrupted = corrupt_updates(
                clean, num_vertices=N, rate=0.4, seed=round_no
            )
            for vertex, value in sorted(dirty.items()):
                timestamp += 1.0
                outcome = serving.submit(
                    FlowUpdate(vertex, value, timestamp=timestamp)
                )
                if vertex >= N:
                    expected_rejections.append("unknown-vertex")
                    assert outcome.reason == "unknown-vertex"
                elif vertex in corrupted:
                    reason = KIND_TO_REASON[corrupted[vertex]]
                    expected_rejections.append(reason)
                    assert outcome.reason == reason
                else:
                    assert outcome.applied and not outcome.deferred
                    expected_flows[vertex] = value
            # one weight change per round keeps ILU in the mix
            u, v = edges[round_no % len(edges)]
            timestamp += 1.0
            new_weight = float(rng.uniform(1.0, 15.0))
            assert serving.submit(
                WeightUpdate(u, v, new_weight, timestamp=timestamp)
            ).applied
            assert graph.weight(u, v) == new_weight
            assert_serving_correct(serving, frn)

            states = []
            with FaultInjector() as inj:
                if round_no == 1:
                    for point in ("isu:window-eliminated", "isu:frontier-compared",
                                  "isu:structure-stitched", "isu:labels-refreshed"):
                        inj.fail_at(point, times=-1)
                elif round_no == 2:
                    inj.fail_at("consolidate:weights-folded", times=1)
                while serving.consolidation_pending:
                    states.append(serving.consolidate())
                    # a failed fold never touches the serving pair
                    assert_serving_correct(serving, frn)
            assert states == want_states
            assert not serving.degraded
            np.testing.assert_array_equal(serving.index.flows, expected_flows)

        # a silently corrupted label: the audit degrades the engine and
        # queries fall back to direct search — latency, not wrongness
        serving.index.labels[0][-1] = 1.0
        assert not serving.audit().ok
        assert serving.degraded
        assert_serving_correct(serving, frn)
        assert serving.distance(0, 7).source == "fallback"

        # the quarantine ledger matches the corruption we injected exactly,
        # plus one note per failed consolidation (two fatal, one transient)
        by_reason = dict(serving.dead_letters.by_reason)
        assert by_reason.pop("consolidation-failed") == 3
        expected_counts: dict[str, int] = {}
        for reason in expected_rejections:
            expected_counts[reason] = expected_counts.get(reason, 0) + 1
        assert by_reason == expected_counts

        # full repair rebuilds the labels and re-healthies
        report = serving.repair()
        assert report.ok
        assert not serving.degraded
        np.testing.assert_array_equal(serving.index.flows, expected_flows)
        assert_serving_correct(serving, frn)
        assert serving.distance(0, 7).source == "index"


CONSOLIDATE_POINTS = tuple(
    p for p in FAULT_POINTS if p.startswith("consolidate:")
)


@pytest.mark.chaos
class TestOverlayConsolidationChaos:
    """Kill background consolidation at every checkpoint; queries stay exact.

    The overlay serving contract: a consolidation crash can never corrupt
    the serving pair.  Before the swap commits, a kill discards the back
    buffer and the old (index, overlay) pair keeps answering; the commit
    itself is assignment-only, so a kill at ``swap-committed`` lands the
    *complete* new pair.  Either way the engine never exposes a
    half-swapped index, and a retry (or escalation) drains the backlog.
    """

    @pytest.mark.parametrize("point", CONSOLIDATE_POINTS)
    def test_kill_at_checkpoint_keeps_queries_exact(self, point):
        graph = fixed_graph()
        frn = FlowAwareRoadNetwork(
            graph, generate_flow_series(graph, days=1, seed=5)
        )
        serving = ResilientEngine(frn, max_retries=1)
        ts = 0.0
        for u, v, w in ((0, 1, 9.0), (5, 6, 0.5), (2, 4, 7.5)):
            ts += 1.0
            assert serving.submit(WeightUpdate(u, v, w, timestamp=ts)).applied
        ts += 1.0
        assert serving.submit(FlowUpdate(3, 42.0, timestamp=ts)).applied

        index_before = serving.index
        with FaultInjector() as inj:
            inj.fail_at(point, times=1)
            outcome = None
            while serving.consolidation_pending:
                outcome = serving.maintenance_tick(steps=1)
                # never a half-swapped pair: the engine's index and the
                # oracle's view swap in the same assignment block
                assert serving.oracle.index is serving.index
                assert_serving_correct(serving, frn)
                if outcome in ("failed", "done", "rebuilt"):
                    break
            assert point in inj.trace

        if outcome == "done":
            # the fault fired *after* the atomic swap: new pair is live
            assert serving.index is not index_before
        elif outcome == "failed":
            # pre-swap kill: back buffer discarded, serving pair untouched
            assert serving.index is index_before
            assert serving.dead_letters.by_reason["consolidation-failed"] == 1
        else:
            pytest.fail(f"unexpected consolidation outcome {outcome!r}")
        assert not serving.degraded

        # recovery: the next rounds drain the overlay and queued flows
        while serving.consolidation_pending:
            serving.maintenance_tick(steps=1)
            assert serving.oracle.index is serving.index
        assert serving.status().overlay_edges == 0
        assert serving.index.flows[3] == 42.0
        assert_serving_correct(serving, frn)
        assert serving.audit().ok

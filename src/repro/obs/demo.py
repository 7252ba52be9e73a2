"""A small fully-instrumented workload exercising every telemetry layer.

``run_demo`` builds a FAHL index over a synthetic grid FRN (build-phase
metrics), answers an FSPQ workload through both the serving engine and the
batch path (query + batch metrics, including the Lemma-4 pruning
counters), streams accepted and corrupt updates through the resilient
serving layer and consolidates them, one attempt failing on purpose
(maintenance + admission + consolidation metrics), and returns a tiny
summary.  The CLI (``fahl-repro obs report``) and the CI telemetry
job both run exactly this, so the exported Prometheus text always covers
the full metric catalogue of ``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

import math

from repro.core.batch import BatchReport, batch_query
from repro.core.fspq import FSPQuery
from repro.flow.synthetic import generate_flow_series
from repro.graph.frn import FlowAwareRoadNetwork
from repro.graph.generators import grid_network
from repro.serving.engine import ResilientEngine
from repro.serving.updates import FlowUpdate, WeightUpdate

__all__ = ["run_demo"]


def run_demo(
    side: int = 6,
    queries: int = 12,
    updates: int = 6,
    seed: int = 0,
    workers: int = 1,
) -> dict:
    """Run the instrumented demo workload; returns a small result summary.

    Telemetry lands on the *active* registry/tracer — callers enable or
    swap them first (the CLI installs a fresh enabled registry).
    """
    from repro.testing.faults import FaultInjector  # deterministic failure demo

    graph = grid_network(side, side, seed=seed)
    flow = generate_flow_series(graph, days=1, seed=seed + 1)
    frn = FlowAwareRoadNetwork(graph, flow)
    serving = ResilientEngine(
        frn, pruning="lemma4", max_retries=1, audit_samples=8
    )
    n = frn.num_vertices
    t_max = frn.num_timesteps

    # -- query workload: serving path + batch path ----------------------
    workload = [
        FSPQuery((3 * i) % n, (7 * i + 5) % n, i % t_max)
        for i in range(queries)
        if (3 * i) % n != (7 * i + 5) % n
    ]
    for query in workload[: max(1, len(workload) // 3)]:
        serving.query(query)
    report = BatchReport()
    batch_query(serving._engine, workload, workers=workers, report=report)

    # -- maintenance: absorb, then ILU (weight) + ISU (flow) on the back
    # buffer; the first consolidation attempt fails on purpose (counted
    # and dead-lettered), the retry commits the swap
    edges = list(graph.edges())[: max(1, updates // 2)]
    for i, (u, v, w) in enumerate(edges):
        serving.submit(WeightUpdate(u, v, max(1.0, w * (1.25 + 0.1 * i))))
    for i in range(max(1, updates - len(edges))):
        vertex = (11 * i + 1) % n
        serving.submit(FlowUpdate(vertex, 50.0 + 10.0 * i, timestamp=float(i)))
    with FaultInjector() as injector:
        injector.fail_at("consolidate:weights-folded", times=1)
        serving.maintenance_tick(steps=16)
    serving.consolidate()

    # -- admission control: corrupt updates are quarantined -------------
    serving.submit(FlowUpdate(1, math.nan, timestamp=100.0))
    serving.submit(FlowUpdate(n + 5, 1.0, timestamp=100.0))
    serving.submit(WeightUpdate(0, n + 5, 1.0, timestamp=100.0))

    serving.audit()
    status = serving.status()
    return {
        "vertices": n,
        "queries": len(workload),
        "batch_mode": report.mode,
        "state": status.state,
        "dead_letters": status.dead_letters_queued,
        "accepted_updates": status.metrics.get("updates_accepted", 0),
    }

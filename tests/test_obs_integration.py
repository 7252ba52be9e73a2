"""Telemetry under fault injection: chaos scenarios must show up in metrics.

The resilience machinery (rollback, quarantine, worker recovery) only
earns its keep if its activations are observable — each scenario here
drives a fault through the real stack and asserts the corresponding
``repro_*`` family moved.
"""

from __future__ import annotations

import math

import pytest

from repro import obs
from repro.core.batch import BatchReport, batch_query
from repro.core.fahl import FAHLIndex, build_fahl
from repro.core.fpsps import FlowAwareEngine
from repro.core.fspq import FSPQuery
from repro.core.maintenance import apply_flow_update
from repro.errors import MaintenanceError
from repro.flow.synthetic import generate_flow_series
from repro.graph.frn import FlowAwareRoadNetwork
from repro.graph.generators import grid_network
from repro.serving.engine import EngineStatus, ResilientEngine
from repro.serving.updates import FlowUpdate, WeightUpdate
from repro.testing import FaultInjector, WorkerFault


@pytest.fixture()
def registry():
    fresh = obs.MetricsRegistry(enabled=True)
    previous = obs.set_registry(fresh)
    try:
        yield fresh
    finally:
        obs.set_registry(previous)


@pytest.fixture()
def frn():
    graph = grid_network(5, 5, seed=11)
    return FlowAwareRoadNetwork(graph, generate_flow_series(graph, days=1, seed=2))


def test_rollback_is_counted(registry, frn):
    index = FAHLIndex.from_frn(frn)
    with FaultInjector() as injector:
        injector.fail_at("flow:flow-set")
        with pytest.raises(MaintenanceError):
            apply_flow_update(index, 0, 42.0)
    counter = registry.get("repro_maintenance_rollbacks_total")
    assert counter is not None
    assert counter.value(op="apply_flow_update") >= 1


def test_quarantine_metrics_and_dlq_gauge(registry, frn):
    serving = ResilientEngine(frn, audit_samples=4)
    n = frn.num_vertices
    serving.submit(FlowUpdate(1, math.nan))
    serving.submit(FlowUpdate(n + 5, 1.0))
    serving.submit(WeightUpdate(0, n + 5, 1.0))
    quarantined = registry.get("repro_serving_quarantined_total")
    assert quarantined.value(reason="non-finite") == 1
    assert quarantined.value(reason="unknown-vertex") == 2
    assert registry.get("repro_serving_updates_total").value(outcome="rejected") == 3
    assert registry.get("repro_serving_dead_letter_depth").value() == 3

    status = serving.status()
    assert isinstance(status, EngineStatus)
    assert status.dead_letters_queued == 3
    assert status.as_dict()["dead_letters_queued"] == 3
    assert status.metrics["updates_rejected"] == 3


def test_degraded_transition_metric(registry, frn):
    serving = ResilientEngine(frn, max_retries=0, audit_samples=4)
    serving.index.labels[0][-1] = 1.0  # corrupt a self entry: audit fails
    assert not serving.audit().ok
    assert serving.degraded
    assert registry.get("repro_serving_degraded_transitions_total").total() == 1
    assert registry.get("repro_serving_audits_total").value(ok="false") == 1
    serving.query(FSPQuery(0, 5, 0))
    assert (
        registry.get("repro_serving_queries_total").value(source="fallback") == 1
    )


@pytest.mark.chaos
def test_killed_worker_recovery_metric(registry, frn):
    engine = FlowAwareEngine(frn, oracle=build_fahl(frn), alpha=0.5, eta_u=3.0)
    n = frn.num_vertices
    queries = [
        FSPQuery(i % n, (i * 7 + 3) % n, i % frn.num_timesteps)
        for i in range(8)
        if i % n != (i * 7 + 3) % n
    ]
    report = BatchReport()
    with WorkerFault(position=0, kind="kill"):
        batch_query(engine, queries, workers=2, chunk_timeout=2.0, report=report)
    assert report.recovered_chunks >= 1
    assert registry.get("repro_batch_worker_recoveries_total").total() >= 1
    assert registry.get("repro_batch_chunk_failures_total").total() >= 1
    assert (
        registry.get("repro_batch_runs_total").value(mode="parallel-recovered") == 1
    )
    recovered = registry.get("repro_batch_chunk_seconds")
    assert recovered.count(mode="recovered") >= 1

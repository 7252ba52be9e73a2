"""Telemetry contract: the metric families and span names the stack emits.

Dashboards, alerts and ``fahl-repro obs lint --trace`` key on metric names,
kinds, label keys and span names, so a refactor of the instrumentation
must leave all four unchanged.  This test drives every layer with the
registry and a tracer on — the instrumented demo, one sharded-gateway
query, one gateway batch and one async window — and pins:

* the set of ``(family, kind, sorted label keys)`` triples recorded, and
* the set of span names emitted.

It deliberately pins *what is emitted*, not how it is measured.
"""

from __future__ import annotations

import asyncio

import pytest

from repro import FSPQuery, ShardedGateway, obs
from repro.flow.synthetic import generate_flow_series
from repro.graph.frn import FlowAwareRoadNetwork
from repro.graph.generators import grid_network
from repro.obs.demo import run_demo
from repro.serving.async_gateway import AsyncGateway

EXPECTED_FAMILIES = {
    ("repro_async_queue_depth", "gauge", ()),
    ("repro_async_request_seconds", "histogram", ("kind",)),
    ("repro_async_requests_total", "counter", ("kind",)),
    ("repro_async_resolved_total", "counter", ("kind", "outcome")),
    ("repro_async_window_seconds", "histogram", ()),
    ("repro_async_window_size", "gauge", ()),
    ("repro_async_windows_total", "counter", ()),
    ("repro_batch_chunk_seconds", "histogram", ("mode",)),
    ("repro_batch_fallbacks_total", "counter", ("reason",)),
    ("repro_batch_queries_total", "counter", ()),
    ("repro_batch_runs_total", "counter", ("mode",)),
    ("repro_build_phase_seconds", "histogram", ("phase",)),
    ("repro_flatq_heuristic_builds_total", "counter", ()),
    ("repro_flatq_spur_certified_total", "counter", ()),
    ("repro_flatq_spur_memo_hits_total", "counter", ()),
    ("repro_flatq_spur_searches_total", "counter", ()),
    ("repro_flatq_spur_skips_total", "counter", ()),
    ("repro_gateway_cache_entries", "gauge", ()),
    ("repro_gateway_cache_total", "counter", ("event", "shard")),
    ("repro_gateway_queries_total", "counter", ("route", "shard")),
    ("repro_gateway_query_seconds", "histogram", ("route", "shard")),
    ("repro_gateway_shard_degraded", "gauge", ("shard",)),
    ("repro_gateway_shard_vertices", "gauge", ("shard",)),
    ("repro_label_entries_scanned_total", "counter", ()),
    ("repro_label_gather_entries_total", "counter", ()),
    ("repro_label_pairs_batched_total", "counter", ()),
    ("repro_maintenance_affected_labels_total", "counter", ("op",)),
    ("repro_maintenance_bags_rebuilt_total", "counter", ("op",)),
    ("repro_maintenance_ops_total", "counter", ("op",)),
    ("repro_maintenance_seconds", "histogram", ("op",)),
    ("repro_maintenance_shortcuts_changed_total", "counter", ("op",)),
    ("repro_overlay_absorbed_total", "counter", ()),
    ("repro_overlay_consolidation_seconds", "histogram", ()),
    ("repro_overlay_consolidations_total", "counter", ()),
    ("repro_overlay_edges", "gauge", ()),
    ("repro_overlay_hubs", "gauge", ()),
    ("repro_overlay_ingest_seconds", "histogram", ()),
    ("repro_overlay_swap_seconds", "histogram", ()),
    ("repro_queries_total", "counter", ("pruning",)),
    ("repro_query_bound_evals_total", "counter", ("pruning",)),
    ("repro_query_candidates_total", "counter", ()),
    ("repro_query_early_stops_total", "counter", ()),
    ("repro_query_pruned_total", "counter", ("pruning",)),
    ("repro_query_seconds", "histogram", ("pruning",)),
    ("repro_query_truncated_total", "counter", ()),
    ("repro_serving_audits_total", "counter", ("ok",)),
    ("repro_serving_consolidation_failures_total", "counter", ()),
    ("repro_serving_consolidation_lag", "gauge", ()),
    ("repro_serving_consolidations_total", "counter", ()),
    ("repro_serving_dead_letter_depth", "gauge", ()),
    ("repro_serving_quarantined_total", "counter", ("reason",)),
    ("repro_serving_queries_total", "counter", ("source",)),
    ("repro_serving_query_seconds", "histogram", ("source",)),
    ("repro_serving_updates_total", "counter", ("outcome",)),
}

EXPECTED_SPANS = {
    "async.request",
    "async.window",
    "batch.query",
    "build.elimination",
    "build.labeling",
    "build.structure",
    "fpsps.query",
    "gateway.batch",
    "gateway.query",
    "maintenance.flow_update",
    "maintenance.weight_update",
    "serving.query",
}


def _families(registry: obs.MetricsRegistry) -> set[tuple[str, str, tuple]]:
    triples = set()
    for name, family in registry.families().items():
        samples = family.samples()
        label_sets = samples.keys() if samples else [()]
        for key in label_sets:
            triples.add((name, family.kind, tuple(k for k, _ in key)))
    return triples


@pytest.fixture()
def telemetry():
    registry = obs.MetricsRegistry(enabled=True)
    tracer = obs.Tracer()
    previous_registry = obs.set_registry(registry)
    previous_tracer = obs.set_tracer(tracer)
    try:
        yield registry, tracer
    finally:
        obs.set_tracer(previous_tracer)
        obs.set_registry(previous_registry)


def _drive_gateway() -> None:
    graph = grid_network(6, 6, seed=3)
    frn = FlowAwareRoadNetwork(graph, generate_flow_series(graph, days=1, seed=4))
    gateway = ShardedGateway(frn, num_shards=2, max_retries=0)
    n = frn.num_vertices
    gateway.query(FSPQuery(0, n - 1, 0))
    gateway.batch([FSPQuery(1, n - 2, 0), FSPQuery(2, n - 3, 0)])

    async def window():
        async with AsyncGateway(gateway) as front:
            await asyncio.gather(
                front.aquery(FSPQuery(0, n - 1, 0)),
                front.aquery(FSPQuery(3, n - 4, 0)),
            )

    asyncio.run(window())


def test_metric_and_span_contract(telemetry):
    registry, tracer = telemetry
    run_demo()
    _drive_gateway()

    assert _families(registry) == EXPECTED_FAMILIES
    names = {event["name"] for event in tracer.events}
    assert names == EXPECTED_SPANS
    assert obs.lint_spans(tracer.events) == []

"""Request tracing, query EXPLAIN, flight recorder and SLO monitor.

The acceptance matrix of the observability layer:

* one query through a :class:`ResilientEngine` behind a
  :class:`ShardedGateway` with fork-pool workers produces a *single
  stitched trace* — one trace id, spans parented across the process
  boundary, no span-id collisions;
* ``explain()`` is bit-identical to ``query()`` on both kernels
  (hypothesis-driven) and round-trips through JSON;
* the flight recorder ring is bounded, always on, and its dumps land in
  dead-letter entries, degraded transitions and recovery reports;
* the span-name taxonomy stays linted and in sync with
  docs/OBSERVABILITY.md;
* concurrent histogram writes + Prometheus export are safe.
"""

from __future__ import annotations

import json
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core.fahl import FAHLIndex
from repro.core.fpsps import FlowAwareEngine
from repro.core.fspq import FSPQuery
from repro.durability import Durability, recover
from repro.flow.synthetic import generate_flow_series
from repro.graph.frn import FlowAwareRoadNetwork
from repro.graph.generators import grid_network
from repro.obs import context as obs_context
from repro.obs import flight as obs_flight
from repro.obs import slo as obs_slo
from repro.obs.explain import QueryExplain
from repro.obs.flight import FlightRecorder
from repro.scale.gateway import ShardedGateway
from repro.serving.engine import ResilientEngine
from repro.serving.updates import FlowUpdate, WeightUpdate

DOCS = Path(__file__).resolve().parent.parent / "docs" / "OBSERVABILITY.md"


def _frn(side=8, seed=3):
    graph = grid_network(side, side, seed=seed)
    return FlowAwareRoadNetwork(graph, generate_flow_series(graph, days=1, seed=seed))


@pytest.fixture()
def registry():
    fresh = obs.MetricsRegistry(enabled=True)
    previous = obs.set_registry(fresh)
    try:
        yield fresh
    finally:
        obs.set_registry(previous)


@pytest.fixture()
def tracer():
    fresh = obs.Tracer()
    previous = obs.set_tracer(fresh)
    try:
        yield fresh
    finally:
        obs.set_tracer(previous)


@pytest.fixture()
def fresh_flight():
    """An isolated flight ring so parallel tests can't pollute dumps."""
    recorder = FlightRecorder(capacity=256)
    previous = obs_flight.set_flight(recorder)
    try:
        yield recorder
    finally:
        obs_flight.set_flight(previous)


# ----------------------------------------------------------------------
# request-context propagation
# ----------------------------------------------------------------------
class TestRequestContext:
    def test_new_context_ids_are_distinct(self):
        a, b = obs_context.new_context(), obs_context.new_context()
        assert a.trace_id != b.trace_id
        assert a.request_id != b.request_id

    def test_request_scope_is_idempotent_under_nesting(self):
        with obs_context.request_scope() as outer:
            with obs_context.request_scope() as inner:
                assert inner is outer
                assert obs_context.current_context() is outer
        assert obs_context.current_context() is None

    def test_wire_round_trip_restores_ids(self):
        ctx = obs_context.new_context(timeout=5.0)
        with obs_context.use_context(ctx):
            wire = obs_context.current_wire()
        assert wire["trace"] == ctx.trace_id
        assert wire["request"] == ctx.request_id
        assert wire["deadline"] == ctx.deadline
        # a forked child re-activates the wire and sees the same identity
        with obs_context.activate_wire(wire):
            child = obs_context.current_context()
            assert child.trace_id == ctx.trace_id
            assert child.request_id == ctx.request_id
        assert obs_context.current_context() is None

    def test_deadline_remaining_decreases(self):
        ctx = obs_context.new_context(timeout=60.0)
        remaining = ctx.remaining()
        assert remaining is not None and 0 < remaining <= 60.0
        assert obs_context.new_context().remaining() is None


# ----------------------------------------------------------------------
# the acceptance test: one stitched trace across gateway + fork pool
# ----------------------------------------------------------------------
class TestStitchedTrace:
    def _spans(self, tracer):
        return [e for e in tracer.events if e.get("event") == "span"]

    def test_gateway_fork_pool_single_trace(self, tracer, fresh_flight):
        frn = _frn()
        gateway = ShardedGateway(frn, num_shards=2, max_retries=0)
        n = frn.num_vertices
        # build the workload with the router itself: 8 queries the shard-0
        # ResilientEngine will serve locally plus 8 boundary-combine
        # queries, so both groups get >=2 of the 4 pool workers and the
        # fork pool genuinely engages on each side
        shard_pairs, cross_pairs = [], []
        for u in range(n):
            for v in range(u + 1, n):
                route, i, _ = gateway._route_class(FSPQuery(u, v, 0))
                if route == "shard" and i == 0 and len(shard_pairs) < 8:
                    shard_pairs.append((u, v))
                elif route == "boundary" and len(cross_pairs) < 8:
                    cross_pairs.append((u, v))
            if len(shard_pairs) >= 8 and len(cross_pairs) >= 8:
                break
        assert len(shard_pairs) >= 2 and len(cross_pairs) >= 2
        queries = [FSPQuery(u, v, 0) for u, v in shard_pairs + cross_pairs]
        # index-build spans from construction precede the request — the
        # stitched-trace contract covers the request's own spans
        tracer.events.clear()
        gateway.batch(queries, workers=4)

        spans = self._spans(tracer)
        assert spans, "tracer captured no spans"
        names = {s["name"] for s in spans}
        assert "gateway.batch" in names
        assert "serving.batch" in names  # the shard ResilientEngine path
        assert "batch.chunk" in names  # worker-side spans made it back
        assert "fpsps.query" in names

        # exactly one trace id stitches the whole request together
        traces = {s.get("trace") for s in spans}
        assert len(traces) == 1 and None not in traces
        requests = {s.get("request") for s in spans}
        assert len(requests) == 1 and None not in requests

        # span ids are unique even across processes and chunks
        ids = [s["span"] for s in spans]
        assert len(ids) == len(set(ids))

        # every non-root span's parent is a captured span: the tree is
        # fully stitched across the fork boundary
        by_id = {s["span"]: s for s in spans}
        roots = [s for s in spans if s.get("parent") is None]
        assert {s["name"] for s in roots} == {"gateway.batch"}
        for span in spans:
            parent = span.get("parent")
            if parent is not None:
                assert parent in by_id, (
                    f"span {span['name']} has unknown parent {parent}"
                )

        # the fork pool really crossed a process boundary
        pids = {s["pid"] for s in spans}
        assert len(pids) >= 2
        chunk_pids = {s["pid"] for s in spans if s["name"] == "batch.chunk"}
        parent_pid = next(
            s["pid"] for s in spans if s["name"] == "gateway.batch"
        )
        assert chunk_pids and parent_pid not in chunk_pids

        # worker spans are parented under the parent process's tree
        for span in spans:
            if span["name"] == "batch.chunk":
                assert by_id[span["parent"]]["name"] == "batch.query"

    def test_resilient_engine_query_is_traced(self, tracer):
        frn = _frn(side=5, seed=1)
        serving = ResilientEngine(frn, max_retries=0)
        tracer.events.clear()  # drop the construction-time build spans
        serving.query(FSPQuery(0, 7, 0))
        spans = self._spans(tracer)
        assert [s["name"] for s in spans][-1] == "serving.query"
        trace_ids = {s.get("trace") for s in spans}
        assert len(trace_ids) == 1 and None not in trace_ids

    def test_span_events_carry_wall_clock_and_duration(self, tracer):
        with obs.trace("serving.query", src=0, dst=1):
            pass
        (span,) = self._spans(tracer)
        # monotonic duration for truth, wall-clock end for cross-process
        # merging (the difference between the two measures clock skew)
        assert span["dur_s"] >= 0.0
        assert span["end"] >= span["start"]
        assert span["pid"] > 0


# ----------------------------------------------------------------------
# EXPLAIN: bit-identical to query() on both kernels
# ----------------------------------------------------------------------
class TestExplain:
    @pytest.fixture(scope="class")
    def engines(self):
        frn = _frn(side=6, seed=42)
        index = FAHLIndex.from_frn(frn)
        return frn, {
            kernel: FlowAwareEngine(
                frn, oracle=index, pruning="lemma4", kernel=kernel
            )
            for kernel in ("flat", "scalar")
        }

    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_explain_matches_query_bit_identical(self, engines, data):
        frn, built = engines
        n = frn.num_vertices
        u = data.draw(st.integers(min_value=0, max_value=n - 1), label="u")
        v = data.draw(st.integers(min_value=0, max_value=n - 1), label="v")
        t = data.draw(
            st.integers(min_value=0, max_value=frn.num_timesteps - 1),
            label="t",
        )
        for kernel, engine in built.items():
            expected = engine.query(FSPQuery(u, v, t))
            explain = engine.explain(u, v, timestep=t)
            assert explain.distance == expected.distance, kernel
            assert explain.flow == expected.flow, kernel
            assert explain.score == expected.score, kernel
            assert explain.path == expected.path, kernel

    def test_explain_capture_is_context_local(self, registry, monkeypatch):
        # thread A's explain is parked mid-evaluation while thread B serves
        # a query: B's metrics must reach the process registry, not A's
        # private capture
        frn = _frn(side=6, seed=42)
        engine = FlowAwareEngine(frn, oracle=FAHLIndex.from_frn(frn))
        inside = threading.Event()
        release = threading.Event()
        evaluate = engine._query_impl

        def parked(query):
            if threading.current_thread().name == "explainer":
                inside.set()
                assert release.wait(10)
            return evaluate(query)

        monkeypatch.setattr(engine, "_query_impl", parked)
        explained = []
        explainer = threading.Thread(
            target=lambda: explained.append(engine.explain(0, 35)),
            name="explainer",
        )
        explainer.start()
        try:
            assert inside.wait(10)
            served = engine.query(FSPQuery(1, 34, 0))
        finally:
            release.set()
            explainer.join(10)
        assert served.path[0] == 1
        assert explained and explained[0].path[0] == 0
        snapshot = registry.snapshot()
        assert snapshot["repro_queries_total"]["series"][0]["value"] == 1
        assert obs.get_registry() is registry

    def test_explain_shape_fields(self):
        # a fresh engine: label-scan counters must show cold-path work
        frn = _frn(side=6, seed=42)
        index = FAHLIndex.from_frn(frn)
        built = {
            kernel: FlowAwareEngine(
                frn, oracle=index, pruning="lemma4", kernel=kernel
            )
            for kernel in ("flat", "scalar")
        }
        explain = built["flat"].explain(0, frn.num_vertices - 1)
        assert explain.kernel == "flat"
        assert explain.engine == "flow"
        assert explain.hub_cutset_size >= 0
        assert explain.labels_scanned > 0
        assert explain.label_entries_source > 0
        assert explain.label_entries_target > 0
        assert set(explain.stage_seconds) == {"spdis", "evaluate", "total"}
        assert explain.stage_seconds["total"] >= explain.stage_seconds["evaluate"]
        assert built["scalar"].explain(0, 5).kernel == "scalar"

    def test_explain_does_not_leak_registry_state(self, engines):
        frn, built = engines
        assert not obs.get_registry().enabled
        before = set(obs.get_registry().families())
        built["flat"].explain(0, 9)
        assert obs.get_registry() is not None
        assert set(obs.get_registry().families()) == before
        assert not obs.get_registry().enabled

    def test_json_round_trip(self, engines):
        frn, built = engines
        explain = built["flat"].explain(2, 17)
        restored = QueryExplain.from_dict(
            json.loads(json.dumps(explain.to_dict()))
        )
        assert restored == explain

    def test_resilient_explain_delegates_and_annotates(self):
        frn = _frn(side=5, seed=1)
        serving = ResilientEngine(frn, max_retries=0)
        expected = serving.query(FSPQuery(0, 7, 0))
        explain = serving.explain(0, 7)
        assert explain.engine == "resilient"
        assert explain.answer_source == "index"
        assert not explain.degraded
        assert explain.distance == expected.result.distance
        assert explain.path == expected.result.path

    def test_gateway_explain_routes_and_remaps(self):
        frn = _frn()
        gateway = ShardedGateway(frn, num_shards=2, max_retries=0)
        n = frn.num_vertices
        pairs = [(u, v) for u in range(0, n, 7) for v in range(1, n, 11) if u != v]
        seen_routes = set()
        for u, v in pairs:
            expected = gateway.query(FSPQuery(u, v, 0))
            explain = gateway.explain(u, v)
            seen_routes.add(explain.route)
            assert explain.engine == "gateway"
            assert explain.source == u and explain.target == v
            assert explain.shards == (
                gateway.plan.shard(u), gateway.plan.shard(v)
            )
            assert explain.cache_hit is True  # query() above primed it
            assert explain.cache_epochs == gateway._epochs_for(*explain.shards)
            assert explain.boundary_vertices == (
                gateway.boundary.num_boundary_vertices
            )
            # bit-identical to the served answer, global vertex ids
            assert explain.distance == expected.result.distance
            assert explain.path == expected.result.path
            assert all(0 <= w < n for w in explain.path)
        assert "boundary" in seen_routes

    def test_gateway_explain_fallback_on_degraded_shard(self):
        frn = _frn(side=6, seed=5)
        gateway = ShardedGateway(frn, num_shards=2, max_retries=0)
        victim = gateway.plan.shard(0)
        shard = gateway.shards[victim]
        shard.index.labels[0][-1] = 1.0  # corrupt a self entry
        assert not shard.audit().ok
        assert gateway.degraded_shards == (victim,)
        u = gateway.plan.members[victim][0]
        v = gateway.plan.members[victim][1]
        explain = gateway.explain(u, v)
        assert explain.route == "fallback"
        assert explain.degraded
        assert explain.answer_source == "fallback"

    def test_gateway_explain_boundary_route_reports_the_flat_kernel(self):
        frn = _frn()
        gateway = ShardedGateway(frn, num_shards=2, max_retries=0)
        n = frn.num_vertices
        u, v = next(
            (u, v) for u in range(n) for v in range(n - 1, -1, -1)
            if gateway._route_class(FSPQuery(u, v, 0))[0] == "boundary"
        )
        explain = gateway.explain(u, v)
        # a fresh gateway: the explain built the kernel and its one table
        stats = dict(gateway.flow_engine._flat_kernel_cache.stats)
        expected = gateway.query(FSPQuery(u, v, 0)).result
        assert explain.route == "boundary"
        assert explain.kernel == "flat"
        assert explain.heuristic_builds == stats["heuristic_builds"] == 1
        assert explain.spur_searches == stats["astar_runs"] > 0
        assert explain.spur_memo_hits == stats["spur_memo_hits"]
        assert explain.spur_skips == stats["spur_skips"]
        assert explain.spur_certified == stats["spur_certified"]
        assert set(explain.stage_seconds) == {"spdis", "evaluate", "total"}
        assert explain.stage_seconds["total"] >= explain.stage_seconds["evaluate"]
        # the boundary oracle is not a hierarchy index: no label fields
        assert explain.hub_cutset_size is None
        assert explain.label_entries_source is None
        assert explain.label_entries_target is None
        assert (explain.distance, explain.flow, explain.score, explain.path) == (
            expected.distance, expected.flow, expected.score, expected.path
        )
        assert explain.shortest_distance == expected.shortest_distance
        assert explain.num_candidates == expected.num_candidates

    def test_gateway_explain_leaves_the_result_cache_untouched(self):
        frn = _frn()
        gateway = ShardedGateway(frn, num_shards=2, max_retries=0)
        n = frn.num_vertices
        stale = FSPQuery(2, n - 3, 0)
        gateway.query(stale)
        u, v, w = next(iter(frn.graph.edges()))
        assert gateway.submit(WeightUpdate(u, v, w + 1.0, timestamp=1.0)).applied
        first, second = FSPQuery(0, n - 1, 0), FSPQuery(1, n - 2, 0)
        gateway.query(first)
        gateway.query(second)
        stats = gateway.cache.stats()
        order = list(gateway.cache._entries)
        assert order[0] == ("q", stale.source, stale.target, 0)
        verdicts = [
            gateway.explain(q.source, q.target, q.timestep).cache_hit
            for q in (first, stale, second, first)
        ]
        assert verdicts == [True, False, True, True]
        # no hit/miss counted, no LRU move, the stale entry not dropped
        assert gateway.cache.stats() == stats
        assert list(gateway.cache._entries) == order


# ----------------------------------------------------------------------
# flight recorder
# ----------------------------------------------------------------------
class TestFlightRecorder:
    def test_ring_is_bounded(self):
        recorder = FlightRecorder(capacity=512)
        for i in range(10_000):
            recorder.note("serving.query", i=i)
        assert len(recorder) == 512
        assert len(recorder._slots) == 512  # storage never grows
        events = recorder.dump()
        assert len(events) == 512
        # the dump is the newest events, oldest-first
        kept = [e["attrs"]["i"] for e in events]
        assert kept == list(range(10_000 - 512, 10_000))

    def test_dump_last_and_seconds_filters(self):
        recorder = FlightRecorder(capacity=16)
        for i in range(8):
            recorder.note("serving.query", i=i)
        assert len(recorder.dump(last=3)) == 3
        assert recorder.dump(seconds=0.0) == []
        assert len(recorder.dump(seconds=3600.0)) == 8

    def test_concurrent_recording_stays_bounded(self):
        recorder = FlightRecorder(capacity=64)
        errors: list[BaseException] = []

        def hammer(tag):
            try:
                for i in range(2_000):
                    recorder.record({"event": "note", "tag": tag, "i": i})
            except BaseException as exc:  # pragma: no cover
                errors.append(exc)

        threads = [
            threading.Thread(target=hammer, args=(t,)) for t in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len(recorder) == 64
        assert len(recorder.dump()) == 64

    def test_slow_query_threshold(self):
        recorder = FlightRecorder(capacity=8, slow_threshold=0.025)
        recorder.observe_query("serving.query", 0.001)
        assert len(recorder) == 0
        recorder.observe_query("serving.query", 0.030, source="index")
        (event,) = recorder.dump()
        assert event["event"] == "slow_query"
        assert event["dur_s"] == 0.030

    def test_span_events_mirror_into_global_ring(self, tracer, fresh_flight):
        with obs.trace("serving.query", src=0, dst=1):
            pass
        events = obs_flight.dump()
        assert any(e.get("event") == "span" for e in events)

    def test_dead_letter_carries_flight_dump(self, fresh_flight):
        frn = _frn(side=5, seed=1)
        serving = ResilientEngine(frn, max_retries=0)
        serving.submit(FlowUpdate(frn.num_vertices + 5, 1.0))
        letter = list(serving.dead_letters)[-1]
        assert letter.flight, "quarantine did not capture a flight dump"
        notes = [
            e for e in letter.flight
            if e.get("event") == "note"
            and e.get("name") == "serving.dead_letter"
        ]
        assert notes and notes[-1]["attrs"]["reason"] == "unknown-vertex"

    def test_degraded_transition_captures_flight(self, fresh_flight):
        frn = _frn(side=5, seed=1)
        serving = ResilientEngine(frn, max_retries=0)
        assert serving.last_degraded_flight == ()
        serving.index.labels[0][-1] = 1.0  # corrupt a self entry
        assert not serving.audit().ok
        assert serving.degraded
        assert serving.last_degraded_flight
        assert any(
            e.get("name") == "serving.degraded_transition"
            for e in serving.last_degraded_flight
        )

    def test_recovery_report_carries_flight(self, tmp_path, fresh_flight):
        frn = _frn(side=5, seed=1)
        durability = Durability(tmp_path)
        engine = ResilientEngine(frn, durability=durability)
        u, v, w = next(iter(frn.graph.edges()))
        assert engine.submit(WeightUpdate(u, v, w * 1.5, timestamp=1.0)).applied
        durability.close()
        recovered = recover(tmp_path, _frn(side=5, seed=1))
        report = recovered.last_recovery
        assert report.flight
        assert any(
            e.get("name") == "durability.recover" for e in report.flight
        )

    def test_suppressed_recorder_dumps_empty(self):
        previous = obs_flight.set_flight(None)
        try:
            obs_flight.note("serving.query")
            assert obs_flight.dump() == ()
        finally:
            obs_flight.set_flight(previous)


# ----------------------------------------------------------------------
# SLO monitor
# ----------------------------------------------------------------------
class TestSLOMonitor:
    def test_burn_rate_math(self):
        clock = iter(float(i) for i in range(1000))
        monitor = obs.SLOMonitor(
            objective_seconds=0.1, target=0.99, window_seconds=300.0,
            clock=lambda: next(clock),
        )
        for _ in range(98):
            monitor.observe(0.01)
        monitor.observe(0.5)          # objective violation
        monitor.observe(0.01, ok=False)  # degraded answer burns budget too
        summary = monitor.summary()
        assert summary["count"] == 100
        # bad = latency violation + degraded answer
        assert summary["violations"] == 2
        assert summary["good_fraction"] == pytest.approx(0.98)
        # bad fraction 2% against a 1% budget: burn rate 2, budget gone
        assert summary["burn_rate"] == pytest.approx(2.0)
        assert summary["budget_remaining"] == 0.0

    def test_window_expiry(self):
        now = [0.0]
        monitor = obs.SLOMonitor(
            objective_seconds=0.1, window_seconds=10.0, clock=lambda: now[0]
        )
        monitor.observe(0.5)
        now[0] = 5.0
        monitor.observe(0.01)
        assert monitor.summary()["count"] == 2
        now[0] = 11.0  # the violation at t=0 ages out
        summary = monitor.summary()
        assert summary["count"] == 1
        assert summary["violations"] == 0

    def test_serving_query_feeds_installed_monitor(self, fresh_flight):
        frn = _frn(side=5, seed=1)
        serving = ResilientEngine(frn, max_retries=0)
        monitor = obs.SLOMonitor(objective_seconds=10.0)
        previous = obs_slo.set_slo_monitor(monitor)
        try:
            serving.query(FSPQuery(0, 7, 0))
            serving.query(FSPQuery(1, 9, 0))
        finally:
            obs_slo.set_slo_monitor(previous)
        summary = monitor.summary()
        assert summary["count"] == 2
        assert summary["violations"] == 0


# ----------------------------------------------------------------------
# span-name taxonomy lint + docs sync
# ----------------------------------------------------------------------
class TestSpanTaxonomy:
    def test_workload_spans_pass_lint(self, registry, tracer, fresh_flight):
        frn = _frn(side=6, seed=2)
        gateway = ShardedGateway(frn, num_shards=2, max_retries=0)
        n = frn.num_vertices
        queries = [
            FSPQuery((3 * i) % n, (7 * i + 5) % n, 0)
            for i in range(8)
            if (3 * i) % n != (7 * i + 5) % n
        ]
        gateway.query(queries[0])
        gateway.batch(queries, workers=2)
        u, v, w = next(iter(frn.graph.edges()))
        gateway.submit(WeightUpdate(u, v, w * 1.25, timestamp=1.0))
        assert obs.lint_spans(tracer.events) == []

    def test_lint_flags_uncatalogued_and_malformed_names(self):
        events = [
            {"event": "span", "name": "gateway.query"},
            {"event": "span", "name": "NotDotted"},
            {"event": "span", "name": "made.up_name"},
            {"event": "note", "name": "WHATEVER"},  # non-spans pass through
        ]
        problems = obs.lint_spans(events)
        assert len(problems) == 2
        assert any("NotDotted" in p for p in problems)
        assert any("made.up_name" in p for p in problems)

    def test_lint_accepts_jsonl_strings(self):
        lines = [
            json.dumps({"event": "span", "name": "fpsps.query"}),
            "",
            json.dumps({"event": "span", "name": "experiment.fig6"}),
        ]
        assert obs.lint_spans(lines) == []
        assert obs.lint_spans(["{broken"])

    def test_catalogue_is_in_sync_with_docs(self):
        text = DOCS.read_text(encoding="utf-8")
        missing = [
            name for name in sorted(obs.SPAN_CATALOGUE)
            if f"`{name}`" not in text
        ]
        assert not missing, (
            "span names missing from the docs/OBSERVABILITY.md taxonomy "
            f"table: {missing}"
        )


# ----------------------------------------------------------------------
# gateway shard-labelled metrics
# ----------------------------------------------------------------------
class TestGatewayShardMetrics:
    def test_route_and_cache_metrics_carry_shard_label(self, registry):
        frn = _frn()
        gateway = ShardedGateway(frn, num_shards=2, max_retries=0)
        # find a pair the router provably keeps inside one shard
        members = gateway.plan.members[0]
        routed = None
        for u, v in zip(members, members[1:]):
            if gateway.query(FSPQuery(u, v, 0)).source == "shard":
                routed = (u, v)
                break
        assert routed is not None, "no intra-shard pair routed locally"
        u, v = routed
        gateway.query(FSPQuery(u, v, 0))  # cache hit

        routes = registry.get("repro_gateway_queries_total")
        labelled = [dict(key) for key in routes.samples()]
        assert labelled and all("shard" in labels for labels in labelled)
        shard_hits = [
            labels for labels in labelled if labels["route"] == "shard"
        ]
        assert shard_hits and all(
            labels["shard"].isdigit() for labels in shard_hits
        )
        # boundary/fallback routes carry the "-" placeholder
        assert all(
            labels["shard"] == "-"
            for labels in labelled if labels["route"] != "shard"
        )

        cache = registry.get("repro_gateway_cache_total")
        cache_labels = [dict(key) for key in cache.samples()]
        assert cache_labels and all("shard" in ls for ls in cache_labels)
        assert cache.value(event="hit", shard="0") >= 1

    def test_query_latency_histogram_per_route_and_shard(self, registry):
        frn = _frn()
        gateway = ShardedGateway(frn, num_shards=2, max_retries=0)
        members = gateway.plan.members[1]
        gateway.query(FSPQuery(members[0], members[1], 0))
        hist = registry.get("repro_gateway_query_seconds")
        label_sets = [dict(key) for key in hist.label_sets()]
        assert label_sets
        assert all({"route", "shard"} <= set(ls) for ls in label_sets)


# ----------------------------------------------------------------------
# concurrency: histogram hammer with live export
# ----------------------------------------------------------------------
class TestConcurrentTelemetry:
    def test_histogram_hammer_with_concurrent_export(self):
        registry = obs.MetricsRegistry(enabled=True)
        hist = registry.histogram(
            "repro_gateway_query_seconds", "hammer target"
        )
        per_thread = 2_000
        errors: list[BaseException] = []
        stop = threading.Event()

        def writer(tag):
            try:
                for i in range(per_thread):
                    hist.observe(
                        (i % 50) / 1000.0, route="shard", shard=str(tag % 2)
                    )
            except BaseException as exc:  # pragma: no cover
                errors.append(exc)

        def exporter():
            try:
                while not stop.is_set():
                    text = obs.render_prometheus(registry)
                    assert obs.lint_prometheus(text) == []
            except BaseException as exc:  # pragma: no cover
                errors.append(exc)

        export_thread = threading.Thread(target=exporter)
        export_thread.start()
        threads = [
            threading.Thread(target=writer, args=(t,)) for t in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        stop.set()
        export_thread.join()
        assert not errors
        total = sum(
            hist.count(route="shard", shard=shard) for shard in ("0", "1")
        )
        assert total == 8 * per_thread


# ----------------------------------------------------------------------
# CLI round-trips
# ----------------------------------------------------------------------
class TestCLI:
    def test_explain_json_round_trips(self, capsys):
        from repro.cli import main

        assert main([
            "explain", "3", "40",
            "--dataset", "BRN", "--scale", "0.05", "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        restored = QueryExplain.from_dict(payload)
        assert restored.source == 3 and restored.target == 40
        assert restored.to_dict() == payload

    def test_explain_rejects_bad_vertex(self, capsys):
        from repro.cli import main

        assert main([
            "explain", "0", "999999",
            "--dataset", "BRN", "--scale", "0.05",
        ]) == 2
        assert "explain failed" in capsys.readouterr().err

    def test_obs_flight_json(self, capsys, fresh_flight):
        from repro.cli import main

        assert main([
            "obs", "flight", "--side", "4", "--queries", "6",
            "--updates", "3", "--last", "8", "--json",
        ]) == 0
        events = json.loads(capsys.readouterr().out)
        assert isinstance(events, list) and events
        assert all("event" in e for e in events)

    def test_obs_top_json(self, capsys, fresh_flight):
        from repro.cli import main

        assert main([
            "obs", "top", "--side", "4", "--queries", "6",
            "--updates", "3", "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["slo"]["count"] >= 1
        assert "slowest" in payload

    def test_obs_lint_trace_file(self, tmp_path, capsys):
        from repro.cli import main

        good = tmp_path / "good.jsonl"
        good.write_text(
            json.dumps({"event": "span", "name": "fpsps.query"}) + "\n",
            encoding="utf-8",
        )
        assert main(["obs", "lint", "--trace", str(good)]) == 0
        bad = tmp_path / "bad.jsonl"
        bad.write_text(
            json.dumps({"event": "span", "name": "bogus_name"}) + "\n",
            encoding="utf-8",
        )
        assert main(["obs", "lint", "--trace", str(bad)]) == 1
        assert main(["obs", "lint"]) == 2

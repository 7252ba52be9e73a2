"""Unit tests for the telemetry subsystem (repro.obs)."""

from __future__ import annotations

import io
import json
import math

import pytest

from repro import obs
from repro.obs.registry import NULL_COUNTER, NULL_GAUGE, NULL_HISTOGRAM
from repro.obs.report import render_report


@pytest.fixture()
def registry():
    """A fresh enabled registry installed as the process registry."""
    fresh = obs.MetricsRegistry(enabled=True)
    previous = obs.set_registry(fresh)
    try:
        yield fresh
    finally:
        obs.set_registry(previous)


@pytest.fixture()
def tracer():
    """An in-memory tracer installed for the test."""
    fresh = obs.Tracer()
    previous = obs.set_tracer(fresh)
    try:
        yield fresh
    finally:
        obs.set_tracer(previous)


# ----------------------------------------------------------------------
# registry: counters, gauges, histograms
# ----------------------------------------------------------------------
class TestCounter:
    def test_inc_and_value(self, registry):
        c = registry.counter("repro_things_total", "things")
        c.inc()
        c.inc(2.5)
        assert c.value() == 3.5
        assert c.total() == 3.5

    def test_labels_are_independent_series(self, registry):
        c = registry.counter("repro_ops_total")
        c.inc(op="ilu")
        c.inc(3, op="gsu")
        assert c.value(op="ilu") == 1
        assert c.value(op="gsu") == 3
        assert c.value(op="isu") == 0
        assert c.total() == 4

    def test_label_order_is_irrelevant(self, registry):
        c = registry.counter("repro_pairs_total")
        c.inc(a=1, b=2)
        assert c.value(b=2, a=1) == 1

    def test_negative_increment_raises(self, registry):
        c = registry.counter("repro_mono_total")
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_kind_conflict_raises(self, registry):
        registry.counter("repro_conflict")
        with pytest.raises(ValueError):
            registry.gauge("repro_conflict")

    def test_family_fetch_is_idempotent(self, registry):
        a = registry.counter("repro_same_total", "first help wins")
        b = registry.counter("repro_same_total", "ignored")
        assert a is b
        assert a.help == "first help wins"


class TestGauge:
    def test_set_inc_dec(self, registry):
        g = registry.gauge("repro_depth")
        g.set(10)
        g.inc(5)
        g.dec(3)
        assert g.value() == 12


class TestHistogram:
    def test_bucketing_against_known_bounds(self, registry):
        h = registry.histogram("repro_lat_seconds", buckets=(0.001, 0.01, 0.1))
        for value in (0.0005, 0.005, 0.005, 0.05, 5.0):
            h.observe(value)
        series = h.samples()[()]
        # per-bucket counts: <=1ms, <=10ms, <=100ms, +Inf overflow
        assert series.bucket_counts == [1, 2, 1, 1]
        assert series.count == 5
        assert series.total == pytest.approx(5.0605)

    def test_boundary_value_lands_in_its_bucket(self, registry):
        h = registry.histogram("repro_edge_seconds", buckets=(1.0, 2.0))
        h.observe(1.0)  # le="1.0" means <=, so exactly 1.0 belongs there
        assert h.samples()[()].bucket_counts == [1, 0, 0]

    def test_quantile_and_mean(self, registry):
        h = registry.histogram("repro_q_seconds", buckets=(1.0, 2.0, 4.0))
        for value in (0.5, 0.5, 1.5, 3.0):
            h.observe(value)
        assert h.mean() == pytest.approx(1.375)
        assert h.quantile(0.5) == 1.0  # bucket upper bound estimate
        assert h.quantile(1.0) == 4.0
        assert h.count() == 4

    def test_overflow_quantile_is_inf(self, registry):
        h = registry.histogram("repro_of_seconds", buckets=(1.0,))
        h.observe(100.0)
        assert h.quantile(0.99) == math.inf

    def test_default_buckets_are_log_scale(self):
        buckets = obs.default_latency_buckets()
        assert buckets[0] == pytest.approx(1e-6)
        assert all(b2 / b1 == pytest.approx(2.0) for b1, b2 in zip(buckets, buckets[1:]))

    def test_unsorted_buckets_raise(self, registry):
        with pytest.raises(ValueError):
            registry.histogram("repro_bad_seconds", buckets=(2.0, 1.0))


class TestDisabledRegistry:
    def test_disabled_registry_hands_out_nulls(self):
        registry = obs.MetricsRegistry(enabled=False)
        assert registry.counter("repro_x_total") is NULL_COUNTER
        assert registry.gauge("repro_x") is NULL_GAUGE
        assert registry.histogram("repro_x_seconds") is NULL_HISTOGRAM
        assert registry.families() == {}

    def test_null_instruments_accept_everything(self):
        NULL_COUNTER.inc(5, op="x")
        NULL_GAUGE.set(3)
        NULL_GAUGE.dec()
        NULL_HISTOGRAM.observe(1.0, phase="y")
        assert NULL_COUNTER.value() == 0.0
        assert NULL_HISTOGRAM.count() == 0

    def test_enable_disable_toggles(self):
        registry = obs.MetricsRegistry(enabled=False)
        registry.enable().counter("repro_now_total").inc()
        assert registry.get("repro_now_total").total() == 1
        registry.disable()
        registry.counter("repro_now_total").inc()  # null — dropped
        assert registry.get("repro_now_total").total() == 1

    def test_module_level_helpers_track_active_registry(self, registry):
        obs.counter("repro_mod_total").inc(2)
        assert registry.get("repro_mod_total").total() == 2


# ----------------------------------------------------------------------
# tracing
# ----------------------------------------------------------------------
class TestTracer:
    def test_span_event_shape(self, tracer):
        with obs.trace("unit.op", k=1) as span:
            span.annotate(result="ok")
        (event,) = tracer.events
        assert event["event"] == "span"
        assert event["name"] == "unit.op"
        assert event["parent"] is None
        assert event["attrs"] == {"k": 1, "result": "ok"}
        assert event["dur_s"] >= 0

    def test_nested_spans_record_parentage(self, tracer):
        with obs.trace("outer") as outer:
            with obs.trace("inner"):
                pass
        inner_event, outer_event = tracer.events  # inner exits first
        assert inner_event["name"] == "inner"
        assert inner_event["parent"] == outer.span_id
        assert outer_event["parent"] is None

    def test_exception_is_recorded_and_propagates(self, tracer):
        with pytest.raises(RuntimeError):
            with obs.trace("unit.fail"):
                raise RuntimeError("boom")
        (event,) = tracer.events
        assert event["error"] == "RuntimeError"

    def test_no_tracer_is_a_noop(self):
        assert obs.get_tracer() is None
        with obs.trace("unit.ignored") as span:
            pass
        assert span.span_id is None

    def test_file_sink_writes_json_lines(self):
        sink = io.StringIO()
        tracer = obs.Tracer(sink)
        previous = obs.set_tracer(tracer)
        try:
            with obs.trace("unit.jsonl"):
                pass
        finally:
            obs.set_tracer(previous)
        event = json.loads(sink.getvalue())
        assert event["name"] == "unit.jsonl"


class TestTimingHelpers:
    def test_stopwatch_always_measures(self):
        with obs.stopwatch() as sw:
            pass
        assert sw.seconds >= 0.0
        assert sw.ms == pytest.approx(sw.seconds * 1000.0)

    def test_stopwatch_records_histogram_when_enabled(self, registry):
        with obs.stopwatch(metric="repro_sw_seconds", phase="x"):
            pass
        assert registry.get("repro_sw_seconds").count(phase="x") == 1

    def test_stopwatch_emits_span(self, registry, tracer):
        with obs.stopwatch(span="unit.sw", k=2):
            pass
        (event,) = tracer.events
        assert event["name"] == "unit.sw"
        assert event["attrs"] == {"k": 2}

    def test_stopwatch_is_the_span_primitive(self, registry):
        with obs.stopwatch(metric="repro_sw_seconds") as sw:
            pass
        assert isinstance(sw, obs.Span)
        with obs.trace("unit.op", metric="repro_op_seconds",
                       labels={"route": "a"}, k=1) as span:
            span.label(shard="0")
        assert span.seconds >= 0.0
        assert registry.get("repro_op_seconds").count(route="a", shard="0") == 1

    def test_span_records_nothing_when_the_block_raises(self, registry):
        with pytest.raises(RuntimeError):
            with obs.stopwatch(metric="repro_boom_seconds"):
                raise RuntimeError("boom")
        assert registry.get("repro_boom_seconds") is None

    def test_expired_timing_shims_are_gone(self):
        """``obs.Stopwatch`` and ``obs.timed`` finished their deprecation
        cycle: the span (``obs.stopwatch`` / ``obs.trace``) is the one
        timer."""
        with pytest.raises(AttributeError):
            obs.Stopwatch
        with pytest.raises(AttributeError):
            obs.timed


# ----------------------------------------------------------------------
# exporters
# ----------------------------------------------------------------------
class TestPrometheusExport:
    def _populate(self, registry):
        registry.counter("repro_ops_total", "operations").inc(2, op="ilu")
        registry.counter("repro_ops_total").inc(5, op="gsu")
        registry.gauge("repro_depth", "queue depth").set(7)
        h = registry.histogram(
            "repro_lat_seconds", "latency", buckets=(0.001, 0.01)
        )
        h.observe(0.0005, mode="a")
        h.observe(0.5, mode="a")

    def test_round_trip(self, registry):
        self._populate(registry)
        text = obs.render_prometheus(registry)
        parsed = obs.parse_prometheus(text)
        ops = parsed["repro_ops_total"]
        assert ops["type"] == "counter"
        assert ops["samples"][("repro_ops_total", (("op", "ilu"),))] == 2
        assert ops["samples"][("repro_ops_total", (("op", "gsu"),))] == 5
        assert parsed["repro_depth"]["samples"][("repro_depth", ())] == 7
        lat = parsed["repro_lat_seconds"]
        assert lat["type"] == "histogram"
        samples = lat["samples"]
        assert samples[
            ("repro_lat_seconds_bucket", (("le", "0.001"), ("mode", "a")))
        ] == 1
        assert samples[
            ("repro_lat_seconds_bucket", (("le", "+Inf"), ("mode", "a")))
        ] == 2
        assert samples[("repro_lat_seconds_count", (("mode", "a"),))] == 2

    def test_export_passes_lint(self, registry):
        self._populate(registry)
        assert obs.lint_prometheus(obs.render_prometheus(registry)) == []

    def test_lint_rejects_bad_names(self):
        text = "# TYPE bad_name_total counter\nbad_name_total 1\n"
        problems = obs.lint_prometheus(text)
        assert any("bad_name_total" in p for p in problems)

    def test_lint_rejects_duplicate_families(self):
        text = (
            "# TYPE repro_dup_total counter\nrepro_dup_total 1\n"
            "# TYPE repro_dup_total counter\nrepro_dup_total 2\n"
        )
        problems = obs.lint_prometheus(text)
        assert any("duplicate" in p for p in problems)

    def test_lint_rejects_untyped_samples(self):
        problems = obs.lint_prometheus("repro_untyped_total 3\n")
        assert any("TYPE" in p for p in problems)

    def test_lint_rejects_negative_counter(self):
        text = "# TYPE repro_neg_total counter\nrepro_neg_total -1\n"
        problems = obs.lint_prometheus(text)
        assert any("invalid value" in p for p in problems)

    def test_jsonl_snapshot(self, registry):
        self._populate(registry)
        sink = io.StringIO()
        obs.write_snapshot_jsonl(registry, sink)
        lines = [json.loads(line) for line in sink.getvalue().splitlines()]
        names = {line["metric"] for line in lines}
        assert {"repro_ops_total", "repro_depth", "repro_lat_seconds"} <= names


# ----------------------------------------------------------------------
# report rendering
# ----------------------------------------------------------------------
class TestReport:
    def test_empty_registry_renders_placeholder(self, registry):
        assert "no telemetry captured" in render_report(registry)

    def test_report_covers_populated_sections(self, registry):
        registry.histogram("repro_query_seconds").observe(0.001, pruning="lemma4")
        registry.counter("repro_queries_total").inc(pruning="lemma4")
        registry.counter("repro_query_bound_evals_total").inc(10, pruning="lemma4")
        registry.counter("repro_query_pruned_total").inc(4, pruning="lemma4")
        registry.histogram("repro_maintenance_seconds").observe(0.002, op="ilu")
        registry.counter("repro_maintenance_ops_total").inc(op="ilu")
        text = render_report(registry)
        assert "FSPQ queries" in text
        assert "0.400" in text  # pruning rate = 4 / 10
        assert "maintenance" in text
        assert "ilu" in text

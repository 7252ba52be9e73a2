"""Unified telemetry for the FAHL stack: metrics, spans, exporters.

One process-local :class:`~repro.obs.registry.MetricsRegistry` (disabled by
default — library users pay ~nothing) receives counters, gauges and
log-bucket latency histograms from every instrumented layer:

======================  =====================================================
layer                   metric families (see docs/OBSERVABILITY.md)
======================  =====================================================
FPSPS / FSPQ query      ``repro_query_seconds``, ``repro_queries_total``,
                        ``repro_query_bound_evals_total`` /
                        ``repro_query_pruned_total`` (Lemma 4),
                        ``repro_label_entries_scanned_total``
maintenance             ``repro_maintenance_seconds{op=ilu|isu|gsu|noop}``,
                        ``repro_maintenance_rollbacks_total``,
                        affected-label / bags-rebuilt counters
serving                 ``repro_serving_updates_total{outcome}``,
                        consolidation / repair / audit counters,
                        ``repro_serving_dead_letter_depth`` gauge
batch pool              ``repro_batch_chunk_seconds``,
                        ``repro_batch_worker_recoveries_total``, fallbacks
index build             ``repro_build_phase_seconds{phase}``
======================  =====================================================

Usage::

    from repro import obs

    obs.enable()                       # or obs.set_registry(MetricsRegistry())
    ... run queries / maintenance ...
    print(obs.render_prometheus(obs.get_registry()))

    with obs.trace("fpsps.query", src=0, dst=9) as span:   # the one timer
        engine.query(q)
    span.seconds                       # always measured; traced when a tracer is on

The CLI front door is ``fahl-repro obs report`` (human table + optional
Prometheus/JSONL exports) and ``fahl-repro obs lint`` (the CI gate).
"""

from __future__ import annotations

import contextlib
from contextvars import ContextVar
from typing import Iterator

from repro.obs.context import (
    RequestContext,
    activate_wire,
    current_context,
    current_wire,
    new_context,
    request_scope,
    use_context,
)
from repro.obs.explain import QueryExplain
from repro.obs.export import (
    METRIC_NAME_RE,
    SPAN_NAME_RE,
    SPAN_CATALOGUE,
    lint_prometheus,
    lint_spans,
    parse_prometheus,
    render_prometheus,
    write_snapshot_jsonl,
)
from repro.obs.flight import (
    FlightRecorder,
    get_flight,
    set_flight,
)
from repro.obs.latency import LatencyRecorder, latency_summary
from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    default_latency_buckets,
)
from repro.obs.slo import (
    SLOMonitor,
    get_slo_monitor,
    set_slo_monitor,
)
from repro.obs.trace import (
    FrontDoor,
    Span,
    Tracer,
    front_door,
    get_tracer,
    set_tracer,
    stopwatch,
    trace,
)

__all__ = [
    "Counter",
    "FlightRecorder",
    "FrontDoor",
    "Gauge",
    "Histogram",
    "LatencyRecorder",
    "METRIC_NAME_RE",
    "MetricsRegistry",
    "QueryExplain",
    "RequestContext",
    "SLOMonitor",
    "SPAN_CATALOGUE",
    "SPAN_NAME_RE",
    "Span",
    "Tracer",
    "activate_wire",
    "capture_registry",
    "counter",
    "current_context",
    "current_wire",
    "default_latency_buckets",
    "disable",
    "enable",
    "front_door",
    "gauge",
    "get_flight",
    "get_registry",
    "get_slo_monitor",
    "get_tracer",
    "histogram",
    "latency_summary",
    "lint_prometheus",
    "lint_spans",
    "new_context",
    "parse_prometheus",
    "render_prometheus",
    "request_scope",
    "set_flight",
    "set_registry",
    "set_slo_monitor",
    "set_tracer",
    "stopwatch",
    "trace",
    "use_context",
    "write_snapshot_jsonl",
]

#: The process-default registry.  Starts *disabled*: every instrumented
#: path checks ``get_registry().enabled`` (or receives a null instrument)
#: and skips all bookkeeping, so plain library use stays uninstrumented.
_REGISTRY = MetricsRegistry(enabled=False)

#: A context-local override of the process registry (see
#: :func:`capture_registry`).  Checked first by :func:`get_registry` and
#: the module-level instrument helpers, so a capture in one thread or task
#: never diverts another's metrics.
_CAPTURE: ContextVar[MetricsRegistry | None] = ContextVar(
    "repro_obs_capture", default=None
)


def get_registry() -> MetricsRegistry:
    """The active registry: this context's capture, else the process one."""
    captured = _CAPTURE.get()
    return _REGISTRY if captured is None else captured


@contextlib.contextmanager
def capture_registry(registry: MetricsRegistry) -> Iterator[MetricsRegistry]:
    """Send the current context's metrics to ``registry`` for the block.

    Context-local (a :class:`~contextvars.ContextVar`): other threads and
    asyncio tasks keep writing to the process registry meanwhile.  This is
    how ``explain()`` harvests one query's counters while serving goes on.
    """
    token = _CAPTURE.set(registry)
    try:
        yield registry
    finally:
        _CAPTURE.reset(token)


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the active registry (tests, CLI runs); returns the previous one."""
    global _REGISTRY
    previous = _REGISTRY
    _REGISTRY = registry
    return previous


def enable() -> MetricsRegistry:
    """Enable metric collection on the active registry."""
    return get_registry().enable()


def disable() -> MetricsRegistry:
    """Disable metric collection on the active registry."""
    return get_registry().disable()


def counter(name: str, help: str = "") -> Counter:
    """Fetch/create a counter on the active registry (null when disabled)."""
    return get_registry().counter(name, help)


def gauge(name: str, help: str = "") -> Gauge:
    """Fetch/create a gauge on the active registry (null when disabled)."""
    return get_registry().gauge(name, help)


def histogram(
    name: str, help: str = "", buckets: tuple[float, ...] | None = None
) -> Histogram:
    """Fetch/create a histogram on the active registry (null when disabled)."""
    return get_registry().histogram(name, help, buckets=buckets)

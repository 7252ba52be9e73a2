"""Spans: the one timing primitive of the stack.

Every timed block in ``repro`` is a :class:`Span`::

    with obs.trace("fpsps.query", metric="repro_query_seconds",
                   labels={"pruning": p}, src=u, dst=v) as span:
        ...
    span.seconds

A span does three things:

* it **always measures** its own ``seconds`` (monotonic clock), so callers
  that need the number — the experiment tables, ``explain()``'s stage
  timings, recovery reports — read it whatever the telemetry state;
* it **emits a span event** (JSON lines, nested span ids tracked through a
  :mod:`contextvars` stack, so nesting survives threads and generators)
  only when a :class:`Tracer` is installed;
* on a clean exit it **records the histogram it names** (``metric``) with
  its ``labels`` when the active registry is enabled.  Labels are kept
  apart from the event attributes and may be set after entry with
  :meth:`Span.label` — a gateway learns its route only at the end.

A span with no name times and records but never emits: that is what
:func:`stopwatch` (``with obs.stopwatch(metric=..., span=...) as sw``)
returns when no ``span`` name is given.  An interval that is not one
block (enqueue → resolve) uses :meth:`Span.begin` and :meth:`Span.end`
instead of ``with``; it then never joins the span stack.

Serving entry points open a :class:`FrontDoor` (:func:`front_door`) — a
span that also opens the request scope when traced, writes the
slow-query digest and, when outermost, the request's one SLO sample (the
entry-point rules are in :mod:`repro.obs.context`).

Span names are dotted lowercase (``layer.operation``); the taxonomy is
catalogued in ``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

import contextvars
import itertools
import json
import os
import threading
import time
from typing import Callable, IO

import repro.obs as _obs
from repro.obs import flight as _flight
from repro.obs import slo as _slo

__all__ = ["FrontDoor", "Span", "Tracer", "front_door", "stopwatch", "trace"]

_SPAN_STACK: contextvars.ContextVar[tuple[str, ...]] = contextvars.ContextVar(
    "repro_obs_span_stack", default=()
)

#: the active request context (a ``repro.obs.context.RequestContext``);
#: lives here so a span can stamp trace/request ids without a circular
#: import (``context`` builds its helpers on top of this var)
_REQUEST_CTX: contextvars.ContextVar = contextvars.ContextVar(
    "repro_obs_request_ctx", default=None
)

#: the labels of a span given none (never mutated: :meth:`Span.label` copies)
_NO_LABELS: dict = {}


class Span:
    """One timed block: measures, traces when on, records when on."""

    __slots__ = (
        "name", "attrs", "metric", "help", "labels", "seconds", "tracer",
        "span_id", "parent_id", "ctx", "request", "_start", "_start_wall",
        "_token",
    )

    # __init__ stores only what the untraced path reads; begin() fills the
    # tracing slots when traced.  ``request`` is set by single-request
    # front doors, whose end() also writes the digest and the SLO sample.
    def __init__(
        self,
        name: str | None,
        attrs: dict,
        metric: str | None = None,
        help: str = "",
        labels: dict | None = None,
    ) -> None:
        self.name = name
        self.attrs = attrs
        self.metric = metric
        self.help = help
        self.labels = _NO_LABELS if labels is None else labels
        self.tracer = None if name is None else _TRACER
        self.span_id: str | None = None
        self.request = False

    @property
    def ms(self) -> float:
        return self.seconds * 1000.0

    def annotate(self, **attrs: object) -> "Span":
        """Attach event attributes after entry (e.g. result counters)."""
        self.attrs.update(attrs)
        return self

    def label(self, **labels: object) -> "Span":
        """Set histogram labels after entry (e.g. the route taken)."""
        # copy, never update: callers may hand in a shared constant dict
        self.labels = {**self.labels, **labels}
        return self

    def begin(self) -> "Span":
        """Start the clock; the span's parent and context are fixed here."""
        tracer = self.tracer
        if tracer is not None:
            self.span_id = tracer._next_id()
            stack = _SPAN_STACK.get()
            self.parent_id = stack[-1] if stack else None
            self.ctx = _REQUEST_CTX.get()
            self._start_wall = time.time()
        self._start = time.perf_counter()
        return self

    def end(self, error: type | None = None) -> float:
        """Stop the clock, emit the event, record the histogram."""
        seconds = self.seconds = time.perf_counter() - self._start
        if self.tracer is not None:
            self.tracer.emit_span(self, error)
        if error is not None:
            return seconds
        if self.metric is not None:
            registry = _obs.get_registry()
            if registry.enabled:
                registry.histogram(self.metric, self.help).observe(
                    seconds, **self.labels
                )
        if self.request:
            # the threshold test first: most requests are not slow, and
            # the digest's keyword packing is the costly part of the call
            recorder = _flight._FLIGHT
            if recorder is not None and seconds >= recorder.slow_threshold:
                recorder.observe_query(self.name, seconds, ok=self.ok, **self.labels)
            if self.slo is not None:
                self.slo.observe(seconds, ok=self.ok)
        return seconds

    def __enter__(self) -> "Span":
        self.begin()
        if self.tracer is not None:
            self._token = _SPAN_STACK.set(_SPAN_STACK.get() + (self.span_id,))
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self.tracer is not None:
            _SPAN_STACK.reset(self._token)
        self.end(exc_type)


class _OpenDoors(threading.local):
    """How many SLO-counting front doors are open on this thread.

    A nested door (a shard engine under the gateway, an engine under an
    async window) leaves the SLO sample to the outermost one.  Door bodies
    are synchronous — engines never yield to the event loop mid-call — so
    the thread is the context.  Not a ContextVar on purpose: once any
    context variable is set, every ``ContextVar.get`` on the thread (numpy
    makes one per ufunc call) pays a lookup on the untraced query path.
    """

    depth = 0


_OPEN_DOORS = _OpenDoors()


class FrontDoor(Span):
    """The span of one serving entry point (rules: :mod:`repro.obs.context`).

    As a context manager it also opens the request scope when traced.  The
    async request span crosses the coalescing boundary instead: it calls
    :meth:`begin` at enqueue and :meth:`end` at resolve.  ``ok`` (default
    true) is the SLO verdict — a degraded or failed answer burns error
    budget even when it is fast.

    Nesting is tracked only while an SLO monitor is installed, the one
    reader: a door opened without a monitor neither counts as open nor
    writes a sample, so a monitor installed mid-request still gets one
    sample per request.  The untraced path runs on every served request,
    so it reads module globals directly and is spelled out flat; for the
    same reason per-request callers attach event attributes only when
    ``tracer`` is set.
    """

    __slots__ = ("ok", "slo", "_counted", "_scope")

    def __init__(
        self,
        name: str,
        attrs: dict,
        metric: str | None,
        help: str,
        labels: dict | None,
        request: bool,
    ) -> None:
        self.name = name
        self.attrs = attrs
        self.metric = metric
        self.help = help
        self.labels = _NO_LABELS if labels is None else labels
        self.tracer = _TRACER
        self.span_id = None
        self.request = request
        self.ok = True

    def begin(self) -> "FrontDoor":
        # the SLO monitor this door reports to: none when an outer door
        # on this thread writes the request's sample
        monitor = _slo._SLO
        self.slo = None if monitor is None or _OPEN_DOORS.depth else monitor
        Span.begin(self)
        if self.tracer is not None and self.ctx is None:
            from repro.obs.context import new_context

            self.ctx = new_context()
        return self

    def __enter__(self) -> "FrontDoor":
        monitor = _slo._SLO
        if self.tracer is None:
            self.slo = None if monitor is None or _OPEN_DOORS.depth else monitor
            self._start = time.perf_counter()
        else:
            self.begin()
            self._token = _SPAN_STACK.set(_SPAN_STACK.get() + (self.span_id,))
            self._scope = (
                _REQUEST_CTX.set(self.ctx) if _REQUEST_CTX.get() is None else None
            )
        self._counted = monitor is not None
        if self._counted:
            _OPEN_DOORS.depth += 1
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._counted:
            _OPEN_DOORS.depth -= 1
        if self.tracer is not None:
            if self._scope is not None:
                _REQUEST_CTX.reset(self._scope)
            _SPAN_STACK.reset(self._token)
        self.end(exc_type)


class Tracer:
    """Serialises span events as JSON lines into a sink.

    ``sink`` may be a file-like object (``.write`` gets one line per
    event), a callable (receives the event dict), or ``None`` to buffer
    in-memory (read via :attr:`events` — handy in tests).

    ``id_prefix`` namespaces span ids: tracers minting ids in different
    processes (fork-pool workers) must use distinct prefixes so a merged
    trace never sees two spans with the same id.
    """

    def __init__(
        self,
        sink: IO[str] | Callable[[dict], None] | None = None,
        id_prefix: str = "",
    ) -> None:
        self._sink = sink
        self._counter = itertools.count(1)
        self._lock = threading.Lock()
        self._pid = os.getpid()
        self.id_prefix = id_prefix
        self.events: list[dict] = []

    def _next_id(self) -> str:
        return f"{self.id_prefix}{next(self._counter):08x}"

    def emit_span(self, span: Span, error: type | None = None) -> None:
        """Emit the event of a finished span (every span comes through here)."""
        # "start"/"end" are wall-clock (mergeable across processes, subject
        # to clock skew and NTP steps); "dur_s" is monotonic and is the
        # span's true duration — ``end - start`` may disagree with it, and
        # the difference measures local clock drift during the span.
        event = {
            "event": "span",
            "name": span.name,
            "span": span.span_id,
            "parent": span.parent_id,
            "start": span._start_wall,
            "end": time.time(),
            "dur_s": span.seconds,
            "pid": self._pid,
        }
        ctx = span.ctx
        if ctx is not None:
            event["trace"] = ctx.trace_id
            event["request"] = ctx.request_id
        if error is not None:
            event["error"] = error.__name__
        if span.attrs:
            event["attrs"] = span.attrs
        self.emit(event)

    def emit(self, event: dict) -> None:
        # mirror every span event into the flight recorder: the ring is
        # the black box a DLQ entry or recovery report dumps later
        _flight.record_event(event)
        sink = self._sink
        if sink is None:
            with self._lock:
                self.events.append(event)
        elif callable(sink):
            sink(event)
        else:
            line = json.dumps(event, sort_keys=True, default=str)
            with self._lock:
                sink.write(line + "\n")


# ----------------------------------------------------------------------
# module-global tracer (mirrors the registry pattern in repro.obs)
# ----------------------------------------------------------------------
_TRACER: Tracer | None = None


def get_tracer() -> Tracer | None:
    return _TRACER


def set_tracer(tracer: Tracer | None) -> Tracer | None:
    """Install the process tracer; returns the previous one."""
    global _TRACER
    previous = _TRACER
    _TRACER = tracer
    return previous


def trace(
    name: str,
    metric: str | None = None,
    help: str = "",
    labels: dict | None = None,
    **attrs: object,
) -> Span:
    """A :class:`Span` named ``name``, recording ``metric`` when given."""
    return Span(name, attrs, metric, help, labels)


def front_door(
    name: str,
    metric: str | None = None,
    help: str = "",
    labels: dict | None = None,
    request: bool = False,
    **attrs: object,
) -> FrontDoor:
    """Open a serving entry point's span: ``with obs.front_door(...)``.

    ``request=True`` marks a single-request door: it writes a slow-query
    digest and, when outermost, the request's SLO sample.  ``metric``,
    ``help`` and ``labels`` name its latency histogram as for
    :func:`trace`.  A function, not the class, because a keyword call to
    a class packs a kwargs dict on every request.
    """
    return FrontDoor(name, attrs, metric, help, labels, request)


def stopwatch(
    metric: str | None = None,
    span: str | None = None,
    help: str = "",
    **labels: object,
) -> Span:
    """``with stopwatch(...) as sw: ...; sw.seconds`` — a :class:`Span`.

    ``labels`` are both the histogram labels and the event attributes.
    Without ``span`` the block is timed (and recorded) but never traced.
    """
    return Span(span, labels, metric, help, dict(labels))

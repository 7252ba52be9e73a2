"""Request-scoped trace context and the serving front doors.

A :class:`RequestContext` carries one request's identity — request id,
trace id, the span to parent remote work under, and an optional wall-clock
deadline — through every serving layer.  In-process propagation rides the
same :mod:`contextvars` machinery as the span stack, so gateway shard
fan-out and nested engine calls inherit the context for free.  Crossing a
process boundary (the fork-pool chunk hand-off in ``repro.core.batch``)
uses the wire form: :func:`current_wire` snapshots the context plus the
innermost live span into a plain picklable dict, and :func:`activate_wire`
adopts it on the far side, resetting the span stack so worker-side spans
parent deterministically under the serialized span id.

Rules (also documented in ``docs/OBSERVABILITY.md``):

* Entry points — ``ResilientEngine.query``/``batch``,
  ``ShardedGateway.query``/``batch``, ``batch_query`` and the
  ``AsyncGateway`` window and requests — enter through
  :func:`repro.obs.front_door`: one
  :class:`~repro.obs.trace.FrontDoor` span that times the call and opens
  a request scope **only when a tracer is installed** (the untraced path
  mints no context and sets no context variable).
* A request front door (``request=True``) writes a slow-query digest into
  the flight recorder when it closes, and — only when it is the
  outermost front door open on the thread — the request's one SLO
  sample.
  A request that crosses three layers burns error budget once.  Batch
  front doors write neither.
* Interior layers never create contexts; they inherit whatever scope the
  entry point opened (or none).
* Wire dicts are one-shot: activate, run, and let the scope close.  Span
  events emitted under a context carry ``trace``/``request`` fields, which
  is what lets a cross-process JSONL merge stitch one tree per request.
"""

from __future__ import annotations

import time
import uuid
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

from repro.obs.trace import _REQUEST_CTX, _SPAN_STACK

__all__ = [
    "RequestContext",
    "activate_wire",
    "current_context",
    "current_wire",
    "new_context",
    "request_scope",
    "use_context",
]


@dataclass(frozen=True)
class RequestContext:
    """Identity of one in-flight request (immutable, safe to share)."""

    request_id: str
    trace_id: str
    parent_span: str | None = None
    deadline: float | None = None  # wall-clock (``time.time()``) seconds

    def remaining(self) -> float | None:
        """Seconds until the deadline (negative if blown), or ``None``."""
        if self.deadline is None:
            return None
        return self.deadline - time.time()


def new_context(
    deadline: float | None = None, timeout: float | None = None
) -> RequestContext:
    """Mint a fresh root context (new request id and trace id).

    ``timeout`` is a convenience for ``deadline = now + timeout``; an
    explicit ``deadline`` wins when both are given.
    """
    if deadline is None and timeout is not None:
        deadline = time.time() + timeout
    token = uuid.uuid4().hex
    return RequestContext(
        request_id=token[:16], trace_id=token[16:], deadline=deadline
    )


def current_context() -> RequestContext | None:
    """The active request context, or ``None`` outside any scope."""
    return _REQUEST_CTX.get()


@contextmanager
def use_context(ctx: RequestContext) -> Iterator[RequestContext]:
    """Make ``ctx`` the active context for the duration of the block."""
    token = _REQUEST_CTX.set(ctx)
    try:
        yield ctx
    finally:
        _REQUEST_CTX.reset(token)


@contextmanager
def request_scope(
    timeout: float | None = None,
) -> Iterator[RequestContext]:
    """Reuse the active context, or open a fresh root scope.

    What a traced :func:`repro.obs.front_door` does on entry, for code
    outside the serving stack.  Idempotent under nesting, so nested
    scopes still yield exactly one trace id.
    """
    ctx = _REQUEST_CTX.get()
    if ctx is not None:
        yield ctx
        return
    ctx = new_context(timeout=timeout)
    token = _REQUEST_CTX.set(ctx)
    try:
        yield ctx
    finally:
        _REQUEST_CTX.reset(token)


def current_wire() -> dict | None:
    """Picklable snapshot of the active context for a process hop.

    The innermost live span becomes the remote side's parent, so spans
    opened after :func:`activate_wire` attach to the span that was open
    at serialization time — one stitched tree, not two roots.
    """
    ctx = _REQUEST_CTX.get()
    if ctx is None:
        return None
    stack = _SPAN_STACK.get()
    parent = stack[-1] if stack else ctx.parent_span
    return {
        "request": ctx.request_id,
        "trace": ctx.trace_id,
        "span": parent,
        "deadline": ctx.deadline,
    }


@contextmanager
def activate_wire(wire: dict) -> Iterator[RequestContext]:
    """Adopt a :func:`current_wire` snapshot in another process.

    Resets the span stack to the wire's span id so new spans parent under
    the serialized span rather than whatever the forked child inherited.
    """
    ctx = RequestContext(
        request_id=wire["request"],
        trace_id=wire["trace"],
        parent_span=wire.get("span"),
        deadline=wire.get("deadline"),
    )
    ctx_token = _REQUEST_CTX.set(ctx)
    parent = wire.get("span")
    stack_token = _SPAN_STACK.set((parent,) if parent else ())
    try:
        yield ctx
    finally:
        _SPAN_STACK.reset(stack_token)
        _REQUEST_CTX.reset(ctx_token)

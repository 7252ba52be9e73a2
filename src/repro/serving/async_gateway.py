"""Asyncio micro-batching front door over any :class:`repro.api.Engine`.

The stack below this module answers one blocking Python call per query —
which wastes the vectorised ``distance_many`` oracle and the sharded
result cache the moment many clients arrive at once.  :class:`AsyncGateway`
turns concurrent requests back into the batch shape the lower layers are
fast at:

* **natural batching** — there is no timer.  The gateway dispatches
  whatever is pending as soon as its loop is free: a request submitted
  to an idle gateway waits one event-loop tick (so simultaneous
  submitters share a window), and requests that arrive while a window
  is being evaluated form the next one.  Under load the windows fill by
  themselves, capped at ``max_window``; each is a *single*
  ``engine.batch`` call — the sharded gateway then fans one group per
  shard, the batch path groups the window's queries by target so they
  share the flat kernel's heuristic tables, and every request in the
  window shares that work.  Distance requests ride the same window and,
  for a bare :class:`~repro.core.fpsps.FlowAwareEngine` over a
  ``distance_many``-capable oracle, resolve through one vectorised call.
* **admission** — per-client token buckets
  (:class:`~repro.serving.admission.ClientAdmission`) reject over-rate
  clients with a typed :class:`~repro.errors.AdmissionError` *before*
  they occupy queue slots.
* **backpressure** — the pending queue is bounded (``max_queue``); a full
  queue rejects with :class:`~repro.errors.BackpressureError` instead of
  growing without bound or hanging the caller.
* **observability** — per-window and per-request latency histograms
  (``repro_async_window_seconds`` times a window's dispatch,
  ``repro_async_request_seconds`` submit-to-resolve), window-size and
  queue-depth gauges, and ``async.window`` / ``async.request`` spans.
  Each request's span is begun at submit time under the submitter's
  :class:`~repro.obs.RequestContext` and ended when its future resolves,
  so a trace stays one stitched tree across the coalescing boundary; the
  request span also writes the request's one SLO sample.

Answers are whatever the wrapped engine's own ``query``/``distance``
return — bare :class:`~repro.core.fspq.FSPResult`/``float`` or serving
envelopes — so :func:`repro.as_result` / :func:`repro.as_distance`
normalise sync and async answers identically, and coalesced answers are
bit-identical to per-request ``engine.query()`` calls (property-tested).

Two ways to run it::

    async with AsyncGateway(engine) as gateway:          # asyncio-native
        results = await asyncio.gather(
            *(gateway.aquery(q) for q in queries)
        )

    gateway = AsyncGateway(engine).start()               # background loop
    future = gateway.submit(FSPQuery(0, 9, 0))           # sync escape hatch
    result = future.result()
    gateway.close()

All engine work runs on the gateway's event-loop thread — the engines
stay effectively single-threaded, exactly as their contracts require.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import threading
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

from repro import obs
from repro.core.fpsps import FlowAwareEngine
from repro.core.fspq import FSPQuery
from repro.errors import AdmissionError, BackpressureError, QueryError
from repro.serving.admission import ClientAdmission

__all__ = ["AsyncGateway", "GatewayWindowStats"]

_QUERY = "query"
_DISTANCE = "distance"


@dataclass
class GatewayWindowStats:
    """Lifetime counters of one :class:`AsyncGateway` (instance view).

    The process-global picture lives on the :mod:`repro.obs` registry as
    the ``repro_async_*`` families; this mirror keeps tests and callers
    independent of registry state, same as the engines' ``metrics``.
    """

    windows: int = 0
    requests: int = 0
    resolved: int = 0
    errors: int = 0
    rejected_backpressure: int = 0
    rejected_admission: int = 0
    largest_window: int = 0

    def coalescing_ratio(self) -> float:
        """Mean requests per dispatched window (1.0 = no coalescing won)."""
        if not self.windows:
            return 0.0
        return self.requests / self.windows


@dataclass
class _Pending:
    """One queued request: payload + future + its enqueue→resolve span."""

    kind: str
    payload: object
    future: asyncio.Future | concurrent.futures.Future
    span: obs.FrontDoor


class AsyncGateway:
    """Micro-batching asyncio front door over one sync :class:`Engine`.

    Parameters
    ----------
    engine:
        Any object satisfying the :class:`repro.api.Engine` protocol
        (``FlowAwareEngine``, ``ResilientEngine``, ``ShardedGateway``).
    max_window:
        Requests dispatched per window at most; the rest stay queued for
        the next window (they are *not* rejected).
    max_queue:
        Bound of the pending queue.  Submissions beyond it fail with
        :class:`~repro.errors.BackpressureError`.
    admission_rate, admission_burst:
        Per-client token-bucket parameters.  ``admission_rate=None``
        (default) disables admission control.
    workers:
        Forwarded to ``engine.batch`` — ``1`` keeps the whole dispatch on
        the loop thread; ``> 1`` lets the batch pool fork.
    kernel, batch_timeout:
        Forwarded to ``engine.batch`` (kernel selection and per-chunk
        timeout passthrough of the unified batch signature).
    """

    def __init__(
        self,
        engine,
        *,
        max_window: int = 256,
        max_queue: int = 1024,
        admission_rate: float | None = None,
        admission_burst: float = 16.0,
        workers: int = 1,
        kernel: str | None = None,
        batch_timeout: float | None = None,
    ) -> None:
        if max_window < 1:
            raise QueryError(f"max_window must be >= 1, got {max_window}")
        if max_queue < 1:
            raise QueryError(f"max_queue must be >= 1, got {max_queue}")
        if workers < 1:
            raise QueryError(f"workers must be >= 1, got {workers}")
        self.engine = engine
        self.max_window = int(max_window)
        self.max_queue = int(max_queue)
        self.workers = int(workers)
        self.kernel = kernel
        self.batch_timeout = batch_timeout
        self.admission = (
            None
            if admission_rate is None
            else ClientAdmission(admission_rate, admission_burst)
        )
        self.stats = GatewayWindowStats()
        self.metrics: Counter[str] = Counter()
        self._pending: list[_Pending] = []
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._dispatcher: asyncio.Task | None = None
        self._window_id = 0
        self._closed = False

    # ------------------------------------------------------------------
    # protocol accessors (mirror the sync Engine surface)
    # ------------------------------------------------------------------
    @property
    def flow_engine(self) -> FlowAwareEngine:
        return self.engine.flow_engine

    def invalidate(self) -> None:
        self.engine.invalidate()

    # ------------------------------------------------------------------
    # telemetry plumbing
    # ------------------------------------------------------------------
    def _count(self, name: str, help_: str, amount: int = 1, **labels) -> None:
        registry = obs.get_registry()
        if registry.enabled:
            registry.counter(name, help_).inc(amount, **labels)

    def _sync_gauges(self, window_size: int | None = None) -> None:
        registry = obs.get_registry()
        if not registry.enabled:
            return
        registry.gauge(
            "repro_async_queue_depth",
            "requests waiting in the async gateway's coalescing queue",
        ).set(len(self._pending))
        if window_size is not None:
            registry.gauge(
                "repro_async_window_size",
                "requests coalesced into the last dispatched window",
            ).set(window_size)

    # ------------------------------------------------------------------
    # event-loop binding
    # ------------------------------------------------------------------
    def _bind_running_loop(self) -> asyncio.AbstractEventLoop:
        loop = asyncio.get_running_loop()
        if self._loop is None:
            self._loop = loop
        elif self._loop is not loop:
            raise QueryError(
                "AsyncGateway is already bound to another event loop; "
                "create one gateway per loop"
            )
        return loop

    def start(self) -> "AsyncGateway":
        """Run the gateway on its own background event-loop thread.

        Enables the sync :meth:`submit` escape hatch from any thread.
        Idempotent until :meth:`close`.
        """
        if self._thread is not None:
            return self
        if self._loop is not None:
            raise QueryError(
                "AsyncGateway is already bound to a running event loop; "
                "start() needs a fresh gateway"
            )
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever,
            name="fahl-async-gateway",
            daemon=True,
        )
        self._thread.start()
        return self

    def close(self, timeout: float = 10.0) -> None:
        """Flush the queue, stop the background loop (if any), reject late."""
        if self._closed:
            return
        self._closed = True
        loop, thread = self._loop, self._thread
        if loop is None or thread is None:
            self._reject_all_pending()
            return
        handle = asyncio.run_coroutine_threadsafe(self._drain(), loop)
        try:
            handle.result(timeout)
        finally:
            loop.call_soon_threadsafe(loop.stop)
            thread.join(timeout)
            loop.close()
            self._loop = None
            self._thread = None

    async def aclose(self) -> None:
        """Flush the queue and stop accepting work (asyncio-native close)."""
        self._closed = True
        await self._drain()

    async def __aenter__(self) -> "AsyncGateway":
        self._bind_running_loop()
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.aclose()

    async def _drain(self) -> None:
        # the dispatcher runs until the queue is empty, and a closed
        # gateway admits nothing that could start another
        task = self._dispatcher
        if task is not None and not task.done():
            await task

    def _reject_all_pending(self) -> None:
        for item in self._pending:
            if not item.future.done():
                item.future.set_exception(
                    BackpressureError(len(self._pending))
                )
        self._pending.clear()

    # ------------------------------------------------------------------
    # submission (async + sync escape hatch)
    # ------------------------------------------------------------------
    def _admit(self, client: str) -> None:
        """Raise the typed rejection for over-rate / over-capacity input."""
        if self._closed:
            raise QueryError("AsyncGateway is closed")
        if self.admission is not None:
            retry_after = self.admission.admit(client)
            if retry_after is not None:
                self.stats.rejected_admission += 1
                self.metrics["rejected_admission"] += 1
                self._count(
                    "repro_async_rejected_total",
                    "async-gateway submissions rejected, by reason",
                    reason="admission",
                )
                raise AdmissionError(client, retry_after)
        if len(self._pending) >= self.max_queue:
            self.stats.rejected_backpressure += 1
            self.metrics["rejected_backpressure"] += 1
            self._count(
                "repro_async_rejected_total",
                "async-gateway submissions rejected, by reason",
                reason="backpressure",
            )
            raise BackpressureError(len(self._pending))

    def _enqueue(
        self,
        kind: str,
        payload: object,
        client: str,
        future: asyncio.Future | concurrent.futures.Future,
    ) -> None:
        """Admission + queueing; runs on the loop thread only."""
        self._admit(client)
        # the request's span runs from here to resolve, across the
        # coalescing boundary: begun under the submitter's context (its
        # parent and trace ids), ended on the window that answers it
        span = obs.front_door(
            "async.request",
            metric="repro_async_request_seconds",
            help="submit-to-resolve latency through the async gateway",
            labels={"kind": kind},
            request=True,
            kind=kind,
            client=client,
        ).begin()
        self._pending.append(
            _Pending(kind=kind, payload=payload, future=future, span=span)
        )
        self.stats.requests += 1
        self.metrics["requests"] += 1
        self._count(
            "repro_async_requests_total",
            "requests submitted to the async gateway, by kind",
            kind=kind,
        )
        self._sync_gauges()
        if self._dispatcher is None or self._dispatcher.done():
            loop = self._loop
            assert loop is not None
            self._dispatcher = loop.create_task(self._dispatch_pending())

    async def _submit_async(self, kind: str, payload: object, client: str):
        loop = self._bind_running_loop()
        future: asyncio.Future = loop.create_future()
        self._enqueue(kind, payload, client, future)
        return await future

    async def aquery(self, query: FSPQuery, *, client: str = "default"):
        """Answer one FSPQ query through the next coalescing window.

        Returns exactly what ``engine.query(query)`` would (bare result or
        serving envelope) — normalise with :func:`repro.as_result`.
        """
        return await self._submit_async(_QUERY, query, client)

    async def adistance(self, u: int, v: int, *, client: str = "default"):
        """Shortest spatial distance through the next coalescing window."""
        return await self._submit_async(_DISTANCE, (u, v), client)

    async def abatch(
        self, queries: Sequence[FSPQuery], *, client: str = "default"
    ) -> list:
        """Submit many queries at once and gather their answers in order.

        Every query is admitted individually (so admission/backpressure
        rejections surface per request, as exceptions in the result slots
        would — the first rejection propagates).
        """
        return list(
            await asyncio.gather(
                *(self.aquery(query, client=client) for query in queries)
            )
        )

    def submit(
        self, query: FSPQuery, *, client: str = "default"
    ) -> concurrent.futures.Future:
        """Sync escape hatch: enqueue from any thread, get a ``Future``.

        Needs the gateway started via :meth:`start` (its own loop thread)
        or already bound to a live loop.  Admission and backpressure
        rejections surface on the returned future, never synchronously —
        the caller's thread is not the loop thread, so the queue state is
        only knowable there.
        """
        if not isinstance(query, FSPQuery):
            raise QueryError(
                f"submit() takes an FSPQuery, got {type(query).__name__} "
                "(updates go to gateway.engine.submit())"
            )
        loop = self._loop
        if loop is None:
            raise QueryError(
                "AsyncGateway.submit() needs start() first (or an aquery() "
                "from inside a running event loop to bind one)"
            )
        future: concurrent.futures.Future = concurrent.futures.Future()

        def _enqueue_on_loop() -> None:
            try:
                self._enqueue(_QUERY, query, client, future)
            except Exception as exc:  # noqa: BLE001 — typed rejections too
                if not future.done():
                    future.set_exception(exc)

        loop.call_soon_threadsafe(_enqueue_on_loop)
        return future

    # ------------------------------------------------------------------
    # the dispatcher
    # ------------------------------------------------------------------
    async def _dispatch_pending(self) -> None:
        """Dispatch windows until the queue is empty, one tick apart.

        The tick lets simultaneous submitters join the window; whatever
        arrives while a window is evaluated forms the next one.
        """
        while self._pending:
            await asyncio.sleep(0)
            self._dispatch_window()

    def _dispatch_window(self) -> None:
        window = self._pending[: self.max_window]
        del self._pending[: len(window)]
        self._window_id += 1
        self.stats.windows += 1
        self.metrics["windows"] += 1
        self.stats.largest_window = max(self.stats.largest_window, len(window))
        with obs.front_door(
            "async.window",
            metric="repro_async_window_seconds",
            help="dispatch latency of one coalesced window",
            window=self._window_id,
            requests=len(window),
        ):
            self._evaluate_window(window)
        self._count(
            "repro_async_windows_total",
            "coalescing windows dispatched by the async gateway",
        )
        self._sync_gauges(window_size=len(window))

    def _evaluate_window(self, window: list[_Pending]) -> None:
        queries = [item for item in window if item.kind == _QUERY]
        distances = [item for item in window if item.kind == _DISTANCE]
        if queries:
            self._evaluate_queries(queries)
        if distances:
            self._evaluate_distances(distances)

    def _evaluate_queries(self, items: list[_Pending]) -> None:
        """One vectorised ``engine.batch`` call for the whole window."""
        payloads = [item.payload for item in items]
        try:
            answers = self.engine.batch(
                payloads,
                workers=self.workers,
                timeout=self.batch_timeout,
                kernel=self.kernel,
            )
        except Exception:  # noqa: BLE001 — isolate the poisoned request
            # one bad request (disconnected pair, bad timestep) must not
            # fail its window neighbours: re-evaluate per request so each
            # future gets its own answer or its own typed error.
            self._evaluate_serially(items)
            return
        for item, answer in zip(items, answers):
            self._resolve(item, answer)

    def _evaluate_serially(self, items: list[_Pending]) -> None:
        for item in items:
            try:
                answer = self.engine.query(item.payload)
            except Exception as exc:  # noqa: BLE001 — typed per-request
                self._resolve_error(item, exc)
            else:
                self._resolve(item, answer)

    def _evaluate_distances(self, items: list[_Pending]) -> None:
        """Distances: one ``distance_many`` call when the oracle can."""
        engine = self.engine
        oracle = getattr(engine, "oracle", None)
        if (
            isinstance(engine, FlowAwareEngine)
            and engine.kernel == "flat"
            and oracle is not None
            and callable(getattr(oracle, "distance_many", None))
            and engine._flat_kernel() is not None
        ):
            import numpy as np

            pairs = [item.payload for item in items]
            us = np.asarray([u for u, _ in pairs], dtype=np.int64)
            vs = np.asarray([v for _, v in pairs], dtype=np.int64)
            try:
                values = oracle.distance_many(us, vs)
            except Exception:  # noqa: BLE001 — fall back per request
                values = None
            if values is not None:
                for item, value in zip(items, values):
                    self._resolve(item, float(value))
                return
        for item in items:
            try:
                answer = engine.distance(*item.payload)
            except Exception as exc:  # noqa: BLE001 — typed per-request
                self._resolve_error(item, exc)
            else:
                self._resolve(item, answer)

    # ------------------------------------------------------------------
    # resolution + per-request telemetry
    # ------------------------------------------------------------------
    def _observe_request(self, item: _Pending, outcome: str) -> None:
        if outcome == "resolved":
            self.stats.resolved += 1
        else:
            self.stats.errors += 1
        self.metrics[f"requests_{outcome}"] += 1
        self._count(
            "repro_async_resolved_total",
            "async-gateway requests resolved, by kind and outcome",
            kind=item.kind,
            outcome=outcome,
        )
        span = item.span
        span.ok = outcome == "resolved"
        span.annotate(window=self._window_id, outcome=outcome)
        span.end()

    def _resolve(self, item: _Pending, answer: object) -> None:
        self._observe_request(item, "resolved")
        if not item.future.done():
            item.future.set_result(answer)

    def _resolve_error(self, item: _Pending, error: Exception) -> None:
        self._observe_request(item, "error")
        if not item.future.done():
            item.future.set_exception(error)

"""Batch FSPQ evaluation: target-grouped order and a process pool.

Interactive engines answer one query at a time; offline consumers (the
experiment harness, kNN reranking, fleet re-planning) throw hundreds of
queries at the same index.  Two levers make batches faster without
touching results:

* :func:`batch_query` — evaluates a list of queries grouped by
  ``(target, timestep)``, so queries sharing a target reuse the flat
  kernel's per-target heuristic table and the engine's per-slice flow
  cache, then restores the caller's original order.  Every query goes
  through the engine's own :meth:`~repro.core.fpsps.FlowAwareEngine.query`,
  so any oracle the flat kernel speaks for keeps it.
* ``batch_query(..., workers=N)`` — fans contiguous chunks of the
  target-grouped order out to a ``fork`` multiprocessing pool.  Right
  before the fork the parent runs
  :meth:`~repro.core.fpsps.FlowAwareEngine.prime`, which builds the flat
  kernel, the label arena and its sweep plan (no heuristic table) if
  they are not built yet.  The workers then share them with the built
  index copy-on-write (nothing is pickled on the way in) instead of each
  rebuilding them on every batch.  Results come back
  in input order, and the values are bit-identical to the serial path.

The pool path is *hardened*: every degradation is observable (pass a
:class:`BatchReport` to collect the structured reason, or watch the
``repro.batch`` logger), each chunk has a wall-clock timeout, and a chunk
whose worker dies or hangs is transparently re-executed serially in the
parent — one crashed child can no longer lose (or hang) the whole batch.
"""

from __future__ import annotations

import logging
import math
import multiprocessing
import os
import time
from dataclasses import dataclass, field
from typing import Callable

from repro import obs
from repro.obs import context as obs_context
from repro.core.fpsps import FlowAwareEngine
from repro.core.fspq import FSPQuery, FSPResult
from repro.errors import QueryError, ReproError

__all__ = ["BatchReport", "batch_query", "set_worker_fault_hook"]

logger = logging.getLogger("repro.batch")


# ----------------------------------------------------------------------
# chunk evaluation (shared by the serial path and the pool workers)
# ----------------------------------------------------------------------
#: distinct targets whose heuristic tables one bag sweep builds together;
#: measured on NYC×4 (2-CPU x86 container, CPU ms per target, 128 targets,
#: median of 9): 16, 32 and 64 a sweep cost 0.35, 0.33 and 0.36 ms in one
#: run and 0.55, 0.50 and 0.54 ms in another, so 32 stays
_SWEEP_TARGETS = 32


def _evaluate_chunk(
    engine: FlowAwareEngine,
    indexed: list[tuple[int, FSPQuery]],
) -> list[tuple[int, FSPResult]]:
    """Evaluate ``(position, query)`` pairs in order.

    On the flat kernel the pairs go in slices of up to
    :data:`_SWEEP_TARGETS` distinct targets, and the kernel sweeps each
    slice's heuristic tables in one multi-target pass
    (:meth:`~repro.core.flatq.FlatQueryKernel.prefetch`) before the slice
    is evaluated.
    """
    pairs: list[tuple[int, FSPResult]] = []
    start = 0
    while start < len(indexed):
        targets: set[int] = set()
        end = start
        while end < len(indexed) and (
            indexed[end][1].target in targets or len(targets) < _SWEEP_TARGETS
        ):
            targets.add(indexed[end][1].target)
            end += 1
        chunk = indexed[start:end]
        kern = engine._flat_kernel() if len(targets) > 1 else None
        if kern is not None:
            kern.prefetch(_kernel_targets(engine, chunk))
        pairs.extend((position, engine.query(query)) for position, query in chunk)
        start = end
    return pairs


def _kernel_targets(
    engine: FlowAwareEngine, indexed: list[tuple[int, FSPQuery]]
) -> list[int]:
    """Targets whose query ``engine.query`` accepts and hands the kernel.

    A query it rejects is left to raise there, exactly as on its own; a
    ``source == target`` query never reads a table.
    """
    frn = engine.frn
    targets = []
    for _, query in indexed:
        try:
            query.validated(frn.num_vertices, frn.num_timesteps)
        except (QueryError, TypeError):
            continue
        if query.source != query.target:
            targets.append(query.target)
    return targets


# ----------------------------------------------------------------------
# execution report
# ----------------------------------------------------------------------
@dataclass
class BatchReport:
    """Structured record of how one :func:`batch_query` call executed.

    Pass a fresh instance via ``batch_query(..., report=report)`` to make
    degraded throughput observable: ``mode`` tells whether the pool
    actually ran, ``fallback_reason`` carries the machine-readable cause
    when it did not (``"fork-unavailable"``, ``"pool-start-failed"``,
    ``"workers<=1"``, ``"single-query"``), and ``recovered_chunks`` counts
    chunks that lost their worker (death or timeout) and were re-executed
    serially in the parent.  Every degradation is also logged as a warning
    on the ``repro.batch`` logger.
    """

    mode: str = "serial"  # "serial" | "parallel" | "parallel-recovered"
    workers: int = 0
    chunks: int = 0
    fallback_reason: str | None = None
    recovered_chunks: int = 0
    warnings: list[str] = field(default_factory=list)

    def _warn(self, message: str) -> None:
        self.warnings.append(message)
        logger.warning("batch_query: %s", message)


def _record_batch(report: BatchReport, num_queries: int) -> None:
    """Fold one finished batch into the telemetry registry (parent side).

    Pool workers are forked children: their registry writes are
    copy-on-write copies that die with the process, so every batch metric
    is recorded here, in the parent, from the structured report.
    """
    registry = obs.get_registry()
    if not registry.enabled:
        return
    registry.counter(
        "repro_batch_runs_total", "batch_query invocations by execution mode"
    ).inc(mode=report.mode)
    registry.counter(
        "repro_batch_queries_total", "queries evaluated through batch_query"
    ).inc(num_queries)
    if report.fallback_reason:
        registry.counter(
            "repro_batch_fallbacks_total",
            "batches degraded to the serial path, by reason",
        ).inc(reason=report.fallback_reason)
    if report.recovered_chunks:
        registry.counter(
            "repro_batch_worker_recoveries_total",
            "pool chunks re-executed serially after a worker death or hang",
        ).inc(report.recovered_chunks)


def _chunk_timer(mode: str) -> obs.Span:
    return obs.stopwatch(
        "repro_batch_chunk_seconds",
        help="per-chunk wall time by execution mode",
        mode=mode,
    )


def _count_chunk_failure(kind: str) -> None:
    registry = obs.get_registry()
    if registry.enabled:
        registry.counter(
            "repro_batch_chunk_failures_total",
            "pool chunks lost to a timeout or worker error",
        ).inc(kind=kind)


# ----------------------------------------------------------------------
# fork pool plumbing
# ----------------------------------------------------------------------
_WORKER_ENGINE: FlowAwareEngine | None = None

#: Test seam (see :class:`repro.testing.faults.WorkerFault`): a callable
#: invoked inside each worker with the chunk's query positions before
#: evaluation.  Installed in the parent pre-fork; inherited copy-on-write.
_WORKER_FAULT_HOOK: Callable[[list[int]], None] | None = None

#: Default wall-clock budget per chunk before the parent stops waiting on
#: the pool and re-executes the remaining chunks serially.
DEFAULT_CHUNK_TIMEOUT = 120.0


def set_worker_fault_hook(hook: Callable[[list[int]], None] | None) -> None:
    """Install (or clear) the worker fault hook — chaos tests only."""
    global _WORKER_FAULT_HOOK
    _WORKER_FAULT_HOOK = hook


def _fork_context():
    """The ``fork`` multiprocessing context, or ``None`` when unsupported.

    ``fork`` is the only start method that shares the parent's built index
    with the workers copy-on-write; ``spawn`` would re-pickle the whole
    engine per worker, which defeats the point.
    """
    if "fork" not in multiprocessing.get_all_start_methods():
        return None
    return multiprocessing.get_context("fork")


def _init_worker(engine: FlowAwareEngine) -> None:
    # runs in the forked child: `engine` is the child's copy-on-write copy
    global _WORKER_ENGINE
    _WORKER_ENGINE = engine
    # the child inherited the parent's tracer object (and possibly its
    # file-sink descriptor) copy-on-write; writing to it would interleave
    # with the parent.  Worker spans instead go through the per-chunk
    # collecting tracer installed by _run_worker_chunk and are shipped
    # back with the chunk's results.
    obs.set_tracer(None)


def _run_worker_chunk(
    chunk: list[tuple[int, FSPQuery]],
    chunk_index: int = 0,
    wire: dict | None = None,
) -> tuple[list[tuple[int, FSPResult]], list[dict] | None]:
    """Evaluate one chunk in a pool worker; returns ``(pairs, events)``.

    ``wire`` is the parent's serialized :func:`repro.obs.current_wire`
    snapshot.  When present, the worker adopts the request context, opens
    a ``batch.chunk`` span parented under the parent's in-flight span, and
    collects every span emitted during evaluation into an in-memory tracer
    whose ids are namespaced by pid — the events ride back with the chunk
    results and the parent re-emits them, yielding one stitched trace
    across the process boundary.
    """
    if _WORKER_FAULT_HOOK is not None:
        _WORKER_FAULT_HOOK([position for position, _ in chunk])
    if wire is None:
        return _evaluate_chunk(_WORKER_ENGINE, chunk), None
    # pid + chunk index: unique even when one worker serves several chunks
    collector = obs.Tracer(id_prefix=f"w{os.getpid():x}.{chunk_index}.")
    previous = obs.set_tracer(collector)
    try:
        with obs_context.activate_wire(wire):
            with obs.trace(
                "batch.chunk", chunk=chunk_index, queries=len(chunk)
            ):
                pairs = _evaluate_chunk(_WORKER_ENGINE, chunk)
    finally:
        obs.set_tracer(previous)
    return pairs, collector.events


def _run_parallel(
    engine: FlowAwareEngine,
    indexed: list[tuple[int, FSPQuery]],
    workers: int,
    chunk_timeout: float,
    report: BatchReport,
) -> list[tuple[int, FSPResult]] | None:
    """Evaluate via a fork pool; ``None`` means "use the serial path".

    The engine is primed (:meth:`~repro.core.fpsps.FlowAwareEngine.prime`)
    just before the fork, so the flat kernel, label arena and sweep plan
    are built once, in the parent.  Every worker reads them copy-on-write,
    and the serial recovery of a lost chunk reads the parent's own.  The
    pool lives for one batch: its workers' CPU shows up in the parent's
    ``RUSAGE_CHILDREN`` once they are reaped, and none of them can
    outlive an index swap.

    Chunks are contiguous slices of the target-grouped order (so each
    worker's heuristic tables still see their targets grouped), a few per
    worker for load balance.  The parent waits at most ``chunk_timeout``
    seconds per chunk: a chunk whose worker died, hung, or raised anything
    other than a library error is re-executed serially in the parent, so a
    crashed child degrades one chunk's latency instead of losing the batch.
    Library errors (:class:`~repro.errors.ReproError`, e.g. a genuinely
    malformed query) propagate exactly as they would from the serial loop.
    """
    context = _fork_context()
    if context is None:
        report.fallback_reason = "fork-unavailable"
        report._warn("fork start method unavailable; falling back to serial")
        return None
    workers = min(workers, len(indexed))
    num_chunks = min(len(indexed), workers * 4)
    size = math.ceil(len(indexed) / num_chunks)
    chunks = [indexed[i:i + size] for i in range(0, len(indexed), size)]
    report.chunks = len(chunks)
    report.workers = workers
    # build the kernel, label arena and sweep plan here, once: the workers
    # inherit them copy-on-write, and so does the serial recovery below
    engine.prime()
    try:
        pool = context.Pool(
            processes=workers, initializer=_init_worker, initargs=(engine,)
        )
    except (OSError, RuntimeError, ValueError) as exc:
        report.fallback_reason = "pool-start-failed"
        report._warn(f"fork pool failed to start ({exc!r}); falling back to serial")
        return None

    # snapshot the request context once per batch: workers adopt it and
    # ship their spans back with the chunk results (see _run_worker_chunk)
    tracer = obs.get_tracer()
    wire = obs_context.current_wire() if tracer is not None else None

    def _absorb(chunk_result) -> list[tuple[int, FSPResult]]:
        chunk_pairs, events = chunk_result
        if events and tracer is not None:
            for event in events:
                tracer.emit(event)
        return chunk_pairs

    pairs: list[tuple[int, FSPResult]] = []
    failed: list[int] = []
    bailed = False
    try:
        handles = [
            pool.apply_async(_run_worker_chunk, (chunk, i, wire))
            for i, chunk in enumerate(chunks)
        ]
        deadline = time.monotonic() + chunk_timeout
        for i, handle in enumerate(handles):
            if bailed:
                # after the first loss we stop waiting: grab whatever is
                # already finished, recover the rest serially.
                if not handle.ready():
                    failed.append(i)
                    continue
                try:
                    pairs.extend(_absorb(handle.get(0)))
                except ReproError:
                    raise
                except Exception:
                    failed.append(i)
                continue
            try:
                with _chunk_timer("parallel"):
                    pairs.extend(
                        _absorb(handle.get(max(0.0, deadline - time.monotonic())))
                    )
                # chunks run concurrently: give the next handle a fresh
                # window from the moment we start waiting on it.
                deadline = time.monotonic() + chunk_timeout
            except multiprocessing.TimeoutError:
                failed.append(i)
                bailed = True
                _count_chunk_failure("timeout")
                report._warn(
                    f"chunk {i} missed its {chunk_timeout:.1f}s deadline "
                    "(dead or hung worker?); recovering serially"
                )
            except ReproError:
                # a genuine library error (malformed query, disconnected
                # pair): identical semantics to the serial loop.
                raise
            except Exception as exc:
                failed.append(i)
                bailed = True
                _count_chunk_failure("error")
                report._warn(
                    f"chunk {i} failed in the pool ({exc!r}); recovering serially"
                )
    finally:
        # terminate rather than close+join: join would wait forever on a
        # hung or dead worker, which is exactly what we are defending against.
        pool.terminate()
        pool.join()

    for i in failed:
        with _chunk_timer("recovered"):
            pairs.extend(_evaluate_chunk(engine, chunks[i]))
    report.recovered_chunks = len(failed)
    report.mode = "parallel-recovered" if failed else "parallel"
    return pairs


def batch_query(
    engine: FlowAwareEngine,
    queries: list[FSPQuery],
    workers: int = 1,
    chunk_timeout: float = DEFAULT_CHUNK_TIMEOUT,
    report: BatchReport | None = None,
) -> list[FSPResult]:
    """Evaluate ``queries`` in target-grouped order.

    Results align with the input order and equal a plain
    ``[engine.query(q) for q in queries]`` loop.

    Parameters
    ----------
    workers:
        ``1`` (default) evaluates in-process.  ``> 1`` fans contiguous
        chunks of the target-grouped order out to a ``fork``
        multiprocessing pool sharing the built index and the primed query
        structures copy-on-write, and
        falls back to the serial path when ``fork`` is unavailable or the
        pool cannot start.  Both paths return bit-identical results.
    chunk_timeout:
        Wall-clock budget per pool chunk; a chunk that misses it (dead or
        hung worker) is re-executed serially in the parent.
    report:
        Optional :class:`BatchReport` instance filled in with the execution
        mode, any fallback reason, and recovery counts — the structured
        alternative to watching the ``repro.batch`` logger.
    """
    if workers < 1:
        raise QueryError(f"workers must be >= 1, got {workers}")
    if chunk_timeout <= 0:
        raise QueryError(f"chunk_timeout must be positive, got {chunk_timeout}")
    if report is None:
        report = BatchReport()
    if not queries:
        return []
    # one front door per batch: serial spans nest in-process, pool chunks
    # carry the request context across the fork via current_wire()
    with obs.front_door("batch.query", queries=len(queries), workers=workers):
        order = sorted(
            range(len(queries)),
            key=lambda i: (queries[i].target, queries[i].timestep),
        )
        indexed = [(i, queries[i]) for i in order]
        results: list[FSPResult | None] = [None] * len(queries)

        if workers > 1 and len(queries) > 1:
            pairs = _run_parallel(engine, indexed, workers, chunk_timeout, report)
            if pairs is not None:
                for position, result in pairs:
                    results[position] = result
                _record_batch(report, len(queries))
                return results  # type: ignore[return-value]
        elif workers > 1:
            report.fallback_reason = "single-query"
        else:
            report.fallback_reason = "workers<=1"

        report.mode = "serial"
        with _chunk_timer("serial"):
            for position, result in _evaluate_chunk(engine, indexed):
                results[position] = result
        _record_batch(report, len(queries))
        return results  # type: ignore[return-value]

"""Spans around the public callables of every serving layer.

The benchmark times each layer from the outside.  :func:`installed` swaps
the callables listed in :data:`TARGETS` for thin wrappers that open a span
on entry and close it on exit, and puts the originals back afterwards.
Nothing under ``src/`` changes.

Everything a request touches runs on one thread (the asyncio loop, or the
benchmark's own thread for fleet_batch), so open spans form a stack and a
span's parent is the span below it.  A span's self time is its duration
minus the durations of its children.  Calls made inside fork-pool workers
happen in another process and are not seen.

The waterfall splits request latency by layer.  A *root* span is a sync
call entered with no span open; a batch, query or distance root carries
requests.  A request's latency ``L`` runs from ``aquery``/``adistance``
entry to its return; the root ``D`` that carried it (matched by payload
identity) is split among the layers by the self time each spent inside
that root, and ``L - D`` (queue wait, window, resolution) is the async
gateway's share.  A request with no async front door has ``L = D``.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import itertools
import json
import time
from array import array
from collections import Counter, defaultdict, deque

import numpy as np

import spec

__all__ = ["TARGETS", "Tracer", "installed", "layer_metrics"]

# frame slots: frames are lists, the hot path avoids attribute lookups
_NAME, _LAYER, _START, _CHILD, _SID, _PARENT, _INFO = range(7)

#: (module, class or None, attribute, layer, wrapper kind).  Kinds: "span"
#: plain; "batch"/"query"/"distance" a span that carries requests when it
#: is a root; "async" a coroutine entry point; "generator" a generator
#: timed on each next(); "submit" also files its duration by update type;
#: the rest add counts read from public state.
TARGETS = (
    ("repro.serving.async_gateway", "AsyncGateway", "aquery",
     "serving.async_gateway", "async"),
    ("repro.serving.async_gateway", "AsyncGateway", "adistance",
     "serving.async_gateway", "async"),
    ("repro.scale.gateway", "ShardedGateway", "batch", "scale.gateway", "batch"),
    ("repro.scale.gateway", "ShardedGateway", "query", "scale.gateway", "query"),
    ("repro.scale.gateway", "ShardedGateway", "distance", "scale.gateway",
     "distance"),
    ("repro.scale.gateway", "ShardedGateway", "submit", "scale.gateway", "submit"),
    ("repro.scale.gateway", "ShardedGateway", "maintenance_tick",
     "scale.gateway", "span"),
    ("repro.scale.cache", "ResultCache", "lookup", "scale.cache", "span"),
    ("repro.scale.cache", "ResultCache", "put", "scale.cache", "span"),
    ("repro.scale.boundary", "BoundaryIndex", "combine_intra",
     "scale.boundary", "span"),
    ("repro.scale.boundary", "BoundaryIndex", "combine_cross",
     "scale.boundary", "span"),
    ("repro.scale.boundary", "BoundaryIndex", "rebuild_shard",
     "scale.boundary", "span"),
    ("repro.scale.boundary", "BoundaryIndex", "rebuild_global",
     "scale.boundary", "span"),
    ("repro.serving.engine", "ResilientEngine", "batch", "serving.engine",
     "batch"),
    ("repro.serving.engine", "ResilientEngine", "query", "serving.engine",
     "query"),
    ("repro.serving.engine", "ResilientEngine", "distance", "serving.engine",
     "distance"),
    ("repro.serving.engine", "ResilientEngine", "submit", "serving.engine", "submit"),
    ("repro.serving.engine", "ResilientEngine", "maintenance_tick",
     "serving.engine", "span"),
    ("repro.core.overlay", "DeltaOverlay", "absorb", "core.overlay", "span"),
    ("repro.core.overlay", "DeltaOverlay", "table_to", "core.overlay", "span"),
    ("repro.core.overlay", "OverlayOracle", "distance", "core.overlay", "span"),
    ("repro.core.overlay", "ConsolidationTask", "step", "core.overlay", "span"),
    ("repro.core.batch", None, "batch_query", "core.batch", "batch_query"),
    ("repro.core.fpsps", "FlowAwareEngine", "query", "core.fpsps",
     "fpsps_query"),
    ("repro.core.flatq", "FlatQueryKernel", "__init__", "core.flatq", "span"),
    ("repro.core.flatq", "FlatQueryKernel", "h_to", "core.flatq", "h_to"),
    ("repro.core.flatq", "FlatQueryKernel", "collect_lazy", "core.flatq",
     "collect"),
    ("repro.core.flatq", "FlatQueryKernel", "collect_eager", "core.flatq",
     "collect"),
    # fpsps imports the name, so the engine's scalar path calls this binding
    ("repro.core.fpsps", None, "iter_shortest_paths", "paths.yen",
     "generator"),
    ("repro.labeling.hierarchy", "HierarchyIndex", "distance",
     "labeling.hierarchy", "span"),
    ("repro.labeling.hierarchy", "HierarchyIndex", "distance_many",
     "labeling.hierarchy", "span"),
    ("repro.labeling.hierarchy", "HierarchyIndex", "distances_to",
     "labeling.hierarchy", "span"),
)

_SPUR_KEYS = ("astar_runs", "spur_memo_hits", "spur_skips")


class Tracer:
    """In-memory span recorder with online per-layer aggregation.

    Aggregates (durations, self times, the waterfall, counts) are exact
    over the whole window; only the first ``max_spans`` span records are
    kept for the JSONL dump.
    """

    def __init__(self, max_spans: int = 50_000) -> None:
        self.max_spans = max_spans
        self.reset()

    def reset(self) -> None:
        """Forget everything recorded so far (called at the window start)."""
        self.epoch = time.perf_counter()
        self._stack: list[list] = []
        self._ids = itertools.count(1)
        self._root_self: Counter = Counter()
        self._root_requests: list[int] = []
        self._query_frame: list | None = None
        self._pending: dict[object, deque] = {}
        self._async: dict[int, list] = {}
        self.spans: list[tuple] = []
        self.dropped = 0
        self.durations: defaultdict[str, array] = defaultdict(lambda: array("d"))
        self.samples: defaultdict[str, array] = defaultdict(lambda: array("d"))
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.self_time: Counter = Counter()
        self.request_self: Counter = Counter()
        self.waterfall: Counter = Counter()
        self.root_busy = 0.0
        self.layers_seen: set[str] = set()

    # ------------------------------------------------------------------
    # span stack
    # ------------------------------------------------------------------
    def _open(self, name: str, layer: str) -> list:
        stack = self._stack
        parent = stack[-1] if stack else None
        frame = [name, layer, time.perf_counter(), 0.0, next(self._ids), parent,
                 None]
        stack.append(frame)
        if parent is None:
            self._root_self = Counter()
            self._root_requests = []
        return frame

    def _close(self, frame: list) -> float:
        end = time.perf_counter()
        stack = self._stack
        if stack and stack[-1] is frame:
            stack.pop()
        else:  # pragma: no cover - a wrapper raised between open and close
            stack.remove(frame)
        name, layer = frame[_NAME], frame[_LAYER]
        duration = end - frame[_START]
        own = duration - frame[_CHILD]
        parent = frame[_PARENT]
        self.durations[name].append(duration)
        self.calls[name] += 1
        self.self_time[layer] += own
        self._root_self[layer] += own
        self.layers_seen.add(layer)
        requests = self._root_requests
        if parent is not None:
            parent[_CHILD] += duration
            request = requests[0] if len(requests) == 1 else None
        else:
            request = list(requests) if requests else None
            self._close_root(frame, duration)
        self._keep(frame[_SID], parent[_SID] if parent is not None else None,
                   name, layer, frame[_START], end, request)
        return duration

    def _keep(self, sid, parent, name, layer, start, end, request) -> None:
        if len(self.spans) < self.max_spans:
            self.spans.append((sid, parent, name, layer, start, end, request))
        else:
            self.dropped += 1

    def _carry(self, frame: list, how: str, args: tuple) -> None:
        """A root that carries requests: count them, match async entries.

        The async gateway hands the engine the very query objects it was
        given (and distance pairs as positional ``u, v``), which is what
        makes payload matching exact.
        """
        if how == "batch":
            keys = [id(query) for query in args[1]]
        elif how == "query":
            keys = [id(args[1])]
        else:
            keys = [("d", args[1], args[2])]
        frame[_INFO] = len(keys)
        start = frame[_START]
        for key in keys:
            waiting = self._pending.get(key)
            if not waiting:
                continue
            rid = waiting.popleft()
            if not waiting:
                del self._pending[key]
            record = self._async.get(rid)
            if record is not None:
                self.samples["async.queue_wait"].append(start - record[0])
                self._root_requests.append(rid)

    def _close_root(self, frame: list, duration: float) -> None:
        self.root_busy += duration
        carried = frame[_INFO]
        if not carried:
            return
        for layer, own in self._root_self.items():
            self.request_self[layer] += own
            self.waterfall[layer] += carried * own
        for rid in self._root_requests:
            record = self._async.get(rid)
            if record is not None:
                record[1] = duration

    # ------------------------------------------------------------------
    # async entry points
    # ------------------------------------------------------------------
    def _async_enter(self, key: object) -> int:
        rid = next(self._ids)
        self._async[rid] = [time.perf_counter(), 0.0, key]
        self._pending.setdefault(key, deque()).append(rid)
        return rid

    def _async_exit(self, rid: int, name: str) -> None:
        record = self._async.pop(rid, None)
        if record is None:  # entered before the last reset
            return
        end = time.perf_counter()
        start, carried_by, key = record
        waiting = self._pending.get(key)
        if waiting and rid in waiting:  # never reached an engine call
            waiting.remove(rid)
            if not waiting:
                del self._pending[key]
        layer = "serving.async_gateway"
        self.durations[name].append(end - start)
        self.waterfall[layer] += (end - start) - carried_by
        self.layers_seen.add(layer)
        self._keep(rid, None, name, layer, start, end, rid)

    # ------------------------------------------------------------------
    # per-query bookkeeping (FlowAwareEngine.query and what it calls)
    # ------------------------------------------------------------------
    def _mark_flat(self) -> None:
        frame = self._query_frame
        if frame is not None:
            frame[_INFO]["flat"] = True

    def _query_done(self, info: dict, result) -> None:
        counts = self.counts
        counts["fpsps.queries"] += 1
        counts["fpsps.flat"] += info["flat"]
        counts["fpsps.candidates"] += result.num_candidates
        counts["fpsps.pruned"] += result.num_pruned
        counts["fpsps.early_stops"] += bool(result.early_stopped)
        if info["yen"]:
            counts["yen.queries"] += 1
            counts["yen.paths"] += info["paths"]
            self.samples["yen.collect"].append(info["yen_s"])

    # ------------------------------------------------------------------
    # wrapper factories
    # ------------------------------------------------------------------
    def _wrap(self, name: str, layer: str, kind: str, fn):
        tracer = self
        if kind == "async":
            if not inspect.iscoroutinefunction(fn):
                raise TypeError(f"{name} is not a coroutine function")
            if fn.__name__ == "adistance":
                def key_of(args):
                    return ("d", args[1], args[2])
            else:
                def key_of(args):
                    return id(args[1])

            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                rid = tracer._async_enter(key_of(args))
                try:
                    return await fn(*args, **kwargs)
                finally:
                    tracer._async_exit(rid, name)

            return async_wrapper

        if kind == "generator":
            @functools.wraps(fn)
            def generator_wrapper(*args, **kwargs):
                inner = fn(*args, **kwargs)
                query = tracer._query_frame
                if query is not None:
                    query[_INFO]["yen"] = True
                try:
                    while True:
                        frame = tracer._open(name, layer)
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        finally:
                            duration = tracer._close(frame)
                            if query is not None:
                                query[_INFO]["yen_s"] += duration
                        if query is not None:
                            query[_INFO]["paths"] += 1
                        yield item
                finally:
                    inner.close()

            return generator_wrapper

        if kind in ("batch", "query", "distance"):
            @functools.wraps(fn)
            def root_wrapper(*args, **kwargs):
                frame = tracer._open(name, layer)
                if frame[_PARENT] is None:
                    tracer._carry(frame, kind, args)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._close(frame)

            return root_wrapper

        if kind == "fpsps_query":
            @functools.wraps(fn)
            def query_wrapper(engine, query):
                frame = tracer._open(name, layer)
                info = frame[_INFO] = {
                    "flat": False, "yen": False, "yen_s": 0.0, "paths": 0,
                }
                outer, tracer._query_frame = tracer._query_frame, frame
                try:
                    result = fn(engine, query)
                finally:
                    tracer._query_frame = outer
                    tracer._close(frame)
                tracer._query_done(info, result)
                return result

            return query_wrapper

        if kind == "h_to":
            @functools.wraps(fn)
            def h_to_wrapper(kernel, target):
                tracer._mark_flat()
                builds = kernel.stats["heuristic_builds"]
                frame = tracer._open(name, layer)
                try:
                    return fn(kernel, target)
                finally:
                    duration = tracer._close(frame)
                    if kernel.stats["heuristic_builds"] != builds:
                        tracer.counts["flatq.h_builds"] += 1
                        tracer.samples["flatq.h_build"].append(duration)

            return h_to_wrapper

        if kind == "collect":
            @functools.wraps(fn)
            def collect_wrapper(kernel, *args, **kwargs):
                tracer._mark_flat()
                before = [kernel.stats[key] for key in _SPUR_KEYS]
                frame = tracer._open(name, layer)
                try:
                    return fn(kernel, *args, **kwargs)
                finally:
                    duration = tracer._close(frame)
                    tracer.samples["flatq.collect"].append(duration)
                    for key, was in zip(_SPUR_KEYS, before):
                        tracer.counts[f"flatq.{key}"] += kernel.stats[key] - was

            return collect_wrapper

        if kind == "batch_query":
            from repro.core.batch import BatchReport

            @functools.wraps(fn)
            def batch_query_wrapper(engine, queries, *args, **kwargs):
                # batch_query makes a fresh report when given none, so
                # handing it one of ours changes nothing but what we see
                if len(args) >= 3:
                    report = args[2]
                else:
                    report = kwargs.get("report")
                    if report is None:
                        report = kwargs["report"] = BatchReport()
                frame = tracer._open(name, layer)
                try:
                    return fn(engine, queries, *args, **kwargs)
                finally:
                    tracer._close(frame)
                    tracer.counts["batch.calls"] += 1
                    tracer.counts["batch.queries"] += len(queries)
                    if report is not None and report.mode.startswith("parallel"):
                        tracer.counts["batch.parallel"] += 1

            return batch_query_wrapper

        if kind == "submit":
            # a weight update rebuilds boundary tables, a flow update only
            # queues: one median over both would fall between the two
            @functools.wraps(fn)
            def submit_wrapper(owner, update):
                frame = tracer._open(name, layer)
                try:
                    return fn(owner, update)
                finally:
                    duration = tracer._close(frame)
                    tracer.samples[f"{name}.{type(update).__name__}"].append(duration)

            return submit_wrapper

        @functools.wraps(fn)
        def span_wrapper(*args, **kwargs):
            frame = tracer._open(name, layer)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(frame)

        return span_wrapper

    # ------------------------------------------------------------------
    def write_jsonl(self, path) -> None:
        """Dump the kept span records, one JSON object per line."""
        epoch = self.epoch
        with open(path, "w", encoding="utf-8") as sink:
            for sid, parent, name, layer, start, end, request in self.spans:
                sink.write(json.dumps({
                    "span": sid,
                    "parent": parent,
                    "name": name,
                    "layer": layer,
                    "start": start - epoch,
                    "end": end - epoch,
                    "request": request,
                }) + "\n")


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Wrap every target for the duration of the block, then restore."""
    restore: list[tuple[object, str, object]] = []
    try:
        for module_name, owner_name, attr, layer, kind in TARGETS:
            module = importlib.import_module(module_name)
            owner = module if owner_name is None else getattr(module, owner_name)
            if owner_name is not None and attr not in vars(owner):
                raise AttributeError(f"{owner_name}.{attr} is inherited")
            original = getattr(owner, attr) if owner_name is None else vars(owner)[attr]
            name = attr if owner_name is None else f"{owner_name}.{attr}"
            setattr(owner, attr, tracer._wrap(name, layer, kind, original))
            restore.append((owner, attr, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(restore):
            setattr(owner, attr, original)


def _pct(values, q: float) -> float:
    if not len(values):
        return 0.0
    return float(np.percentile(np.frombuffer(values, dtype=np.float64), q))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    tracer: Tracer,
    public: dict[str, int],
    requests: int,
    updates: int,
    wall: float,
) -> dict[str, float]:
    """Every per-layer metric of :data:`spec.LAYER_METRICS`, by name.

    ``public`` holds deltas of the stack's own counters over the window
    (``gateway.metrics``, ``cache.stats()``, the async gateway's window
    stats, the engines' consolidation counts); ``requests`` and
    ``updates`` are what the load generator sent in the window.
    """
    t, d, s, c, calls = (
        tracer, tracer.durations, tracer.samples, tracer.counts, tracer.calls
    )
    ms, us = 1e3, 1e6

    def joined(*names):
        out = array("d")
        for name in names:
            out.extend(d.get(name, ()))
        return out

    routed = sum(public.get(f"gateway.{key}", 0) for key in (
        "cache_hit", "queries_shard", "queries_boundary", "queries_fallback"))
    spur_total = sum(c[f"flatq.{key}"] for key in _SPUR_KEYS)
    combine = joined("BoundaryIndex.combine_intra", "BoundaryIndex.combine_cross")
    waterfall_total = sum(t.waterfall.values())
    values = {
        "async.queue_wait_p50_ms": _pct(s["async.queue_wait"], 50) * ms,
        "async.queue_wait_p99_ms": _pct(s["async.queue_wait"], 99) * ms,
        "async.window_size_mean": _ratio(
            public.get("async.requests", 0), public.get("async.windows", 0)),
        "async.busy_share": _ratio(t.root_busy, wall),
        "gateway.self_ms_per_req": _ratio(
            t.request_self["scale.gateway"], requests) * ms,
        "gateway.route_share.cache": _ratio(
            public.get("gateway.cache_hit", 0), routed),
        "gateway.route_share.shard": _ratio(
            public.get("gateway.queries_shard", 0), routed),
        "gateway.route_share.boundary": _ratio(
            public.get("gateway.queries_boundary", 0), routed),
        "gateway.weight_submit_ms_p50": _pct(
            s["ShardedGateway.submit.WeightUpdate"], 50) * ms,
        "cache.hit_rate": _ratio(
            public.get("cache.hits", 0),
            public.get("cache.hits", 0) + public.get("cache.misses", 0)),
        "cache.stale_drops_per_update": _ratio(
            public.get("cache.stale_drops", 0), updates),
        "boundary.combine_calls_per_req": _ratio(len(combine), requests),
        "boundary.combine_us_p50": _pct(combine, 50) * us,
        "boundary.global_rebuild_ms_p50": _pct(
            d["BoundaryIndex.rebuild_global"], 50) * ms,
        "boundary.shard_rebuild_ms_p50": _pct(
            d["BoundaryIndex.rebuild_shard"], 50) * ms,
        "boundary.rebuilds_per_update": _ratio(
            calls["BoundaryIndex.rebuild_global"]
            + calls["BoundaryIndex.rebuild_shard"], updates),
        "engine.weight_submit_ms_p50": _pct(
            s["ResilientEngine.submit.WeightUpdate"], 50) * ms,
        "engine.tick_ms_p99": _pct(d["ResilientEngine.maintenance_tick"], 99) * ms,
        "engine.consolidations": float(public.get("engine.consolidations", 0)),
        "overlay.absorb_ms_p50": _pct(d["DeltaOverlay.absorb"], 50) * ms,
        "overlay.table_to_ms_p50": _pct(d["DeltaOverlay.table_to"], 50) * ms,
        "overlay.table_to_per_req": _ratio(calls["DeltaOverlay.table_to"], requests),
        "overlay.step_ms_p99": _pct(d["ConsolidationTask.step"], 99) * ms,
        "batch.self_ms_per_query": _ratio(
            t.self_time["core.batch"], c["batch.queries"]) * ms,
        "batch.parallel_share": _ratio(c["batch.parallel"], c["batch.calls"]),
        "fpsps.query_ms_p50": _pct(d["FlowAwareEngine.query"], 50) * ms,
        "fpsps.query_ms_p99": _pct(d["FlowAwareEngine.query"], 99) * ms,
        "fpsps.score_ms_per_query": _ratio(
            t.self_time["core.fpsps"], c["fpsps.queries"]) * ms,
        "fpsps.scalar_share": _ratio(
            c["fpsps.queries"] - c["fpsps.flat"], c["fpsps.queries"]),
        "fpsps.candidates_mean": _ratio(c["fpsps.candidates"], c["fpsps.queries"]),
        "fpsps.pruned_share": _ratio(c["fpsps.pruned"], c["fpsps.candidates"]),
        "fpsps.early_stop_share": _ratio(c["fpsps.early_stops"], c["fpsps.queries"]),
        "flatq.h_table_ms_p50": _pct(s["flatq.h_build"], 50) * ms,
        "flatq.h_table_builds_per_query": _ratio(c["flatq.h_builds"], c["fpsps.flat"]),
        "flatq.collect_ms_p50": _pct(s["flatq.collect"], 50) * ms,
        "flatq.spur_searches_per_query": _ratio(
            c["flatq.astar_runs"], c["fpsps.flat"]),
        "flatq.spur_memo_hit_share": _ratio(c["flatq.spur_memo_hits"], spur_total),
        "flatq.spur_skip_share": _ratio(c["flatq.spur_skips"], spur_total),
        "flatq.kernel_builds": float(calls["FlatQueryKernel.__init__"]),
        "flatq.kernel_build_ms": _pct(d["FlatQueryKernel.__init__"], 50) * ms,
        "yen.collect_ms_p50": _pct(s["yen.collect"], 50) * ms,
        "yen.paths_per_query": _ratio(c["yen.paths"], c["yen.queries"]),
        "labels.distance_us_p50": _pct(d["HierarchyIndex.distance"], 50) * us,
        "labels.distance_calls_per_req": _ratio(
            calls["HierarchyIndex.distance"], requests),
        "labels.distances_to_ms_p50": _pct(d["HierarchyIndex.distances_to"], 50) * ms,
    }
    for layer in spec.LAYERS:
        values[f"{layer}.self_share"] = _ratio(t.waterfall[layer], waterfall_total)
    return values

"""The four workloads: their stacks, request streams and load generators.

:func:`run` builds one workload's stack several times from a cold start
(``setup_s`` is the median), drives its load through a warm-up and then
the measured window, optionally under the span tracer, checks a sample of
answers and returns every number the benchmark reports.  Speed probes
(``speed.py``) run throughout the set-up and the window, and scale the
gated times, ``setup_s`` and ``request_cpu_ms``, into reference seconds.

Open-loop latency is measured from each request's *scheduled* send time,
so a stall also charges the requests that queued behind it.  Arrival times
are a Poisson process conditioned on its count: ``rate * seconds``
uniform times, sorted.
"""

from __future__ import annotations

import asyncio
import contextlib
import gc
import resource
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from repro.core.batch import BatchReport
from repro.core.fpsps import FlowAwareEngine
from repro.core.fspq import FSPQuery
from repro.scale import ShardedGateway
from repro.serving import FlowUpdate, ResilientEngine, WeightUpdate
from repro.serving.async_gateway import AsyncGateway
from repro.workloads.datasets import load_dataset

import check
import spec
import speed
import tracing

__all__ = ["run"]

_SETTINGS = dict(
    alpha=spec.ALPHA,
    eta_u=spec.ETA_U,
    pruning=spec.PRUNING,
    update_mode=spec.UPDATE_MODE,
    max_retries=spec.MAX_RETRIES,
)


# ----------------------------------------------------------------------
# stacks
# ----------------------------------------------------------------------
@dataclass
class Stack:
    frn: object
    front: object  # what the load generator calls
    gateway: ShardedGateway | None
    engine: ResilientEngine | None
    base_graph: object = None  # weights before any update, for the replay

    @property
    def engines(self) -> list[ResilientEngine]:
        return self.gateway.shards if self.gateway is not None else [self.engine]

    def index_bytes(self) -> int:
        total = sum(engine.index.index_size_bytes() for engine in self.engines)
        if self.gateway is not None:
            total += self.gateway.boundary.table_bytes()
        return total

    def counters(self) -> Counter:
        """The stack's own public counters, for per-window deltas."""
        counts: Counter = Counter()
        if isinstance(self.front, AsyncGateway):
            counts["async.windows"] = self.front.stats.windows
            counts["async.requests"] = self.front.stats.requests
        if self.gateway is not None:
            for key in ("cache_hit", "queries_shard", "queries_boundary",
                        "queries_fallback"):
                counts[f"gateway.{key}"] = self.gateway.metrics[key]
            stats = self.gateway.cache.stats()
            counts["cache.hits"] = stats.hits
            counts["cache.misses"] = stats.misses
            counts["cache.stale_drops"] = stats.stale_drops
        counts["engine.consolidations"] = sum(
            engine.metrics["consolidations"] for engine in self.engines
        )
        return counts


def build_stack(workload: spec.Workload, scale: float) -> Stack:
    """Dataset load through a constructed stack: what ``setup_s`` times."""
    frn = load_dataset(spec.DATASET, scale=scale, seed=spec.DATASET_SEED).frn
    if workload.stack == "sharded":
        gateway = ShardedGateway(frn, num_shards=spec.NUM_SHARDS, **_SETTINGS)
        return Stack(frn, AsyncGateway(gateway), gateway, None)
    engine = ResilientEngine(frn, **_SETTINGS)
    front = AsyncGateway(engine) if workload.stack == "monolithic" else engine
    return Stack(frn, front, None, engine)


def setup(
    workload: spec.Workload, scale: float, meter: speed.Meter
) -> tuple[Stack, list[float], list[float]]:
    """Cold-build the stack ``SETUP_BUILDS`` times; keep the last one.

    Returns the stack, each build's wall time and each build's time in
    reference seconds, scaled by the speed probes taken while it ran.
    Both leave out the probes' own time.
    """
    wall: list[float] = []
    reference: list[float] = []
    stack = None
    for _ in range(spec.SETUP_BUILDS):
        stack = None
        gc.collect()
        probing = meter.cpu
        start = time.perf_counter()
        stack = build_stack(workload, scale)
        end = time.perf_counter()
        took = end - start - (meter.cpu - probing)
        wall.append(took)
        reference.append(took * meter.scale(start, end))
    stack.base_graph = stack.frn.graph.copy()
    return stack, wall, reference


# ----------------------------------------------------------------------
# what the load generator saw
# ----------------------------------------------------------------------
@dataclass
class Window:
    """Counts and latencies (seconds) of the measured window."""

    seconds: float = 0.0
    start: float = 0.0
    #: CPU seconds of the process and its reaped children over the window,
    #: less the speed probes'
    cpu: float = 0.0
    requests: int = 0
    updates: int = 0
    failed: int = 0
    #: (sent - start, latency, is_distance) per answered request; a batch
    #: counts as one request, since every query in it waits for all of it
    answered: list[tuple[float, float, bool]] = field(default_factory=list)
    #: completion times - start, for the completion rate
    done: list[float] = field(default_factory=list)
    #: weight-update acks; a flow update only queues, in microseconds
    acks: list[float] = field(default_factory=list)
    lag: list[float] = field(default_factory=list)
    samples: list[check.Sample] = field(default_factory=list)
    #: every weight update applied since setup (warm-up included), in order
    update_log: list[tuple[int, int, float]] = field(default_factory=list)
    public: dict[str, int] = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)

    @property
    def applied(self) -> int:
        return len(self.update_log)

    def offer(self, index, kind, query, answer, applied_before) -> None:
        """Keep every SAMPLE_EVERY-th measured answer for the exactness gate."""
        if index % spec.SAMPLE_EVERY or len(self.samples) >= spec.SAMPLE_CAP:
            return
        self.samples.append(check.Sample(
            kind, query.source, query.target, query.timestep, answer,
            applied_before, self.applied,
        ))

    def fail(self, exc: Exception) -> None:
        self.failed += 1
        if len(self.errors) < 3:
            self.errors.append(f"{type(exc).__name__}: {exc}")


def _delta(after: Counter, before: Counter) -> dict[str, int]:
    return {key: after[key] - before[key] for key in after}


async def _until(when: float) -> None:
    delay = when - time.perf_counter()
    if delay > 0:
        await asyncio.sleep(delay)


def _unique_queries(frn, rng):
    """Uniform FSPQ queries over never-repeated (s, t) pairs."""
    n, steps = frn.num_vertices, frn.num_timesteps
    seen: set[tuple[int, int]] = set()
    while True:
        s, t = int(rng.integers(n)), int(rng.integers(n))
        if s != t and (s, t) not in seen:
            seen.add((s, t))
            yield FSPQuery(s, t, int(rng.integers(steps)))


def _commute_pool(frn) -> tuple[list[tuple[int, int, int]], np.ndarray]:
    """POOL_SIZE distinct commute triples and their Zipf draw weights.

    The pool comes from the dataset seed, like the graph.  About ten
    triples at the head of the Zipf draw carry half of the traffic, and
    their cache misses set the open loops' latency; a pool drawn per
    request-stream seed swapped those ten from seed to seed and spread
    live_traffic's median across seeds several times wider than the
    largest bound (README.md, "Seeds").
    """
    rng = np.random.default_rng(spec.DATASET_SEED)
    n = frn.num_vertices
    pool: list[tuple[int, int, int]] = []
    seen: set[tuple[int, int, int]] = set()
    while len(pool) < spec.POOL_SIZE:
        s, t = int(rng.integers(n)), int(rng.integers(n))
        triple = (s, t, int(rng.choice(spec.COMMUTE_TIMESTEPS)))
        if s != t and triple not in seen:
            seen.add(triple)
            pool.append(triple)
    weights = np.arange(1, spec.POOL_SIZE + 1, dtype=np.float64) ** -spec.ZIPF_EXPONENT
    return pool, weights / weights.sum()


def _systematic(rng, weights: np.ndarray, count: int) -> np.ndarray:
    """How many of ``count`` draws fall to each weight, by systematic sampling.

    Each entry gets the floor or the ceiling of its expected count and the
    counts sum to ``count``; one uniform offset decides which get the
    ceiling.
    """
    expected = np.cumsum(weights) / weights.sum() * count
    expected[-1] = count
    edges = np.floor(expected + rng.random())
    return np.diff(np.concatenate([[0.0], edges])).astype(np.int64)


def _commute_requests(rng, weights: np.ndarray, count: int):
    """Which pool triple each of ``count`` requests asks for, and whether it
    is a distance lookup, in a random order.

    Every triple is asked for its expected number of times, rounded, and
    a triple's requests split between FSPQ and distance lookups as evenly
    as ``DISTANCE_SHARE`` allows.  Independent Zipf draws would leave the
    number of distinct requests, and so of cache misses, to chance: they
    carry most of the open loops' work, and spread it by 5% from seed to
    seed.  The seed still sets the order, the arrival times, which of the
    rarest triples appear, and which requests are lookups.
    """
    counts = _systematic(rng, weights, count)
    picks = np.repeat(np.arange(len(weights)), counts)
    share = spec.DISTANCE_SHARE
    distance = np.empty(count, dtype=bool)
    at = 0
    for n in counts:
        offset = rng.random()
        steps = np.floor(np.arange(1, n + 1) * share + offset)
        distance[at:at + n] = np.diff(np.concatenate([[np.floor(offset)], steps])) > 0
        at += n
    order = rng.permutation(count)
    return picks[order], distance[order]


def _arrivals(rng, rate: float, warm: float, seconds: float) -> np.ndarray:
    warmup = np.sort(rng.uniform(0.0, warm, int(round(rate * warm))))
    window = warm + np.sort(rng.uniform(0.0, seconds, int(round(rate * seconds))))
    return np.concatenate([warmup, window])


# ----------------------------------------------------------------------
# open loop (commute_open, live_traffic)
# ----------------------------------------------------------------------
async def _request(gateway, window, index, due, query, is_distance) -> None:
    before = window.applied
    try:
        if is_distance:
            answer = await gateway.adistance(query.source, query.target)
        else:
            answer = await gateway.aquery(query)
    except Exception as exc:  # noqa: BLE001 - every failure counts, none stops the run
        if index is not None:
            window.fail(exc)
        return
    done = time.perf_counter()
    if index is None:
        return
    window.answered.append((due - window.start, done - due, is_distance))
    window.done.append(done - window.start)
    window.offer(index, "distance" if is_distance else "route", query, answer, before)


async def _ticker(gateway, every: float, t0: float, end: float) -> None:
    tick = t0 + every
    while tick < end:
        await _until(tick)
        gateway.maintenance_tick(steps=1)
        tick += every


async def _bursts(stack, rng, every, t0, start, end, window) -> None:
    """Weight and flow update bursts through ``ShardedGateway.submit``.

    Submits run on the loop thread, like the reads: a slow update holds
    up every request queued behind it.
    """
    gateway = stack.gateway
    graph = stack.frn.graph
    edges = [(u, v) for u, v, _ in graph.edges()]
    flows = stack.frn.total_predicted_flow()
    low, high = spec.UPDATE_FACTOR
    stamp = 0.0
    due = t0 + every / 2
    while due < end:
        await _until(due)
        burst = []
        for _ in range(spec.BURST_WEIGHT_UPDATES):
            u, v = edges[int(rng.integers(len(edges)))]
            stamp += 1.0
            value = graph.weight(u, v) * float(rng.uniform(low, high))
            burst.append(WeightUpdate(u, v, value, timestamp=stamp))
        for _ in range(spec.BURST_FLOW_UPDATES):
            vertex = int(rng.integers(graph.num_vertices))
            stamp += 1.0
            value = float(flows[vertex]) * float(rng.uniform(low, high))
            burst.append(FlowUpdate(vertex, value, timestamp=stamp))
        for update in burst:
            sent = time.perf_counter()
            outcome = gateway.submit(update)
            ack = time.perf_counter() - sent
            if outcome.applied and isinstance(update, WeightUpdate):
                window.update_log.append((update.u, update.v, update.value))
            if due >= start:
                window.updates += 1
                if isinstance(update, WeightUpdate):
                    window.acks.append(ack)
                if not outcome.accepted or outcome.deferred:
                    window.failed += 1
        due += every


def _cpu_seconds() -> float:
    """CPU time of this process and of its reaped children (the fork pool's
    workers, joined after every batch)."""
    return sum(
        usage.ru_utime + usage.ru_stime
        for usage in map(resource.getrusage,
                         (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    )


def _begin(stack, tracer, window, meter) -> Counter:
    """Open the measured window: reset the tracer, snapshot the counters."""
    if tracer is not None:
        tracer.reset()
    window.cpu = meter.cpu - _cpu_seconds()
    return stack.counters()


def _end(stack, window, meter, start: float, before: Counter) -> None:
    """Close the measured window; its CPU time leaves out the speed probes'."""
    window.seconds = time.perf_counter() - start
    window.cpu += _cpu_seconds() - meter.cpu
    window.public = _delta(stack.counters(), before)


async def _open_loop(stack, workload, rng, update_rng, warm, seconds, tracer,
                     window, burst_every, meter) -> None:
    gateway = stack.front
    pool, weights = _commute_pool(stack.frn)
    arrivals = _arrivals(rng, workload.rate, warm, seconds)
    picks, distance = _commute_requests(rng, weights, len(arrivals))
    loop = asyncio.get_running_loop()
    t0 = time.perf_counter()
    start, end = t0 + warm, t0 + warm + seconds
    window.start = start
    background = []
    if burst_every:
        background = [
            loop.create_task(_ticker(stack.gateway, workload.tick_every, t0, end)),
            loop.create_task(
                _bursts(stack, update_rng, burst_every, t0, start, end, window)
            ),
        ]
    tasks = []
    before = None
    measured = 0
    for offset, pick, is_distance in zip(arrivals, picks, distance):
        due = t0 + float(offset)
        index = None
        if offset >= warm:
            if before is None:
                await _until(start)
                before = _begin(stack, tracer, window, meter)
            await _until(due)
            window.lag.append(time.perf_counter() - due)
            window.requests += 1
            index = measured
            measured += 1
        else:
            await _until(due)
        s, t, ts = pool[int(pick)]
        tasks.append(loop.create_task(
            _request(gateway, window, index, due, FSPQuery(s, t, ts), bool(is_distance))
        ))
    if before is None:
        await _until(start)
        before = _begin(stack, tracer, window, meter)
    await asyncio.gather(*tasks, *background)
    _end(stack, window, meter, start, before)


# ----------------------------------------------------------------------
# closed loop (citywide_closed)
# ----------------------------------------------------------------------
async def _closed_loop(stack, workload, rng, warm, seconds, tracer, window,
                       meter) -> None:
    gateway = stack.front
    queries = _unique_queries(stack.frn, rng)
    t0 = time.perf_counter()
    start, end = t0 + warm, t0 + warm + seconds
    window.start = start
    issued = 0
    before: list[Counter] = []

    async def open_window() -> None:
        await _until(start)
        before.append(_begin(stack, tracer, window, meter))

    async def client() -> None:
        nonlocal issued
        while True:
            sent = time.perf_counter()
            if sent >= end:
                return
            query = next(queries)
            index = None
            if sent >= start:
                index = issued
                issued += 1
                window.requests += 1
            try:
                answer = await gateway.aquery(query)
            except Exception as exc:  # noqa: BLE001 - counted, run continues
                if index is not None:
                    window.fail(exc)
                continue
            done = time.perf_counter()
            window.done.append(done - start)
            if index is not None:
                window.answered.append((sent - start, done - sent, False))
                window.offer(index, "route", query, answer, 0)

    await asyncio.gather(open_window(), *(client() for _ in range(workload.clients)))
    _end(stack, window, meter, start, before[0])


async def _serve(gateway: AsyncGateway, body) -> None:
    async with gateway:
        await body


# ----------------------------------------------------------------------
# back-to-back batches (fleet_batch)
# ----------------------------------------------------------------------
def _batch_loop(stack, workload, rng, seconds, tracer, window, meter) -> None:
    engine = stack.front
    queries = _unique_queries(stack.frn, rng)

    def one_batch(size: int = workload.batch_size):
        batch = [next(queries) for _ in range(size)]
        sent = time.perf_counter()
        answers = engine.batch(batch, workers=workload.workers, report=BatchReport())
        latency = time.perf_counter() - sent
        meter.drain()  # the joined workers' speed probes
        return batch, answers, sent, latency

    # warm-up: lazy builds, first pool fork; a short batch takes the same
    # path as a full one
    one_batch(spec.WARMUP_BATCH)
    latency = 0.0
    before = _begin(stack, tracer, window, meter)
    window.start = start = time.perf_counter()
    index = 0
    # whole batches only: start one while it should end within half a
    # batch of the window's end, so the window averages ``seconds``
    while time.perf_counter() - start + latency / 2 < seconds:
        window.requests += workload.batch_size
        try:
            batch, answers, sent, latency = one_batch()
        except Exception as exc:  # noqa: BLE001 - counted, run continues
            window.fail(exc)
            window.failed += workload.batch_size - 1
            continue
        window.answered.append((sent - start, latency, False))
        for query, answer in zip(batch, answers):
            window.offer(index, "route", query, answer, 0)
            index += 1
    _end(stack, window, meter, start, before)


# ----------------------------------------------------------------------
# one run
# ----------------------------------------------------------------------
def _pct(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def _sliced_p99(points: list[tuple[float, float]], seconds: float,
                slices: int) -> float:
    """The median over equal slices of the window of each slice's 99th
    percentile: a few slow seconds, or one rare stall, move one slice."""
    width = seconds / slices
    groups: list[list[float]] = [[] for _ in range(slices)]
    for offset, value in points:
        groups[min(slices - 1, max(0, int(offset // width)))].append(value)
    values = [_pct(group, 99) for group in groups if group]
    return statistics.median(values) if values else 0.0


def _rate(done: list[float], seconds: float, slices: int) -> float:
    """The median over equal slices of the window of completions per second.

    A closed loop's clients fall into lockstep and each window answers all
    of them at once, so counts come in whole bursts: each slice is timed
    from the previous slice's last completion to its own last completion.
    """
    width = seconds / slices
    groups: list[list[float]] = [[] for _ in range(slices)]
    for offset in sorted(done):
        if 0.0 <= offset < seconds:
            groups[min(slices - 1, int(offset // width))].append(offset)
    rates = []
    previous = 0.0
    for group in groups:
        if group and group[-1] > previous:
            rates.append(len(group) / (group[-1] - previous))
            previous = group[-1]
    return statistics.median(rates) if rates else 0.0


def _backlog_ratio(points: list[tuple[float, float]], seconds: float) -> float:
    """Lower-quartile latency of the window's last third over its first.

    A growing queue delays every request, so it lifts the lower quartile
    too; the median would flip between the cache-hit and cache-miss
    modes that live_traffic splits its requests into about evenly.
    """
    third = seconds / 3
    first = [x for o, x in points if o < third]
    last = [x for o, x in points if o >= 2 * third]
    return _pct(last, 25) / _pct(first, 25) if first and last else 0.0


def _with_units(values: dict[str, float]) -> dict[str, dict]:
    return {k: {"value": v, "unit": spec.units()[k]} for k, v in values.items()}


def _drive(stack, workload, rng, update_rng, warm, seconds, tracer, window,
           burst_every, meter) -> None:
    """Warm up, then measure one window of the workload's load."""
    if workload.load == "open":
        asyncio.run(_serve(stack.front, _open_loop(
            stack, workload, rng, update_rng, warm, seconds, tracer, window,
            burst_every, meter,
        )))
    elif workload.load == "closed":
        asyncio.run(_serve(stack.front, _closed_loop(
            stack, workload, rng, warm, seconds, tracer, window, meter,
        )))
    else:
        _batch_loop(stack, workload, rng, seconds, tracer, window, meter)


def run(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    smoke: bool,
    spans_path=None,
) -> dict:
    """Run one workload in this process; returns its result record."""
    workload = spec.WORKLOADS[name]
    scale = spec.SMOKE_SCALE if smoke else workload.scale
    warm = min(spec.WARMUP_SECONDS, seconds / 4)
    position = list(spec.WORKLOADS).index(name)
    rng = np.random.default_rng([seed, position])
    update_rng = np.random.default_rng([seed, position, 1])
    burst_every = workload.smoke_burst_every if smoke else workload.burst_every

    tracer = tracing.Tracer() if trace else None
    window = Window()
    with speed.Meter(spec.PROBE_CPU) as meter:
        stack, setup_times, setup_reference = setup(workload, scale, meter)
        # as built: later, each shard's lazily built label arena may or may
        # not be current at the instant of measuring
        index_mb = stack.index_bytes() / 1e6
        with tracing.installed(tracer) if tracer else contextlib.nullcontext():
            _drive(stack, workload, rng, update_rng, warm, seconds, tracer, window,
                   burst_every, meter)
    window_end = window.start + window.seconds
    # fleet_batch's queries run in forked pool workers, joined by now: a
    # worker that outgrows the parent, say by losing copy-on-write
    # sharing, must show too
    peak_rss_mb = max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    ) * 1024 / 1e6

    reference = None
    if workload.stack != "sharded":
        reference = FlowAwareEngine(
            stack.frn, oracle=stack.engine.oracle, alpha=spec.ALPHA,
            eta_u=spec.ETA_U, pruning=spec.PRUNING, kernel="scalar",
        )
    report = check.verify(
        window.samples, stack.base_graph, window.update_log, spec.ETA_U, reference
    )
    for note in window.errors + report.notes:
        print(f"{name}: {note}", file=sys.stderr)

    attempted = window.requests + window.updates
    everything = [(offset, latency) for offset, latency, _ in window.answered]
    latencies = [latency for _, latency in everything]
    if workload.load == "batch":
        # the batches are the slices
        p99 = _pct(latencies, 99)
        throughput = (
            statistics.median(workload.batch_size / x for x in latencies)
            if latencies else 0.0
        )
    else:
        tail_slices = max(1, round(seconds / (burst_every or spec.SLICE_SECONDS)))
        p99 = _sliced_p99(everything, seconds, tail_slices)
        if workload.load == "open":
            # arrivals set the rate; it falls only when answers fall behind
            throughput = len(everything) / max(window.done, default=seconds)
        else:
            rate_slices = max(1, round(seconds / spec.RATE_SLICE_SECONDS))
            throughput = _rate(window.done, seconds, rate_slices)
    metrics = {
        "setup_s": statistics.median(setup_reference),
        "request_cpu_ms": window.cpu / max(1, window.requests) * 1e3
        * meter.scale(window.start, window_end),
        "peak_rss_mb": peak_rss_mb,
        "index_mb": index_mb,
    }
    details = {
        "request_p50_ms": _pct(latencies, 50) * 1e3,
        "throughput_rps": throughput,
        "host.speed": meter.speed(window.start, window_end),
        "request_p99_ms": p99 * 1e3,
        "failed_share": window.failed / attempted if attempted else 0.0,
        "mismatches": float(report.mismatches),
        "request_samples": float(len(everything)),
    }
    if workload.load == "open":
        for kind, is_distance in (("route", False), ("distance", True)):
            points = [(o, x) for o, x, d in window.answered if d == is_distance]
            details[f"{kind}_p50_ms"] = _pct([x for _, x in points], 50) * 1e3
            details[f"{kind}_p99_ms"] = _sliced_p99(points, seconds, tail_slices) * 1e3
        details["loadgen.lag_p99_ms"] = _pct(window.lag, 99) * 1e3
        details["loadgen.backlog_ratio"] = _backlog_ratio(everything, seconds)
    if burst_every:
        details["weight_ack_p50_ms"] = _pct(window.acks, 50) * 1e3

    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "smoke": smoke,
        "trace": bool(trace),
        "vertices": stack.frn.num_vertices,
        "correct": report.mismatches == 0 and report.checked > 0,
        "attempted": attempted,
        "failed": window.failed,
        "metrics": _with_units(metrics),
        "details": _with_units(details),
        "check": {
            "checked": report.checked,
            "skipped": report.skipped,
            "mismatches": report.mismatches,
            "notes": report.notes,
        },
        "setup_runs_s": setup_times,
        "setup_runs_reference_s": setup_reference,
        "window_cpu_s": window.cpu,
        "window_probes": sum(window.start <= at <= window_end for at, _ in meter.probes),
        "counters": window.public,
    }
    if tracer is not None:
        layers = tracing.layer_metrics(
            tracer, window.public, window.requests, window.updates, window.seconds
        )
        record["layers"] = _with_units(layers)
        record["layers_seen"] = sorted(tracer.layers_seen)
        record["spans"] = {"kept": len(tracer.spans), "dropped": tracer.dropped}
        if spans_path is not None:
            tracer.write_jsonl(spans_path)
            record["spans"]["file"] = str(spans_path)
    return record

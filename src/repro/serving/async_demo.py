"""Closed/open-loop load driving for the async gateway (`serve-async`).

The two canonical load models for benchmarking a serving front door:

* **closed loop** — ``concurrency`` virtual clients, each awaiting its
  answer before issuing the next request.  Throughput is limited by
  latency (classic back-to-back benchmarking); clients waiting on one
  window resubmit together and land in the next one.
* **open loop** — requests arrive on a fixed schedule (``rate`` per
  second) regardless of completions, the arrival model real traffic
  follows.  Latency here includes queueing delay, so an under-provisioned
  gateway shows p99 blow-up instead of a comforting closed-loop plateau.

Both drivers return a :class:`LoadResult` with wall-clock throughput and
latency quantiles; :func:`run_async_demo` wires them to a demo grid
engine for ``fahl-repro serve-async`` and CI.  The gated end-to-end
measurement of the async gateway is servebench (``servebench/run.py``).
"""

from __future__ import annotations

import asyncio
import random
import time
from dataclasses import dataclass, field

from repro.core.fahl import build_fahl
from repro.core.fpsps import FlowAwareEngine
from repro.core.fspq import FSPQuery
from repro.flow.synthetic import generate_flow_series
from repro.graph.frn import FlowAwareRoadNetwork
from repro.graph.generators import grid_network
from repro.serving.async_gateway import AsyncGateway

__all__ = ["LoadResult", "closed_loop", "open_loop", "run_async_demo"]


@dataclass
class LoadResult:
    """Outcome of one load-driver run (latencies in seconds)."""

    mode: str
    requests: int
    errors: int
    wall_seconds: float
    latencies: list[float] = field(default_factory=list, repr=False)

    @property
    def throughput(self) -> float:
        """Completed requests per wall-clock second."""
        if self.wall_seconds <= 0:
            return 0.0
        return (self.requests - self.errors) / self.wall_seconds

    def quantile(self, q: float) -> float:
        if not self.latencies:
            return 0.0
        ordered = sorted(self.latencies)
        index = min(len(ordered) - 1, int(q * len(ordered)))
        return ordered[index]

    def summary(self) -> dict:
        return {
            "mode": self.mode,
            "requests": self.requests,
            "errors": self.errors,
            "wall_seconds": self.wall_seconds,
            "throughput_rps": self.throughput,
            "p50_ms": self.quantile(0.50) * 1000.0,
            "p95_ms": self.quantile(0.95) * 1000.0,
            "p99_ms": self.quantile(0.99) * 1000.0,
        }


def _issue(gateway: AsyncGateway, item, client: str):
    """One workload item: an ``FSPQuery`` -> ``aquery``, a pair -> ``adistance``."""
    if isinstance(item, FSPQuery):
        return gateway.aquery(item, client=client)
    u, v = item
    return gateway.adistance(u, v, client=client)


async def closed_loop(
    gateway: AsyncGateway,
    queries: list,
    concurrency: int = 32,
    client: str = "closed-loop",
) -> LoadResult:
    """``concurrency`` clients issue back-to-back requests until done."""
    pending = iter(queries)
    latencies: list[float] = []
    errors = 0

    async def worker() -> None:
        nonlocal errors
        while True:
            query = next(pending, None)
            if query is None:
                return
            begin = time.perf_counter()
            try:
                await _issue(gateway, query, client)
            except Exception:  # noqa: BLE001 — typed rejections count as errors
                errors += 1
            else:
                latencies.append(time.perf_counter() - begin)

    start = time.perf_counter()
    await asyncio.gather(*(worker() for _ in range(max(1, concurrency))))
    wall = time.perf_counter() - start
    return LoadResult(
        mode="closed",
        requests=len(queries),
        errors=errors,
        wall_seconds=wall,
        latencies=latencies,
    )


async def open_loop(
    gateway: AsyncGateway,
    queries: list,
    rate: float = 2000.0,
    client: str = "open-loop",
) -> LoadResult:
    """Fixed-rate arrivals: one request every ``1/rate`` seconds.

    Arrivals never wait for completions (the open-loop property), so
    measured latency includes queueing delay under overload.
    """
    if rate <= 0:
        raise ValueError(f"rate must be positive, got {rate}")
    interval = 1.0 / rate
    latencies: list[float] = []
    errors = 0

    async def one(query) -> None:
        nonlocal errors
        begin = time.perf_counter()
        try:
            await _issue(gateway, query, client)
        except Exception:  # noqa: BLE001 — typed rejections count as errors
            errors += 1
        else:
            latencies.append(time.perf_counter() - begin)

    start = time.perf_counter()
    tasks = []
    for i, query in enumerate(queries):
        # schedule against the ideal arrival clock, not the drifting one
        behind = start + i * interval - time.perf_counter()
        if behind > 0:
            await asyncio.sleep(behind)
        tasks.append(asyncio.ensure_future(one(query)))
    await asyncio.gather(*tasks)
    wall = time.perf_counter() - start
    return LoadResult(
        mode="open",
        requests=len(queries),
        errors=errors,
        wall_seconds=wall,
        latencies=latencies,
    )


def _demo_workload(
    frn: FlowAwareRoadNetwork, requests: int, seed: int
) -> list[FSPQuery]:
    rng = random.Random(seed)
    n, steps = frn.num_vertices, frn.num_timesteps
    workload = []
    while len(workload) < requests:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            workload.append(FSPQuery(u, v, rng.randrange(steps)))
    return workload


def run_async_demo(
    side: int = 8,
    requests: int = 400,
    concurrency: int = 64,
    rate: float = 4000.0,
    admission_rate: float | None = None,
    seed: int = 0,
) -> dict:
    """Drive closed- and open-loop load through one demo gateway.

    Returns a summary dict: both loops' throughput/latency numbers plus
    the gateway's coalescing statistics.
    """
    graph = grid_network(side, side, seed=seed)
    frn = FlowAwareRoadNetwork(
        graph, generate_flow_series(graph, days=1, seed=seed)
    )
    engine = FlowAwareEngine(frn, oracle=build_fahl(frn))
    workload = _demo_workload(frn, requests, seed)

    async def drive() -> tuple[LoadResult, LoadResult, object]:
        async with AsyncGateway(
            engine, admission_rate=admission_rate
        ) as gateway:
            closed = await closed_loop(gateway, workload, concurrency)
            opened = await open_loop(gateway, workload, rate)
            stats = gateway.stats
            return closed, opened, stats

    closed, opened, stats = asyncio.run(drive())
    return {
        "vertices": frn.num_vertices,
        "requests_per_loop": requests,
        "closed": closed.summary(),
        "open": opened.summary(),
        "windows": stats.windows,
        "coalescing_ratio": stats.coalescing_ratio(),
        "largest_window": stats.largest_window,
        "rejected_admission": stats.rejected_admission,
        "rejected_backpressure": stats.rejected_backpressure,
    }

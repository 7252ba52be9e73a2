"""Async micro-batching gateway benchmark: window on vs off.

Drives the same request stream through two :class:`AsyncGateway`
configurations over one shared engine/index:

* **window off** — ``max_window=1``: every request dispatches alone
  (the per-request baseline any non-batching async front door gives);
* **window on** — the default coalescing window: concurrent requests
  share one vectorised ``engine.batch`` dispatch per window.

Both run a **closed loop** (fixed concurrency, back-to-back clients)
and an **open loop** (fixed arrival rate, latency includes queueing
delay) at each request count, recording wall-clock throughput,
throughput-per-core and latency quantiles.  The claim under test: at
>= 1k concurrent requests the coalescing window wins throughput-per-core
over the per-request baseline, because each window resolves its
distance requests with one ``distance_many`` sweep instead of thousands
of scalar label scans and its queries in one target-grouped batch.

Results land in ``BENCH_async_gateway.json``.  Run directly::

    PYTHONPATH=src python benchmarks/bench_async_gateway.py
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import time
from pathlib import Path

import numpy as np

try:
    from benchmarks._env import env_info
except ModuleNotFoundError:  # run as a script: benchmarks/ is sys.path[0]
    from _env import env_info
from repro.core.fahl import build_fahl
from repro.core.fpsps import FlowAwareEngine
from repro.core.fspq import FSPQuery
from repro.serving.async_demo import closed_loop, open_loop
from repro.serving.async_gateway import AsyncGateway
from repro.workloads.datasets import load_dataset

_REPO_ROOT = Path(__file__).resolve().parent.parent


def _workload(frn, num_requests: int, distance_fraction: float, rng) -> list:
    """A mixed stream: FSPQ queries + plain distance lookups.

    Distance requests are the coalescing window's best case — one
    vectorised ``distance_many`` call per window vs one scalar label
    scan per request — while FSPQ queries exercise the ``engine.batch``
    dispatch; real navigation traffic is a blend of both.
    """
    n = frn.num_vertices
    requests: list = []
    while len(requests) < num_requests:
        source = int(rng.integers(0, n))
        target = int(rng.integers(0, n))
        if source == target:
            continue
        if rng.random() < distance_fraction:
            requests.append((source, target))
        else:
            requests.append(
                FSPQuery(source, target, int(rng.integers(frn.num_timesteps)))
            )
    return requests


def _drive(engine, queries, *, window: bool, concurrency: int,
           rate: float, window_seconds: float) -> dict:
    """One window-on/off configuration: closed + open loop summaries."""

    async def run():
        async with AsyncGateway(
            engine,
            window_seconds=window_seconds if window else 0.0,
            max_window=256 if window else 1,
            max_queue=max(len(queries), 1024),
        ) as gateway:
            closed = await closed_loop(gateway, queries, concurrency)
            opened = await open_loop(gateway, queries, rate)
            return closed, opened, gateway.stats

    closed, opened, stats = asyncio.run(run())
    cores = os.cpu_count() or 1
    out = {"window": "on" if window else "off"}
    for result in (closed, opened):
        summary = result.summary()
        summary["throughput_per_core_rps"] = round(
            summary["throughput_rps"] / cores, 2
        )
        for key in ("wall_seconds", "throughput_rps",
                    "p50_ms", "p95_ms", "p99_ms"):
            summary[key] = round(summary[key], 3)
        out[result.mode] = summary
    out["windows"] = stats.windows
    out["coalescing_ratio"] = round(stats.coalescing_ratio(), 2)
    out["largest_window"] = stats.largest_window
    return out


def main(argv=None) -> dict:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dataset", default="NYC")
    parser.add_argument("--scale", type=float, default=0.1)
    parser.add_argument("--days", type=int, default=1)
    parser.add_argument("--requests", type=int, nargs="+",
                        default=[1000, 10000],
                        help="request counts to sweep (default: 1000 10000)")
    parser.add_argument("--concurrency", type=int, default=256,
                        help="closed-loop virtual clients (default 256)")
    parser.add_argument("--rate", type=float, default=4000.0,
                        help="open-loop arrival rate per second")
    parser.add_argument("--distance-fraction", type=float, default=0.9,
                        help="fraction of plain distance lookups in the "
                             "mixed workload (default 0.9)")
    parser.add_argument("--window-ms", type=float, default=1.5)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--out", default=str(_REPO_ROOT / "BENCH_async_gateway.json")
    )
    args = parser.parse_args(argv)

    dataset = load_dataset(args.dataset, scale=args.scale, days=args.days,
                           seed=args.seed)
    frn = dataset.frn
    rng = np.random.default_rng(args.seed)

    start = time.perf_counter()
    engine = FlowAwareEngine(frn, oracle=build_fahl(frn))
    build_seconds = time.perf_counter() - start

    sweeps = []
    for count in args.requests:
        queries = _workload(frn, count, args.distance_fraction, rng)
        off = _drive(engine, queries, window=False,
                     concurrency=args.concurrency, rate=args.rate,
                     window_seconds=args.window_ms / 1000.0)
        engine.invalidate()  # both configurations start cache-cold
        on = _drive(engine, queries, window=True,
                    concurrency=args.concurrency, rate=args.rate,
                    window_seconds=args.window_ms / 1000.0)
        engine.invalidate()
        sweeps.append({
            "requests": count,
            "window_off": off,
            "window_on": on,
            "closed_throughput_per_core_gain": round(
                on["closed"]["throughput_per_core_rps"]
                / max(off["closed"]["throughput_per_core_rps"], 1e-9), 2
            ),
            "open_p99_ms_off_vs_on": [
                off["open"]["p99_ms"], on["open"]["p99_ms"]
            ],
        })

    payload = {
        "generated_unix": int(time.time()),
        "machine": env_info(),
        "dataset": {
            "label": f"{args.dataset}-S",
            "name": args.dataset,
            "scale": args.scale,
            "vertices": frn.num_vertices,
            "edges": frn.num_edges,
            "index_build_seconds": round(build_seconds, 4),
        },
        "config": {
            "concurrency": args.concurrency,
            "open_loop_rate_rps": args.rate,
            "distance_fraction": args.distance_fraction,
            "window_ms": args.window_ms,
            "max_window": 256,
        },
        "sweeps": sweeps,
    }
    Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")

    print(f"wrote {args.out}")
    for sweep in sweeps:
        on, off = sweep["window_on"], sweep["window_off"]
        print(
            f"  {sweep['requests']} requests: closed-loop "
            f"{off['closed']['throughput_per_core_rps']:,.0f} -> "
            f"{on['closed']['throughput_per_core_rps']:,.0f} req/s/core "
            f"({sweep['closed_throughput_per_core_gain']}x with the window), "
            f"open-loop p99 {off['open']['p99_ms']:.1f}ms -> "
            f"{on['open']['p99_ms']:.1f}ms, coalescing ratio "
            f"{on['coalescing_ratio']}"
        )
    return payload


if __name__ == "__main__":
    main()

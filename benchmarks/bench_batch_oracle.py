"""Throughput benchmark for the batch query subsystem.

Measures, on an NYC-S-scale synthetic network (the dataset registry's NYC
topology at reduced scale):

1. **distance oracle** — a scalar ``HierarchyIndex.distance`` loop vs the
   vectorised ``distance_many`` (label arena + batched LCA) over
   ``--pairs`` random pairs; the one-off arena packing time is reported
   separately;
2. **batch FSPQ** — a plain ``engine.query`` loop vs serial
   ``batch_query`` (target-grouped order) vs
   ``batch_query(workers=N)`` (fork pool) over a ``--queries`` workload
   whose targets are drawn from a small pool, as in kNN / navigation
   session traffic.

Each mode runs on a fresh engine, ``--repeat`` times, best time kept, and
the results of every mode are checked for exact agreement.  The numbers
land in ``BENCH_batch_oracle.json`` (repo root by default) so later
optimisation PRs have a perf trajectory to beat.  Note that the parallel
row can only beat serial when more than one CPU is available — the
recorded ``cpu_count`` says what the numbers mean.

Run directly::

    PYTHONPATH=src python benchmarks/bench_batch_oracle.py
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

import numpy as np

try:
    from benchmarks._env import env_info
except ModuleNotFoundError:  # run as a script: benchmarks/ is sys.path[0]
    from _env import env_info
from repro.core.batch import batch_query
from repro.core.fahl import build_fahl
from repro.core.fpsps import FlowAwareEngine
from repro.core.fspq import FSPQuery
from repro.workloads.datasets import load_dataset

_REPO_ROOT = Path(__file__).resolve().parent.parent


def _best_of(repeat: int, run) -> float:
    return min(min(run() for _ in range(repeat)), float("inf"))


def bench_distance_oracle(index, n: int, pairs: int, repeat: int, rng) -> dict:
    """Scalar loop vs vectorised ``distance_many`` over random pairs."""
    us = rng.integers(0, n, pairs)
    vs = rng.integers(0, n, pairs)
    us_list, vs_list = us.tolist(), vs.tolist()

    start = time.perf_counter()
    index.arena()
    arena_seconds = time.perf_counter() - start

    def scalar() -> float:
        start = time.perf_counter()
        for u, v in zip(us_list, vs_list):
            index.distance(u, v)
        return time.perf_counter() - start

    def vectorized() -> float:
        start = time.perf_counter()
        index.distance_many(us, vs)
        return time.perf_counter() - start

    scalar_seconds = _best_of(repeat, scalar)
    vectorized_seconds = _best_of(repeat, vectorized)
    reference = np.asarray([index.distance(u, v) for u, v in zip(us_list, vs_list)])
    exact = bool(np.array_equal(index.distance_many(us, vs), reference))
    return {
        "pairs": pairs,
        "arena_build_seconds": round(arena_seconds, 6),
        "scalar_seconds": round(scalar_seconds, 6),
        "vectorized_seconds": round(vectorized_seconds, 6),
        "speedup": round(scalar_seconds / vectorized_seconds, 2),
        "scalar_pairs_per_second": round(pairs / scalar_seconds),
        "vectorized_pairs_per_second": round(pairs / vectorized_seconds),
        "exact_match": exact,
    }


def bench_batch_fspq(
    frn, index, num_queries: int, num_targets: int, workers: int,
    repeat: int, rng,
) -> dict:
    """Plain loop vs serial ``batch_query`` vs the fork-pool path."""
    n = frn.num_vertices
    targets = rng.choice(n, size=num_targets, replace=False)
    queries: list[FSPQuery] = []
    while len(queries) < num_queries:
        source = int(rng.integers(0, n))
        target = int(rng.choice(targets))
        if source != target:
            queries.append(
                FSPQuery(source, target, int(rng.integers(frn.num_timesteps)))
            )

    def fresh_engine() -> FlowAwareEngine:
        return FlowAwareEngine(frn, oracle=index, max_candidates=8)

    def plain() -> float:
        engine = fresh_engine()
        start = time.perf_counter()
        for query in queries:
            engine.query(query)
        return time.perf_counter() - start

    def serial() -> float:
        engine = fresh_engine()
        start = time.perf_counter()
        batch_query(engine, queries)
        return time.perf_counter() - start

    def parallel() -> float:
        engine = fresh_engine()
        start = time.perf_counter()
        batch_query(engine, queries, workers=workers)
        return time.perf_counter() - start

    plain_seconds = _best_of(repeat, plain)
    serial_seconds = _best_of(repeat, serial)
    parallel_seconds = _best_of(repeat, parallel)

    engine = fresh_engine()
    reference = [engine.query(q) for q in queries]
    identical = (
        batch_query(fresh_engine(), queries) == reference
        and batch_query(fresh_engine(), queries, workers=workers) == reference
    )
    return {
        "queries": num_queries,
        "distinct_targets": num_targets,
        "workers": workers,
        "plain_loop_seconds": round(plain_seconds, 4),
        "serial_seconds": round(serial_seconds, 4),
        "parallel_seconds": round(parallel_seconds, 4),
        "serial_speedup_vs_plain": round(plain_seconds / serial_seconds, 2),
        "parallel_speedup_vs_serial": round(serial_seconds / parallel_seconds, 2),
        "results_identical": bool(identical),
    }


def main(argv=None) -> dict:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dataset", default="NYC")
    parser.add_argument("--scale", type=float, default=0.35)
    parser.add_argument("--days", type=int, default=2)
    parser.add_argument("--pairs", type=int, default=10_000)
    parser.add_argument("--queries", type=int, default=200)
    parser.add_argument("--targets", type=int, default=24)
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--repeat", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--out", default=str(_REPO_ROOT / "BENCH_batch_oracle.json")
    )
    args = parser.parse_args(argv)

    dataset = load_dataset(args.dataset, scale=args.scale, days=args.days,
                           seed=args.seed)
    frn = dataset.frn
    start = time.perf_counter()
    index = build_fahl(frn)
    build_seconds = time.perf_counter() - start
    rng = np.random.default_rng(args.seed)

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
        "distance_oracle": bench_distance_oracle(
            index, frn.num_vertices, args.pairs, args.repeat, rng
        ),
        "batch_fspq": bench_batch_fspq(
            frn, index, args.queries, args.targets, args.workers,
            args.repeat, rng,
        ),
    }
    Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")

    oracle = payload["distance_oracle"]
    fspq = payload["batch_fspq"]
    print(f"wrote {args.out}")
    print(
        f"distance oracle: {oracle['pairs']} pairs — scalar "
        f"{oracle['scalar_seconds']:.3f}s, vectorized "
        f"{oracle['vectorized_seconds']:.4f}s ({oracle['speedup']}x), "
        f"exact={oracle['exact_match']}"
    )
    print(
        f"batch FSPQ: {fspq['queries']} queries — plain "
        f"{fspq['plain_loop_seconds']:.2f}s, serial batch "
        f"{fspq['serial_seconds']:.2f}s, workers={fspq['workers']} "
        f"{fspq['parallel_seconds']:.2f}s, identical={fspq['results_identical']}"
    )
    return payload


if __name__ == "__main__":
    main()

"""Throughput benchmark for the sharded serving gateway.

Measures, on an NYC-S-scale synthetic network:

1. **batch throughput** — a monolithic ``FlowAwareEngine`` serial loop vs
   ``ShardedGateway.batch`` at K shards with a cold cache, over a mixed
   intra-/cross-shard workload.  Sharded fan-out only beats the monolith
   when more than one CPU is available — the recorded ``cpu_count`` says
   what the numbers mean (on a 1-CPU container the cap is documented, not
   beaten);
2. **cached throughput** — the same workload re-asked ``--rounds`` times,
   so every round after the first is served by the flow-interval-aware
   result cache; the achieved hit rate is recorded;
3. **exactness** — every sharded shortest distance is compared against
   the monolithic answer.

The numbers land in ``BENCH_sharded_gateway.json`` (repo root by
default).  Run directly::

    PYTHONPATH=src python benchmarks/bench_sharded_gateway.py
"""

from __future__ import annotations

import argparse
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
from repro.scale import ShardedGateway
from repro.workloads.datasets import load_dataset

_REPO_ROOT = Path(__file__).resolve().parent.parent


def _workload(frn, num_queries: int, rng) -> list[FSPQuery]:
    n = frn.num_vertices
    queries: list[FSPQuery] = []
    while len(queries) < num_queries:
        source = int(rng.integers(0, n))
        target = int(rng.integers(0, n))
        if source != target:
            queries.append(
                FSPQuery(source, target, int(rng.integers(frn.num_timesteps)))
            )
    return queries


def main(argv=None) -> dict:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dataset", default="NYC")
    parser.add_argument("--scale", type=float, default=0.2)
    parser.add_argument("--days", type=int, default=1)
    parser.add_argument("--shards", type=int, default=4)
    parser.add_argument("--queries", type=int, default=120)
    parser.add_argument("--rounds", type=int, default=3,
                        help="repeated-workload rounds for the cache phase")
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--out", default=str(_REPO_ROOT / "BENCH_sharded_gateway.json")
    )
    args = parser.parse_args(argv)

    dataset = load_dataset(args.dataset, scale=args.scale, days=args.days,
                           seed=args.seed)
    frn = dataset.frn
    rng = np.random.default_rng(args.seed)
    queries = _workload(frn, args.queries, rng)

    start = time.perf_counter()
    index = build_fahl(frn)
    mono_build_seconds = time.perf_counter() - start
    mono = FlowAwareEngine(frn, oracle=index, alpha=0.5, eta_u=3.0,
                           pruning="none")

    start = time.perf_counter()
    gateway = ShardedGateway(frn, num_shards=args.shards, max_retries=0)
    gateway_build_seconds = time.perf_counter() - start

    start = time.perf_counter()
    mono_results = [mono.query(q) for q in queries]
    mono_seconds = time.perf_counter() - start

    start = time.perf_counter()
    cold = gateway.batch(queries, workers=args.workers)
    sharded_cold_seconds = time.perf_counter() - start

    start = time.perf_counter()
    for _ in range(args.rounds - 1):
        gateway.batch(queries, workers=args.workers)
    warm_seconds = time.perf_counter() - start
    per_warm_round = warm_seconds / max(1, args.rounds - 1)

    mismatches = sum(
        1 for got, want in zip(cold, mono_results)
        if abs(got.result.shortest_distance - want.shortest_distance) > 1e-9
    )
    cache = gateway.status().cache

    cpu_count = os.cpu_count() or 1
    payload = {
        "generated_unix": int(time.time()),
        "machine": env_info(),
        "dataset": {
            "label": f"{args.dataset}-S",
            "name": args.dataset,
            "scale": args.scale,
            "vertices": frn.num_vertices,
            "edges": frn.num_edges,
            "monolithic_index_build_seconds": round(mono_build_seconds, 4),
            "gateway_build_seconds": round(gateway_build_seconds, 4),
        },
        "topology": {
            "shards": args.shards,
            "shard_sizes": list(gateway.status().shard_sizes),
            "boundary_vertices": gateway.status().boundary_vertices,
            "boundary_table_bytes": gateway.boundary.table_bytes(),
        },
        "batch_throughput": {
            "queries": len(queries),
            "workers": args.workers,
            "monolithic_seconds": round(mono_seconds, 4),
            "sharded_cold_seconds": round(sharded_cold_seconds, 4),
            "sharded_speedup_vs_monolithic": round(
                mono_seconds / sharded_cold_seconds, 2
            ),
            # a 1-CPU container caps fork-pool fan-out at ~1x; the
            # ">=2x at K=4" claim is only testable with cpu_count >= 4
            "parallelism_capped_by_cpu_count": cpu_count < args.shards,
            "distance_mismatches_vs_monolithic": mismatches,
        },
        "cached_throughput": {
            "rounds": args.rounds,
            "first_round_seconds": round(sharded_cold_seconds, 4),
            "per_warm_round_seconds": round(per_warm_round, 4),
            "warm_speedup_vs_cold": round(
                sharded_cold_seconds / max(per_warm_round, 1e-9), 2
            ),
            "cache_hit_rate": round(cache.hit_rate, 4),
            "cache_entries": cache.size,
        },
    }
    Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")

    batch = payload["batch_throughput"]
    cached = payload["cached_throughput"]
    print(f"wrote {args.out}")
    print(
        f"batch: {batch['queries']} queries — monolithic "
        f"{batch['monolithic_seconds']:.2f}s, sharded K={args.shards} cold "
        f"{batch['sharded_cold_seconds']:.2f}s "
        f"({batch['sharded_speedup_vs_monolithic']}x, "
        f"cpu_count={cpu_count}), "
        f"mismatches={batch['distance_mismatches_vs_monolithic']}"
    )
    print(
        f"cache: warm round {cached['per_warm_round_seconds']:.3f}s "
        f"({cached['warm_speedup_vs_cold']}x vs cold), hit rate "
        f"{cached['cache_hit_rate']:.1%}"
    )
    return payload


if __name__ == "__main__":
    main()

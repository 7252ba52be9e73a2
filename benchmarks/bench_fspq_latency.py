"""Single-query FSPQ latency: flat (vectorised) kernel vs scalar reference.

Runs the same query workload through two ``FlowAwareEngine`` instances
sharing one FAHL index — one with ``kernel="flat"`` (quantised label-arena
gather, lazy-Yen spur kernel) and one with ``kernel="scalar"`` (the
reference Yen path iterator, kept as exactness reference); both share
one candidate collector and one vectorised scorer.  Every pair of answers
is compared for full ``FSPResult`` equality, and per-query latencies are
recorded with :class:`repro.obs.LatencyRecorder` so the JSON carries
exact p50/p95/p99.

The numbers land in ``BENCH_fspq_latency.json`` (repo root by default).
``--tiny`` shrinks the workload for CI smoke runs, and ``--check BASELINE``
turns the script into a regression gate: it exits non-zero when the flat
and scalar kernels disagree on any query, or when the measured flat/scalar
p50 speedup drops below half the baseline's (a ratio gate, robust to slow
CI machines).

Run directly::

    PYTHONPATH=src python benchmarks/bench_fspq_latency.py
    PYTHONPATH=src python benchmarks/bench_fspq_latency.py \
        --tiny --check BENCH_fspq_latency_tiny.json
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

try:
    from benchmarks._env import env_info
except ModuleNotFoundError:  # run as a script: benchmarks/ is sys.path[0]
    from _env import env_info
from repro import obs
from repro.core.fahl import build_fahl
from repro.core.fpsps import PRUNING_MODES, FlowAwareEngine
from repro.core.fspq import FSPQuery
from repro.errors import QueryError
from repro.workloads.datasets import load_dataset

_REPO_ROOT = Path(__file__).resolve().parent.parent


def make_queries(frn, num_queries: int, rng) -> list[FSPQuery]:
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


def _timed_answers(engine: FlowAwareEngine, queries, recorder) -> list:
    """Answer every query, recording per-query wall time; None on QueryError."""
    answers = []
    for query in queries:
        start = time.perf_counter()
        try:
            result = engine.query(query)
        except QueryError:
            result = None
        recorder.observe(time.perf_counter() - start)
        answers.append(result)
    return answers


def bench_mode(frn, index, queries, pruning: str, max_candidates: int) -> dict:
    """Flat vs scalar engines on a shared index, full-result comparison."""
    engines = {
        kernel: FlowAwareEngine(
            frn,
            oracle=index,
            pruning=pruning,
            kernel=kernel,
            max_candidates=max_candidates,
        )
        for kernel in ("flat", "scalar")
    }
    # Warm both engines on one query so one-off setup (the flat kernel's
    # adjacency/arena build, the scalar oracle's caches) stays out of the
    # per-query percentiles, exactly like a long-lived server.
    for engine in engines.values():
        try:
            engine.query(queries[0])
        except QueryError:
            pass

    recorders = {kernel: obs.LatencyRecorder() for kernel in engines}
    answers = {
        kernel: _timed_answers(engines[kernel], queries, recorders[kernel])
        for kernel in engines
    }
    mismatches = sum(
        1 for flat, ref in zip(answers["flat"], answers["scalar"])
        if flat != ref
    )
    flat = recorders["flat"].summary()
    scalar = recorders["scalar"].summary()
    return {
        "pruning": pruning,
        "queries": len(queries),
        "mismatches": mismatches,
        "flat": {k: round(v, 9) if isinstance(v, float) else v
                 for k, v in flat.items()},
        "scalar": {k: round(v, 9) if isinstance(v, float) else v
                   for k, v in scalar.items()},
        "speedup_p50": round(scalar["p50"] / flat["p50"], 3),
        "speedup_p99": round(scalar["p99"] / flat["p99"], 3),
        "speedup_mean": round(scalar["mean"] / flat["mean"], 3),
    }


def check_against_baseline(payload: dict, baseline_path: Path) -> list[str]:
    """Regression gate: exact parity, and p50 speedup >= baseline/2."""
    problems: list[str] = []
    baseline = json.loads(baseline_path.read_text())
    baseline_modes = {m["pruning"]: m for m in baseline.get("modes", [])}
    for mode in payload["modes"]:
        name = mode["pruning"]
        if mode["mismatches"]:
            problems.append(
                f"{name}: {mode['mismatches']} flat/scalar mismatches"
            )
        reference = baseline_modes.get(name)
        if reference is None:
            continue
        floor = reference["speedup_p50"] / 2.0
        if mode["speedup_p50"] < floor:
            problems.append(
                f"{name}: p50 speedup {mode['speedup_p50']}x fell below "
                f"{floor:.2f}x (half the committed baseline "
                f"{reference['speedup_p50']}x)"
            )
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dataset", default="NYC")
    parser.add_argument("--scale", type=float, default=0.35)
    parser.add_argument("--days", type=int, default=2)
    parser.add_argument("--queries", type=int, default=120)
    parser.add_argument("--candidates", type=int, default=64,
                        help="candidate-path budget per query (64 is the "
                             "engine default; experiments use 12)")
    parser.add_argument("--modes", default=",".join(PRUNING_MODES),
                        help="comma-separated pruning modes to benchmark")
    parser.add_argument("--dimacs", metavar="PATH", default=None,
                        help="benchmark a real DIMACS .gr file instead of "
                             "the synthetic dataset")
    parser.add_argument("--tiny", action="store_true",
                        help="CI smoke preset: small graph, few queries")
    parser.add_argument("--check", metavar="BASELINE_JSON", default=None,
                        help="exit non-zero on any flat/scalar mismatch or "
                             "a >2x p50-speedup regression vs this baseline")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--out", default=str(_REPO_ROOT / "BENCH_fspq_latency.json")
    )
    args = parser.parse_args(argv)
    if args.tiny:
        args.scale = 0.12
        args.queries = min(args.queries, 40)

    if args.dimacs:
        dataset = load_dataset(f"dimacs:{args.dimacs}", days=args.days,
                               seed=args.seed)
    else:
        dataset = load_dataset(args.dataset, scale=args.scale,
                               days=args.days, seed=args.seed)
    frn = dataset.frn
    start = time.perf_counter()
    index = build_fahl(frn)
    build_seconds = time.perf_counter() - start
    rng = np.random.default_rng(args.seed)
    queries = make_queries(frn, args.queries, rng)

    modes = [m.strip() for m in args.modes.split(",") if m.strip()]
    payload = {
        "generated_unix": int(time.time()),
        "machine": env_info(),
        "dataset": {
            "label": dataset.name if args.dimacs else f"{args.dataset}-S",
            "name": dataset.name,
            "scale": None if args.dimacs else args.scale,
            "vertices": frn.num_vertices,
            "edges": frn.num_edges,
            "index_build_seconds": round(build_seconds, 4),
            "arena_quantized": bool(index.arena().quantized),
        },
        "workload": {
            "queries": args.queries,
            "max_candidates": args.candidates,
            "seed": args.seed,
            "tiny": bool(args.tiny),
        },
        "modes": [
            bench_mode(frn, index, queries, mode, args.candidates)
            for mode in modes
        ],
    }
    Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")

    print(f"wrote {args.out}")
    for mode in payload["modes"]:
        print(
            f"{mode['pruning']:>8}: scalar p50 "
            f"{mode['scalar']['p50'] * 1000:.3f}ms, flat p50 "
            f"{mode['flat']['p50'] * 1000:.3f}ms "
            f"({mode['speedup_p50']}x; p99 {mode['speedup_p99']}x), "
            f"mismatches={mode['mismatches']}"
        )

    if args.check:
        problems = check_against_baseline(payload, Path(args.check))
        for problem in problems:
            print(f"check: {problem}", file=sys.stderr)
        if problems:
            return 1
        print(f"check: ok against {args.check}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

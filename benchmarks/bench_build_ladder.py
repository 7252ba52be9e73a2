"""Build-size ladder: FAHL index construction cost against graph size.

Builds the FAHL index (β = 0.5, predicted flows) on the NYC dataset at
×1/×2/×4/×8/×16; ×16 has about 30k vertices, the size of BRN, the paper's
smallest network.  Per rung it records:

* the elimination game's CPU seconds and the whole build's, each the
  median of ``--repeat`` runs (``time.process_time``);
* the index size (``index_size_bytes``) and the largest bag;
* the dense core the elimination finished on: its vertex count k (the
  ``repro_build_dense_core_vertices`` gauge, 0 when no bag got large
  enough) and the MB of its k×k matrices;
* ``HierarchyIndex.checksum()``, so runs on two commits can be diffed rung
  by rung: equal checksums mean identical order, labels and vias;
* the query side's one-to-all heuristic table: CPU ms per target for
  64 seeded targets, one ``distances_to`` call each (k = 1) and two
  ``distances_to_many`` sweeps of 32 (k = 32), each the median of
  ``--repeat`` runs, with every swept row asserted bit-identical to its
  single table.  The sweep plan is built before the timing, and after
  ``index_mb`` is read.  Commits without ``distances_to_many`` report
  ``null`` for k = 32;
* the sweep plan: the label entries one sweep column reads
  (``sweep_cells``) beside the sum of bag sizes (``bag_cells``), and the
  CPU ms of one ``SweepPlan`` build, the median of ``PLAN_BUILDS``.
  Commits whose plan has no ``cells`` count their padded level matrices;
* the label arena's size, sweep plan included (``index.arena().nbytes``),
  read after the table columns, the resident MB of the index with arena
  and plan built (``resident_mb``, ``index_size_bytes`` then) and the
  dtype of the labels the arena reads (``label_dtype``);
* at ×4, ×8 and ×16 (``QUERY_SCALES``), FAHL-W query CPU ms p50/p99 over
  ``QUERY_PAIRS`` seeded random pairs at random departure steps, one
  ``FlowAwareEngine.query`` each (Lemma-4 pruning, the experiment
  runner's default α, η_u and candidate budget), after one warm-up
  query; ``null`` on the other rungs.

Results go to ``BENCH_build_ladder.json`` in the shared
``{bench, env, config, results}`` layout.

Run directly::

    PYTHONPATH=src python benchmarks/bench_build_ladder.py
    PYTHONPATH=src python benchmarks/bench_build_ladder.py --scales 1 2 --repeat 1
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

import numpy as np

try:
    from benchmarks._env import env_info
except ModuleNotFoundError:  # run as a script: benchmarks/ is sys.path[0]
    from _env import env_info
from repro import obs
from repro.core.fahl import FAHLIndex
from repro.core.fpsps import FlowAwareEngine
from repro.core.fspq import FSPQuery
from repro.experiments.runner import ExperimentConfig
from repro.labeling.arena import SweepPlan
from repro.treedec.elimination import eliminate
from repro.treedec.ordering import degree_flow_importance
from repro.workloads.datasets import load_dataset

_REPO_ROOT = Path(__file__).resolve().parent.parent
_DENSE_GAUGE = "repro_build_dense_core_vertices"
# bytes per dense-core cell (float64 weight, int32 middle, int32 stamp);
# spelled out rather than imported so the script also runs on commits
# that predate the dense phase (they report k = 0)
_CELL_BYTES = 16
BETA = 0.5
#: heuristic tables timed per rung, swept SWEEP_K at a time
TABLE_TARGETS = 64
SWEEP_K = 32
#: sweep plans built per rung for the plan_build_ms median
PLAN_BUILDS = 9
#: rungs that time FAHL-W queries, and the random pairs timed on each
QUERY_SCALES = (4.0, 8.0, 16.0)
QUERY_PAIRS = 100


def _cpu(fn):
    start = time.process_time()
    result = fn()
    return time.process_time() - start, result


def table_ms(index, repeat: int, seed: int) -> tuple[float, float | None]:
    """Median CPU ms per one-to-all table at k = 1 and at k = ``SWEEP_K``."""
    n = index.graph.num_vertices
    targets = np.random.default_rng(seed).choice(
        n, size=min(TABLE_TARGETS, n), replace=False
    )
    index.distances_to(int(targets[0]))  # the sweep plan, outside the timing
    many = getattr(index, "distances_to_many", None)
    single_s: list[float] = []
    many_s: list[float] = []
    for _ in range(repeat):
        seconds, rows = _cpu(lambda: [index.distances_to(int(t)) for t in targets])
        single_s.append(seconds)
        if many is None:
            continue
        seconds, blocks = _cpu(lambda: [
            many(targets[i:i + SWEEP_K]) for i in range(0, len(targets), SWEEP_K)
        ])
        many_s.append(seconds)
        swept = np.concatenate(blocks)
        if not np.array_equal(swept.view(np.int64), np.asarray(rows).view(np.int64)):
            raise RuntimeError("a swept table differs from its single table")
    per_target = 1e3 / len(targets)
    return (
        statistics.median(single_s) * per_target,
        statistics.median(many_s) * per_target if many_s else None,
    )


def plan_stats(index) -> tuple[int, int, float]:
    """Sweep cells, bag cells and the median CPU ms of one plan build."""
    arena = index.arena()
    plan = arena.sweep_plan(index)
    cells = getattr(plan, "cells", None)
    if cells is None:  # one padded (width, count) matrix pair per level
        cells = sum(level[3].size for level in plan.levels)
    bag_cells = sum(len(keys) for keys in index.bag_keys)
    build_s = [_cpu(lambda: SweepPlan(arena, index))[0] for _ in range(PLAN_BUILDS)]
    return cells, bag_cells, statistics.median(build_s) * 1e3


def query_ms(frn, index, seed: int) -> tuple[float, float]:
    """CPU ms p50 and p99 of FAHL-W queries on ``QUERY_PAIRS`` random pairs."""
    config = ExperimentConfig()
    engine = FlowAwareEngine(
        frn,
        oracle=index,
        alpha=config.alpha,
        eta_u=config.eta_u,
        pruning="lemma4",
        max_candidates=config.max_candidates,
    )
    rng = np.random.default_rng(seed)
    n = frn.num_vertices
    queries = []
    while len(queries) < QUERY_PAIRS + 1:
        source, target = (int(v) for v in rng.integers(0, n, size=2))
        if source != target:
            queries.append(
                FSPQuery(source, target, int(rng.integers(frn.num_timesteps)))
            )
    engine.query(queries[0])  # kernel, arena and plan, outside the timing
    times = [_cpu(lambda: engine.query(q))[0] * 1e3 for q in queries[1:]]
    p50, p99 = np.percentile(times, [50, 99])
    return float(p50), float(p99)


def rung(scale: float, repeat: int, seed: int) -> dict:
    frn = load_dataset("NYC", scale=scale, seed=seed).frn
    graph = frn.graph
    elimination_s: list[float] = []
    build_s: list[float] = []
    registry = obs.MetricsRegistry(enabled=True)
    for _ in range(repeat):
        # the game alone, with no index alive, as it runs inside a build
        index = None
        importance = degree_flow_importance(
            graph, frn.total_predicted_flow(), beta=BETA
        )
        with obs.capture_registry(registry):
            seconds, _ = _cpu(lambda: eliminate(graph, importance))
        elimination_s.append(seconds)
        seconds, index = _cpu(lambda: FAHLIndex.from_frn(frn, beta=BETA))
        build_s.append(seconds)
    dense_k = int(registry.gauge(_DENSE_GAUGE).value())
    index_mb = index.index_size_bytes() / 1e6
    table_k1_ms, table_k32_ms = table_ms(index, repeat, seed)
    sweep_cells, bag_cells, plan_build_ms = plan_stats(index)
    arena = index.arena()
    arena_mb = arena.nbytes / 1e6
    resident_mb = index.index_size_bytes() / 1e6
    query_p50, query_p99 = (
        query_ms(frn, index, seed) if scale in QUERY_SCALES else (None, None)
    )
    return {
        "scale": scale,
        "num_vertices": graph.num_vertices,
        "num_edges": graph.num_edges,
        "elimination_cpu_s": statistics.median(elimination_s),
        "build_cpu_s": statistics.median(build_s),
        "index_mb": index_mb,
        "max_bag": index.elim.treewidth,
        "dense_core_vertices": dense_k,
        "dense_matrix_mb": _CELL_BYTES * dense_k * dense_k / 1e6,
        "checksum": index.checksum(),
        "table_k1_ms_per_target": table_k1_ms,
        "table_k32_ms_per_target": table_k32_ms,
        "sweep_cells": sweep_cells,
        "bag_cells": bag_cells,
        "plan_build_ms": plan_build_ms,
        "arena_mb": arena_mb,
        "resident_mb": resident_mb,
        "label_dtype": str(arena.label_values.dtype),
        "query_cpu_ms_p50": query_p50,
        "query_cpu_ms_p99": query_p99,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scales", type=float, nargs="+",
                        default=[1.0, 2.0, 4.0, 8.0, 16.0])
    parser.add_argument("--repeat", type=int, default=3,
                        help="builds per rung; CPU times are their median")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", type=Path,
                        default=_REPO_ROOT / "BENCH_build_ladder.json")
    args = parser.parse_args()

    results = []
    for scale in args.scales:
        row = rung(scale, args.repeat, args.seed)
        results.append(row)
        print(
            f"NYC x{scale:g}: n={row['num_vertices']} "
            f"elim {row['elimination_cpu_s']:.2f}s build {row['build_cpu_s']:.2f}s "
            f"index {row['index_mb']:.1f} MB max bag {row['max_bag']} "
            f"dense k={row['dense_core_vertices']} "
            f"({row['dense_matrix_mb']:.1f} MB) {row['checksum']} "
            f"table {row['table_k1_ms_per_target']:.2f} ms/target at k=1, "
            f"{row['table_k32_ms_per_target'] or float('nan'):.2f} at k={SWEEP_K}, "
            f"plan {row['sweep_cells']} cells for {row['bag_cells']} bag cells "
            f"in {row['plan_build_ms']:.1f} ms, arena {row['arena_mb']:.1f} MB, "
            f"resident {row['resident_mb']:.1f} MB ({row['label_dtype']} labels)"
            + (
                f", FAHL-W query p50 {row['query_cpu_ms_p50']:.1f} ms "
                f"p99 {row['query_cpu_ms_p99']:.1f} ms"
                if row["query_cpu_ms_p50"] is not None else ""
            ),
            flush=True,
        )
    payload = {
        "bench": "build_ladder",
        "env": env_info(),
        "config": {
            "dataset": "NYC",
            "scales": args.scales,
            "seed": args.seed,
            "beta": BETA,
            "repeat": args.repeat,
            "timer": "time.process_time",
            "table_targets": TABLE_TARGETS,
            "sweep_k": SWEEP_K,
            "plan_builds": PLAN_BUILDS,
            "query_scales": list(QUERY_SCALES),
            "query_pairs": QUERY_PAIRS,
        },
        "results": results,
    }
    args.out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

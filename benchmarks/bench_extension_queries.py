"""Benchmarks for the extension query types: skyline, constrained, batch."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.batch import batch_query
from repro.core.constrained import ConstrainedFlowAwareEngine, QueryConstraints
from repro.core.fahl import FAHLIndex
from repro.core.fpsps import FlowAwareEngine
from repro.core.fspq import FSPQuery
from repro.core.skyline import skyline_paths
from repro.workloads.queries import flatten_groups


@pytest.fixture(scope="module")
def fahl_setup(brn_dataset):
    frn = brn_dataset.frn
    index = FAHLIndex.from_frn(frn, beta=0.5)
    return frn, index


def test_skyline_query(benchmark, fahl_setup, brn_queries):
    frn, index = fahl_setup
    queries = flatten_groups(brn_queries)[:4]

    def run_skylines():
        sizes = 0
        for query in queries:
            spdis = index.distance(query.source, query.target)
            result = skyline_paths(
                frn, query.source, query.target, query.timestep,
                max_distance=1.5 * spdis, max_labels_per_vertex=16,
            )
            sizes += len(result)
        return sizes

    sizes = benchmark.pedantic(run_skylines, rounds=2, iterations=1)
    benchmark.extra_info["total_skyline_paths"] = sizes


def test_constrained_query(benchmark, fahl_setup, brn_queries):
    frn, index = fahl_setup
    engine = ConstrainedFlowAwareEngine(frn, oracle=index, alpha=0.5,
                                        eta_u=3.0, max_candidates=8)
    queries = flatten_groups(brn_queries)[:6]
    rng = np.random.default_rng(0)
    constraints = [
        QueryConstraints(
            forbidden_vertices=frozenset(
                int(v)
                for v in rng.choice(frn.num_vertices, 2, replace=False)
                if v not in (q.source, q.target)
            )
        )
        for q in queries
    ]

    def run_constrained():
        from repro.core.constrained import ConstraintError

        answered = 0
        for query, constraint in zip(queries, constraints):
            try:
                engine.query_constrained(query, constraint)
                answered += 1
            except ConstraintError:
                pass
        return answered

    answered = benchmark.pedantic(run_constrained, rounds=2, iterations=1)
    benchmark.extra_info["answered"] = answered


def test_batch_vs_sequential(benchmark, fahl_setup, brn_queries):
    frn, index = fahl_setup
    engine = FlowAwareEngine(frn, oracle=index, alpha=0.5, eta_u=3.0,
                             max_candidates=8)
    base = flatten_groups(brn_queries)
    # many sources converging on few targets: the target-grouped sweet spot
    targets = sorted({q.target for q in base})[:2]
    queries = [
        FSPQuery(q.source, targets[i % len(targets)], q.timestep)
        for i, q in enumerate(base)
        if q.source not in targets
    ]

    benchmark.pedantic(
        lambda: batch_query(engine, queries), rounds=2, iterations=1
    )
    benchmark.extra_info["queries"] = len(queries)

"""Unit tests for the batch query session and fork pool."""

from __future__ import annotations

import pytest

import repro.core.batch as batch_module
from repro.core.batch import batch_query
from repro.core.fahl import build_fahl
from repro.core.fpsps import FlowAwareEngine
from repro.core.fspq import FSPQuery
from repro.errors import QueryError
from repro.labeling.hierarchy import HierarchyIndex


def make_queries(frn, rng, count, num_targets=None):
    """A seeded workload; ``num_targets`` restricts the target pool."""
    n = frn.num_vertices
    targets = (
        rng.choice(n, size=num_targets, replace=False) if num_targets else None
    )
    queries = []
    while len(queries) < count:
        s = int(rng.integers(0, n))
        t = int(rng.choice(targets)) if targets is not None else int(rng.integers(0, n))
        if s != t:
            queries.append(FSPQuery(s, t, int(rng.integers(frn.num_timesteps))))
    return queries


@pytest.fixture()
def engine(small_frn):
    index = build_fahl(small_frn)
    return FlowAwareEngine(small_frn, oracle=index, alpha=0.5, eta_u=3.0,
                           max_candidates=8)


class TestBatchQuery:
    def test_results_match_sequential(self, engine, small_frn, rng):
        n = small_frn.num_vertices
        queries = []
        while len(queries) < 12:
            s, t = map(int, rng.integers(0, n, 2))
            if s != t:
                queries.append(FSPQuery(s, t, int(rng.integers(48))))
        sequential = [engine.query(q) for q in queries]
        batched = batch_query(engine, queries)
        assert len(batched) == len(queries)
        for seq, bat in zip(sequential, batched):
            assert bat.path == seq.path
            assert bat.score == pytest.approx(seq.score)

    def test_restores_engine_oracle(self, engine):
        original = engine.oracle
        batch_query(engine, [FSPQuery(0, 5, 0)])
        assert engine.oracle is original

    def test_empty_batch(self, engine):
        assert batch_query(engine, []) == []

    def test_shared_targets_hit_cache(self, engine, small_frn, rng):
        # queries sharing a target reuse the flat kernel's per-target
        # heuristic table: one arena gather serves the whole group
        n = small_frn.num_vertices
        target = n - 1
        queries = [
            FSPQuery(int(s), target, 0)
            for s in rng.choice(n - 1, size=6, replace=False)
        ]
        kern = engine._flat_kernel()
        before = dict(kern.stats)
        batch_query(engine, queries)
        assert engine._flat_kernel() is kern
        assert kern.stats["astar_runs"] > before["astar_runs"]
        assert kern.stats["heuristic_builds"] == before["heuristic_builds"] + 1

    def test_flat_kernel_survives_batch_wrapper(
        self, engine, small_frn, rng, monkeypatch
    ):
        # every batched query runs on the flat kernel, which reads the
        # label arena directly: its spur counters move and the index's
        # scalar distance is never called
        queries = make_queries(small_frn, rng, 8, num_targets=3)
        assert engine.kernel == "flat"
        with engine.kernel_override("scalar"):
            expected = [engine.query(q) for q in queries]
        kern = engine._flat_kernel()
        before = dict(kern.stats)

        def forbidden(self, u, v):
            raise AssertionError("batch fell back to HierarchyIndex.distance")

        monkeypatch.setattr(HierarchyIndex, "distance", forbidden)
        results = batch_query(engine, queries)
        assert results == expected  # frozen dataclasses: exact equality
        assert engine._flat_kernel() is kern
        assert kern.stats["astar_runs"] > before["astar_runs"]
        assert kern.stats["heuristic_builds"] > before["heuristic_builds"]


class TestParallelBatchQuery:
    """workers > 1 must be transparent: same results, graceful fallback."""

    def test_workers_bit_identical_to_serial(self, engine, small_frn, rng):
        queries = make_queries(small_frn, rng, 20, num_targets=6)
        serial = batch_query(engine, queries)
        parallel = batch_query(engine, queries, workers=2)
        assert parallel == serial  # frozen dataclasses: exact field equality

    def test_restores_engine_oracle(self, engine, small_frn, rng):
        queries = make_queries(small_frn, rng, 6)
        original = engine.oracle
        batch_query(engine, queries, workers=2)
        assert engine.oracle is original

    def test_fallback_when_fork_unavailable(
        self, engine, small_frn, rng, monkeypatch
    ):
        monkeypatch.setattr(batch_module, "_fork_context", lambda: None)
        queries = make_queries(small_frn, rng, 8)
        serial = batch_query(engine, queries)
        fallback = batch_query(engine, queries, workers=4)
        assert fallback == serial

    def test_fallback_when_pool_cannot_start(
        self, engine, small_frn, rng, monkeypatch
    ):
        class BrokenContext:
            def Pool(self, *args, **kwargs):
                raise OSError("fork failed")

        monkeypatch.setattr(batch_module, "_fork_context", BrokenContext)
        queries = make_queries(small_frn, rng, 8)
        serial = batch_query(engine, queries)
        fallback = batch_query(engine, queries, workers=4)
        assert fallback == serial

    def test_invalid_workers_rejected(self, engine):
        with pytest.raises(QueryError):
            batch_query(engine, [FSPQuery(0, 5, 0)], workers=0)

    def test_query_errors_propagate(self, small_frn, rng):
        # alpha guard makes the engine itself valid but the query invalid
        engine = FlowAwareEngine(small_frn, oracle=build_fahl(small_frn))
        bad = [FSPQuery(0, small_frn.num_vertices + 7, 0)] * 4
        with pytest.raises(QueryError):
            batch_query(engine, bad, workers=2)

    def test_single_query_stays_serial(self, engine):
        # one query never pays for a pool; result matches the direct call
        direct = engine.query(FSPQuery(0, 5, 0))
        assert batch_query(engine, [FSPQuery(0, 5, 0)], workers=4) == [direct]

    def test_oracle_free_engine(self, small_frn, rng):
        engine = FlowAwareEngine(small_frn, oracle=None, max_candidates=4)
        queries = make_queries(small_frn, rng, 4, num_targets=2)
        serial = batch_query(engine, queries)
        parallel = batch_query(engine, queries, workers=2)
        assert parallel == serial

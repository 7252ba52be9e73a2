"""Unit tests for the batch query session and fork pool."""

from __future__ import annotations

import os

import numpy as np
import pytest

import repro.core.batch as batch_module
from repro.core.batch import BatchReport, batch_query, set_worker_fault_hook
from repro.core.fahl import build_fahl
from repro.core.flatq import FlatQueryKernel
from repro.core.fpsps import FlowAwareEngine
from repro.core.fspq import FSPQuery
from repro.errors import QueryError
from repro.flow.series import FlowSeries
from repro.flow.synthetic import generate_flow_series
from repro.graph.frn import FlowAwareRoadNetwork
from repro.graph.road_network import RoadNetwork
from repro.labeling.arena import LabelArena, SweepPlan
from repro.labeling.hierarchy import HierarchyIndex
from repro.serving import ResilientEngine, WeightUpdate


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


@pytest.fixture()
def medium_frn(medium_grid):
    return FlowAwareRoadNetwork(
        medium_grid, generate_flow_series(medium_grid, days=1, seed=5)
    )


@pytest.fixture()
def sweep_log(tmp_path, monkeypatch):
    """Records every heuristic-table build, also in forked pool workers.

    Each ``distances_to_many`` call appends its target count and each
    single ``distances_to`` call appends ``single``, one line per call, to
    a file the parent reads back.
    """
    log = tmp_path / "sweeps.log"
    log.touch()
    many = HierarchyIndex.distances_to_many
    single = HierarchyIndex.distances_to

    def counted_many(self, targets):
        with open(log, "a") as fh:
            fh.write(f"{len(targets)}\n")
        return many(self, targets)

    def counted_single(self, target):
        with open(log, "a") as fh:
            fh.write("single\n")
        return single(self, target)

    monkeypatch.setattr(HierarchyIndex, "distances_to_many", counted_many)
    monkeypatch.setattr(HierarchyIndex, "distances_to", counted_single)
    return lambda: log.read_text().split()


def distinct_target_queries(frn, rng, count):
    n = frn.num_vertices
    targets = rng.choice(n, size=count, replace=False)
    queries = []
    for t in targets:
        s = int(rng.integers(0, n - 1))
        queries.append(FSPQuery(s + (s >= t), int(t), int(rng.integers(24))))
    return queries


class TestMultiTargetSweep:
    """A batch slice of up to 32 distinct targets shares one bag sweep."""

    def test_serial_batch_sweeps_once_per_slice(self, medium_frn, rng, sweep_log):
        queries = distinct_target_queries(medium_frn, rng, 40)
        engine = FlowAwareEngine(medium_frn, oracle=build_fahl(medium_frn),
                                 max_candidates=8)
        loop = [engine.query(q) for q in queries]
        engine.invalidate()
        kern = engine._flat_kernel()
        before = kern.stats["heuristic_builds"]
        start = len(sweep_log())
        results = batch_query(engine, queries)
        assert results == loop  # frozen dataclasses: exact equality
        built = sweep_log()[start:]
        assert built == ["32", "8"]  # ceil(40 / 32) sweeps, no single tables
        assert engine._flat_kernel() is kern  # invalidate() kept the rows
        assert kern.stats["heuristic_builds"] - before == 40
        assert not kern._pending

    def test_pool_batch_sweeps_every_table(self, medium_frn, rng, sweep_log):
        queries = distinct_target_queries(medium_frn, rng, 40)
        engine = FlowAwareEngine(medium_frn, oracle=build_fahl(medium_frn),
                                 max_candidates=8)
        loop = [engine.query(q) for q in queries]
        engine.invalidate()
        start = len(sweep_log())
        assert batch_query(engine, queries, workers=2) == loop
        built = sweep_log()[start:]
        # each pool chunk sweeps its own targets; none is built alone
        assert "single" not in built
        assert sum(map(int, built)) == 40

    def test_serving_batch_over_empty_overlay_sweeps_once_per_slice(
        self, medium_frn, rng, sweep_log
    ):
        # fleet_batch's path: the kernel behind ResilientEngine.batch reads
        # its tables through the OverlayOracle, which hands a slice's
        # targets to the index's multi-target sweep while it is empty
        serving = ResilientEngine(medium_frn, overlay_capacity=64)
        queries = distinct_target_queries(medium_frn, rng, 40)
        loop = [serving.query(q) for q in queries]
        serving.invalidate()
        start = len(sweep_log())
        assert serving.batch(queries) == loop
        assert sweep_log()[start:] == ["32", "8"]

    def test_non_empty_overlay_sweeps_nothing(self, medium_frn, rng, sweep_log):
        serving = ResilientEngine(medium_frn, overlay_capacity=64)
        u, v, w = next(iter(medium_frn.graph.edges()))
        assert serving.submit(WeightUpdate(u, v, w * 3, timestamp=1.0)).applied
        queries = distinct_target_queries(medium_frn, rng, 40)
        start = len(sweep_log())
        flat = serving.batch(queries)
        assert sweep_log()[start:] == []
        assert flat == serving.batch(queries, kernel="scalar")

    def test_bad_requests_raise_what_they_raise_alone(self, medium_frn, rng):
        engine = FlowAwareEngine(medium_frn, oracle=build_fahl(medium_frn),
                                 max_candidates=8)
        good = distinct_target_queries(medium_frn, rng, 12)
        n = medium_frn.num_vertices
        for bad in (
            FSPQuery(0, n + 7, 0),
            FSPQuery(-1, 3, 0),
            FSPQuery(0, 3, medium_frn.num_timesteps),
        ):
            with pytest.raises(QueryError) as alone:
                engine.query(bad)
            with pytest.raises(QueryError) as batched:
                batch_query(engine, good + [bad])
            assert type(batched.value) is type(alone.value)
            assert str(batched.value) == str(alone.value)

    def test_disconnected_request_raises_what_it_raises_alone(self):
        graph = RoadNetwork(4, edges=[(0, 1, 1.0), (2, 3, 1.0)])
        frn = FlowAwareRoadNetwork(graph, FlowSeries(np.ones((1, 4))))
        engine = FlowAwareEngine(frn)  # index-free: no connectivity demand
        bad = FSPQuery(0, 3, 0)
        with pytest.raises(QueryError) as alone:
            engine.query(bad)
        with pytest.raises(QueryError) as batched:
            batch_query(engine, [FSPQuery(0, 1, 0), bad, FSPQuery(2, 3, 0)])
        assert str(batched.value) == str(alone.value)

    def test_slices_follow_distinct_targets(self, monkeypatch):
        calls = []

        class Kernel:
            def prefetch(self, targets):
                calls.append(sorted(set(targets)))

        class Engine:
            frn = FlowAwareRoadNetwork(
                RoadNetwork(80, edges=[(i, i + 1, 1.0) for i in range(79)]),
                FlowSeries(np.ones((1, 80))),
            )

            def _flat_kernel(self):
                return Kernel()

            def query(self, query):
                return query.target

        # 70 distinct targets, each asked twice, plus a self-query, which
        # never reads a table
        queries = [FSPQuery(0, t, 0) for t in range(1, 71) for _ in range(2)]
        queries += [FSPQuery(75, 75, 0)]
        indexed = sorted(enumerate(queries), key=lambda p: p[1].target)
        pairs = batch_module._evaluate_chunk(Engine(), indexed)
        assert [r for _, r in pairs] == [q.target for _, q in indexed]
        assert calls == [list(range(1, 33)), list(range(33, 65)),
                         list(range(65, 71))]


@pytest.fixture()
def build_log(tmp_path, monkeypatch):
    """Records every kernel, arena and sweep-plan construction, with its pid.

    One ``<class> <pid>`` line per construction goes to a file the parent
    reads back, so constructions in forked pool workers count too.
    """
    log = tmp_path / "builds.log"
    log.touch()

    def logged(cls):
        init = cls.__init__

        def counted(self, *args, **kwargs):
            with open(log, "a") as fh:
                fh.write(f"{cls.__name__} {os.getpid()}\n")
            init(self, *args, **kwargs)

        return counted

    for cls in (FlatQueryKernel, LabelArena, SweepPlan):
        monkeypatch.setattr(cls, "__init__", logged(cls))
    return lambda: [tuple(line.split()) for line in log.read_text().splitlines()]


def _require_warm_worker(positions: list[int]) -> None:
    """Worker fault hook: fail the chunk unless the worker started warm."""
    engine = batch_module._WORKER_ENGINE
    index = engine.oracle
    kern = engine._flat_kernel_cache
    arena = index._arena
    if (
        kern is None
        or arena is None
        or arena.version != index.label_version
        or arena._plan is None
    ):
        raise RuntimeError(f"chunk {positions[:1]} started in a cold worker")


class TestWarmBeforeFork:
    """The parent builds the query-side state once; queries build none."""

    def test_pool_workers_inherit_the_warm_state(
        self, medium_frn, rng, build_log
    ):
        index = build_fahl(medium_frn)
        engine = FlowAwareEngine(medium_frn, oracle=index, max_candidates=8)
        assert index._arena is None  # cold until the first batch
        start = len(build_log())
        batches = [distinct_target_queries(medium_frn, rng, 40) for _ in range(2)]
        answers = []
        set_worker_fault_hook(_require_warm_worker)
        try:
            for queries in batches:
                report = BatchReport()
                answers.append(batch_query(engine, queries, workers=2, report=report))
                assert report.mode == "parallel"
                assert report.recovered_chunks == 0
        finally:
            set_worker_fault_hook(None)
        built = build_log()[start:]
        parent = str(os.getpid())
        assert [name for name, pid in built if pid != parent] == []
        # the first batch primes the parent once; the second reuses it
        assert sorted(name for name, _ in built) == [
            "FlatQueryKernel", "LabelArena", "SweepPlan",
        ]
        assert answers == [[engine.query(q) for q in queries] for queries in batches]

    def test_first_query_after_consolidation_builds_nothing(
        self, medium_frn, rng, build_log
    ):
        serving = ResilientEngine(medium_frn, overlay_capacity=64)
        u, v, w = next(iter(medium_frn.graph.edges()))
        assert serving.submit(WeightUpdate(u, v, w * 3, timestamp=1.0)).applied
        assert serving.consolidate() == "done"
        assert serving.status().overlay_edges == 0
        start = len(build_log())
        query = distinct_target_queries(medium_frn, rng, 1)[0]
        answer = serving.query(query).result
        assert build_log()[start:] == []
        assert answer == serving.batch([query], kernel="scalar")[0].result

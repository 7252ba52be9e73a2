"""Sharded gateway: partition invariants, exactness, cache, isolation."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro import FSPQuery, ShardedGateway, as_distance, build_fahl, obs
from repro.core.fpsps import FlowAwareEngine
from repro.flow.synthetic import generate_flow_series
from repro.graph.frn import FlowAwareRoadNetwork
from repro.graph.generators import grid_network
from repro.scale import BoundaryIndex, partition_network
from repro.scale import gateway as gateway_module
from repro.scale.cache import ResultCache
from repro.serving import FlowUpdate, WeightUpdate
from repro.baselines.dijkstra import dijkstra_distance, dijkstra_distances

from .boundary_oracle import assert_boundary_exact
from .strategies import connected_graphs


def _frn(graph, seed=4):
    return FlowAwareRoadNetwork(graph, generate_flow_series(graph, days=1, seed=seed))


@pytest.fixture()
def grid_frn():
    return _frn(grid_network(8, 8, seed=3))


@pytest.fixture()
def gateway(grid_frn):
    return ShardedGateway(grid_frn, num_shards=4, max_retries=0)


@pytest.fixture()
def registry():
    fresh = obs.MetricsRegistry(enabled=True)
    previous = obs.set_registry(fresh)
    try:
        yield fresh
    finally:
        obs.set_registry(previous)


def _intra_edge(gateway, shard):
    """Some edge with both ends in ``shard``."""
    plan = gateway.plan
    return next(
        (u, v, w) for u, v, w in gateway.frn.graph.edges()
        if plan.shard(u) == shard and plan.shard(v) == shard
    )


def _assert_rows_are_dijkstra(gateway):
    """Every shard's boundary rows equal a Dijkstra from each boundary vertex."""
    boundary = gateway.boundary
    for k, subgraph in enumerate(gateway._subgraphs):
        sources = boundary._local_boundary[k]
        rows = boundary._local[k]
        assert rows.shape == (len(sources), subgraph.num_vertices)
        for row, b in zip(rows, sources):
            assert np.array_equal(row, dijkstra_distances(subgraph, int(b))), (k, b)


def _degrade(gateway, shard):
    """Fail ``shard``'s audit with a corrupted label: it degrades alone."""
    engine = gateway.shards[shard]
    engine.index.labels[0][-1] = 1.0  # corrupt a self entry
    assert not engine.audit().ok


class TestPartition:
    def test_covers_every_vertex_exactly_once(self, grid_frn):
        plan = partition_network(grid_frn.graph, 4)
        seen = [v for members in plan.members for v in members]
        assert sorted(seen) == list(range(grid_frn.graph.num_vertices))
        for k, members in enumerate(plan.members):
            assert all(plan.shard(v) == k for v in members)

    def test_shards_are_connected(self, grid_frn):
        plan = partition_network(grid_frn.graph, 4)
        for members in plan.members:
            sub, _ = grid_frn.graph.subgraph(members)
            reached = {0}
            stack = [0]
            while stack:
                u = stack.pop()
                for w in sub.neighbors(u):
                    if w not in reached:
                        reached.add(w)
                        stack.append(w)
            assert len(reached) == sub.num_vertices

    def test_boundary_and_cut_edges_agree_with_graph(self, grid_frn):
        graph = grid_frn.graph
        plan = partition_network(graph, 4)
        cut = {
            (min(u, v), max(u, v))
            for u, v, _ in graph.edges()
            if plan.shard(u) != plan.shard(v)
        }
        assert {(min(u, v), max(u, v)) for u, v, _ in plan.cut_edges} == cut
        for k, members in enumerate(plan.members):
            expected = {
                v
                for v in members
                if any(plan.shard(w) != k for w in graph.neighbors(v))
            }
            assert set(plan.boundary[k]) == expected


class TestExactness:
    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_distances_bit_identical_to_monolithic(self, data):
        graph = data.draw(connected_graphs(min_vertices=8, max_vertices=20))
        frn = _frn(graph, seed=data.draw(st.integers(0, 5)))
        gateway = ShardedGateway(
            frn, num_shards=data.draw(st.integers(2, 3)), max_retries=0
        )
        mono = build_fahl(frn)
        n = graph.num_vertices
        for _ in range(8):
            u = data.draw(st.integers(0, n - 1))
            v = data.draw(st.integers(0, n - 1))
            # integer edge weights: float64 sums are exact, so == is fair
            assert as_distance(gateway.distance(u, v)) == mono.distance(u, v)

    def test_grid_distances_match_monolithic(self, gateway, grid_frn):
        mono = build_fahl(grid_frn)
        n = grid_frn.num_vertices
        for i in range(60):
            u, v = (5 * i) % n, (11 * i + 3) % n
            assert as_distance(gateway.distance(u, v)) == pytest.approx(
                mono.distance(u, v), abs=1e-9
            )

    def test_query_spdis_matches_monolithic_across_intervals(
        self, gateway, grid_frn
    ):
        mono = FlowAwareEngine(
            grid_frn, oracle=build_fahl(grid_frn),
            alpha=0.5, eta_u=3.0, pruning="none",
        )
        n, steps = grid_frn.num_vertices, grid_frn.num_timesteps
        for i in range(40):
            u, v = (7 * i + 1) % n, (13 * i + 5) % n
            if u == v:
                continue
            query = FSPQuery(u, v, i % steps)
            got = gateway.query(query).result
            want = mono.query(query)
            assert got.shortest_distance == pytest.approx(
                want.shortest_distance, abs=1e-9
            )

    def test_batch_matches_serial_queries(self, gateway, grid_frn):
        n, steps = grid_frn.num_vertices, grid_frn.num_timesteps
        queries = [
            FSPQuery((3 * i) % n, (7 * i + 5) % n, i % steps)
            for i in range(24)
            if (3 * i) % n != (7 * i + 5) % n
        ]
        serial = [gateway.query(q) for q in queries]
        gateway.invalidate()  # drop the cache so batch recomputes
        batched = gateway.batch(queries, workers=2)
        for got, want in zip(batched, serial):
            assert got.result.shortest_distance == pytest.approx(
                want.result.shortest_distance, abs=1e-9
            )


class TestResultCache:
    def test_repeated_query_hits(self, gateway, grid_frn):
        query = FSPQuery(0, grid_frn.num_vertices - 1, 2)
        first = gateway.query(query)
        second = gateway.query(query)
        assert second.result is first.result
        stats = gateway.status().cache
        assert stats.hits >= 1 and stats.misses >= 1

    def test_weight_update_stale_drops_cached_entries(self, gateway, grid_frn):
        graph = grid_frn.graph
        u, v, w = next(iter(graph.edges()))
        far = grid_frn.num_vertices - 1
        before = as_distance(gateway.distance(u, far))
        assert as_distance(gateway.distance(u, far)) == before  # cached
        outcome = gateway.submit(WeightUpdate(u, v, w * 4.0, timestamp=1.0))
        assert outcome.applied
        after = as_distance(gateway.distance(u, far))
        assert after == pytest.approx(
            dijkstra_distance(graph, u, far), abs=1e-9
        )
        assert gateway.status().cache.stale_drops >= 1

    def test_flow_update_invalidates_only_owning_shards(self, gateway):
        plan = gateway.plan
        in_shard0 = FSPQuery(plan.members[0][0], plan.members[0][-1], 0)
        in_shard1 = FSPQuery(plan.members[1][0], plan.members[1][-1], 0)
        gateway.query(in_shard0)
        gateway.query(in_shard1)
        assert gateway.submit(
            FlowUpdate(plan.members[0][0], 42.0, timestamp=1.0)
        ).applied
        base = gateway.status().cache.stale_drops
        # the flow update only queues: shard 0 still answers from cache
        gateway.query(in_shard0)
        assert gateway.status().cache.stale_drops == base
        # its consolidation swaps shard 0's index and bumps its epoch
        assert gateway.consolidate() == {0: "done"}
        gateway.query(in_shard1)  # shard 1 epoch untouched: still a hit
        assert gateway.status().cache.stale_drops == base
        gateway.query(in_shard0)  # shard 0 epoch bumped: entry dies lazily
        assert gateway.status().cache.stale_drops == base + 1

    def test_lru_eviction_is_bounded(self):
        cache = ResultCache(capacity=2)
        for i in range(5):
            cache.put(("q", i, i + 1, 0), i, (0, 0, 0))
        stats = cache.stats()
        assert stats.size == 2
        assert stats.evictions == 3


class TestMaintenance:
    def test_intra_shard_weight_update_routes_ilu(self, gateway):
        plan, graph = gateway.plan, gateway.frn.graph
        u, v, w = next(
            (u, v, w) for u, v, w in graph.edges()
            if plan.shard(u) == plan.shard(v)
        )
        outcome = gateway.submit(WeightUpdate(u, v, w + 2.0, timestamp=1.0))
        assert outcome.applied and outcome.strategy == "overlay"
        assert graph.weight(u, v) == w + 2.0

    def test_cut_edge_weight_update_is_gateway_owned(self, gateway):
        u, v, _ = gateway.plan.cut_edges[0]
        new = gateway.frn.graph.weight(u, v) + 3.0
        outcome = gateway.submit(WeightUpdate(u, v, new, timestamp=1.0))
        assert outcome.applied and outcome.strategy == "cut-edge"
        far = (u + 17) % gateway.frn.num_vertices
        assert as_distance(gateway.distance(u, far)) == pytest.approx(
            dijkstra_distance(gateway.frn.graph, u, far), abs=1e-9
        )

    def test_bad_updates_are_dead_lettered_not_raised(self, gateway):
        assert not gateway.submit(FlowUpdate(3, math.nan, timestamp=1.0)).accepted
        assert not gateway.submit(FlowUpdate(-7, 1.0, timestamp=1.0)).accepted
        u, v, _ = gateway.plan.cut_edges[0]
        assert not gateway.submit(
            WeightUpdate(u, v, -1.0, timestamp=1.0)
        ).accepted
        status = gateway.status()
        assert status.metrics["updates_rejected"] >= 3

    def test_cut_edge_stale_timestamp_rejected(self, gateway):
        u, v, _ = gateway.plan.cut_edges[0]
        w = gateway.frn.graph.weight(u, v)
        assert gateway.submit(WeightUpdate(u, v, w + 1.0, timestamp=5.0)).applied
        late = gateway.submit(WeightUpdate(u, v, w + 2.0, timestamp=4.0))
        assert not late.accepted and late.reason == "stale-timestamp"


class TestBoundaryTable:
    """The closure-built global table equals the full-graph Dijkstra one."""

    def test_exact_after_construction(self, gateway):
        # rows read off the labels: integer weights, so label sums and
        # Dijkstra sums are exact
        _assert_rows_are_dijkstra(gateway)
        assert_boundary_exact(gateway)

    def test_exact_after_intra_shard_weight_update(self, gateway):
        u, v, w = _intra_edge(gateway, 0)
        outcome = gateway.submit(WeightUpdate(u, v, w * 0.65, timestamp=1.0))
        assert outcome.applied and outcome.strategy == "overlay"
        assert_boundary_exact(gateway)

    def test_exact_after_cut_edge_weight_update(self, gateway):
        graph = gateway.frn.graph
        for i, (u, v, _) in enumerate(gateway.plan.cut_edges):
            factor = 0.65 if i % 2 == 0 else 1.5
            outcome = gateway.submit(
                WeightUpdate(u, v, graph.weight(u, v) * factor, timestamp=1.0)
            )
            assert outcome.applied and outcome.strategy == "cut-edge"
        assert_boundary_exact(gateway)

    @settings(max_examples=12, deadline=None)
    @given(data=st.data())
    def test_interleaved_weight_updates_keep_table_exact(self, data):
        frn = _frn(grid_network(8, 8, seed=3))
        gateway = ShardedGateway(frn, num_shards=4, max_retries=0)
        graph, plan = frn.graph, gateway.plan
        edges = {
            "intra": [
                (u, v) for u, v, _ in graph.edges()
                if plan.shard(u) == plan.shard(v)
            ],
            "cut": [(u, v) for u, v, _ in plan.cut_edges],
        }
        for step in range(data.draw(st.integers(1, 6))):
            kind = data.draw(st.sampled_from(sorted(edges)))
            u, v = data.draw(st.sampled_from(edges[kind]))
            factor = data.draw(st.floats(0.65, 1.5))
            outcome = gateway.submit(
                WeightUpdate(u, v, graph.weight(u, v) * factor,
                             timestamp=float(step))
            )
            assert outcome.applied
            assert_boundary_exact(gateway, pairs=12)

    @given(data=st.data())
    def test_rows_stay_dijkstra_exact_under_interleaved_updates(self, data):
        graph = data.draw(connected_graphs(min_vertices=8, max_vertices=24))
        gateway = ShardedGateway(
            _frn(graph), num_shards=data.draw(st.integers(2, 4)), max_retries=0
        )
        _assert_rows_are_dijkstra(gateway)
        plan = gateway.plan
        initial = {(u, v): w for u, v, w in graph.edges()}
        intra = sorted(
            key for key in initial if plan.shard(key[0]) == plan.shard(key[1])
        )
        cut = sorted((min(u, v), max(u, v)) for u, v, _ in plan.cut_edges)
        assume(intra)
        last = None
        for step in range(data.draw(st.integers(1, 8))):
            # the same intra edge again, a fresh intra edge, or a cut edge
            where = data.draw(st.sampled_from(["again", "intra", "cut"]))
            if where == "cut" and cut:
                u, v = data.draw(st.sampled_from(cut))
            elif where == "again" and last is not None:
                u, v = last
            else:
                u, v = last = data.draw(st.sampled_from(intra))
            w = int(graph.weight(u, v))
            how = data.draw(st.sampled_from(["down", "up", "original"]))
            if how == "down":
                value = data.draw(st.integers(1, max(1, w - 1)))
            elif how == "up":
                value = w + data.draw(st.integers(1, 30))
            else:
                value = int(initial[(u, v)])
            outcome = gateway.submit(
                WeightUpdate(u, v, float(value), timestamp=float(step))
            )
            assert outcome.applied
            assert graph.weight(u, v) == value
            _assert_rows_are_dijkstra(gateway)
            assert_boundary_exact(gateway, pairs=8)

    def test_construction_leaves_no_arena_cached(self, grid_frn, monkeypatch):
        # index_size_bytes counts a cached arena; the row sweep must not
        # leave one behind on any shard index
        sizes = []

        def recording(graph, plan, subgraphs, indexes):
            before = [index.index_size_bytes() for index in indexes]
            boundary = BoundaryIndex(graph, plan, subgraphs, indexes)
            sizes.append((before, [index.index_size_bytes() for index in indexes]))
            return boundary

        monkeypatch.setattr(gateway_module, "BoundaryIndex", recording)
        gateway = ShardedGateway(grid_frn, num_shards=4, max_retries=0)
        [(before, after)] = sizes
        assert after == before
        # a shard that has served a query holds a current arena; the sweep
        # reads it and adds nothing either
        shard = gateway.shards[0]
        shard.query(FSPQuery(0, 1, 0))
        warm = [engine.index.index_size_bytes() for engine in gateway.shards]
        recording(
            gateway.frn.graph, gateway.plan, gateway._subgraphs,
            [engine.index for engine in gateway.shards],
        )
        assert sizes[-1] == (warm, warm)


class TestDegradedIsolation:
    def test_poisoned_shard_does_not_degrade_the_rest(self, gateway):
        plan = gateway.plan
        victim = plan.members[0][0]
        _degrade(gateway, 0)
        assert gateway.degraded_shards == (0,)

        healthy = gateway.query(
            FSPQuery(plan.members[1][0], plan.members[1][-1], 0)
        )
        assert not healthy.degraded and healthy.source == "shard"

        touched = gateway.query(FSPQuery(victim, plan.members[2][0], 0))
        assert touched.degraded and touched.source == "fallback"
        assert touched.result.shortest_distance == pytest.approx(
            dijkstra_distance(gateway.frn.graph, victim, plan.members[2][0]),
            abs=1e-9,
        )

    def test_repair_restores_index_serving(self, gateway):
        victim = gateway.plan.members[0][0]
        assert gateway.submit(FlowUpdate(victim, 42.0, timestamp=1.0)).applied
        _degrade(gateway, 0)
        assert gateway.degraded_shards == (0,)
        verdicts = gateway.repair()
        assert verdicts == {0: True}
        assert gateway.degraded_shards == ()
        result = gateway.query(FSPQuery(victim, gateway.plan.members[2][0], 0))
        assert result.source in ("shard", "boundary")

    @pytest.mark.parametrize("weight_shard", [1, 2])
    def test_repair_rebuilds_only_shards_whose_weights_changed(
        self, gateway, registry, weight_shard
    ):
        # shards 1 and 2 both degrade after one took a weight update and
        # the other a flow update; the weight was absorbed and mirrored at
        # submit, so the repairs change no weight and rebuild no table
        for shard in (1, 2):
            if shard == weight_shard:
                u, v, w = _intra_edge(gateway, shard)
                update = WeightUpdate(u, v, w * 0.5, timestamp=1.0)
            else:
                update = FlowUpdate(
                    gateway.plan.members[shard][0], 42.0, timestamp=1.0
                )
            assert gateway.submit(update).applied
            _degrade(gateway, shard)
        assert gateway.degraded_shards == (1, 2)
        rebuilds = registry.counter("repro_gateway_boundary_rebuilds_total")
        before = rebuilds.total()
        assert gateway.repair() == {1: True, 2: True}
        assert rebuilds.total() == before
        assert_boundary_exact(gateway)


class TestStatus:
    def test_snapshot_shape(self, gateway, grid_frn):
        gateway.query(FSPQuery(0, grid_frn.num_vertices - 1, 0))
        status = gateway.status()
        assert status.num_shards == 4
        assert sum(status.shard_sizes) == grid_frn.num_vertices
        assert status.boundary_vertices > 0
        assert status.degraded_shards == ()
        assert len(status.shard_epochs) == 4
        assert status.cache.capacity > 0
        assert any(k.startswith("queries_") for k in status.metrics)


def _assert_table_matches_point_combine(gateway, exact: bool = True) -> None:
    """``_ShardedOracle.distances_to(t)[v]`` against ``_distance_raw(v, t)``."""
    oracle = gateway.flow_engine.oracle
    n = gateway.frn.num_vertices
    for t in range(n):
        table = oracle.distances_to(t)
        assert table.shape == (n,)
        for v in range(n):
            want = gateway._distance_raw(v, t)
            if exact:
                assert table[v] == want, (v, t)
            else:
                assert math.isclose(table[v], want, rel_tol=1e-12), (v, t)


class TestShardedHeuristicTable:
    """The one-to-all column is the point combine, entry for entry."""

    def test_exact_after_construction(self, gateway):
        _assert_table_matches_point_combine(gateway)

    def test_exact_after_float_factor_updates_once_consolidated(self, gateway):
        graph = gateway.frn.graph
        for step, (u, v, _) in enumerate(gateway.plan.cut_edges[:4]):
            factor = 0.65 if step % 2 == 0 else 1.5
            assert gateway.submit(
                WeightUpdate(u, v, graph.weight(u, v) * factor, timestamp=1.0)
            ).applied
        # cut edges live in no shard: the overlays are still empty
        _assert_table_matches_point_combine(gateway)
        for shard in (0, 1):
            u, v, w = _intra_edge(gateway, shard)
            assert gateway.submit(
                WeightUpdate(u, v, w * 0.65, timestamp=1.0)
            ).applied
        # non-empty shard overlays: the overlay's table and its certified
        # point distance may round differently on non-integer weights
        assert not all(engine.overlay.is_empty for engine in gateway.shards)
        _assert_table_matches_point_combine(gateway, exact=False)
        gateway.consolidate()
        assert all(engine.overlay.is_empty for engine in gateway.shards)
        _assert_table_matches_point_combine(gateway)

    def test_exact_with_a_degraded_shard(self, gateway):
        graph = gateway.frn.graph
        u, v, _ = gateway.plan.cut_edges[0]
        assert gateway.submit(
            WeightUpdate(u, v, graph.weight(u, v) * 0.65, timestamp=1.0)
        ).applied
        _degrade(gateway, 1)
        assert gateway.degraded_shards == (1,)
        _assert_table_matches_point_combine(gateway)


class TestShardedFlatMatchesScalar:
    """Every gateway answer equals a ``kernel="scalar"`` gateway's, across
    interleaved queries, batches, updates and consolidations.

    Both gateways read their A* heuristic from ``_ShardedOracle``'s table,
    so after every state change the table is also checked against the
    independent point combine (exact here: the weights are integers)."""

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_flat_gateway_equals_scalar_gateway(self, data):
        graph = data.draw(connected_graphs(min_vertices=8, max_vertices=18))
        num_shards = data.draw(st.integers(2, 3))
        seed = data.draw(st.integers(0, 5))
        flat = ShardedGateway(
            _frn(graph, seed=seed), num_shards=num_shards, max_retries=0
        )
        scalar = ShardedGateway(
            _frn(graph.copy(), seed=seed), num_shards=num_shards,
            max_retries=0, kernel="scalar",
        )
        assert flat.flow_engine._flat_kernel() is not None
        _assert_table_matches_point_combine(flat)
        plan = flat.plan
        n, steps = graph.num_vertices, flat.frn.num_timesteps
        intra = [
            (u, v) for u, v, _ in graph.edges() if plan.shard(u) == plan.shard(v)
        ]
        cut = [(u, v) for u, v, _ in plan.cut_edges]
        queries = st.builds(
            FSPQuery, st.integers(0, n - 1), st.integers(0, n - 1),
            st.integers(0, steps - 1),
        )
        kinds = ["query", "batch", "flow", "tick", "consolidate"]
        kinds += ["intra"] * bool(intra) + ["cut"] * bool(cut)
        for step in range(data.draw(st.integers(4, 16))):
            kind = data.draw(st.sampled_from(kinds))
            if kind == "query":
                query = data.draw(queries)
                got, want = flat.query(query), scalar.query(query)
                assert got.result == want.result
                assert got.source == want.source
            elif kind == "batch":
                batch = data.draw(st.lists(queries, min_size=1, max_size=6))
                got = flat.batch(batch)
                want = scalar.batch(batch)
                assert [a.result for a in got] == [b.result for b in want]
            elif kind in ("intra", "cut"):
                u, v = data.draw(st.sampled_from(intra if kind == "intra" else cut))
                value = float(data.draw(st.integers(1, 30)))
                update = WeightUpdate(u, v, value, timestamp=float(step))
                assert flat.submit(update).applied
                assert scalar.submit(update).applied
            elif kind == "flow":
                vertex = data.draw(st.integers(0, n - 1))
                value = float(data.draw(st.integers(0, 200)))
                update = FlowUpdate(vertex, value, timestamp=float(step))
                assert flat.submit(update).applied
                assert scalar.submit(update).applied
            elif kind == "tick":
                assert flat.maintenance_tick() == scalar.maintenance_tick()
            else:
                assert flat.consolidate() == scalar.consolidate()
            if kind not in ("query", "batch"):
                _assert_table_matches_point_combine(flat)

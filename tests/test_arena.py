"""Unit tests for the packed label arena: layout, caching, invalidation."""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.baselines.dijkstra import dijkstra_distances
from repro.core.fahl import FAHLIndex
from repro.core.maintenance import apply_flow_update, apply_weight_update
from repro.errors import QueryError
from repro.labeling import arena as arena_module
from repro.labeling.h2h import build_h2h


def assert_distance_many_exact(index, graph, rng, pairs=60):
    n = graph.num_vertices
    us = rng.integers(0, n, pairs)
    vs = rng.integers(0, n, pairs)
    got = index.distance_many(us, vs)
    for u, v, d in zip(us.tolist(), vs.tolist(), got.tolist()):
        assert d == index.distance(u, v), (u, v)


def assert_plan_layout(index) -> None:
    """The sweep plan holds each level's bags ragged, tiling its slots.

    Levels tile slots ``1..n`` in depth order; each level's segments tile
    its cells in slot order, one per vertex, and hold exactly the vertex's
    bag (ancestor slots and label entries at their depths).  So the plan's
    cells are the sum of bag sizes, never more than one matrix per level
    padded to its widest bag would read.
    """
    arena = index.arena()
    plan = arena.sweep_plan(index)
    depth = index.tree.depth
    n = index.graph.num_vertices
    vertex = np.argsort(plan.rank)  # the vertex in each slot
    assert np.array_equal(np.sort(depth[vertex]), depth[vertex])
    padded = 0
    expect_lo = 1
    for d, (lo, hi, bag, lab, seg) in enumerate(plan.levels, start=1):
        assert lo == expect_lo and lo < hi
        expect_lo = hi
        assert np.all(depth[vertex[lo:hi]] == d)
        assert len(seg) == hi - lo and len(bag) == len(lab)
        ends = np.append(seg[1:], len(lab))
        assert seg[0] == 0 and np.all(ends > seg)
        for slot, a, b in zip(range(lo, hi), seg.tolist(), ends.tolist()):
            v = int(vertex[slot])
            members = vertex[bag[a:b]]
            assert sorted(members.tolist()) == sorted(index.bag_keys[v].tolist())
            assert lab[a:b].tolist() == index.labels[v][depth[members]].tolist()
        padded += (hi - lo) * max(len(index.bag_keys[v]) for v in vertex[lo:hi])
    assert expect_lo == n
    assert plan.cells == sum(len(keys) for keys in index.bag_keys) <= padded


class TestArenaLayout:
    def test_slices_match_index_lists(self, small_grid):
        index = build_h2h(small_grid)
        arena = index.arena()
        n = small_grid.num_vertices
        for v in range(n):
            lo, hi = int(arena.label_offsets[v]), int(arena.label_offsets[v + 1])
            assert np.array_equal(arena.label_values[lo:hi], index.labels[v])
            lo, hi = int(arena.pos_offsets[v]), int(arena.pos_offsets[v + 1])
            assert np.array_equal(arena.pos_values[lo:hi], index.positions[v])

    def test_ancestor_storage_is_shared(self, small_grid):
        index = build_h2h(small_grid)
        arena = index.arena()
        assert arena.anc_values is index.anc_flat
        assert arena.anc_offsets is index.anc_offsets
        # the per-vertex views expose the same flat storage
        for v in range(small_grid.num_vertices):
            lo, hi = int(index.anc_offsets[v]), int(index.anc_offsets[v + 1])
            assert np.array_equal(index.anc[v], index.anc_flat[lo:hi])
            assert index.anc[v][-1] == v

    def test_padded_positions_rows(self, small_grid):
        index = build_h2h(small_grid)
        arena = index.arena()
        assert arena.pos_pad is not None
        width = arena.pos_pad.shape[1]
        for v in range(small_grid.num_vertices):
            p = index.positions[v]
            row = arena.pos_pad[v]
            assert np.array_equal(row[: len(p)], p)
            assert np.all(row[len(p):] == p[-1])
            assert len(row) == width

    def test_ragged_fallback_kernel_exact(self, small_grid, rng):
        """Without the dense matrix the segmented kernel gives the same bits."""
        index = build_h2h(small_grid)
        n = small_grid.num_vertices
        us = rng.integers(0, n, 80)
        vs = rng.integers(0, n, 80)
        dense = index.distance_many(us, vs)
        index.arena().pos_pad = None
        ragged = index.distance_many(us, vs)
        assert np.array_equal(dense, ragged)

    def test_cached_until_version_bump(self, small_grid):
        index = build_h2h(small_grid)
        first = index.arena()
        assert index.arena() is first
        index.refresh_labels()
        second = index.arena()
        assert second is not first
        assert second.version > first.version


class TestArenaInvalidation:
    """Maintenance must transparently invalidate the packed snapshot."""

    def test_ilu_invalidates(self, small_grid, rng):
        index = build_h2h(small_grid)
        stale = index.arena()
        u, v, w = next(iter(small_grid.edges()))
        apply_weight_update(index, u, v, w * 4)
        assert index.arena() is not stale
        assert_distance_many_exact(index, small_grid, rng)

    def test_isu_invalidates(self, small_grid, rng):
        flows = np.asarray(rng.uniform(0, 100, small_grid.num_vertices))
        index = FAHLIndex(small_grid, flows)
        stale = index.arena()
        stats = apply_flow_update(index, 3, 12345.0, method="isu")
        assert stats.strategy in ("isu", "gsu")
        assert index.arena() is not stale
        assert_distance_many_exact(index, small_grid, rng)

    def test_gsu_invalidates(self, small_grid, rng):
        flows = np.asarray(rng.uniform(0, 100, small_grid.num_vertices))
        index = FAHLIndex(small_grid, flows)
        stale = index.arena()
        stats = apply_flow_update(index, 5, 9999.0, method="gsu")
        assert stats.strategy in ("noop", "gsu")
        fresh = index.arena()
        if stats.strategy == "gsu":
            assert fresh is not stale
        assert_distance_many_exact(index, small_grid, rng)

    def test_distance_many_correct_after_maintenance(self, small_grid, rng):
        """End to end: vectorised answers equal Dijkstra on the new graph."""
        index = build_h2h(small_grid)
        index.distance_many(np.arange(4), np.arange(4) + 4)  # build the arena
        u, v, w = next(iter(small_grid.edges()))
        apply_weight_update(index, u, v, w * 10)
        n = small_grid.num_vertices
        ref = dijkstra_distances(small_grid, 0)
        got = index.distance_many(np.zeros(n, dtype=np.int64), np.arange(n))
        assert got == pytest.approx(ref)


class TestDistanceManyValidation:
    def test_shape_mismatch_rejected(self, small_grid):
        index = build_h2h(small_grid)
        with pytest.raises(QueryError):
            index.distance_many([0, 1], [2])
        with pytest.raises(QueryError):
            index.distance_many([[0]], [[1]])

    def test_unknown_vertices_rejected(self, small_grid):
        index = build_h2h(small_grid)
        n = small_grid.num_vertices
        with pytest.raises(QueryError):
            index.distance_many([0], [n])
        with pytest.raises(QueryError):
            index.distance_many([-1], [0])

    def test_empty_input(self, small_grid):
        index = build_h2h(small_grid)
        out = index.distance_many([], [])
        assert out.shape == (0,)

    def test_self_pairs_are_zero(self, small_grid):
        index = build_h2h(small_grid)
        vs = np.arange(small_grid.num_vertices)
        assert np.array_equal(index.distance_many(vs, vs), np.zeros(len(vs)))


class TestIndexSizeBytes:
    def test_includes_bag_views(self, small_grid):
        index = build_h2h(small_grid)
        label_bytes = (
            sum(lbl.nbytes for lbl in index.labels)
            + sum(p.nbytes for p in index.positions)
            + sum(v.nbytes for v in index.vias)
        )
        bag_bytes = (
            sum(k.nbytes for k in index.bag_keys)
            + sum(w.nbytes for w in index.bag_weights)
            + sum(p.nbytes for p in index.bag_pos)
        )
        assert bag_bytes > 0
        assert index.index_size_bytes() >= label_bytes + bag_bytes

    def test_includes_built_arena(self, small_grid):
        index = build_h2h(small_grid)
        before = index.index_size_bytes()
        arena = index.arena()
        assert index.index_size_bytes() == before + arena.nbytes
        # a stale arena must not be counted
        index.refresh_labels()
        assert index.index_size_bytes() == before

    def test_includes_built_sweep_plan(self, small_grid):
        index = build_h2h(small_grid)
        before = index.index_size_bytes()
        arena = index.arena()
        unplanned = arena.nbytes
        index.distances_to(0)
        plan = arena._plan
        assert plan is not None and plan.nbytes > 0
        assert arena.nbytes == unplanned + plan.nbytes
        assert index.index_size_bytes() == before + arena.nbytes
        # the clone drops the arena, and the plan goes with it
        twin = index.clone()
        assert twin._arena is None
        assert twin.index_size_bytes() == before


    def test_one_label_copy(self, small_grid):
        """One int32 label store: the views and the arena all read it."""
        index = build_h2h(small_grid)

        def own(arena):
            return (
                arena.pos_offsets.nbytes
                + arena.pos_values.nbytes
                + arena.pos_pad.nbytes
            )

        def store(index):
            return index.label_values.nbytes + index.via_values.nbytes

        assert index.label_values.dtype == np.int32
        assert len(index.label_values) == sum(len(lbl) for lbl in index.labels)
        assert all(np.shares_memory(lbl, index.label_values) for lbl in index.labels)
        assert all(
            np.shares_memory(via, index.via_values) for via in index.vias if len(via)
        )
        assert index.anc_flat.dtype == np.int32
        assert all(k.dtype == np.int32 for k in index.bag_keys)
        resident = index.index_size_bytes()
        assert resident < store(index) + sum(lbl.nbytes for lbl in index.labels) + (
            sum(p.nbytes for p in index.positions)
            + sum(k.nbytes for k in index.bag_keys)
            + sum(w.nbytes for w in index.bag_weights)
            + sum(p.nbytes for p in index.bag_pos)
            + index.anc_flat.nbytes
            + index.anc_offsets.nbytes
        )  # the views count nothing
        arena = index.arena()
        assert arena.label_values is index.label_values
        assert arena.label_offsets is index.label_offsets
        assert arena.quantized
        assert arena.pos_values.dtype == arena.pos_pad.dtype == np.int32
        assert arena.nbytes == own(arena)
        assert index.index_size_bytes() == resident + own(arena)
        index.distances_to(0)
        assert arena.nbytes == own(arena) + arena._plan.nbytes
        # a lowered non-integral weight is the edge's own shortest path, so
        # some label entry turns fractional and the store repacks as float64
        u, v, w = next(iter(small_grid.edges()))
        apply_weight_update(index, u, v, w - 0.5)
        assert index.label_values.dtype == np.float64
        fresh = index.arena()
        assert fresh is not arena
        assert not fresh.quantized
        assert fresh.label_values is index.label_values
        assert fresh.nbytes == own(fresh)


class TestSweep:
    """The one-to-all bag sweep behind ``distances_to``."""

    def test_plan_built_once_per_version(self, small_grid):
        index = build_h2h(small_grid)
        index.distances_to(3)
        plan = index.arena()._plan
        index.distances_to(7)
        assert index.arena()._plan is plan
        index.refresh_labels()
        assert index.arena()._plan is None

    def test_plan_layout(self, small_grid):
        index = build_h2h(small_grid)
        assert_plan_layout(index)
        # some level mixes bag sizes, so padding it would cost cells
        sizes = [
            np.diff(np.append(seg, len(lab)))
            for *_, lab, seg in index.arena().sweep_plan(index).levels
        ]
        assert any(s.min() < s.max() for s in sizes)

    def test_past_dense_pad_budget(self, small_grid, monkeypatch):
        """Without the dense position pad the arena still quantises and sweeps."""
        monkeypatch.setattr(arena_module, "_DENSE_POS_LIMIT", 1)
        index = build_h2h(small_grid)
        arena = index.arena()
        assert arena.pos_pad is None
        assert arena.quantized
        n = small_grid.num_vertices
        for t in range(n):
            expected = np.asarray([index.distance(u, t) for u in range(n)])
            assert np.array_equal(index.distances_to(t), expected), t
        assert arena._plan is not None

    @staticmethod
    def expected_reads(index, target):
        """Bag cells of the levels the sweep visits, plus L_t."""
        return TestSweep.expected_block_reads(index, [target])

    @staticmethod
    def expected_block_reads(index, targets):
        """k times the bag cells of the levels visited, plus L_t."""
        depth = index.tree.depth
        shallowest = min(int(depth[t]) for t in targets)
        reads = sum(int(depth[t]) + 1 for t in targets)
        for d in range(1, int(depth.max()) + 1):
            level = np.flatnonzero(depth == d)
            if d <= shallowest and len(level) == 1:
                continue  # an ancestor of every target: skipped
            cells = sum(len(index.bag_keys[v]) for v in level)
            reads += len(targets) * cells
        return reads

    def test_gather_counter_counts_multi_target_sweeps(self, small_grid):
        index = build_h2h(small_grid)
        n = small_grid.num_vertices
        registry = obs.MetricsRegistry(enabled=True)
        previous = obs.set_registry(registry)
        try:
            gathered = registry.counter("repro_label_gather_entries_total")
            pairs = registry.counter("repro_label_pairs_batched_total")
            root = index.tree.root
            for targets in ([0], [3, 3, 17], [root, 5, 35, 12], list(range(n))):
                before = gathered.total(), pairs.total()
                index.distances_to_many(targets)
                assert gathered.total() - before[0] == self.expected_block_reads(
                    index, targets
                )
                assert pairs.total() - before[1] == len(targets) * n
        finally:
            obs.set_registry(previous)

    def test_gather_counter_counts_sweep_reads(self, small_grid):
        index = build_h2h(small_grid)
        registry = obs.MetricsRegistry(enabled=True)
        previous = obs.set_registry(registry)
        try:
            counter = registry.counter("repro_label_gather_entries_total")
            index.distances_to(0)
            assert counter.total() == 97
            for t in range(small_grid.num_vertices):
                before = counter.total()
                index.distances_to(t)
                assert counter.total() - before == self.expected_reads(index, t)
        finally:
            obs.set_registry(previous)

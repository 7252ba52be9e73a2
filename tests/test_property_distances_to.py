"""Property tests: the one-to-all tables ``distances_to(_many)`` are exact.

On integer labels ``HierarchyIndex.distances_to_many`` runs one top-down
bag sweep over the arena's per-level plan for all its targets, and
``distances_to`` is its one-target case; on non-integral labels both keep
the batched LCA + pair gather.  Either way every entry must equal the
scalar ``distance`` loop bit for bit and match Dijkstra, and every row of
a many-target block must equal its target's ``distances_to`` bit for bit
— for any target multiset (duplicates, the tree root, one target, mixed
depths, a vertex with its ancestors), and right after ILU, ISU and GSU,
whose version bump must drop the plan built before them.  The plan itself
must keep every level's bags ragged: its cells are the sum of bag sizes.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.baselines.dijkstra import dijkstra_distances
from repro.core.fahl import FAHLIndex
from repro.core.maintenance import apply_flow_update, apply_weight_update
from repro.errors import QueryError
from repro.graph.road_network import RoadNetwork
from repro.labeling.h2h import build_h2h
from tests.strategies import connected_graphs
from tests.test_arena import assert_plan_layout


def assert_tables_exact(index, graph) -> None:
    n = graph.num_vertices
    for t in range(n):
        got = index.distances_to(t)
        scalar = np.asarray([index.distance(u, t) for u in range(n)])
        assert got.dtype == np.float64
        assert np.array_equal(got.view(np.int64), scalar.view(np.int64)), t
        assert np.array_equal(got, dijkstra_distances(graph, t)), t


def target_multisets(data, index, n):
    """Target lists: one target, duplicates, the root, mixed depths."""
    drawn = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2 * n))
    if data.draw(st.booleans()):
        drawn.insert(data.draw(st.integers(0, len(drawn))), index.tree.root)
    return drawn


def assert_blocks_exact(index, graph, targets, exact=True) -> None:
    block = index.distances_to_many(targets)
    assert block.dtype == np.float64
    assert block.shape == (len(targets), graph.num_vertices)
    for row, t in zip(block, targets):
        single = index.distances_to(t)
        assert np.array_equal(row.view(np.int64), single.view(np.int64)), t
        expected = dijkstra_distances(graph, t)
        assert np.array_equal(row, expected) if exact else np.allclose(row, expected)


@given(graph=connected_graphs(max_vertices=20))
def test_sweep_equals_scalar_loop_and_dijkstra(graph):
    index = build_h2h(graph)
    assert index.arena().quantized
    assert_tables_exact(index, graph)


@given(graph=connected_graphs(max_vertices=20), data=st.data())
def test_many_target_sweep_equals_single_sweeps(graph, data):
    index = build_h2h(graph)
    assert index.arena().quantized
    targets = target_multisets(data, index, graph.num_vertices)
    assert_blocks_exact(index, graph, targets)
    # the same targets as an int array, and a block of one
    assert_blocks_exact(index, graph, np.asarray(targets, dtype=np.int32))
    assert_blocks_exact(index, graph, targets[:1])


@given(graph=connected_graphs(max_vertices=24), data=st.data())
def test_ancestor_targets_equal_scalar_loop(graph, data):
    """Targets on one root path: each restores the others' columns."""
    index = build_h2h(graph)
    n = graph.num_vertices
    assert_plan_layout(index)
    v = data.draw(st.integers(0, n - 1))
    chain = index.anc[v].tolist()
    targets = data.draw(st.permutations(chain + data.draw(
        st.lists(st.sampled_from(chain), max_size=3)
    )))
    block = index.distances_to_many(targets)
    for row, t in zip(block, targets):
        scalar = np.asarray([index.distance(u, t) for u in range(n)])
        assert np.array_equal(row.view(np.int64), scalar.view(np.int64)), t
        single = index.distances_to(t)
        assert np.array_equal(single.view(np.int64), scalar.view(np.int64)), t


@given(graph=connected_graphs(min_vertices=4, max_vertices=14), data=st.data())
def test_sweep_exact_after_ilu(graph, data):
    index = build_h2h(graph)
    n = graph.num_vertices
    index.distances_to(0)  # build the plan so the update must drop it
    index.distances_to_many(list(range(n)))
    edges = list(graph.edges())
    for _ in range(data.draw(st.integers(1, 4))):
        u, v, _ = edges[data.draw(st.integers(0, len(edges) - 1))]
        apply_weight_update(index, u, v, float(data.draw(st.integers(1, 40))))
    assert_tables_exact(index, graph)
    assert_blocks_exact(index, graph, target_multisets(data, index, n))


@given(
    graph=connected_graphs(min_vertices=4, max_vertices=14),
    method=st.sampled_from(["isu", "gsu"]),
    data=st.data(),
)
def test_sweep_exact_after_structure_updates(graph, method, data):
    n = graph.num_vertices
    flows = np.array(
        [data.draw(st.integers(0, 100)) for _ in range(n)], dtype=float
    )
    index = FAHLIndex(graph, flows, beta=0.5)
    index.distances_to(n - 1)  # build the plan so the update must drop it
    index.distances_to_many(list(range(n)))
    for _ in range(data.draw(st.integers(1, 4))):
        vertex = data.draw(st.integers(0, n - 1))
        new_flow = float(data.draw(st.integers(0, 300)))
        apply_flow_update(index, vertex, new_flow, method=method)
    assert_tables_exact(index, graph)
    assert_plan_layout(index)
    assert_blocks_exact(index, graph, target_multisets(data, index, n))


def test_non_integral_weights_take_pair_gather():
    graph = RoadNetwork(
        5,
        edges=[
            (0, 1, 1.25),
            (1, 2, 0.5),
            (2, 3, 2.75),
            (3, 4, 1.5),
            (0, 4, 3.1),
            (1, 3, 2.2),
        ],
    )
    index = build_h2h(graph)
    arena = index.arena()
    assert not arena.quantized
    n = graph.num_vertices
    for t in range(n):
        got = index.distances_to(t)
        scalar = np.asarray([index.distance(u, t) for u in range(n)])
        assert np.array_equal(got.view(np.int64), scalar.view(np.int64)), t
        assert np.allclose(got, dijkstra_distances(graph, t))
    assert_blocks_exact(index, graph, [4, 0, 4, 2, 1, 3], exact=False)
    assert arena._plan is None


def test_many_rejects_unknown_targets():
    index = build_h2h(RoadNetwork(3, edges=[(0, 1, 1.0), (1, 2, 2.0)]))
    for bad in ([0, 3], [-1], [[0, 1]], [0.5]):
        with pytest.raises(QueryError):
            index.distances_to_many(bad)
    assert index.distances_to_many([]).shape == (0, 3)

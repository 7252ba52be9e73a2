"""Unit tests for orderings, the elimination game and the tree structure."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import IndexBuildError
from repro.graph.road_network import RoadNetwork
from repro.treedec.elimination import (
    eliminate,
    relax_from_bag,
    replay_prefix,
)
from repro.treedec.lca import EulerTourLCA, naive_lca
from repro.treedec.ordering import (
    degree_flow_importance,
    degree_importance,
    normalize_flows,
)
from repro.treedec.tree import TreeDecomposition


class TestOrderings:
    def test_degree_importance_ignores_vertex(self):
        imp = degree_importance()
        assert imp(0, 3) == imp(99, 3) == 3.0

    def test_normalize_flows_range(self):
        normalized = normalize_flows(np.array([10.0, 20.0, 30.0]))
        assert list(normalized) == [0.0, 0.5, 1.0]

    def test_normalize_constant_vector(self):
        assert list(normalize_flows(np.array([5.0, 5.0]))) == [0.0, 0.0]

    def test_normalize_with_anchors(self):
        normalized = normalize_flows(np.array([0.0, 50.0]), anchors=(0.0, 100.0))
        assert list(normalized) == [0.0, 0.5]

    def test_normalize_rejects_bad_input(self):
        with pytest.raises(IndexBuildError):
            normalize_flows(np.ones((2, 2)))
        with pytest.raises(IndexBuildError):
            normalize_flows(np.array([np.inf]))

    def test_degree_flow_blend(self, triangle_graph):
        flows = np.array([0.0, 50.0, 100.0])
        imp = degree_flow_importance(triangle_graph, flows, beta=0.5)
        # importance falls with flow: all degrees are 2 (term 1.0), so the
        # zero-flow vertex scores highest and the max-flow vertex lowest
        assert imp(0, 2) == pytest.approx(0.5 * 1.0 + 0.5 * 1.0)
        assert imp(2, 2) == pytest.approx(0.5 * 0.0 + 0.5 * 1.0)
        assert imp(0, 2) > imp(1, 2) > imp(2, 2)

    def test_degree_flow_beta_zero_is_degree(self, triangle_graph):
        flows = np.array([0.0, 50.0, 100.0])
        imp = degree_flow_importance(triangle_graph, flows, beta=0.0)
        assert imp(0, 2) == imp(2, 2)

    @pytest.mark.parametrize("beta", [0.0, 0.3, 0.5, 0.7, 1.0])
    def test_array_form_matches_scalar_bit_for_bit(self, medium_grid, beta):
        rng = np.random.default_rng(int(beta * 10))
        n = medium_grid.num_vertices
        ids = rng.integers(0, n, size=500)
        degrees = rng.integers(0, 60, size=500)
        flows = rng.random(n) * 1000.0
        for imp in (
            degree_importance(),
            degree_flow_importance(medium_grid, flows, beta=beta),
            # anchors that put some normalised flows outside [0, 1]
            degree_flow_importance(
                medium_grid, flows, beta=beta, anchors=(200.0, 700.0)
            ),
        ):
            scalar = np.array([imp(int(v), int(d)) for v, d in zip(ids, degrees)])
            batch = imp(ids, degrees)
            assert batch.dtype == np.float64
            assert batch.tobytes() == scalar.tobytes()

    def test_degree_flow_validates(self, triangle_graph):
        with pytest.raises(IndexBuildError):
            degree_flow_importance(triangle_graph, np.array([1.0]), beta=0.5)
        with pytest.raises(IndexBuildError):
            degree_flow_importance(triangle_graph, np.zeros(3), beta=1.5)


class TestElimination:
    def test_orders_all_vertices(self, small_grid):
        result = eliminate(small_grid, degree_importance())
        assert sorted(result.order) == list(range(small_grid.num_vertices))
        assert all(result.rank[v] == r for r, v in enumerate(result.order))

    def test_bags_contain_later_vertices(self, small_grid):
        result = eliminate(small_grid, degree_importance())
        for v in range(small_grid.num_vertices):
            for x in result.bags[v]:
                assert result.rank[x] > result.rank[v]

    def test_empty_graph_rejected(self):
        with pytest.raises(IndexBuildError):
            eliminate(RoadNetwork(0), degree_importance())

    def test_path_graph_width_one(self):
        graph = RoadNetwork(5, edges=[(i, i + 1, 1.0) for i in range(4)])
        result = eliminate(graph, degree_importance())
        assert result.treewidth == 1

    def test_shortcut_weights_triangle_inequality(self, triangle_graph):
        # eliminating the first vertex of the triangle must not create a
        # shortcut worse than the direct edge
        result = eliminate(triangle_graph, degree_importance())
        first = result.order[0]
        others = [v for v in range(3) if v != first]
        lo = min(others, key=lambda v: result.rank[v])
        hi = max(others, key=lambda v: result.rank[v])
        direct = triangle_graph.weight(lo, hi)
        via = triangle_graph.weight(first, lo) + triangle_graph.weight(first, hi)
        assert result.bags[lo][hi] == min(direct, via)

    def test_phi_recorded(self, small_grid):
        result = eliminate(small_grid, degree_importance())
        assert len(result.phi_at_elim) == small_grid.num_vertices
        # degree importance: first eliminated vertex has the min degree
        min_degree = min(small_grid.degree(v) for v in small_grid.vertices())
        assert result.phi_at_elim[0] == min_degree

    def test_deterministic(self, small_grid):
        a = eliminate(small_grid, degree_importance())
        b = eliminate(small_grid, degree_importance())
        assert a.order == b.order


class TestReplay:
    def test_full_replay_matches_final_state(self, small_grid):
        result = eliminate(small_grid, degree_importance())
        adj, _ = replay_prefix(small_grid, result, small_grid.num_vertices)
        assert all(not nbrs for nbrs in adj)

    def test_prefix_replay_matches_bag_of_next(self, small_grid):
        result = eliminate(small_grid, degree_importance())
        for k in (1, small_grid.num_vertices // 2, small_grid.num_vertices - 1):
            adj, mids = replay_prefix(small_grid, result, k)
            nxt = result.order[k]
            assert adj[nxt] == result.bags[nxt]
            assert mids[nxt] == result.middles[nxt]

    def test_replay_zero_is_original_graph(self, small_grid):
        result = eliminate(small_grid, degree_importance())
        adj, mids = replay_prefix(small_grid, result, 0)
        for v in range(small_grid.num_vertices):
            assert adj[v] == dict(small_grid.adjacency(v))
            assert all(m is None for m in mids[v].values())

    def test_replay_reflects_current_weights(self, small_grid):
        # replay reconstructs from the *current* graph, so a base-weight
        # change made after construction shows up in the step-0 state
        result = eliminate(small_grid, degree_importance())
        u, v, w = next(iter(small_grid.edges()))
        graph = small_grid.copy()
        graph.set_weight(u, v, w + 100)
        adj, _ = replay_prefix(graph, result, 0)
        assert adj[u][v] == w + 100

    def test_relax_from_bag_applies_shortcuts(self):
        adj = [dict() for _ in range(3)]
        mids = [dict() for _ in range(3)]
        relax_from_bag(adj, mids, {1: 2.0, 2: 3.0}, middle=0, remaining={1, 2})
        assert adj[1][2] == 5.0
        assert mids[2][1] == 0

    def test_relax_from_bag_keeps_better_edge(self):
        adj = [dict(), {2: 1.0}, {1: 1.0}]
        mids = [dict(), {2: None}, {1: None}]
        relax_from_bag(adj, mids, {1: 2.0, 2: 3.0}, middle=0, remaining={1, 2})
        assert adj[1][2] == 1.0
        assert mids[1][2] is None

    def test_invalid_steps(self, small_grid):
        result = eliminate(small_grid, degree_importance())
        with pytest.raises(IndexBuildError):
            replay_prefix(small_grid, result, -1)
        with pytest.raises(IndexBuildError):
            replay_prefix(small_grid, result, small_grid.num_vertices + 1)


class TestTreeDecomposition:
    def test_validates_def6(self, small_grid):
        result = eliminate(small_grid, degree_importance())
        tree = TreeDecomposition(result)
        tree.validate(small_grid)  # must not raise

    def test_root_is_last_eliminated(self, small_grid):
        result = eliminate(small_grid, degree_importance())
        tree = TreeDecomposition(result)
        assert tree.root == result.order[-1]
        assert tree.parent[tree.root] == -1
        assert tree.depth[tree.root] == 0

    def test_parent_is_lowest_rank_bag_member(self, small_grid):
        result = eliminate(small_grid, degree_importance())
        tree = TreeDecomposition(result)
        for v in range(small_grid.num_vertices):
            if v == tree.root:
                continue
            expected = min(result.bags[v], key=lambda x: result.rank[x])
            assert tree.parent[v] == expected

    def test_depth_consistent_with_parent(self, small_grid):
        result = eliminate(small_grid, degree_importance())
        tree = TreeDecomposition(result)
        for v in range(small_grid.num_vertices):
            if v != tree.root:
                assert tree.depth[v] == tree.depth[tree.parent[v]] + 1

    def test_ancestor_array(self, small_grid):
        result = eliminate(small_grid, degree_importance())
        tree = TreeDecomposition(result)
        for v in (0, small_grid.num_vertices - 1):
            anc = tree.ancestor_array(v)
            assert anc[0] == tree.root
            assert anc[-1] == v
            assert len(anc) == tree.depth[v] + 1

    def test_position_array_sorted_and_includes_self(self, small_grid):
        result = eliminate(small_grid, degree_importance())
        tree = TreeDecomposition(result)
        for v in range(small_grid.num_vertices):
            positions = tree.position_array(v)
            assert list(positions) == sorted(positions)
            assert tree.depth[v] in positions

    def test_subtree_preorder(self, small_grid):
        result = eliminate(small_grid, degree_importance())
        tree = TreeDecomposition(result)
        whole = tree.subtree(tree.root)
        assert sorted(whole) == list(range(small_grid.num_vertices))

    def test_is_ancestor(self, small_grid):
        result = eliminate(small_grid, degree_importance())
        tree = TreeDecomposition(result)
        v = next(x for x in range(small_grid.num_vertices) if tree.depth[x] >= 2)
        assert tree.is_ancestor(tree.root, v)
        assert tree.is_ancestor(v, v)
        assert not tree.is_ancestor(v, tree.root)

    def test_treewidth_height_positive(self, small_grid):
        result = eliminate(small_grid, degree_importance())
        tree = TreeDecomposition(result)
        assert tree.treewidth >= 1
        assert tree.treeheight >= 1


class TestLCA:
    def test_matches_naive(self, medium_grid, rng):
        result = eliminate(medium_grid, degree_importance())
        tree = TreeDecomposition(result)
        lca = EulerTourLCA(tree)
        n = medium_grid.num_vertices
        for _ in range(200):
            u, v = map(int, rng.integers(0, n, 2))
            assert lca.query(u, v) == naive_lca(tree, u, v)

    def test_self_lca(self, small_grid):
        result = eliminate(small_grid, degree_importance())
        tree = TreeDecomposition(result)
        lca = EulerTourLCA(tree)
        assert lca.query(3, 3) == 3

    def test_root_lca(self, small_grid):
        result = eliminate(small_grid, degree_importance())
        tree = TreeDecomposition(result)
        lca = EulerTourLCA(tree)
        assert lca.query(tree.root, 0) == tree.root

    def test_unknown_vertex(self, small_grid):
        from repro.errors import QueryError

        result = eliminate(small_grid, degree_importance())
        tree = TreeDecomposition(result)
        lca = EulerTourLCA(tree)
        with pytest.raises(QueryError):
            lca.query(0, 10_000)

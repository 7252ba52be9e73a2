"""Unit tests for A* search, Yen enumeration and candidate generation."""

from __future__ import annotations

import math

import pytest

from repro.baselines.dijkstra import dijkstra_distance
from repro.errors import QueryError
from repro.graph.road_network import RoadNetwork
from repro.labeling.h2h import build_h2h
from repro.paths.astar_search import (
    EuclideanHeuristic,
    OracleHeuristic,
    ZeroHeuristic,
    astar_path,
)
from repro.paths.candidates import (
    enumerate_all_paths_within,
    heuristic_for,
    path_distance,
)
from repro.paths.yen import k_shortest_paths


class TestAStarSearch:
    def test_zero_heuristic_is_dijkstra(self, medium_grid, rng):
        n = medium_grid.num_vertices
        for _ in range(20):
            s, t = map(int, rng.integers(0, n, 2))
            _, dist = astar_path(medium_grid, s, t, ZeroHeuristic())
            assert dist == pytest.approx(dijkstra_distance(medium_grid, s, t))

    def test_oracle_heuristic_exact_and_fast(self, medium_grid, rng):
        index = build_h2h(medium_grid)
        n = medium_grid.num_vertices
        for _ in range(20):
            s, t = map(int, rng.integers(0, n, 2))
            heuristic = OracleHeuristic(index, t)
            path, dist = astar_path(medium_grid, s, t, heuristic)
            assert dist == pytest.approx(index.distance(s, t))
            assert path[0] == s and path[-1] == t

    def test_euclidean_heuristic_admissible(self, medium_grid, rng):
        n = medium_grid.num_vertices
        for _ in range(20):
            s, t = map(int, rng.integers(0, n, 2))
            heuristic = EuclideanHeuristic(medium_grid, t)
            _, dist = astar_path(medium_grid, s, t, heuristic)
            assert dist == pytest.approx(dijkstra_distance(medium_grid, s, t))

    def test_euclidean_requires_target_coords(self, triangle_graph):
        with pytest.raises(QueryError):
            EuclideanHeuristic(triangle_graph, 0)

    def test_banned_vertex(self):
        graph = RoadNetwork(4, edges=[(0, 1, 1.0), (1, 3, 1.0),
                                      (0, 2, 2.0), (2, 3, 2.0)])
        path, dist = astar_path(graph, 0, 3, ZeroHeuristic(),
                                banned_vertices={1})
        assert path == [0, 2, 3]
        assert dist == 4.0

    def test_banned_edge(self):
        graph = RoadNetwork(4, edges=[(0, 1, 1.0), (1, 3, 1.0),
                                      (0, 2, 2.0), (2, 3, 2.0)])
        path, _ = astar_path(graph, 0, 3, ZeroHeuristic(),
                             banned_edges={(1, 3)})
        assert path == [0, 2, 3]

    def test_cutoff_abandons(self, medium_grid):
        path, dist = astar_path(medium_grid, 0, medium_grid.num_vertices - 1,
                                ZeroHeuristic(), cutoff=1.0)
        assert path == []
        assert dist == math.inf

    def test_banned_source_unreachable(self, triangle_graph):
        path, dist = astar_path(triangle_graph, 0, 2, ZeroHeuristic(),
                                banned_vertices={0})
        assert path == [] and dist == math.inf


class TestYen:
    @pytest.fixture()
    def diamond(self) -> RoadNetwork:
        return RoadNetwork(4, edges=[(0, 1, 1.0), (1, 3, 1.0),
                                     (0, 2, 2.0), (2, 3, 2.0)])

    def test_enumerates_in_distance_order(self, diamond):
        result = k_shortest_paths(diamond, 0, 3, ZeroHeuristic(),
                                  max_distance=10.0, max_paths=10)
        assert result.distances == sorted(result.distances)
        assert result.paths[0] == [0, 1, 3]
        assert [0, 2, 3] in result.paths

    def test_respects_distance_bound(self, diamond):
        result = k_shortest_paths(diamond, 0, 3, ZeroHeuristic(),
                                  max_distance=2.0, max_paths=10)
        assert result.paths == [[0, 1, 3]]
        assert not result.truncated

    def test_truncation_reported(self, medium_grid):
        result = k_shortest_paths(medium_grid, 0, medium_grid.num_vertices - 1,
                                  ZeroHeuristic(), max_distance=math.inf,
                                  max_paths=3)
        assert len(result) == 3
        assert result.truncated

    def test_paths_simple_and_unique(self, medium_grid):
        index = build_h2h(medium_grid)
        s, t = 0, medium_grid.num_vertices - 1
        bound = index.distance(s, t) * 1.5
        result = k_shortest_paths(medium_grid, s, t, OracleHeuristic(index, t),
                                  max_distance=bound, max_paths=20)
        seen = set()
        for path, dist in zip(result.paths, result.distances):
            assert len(path) == len(set(path))
            assert tuple(path) not in seen
            seen.add(tuple(path))
            assert dist == pytest.approx(path_distance(medium_grid, path))
            assert dist <= bound + 1e-9

    def test_unreachable(self):
        graph = RoadNetwork(3, edges=[(0, 1, 1.0)])
        result = k_shortest_paths(graph, 0, 2, ZeroHeuristic())
        assert len(result) == 0

    def test_invalid_max_paths(self, diamond):
        with pytest.raises(QueryError):
            k_shortest_paths(diamond, 0, 3, ZeroHeuristic(), max_paths=0)


class TestCandidates:
    def test_matches_exhaustive(self, small_grid, rng):
        index = build_h2h(small_grid)
        n = small_grid.num_vertices
        for _ in range(5):
            s, t = map(int, rng.integers(0, n, 2))
            if s == t:
                continue
            bound = index.distance(s, t) * 1.4
            yen = k_shortest_paths(small_grid, s, t,
                                   heuristic_for(small_grid, index, t),
                                   max_distance=bound, max_paths=10_000)
            brute = enumerate_all_paths_within(small_grid, s, t, bound)
            assert sorted(map(tuple, yen.paths)) == sorted(map(tuple, brute.paths))

    def test_heuristic_selection(self, medium_grid, triangle_graph):
        index = build_h2h(medium_grid)
        assert isinstance(heuristic_for(medium_grid, index, 0), OracleHeuristic)
        assert isinstance(heuristic_for(medium_grid, None, 0), EuclideanHeuristic)
        assert isinstance(heuristic_for(triangle_graph, None, 0), ZeroHeuristic)

    def test_exhaustive_self_query(self, small_grid):
        result = enumerate_all_paths_within(small_grid, 2, 2, 10.0)
        assert result.paths == [[2]]

    def test_path_distance_empty(self, small_grid):
        assert path_distance(small_grid, []) == math.inf

"""A* point-to-point search with pluggable admissible heuristics.

Two heuristics are used in the library:

* :class:`OracleHeuristic` — ``h(v) = oracle.distance(v, t)``, the *exact*
  remaining distance from a labeling index.  Admissible and consistent on
  the original graph and on any graph obtained by removing edges/vertices
  (removals only increase true distances), which is exactly what Yen's spur
  searches need.
* :class:`EuclideanHeuristic` — scaled straight-line distance, for the
  index-free A* baseline.  The scale is the minimum weight/length ratio over
  all edges, keeping the heuristic admissible under jittered weights.

The search supports banned vertices and banned edges so Yen's algorithm can
run its deviations without copying the graph.
"""

from __future__ import annotations

import heapq
import math

from repro.errors import QueryError
from repro.graph.road_network import RoadNetwork

__all__ = [
    "AdmissibleHeuristic",
    "EuclideanHeuristic",
    "OracleHeuristic",
    "TableHeuristic",
    "ZeroHeuristic",
    "astar_path",
]


class AdmissibleHeuristic:
    """Interface: a lower bound on the distance to a fixed target."""

    def estimate(self, vertex: int) -> float:
        raise NotImplementedError


class ZeroHeuristic(AdmissibleHeuristic):
    """Degenerates A* to Dijkstra."""

    def estimate(self, vertex: int) -> float:
        del vertex
        return 0.0


class OracleHeuristic(AdmissibleHeuristic):
    """Exact remaining distance from a distance oracle (perfect guidance)."""

    def __init__(self, oracle, target: int) -> None:
        self._oracle = oracle
        self._target = target
        self._cache: dict[int, float] = {}

    def estimate(self, vertex: int) -> float:
        cached = self._cache.get(vertex)
        if cached is None:
            cached = self._oracle.distance(vertex, self._target)
            self._cache[vertex] = cached
        return cached


class TableHeuristic(AdmissibleHeuristic):
    """Exact (hence admissible and consistent) precomputed distance table.

    The scalar face of an oracle's one-to-all ``distances_to`` table: the
    reference iterator reads the same values the flat kernel does.
    """

    def __init__(self, table) -> None:
        self._table = table

    def estimate(self, vertex: int) -> float:
        return float(self._table[vertex])


class EuclideanHeuristic(AdmissibleHeuristic):
    """Scaled straight-line lower bound (requires vertex coordinates)."""

    def __init__(self, graph: RoadNetwork, target: int) -> None:
        if target not in graph.coordinates:
            raise QueryError(f"vertex {target} has no coordinates for A*")
        self._coords = graph.coordinates
        self._tx, self._ty = graph.coordinates[target]
        self._scale = self._admissible_scale(graph)

    @staticmethod
    def _admissible_scale(graph: RoadNetwork) -> float:
        scale = math.inf
        for u, v, w in graph.edges():
            cu = graph.coordinates.get(u)
            cv = graph.coordinates.get(v)
            if cu is None or cv is None:
                return 0.0
            length = math.hypot(cu[0] - cv[0], cu[1] - cv[1])
            if length > 0:
                scale = min(scale, w / length)
        return 0.0 if scale is math.inf else scale

    def estimate(self, vertex: int) -> float:
        coord = self._coords.get(vertex)
        if coord is None:
            return 0.0
        return self._scale * math.hypot(coord[0] - self._tx, coord[1] - self._ty)


def astar_path(
    graph: RoadNetwork,
    source: int,
    target: int,
    heuristic: AdmissibleHeuristic,
    banned_vertices: set[int] | None = None,
    banned_edges: set[tuple[int, int]] | None = None,
    cutoff: float = math.inf,
) -> tuple[list[int], float]:
    """Shortest path avoiding banned vertices/edges; ``([], inf)`` if none.

    ``banned_edges`` entries are undirected (stored as sorted tuples).
    ``cutoff`` abandons the search once even the optimistic estimate of the
    best frontier entry exceeds it.
    """
    n = graph.num_vertices
    if not (0 <= source < n and 0 <= target < n):
        raise QueryError(f"unknown vertices ({source}, {target})")
    banned_vertices = banned_vertices or set()
    if source in banned_vertices or target in banned_vertices:
        return [], math.inf
    banned_edges = banned_edges or set()

    dist = {source: 0.0}
    prev: dict[int, int] = {}
    heap: list[tuple[float, float, int]] = [(heuristic.estimate(source), 0.0, source)]
    while heap:
        f, d, u = heapq.heappop(heap)
        if f > cutoff:
            break
        if u == target:
            path = [target]
            while path[-1] != source:
                path.append(prev[path[-1]])
            path.reverse()
            return path, d
        if d > dist.get(u, math.inf):
            continue
        for v, w in graph.neighbor_items(u):
            if v in banned_vertices:
                continue
            if (min(u, v), max(u, v)) in banned_edges:
                continue
            nd = d + w
            if nd < dist.get(v, math.inf):
                dist[v] = nd
                prev[v] = u
                estimate = nd + heuristic.estimate(v)
                if estimate <= cutoff:
                    heapq.heappush(heap, (estimate, nd, v))
    return [], math.inf

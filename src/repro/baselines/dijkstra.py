"""Dijkstra's algorithm — the correctness reference for every index.

Binary-heap implementation over the adjacency-dict graph; supports
single-source trees, early-exit point-to-point queries and path recovery.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

from repro.errors import QueryError
from repro.graph.road_network import RoadNetwork

__all__ = [
    "dijkstra_distances",
    "dijkstra_distance",
    "dijkstra_path",
    "repair_rows",
    "DijkstraOracle",
]


def dijkstra_distances(
    graph: RoadNetwork,
    source: int,
    targets: set[int] | None = None,
    cutoff: float = math.inf,
) -> np.ndarray:
    """Single-source shortest distances.

    Parameters
    ----------
    targets:
        Optional early-exit set — the search stops once all are settled.
    cutoff:
        Vertices farther than this are left at ``inf``.
    """
    n = graph.num_vertices
    if not 0 <= source < n:
        raise QueryError(f"unknown source vertex {source}")
    dist = np.full(n, math.inf)
    dist[source] = 0.0
    pending = set(targets) if targets is not None else None
    heap: list[tuple[float, int]] = [(0.0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        if pending is not None:
            pending.discard(u)
            if not pending:
                break
        for v, w in graph.neighbor_items(u):
            nd = d + w
            if nd < dist[v] and nd <= cutoff:
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return dist


#: relative slack under which :func:`repair_rows` counts an edge as tight.
#: Rows read off labels may differ from a Dijkstra's float sums in the last
#: bits on non-integral weights, so a near-tie reruns its row (slower, never
#: wrong); on integer weights only exact ties fall within it.
_TIGHT_SLACK = 1e-9


def repair_rows(
    graph: RoadNetwork,
    rows,
    sources,
    u: int,
    v: int,
    old_weight: float,
    new_weight: float,
) -> None:
    """Keep single-source distance rows exact after one edge weight change.

    ``rows[i]`` holds the distances from ``sources[i]`` over ``graph`` as
    they were before ``(u, v)`` went from ``old_weight`` to
    ``new_weight``; ``graph`` already carries the new weight.  ``rows`` is
    a 2-D array or any iterable of 1-D arrays, aligned with ``sources``;
    each row is repaired in place:

    * after a decrease, every path that got shorter uses the edge, so a
      Dijkstra relaxation seeded at whichever endpoint improves lowers
      exactly the entries that drop;
    * after an increase, a row can only change if its shortest-path tree
      may route through the edge, i.e. where the edge was tight
      (``|row[u] - row[v]| == old_weight``); only those rows rerun a full
      Dijkstra (*Stable Tree Labelling*'s affected-label repair, PAPERS.md).
    """
    if new_weight < old_weight:
        for row in rows:
            _relax_decrease(graph, row, u, v, new_weight)
        return
    for row, source in zip(rows, sources):
        du, dv = float(row[u]), float(row[v])
        tol = _TIGHT_SLACK * (1.0 + max(du, dv))
        if abs(du - dv) >= old_weight - tol:
            row[:] = dijkstra_distances(graph, int(source))


def _relax_decrease(
    graph: RoadNetwork, row: np.ndarray, u: int, v: int, w: float
) -> None:
    """Seeded Dijkstra relaxation of one row after ``(u, v)`` fell to ``w``."""
    heap: list[tuple[float, int]] = []
    du, dv = float(row[u]), float(row[v])
    if du + w < dv:
        row[v] = du + w
        heap.append((du + w, v))
    if dv + w < du:
        row[u] = dv + w
        heap.append((dv + w, u))
    while heap:
        d, a = heapq.heappop(heap)
        if d > row[a]:
            continue
        for b, wab in graph.neighbor_items(a):
            nd = d + wab
            if nd < row[b]:
                row[b] = nd
                heapq.heappush(heap, (nd, b))


def dijkstra_distance(graph: RoadNetwork, source: int, target: int) -> float:
    """Point-to-point shortest distance with early exit."""
    n = graph.num_vertices
    if not (0 <= source < n and 0 <= target < n):
        raise QueryError(f"unknown vertices ({source}, {target})")
    if source == target:
        return 0.0
    dist = {source: 0.0}
    heap: list[tuple[float, int]] = [(0.0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if u == target:
            return d
        if d > dist.get(u, math.inf):
            continue
        for v, w in graph.neighbor_items(u):
            nd = d + w
            if nd < dist.get(v, math.inf):
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return math.inf


def dijkstra_path(graph: RoadNetwork, source: int, target: int) -> list[int]:
    """A concrete shortest path; empty list if unreachable."""
    n = graph.num_vertices
    if not (0 <= source < n and 0 <= target < n):
        raise QueryError(f"unknown vertices ({source}, {target})")
    if source == target:
        return [source]
    dist = {source: 0.0}
    prev: dict[int, int] = {}
    heap: list[tuple[float, int]] = [(0.0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if u == target:
            path = [target]
            while path[-1] != source:
                path.append(prev[path[-1]])
            path.reverse()
            return path
        if d > dist.get(u, math.inf):
            continue
        for v, w in graph.neighbor_items(u):
            nd = d + w
            if nd < dist.get(v, math.inf):
                dist[v] = nd
                prev[v] = u
                heapq.heappush(heap, (nd, v))
    return []


class DijkstraOracle:
    """Index-free distance oracle (the A*/Dijkstra rows of the paper).

    Exposes the same ``distance``/``path`` interface as the label indexes so
    the FSPQ engine can run the straightforward baselines.
    """

    def __init__(self, graph: RoadNetwork) -> None:
        self.graph = graph

    def distance(self, u: int, v: int) -> float:
        return dijkstra_distance(self.graph, u, v)

    def path(self, u: int, v: int) -> list[int]:
        return dijkstra_path(self.graph, u, v)

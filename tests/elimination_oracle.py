"""Frozen dict-loop reference for the elimination game.

``oracle_elimination_steps`` and ``oracle_eliminate`` are the pure-Python
dict-and-lazy-heap loop as it stood before the elimination gained its dense
numpy phase, kept verbatim (renamed only) so property tests can check that
the production game still returns the same order, φ values, ordered bags
and middles, and leaves the same ordered working state behind.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.errors import IndexBuildError
from repro.graph.road_network import RoadNetwork
from repro.treedec.elimination import EliminationResult
from repro.treedec.ordering import ImportanceFunction

__all__ = ["oracle_eliminate", "oracle_elimination_steps"]


def oracle_elimination_steps(
    adj: list[dict[int, float]],
    mids: list[dict[int, int | None]],
    importance: ImportanceFunction,
    active: set[int],
) -> tuple[list[int], list[float], dict[int, dict[int, float]],
           dict[int, dict[int, int | None]]]:
    """Eliminate every vertex of ``active`` from the given state, in place.

    This is the elimination core shared by full construction and the ISU/GSU
    maintenance paths (which resume from a reconstructed prefix state and
    may restrict elimination to a rank window).  Vertices outside ``active``
    stay in the graph; shortcuts among them are still added when an active
    vertex is removed.

    Returns ``(order, phi, bags, middles)`` for the eliminated vertices.
    """
    heap: list[tuple[float, int]] = []
    for v in active:
        heapq.heappush(heap, (importance(v, len(adj[v])), v))

    remaining = set(active)
    order: list[int] = []
    phi: list[float] = []
    bags: dict[int, dict[int, float]] = {}
    middles: dict[int, dict[int, int | None]] = {}

    while heap:
        value, v = heapq.heappop(heap)
        if v not in remaining:
            continue
        current = importance(v, len(adj[v]))
        if current != value:
            # stale entry; push the fresh value and retry
            heapq.heappush(heap, (current, v))
            continue

        remaining.discard(v)
        order.append(v)
        phi.append(current)
        bag = adj[v]
        bags[v] = dict(bag)
        middles[v] = {x: mids[v][x] for x in bag}

        nbrs = list(bag.items())
        touched: set[int] = set()
        for i, (x, wx) in enumerate(nbrs):
            del adj[x][v]
            del mids[x][v]
            touched.add(x)
            for y, wy in nbrs[i + 1:]:
                shortcut = wx + wy
                existing = adj[x].get(y)
                if existing is None or shortcut < existing:
                    adj[x][y] = shortcut
                    adj[y][x] = shortcut
                    mids[x][y] = v
                    mids[y][x] = v
                    touched.add(y)
        adj[v] = {}
        mids[v] = {}

        for x in touched:
            if x in remaining:
                heapq.heappush(heap, (importance(x, len(adj[x])), x))

    return order, phi, bags, middles


def oracle_eliminate(
    graph: RoadNetwork,
    importance: ImportanceFunction,
) -> EliminationResult:
    """Run the elimination game under ``importance`` (smallest first).

    Ties break on vertex id, making the ordering — and everything downstream
    — deterministic.
    """
    n = graph.num_vertices
    if n == 0:
        raise IndexBuildError("cannot eliminate an empty graph")

    adj: list[dict[int, float]] = [dict(graph.adjacency(v)) for v in range(n)]
    mids: list[dict[int, int | None]] = [dict.fromkeys(adj[v], None) for v in range(n)]

    order, phi, bag_map, middle_map = oracle_elimination_steps(
        adj, mids, importance, set(range(n))
    )
    if len(order) != n:
        raise IndexBuildError("elimination did not cover every vertex")
    rank = np.full(n, -1, dtype=np.int64)
    bags: list[dict[int, float]] = [{} for _ in range(n)]
    middles: list[dict[int, int | None]] = [{} for _ in range(n)]
    for r, v in enumerate(order):
        rank[v] = r
        bags[v] = bag_map[v]
        middles[v] = middle_map[v]
    return EliminationResult(
        order=order,
        rank=rank,
        bags=bags,
        middles=middles,
        phi_at_elim=np.asarray(phi, dtype=np.float64),
    )

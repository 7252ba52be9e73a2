"""The elimination game: vertex ordering + bags + fill-in shortcuts.

Eliminating a vertex ``v`` records its *bag* — ``v`` plus its neighbours in
the current (partially eliminated) graph — and adds a clique over those
neighbours with *shortcut weights* ``w(x, y) <- min(w(x, y), w(v, x) + w(v,
y))``.  The bags, ordered by elimination rank, define the tree decomposition
(Def. 6) and the shortcut weights make the hierarchical-label dynamic
program exact (as in H2H / CH).

Besides bags, the result keeps ``middles`` — for every bag edge, the
eliminated vertex that realised its shortcut weight (``None`` for original
edges) — used to unpack label queries into concrete vertex paths.

Intermediate elimination states (what ISU/GSU resume from) are not logged;
they are *reconstructed* from the current bags by :func:`replay_prefix`.
Reconstruction — rather than a recorded change log — keeps maintenance
correct when ILU weight repairs have rewritten bag weights since
construction: the state after ``k`` eliminations is fully determined by the
current base weights plus the (repaired) bags of the first ``k`` vertices,
because eliminating ``c`` contributes exactly ``bags[c][x] + bags[c][y]``
to each pair ``(x, y)`` of its bag.

The game runs in two phases inside one call.  Low-degree vertices go
through a dict-and-lazy-heap loop; once the vertex about to go has a bag of
:data:`DENSE_BAG` entries and the rest of the game has at least
:data:`DENSE_MIN_CORE` vertices and fits :data:`DENSE_MAX_BYTES`, the
remaining core moves onto k×k numpy matrices (weights, middles, insertion
stamps) and each elimination becomes one argmin and one block update.
Both phases give the same order, φ values and ordered bags, bit for bit
(docs/ALGORITHMS.md §1).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.errors import IndexBuildError
from repro.graph.road_network import RoadNetwork
from repro.treedec.ordering import ImportanceFunction

__all__ = [
    "EliminationResult",
    "eliminate",
    "relax_from_bag",
    "replay_prefix",
    "run_elimination_steps",
]

#: Bag size that hands the rest of the game to the dense phase.  At NYC×4
#: the vertices eliminated after the first 16-entry bag are 22% of the
#: order but hold 96% of Σ|bag|²; of 4/8/16/32/64, 16 is the fastest at
#: NYC×2 and within 2% of the fastest at ×4 and ×8.
DENSE_BAG = 16
#: Cap on the dense phase's three k×k matrices: 32 MiB, so k ≤ 1448.  The
#: matrices are freed before labelling, so the NYC×4 build still peaks at
#: 129 MB RSS (126 MB without them), under that graph's serving peak.
DENSE_MAX_BYTES = 32 << 20
#: Bytes per core cell: float64 weight, int32 middle, int32 stamp.
DENSE_CELL_BYTES = 8 + 4 + 4
#: Least share of the core that must still be eliminated: building and
#: writing back the matrices costs O(k²), which a 5-vertex ISU window in
#: the NYC×4 tail cannot repay (90 ms dense against 1 ms in the dict loop).
DENSE_ACTIVE_SHARE = 0.5
#: Least core size: a dense step costs ~80 µs of numpy calls whatever its
#: bag, which only large bags repay.  Full NYC builds cross over near
#: k = 300 (×0.8, k = 260: 33.1 ms dense against 31.6 ms in the dict loop;
#: ×1.2, k = 411: 56.5 against 65.7), and a ~460-vertex shard (k ≈ 40)
#: pays a third more dense.
DENSE_MIN_CORE = 300


@dataclass
class EliminationResult:
    """Everything the elimination game produced.

    Attributes
    ----------
    order:
        Vertices in elimination order (ascending importance; last = root).
    rank:
        ``rank[v]`` = position of ``v`` in ``order``.
    bags:
        ``bags[v]`` maps each bag neighbour of ``v`` (all eliminated later)
        to the shortcut weight at ``v``'s elimination time.
    middles:
        ``middles[v][x]`` is the vertex whose elimination realised the
        shortcut ``(v, x)``, or ``None`` for an original graph edge.
    phi_at_elim:
        ``phi_at_elim[r]`` — the importance value of ``order[r]`` at the
        moment it was eliminated.  Lemma 1 / ISU compare a re-scored vertex
        against these to decide whether the ordering sequence changed.
    """

    order: list[int]
    rank: np.ndarray
    bags: list[dict[int, float]]
    middles: list[dict[int, int | None]]
    phi_at_elim: np.ndarray = field(default_factory=lambda: np.empty(0))

    @property
    def treewidth(self) -> int:
        """``max |bag| - 1`` over all bags (bag includes the vertex itself)."""
        return max((len(bag) for bag in self.bags), default=0)


def run_elimination_steps(
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
    # the current φ of every remaining active vertex; each one's value is
    # always queued, so a popped entry that disagrees is simply stale
    remaining = {v: importance(v, len(adj[v])) for v in active}
    heap = [(value, v) for v, value in remaining.items()]
    heapq.heapify(heap)

    order: list[int] = []
    phi: list[float] = []
    bags: dict[int, dict[int, float]] = {}
    middles: dict[int, dict[int, int | None]] = {}
    # inactive vertices holding an edge, listed at the first large bag; the
    # set only shrinks, so its length bounds their share of the core later
    outside: list[int] | None = None
    dense_tried = False

    while heap:
        value, v = heapq.heappop(heap)
        if remaining.get(v) != value:
            continue

        bag = adj[v]
        if len(bag) >= DENSE_BAG and not dense_tried:
            if outside is None:
                outside = [x for x, nbrs in enumerate(adj) if nbrs and x not in active]
            size = len(remaining) + len(outside)
            if size < DENSE_MIN_CORE:
                dense_tried = True  # and it only shrinks from here
            elif (DENSE_CELL_BYTES * size * size <= DENSE_MAX_BYTES
                    and len(remaining) >= DENSE_ACTIVE_SHARE * size):
                dense_tried = True
                core = sorted(remaining.keys() | {x for x in outside if adj[x]})
                if _finish_dense(adj, mids, importance, core, remaining,
                                 (order, phi, bags, middles)):
                    break

        del remaining[v]
        order.append(v)
        phi.append(value)
        bags[v] = dict(bag)
        via = mids[v]
        middles[v] = {x: via[x] for x in bag}

        nbrs = list(bag.items())
        for i, (x, wx) in enumerate(nbrs):
            adj_x = adj[x]
            mids_x = mids[x]
            del adj_x[v]
            del mids_x[v]
            for y, wy in nbrs[i + 1:]:
                shortcut = wx + wy
                existing = adj_x.get(y)
                if existing is None or shortcut < existing:
                    adj_x[y] = shortcut
                    adj[y][x] = shortcut
                    mids_x[y] = v
                    mids[y][x] = v
        adj[v] = {}
        mids[v] = {}

        # every bag member lost v, so only they can have a new φ
        for x in bag:
            if x in remaining:
                value = importance(x, len(adj[x]))
                if value != remaining[x]:
                    remaining[x] = value
                    heapq.heappush(heap, (value, x))

    return order, phi, bags, middles


def _finish_dense(
    adj: list[dict[int, float]],
    mids: list[dict[int, int | None]],
    importance: ImportanceFunction,
    core: list[int],
    remaining: dict[int, float],
    out: tuple[list[int], list[float], dict[int, dict[int, float]],
               dict[int, dict[int, int | None]]],
) -> bool:
    """Eliminate the ``remaining`` active vertices on matrices over ``core``.

    ``core`` (ascending ids) holds every vertex still carrying an edge plus
    the remaining active ones.  Each step is the dict loop's step, bit for
    bit: the argmin of (φ, id) is the lazy heap's valid pop, the block
    update keeps the strict ``<`` and its middle, and insertion stamps
    ``(step, position in the eliminated bag)`` replay every dict's
    insertion order.  A stamp's low bit marks an ``int`` cell, so every
    value comes back with the type the dict loop's sum gives it (in a
    core of one type the bit is constant; a mixed one updates it).  Appends
    to ``out`` and writes the surviving inactive vertices' adjacency back
    into ``adj``/``mids``.  Returns ``False``, changing nothing, when a
    weight is not a Python ``int`` or ``float`` or float64 could not hold
    every shortcut exactly.
    """
    k = len(core)
    local = {v: i for i, v in enumerate(core)}
    rows: list[int] = []
    cols: list[int] = []
    weights: list[float] = []
    vias: list[int] = []
    stamps: list[int] = []
    for i, v in enumerate(core):
        nbrs = adj[v]
        via = mids[v]
        rows += [i] * len(nbrs)
        cols += map(local.__getitem__, nbrs)
        weights += nbrs.values()
        vias += [-1 if via[x] is None else via[x] for x in nbrs]
        stamps += [2 * p + (type(w) is int) for p, w in enumerate(nbrs.values())]
    kinds = set(map(type, weights))
    if not kinds <= {int, float}:
        return False
    # every shortcut is a sum of core weights, so this bound keeps each int
    # sum exact, as Python's int sums are, and each float sum finite (+inf
    # marks a missing edge here)
    if not 2 * sum(weights) < (2.0**53 if int in kinds else np.inf):
        return False
    mixed = len(kinds) == 2
    bit = int(kinds == {int})

    obs.gauge(
        "repro_build_dense_core_vertices",
        "vertices in the elimination's last dense core",
    ).set(k)
    ids = np.asarray(core, dtype=np.int64)
    W = np.full((k, k), np.inf)
    M = np.zeros((k, k), dtype=np.int32)
    S = np.zeros((k, k), dtype=np.int32)
    W[rows, cols] = weights
    M[rows, cols] = vias
    S[rows, cols] = stamps
    deg = np.bincount(np.asarray(rows, dtype=np.int64), minlength=k)
    live = np.fromiter((v in remaining for v in core), dtype=bool, count=k)
    was_active = live.copy()
    imp = np.full(k, np.inf)
    imp[live] = importance(ids[live], deg[live])

    # one int object per vertex id, shared by every dict that names it, as
    # in the dict loop: fresh objects per entry would cost ~4 MB at NYC×4
    vertex = list(range(len(adj)))

    def row(i: int) -> tuple[np.ndarray, dict, dict]:
        # row i's neighbours in dict order, and its weight and middle dicts
        nbr = np.flatnonzero(W[i] < np.inf)
        stamp = S[i, nbr]
        rank = np.argsort(stamp)
        nbr = nbr[rank]
        keys = [core[j] for j in nbr.tolist()]
        w = W[i, nbr]
        if mixed:
            kind = stamp[rank].tolist()
            w = [int(x) if t & 1 else x for x, t in zip(w.tolist(), kind)]
        else:
            w = (w.astype(np.int64) if bit else w).tolist()
        via = [None if m < 0 else vertex[m] for m in M[i, nbr].tolist()]
        return nbr, dict(zip(keys, w)), dict(zip(keys, via))

    order, phi, bags, middles = out
    for step in range(1, len(remaining) + 1):
        a = int(np.argmin(imp))
        v = core[a]
        nbr, bags[v], middles[v] = row(a)
        order.append(v)
        phi.append(float(imp[a]))

        w = W[a, nbr]
        cells = nbr[:, None] * k + nbr
        old = W.take(cells)
        shortcut = w[:, None] + w
        better = shortcut < old
        np.fill_diagonal(better, False)
        W.put(cells[better], shortcut[better])
        M.put(cells[better], v)
        inserted = better & (old == np.inf)
        S.put(cells[inserted], 2 * (step * k + np.nonzero(inserted)[1]) + bit)
        if mixed:
            # an improved cell keeps its stamp and takes its sum's type:
            # int only for int + int
            integral = S[a, nbr] & 1
            fixed = cells[better]
            S.put(fixed, (S.take(fixed) & ~1) | (integral[:, None] & integral)[better])
        W[a, nbr] = np.inf
        W[nbr, a] = np.inf
        deg[nbr] += inserted.sum(axis=1) - 1

        imp[a] = np.inf
        live[a] = False
        rescore = nbr[live[nbr]]
        imp[rescore] = importance(ids[rescore], deg[rescore])

    for i, v in enumerate(core):
        if was_active[i]:
            adj[v] = {}
            mids[v] = {}
        else:
            _, adj[v], mids[v] = row(i)
    return True


def eliminate(
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

    order, phi, bag_map, middle_map = run_elimination_steps(
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


def relax_from_bag(
    adj: list[dict[int, float]],
    mids: list[dict[int, int | None]],
    bag: dict[int, float],
    middle: int,
    remaining: set[int],
) -> None:
    """Apply one eliminated vertex's fill contributions to a working state.

    Relaxes every pair of ``bag`` members that survive in ``remaining`` with
    the shortcut weight through ``middle``.  Processing eliminated vertices
    in ascending rank reproduces exactly the fill weights (and a consistent
    middle assignment) of the real elimination under the *current* bag
    weights.
    """
    members = [(x, w) for x, w in bag.items() if x in remaining]
    for i, (x, wx) in enumerate(members):
        for y, wy in members[i + 1:]:
            shortcut = wx + wy
            existing = adj[x].get(y)
            if existing is None or shortcut < existing:
                adj[x][y] = shortcut
                adj[y][x] = shortcut
                mids[x][y] = middle
                mids[y][x] = middle


def replay_prefix(
    graph: RoadNetwork,
    result: EliminationResult,
    steps: int,
) -> tuple[list[dict[int, float]], list[dict[int, int | None]]]:
    """Reconstruct the elimination-graph state after ``steps`` eliminations.

    Built from the current graph weights and the current (possibly
    ILU-repaired) bags of the first ``steps`` vertices — no recorded change
    log, so the reconstruction stays correct after arbitrary interleaved
    weight maintenance.  Returns the adjacency and middle maps over the
    *remaining* vertices, ready for :func:`run_elimination_steps`.
    """
    n = graph.num_vertices
    if not 0 <= steps <= n:
        raise IndexBuildError(f"steps must be in [0, {n}], got {steps}")
    remaining = set(result.order[steps:])
    adj: list[dict[int, float]] = [{} for _ in range(n)]
    mids: list[dict[int, int | None]] = [{} for _ in range(n)]
    for v in remaining:
        for x, w in graph.adjacency(v).items():
            if x in remaining:
                adj[v][x] = w
                mids[v][x] = None
    for r in range(steps):
        c = result.order[r]
        relax_from_bag(adj, mids, result.bags[c], c, remaining)
    return adj, mids

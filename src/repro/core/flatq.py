"""Flat single-query FSPQ kernel over the packed label arena.

An FSPQ query's time goes to candidate collection (Yen spur searches) and
to the A* heuristic table.  On the serving benchmark's ``citywide_closed``
workload (``servebench/``, traced, seed 1, 2 CPUs) the kernel runs about
1.2 A* searches per query, and on random NYC×2 FAHL-W queries it
certifies about 3.9 spurs.  The kernel's own work is about 66% of
request time there, and the heuristic tables, swept 32 targets at a
time by the batch path, about 23% (traced as ``core.batch`` self time).
Each reference spur search spends most of its time in per-vertex Python
work: heuristic calls into the oracle, dict-based distance maps, and
banned-edge set construction that rescans every accepted path.
:class:`FlatQueryKernel`
is a *path source* that keeps the exact algorithm — its stream is
**bit-identical** to :func:`repro.paths.yen.iter_shortest_paths` driven by an
:class:`~repro.paths.astar_search.OracleHeuristic` — but restructures the
state so the per-vertex work collapses:

* the A* heuristic ``h(v) = dis(v, target)`` becomes one vectorised
  one-to-all table — the oracle's ``distances_to``: a top-down bag sweep
  over the packed :class:`~repro.labeling.arena.LabelArena` for a
  :class:`~repro.labeling.hierarchy.HierarchyIndex`, the boundary-table
  column combine for the sharded gateway's cross-shard oracle — instead
  of one scalar oracle call per visited vertex, cached per target (at
  most :data:`_H_CACHE` tables, dropped together when full).  A batch
  first hands over the targets of each slice (:meth:`prefetch`); a
  hierarchy index sweeps all their tables in one multi-target pass, and
  each row waits as a float64 array until its target's first query
  takes it.  Batches are target-grouped, so a table is read only while
  its group runs and a deeper cache would buy no reuse;
* A* runs on a prebuilt adjacency list (``neighbor_items`` order preserved,
  undirected edge ids precomputed) with stamped distance/parent arrays —
  no dict lookups, no per-search allocation;
* Yen runs in Lawler's order (Management Science, 1972): an accepted
  path spurs only from the index where it left its parent, because the
  reference's spurs before it repeat searches already made.  Banned
  edges live in a trie of the accepted paths (per root: children and
  banned edge ids); a path reuses its parent's nodes up to its
  deviation point, and the root's vertex set grows by one per spur;
* a one-step lookahead lower bound skips spur searches that provably
  cannot yield a candidate within the distance bound;
* every other spur search is *postponed* (the PNC form of node
  classification, Al Zoobi, Coudert & Nisse, SEA 2020): the spur waits
  in the candidate frontier keyed by its lookahead bound (shrunk by its
  float rounding error while any weight is non-integral) and is searched
  only when it reaches the top.  A consumer that stops after a few
  candidates, as the FAHL-W dominance stop does, never searches the
  rest, and no pull-budget rule is needed;
* most searched spurs are *certified* instead of searched (the
  node-classification idea of Feng, Networks 2014).  Because ``h`` is
  exact, a hop ``x -> v`` is on a shortest path to the target exactly
  when ``w + h[v] == h[x]`` (tight).  When the spur's cheapest allowed
  first hop is a strict minimum and the walk from it has a unique tight
  hop at every vertex and never re-enters the root, that path is the
  *unique* shortest path of the restricted graph (banned edges all
  leave the spur vertex, so the tail avoids them), and A* with the
  consistent heuristic ``h`` must return exactly it.  With integral
  weights every path sum is an exact float64 integer, so its cost
  ``w + h[first]`` equals A*'s forward sum bit for bit.  Any tie, dead
  end, root re-entry or non-integral weight falls back to A*.

Every optimisation above is output-invariant: a spur Lawler's order
drops repeats an earlier search, a skipped spur's candidate would
exceed the distance bound, a postponed spur is searched before any
candidate that follows its own in the eager order and with the banned
set an eager search would see (:meth:`FlatQueryKernel.iter_paths`), and
a certified spur is the one path A* would return.
``tests/test_property_flat_kernel.py`` pins this down against the
scalar path (answers, also straight after ILU/ISU/GSU maintenance, and
raw streams under pull budgets and after early closes), and
``tests/test_spur_certificate.py`` checks every certified spur against
A* directly.

The kernel snapshots the oracle's ``label_version`` and the graph's
``mutation_version`` at build time, and reads every heuristic table
through the oracle's ``distances_to`` / ``distances_to_many``.  The
engine rebuilds the kernel whenever the graph's version moves, and
rebinds it (:meth:`FlatQueryKernel.rebind`: same rows, no tables) to a
new oracle or label version, so maintenance and every live weight change
transparently invalidate the cached adjacency and heuristic tables.
Any oracle with ``distances_to``, ``label_version`` and the engine's
``graph`` can drive it; for one whose scalar ``heuristic`` factory reads
the same tables the streams agree by construction.
"""

from __future__ import annotations

import heapq
import math
from typing import TYPE_CHECKING, Iterator

import numpy as np

from repro.paths.candidates import Candidates, DominanceStop, collect_candidates

if TYPE_CHECKING:
    from repro.graph.frn import FlowAwareRoadNetwork

__all__ = ["FlatQueryKernel"]

_INF = math.inf
#: heuristic tables kept per kernel; each is a Python-float list of length
#: n, so a deep cache costs peak memory and buys no reuse
_H_CACHE = 8
#: float64 adds integers exactly below 2**53; a weight w with w * n under
#: it keeps every simple-path sum (fewer than n edges) an exact integer
_EXACT_SUM = float(2 ** 53)


def _exact_weight(w: float, n: int) -> bool:
    """Whether ``w`` keeps every path sum on an ``n``-vertex graph exact."""
    return float(w).is_integer() and w * n < _EXACT_SUM


class FlatQueryKernel:
    """Flat-array candidate enumeration for one (index, FRN) pair.

    Parameters
    ----------
    index:
        An oracle over exactly ``frn.graph`` with ``distances_to(target)``
        (exact one-to-all distances, entry ``v`` equal to
        ``distance(v, target)``), ``distance(u, v)`` and a
        ``label_version`` that moves whenever a table entry can without
        a graph weight moving: a
        :class:`~repro.labeling.hierarchy.HierarchyIndex` (FAHL or H2H),
        a stable-labels-plus-corrections wrapper over one, or the sharded
        gateway's boundary oracle.  An optional ``distances_to_many``
        serves :meth:`prefetch`.  Its tables feed the A* heuristic, so
        the kernel's A* sees the same admissible heuristic values as the
        scalar reference path.
    frn:
        The flow-aware road network the engine queries.

    Attributes
    ----------
    version, graph_version:
        ``index.label_version`` at the last (re)bind and the graph's
        ``mutation_version`` at build time.  The engine rebinds the
        kernel when the first moves and rebuilds it when the second does:
        an ILU that raises an off-shortest-path edge weight leaves every
        label untouched, yet the adjacency rows hold the old weight.
    stats:
        Monotone counters (A* searches run, spurs skipped / certified,
        heuristic tables built) — exported to ``repro.obs`` by the
        engine; ``spur_memo_hits`` is deprecated and stays 0.  Every spur
        is counted once, as an A* run, a certificate or a skip (never
        searched: over the distance bound, or still postponed when its
        stream closed).
    """

    def __init__(self, index, frn: "FlowAwareRoadNetwork") -> None:
        graph = frn.graph
        n = graph.num_vertices
        self.index = index
        self.frn = frn
        self.num_vertices = n
        self.version = index.label_version
        self.graph_version = graph.mutation_version
        # adjacency rows in neighbor_items order (A* must expand neighbours
        # in exactly the same sequence as the reference search), annotated
        # with undirected edge ids so banned-edge checks are int-set probes
        eid: dict[tuple[int, int], int] = {}
        adj: list[list[tuple[int, float, int]]] = []
        wmap: dict[tuple[int, int], float] = {}
        exact = True
        for u in range(n):
            row = []
            for v, w in graph.neighbor_items(u):
                key = (u, v) if u < v else (v, u)
                e = eid.get(key)
                if e is None:
                    e = eid[key] = len(eid)
                    exact = exact and _exact_weight(w, n)
                row.append((v, w, e))
                wmap[(u, v)] = w
            adj.append(row)
        self.adj = adj
        self.eid = eid
        self.wmap = wmap
        # spur certificates are sound only while every path sum is exact
        self.exact = exact
        # stamped search state reused across every A* run (token bump = O(1)
        # reset); lists beat numpy here — access is scalar, not vectorised
        self._dist: list[float] = [_INF] * n
        self._prev: list[int] = [0] * n
        self._stamp: list[int] = [0] * n
        self._token = 0
        # target -> heuristic table as a Python-float list
        self._h_cache: dict[int, list[float]] = {}
        # target -> float64 row of a prefetched block, until h_to takes it
        self._pending: dict[int, np.ndarray] = {}
        self.stats = {
            "astar_runs": 0,
            "spur_memo_hits": 0,
            "spur_skips": 0,
            "spur_certified": 0,
            "heuristic_builds": 0,
        }

    def rebind(self, index) -> None:
        """Serve ``index`` at its current label version on the same rows.

        The adjacency rows, edge ids, weights and :attr:`exact` depend on
        the graph alone, so a new oracle or label version over an
        unchanged graph keeps them; only the heuristic tables, read off
        the oracle, are dropped.
        """
        self.index = index
        self.version = index.label_version
        self.drop_tables()

    def drop_tables(self) -> None:
        """Forget every cached and prefetched heuristic table."""
        self._h_cache = {}
        self._pending = {}

    # ------------------------------------------------------------------
    # heuristics / distances
    # ------------------------------------------------------------------
    def h_to(self, target: int) -> list[float]:
        """The admissible heuristic table toward ``target`` (cached).

        One vectorised one-to-all table, ``index.distances_to(target)``
        (or its prefetched row); entry ``h[v]`` is bit-identical to
        ``index.distance(v, target)`` (the documented guarantee of
        ``distances_to``), so A* pops vertices in exactly the order the
        scalar ``OracleHeuristic`` search would.
        """
        h = self._h_cache.get(target)
        if h is None:
            if len(self._h_cache) >= _H_CACHE:
                self._h_cache.clear()
            table = self._pending.pop(target, None)
            if table is None:
                table = self.index.distances_to(target)
            h = self._h_cache[target] = table.tolist()
            self.stats["heuristic_builds"] += 1
        return h

    def prefetch(self, targets) -> None:
        """Sweep the tables of several targets at once, for :meth:`h_to`.

        Targets neither cached nor pending are swept in one
        ``index.distances_to_many`` pass, and the block's rows wait in a
        pending map until :meth:`h_to` takes each (one ``tolist``).
        Pending rows of targets outside ``targets`` are dropped, so the
        map never holds more than one call's targets.  A no-op when the
        oracle has no ``distances_to_many`` or when fewer than two
        targets are missing.  Every target must be a valid vertex id.
        """
        sweep = getattr(self.index, "distances_to_many", None)
        if sweep is None:
            return
        wanted = dict.fromkeys(targets)
        pending = {t: self._pending[t] for t in wanted if t in self._pending}
        missing = [
            t for t in wanted if t not in self._h_cache and t not in pending
        ]
        self._pending = pending
        if len(missing) > 1:
            pending.update(zip(missing, sweep(missing)))

    def distance(self, u: int, v: int) -> float:
        """Exact ``SPDis(u, v)``, served from a cached table when one exists."""
        h = self._h_cache.get(v)
        if h is not None:
            return h[u]
        return self.index.distance(u, v)

    # ------------------------------------------------------------------
    # spur certificates
    # ------------------------------------------------------------------
    def _spur_lookahead(
        self,
        spur: int,
        rootset: set[int],
        banned_e: set[int],
        h: list[float],
    ) -> tuple[float, int]:
        """Cheapest allowed first hop of a spur search: ``(w + h[v], v)``.

        ``v`` is ``-1`` unless the minimum is strict.  Since ``h`` is exact,
        the cost is a tight lower bound on the spur search's answer, and
        equals it when :meth:`_certify_spur` accepts ``v``.
        """
        cost = _INF
        first = -1
        for v, w, e in self.adj[spur]:
            if e not in banned_e and v not in rootset:
                est = w + h[v]
                if est < cost:
                    cost = est
                    first = v
                elif est == cost:
                    first = -1
        return cost, first

    def _certify_spur(
        self,
        spur: int,
        first: int,
        cost: float,
        rootset: set[int],
        h: list[float],
        target: int,
    ) -> tuple[list[int], float] | None:
        """The spur search's answer when the shortest-path tree proves it.

        ``first`` is the strict cheapest first hop from
        :meth:`_spur_lookahead`.  Walk tight hops (``w + h[v] == h[x]``)
        from it to ``target``; every tail vertex must have exactly one, and
        the tail must not re-enter the root (``rootset`` or ``spur``).
        Banned edges all leave ``spur``, so such a tail avoids them too.
        The restricted shortest path is then unique, so A* with the
        consistent heuristic ``h`` returns exactly this path.  With
        integral weights every sum is exact, so the total ``cost`` equals
        A*'s forward sum bit for bit.  Returns ``None`` on a tie, a dead
        end or a root re-entry, where uniqueness is not proven.
        """
        adj = self.adj
        path = [spur, first]
        x = first
        while x != target:
            hx = h[x]
            nxt = -1
            for v, w, _ in adj[x]:
                if w + h[v] == hx:
                    if nxt >= 0:
                        return None
                    nxt = v
            if nxt < 0 or nxt == spur or nxt in rootset:
                return None
            path.append(nxt)
            x = nxt
        return path, cost

    # ------------------------------------------------------------------
    # search
    # ------------------------------------------------------------------
    def _astar(
        self,
        source: int,
        target: int,
        h: list[float],
        banned_v: set[int],
        banned_e: set[int],
        cutoff: float,
    ) -> tuple[list[int] | None, float]:
        """A* on the flat adjacency; mirrors ``astar_path`` operation for
        operation (same pops, same pushes, same tie-breaking)."""
        if source in banned_v or target in banned_v:
            return None, _INF
        self.stats["astar_runs"] += 1
        adj = self.adj
        dist = self._dist
        prev = self._prev
        stamp = self._stamp
        self._token += 1
        token = self._token
        dist[source] = 0.0
        stamp[source] = token
        heap: list[tuple[float, float, int]] = [(h[source], 0.0, source)]
        pop = heapq.heappop
        push = heapq.heappush
        while heap:
            f, d, u = pop(heap)
            if f > cutoff:
                break
            if u == target:
                path = [target]
                x = target
                while x != source:
                    x = prev[x]
                    path.append(x)
                path.reverse()
                return path, d
            if stamp[u] == token and d > dist[u]:
                continue
            for v, w, e in adj[u]:
                if v in banned_v or e in banned_e:
                    continue
                nd = d + w
                if stamp[v] != token or nd < dist[v]:
                    dist[v] = nd
                    stamp[v] = token
                    prev[v] = u
                    est = nd + h[v]
                    if est <= cutoff:
                        push(heap, (est, nd, v))
        return None, _INF

    def _search_spur(
        self,
        spur_entry: tuple,
        h: list[float],
        target: int,
        max_distance: float,
        exact: bool,
    ) -> tuple | None:
        """Search a postponed spur; its candidate's frontier entry or ``None``.

        Certified when ``exact`` and the lookahead's first hop is strict
        (:meth:`_certify_spur`), else A* with the usual cutoff.  The
        candidate keeps the spur's ``seq``.
        """
        _, seq, _, base, nodes, i, prefix_cost, cost, first = spur_entry
        spur = base[i]
        rootset = set(base[:i])
        hit = None
        if first >= 0 and exact:
            hit = self._certify_spur(spur, first, cost, rootset, h, target)
        if hit is None:
            hit = self._astar(
                spur, target, h, rootset, nodes[i][1], max_distance - prefix_cost
            )
        else:
            self.stats["spur_certified"] += 1
        spur_path, spur_dist = hit
        if not spur_path:
            return None
        total = prefix_cost + spur_dist
        if total > max_distance:
            return None
        return (total, seq, base[:i] + spur_path, nodes, i, prefix_cost)

    def iter_paths(
        self,
        source: int,
        target: int,
        max_distance: float,
    ) -> Iterator[tuple[list[int], float]]:
        """Loopless paths in non-decreasing distance order (lazy Yen).

        The yielded ``(path, distance)`` stream is bit-identical to
        :func:`repro.paths.yen.iter_shortest_paths` under an oracle
        heuristic; a consumer ends it by closing the generator.

        Lawler's order: a path that left its parent at index ``i`` spurs
        at ``i..L-2`` only.  At ``j < i`` its root and its edge are the
        parent's, so the root's banned set is unchanged; a root's banned
        set grows only at or after an accepted path's deviation index, and
        that path's loop spurs it.  So each (root, banned set) is searched
        once; the reference's repeats re-find queued candidates.

        Postponed spurs (Al Zoobi, Coudert & Nisse, SEA 2020): a spur
        whose lookahead bound ``lb`` fits the distance bound is not
        searched yet.  It enters the frontier keyed ``(lb, seq)``, with
        ``seq`` a creation counter, and is searched only when it reaches
        the top; its candidate re-enters under ``(total, seq)``.  ``lb``
        never exceeds that total, and an eager search numbers candidates
        in creation order, so paths pop in exactly the eager
        ``(total, counter)`` order.  A trie node's banned set cannot grow
        while its spur is pending: every child edge of the node is already
        banned, so only the node's own pending candidate can add one.  A
        late search therefore sees the banned set an eager one would have.
        No candidate repeats a path: a yielded path is expanded into the
        trie before any later search runs, and a spur at node ``N`` bans
        every child edge of ``N`` and avoids the root, so its candidate
        leaves every path through ``N`` there; nor can two queued
        candidates coincide, since ``N`` gains a child only when its own
        candidate pops.  With a non-integral weight, ``lb`` and a total
        are float sums of fewer than ``n`` positive terms, each within
        ``1 ± n·2**-53`` of exact, so ``lb`` shrinks by
        ``4(n + 2)·2**-53``.  Spurs still pending when the stream closes,
        like distance-skipped ones, count as skips.
        """
        h = self.h_to(target)
        best, best_dist = self._astar(source, target, h, set(), set(), max_distance)
        if not best or best_dist > max_distance:
            return
        yield best, best_dist
        wmap = self.wmap
        eid = self.eid
        stats = self.stats
        exact = self.exact
        # lb and a total round differently unless every sum is exact
        shrink = 1.0 if exact else 1.0 - 4 * (self.num_vertices + 2) / _EXACT_SUM
        # pending spurs (lb, seq, None, base, trie nodes, spur index, prefix
        # cost, lookahead cost, first hop) and candidates (total, seq, path,
        # trie nodes, deviation index, prefix cost); a trie node is
        # (children by vertex, banned edge ids).  (key, seq) is unique.
        frontier: list[tuple] = []
        seq = 0
        base, parent_nodes, dev, prefix_cost = best, [({}, set())], 0, 0.0
        try:
            while True:
                nodes = parent_nodes[:dev + 1]
                node = nodes[dev]
                rootset = set(base[:dev])
                for i in range(dev, len(base) - 1):
                    spur = base[i]
                    nxt = base[i + 1]
                    banned_e = node[1]
                    banned_e.add(eid[(spur, nxt) if spur < nxt else (nxt, spur)])
                    # one-step lookahead lower bound on any spur deviation:
                    # the cheapest allowed first hop plus its exact
                    # remaining distance (h is exact, hence tight)
                    cost, first = self._spur_lookahead(spur, rootset, banned_e, h)
                    lb = (cost + prefix_cost) * shrink
                    if lb > max_distance:
                        stats["spur_skips"] += 1
                    else:
                        seq += 1
                        heapq.heappush(frontier, (lb, seq, None, base, nodes, i,
                                                  prefix_cost, cost, first))
                    prefix_cost += wmap[(spur, nxt)]
                    rootset.add(spur)
                    node = node[0].get(nxt) or node[0].setdefault(nxt, ({}, set()))
                    nodes.append(node)
                while True:
                    if not frontier:
                        return
                    top = heapq.heappop(frontier)
                    if top[2] is not None:
                        break
                    found = self._search_spur(top, h, target, max_distance, exact)
                    if found is not None:
                        heapq.heappush(frontier, found)
                dist, _, base, parent_nodes, dev, prefix_cost = top
                yield base, dist
        finally:
            stats["spur_skips"] += sum(1 for e in frontier if e[2] is None)

    # ------------------------------------------------------------------
    # candidate collection (the engine's two consumer shapes)
    # ------------------------------------------------------------------
    def _collect(
        self,
        source: int,
        target: int,
        max_distance: float,
        flow_vector,
        max_candidates: int,
        stop: DominanceStop | None,
    ) -> Candidates:
        stream = self.iter_paths(source, target, max_distance)
        try:
            return collect_candidates(
                stream, flow_vector, max_candidates=max_candidates, stop=stop
            )
        finally:
            # close now, so the spurs left postponed are counted as skips
            stream.close()

    def collect_eager(
        self,
        source: int,
        target: int,
        max_distance: float,
        flow_vector,
        max_candidates: int,
    ) -> Candidates:
        """Capped full enumeration through the shared collector."""
        return self._collect(
            source, target, max_distance, flow_vector, max_candidates, None
        )

    def collect_lazy(
        self,
        source: int,
        target: int,
        max_distance: float,
        flow_vector,
        max_candidates: int,
        stop: DominanceStop,
    ) -> Candidates:
        """Lazy enumeration with the score-dominance stop (FAHL-W)."""
        return self._collect(
            source, target, max_distance, flow_vector, max_candidates, stop
        )

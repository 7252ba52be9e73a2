"""Flat single-query FSPQ kernel over the packed label arena.

An FSPQ query's time goes to candidate collection (Yen spur searches) and
to the A* heuristic table.  On the serving benchmark's ``citywide_closed``
workload (``servebench/``, traced, seed 0, 2 CPUs) the flat kernel's own
work takes about 84% of request time and the heuristic tables, swept 32
targets at a time by the batch path, about 8% (traced as ``core.batch``
self time); the kernel runs about 18 A* searches per query, where it ran
86 before spur certificates.  Each reference spur search spends most of
its time in per-vertex Python work: heuristic calls into the oracle,
dict-based distance maps, and banned-edge set construction that rescans
every accepted path.  :class:`FlatQueryKernel`
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
  cannot yield a candidate within the distance bound or within the
  consumer's remaining pull budget (shrunk by its float rounding error
  while any weight is non-integral);
* most remaining spur searches are *certified* instead of searched
  (the node-classification idea of Feng, Networks 2014).  Because ``h``
  is exact it defines a shortest-path tree to the target; one pair of
  numpy reductions per target gives every vertex's next hop in it and
  whether that hop is the only tight one.  When the spur's cheapest
  allowed first hop is a strict minimum and its tree tail has a unique
  tight hop at every vertex and never re-enters the root, that path is
  the *unique* shortest path of the restricted graph (banned edges all
  leave the spur vertex, so the tail avoids them), and A* with the
  consistent heuristic ``h`` must return exactly it.  With integral
  weights every path sum is an exact float64 integer, so its cost
  ``w + h[first]`` equals A*'s forward sum bit for bit.  Any tie, root
  re-entry or non-integral weight falls back to A*.

Every optimisation above is output-invariant: a spur Lawler's order
drops repeats an earlier search, a certified spur is the one path A*
would return, and a skipped spur search's candidate could never have
been popped from the deviation frontier within the pull budget (its
total is at least the lookahead bound, and at least ``remaining`` queued
candidates are no worse).  ``tests/test_property_flat_kernel.py`` pins
this down against the scalar path (answers, also straight after
ILU/ISU/GSU maintenance, and raw streams under pull budgets), and
``tests/test_spur_certificate.py`` checks every certified spur against
A* directly.

The kernel snapshots ``index.label_version`` at build time; the engine
rebuilds it whenever the version moves, so maintenance transparently
invalidates the cached adjacency and heuristic tables.  Any oracle
with ``distances_to``, ``label_version`` and the engine's ``graph`` can
drive it; for one whose scalar ``heuristic`` factory reads the same
tables (the sharded gateway's) the streams agree by construction.
"""

from __future__ import annotations

import bisect
import heapq
import math
from typing import TYPE_CHECKING, Iterator

import numpy as np

from repro.paths.candidates import Candidates, DominanceStop, collect_candidates

if TYPE_CHECKING:  # circular-import guard: overlay is typing-only here
    from repro.core.overlay import DeltaOverlay
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
        ``label_version`` that moves whenever a table entry can: a
        :class:`~repro.labeling.hierarchy.HierarchyIndex` (FAHL or H2H)
        or the sharded gateway's boundary oracle.  Its tables feed the
        A* heuristic, so the kernel's A* sees the same admissible
        heuristic values as the scalar reference path.
    frn:
        The flow-aware road network the engine queries.

    Attributes
    ----------
    version:
        ``index.label_version`` at build time; :meth:`is_current` compares
        it so engines drop the kernel after any maintenance operation.
    stats:
        Monotone counters (A* searches run, spur searches skipped /
        certified, heuristic tables built) — exported to ``repro.obs`` by
        the engine; ``spur_memo_hits`` is deprecated and stays 0.
    """

    def __init__(
        self,
        index,
        frn: "FlowAwareRoadNetwork",
        overlay: "DeltaOverlay | None" = None,
    ) -> None:
        graph = frn.graph
        n = graph.num_vertices
        self.index = index
        self.frn = frn
        self.overlay = overlay
        self.overlay_version = overlay.version if overlay is not None else -1
        self.num_vertices = n
        self.version = index.label_version
        self.graph_version = graph.mutation_version
        # adjacency rows in neighbor_items order (A* must expand neighbours
        # in exactly the same sequence as the reference search), annotated
        # with undirected edge ids so banned-edge checks are int-set probes
        eid: dict[tuple[int, int], int] = {}
        adj: list[list[tuple[int, float, int]]] = []
        wmap: dict[tuple[int, int], float] = {}
        inexact: set[tuple[int, int]] = set()
        for u in range(n):
            row = []
            for v, w in graph.neighbor_items(u):
                key = (u, v) if u < v else (v, u)
                e = eid.get(key)
                if e is None:
                    e = eid[key] = len(eid)
                    if not _exact_weight(w, n):
                        inexact.add(key)
                row.append((v, w, e))
                wmap[(u, v)] = w
            adj.append(row)
        self.adj = adj
        self.eid = eid
        self.wmap = wmap
        # stamped search state reused across every A* run (token bump = O(1)
        # reset); lists beat numpy here — access is scalar, not vectorised
        self._dist: list[float] = [_INF] * n
        self._prev: list[int] = [0] * n
        self._stamp: list[int] = [0] * n
        self._token = 0
        # target -> [h list, h float64 array, spur tree (built lazily)]
        self._h_cache: dict[int, list] = {}
        # target -> float64 row of a prefetched block, until h_to takes it
        self._pending: dict[int, np.ndarray] = {}
        self._patched: set[tuple[int, int]] = set()
        # edges whose weight breaks exact path sums; spur certificates are
        # sound only while this is empty
        self._inexact = inexact
        self._csr: tuple[np.ndarray, ...] | None = None
        self.stats = {
            "astar_runs": 0,
            "spur_memo_hits": 0,
            "spur_skips": 0,
            "spur_certified": 0,
            "heuristic_builds": 0,
        }

    def is_current(self) -> bool:
        """Whether the snapshot still matches index, graph and overlay.

        Without an overlay the graph's ``mutation_version`` is checked
        separately from the label version: an ILU that raises an
        off-shortest-path edge weight leaves every label (and so
        ``label_version``) untouched, yet the cached adjacency rows still
        hold the old weight.  With an overlay attached, every live-graph
        weight change goes through :meth:`DeltaOverlay.absorb` (which
        bumps the overlay version), so the overlay check subsumes the
        graph check and :meth:`refresh_overlay` stays the cheap resync.
        """
        if self.version != self.index.label_version:
            return False
        if self.overlay is None:
            return self.graph_version == self.frn.graph.mutation_version
        return self.overlay.version == self.overlay_version

    def refresh_overlay(self) -> None:
        """Resync adjacency weights after overlay absorbs (no full rebuild).

        Only edges the overlay tracks (now or at any point since the kernel
        was built) can have moved, so the patch is ``O(|D| · degree)``:
        update the affected adjacency rows and weight map in place, then
        drop the heuristic tables and their spur trees (their values are
        overlay-dependent).  A non-integral weight turns spur certificates
        off until it is gone again.  The trie of banned edges lives for one
        enumeration, so nothing else is stale.
        """
        overlay = self.overlay
        if overlay is None or overlay.version == self.overlay_version:
            return
        graph = self.frn.graph
        candidates = set(overlay.edges) | self._patched
        for lo, hi in candidates:
            w = graph.weight(lo, hi)
            if self.wmap.get((lo, hi)) == w:
                continue
            self.wmap[(lo, hi)] = w
            self.wmap[(hi, lo)] = w
            for a, b in ((lo, hi), (hi, lo)):
                row = self.adj[a]
                for i, (v, _, e) in enumerate(row):
                    if v == b:
                        row[i] = (v, w, e)
                        break
            self._patched.add((lo, hi))
            if _exact_weight(w, self.num_vertices):
                self._inexact.discard((lo, hi))
            else:
                self._inexact.add((lo, hi))
            self._csr = None
        self._h_cache.clear()
        self._pending.clear()
        self.overlay_version = overlay.version
        self.graph_version = graph.mutation_version

    # ------------------------------------------------------------------
    # heuristics / distances
    # ------------------------------------------------------------------
    def h_to(self, target: int) -> list[float]:
        """The admissible heuristic table toward ``target`` (cached).

        One vectorised one-to-all table; entry ``h[v]`` is
        bit-identical to ``index.distance(v, target)`` (the documented
        guarantee of ``distances_to``), so A* pops vertices in exactly
        the order the scalar ``OracleHeuristic`` search would.  With a
        non-empty overlay the table instead comes from
        :meth:`DeltaOverlay.table_to` — the exact *current* distances,
        the same values the scalar path reads through
        ``OverlayOracle.heuristic`` — keeping the two candidate streams
        aligned under continuous updates.
        """
        entry = self._h_cache.get(target)
        if entry is None:
            if len(self._h_cache) >= _H_CACHE:
                self._h_cache.clear()
            if self.overlay is not None and not self.overlay.is_empty:
                table = self.overlay.table_to(target)
            else:
                row = self._pending.pop(target, None)
                if row is None:
                    table = self.index.distances_to(target)
                else:
                    # a copy: a cached view would pin the whole block
                    table = row.copy()
            entry = self._h_cache[target] = [table.tolist(), table, None]
            self.stats["heuristic_builds"] += 1
        return entry[0]

    def prefetch(self, targets) -> None:
        """Sweep the tables of several targets at once, for :meth:`h_to`.

        Targets neither cached nor pending are swept in one
        ``index.distances_to_many`` pass, and the block's rows wait in a
        pending map until :meth:`h_to` takes each (one ``tolist``).
        Pending rows of targets outside ``targets`` are dropped, so the
        map never holds more than one call's targets.  A no-op when the
        overlay is
        non-empty (:meth:`h_to` reads ``table_to`` then), when the
        oracle has no ``distances_to_many``, or when fewer than two
        targets are missing.  Every target must be a valid vertex id.
        """
        if self.overlay is not None and not self.overlay.is_empty:
            return
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
        entry = self._h_cache.get(v)
        if entry is not None:
            return entry[0][u]
        if self.overlay is not None and not self.overlay.is_empty:
            return self.h_to(v)[u]
        return self.index.distance(u, v)

    # ------------------------------------------------------------------
    # spur certificates
    # ------------------------------------------------------------------
    def prime(self) -> None:
        """Build the spur-certificate CSR now, while certificates are on.

        Otherwise the first strict spur of a query builds it; with any
        non-integral weight certificates are off and nothing is built.
        """
        if not self._inexact:
            self._spur_csr()

    def _spur_csr(self) -> tuple[np.ndarray, ...]:
        """CSR copy of the adjacency rows for :meth:`_spur_tree` (cached).

        ``(rows, starts, owner, nbr, wts)``: the vertices with neighbours,
        where each one's run starts, the owner of every entry, and the
        entries' neighbours and weights.  A weight patch drops it.
        """
        if self._csr is None:
            adj = self.adj
            deg = np.fromiter(map(len, adj), dtype=np.intp, count=len(adj))
            total = int(deg.sum())
            nbr = np.fromiter(
                (v for row in adj for v, _, _ in row), dtype=np.intp, count=total
            )
            wts = np.fromiter(
                (w for row in adj for _, w, _ in row), dtype=np.float64,
                count=total,
            )
            rows = np.flatnonzero(deg)
            starts = (np.cumsum(deg) - deg)[rows]
            owner = np.repeat(np.arange(len(adj)), deg)
            self._csr = (rows, starts, owner, nbr, wts)
        return self._csr

    def _spur_tree(self, entry: list) -> list[int]:
        """Unique next hops of the shortest-path tree of an h-cache entry.

        Entry ``v`` is the neighbour ``u`` with ``w(v, u) + h[u] == h[v]``
        when exactly one neighbour is that tight, else ``-1`` (a tie, the
        target itself, or a table that is not tight at ``v``).  Two numpy
        reductions over a CSR copy of the adjacency rows and the entry's
        float64 table; the result is stored in the entry, so table and
        tree drop together.
        """
        if entry[2] is not None:
            return entry[2]
        rows, starts, owner, nbr, wts = self._spur_csr()
        hv = entry[1]
        nxt = np.full(len(hv), -1, dtype=np.intp)
        if nbr.size:
            cost = wts + hv[nbr]
            best = np.full(len(hv), _INF)
            best[rows] = np.minimum.reduceat(cost, starts)
            tight = cost == best[owner]
            unique = np.zeros(len(hv), dtype=bool)
            unique[rows] = np.add.reduceat(tight, starts, dtype=np.intp) == 1
            unique &= best == hv
            pos = np.flatnonzero(tight & unique[owner])
            nxt[owner[pos]] = nbr[pos]
        tree = entry[2] = nxt.tolist()
        return tree

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
        tree: list[int],
        target: int,
    ) -> tuple[list[int], float] | None:
        """The spur search's answer when the shortest-path tree proves it.

        ``first`` is the strict cheapest first hop from
        :meth:`_spur_lookahead`.  Walk its tree path to ``target``; every
        tail vertex must have a unique tight next hop, and the tail must
        not re-enter the root (``rootset`` or ``spur``).  Banned edges all
        leave ``spur``, so such a tail avoids them too.  The restricted
        shortest path is then unique, so A* with the consistent heuristic
        ``h`` returns exactly this path.  With integral weights every sum
        is exact, so the total ``cost`` equals A*'s forward sum bit for
        bit.  Returns ``None`` when uniqueness is not proven.
        """
        path = [spur, first]
        x = first
        while x != target:
            x = tree[x]
            if x < 0 or x == spur or x in rootset:
                return None
            path.append(x)
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

    def iter_paths(
        self,
        source: int,
        target: int,
        max_distance: float,
        max_pulls: int | None = None,
    ) -> Iterator[tuple[list[int], float]]:
        """Loopless paths in non-decreasing distance order (lazy Yen).

        The yielded ``(path, distance)`` stream is bit-identical to
        :func:`repro.paths.yen.iter_shortest_paths` under an oracle
        heuristic.  ``max_pulls`` is the consumer's pull budget (the
        engine pulls at most ``max_candidates + 1`` paths); it only
        enables the frontier-budget spur skip and never changes which
        paths are produced within the budget.

        Lawler's order: a path that left its parent at index ``i`` spurs
        at ``i..L-2`` only.  At ``j < i`` its root and its edge are the
        parent's, so the root's banned set is unchanged; a root's banned
        set grows only at or after an accepted path's deviation index, and
        that path's loop spurs it.  So each (root, banned set) is searched
        once; the reference's repeats re-find queued candidates.  A
        skipped spur stays skipped: the distance skip is permanent, and
        the budget skip's count of queued totals ``<= lb`` drops by at
        most one per pop (as ``remaining`` does) and never on a push.
        With a non-integral weight, ``lb`` and a total are float sums of
        fewer than ``n`` positive terms, each within ``1 ± n·2**-53`` of
        exact, so ``lb`` shrinks by ``4(n + 2)·2**-53``.
        """
        h = self.h_to(target)
        entry = self._h_cache[target]
        best, best_dist = self._astar(source, target, h, set(), set(), max_distance)
        if not best or best_dist > max_distance:
            return
        yield best, best_dist
        yielded = 1
        wmap = self.wmap
        eid = self.eid
        stats = self.stats
        exact = not self._inexact
        # lb and a total round differently unless every sum is exact
        shrink = 1.0 if exact else 1.0 - 4 * (self.num_vertices + 2) / _EXACT_SUM
        tree: list[int] | None = None  # built on the first strict spur
        seen = {tuple(best)}
        # (total, tie, path, parent's trie nodes, deviation index, prefix
        # cost there); a trie node is (children by vertex, banned edge ids)
        frontier: list[tuple] = []
        totals: list[float] = []  # frontier totals, sorted (budget skip)
        counter = 0
        base, parent_nodes, dev, prefix_cost = best, [({}, set())], 0, 0.0
        while max_pulls is None or yielded < max_pulls:
            remaining = None if max_pulls is None else max_pulls - yielded
            nodes = parent_nodes[:dev + 1]
            node = nodes[dev]
            rootset = set(base[:dev])
            for i in range(dev, len(base) - 1):
                spur = base[i]
                nxt = base[i + 1]
                banned_e = node[1]
                banned_e.add(eid[(spur, nxt) if spur < nxt else (nxt, spur)])
                # one-step lookahead lower bound on any spur deviation: the
                # cheapest allowed first hop plus its exact remaining
                # distance (h is exact, hence tight)
                cost, first = self._spur_lookahead(spur, rootset, banned_e, h)
                lb = (cost + prefix_cost) * shrink
                if lb > max_distance or (
                    remaining is not None
                    and len(totals) >= remaining
                    and totals[remaining - 1] <= lb
                ):
                    # either no deviation fits the distance bound, or
                    # >= remaining queued candidates are no worse than this
                    # spur's best possible total — it could never be popped
                    # within the consumer's budget
                    stats["spur_skips"] += 1
                else:
                    hit = None
                    if first >= 0 and exact:
                        if tree is None:
                            tree = self._spur_tree(entry)
                        hit = self._certify_spur(
                            spur, first, cost, rootset, tree, target
                        )
                    if hit is None:
                        hit = self._astar(
                            spur, target, h, rootset, banned_e,
                            max_distance - prefix_cost,
                        )
                    else:
                        stats["spur_certified"] += 1
                    spur_path, spur_dist = hit
                    if spur_path:
                        total = prefix_cost + spur_dist
                        if total <= max_distance:
                            candidate = base[:i] + spur_path
                            key = tuple(candidate)
                            if key not in seen:
                                seen.add(key)
                                counter += 1
                                heapq.heappush(frontier, (total, counter, candidate,
                                                          nodes, i, prefix_cost))
                                bisect.insort(totals, total)
                prefix_cost += wmap[(spur, nxt)]
                rootset.add(spur)
                node = node[0].get(nxt) or node[0].setdefault(nxt, ({}, set()))
                nodes.append(node)
            if not frontier:
                return
            dist, _, base, parent_nodes, dev, prefix_cost = heapq.heappop(frontier)
            totals.pop(bisect.bisect_left(totals, dist))
            yield base, dist
            yielded += 1

    # ------------------------------------------------------------------
    # candidate collection (the engine's two consumer shapes)
    # ------------------------------------------------------------------
    def collect_eager(
        self,
        source: int,
        target: int,
        max_distance: float,
        flow_vector,
        max_candidates: int,
    ) -> Candidates:
        """Capped full enumeration through the shared collector."""
        return collect_candidates(
            self.iter_paths(
                source, target, max_distance, max_pulls=max_candidates + 1
            ),
            flow_vector,
            max_candidates=max_candidates,
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
        return collect_candidates(
            self.iter_paths(
                source, target, max_distance, max_pulls=max_candidates + 1
            ),
            flow_vector,
            max_candidates=max_candidates,
            stop=stop,
        )

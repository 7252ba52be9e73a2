"""Delta overlay: exact ``stable ⊕ overlay`` serving under continuous updates.

The paper's ILU repairs labels *in place*, which blocks queries for the
duration of the repair.  Following the stable/delta split of *Stable Tree
Labelling for Accelerating Distance Queries on Dynamic Road Networks*
(PAPERS.md), this module keeps the labelling **stable** (built for the
weights at the last consolidation) and absorbs accepted weight updates into
a small :class:`DeltaOverlay`:

* :meth:`DeltaOverlay.absorb` applies the new weight to the live graph
  immediately and records the edge together with the *stable* weight the
  labels still assume.  Both endpoints become **overlay hubs**, each
  carrying an exact one-to-all distance vector on the *current* graph
  (a fresh Dijkstra for a new hub; for subsequent changes the row repair
  :func:`~repro.baselines.dijkstra.repair_rows`, which the sharded
  gateway's boundary tables share: a seeded relaxation after a decrease,
  a rerun of the rows the edge was tight in after an increase).

* :class:`OverlayOracle` answers distance queries exactly from
  ``stable ⊕ overlay``.  Let ``D`` be the overlay edge set, ``d0`` the
  stable label distance and ``a(s, t)`` the current-graph distance
  *avoiding* every edge of ``D``.  Because weights off ``D`` are unchanged,

  .. math::  d_{cur}(s, t) = \\min\\big(a(s, t),\\;
             \\min_{x \\in hubs} dist_x[s] + dist_x[t]\\big)

  — the current-optimal path either avoids ``D`` entirely (first term,
  where current cost equals stable cost) or passes through an endpoint of
  a ``D``-edge (second term, tight because subpaths of shortest paths are
  shortest).  Point queries avoid the Dijkstra in the first term with a
  **certification** test over the labels alone: if no *stable* shortest
  path can use any ``D``-edge (``d0(s,u) + w0(u,v) + d0(v,t) > d0(s,t)``
  for every edge, both orientations, with a small conservative slack),
  then ``a = d0`` and the answer is ``min(d0, hub term)``.  Uncertified
  pairs fall back to an A* on the current graph under the admissible
  slack heuristic ``max(0, d0(v,t) - Σ decreases)``.  One-to-all tables
  (the FSPQ kernels' heuristics) use the avoid-Dijkstra form directly.

* :class:`ConsolidationTask` folds the overlay into a **back buffer** —
  a :meth:`~repro.labeling.hierarchy.HierarchyIndex.clone` repaired with
  the ordinary ILU/ISU/GSU maintenance — in small cooperative steps that
  interleave with queries, then swaps it in atomically (plain attribute
  assignments, no fault checkpoint in between) and rebases the overlay.
  The back buffer repairs a private copy of the graph, taken with every
  overlay edge at its stable weight, so updates absorbed *during*
  consolidation move only the live graph and cannot contaminate the
  repair; they simply stay in the overlay across the swap.  The flat
  kernel tracks none of this: every absorb sets a live weight, which
  moves the graph's ``mutation_version`` and so rebuilds the kernel on
  the next query.
"""

from __future__ import annotations

import heapq
import math
from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro import obs
from repro.baselines.dijkstra import dijkstra_distances, repair_rows
from repro.core.maintenance import (
    _checkpoint,
    apply_flow_update,
    apply_weight_update,
)
from repro.errors import EdgeNotFoundError, GraphError, QueryError
from repro.graph.road_network import RoadNetwork
from repro.labeling.hierarchy import HierarchyIndex
from repro.paths.astar_search import (
    AdmissibleHeuristic,
    OracleHeuristic,
    TableHeuristic,
    astar_path,
)

__all__ = ["DeltaOverlay", "OverlayOracle", "ConsolidationTask"]

#: relative slack under which a stable shortest path is *assumed* to touch an
#: overlay edge (forcing the safe fallback).  Only near-ties are affected,
#: and only in the conservative direction; with integer weights (the paper's
#: road networks, and the arena's quantised fast path) certification is exact.
_CERT_SLACK = 1e-9


def _edge_key(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


@dataclass
class OverlayEdge:
    """One absorbed weight change: stable (label) weight vs. live weight."""

    u: int
    v: int
    stable: float
    current: float


class DeltaOverlay:
    """Accepted-but-unconsolidated weight updates over a stable labelling.

    Parameters
    ----------
    graph:
        The live :class:`RoadNetwork` (shared with the serving index).
    capacity:
        Soft bound on distinct changed edges; :attr:`is_full` tells the
        serving layer it should consolidate.  Absorbs are never refused —
        exactness does not depend on the bound, only query overhead does.
    """

    def __init__(self, graph: RoadNetwork, capacity: int = 64) -> None:
        if capacity < 1:
            raise GraphError(f"overlay capacity must be >= 1, got {capacity}")
        self.graph = graph
        self.capacity = int(capacity)
        self.edges: dict[tuple[int, int], OverlayEdge] = {}
        self._hub_ids: list[int] = []
        self._hub_rows: dict[int, np.ndarray] = {}
        self._matrix: np.ndarray | None = None
        #: bumped by every absorb and rebase; kernels/caches key off it
        self.version = 0
        self.absorbed_total = 0

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.edges)

    @property
    def is_empty(self) -> bool:
        """No pending correction — stable labels are exact on their own."""
        return not self.edges

    @property
    def is_full(self) -> bool:
        return len(self.edges) >= self.capacity

    @property
    def num_hubs(self) -> int:
        return len(self._hub_ids)

    @property
    def total_decrease(self) -> float:
        """Total weight-decrease mass — the admissible A* slack.

        A current shortest path is simple, so it uses each decreased edge
        at most once: its stable cost exceeds its current cost by at most
        this sum, making ``d0(v, t) - total_decrease`` a lower bound on
        the current distance.
        """
        return sum(
            e.stable - e.current for e in self.edges.values() if e.current < e.stable
        )

    def nbytes(self) -> int:
        return sum(row.nbytes for row in self._hub_rows.values())

    # ------------------------------------------------------------------
    # ingest
    # ------------------------------------------------------------------
    def absorb(self, u: int, v: int, new_weight: float) -> bool:
        """Apply ``(u, v) -> new_weight`` to the live graph and record it.

        O(1) on the graph plus incremental hub-vector repair; the labels
        are untouched (that is the whole point).  Returns ``False`` when
        the weight is unchanged (no version bump).
        """
        try:
            new_weight = float(new_weight)
        except (TypeError, ValueError) as exc:
            raise GraphError(f"edge weight must be a number, got {new_weight!r}") from exc
        if not math.isfinite(new_weight):
            raise GraphError(f"edge weight must be finite, got {new_weight!r}")
        if new_weight <= 0:
            raise GraphError(f"edge weight must be positive, got {new_weight}")
        graph = self.graph
        if not graph.has_edge(u, v):
            raise EdgeNotFoundError(u, v)
        old_weight = graph.weight(u, v)
        if new_weight == old_weight:
            return False
        with obs.stopwatch(
            "repro_overlay_ingest_seconds", help="overlay absorb latency"
        ):
            lo, hi = _edge_key(u, v)
            graph.set_weight(u, v, new_weight)
            entry = self.edges.get((lo, hi))
            if entry is None:
                self.edges[(lo, hi)] = OverlayEdge(lo, hi, old_weight, new_weight)
            else:
                # keep the entry even when the edge returns to its stable weight:
                # a concurrent consolidation may already have folded a different
                # value for it, and the rebase bookkeeping needs the record.  A
                # ``current == stable`` entry is dropped at the next rebase and
                # is harmless meanwhile (the hub term still covers its paths).
                entry.current = new_weight
            # repair rows that existed before this change, then add new hubs
            # (computed on the already-updated graph, hence exact as-is)
            repair_rows(
                graph, self._hub_rows.values(), self._hub_rows.keys(),
                lo, hi, old_weight, new_weight,
            )
            self._ensure_hub(lo)
            self._ensure_hub(hi)
            self._matrix = None
            self.version += 1
            self.absorbed_total += 1
        registry = obs.get_registry()
        if registry.enabled:
            registry.counter(
                "repro_overlay_absorbed_total", "weight updates absorbed by the overlay"
            ).inc()
            registry.gauge(
                "repro_overlay_edges", "edges pending consolidation"
            ).set(len(self.edges))
            registry.gauge(
                "repro_overlay_hubs", "overlay hub vectors held"
            ).set(len(self._hub_ids))
        return True

    def _ensure_hub(self, x: int) -> None:
        if x not in self._hub_rows:
            self._hub_rows[x] = dijkstra_distances(self.graph, x)
            self._hub_ids.append(x)

    # ------------------------------------------------------------------
    # query terms
    # ------------------------------------------------------------------
    def _hub_matrix(self) -> np.ndarray | None:
        if not self._hub_ids:
            return None
        if self._matrix is None:
            self._matrix = np.vstack([self._hub_rows[x] for x in self._hub_ids])
        return self._matrix

    def hub_term(self, sources: np.ndarray, targets: np.ndarray) -> np.ndarray:
        """``min_x dist_x[s] + dist_x[t]`` per aligned pair (inf when hub-less).

        Always an upper bound on the current distance (each term is a valid
        concatenation of two current shortest paths) and tight whenever the
        current-optimal path crosses an overlay edge.
        """
        matrix = self._hub_matrix()
        if matrix is None:
            return np.full(len(sources), math.inf)
        return (matrix[:, sources] + matrix[:, targets]).min(axis=0)

    def avoid_distances(self, target: int) -> np.ndarray:
        """Current-graph one-to-all distances to ``target`` avoiding ``D``.

        Off the overlay the current weights *are* the stable weights, so
        this equals the stable distance restricted to ``D``-free paths —
        the ``a(·, target)`` term of the exactness identity.
        """
        graph = self.graph
        n = graph.num_vertices
        if not 0 <= target < n:
            raise QueryError(f"avoid_distances query on unknown vertex {target}")
        banned = self.edges
        dist = np.full(n, math.inf)
        dist[target] = 0.0
        heap: list[tuple[float, int]] = [(0.0, target)]
        while heap:
            d, a = heapq.heappop(heap)
            if d > dist[a]:
                continue
            for b, w in graph.neighbor_items(a):
                if (_edge_key(a, b)) in banned:
                    continue
                nd = d + w
                if nd < dist[b]:
                    dist[b] = nd
                    heapq.heappush(heap, (nd, b))
        return dist

    def table_to(self, target: int) -> np.ndarray:
        """Exact *current* one-to-all distance table toward ``target``."""
        table = self.avoid_distances(target)
        matrix = self._hub_matrix()
        if matrix is not None:
            np.minimum(table, (matrix + matrix[:, target][:, None]).min(axis=0),
                       out=table)
        return table

    # ------------------------------------------------------------------
    # consolidation rebase
    # ------------------------------------------------------------------
    def prepare_rebase(
        self, consolidated: dict[tuple[int, int], float]
    ) -> tuple[dict, list, dict]:
        """Overlay state as of *after* a swap that folded ``consolidated``.

        Pure computation — commit separately with :meth:`commit_rebase`
        (plain assignments) so the swap has no failure window.
        """
        new_edges: dict[tuple[int, int], OverlayEdge] = {}
        for key, e in self.edges.items():
            stable = consolidated.get(key, e.stable)
            if e.current != stable:
                new_edges[key] = OverlayEdge(e.u, e.v, stable, e.current)
        keep: set[int] = set()
        for lo, hi in new_edges:
            keep.add(lo)
            keep.add(hi)
        hub_ids = [x for x in self._hub_ids if x in keep]
        hub_rows = {x: self._hub_rows[x] for x in hub_ids}
        return new_edges, hub_ids, hub_rows

    def commit_rebase(self, state: tuple[dict, list, dict]) -> None:
        """Atomically install a :meth:`prepare_rebase` result."""
        self.edges, self._hub_ids, self._hub_rows = state
        self._matrix = None
        self.version += 1
        registry = obs.get_registry()
        if registry.enabled:
            registry.gauge(
                "repro_overlay_edges", "edges pending consolidation"
            ).set(len(self.edges))
            registry.gauge(
                "repro_overlay_hubs", "overlay hub vectors held"
            ).set(len(self._hub_ids))

    def stats(self) -> dict:
        return {
            "edges": len(self.edges),
            "hubs": len(self._hub_ids),
            "version": self.version,
            "absorbed_total": self.absorbed_total,
            "total_decrease": self.total_decrease,
            "nbytes": self.nbytes(),
        }


class _SlackHeuristic(AdmissibleHeuristic):
    """``max(0, d0(v, t) - Σ decreases)`` — admissible on the current graph."""

    def __init__(self, index: HierarchyIndex, target: int, slack: float) -> None:
        self._index = index
        self._target = target
        self._slack = slack
        self._cache: dict[int, float] = {}

    def estimate(self, vertex: int) -> float:
        cached = self._cache.get(vertex)
        if cached is None:
            cached = max(0.0, self._index.distance(vertex, self._target) - self._slack)
            self._cache[vertex] = cached
        return cached


class OverlayOracle:
    """Exact distance oracle over ``stable labels ⊕ delta overlay``.

    Drop-in for a :class:`HierarchyIndex` wherever the serving layers use
    one as an oracle (``distance`` / ``distance_many`` / ``distances_to`` /
    ``path``), plus the ``heuristic(target)`` factory that
    :func:`repro.paths.candidates.heuristic_for` picks up — so the scalar
    FSPQ path and the flat kernel read the *same* exact heuristic tables.
    With an empty overlay every call delegates straight to the index
    (zero added work, bit-identical answers).
    """

    _TABLE_CACHE = 8

    def __init__(self, index: HierarchyIndex, overlay: DeltaOverlay) -> None:
        if index.graph is not overlay.graph:
            raise QueryError("overlay and index must share one live graph")
        self.index = index
        self.overlay = overlay
        self._tables: OrderedDict[int, np.ndarray] = OrderedDict()
        self._tables_key: tuple[int, int] | None = None

    # ------------------------------------------------------------------
    @property
    def graph(self) -> RoadNetwork:
        return self.index.graph

    @property
    def label_version(self) -> int:
        return self.index.label_version

    def _slack_of(self, d0: float) -> float:
        return _CERT_SLACK * (1.0 + abs(d0))

    # ------------------------------------------------------------------
    # heuristic tables
    # ------------------------------------------------------------------
    def heuristic_table(self, target: int) -> np.ndarray:
        """Exact current one-to-all distances toward ``target`` (LRU-cached)."""
        if self.overlay.is_empty:
            return self.index.distances_to(target)
        key = (self.overlay.version, self.index.label_version)
        if key != self._tables_key:
            self._tables.clear()
            self._tables_key = key
        table = self._tables.get(target)
        if table is None:
            table = self.overlay.table_to(target)
            self._tables[target] = table
            if len(self._tables) > self._TABLE_CACHE:
                self._tables.popitem(last=False)
        else:
            self._tables.move_to_end(target)
        return table

    def heuristic(self, target: int) -> AdmissibleHeuristic:
        """A*-heuristic factory (:func:`heuristic_for` contract).

        Empty overlay: the plain :class:`OracleHeuristic` over the index —
        identical values to the flat kernel's ``distances_to`` table, so
        scalar and flat candidate streams stay bit-identical.  Non-empty:
        the exact overlay table, same object the flat kernel uses.
        """
        if self.overlay.is_empty:
            return OracleHeuristic(self.index, target)
        return TableHeuristic(self.heuristic_table(target))

    def distances_to(self, target: int) -> np.ndarray:
        return self.heuristic_table(target)

    def distances_to_many(self, targets) -> np.ndarray:
        """The :meth:`distances_to` tables of several targets, as one block.

        The index's multi-target sweep while the overlay is empty, else
        one :meth:`heuristic_table` row per target.
        """
        if self.overlay.is_empty:
            return self.index.distances_to_many(targets)
        rows = [self.heuristic_table(int(t)) for t in targets]
        return np.array(rows).reshape(len(rows), self.graph.num_vertices)

    # ------------------------------------------------------------------
    # point / batched distances
    # ------------------------------------------------------------------
    def distance(self, u: int, v: int) -> float:
        """Exact current shortest distance ``d_cur(u, v)``."""
        if self.overlay.is_empty:
            return self.index.distance(u, v)
        n = self.graph.num_vertices
        if not (0 <= u < n and 0 <= v < n):
            raise QueryError(f"distance query on unknown vertices ({u}, {v})")
        if u == v:
            return 0.0
        if self._tables_key == (self.overlay.version, self.index.label_version):
            table = self._tables.get(v)
            if table is not None:
                return float(table[u])
            table = self._tables.get(u)
            if table is not None:
                return float(table[v])
        return float(self.distance_many([u], [v])[0])

    def distance_many(self, sources, targets) -> np.ndarray:
        """Vectorised :meth:`distance` (certification + hub term + fallback)."""
        if self.overlay.is_empty:
            return self.index.distance_many(sources, targets)
        us = np.asarray(sources, dtype=np.int64)
        vs = np.asarray(targets, dtype=np.int64)
        if us.size == 0:
            return np.empty(0, dtype=np.float64)
        edges = list(self.overlay.edges.values())
        m = len(edges)
        k = int(us.size)
        a = np.fromiter((e.u for e in edges), dtype=np.int64, count=m)
        b = np.fromiter((e.v for e in edges), dtype=np.int64, count=m)
        w0 = np.fromiter((e.stable for e in edges), dtype=np.float64, count=m)
        rep_s = np.repeat(us, m)
        rep_t = np.repeat(vs, m)
        tile_a = np.tile(a, k)
        tile_b = np.tile(b, k)
        # one index call for all five distance sets: each pair's value does
        # not depend on the batch it is answered in
        dist = self.index.distance_many(
            np.concatenate((us, rep_s, tile_b, rep_s, tile_a)),
            np.concatenate((vs, tile_a, rep_t, tile_b, rep_t)),
        )
        d0 = dist[:k]
        d_sa, d_bt, d_sb, d_at = dist[k:].reshape(4, k, m)
        via = np.minimum(d_sa + w0 + d_bt, d_sb + w0 + d_at).min(axis=1)
        certified = via > d0 + _CERT_SLACK * (1.0 + np.abs(d0))
        out = np.minimum(d0, self.overlay.hub_term(us, vs))
        uncertified = np.flatnonzero(~certified)
        for i in uncertified:
            out[i] = self._fallback(int(us[i]), int(vs[i]))
        if uncertified.size:
            obs.counter(
                "repro_overlay_uncertified_fallbacks_total",
                "pairs a stable shortest path may cross the overlay on "
                "(answered by A* on the current graph)",
            ).inc(int(uncertified.size))
        return out

    def _fallback(self, u: int, v: int) -> float:
        """Exact answer for an uncertified pair: A* on the current graph."""
        if u == v:
            return 0.0
        heuristic = _SlackHeuristic(self.index, v, self.overlay.total_decrease)
        _, dist = astar_path(self.graph, u, v, heuristic)
        return dist

    # ------------------------------------------------------------------
    def path(self, u: int, v: int) -> list[int]:
        """A concrete shortest path on the *current* graph."""
        if self.overlay.is_empty:
            return self.index.path(u, v)
        n = self.graph.num_vertices
        if not (0 <= u < n and 0 <= v < n):
            raise QueryError(f"path query on unknown vertices ({u}, {v})")
        if u == v:
            return [u]
        path, _ = astar_path(
            self.graph, u, v, TableHeuristic(self.heuristic_table(v))
        )
        return path

    def __repr__(self) -> str:
        return (
            f"OverlayOracle(edges={len(self.overlay)}, "
            f"hubs={self.overlay.num_hubs}, version={self.overlay.version})"
        )


# ----------------------------------------------------------------------
# consolidation
# ----------------------------------------------------------------------
class ConsolidationTask:
    """Cooperative background fold of the overlay into a back buffer.

    Drive with :meth:`step` (one bounded unit of work per call — the
    serving loop interleaves steps with queries) or :meth:`run` (to
    completion).  Stages, each guarded by a ``consolidate:*`` fault
    checkpoint from :data:`repro.core.maintenance.FAULT_POINTS`:

    1. **clone** — deep-copy the serving index onto a private copy of
       the live graph with every overlay edge at its stable weight, the
       weight the labels were built under.  Later absorbs move only the
       live graph, so the back buffer never sees them; they stay in the
       overlay across the swap.
    2. **weights** — one ILU per overlay edge on the clone, stable →
       current weight, non-transactional (a failure discards the whole
       clone; the serving index was never touched).
    3. **flows** — fold queued flow updates with ISU/GSU on the clone.
    4. **prepare** — compute the post-swap overlay state.
    5. **commit** — plain attribute assignments: live graph back onto the
       clone, ``on_commit(back)`` (the owner swaps its index reference and
       bumps epochs), overlay rebase.  No fault checkpoint fires between
       the first assignment and ``consolidate:swap-committed``, so the
       swap is atomic under the chaos harness, and queries — which run
       strictly between steps — observe either the old pair or the new
       pair, never a mix.
    """

    def __init__(
        self,
        index: HierarchyIndex,
        overlay: DeltaOverlay,
        flow_updates: dict[int, float] | None = None,
        flow_method: str = "isu",
        on_commit: Callable[[HierarchyIndex], None] | None = None,
    ) -> None:
        self.index = index
        self.overlay = overlay
        self.flow_method = flow_method
        self.on_commit = on_commit
        self.state = "clone"
        self.committed = False
        self.back: HierarchyIndex | None = None
        self.consolidated: dict[tuple[int, int], float] = {}
        self.consolidated_flows: dict[int, float] = {}
        self._rebase_state: tuple[dict, list, dict] | None = None
        self._prepared_version: int | None = None
        self._pending_edges: deque[tuple[tuple[int, int], float]] = deque()
        has_flows = getattr(index, "flows", None) is not None
        self._pending_flows: deque[tuple[int, float]] = deque(
            sorted((flow_updates or {}).items()) if has_flows else ()
        )
        # begun here, ended at the swap commit: the interval spans every
        # cooperative step in between
        self._lifetime = obs.stopwatch(
            "repro_overlay_consolidation_seconds",
            help="wall time from consolidation start to swap commit",
        ).begin()
        self.steps = 0

    # ------------------------------------------------------------------
    @property
    def done(self) -> bool:
        return self.state == "done"

    def step(self) -> str:
        """Advance one stage-step; returns the state *after* the step."""
        if self.state == "done":
            return self.state
        self.steps += 1
        if self.state == "clone":
            graph = self.index.graph.copy()
            for (lo, hi), e in self.overlay.edges.items():
                graph.set_weight(lo, hi, e.stable)
            self._pending_edges = deque(
                (key, e.current) for key, e in self.overlay.edges.items()
            )
            back = self.index.clone()
            back.graph = graph
            self.back = back
            _checkpoint("consolidate:clone-created")
            self.state = "weights"
        elif self.state == "weights":
            if self._pending_edges:
                (lo, hi), target = self._pending_edges.popleft()
                apply_weight_update(self.back, lo, hi, target, transactional=False)
                self.consolidated[(lo, hi)] = target
                _checkpoint("consolidate:weights-folded")
            if not self._pending_edges:
                self.state = "flows"
        elif self.state == "flows":
            if self._pending_flows:
                vertex, flow = self._pending_flows.popleft()
                apply_flow_update(
                    self.back, vertex, flow,
                    method=self.flow_method, transactional=False,
                )
                self.consolidated_flows[vertex] = flow
                _checkpoint("consolidate:flows-folded")
            if not self._pending_flows:
                self.state = "prepare"
        elif self.state == "prepare":
            self._rebase_state = self.overlay.prepare_rebase(self.consolidated)
            self._prepared_version = self.overlay.version
            _checkpoint("consolidate:swap-prepared")
            self.state = "commit"
        elif self.state == "commit":
            if self.overlay.version != self._prepared_version:
                # an absorb landed between prepare and commit: recompute the
                # rebase (still pure, still before any assignment) so the
                # fresh entry survives the swap
                self._rebase_state = self.overlay.prepare_rebase(self.consolidated)
            # the atomic swap: nothing below can raise before the commit
            # checkpoint — attribute/dict assignments only
            with obs.stopwatch(
                "repro_overlay_swap_seconds",
                help="duration of the atomic pointer swap itself",
            ):
                self.back.graph = self.index.graph
                if self.on_commit is not None:
                    self.on_commit(self.back)
                self.overlay.commit_rebase(self._rebase_state)
                self.committed = True
                self.state = "done"
            self._lifetime.end()
            obs.counter(
                "repro_overlay_consolidations_total",
                "background consolidation swaps committed",
            ).inc()
            _checkpoint("consolidate:swap-committed")
        return self.state

    def run(self) -> HierarchyIndex:
        """Drive the task to the committed swap; returns the new index."""
        while self.state != "done":
            self.step()
        return self.back

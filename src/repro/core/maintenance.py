"""Index maintenance in flow-aware road networks (paper Section IV).

Three algorithms keep a FAHL/H2H index consistent under the two change
types of an FRN:

* **ILU** (:func:`apply_weight_update`, Alg. 4) — an edge *weight* changed.
  The elimination structure is unaffected; the shortcut weights derived from
  the edge are repaired with a rank-ordered worklist, then labels are
  refreshed top-down with change-propagation pruning.  Works on any
  :class:`~repro.labeling.hierarchy.HierarchyIndex` (H2H too, which is how
  the Fig. 9 baseline updates are measured).

* **GSU** (:func:`apply_flow_update` with ``method="gsu"``) — a vertex
  *flow* changed, moving it in the degree-flow joint ordering.  The general
  strategy replays the (unchanged) elimination prefix from the recorded
  step log, re-runs the elimination for every later vertex and rebuilds
  structure + labels: always applicable, provably correct, lots of
  redundant work.

* **ISU** (``method="isu"``, Alg. 3) — re-eliminates only the affected rank
  *window*, then verifies that the elimination frontier after the window
  (edge weights **and** shortcut middles) matches the recorded one.  On a
  match the entire suffix of the old elimination remains valid verbatim and
  is spliced back; labels are refreshed only where bags or ancestor paths
  changed.  On a mismatch ISU falls back to GSU — correctness never depends
  on the window heuristic, because *any* faithfully executed elimination
  order yields exact labels.

All three return statistics (affected labels, strategy used, window) that
the experiment harness reports.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro import obs
from repro.core.fahl import FAHLIndex
from repro.errors import (
    EdgeNotFoundError,
    GraphError,
    IndexStateError,
    MaintenanceError,
)
from repro.labeling.hierarchy import (
    REFERENCE_ATTRS,
    REPLACED_ATTRS,
    HierarchyIndex,
)
from repro.treedec.elimination import (
    EliminationResult,
    relax_from_bag,
    replay_prefix,
    run_elimination_steps,
)

__all__ = [
    "FAULT_POINTS",
    "IndexSnapshot",
    "LabelUpdateStats",
    "StructureUpdateStats",
    "apply_weight_update",
    "apply_weight_updates",
    "apply_flow_update",
    "apply_flow_updates",
    "set_fault_hook",
]


# ----------------------------------------------------------------------
# fault checkpoints (consumed by repro.testing.faults)
# ----------------------------------------------------------------------
#: Every instrumented point inside the maintenance algorithms, in execution
#: order.  A hook installed via :func:`set_fault_hook` is invoked with the
#: point name each time execution passes it; raising from the hook exercises
#: the transactional rollback at exactly that moment.
FAULT_POINTS: tuple[str, ...] = (
    "ilu:weight-set",
    "ilu:shortcut-repaired",
    "ilu:bags-synced",
    "ilu:labels-refreshed",
    "flow:flow-set",
    "isu:window-eliminated",
    "isu:frontier-compared",
    "isu:structure-stitched",
    "isu:labels-refreshed",
    "gsu:prefix-replayed",
    "gsu:suffix-eliminated",
    "gsu:structure-rebuilt",
    "gsu:labels-refreshed",
    # background consolidation (repro.core.overlay) — fold the delta overlay
    # into a back-buffer clone, then swap it in atomically.  Everything up to
    # and including "consolidate:swap-prepared" happens on the back buffer
    # only; a failure there discards the clone and leaves the serving index
    # untouched.  The commit itself is plain attribute assignment with no
    # checkpoint inside, so "consolidate:swap-committed" fires only once the
    # swap (index + overlay rebase + epoch bump) is fully visible.
    "consolidate:clone-created",
    "consolidate:weights-folded",
    "consolidate:flows-folded",
    "consolidate:swap-prepared",
    "consolidate:swap-committed",
)

_fault_hook: Callable[[str], None] | None = None


def set_fault_hook(hook: Callable[[str], None] | None) -> None:
    """Install (or clear, with ``None``) the maintenance fault hook.

    Test-only: the hook is called with the checkpoint name at every
    :data:`FAULT_POINTS` location.  An exception raised by the hook
    propagates out of the maintenance call exactly like an organic failure,
    which is how the chaos suite verifies rollback at every phase.
    """
    global _fault_hook
    _fault_hook = hook


def _checkpoint(name: str) -> None:
    if _fault_hook is not None:
        _fault_hook(name)


# ----------------------------------------------------------------------
# transactional snapshot / rollback
# ----------------------------------------------------------------------
class IndexSnapshot:
    """A restorable snapshot of a :class:`HierarchyIndex`'s mutable state.

    The maintenance algorithms mutate three kinds of state:

    * the elimination's bag/middle dicts and φ array, **in place** (ILU and
      the Lemma-1 fast path) — deep-copied here and restored into the
      *original* containers, so aliases held by the tree decomposition see
      pristine data again after a rollback;
    * per-vertex arrays (label and via views, bag views, ancestor arrays)
      that are always *replaced* wholesale — shallow list copies of
      :data:`~repro.labeling.hierarchy.REPLACED_ATTRS` suffice;
    * derived objects (tree, LCA, the packed label store, arena, version
      counter) that are rebuilt as units — saving the references of
      :data:`~repro.labeling.hierarchy.REFERENCE_ATTRS` suffices.

    :meth:`HierarchyIndex.clone` copies by the same contract.

    Cost is one O(index-size) copy per snapshot — far below a label DP or a
    re-elimination, which is what makes per-update transactionality cheap
    enough to be the default.
    """

    def __init__(self, index: HierarchyIndex) -> None:
        self._index = index
        elim = index.elim
        self._elim_obj = elim
        self._order = list(elim.order)
        self._rank = elim.rank.copy()
        self._phi = elim.phi_at_elim.copy()
        self._bags = [dict(b) for b in elim.bags]
        self._middles = [dict(m) for m in elim.middles]
        self._replaced = {name: list(getattr(index, name)) for name in REPLACED_ATTRS}
        self._references = {name: getattr(index, name) for name in REFERENCE_ATTRS}
        flows = getattr(index, "flows", None)
        self._flows = flows.copy() if flows is not None else None

    def restore(self) -> None:
        """Roll the index back to the exact state captured at construction."""
        index = self._index
        elim = self._elim_obj
        # restore the original elimination object's contents in place: the
        # tree decomposition (and anything else) holding a reference to it
        # observes the rollback too.
        elim.order[:] = self._order
        elim.rank[:] = self._rank
        elim.phi_at_elim[:] = self._phi
        for bag, saved in zip(elim.bags, self._bags):
            bag.clear()
            bag.update(saved)
        for mid, saved in zip(elim.middles, self._middles):
            mid.clear()
            mid.update(saved)
        index.elim = elim
        for name, value in self._replaced.items():
            setattr(index, name, list(value))
        for name, value in self._references.items():
            setattr(index, name, value)
        if self._flows is not None:
            index.flows = self._flows.copy()


def _transactional(
    operation: str,
    index: HierarchyIndex,
    body: Callable[[], "LabelUpdateStats | StructureUpdateStats"],
):
    """Run ``body`` with all-or-nothing semantics on ``index``.

    Any exception triggers a full rollback to the pre-call state and is
    re-raised wrapped in :class:`MaintenanceError` (original chained as
    ``__cause__``).
    """
    snapshot = IndexSnapshot(index)
    try:
        return body()
    except Exception as exc:
        snapshot.restore()
        obs.counter(
            "repro_maintenance_rollbacks_total",
            "maintenance operations rolled back after a mid-flight failure",
        ).inc(op=operation)
        raise MaintenanceError(operation, exc) from exc


def _record_maintenance(
    op: str,
    seconds: float,
    labels_affected: int = 0,
    bags_rebuilt: int = 0,
    shortcuts_changed: int = 0,
) -> None:
    """Record one successful maintenance operation on the active registry."""
    registry = obs.get_registry()
    if not registry.enabled:
        return
    registry.histogram(
        "repro_maintenance_seconds", "wall time per maintenance operation"
    ).observe(seconds, op=op)
    registry.counter(
        "repro_maintenance_ops_total", "maintenance operations completed"
    ).inc(op=op)
    if labels_affected:
        registry.counter(
            "repro_maintenance_affected_labels_total",
            "labels rewritten by maintenance (the paper's affected-label metric)",
        ).inc(labels_affected, op=op)
    if bags_rebuilt:
        registry.counter(
            "repro_maintenance_bags_rebuilt_total",
            "vertices re-eliminated by structure maintenance",
        ).inc(bags_rebuilt, op=op)
    if shortcuts_changed:
        registry.counter(
            "repro_maintenance_shortcuts_changed_total",
            "shortcut weights repaired by ILU",
        ).inc(shortcuts_changed, op=op)


# ----------------------------------------------------------------------
# ILU — Index Label Update (Alg. 4)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class LabelUpdateStats:
    """Work performed by one ILU invocation."""

    shortcuts_changed: int
    labels_affected: int


def apply_weight_update(
    index: HierarchyIndex,
    u: int,
    v: int,
    new_weight: float,
    transactional: bool = True,
    prior_weight: float | None = None,
) -> LabelUpdateStats:
    """Update edge ``(u, v)`` to ``new_weight`` and repair the index (ILU).

    The graph held by the index is mutated.  Handles both weight increases
    and decreases: every touched shortcut is *recomputed from its
    invariant* (base weight vs. all eliminated contributors) rather than
    min-merged, so increases cannot leave stale underestimates behind.

    With ``transactional=True`` (default) any failure mid-repair rolls the
    index — graph weight included — back to its pre-call state and raises
    :class:`~repro.errors.MaintenanceError`; ``False`` skips the snapshot
    (slightly faster, no crash-consistency guarantee).

    ``prior_weight`` overrides the weight the *labels* were built under.
    The consolidation path needs this: its back-buffer clone shares the
    live graph, whose weight already holds ``new_weight`` (the overlay
    absorbed it), so reading the graph would make the repair a no-op.
    Passing the overlay's recorded stable weight makes ILU repair the
    clone's labels from that stable state to the current one.
    """
    graph = index.graph
    try:
        new_weight = float(new_weight)
    except (TypeError, ValueError) as exc:
        raise GraphError(f"edge weight must be a number, got {new_weight!r}") from exc
    if not math.isfinite(new_weight):
        raise GraphError(f"edge weight must be finite, got {new_weight!r}")
    if new_weight <= 0:
        raise GraphError(f"edge weight must be positive, got {new_weight}")
    if not graph.has_edge(u, v):
        raise EdgeNotFoundError(u, v)
    with obs.trace("maintenance.weight_update", u=u, v=v) as span:
        if not transactional:
            stats = _ilu_impl(index, u, v, new_weight, prior_weight=prior_weight)
        else:
            old_weight = graph.weight(u, v)

            def body() -> LabelUpdateStats:
                try:
                    return _ilu_impl(index, u, v, new_weight, prior_weight=prior_weight)
                except Exception:
                    graph.set_weight(u, v, old_weight)
                    raise

            stats = _transactional("apply_weight_update", index, body)
    _record_maintenance(
        "ilu",
        span.seconds,
        labels_affected=stats.labels_affected,
        shortcuts_changed=stats.shortcuts_changed,
    )
    return stats


def _ilu_impl(
    index: HierarchyIndex,
    u: int,
    v: int,
    new_weight: float,
    prior_weight: float | None = None,
) -> LabelUpdateStats:
    graph = index.graph
    old_weight = graph.weight(u, v) if prior_weight is None else float(prior_weight)
    graph.set_weight(u, v, new_weight)
    _checkpoint("ilu:weight-set")
    if new_weight == old_weight:
        return LabelUpdateStats(shortcuts_changed=0, labels_affected=0)

    rank = index.elim.rank
    bags = index.elim.bags
    middles = index.elim.middles
    inverse = index.inverse_bags()

    heap: list[tuple[tuple[int, int], int, int]] = []
    queued: set[tuple[int, int]] = set()

    def push(x: int, y: int) -> None:
        lo, hi = (x, y) if rank[x] < rank[y] else (y, x)
        if (lo, hi) not in queued:
            queued.add((lo, hi))
            heapq.heappush(heap, ((int(rank[lo]), int(rank[hi])), lo, hi))

    push(u, v)
    shortcuts_changed = 0
    dirty_vertices: set[int] = set()

    while heap:
        _, lo, hi = heapq.heappop(heap)
        # recompute the shortcut invariant for the pair (lo, hi)
        base = graph.adjacency(lo).get(hi, math.inf)
        best = base
        best_middle: int | None = None
        for c in inverse[lo] & inverse[hi]:
            contribution = bags[c][lo] + bags[c][hi]
            if contribution < best:
                best = contribution
                best_middle = c
        old = bags[lo].get(hi)
        if old is None:
            raise IndexStateError(
                f"pair ({lo}, {hi}) reached the ILU worklist but is not a bag edge"
            )
        # the recorded middle must stay consistent with the recomputed
        # minimum even when the *value* is unchanged (the old realiser may
        # have grown while another contributor now ties it) — path
        # unpacking expands through the middle, so a stale one yields a
        # non-shortest concrete path.
        middles[lo][hi] = best_middle
        if best != old:
            bags[lo][hi] = best
            shortcuts_changed += 1
            dirty_vertices.add(lo)
            # eliminating `lo` fed W(lo, hi) into every pair (hi, y) of its bag
            for y in bags[lo]:
                if y != hi:
                    push(hi, y)
    _checkpoint("ilu:shortcut-repaired")

    for vertex in dirty_vertices:
        index.sync_bag(vertex)
    _checkpoint("ilu:bags-synced")
    labels_affected = (
        index.refresh_labels(seeds=dirty_vertices) if dirty_vertices else 0
    )
    _checkpoint("ilu:labels-refreshed")
    return LabelUpdateStats(
        shortcuts_changed=shortcuts_changed,
        labels_affected=labels_affected,
    )


def apply_weight_updates(
    index: HierarchyIndex,
    updates: list[tuple[int, int, float]],
    atomic: bool = False,
) -> LabelUpdateStats:
    """Apply a batch of weight updates, aggregating the statistics.

    With ``atomic=False`` (default) each update is individually
    transactional: a failure mid-batch leaves the successfully applied
    prefix in place and raises.  ``atomic=True`` gives all-or-nothing batch
    semantics — any failure (validation included) rolls the *entire batch*
    back before :class:`~repro.errors.MaintenanceError` is raised.
    """

    def run() -> LabelUpdateStats:
        shortcuts = 0
        labels = 0
        for u, v, weight in updates:
            stats = apply_weight_update(
                index, u, v, weight, transactional=not atomic
            )
            shortcuts += stats.shortcuts_changed
            labels += stats.labels_affected
        return LabelUpdateStats(shortcuts_changed=shortcuts, labels_affected=labels)

    if not atomic:
        return run()
    weights_before = {
        (u, v): index.graph.weight(u, v)
        for u, v, _ in updates
        if index.graph.has_edge(u, v)
    }

    def body() -> LabelUpdateStats:
        try:
            return run()
        except Exception:
            for (u, v), w in weights_before.items():
                index.graph.set_weight(u, v, w)
            raise

    return _transactional("apply_weight_updates", index, body)


# ----------------------------------------------------------------------
# GSU / ISU — structure updates on flow change (Alg. 3)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class StructureUpdateStats:
    """Work performed by one structure update."""

    strategy: str  # "noop" | "isu" | "gsu"
    window: tuple[int, int] | None
    bags_rebuilt: int
    labels_affected: int


def _ordering_window(
    phis: np.ndarray,
    r_old: int,
    phi_star: float,
) -> tuple[int, int]:
    """Rank window possibly affected by re-scoring ``order[r_old]``.

    Scans the recorded φ-at-elimination sequence outward from the old rank
    until the new score fits; conservative when dynamic degrees made the
    recorded sequence non-monotone.
    """
    n = len(phis)
    if phi_star >= phis[r_old]:
        r_hi = r_old
        while r_hi + 1 < n and phis[r_hi + 1] <= phi_star:
            r_hi += 1
        return r_old, r_hi
    r_lo = r_old
    while r_lo - 1 >= 0 and phis[r_lo - 1] >= phi_star:
        r_lo -= 1
    return r_lo, r_old


def _stitch_elimination(
    old: EliminationResult,
    keep_steps: int,
    new_order: list[int],
    new_phi: list[float],
    new_bags: dict[int, dict[int, float]],
    new_middles: dict[int, dict[int, int | None]],
    tail: EliminationResult | None = None,
    tail_from: int = 0,
) -> EliminationResult:
    """Combine a kept prefix, a re-run segment and (optionally) an old tail."""
    order = old.order[:keep_steps] + new_order
    phi = list(old.phi_at_elim[:keep_steps]) + new_phi
    bags = list(old.bags)
    middles = list(old.middles)
    for vertex in new_order:
        bags[vertex] = new_bags[vertex]
        middles[vertex] = new_middles[vertex]
    if tail is not None:
        order += tail.order[tail_from:]
        phi += list(tail.phi_at_elim[tail_from:])
    n = len(bags)
    rank = np.full(n, -1, dtype=np.int64)
    for r, vertex in enumerate(order):
        rank[vertex] = r
    return EliminationResult(
        order=order,
        rank=rank,
        bags=bags,
        middles=middles,
        phi_at_elim=np.asarray(phi, dtype=np.float64),
    )


def _gsu_rebuild(
    index: FAHLIndex,
    from_rank: int,
    state: tuple[list[dict[int, float]], list[dict[int, int | None]]] | None = None,
) -> StructureUpdateStats:
    """Rebuild the elimination from ``from_rank`` onward (GSU).

    ``state`` may supply a pre-reconstructed elimination frontier at
    ``from_rank`` (the ISU fallback path already has one); otherwise it is
    reconstructed from the current bags.
    """
    old = index.elim
    graph = index.graph
    adj, mids = state if state is not None else replay_prefix(graph, old, from_rank)
    _checkpoint("gsu:prefix-replayed")
    active = set(old.order[from_rank:])
    importance = index.importance_function()
    order, phi, bags, middles = run_elimination_steps(adj, mids, importance, active)
    _checkpoint("gsu:suffix-eliminated")
    index.elim = _stitch_elimination(old, from_rank, order, phi, bags, middles)
    index.rebuild_structure()
    _checkpoint("gsu:structure-rebuilt")
    labels_affected = index.refresh_labels()
    _checkpoint("gsu:labels-refreshed")
    return StructureUpdateStats(
        strategy="gsu",
        window=(from_rank, len(old.order) - 1),
        bags_rebuilt=len(order),
        labels_affected=labels_affected,
    )


def _frontier_matches(
    adj_new: list[dict[int, float]],
    mids_new: list[dict[int, int | None]],
    adj_old: list[dict[int, float]],
    mids_old: list[dict[int, int | None]],
    remaining: list[int],
) -> bool:
    """Whether two elimination frontiers agree on the remaining vertices.

    Both weights and shortcut middles must match: equal middles guarantee
    that every suffix shortcut still expands into a valid concrete path.
    """
    for vertex in remaining:
        if adj_new[vertex] != adj_old[vertex]:
            return False
        if mids_new[vertex] != mids_old[vertex]:
            return False
    return True


def apply_flow_update(
    index: FAHLIndex,
    vertex: int,
    new_flow: float,
    method: str = "isu",
    transactional: bool = True,
) -> StructureUpdateStats:
    """Update a vertex's predicted flow and maintain the index structure.

    Parameters
    ----------
    method:
        ``"isu"`` (Alg. 3: window re-elimination with suffix splice,
        GSU fallback) or ``"gsu"`` (always rebuild from the affected rank).
    transactional:
        ``True`` (default) snapshots the index first and rolls back on any
        failure, raising :class:`~repro.errors.MaintenanceError`: a crash
        mid-ISU/GSU can no longer leave a half-re-eliminated index behind.
        ``False`` skips the snapshot.

    Notes
    -----
    Only the *index* is updated here; the caller owns the FRN's predicted
    flow series.  The Lemma-1 fast path returns ``strategy="noop"`` when
    the re-scored vertex keeps its place in the ordering sequence — labels
    are untouched because they depend only on weights and ordering.
    """
    if method not in ("isu", "gsu"):
        raise IndexStateError(f"method must be 'isu' or 'gsu', got {method!r}")
    try:
        new_flow = float(new_flow)
    except (TypeError, ValueError) as exc:
        raise GraphError(f"flow must be a number, got {new_flow!r}") from exc
    if not math.isfinite(new_flow):
        # NaN slips through a plain `new_flow < 0` check (all comparisons
        # with NaN are False) and would poison every later φ comparison.
        raise GraphError(f"flow must be finite, got {new_flow!r}")
    if new_flow < 0:
        raise GraphError(f"flow must be non-negative, got {new_flow}")
    n = index.graph.num_vertices
    if not 0 <= vertex < n:
        raise IndexStateError(f"unknown vertex {vertex}")
    with obs.trace("maintenance.flow_update", vertex=vertex, method=method) as span:
        if not transactional:
            stats = _flow_update_impl(index, vertex, new_flow, method)
        else:
            stats = _transactional(
                "apply_flow_update",
                index,
                lambda: _flow_update_impl(index, vertex, new_flow, method),
            )
    _record_maintenance(
        stats.strategy,
        span.seconds,
        labels_affected=stats.labels_affected,
        bags_rebuilt=stats.bags_rebuilt,
    )
    if method == "isu" and stats.strategy == "gsu":
        obs.counter(
            "repro_maintenance_isu_fallbacks_total",
            "ISU windows whose frontier mismatched, falling back to GSU",
        ).inc()
    return stats


def _flow_update_impl(
    index: FAHLIndex,
    vertex: int,
    new_flow: float,
    method: str,
) -> StructureUpdateStats:
    index.flows[vertex] = new_flow
    _checkpoint("flow:flow-set")
    old = index.elim
    r_old = int(old.rank[vertex])
    degree_at_elim = len(old.bags[vertex])
    phi_star = index.phi_of(vertex, degree_at_elim)
    phis = old.phi_at_elim

    # Lemma 1: ordering-sequence position unchanged -> no structural work.
    r_lo, r_hi = _ordering_window(phis, r_old, phi_star)
    if r_lo == r_hi:
        phis[r_old] = phi_star
        return StructureUpdateStats(
            strategy="noop", window=None, bags_rebuilt=0, labels_affected=0
        )

    if method == "gsu":
        return _gsu_rebuild(index, r_lo)

    # ISU: re-eliminate the window only, then try to splice the suffix.
    graph = index.graph
    adj_base, mids_base = replay_prefix(graph, old, r_lo)
    adj_new = [dict(d) for d in adj_base]
    mids_new = [dict(d) for d in mids_base]
    window = set(old.order[r_lo:r_hi + 1])
    importance = index.importance_function()
    w_order, w_phi, w_bags, w_middles = run_elimination_steps(
        adj_new, mids_new, importance, window
    )
    _checkpoint("isu:window-eliminated")
    # old frontier after the window: advance a copy of the r_lo state
    # through the window using the *old* bags (fills into window vertices
    # are irrelevant — they get removed — so restrict to the suffix).
    adj_old = [dict(d) for d in adj_base]
    mids_old = [dict(d) for d in mids_base]
    remaining = old.order[r_hi + 1:]
    suffix = set(remaining)
    for r in range(r_lo, r_hi + 1):
        c = old.order[r]
        for x in adj_old[c]:
            del mids_old[x][c]
        for x in list(adj_old[c]):
            del adj_old[x][c]
        adj_old[c] = {}
        mids_old[c] = {}
        relax_from_bag(adj_old, mids_old, old.bags[c], c, suffix)
    frontier_ok = _frontier_matches(adj_new, mids_new, adj_old, mids_old, remaining)
    _checkpoint("isu:frontier-compared")
    if not frontier_ok:
        # adj_base is still the pristine r_lo frontier — resume GSU from it
        return _gsu_rebuild(index, r_lo, state=(adj_base, mids_base))

    old_parent = index.tree.parent.copy()
    index.elim = _stitch_elimination(
        old, r_lo, w_order, w_phi, w_bags, w_middles,
        tail=old, tail_from=r_hi + 1,
    )
    index.rebuild_structure()
    _checkpoint("isu:structure-stitched")
    parent_changed = {
        int(v) for v in np.nonzero(index.tree.parent != old_parent)[0]
    }
    labels_affected = index.refresh_labels(
        seeds=set(w_order), force_subtree_roots=parent_changed
    )
    _checkpoint("isu:labels-refreshed")
    return StructureUpdateStats(
        strategy="isu",
        window=(r_lo, r_hi),
        bags_rebuilt=len(w_order),
        labels_affected=labels_affected,
    )


def apply_flow_updates(
    index: FAHLIndex,
    updates: dict[int, float],
    method: str = "isu",
    atomic: bool = False,
) -> list[StructureUpdateStats]:
    """Apply several flow updates in vertex order; one stats entry each.

    With ``atomic=False`` (default) each update is individually
    transactional: a mid-batch failure keeps the already-applied prefix and
    raises.  ``atomic=True`` rolls the *whole batch* back on any failure —
    validation errors included — before raising
    :class:`~repro.errors.MaintenanceError`.
    """

    def run() -> list[StructureUpdateStats]:
        return [
            apply_flow_update(
                index, vertex, flow, method=method, transactional=not atomic
            )
            for vertex, flow in sorted(updates.items())
        ]

    if not atomic:
        return run()
    return _transactional("apply_flow_updates", index, run)

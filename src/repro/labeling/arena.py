"""Contiguous label storage for vectorised many-pair distance queries.

Flat label storage is what gives practical labeling systems their query
speed (hierarchical cut labelling and PSL both pack labels contiguously).
:class:`~repro.labeling.hierarchy.HierarchyIndex` keeps its labels that
way: one packed store, int32 while every entry is a small non-negative
integer (always so on integer-weight road networks) and float64
otherwise, whose slices are the per-vertex label views that maintenance
and the scalar query read.  :class:`LabelArena` reads that store and the
index's flat ancestor paths in place, and packs only the position arrays
of its own, with ``int64`` offset tables.
:meth:`pair_distances` then answers thousands of (source, target, hub)
triples with a handful of numpy gathers and one reduction — no Python loop
on the hot path.

The one-to-all table ``dis(·, t)`` uses a different kernel.  In the tree
decomposition, ``bag(x)`` separates ``subtree(x)`` from the rest of the
graph, so for every ``x`` that is not an ancestor of ``t``

.. math::

    dis(x, t) = \\min_{y \\in bag(x)} \\big( L_x[depth(y)] + dis(y, t) \\big)

where every ``y`` is a shallower ancestor of ``x``, and for an ancestor
``a`` of ``t`` the value is ``L_t[depth(a)]`` directly.
:meth:`LabelArena.distances_to_many` evaluates this top-down for ``k``
targets at once, one tree level per segmented numpy reduction over an
``(n, k)`` buffer, on a per-level :class:`SweepPlan` built lazily on the
first call (or ahead of it by :meth:`LabelArena.sweep_plan`, which is how
the query engine warms an index before forking batch workers).  The plan
stores each level's bags ragged, back to back, so a sweep reads exactly
k · (sum of bag sizes) label entries, instead of one LCA position row per
vertex and target.  A level's three numpy calls (a take, an add and a
``minimum.reduceat``) have a fixed overhead that the ``k`` targets share.

The arena is a *snapshot*: it records the index's label version at build
time, and :meth:`HierarchyIndex.arena` rebuilds it whenever maintenance
(ILU/ISU/GSU) bumps the version, so a stale arena (and its plan) can never
serve a query.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.errors import IndexStateError

if TYPE_CHECKING:  # avoid a cycle: hierarchy imports this module
    from repro.labeling.hierarchy import HierarchyIndex

__all__ = ["LabelArena"]

#: the dense padded position matrix is ``n * max_width`` entries; past
#: this element budget the arena keeps only the ragged layout and
#: :meth:`LabelArena.pair_distances` uses the segmented-reduction kernel.
_DENSE_POS_LIMIT = 32_000_000


class SweepPlan:
    """Per-depth rows of the one-to-all recurrence, in depth-sorted order.

    Vertices are renumbered by depth (:attr:`rank`), so tree level ``d``
    is the contiguous slice ``levels[d - 1][0:2]`` of the sweep's distance
    buffer.  Each level stores its vertices' bags back to back, ragged,
    with no padding: ``bag`` holds the slots of each vertex's bag
    ancestors ``y`` and ``lab`` its label entries at their depths, widened
    to int64 like the sweep buffer,
    ``L_x[depth(y)]``, and ``seg[i]`` is where the level's ``i``-th vertex
    begins in both.  One segmented minimum per level
    (``np.minimum.reduceat`` over ``seg``) then reads exactly the sum of
    the level's bag sizes.  Every non-root vertex's bag holds at least its
    parent, so no segment is empty.

    Attributes
    ----------
    rank:
        ``rank[v]`` is the depth-sorted slot of vertex ``v``.
    levels:
        ``levels[d - 1] = (lo, hi, bag, lab, seg)`` for depths
        ``1..height``.
    """

    __slots__ = ("rank", "levels")

    def __init__(self, arena: "LabelArena", index: "HierarchyIndex") -> None:
        depth = index.tree.depth
        n = arena.num_vertices
        order = np.argsort(depth, kind="stable")
        self.rank = np.empty(n, dtype=np.int64)
        self.rank[order] = np.arange(n, dtype=np.int64)
        # a position array is the depths of the vertex's bag, ascending,
        # then its own depth: the bag is all but its last entry
        first = arena.pos_offsets[order]
        size = arena.pos_offsets[order + 1] - first - 1
        edge = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(size, out=edge[1:])
        cell = np.arange(int(edge[-1]), dtype=np.int64)
        at = arena.pos_values[cell + np.repeat(first - edge[:-1], size)]
        # a label and an ancestor path both hold depth + 1 entries, so one
        # offset reaches the entry and the ancestor at a bag member's depth
        at = at + np.repeat(arena.label_offsets[order], size)
        bag = self.rank[arena.anc_values[at]]
        lab = arena.label_values[at].astype(np.int64)
        bounds = np.searchsorted(depth[order], np.arange(int(depth.max()) + 2))
        self.levels: list[tuple[int, int, np.ndarray, np.ndarray, np.ndarray]] = []
        for lo, hi in zip(bounds[1:-1].tolist(), bounds[2:].tolist()):
            a, b = int(edge[lo]), int(edge[hi])
            self.levels.append((lo, hi, bag[a:b], lab[a:b], edge[lo:hi] - a))

    @property
    def cells(self) -> int:
        """Bag cells over all levels: the entries one sweep column reads."""
        return sum(len(lab) for _, _, _, lab, _ in self.levels)

    @property
    def nbytes(self) -> int:
        """Bytes owned by the plan."""
        return self.rank.nbytes + sum(
            bag.nbytes + lab.nbytes + seg.nbytes
            for _, _, bag, lab, seg in self.levels
        )


class LabelArena:
    """Flat labels and positions of one :class:`HierarchyIndex`.

    Attributes
    ----------
    version:
        The index's label version when the arena was built; compared by
        :meth:`HierarchyIndex.arena` to decide whether a rebuild is due.
    label_offsets, label_values:
        ``label_values[label_offsets[v]:label_offsets[v + 1]]`` is the
        distance label of ``v`` — the index's own packed store, *shared*,
        not copied.  It is int32 when every entry is a non-negative
        integer and twice the largest fits in int32 (see
        :attr:`quantized`), float64 otherwise.  Sums of two such integers
        are exact in int32, and minima are exact in either dtype, so every
        kernel returns the same float64 bits on both.
    pos_offsets, pos_values:
        Def.-8 position arrays (int32 depths), same layout.
    pos_pad:
        Dense ``(n, max_width)`` position matrix, each row the hub's
        position array padded by repeating its last entry (a duplicate
        candidate never changes a minimum).  Lets the hot kernel run on
        rectangular gathers with no per-pair expansion; ``None`` when the
        matrix would exceed the :data:`_DENSE_POS_LIMIT` element budget.
    anc_offsets, anc_values:
        Root-to-vertex ancestor paths — *shared* with the index's flat
        ancestor storage, not copied.
    """

    __slots__ = (
        "version",
        "num_vertices",
        "label_offsets",
        "label_values",
        "pos_offsets",
        "pos_values",
        "pos_pad",
        "anc_offsets",
        "anc_values",
        "_plan",
    )

    def __init__(self, index: "HierarchyIndex") -> None:
        n = self.num_vertices = index.graph.num_vertices
        self.version = index.label_version
        self.label_offsets = index.label_offsets
        self.label_values = index.label_values
        self.pos_offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum([len(p) for p in index.positions], out=self.pos_offsets[1:])
        self.pos_values = np.concatenate(index.positions, dtype=np.int32)
        self.pos_pad = self._pad_positions()
        self.anc_offsets = index.anc_offsets
        self.anc_values = index.anc_flat
        self._plan: SweepPlan | None = None

    def _pad_positions(self) -> np.ndarray | None:
        n = self.num_vertices
        counts = self.pos_offsets[1:] - self.pos_offsets[:-1]
        if n == 0 or int(counts.max()) * n > _DENSE_POS_LIMIT:
            return None
        # row v reads pos_values[pos_offsets[v] + min(col, count_v - 1)]:
        # the window itself, then its last entry repeated out to max width
        col = np.arange(int(counts.max()), dtype=np.int64)
        idx = self.pos_offsets[:-1, None] + np.minimum(col, counts[:, None] - 1)
        return self.pos_values[idx]

    @property
    def nbytes(self) -> int:
        """Bytes owned by the arena, its :class:`SweepPlan` once built.

        The shared label store and ancestor arrays are excluded — they
        belong to (and are counted by) the index itself.
        """
        return (
            self.pos_offsets.nbytes
            + self.pos_values.nbytes
            + (self.pos_pad.nbytes if self.pos_pad is not None else 0)
            + (self._plan.nbytes if self._plan is not None else 0)
        )

    @property
    def quantized(self) -> bool:
        """Whether the label store is int32.

        True when every label value is a non-negative integer and twice
        the largest fits in int32 — always the case for integer-weight
        road networks of realistic size, where label entries are sums of
        edge weights.  It selects the one-to-all sweep of
        :meth:`distances_to_many`.
        """
        return self.label_values.dtype == np.int32

    def sweep_plan(self, index: "HierarchyIndex") -> SweepPlan:
        """The :class:`SweepPlan` of :meth:`distances_to_many`, built once.

        ``index`` is the index this arena snapshots; the first call packs
        its tree depths and bags into the plan, without sweeping any
        table.  Only for :attr:`quantized` arenas.
        """
        plan = self._plan
        if plan is None:
            if index.label_version != self.version:
                raise IndexStateError("sweep plan needs the arena's own index")
            plan = self._plan = SweepPlan(self, index)
        return plan

    def distances_to_many(
        self, targets: np.ndarray, index: "HierarchyIndex"
    ) -> tuple[np.ndarray, int]:
        """``dis(v, t)`` for every ``v`` and each ``t`` in ``targets``.

        Only for :attr:`quantized` arenas; ``targets`` is a 1-D int64 array
        of valid vertex ids (duplicates allowed).  ``index`` is the index
        this arena snapshots; the first call builds the
        :meth:`sweep_plan`.  Returns a ``(k, n)`` float64 block
        whose row ``j`` is the table of ``targets[j]``, bit-identical to
        ``[index.distance(v, targets[j]) for v]``, and the label entries
        read: ``k`` times the bag cells of the levels visited plus every
        target's label.

        One top-down pass serves all ``k`` targets, one column each of an
        ``(n, k)`` int64 buffer (a 1-D buffer when ``k == 1``).  Each level
        ``d = 1..height`` takes ``min over y in bag(x) of L_x[depth(y)] +
        D[y]`` for all its vertices and all columns at once: one take of
        the level's ragged bag cells, one add of their label entries and
        one ``minimum.reduceat`` over the vertices' segments, written
        straight into the level's rows; none of them mixes columns.  The
        recurrence holds for every ``x`` that is not an ancestor of the
        column's target ``t``, since then ``bag(x)`` separates
        ``subtree(x)``, which holds no ``t``, from ``t``, and every ``y``
        is shallower, so ``D[y]`` is final.  Right after the level, each
        target at least ``d`` deep has its depth-``d`` ancestor ``a``
        restored to ``L_t[d] = dis(a, t)`` in its own column, before any
        deeper level reads it; a target shallower than ``d`` has no
        ancestor on the level.  Targets are
        sorted deepest first, so the ones still deep enough are a prefix
        of the columns and the restore is one assignment.  A level whose
        one vertex is an ancestor of every target is not reduced at all.
        Every value is an integer below ``2**32`` in an int64 buffer, so
        each sum and minimum is exact.
        """
        plan = self.sweep_plan(index)
        n, k = self.num_vertices, len(targets)
        one = k == 1
        if one:
            t = int(targets[0])
            lt = self.label_values[
                self.label_offsets[t]:self.label_offsets[t + 1]
            ].tolist()
            slots = plan.rank[
                self.anc_values[self.anc_offsets[t]:self.anc_offsets[t + 1]]
            ].tolist()
            shallowest = deepest = len(lt) - 1
            read = len(lt)
            dist = flat = np.empty(n, dtype=np.int64)
        else:
            # a label holds one entry per ancestor, so its length is depth + 1
            starts = self.label_offsets[targets]
            depth = self.label_offsets[targets + 1] - starts - 1
            order = np.argsort(-depth, kind="stable")
            depth = depth[order]
            shallowest, deepest = int(depth[-1]), int(depth[0])
            # (deepest + 1, k): row d holds each target's depth-d ancestor
            # slot (flat in the buffer) and label entry, padded past the
            # target's own depth; alive[d] targets are at least d deep
            levels = np.arange(deepest + 1)
            pick = np.minimum(levels[:, None], depth)
            lt = self.label_values[starts[order] + pick].astype(np.int64)
            slots = plan.rank[self.anc_values[self.anc_offsets[targets[order]] + pick]]
            slots = slots * k + np.arange(k)
            alive = np.searchsorted(-depth, -levels, side="right").tolist()
            slots = [slots[d, :c] for d, c in enumerate(alive)]
            lt = [lt[d, :c] for d, c in enumerate(alive)]
            read = int(depth.sum()) + k
            dist = np.empty((n, k), dtype=np.int64)
            flat = dist.reshape(-1)
        flat[slots[0]] = lt[0]  # the root, an ancestor of every target
        cells = 0
        reduce_min = np.minimum.reduceat
        for d, (lo, hi, bag, lab, seg) in enumerate(plan.levels, start=1):
            if d > shallowest or hi - lo > 1:
                cand = dist.take(bag, axis=0)
                cand += lab if one else lab[:, None]
                reduce_min(cand, seg, axis=0, out=dist[lo:hi])
                cells += len(lab)
            if d <= deepest:
                flat[slots[d]] = lt[d]
        read += k * cells
        if one:
            return dist.take(plan.rank).astype(np.float64)[None, :], read
        block = np.empty((k, n), dtype=np.float64)
        block[order] = dist.take(plan.rank, axis=0).T
        return block, read

    def pair_distances(
        self,
        sources: np.ndarray,
        targets: np.ndarray,
        hubs: np.ndarray,
    ) -> np.ndarray:
        """Eq.-5 distances for aligned ``(source, target, hub)`` triples.

        ``hubs[i]`` must be the LCA node of ``sources[i]`` and
        ``targets[i]`` in the decomposition tree (Alg. 2's hub node).  Each
        pair's candidate sums ``label[u][p] + label[v][p]`` over the hub's
        position array are folded with an exact minimum and returned as
        float64.  Both kernels below run on whichever dtype
        :attr:`label_values` has: on int32 labels every sum of two entries
        fits int32 and the cast back to float64 is lossless, and a
        float64 minimum is order-independent over finite values, so either
        way the result agrees bit for bit with the scalar query.

        The hot path gathers padded position rows from :attr:`pos_pad`,
        shifts them by each endpoint's label offset and reduces along a
        rectangular axis — no per-pair expansion at all (the pad duplicates
        each row's last candidate, which cannot change a minimum).  When the
        dense matrix was over budget at build time, a ragged kernel expands
        each pair's window with ``repeat`` and folds it with a segmented
        ``minimum.reduceat`` — segments are never empty because every
        position array contains the vertex's own depth.
        """
        values = self.label_values
        if self.pos_pad is not None:
            off_u = self.label_offsets.take(sources)
            idx = self.pos_pad.take(hubs, axis=0) + off_u[:, None]
            lu = values.take(idx)
            idx += (self.label_offsets.take(targets) - off_u)[:, None]
            lu += values.take(idx)
            return lu.min(axis=1).astype(np.float64, copy=False)
        # ragged fallback: hub-sorted so shared hubs reuse cached windows
        order = np.argsort(hubs, kind="stable")
        h = hubs[order]
        pos_offsets = self.pos_offsets
        label_offsets = self.label_offsets
        counts = pos_offsets[h + 1] - pos_offsets[h]
        ends = np.cumsum(counts)
        starts = ends - counts
        # flat[i] walks each pair's window [pos_offsets[hub], +count) in turn
        flat = np.arange(int(ends[-1]), dtype=np.int64)
        flat += np.repeat(pos_offsets[h] - starts, counts)
        pos = np.take(self.pos_values, flat)
        off_u = label_offsets[sources[order]]
        off_v = label_offsets[targets[order]]
        idx = np.repeat(off_u, counts)
        idx += pos
        lu = np.take(values, idx)
        idx += np.repeat(off_v - off_u, counts)
        lu += np.take(values, idx)
        out = np.empty(len(order), dtype=np.float64)
        out[order] = np.minimum.reduceat(lu, starts)
        return out

    def __repr__(self) -> str:
        return (
            f"LabelArena(n={self.num_vertices}, "
            f"entries={len(self.label_values)}, version={self.version})"
        )

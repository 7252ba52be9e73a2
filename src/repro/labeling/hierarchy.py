"""Hierarchical 2-hop labeling over a tree decomposition.

This is the machinery shared by H2H (degree ordering) and FAHL (degree-flow
joint ordering): only the elimination ordering differs; the label structure
(Def. 8), the LCA-based distance query (Alg. 2 / Eq. 5), path unpacking and
the partial label-refresh used by the maintenance algorithms are identical.

Labels are computed by a root-to-leaf DFS that maintains ``M``, the pairwise
shortest-distance matrix of the current root path: the distance array of
``v`` at depth ``d`` is

.. math::

    dis(v, m_j) = \\min_{x \\in bag(v)} \\big( w_H(v, x) + M[pos(x), j] \\big)
    \\qquad j < d

— one vectorised numpy reduction per vertex, which is what makes pure-Python
labeling viable at reproduction scale.  The same DFS, restricted to dirty
subtrees with change-propagation pruning, implements the label refresh that
ILU/ISU need; its return value (number of labels actually rewritten) is the
"affected labels" metric of the paper's Fig. 9.

Every label write ends in one packed store: ``label_values`` (one entry
per tree ancestor of each vertex, back to back by vertex id, offsets in
``label_offsets``) and ``via_values`` (the same layout, one entry shorter
per vertex).  ``labels[v]`` and ``vias[v]`` are views into it, and the
packed :class:`~repro.labeling.arena.LabelArena` reads the same arrays.
The store is int32 when every entry is a non-negative integer and twice
the largest fits in int32 (always so on integer-weight road networks), so
a sum of two entries is exact in int32; float64 otherwise.  Maintenance
never writes into a store: it packs a new one at the end of each label
refresh, so an :class:`~repro.core.maintenance.IndexSnapshot` or a
:meth:`HierarchyIndex.clone` may share the old one.
"""

from __future__ import annotations

import copy
import hashlib

import numpy as np

from repro import obs
from repro.errors import IndexStateError, QueryError
from repro.graph.road_network import RoadNetwork
from repro.graph.validation import require_connected
from repro.labeling.arena import LabelArena
from repro.treedec.elimination import EliminationResult, eliminate
from repro.treedec.lca import EulerTourLCA
from repro.treedec.ordering import ImportanceFunction
from repro.treedec.tree import TreeDecomposition

__all__ = ["HierarchyIndex", "build_hierarchy_index"]

_INT32_MAX = int(np.iinfo(np.int32).max)

#: per-vertex lists that maintenance *replaces* element-wise (never
#: mutating an element in place): a shallow list copy preserves them
REPLACED_ATTRS = (
    "labels",
    "vias",
    "bag_keys",
    "bag_weights",
    "bag_pos",
    "positions",
    "anc",
)
#: objects that maintenance rebinds as units (never mutating them in
#: place): sharing the reference preserves them
REFERENCE_ATTRS = (
    "tree",
    "lca",
    "anc_offsets",
    "anc_flat",
    "label_offsets",
    "label_values",
    "via_values",
    "_depth",
    "_inv_bags",
    "_arena",
    "_version",
)


def _narrow(values: np.ndarray) -> np.ndarray:
    """``values`` as int32 when that is exact and sums of two stay in range.

    That is when every entry is a non-negative integer and twice the
    largest fits in int32; otherwise ``values`` unchanged.
    """
    if not (float(values.min()) >= 0.0 and 2.0 * float(values.max()) <= _INT32_MAX):
        return values
    ints = values.astype(np.int32)
    return ints if np.array_equal(ints, values) else values


class HierarchyIndex:
    """Tree-decomposition 2-hop labeling with exact distance/path queries.

    Not built directly in user code — use :func:`build_hierarchy_index`, or
    the :class:`~repro.labeling.h2h.H2HIndex` / ``FAHLIndex`` wrappers.
    """

    def __init__(self, graph: RoadNetwork, elimination: EliminationResult) -> None:
        self.graph = graph
        self.elim = elimination
        with obs.stopwatch(
            metric="repro_build_phase_seconds",
            span="build.structure",
            phase="tree-structure",
        ):
            self.rebuild_structure()
        with obs.stopwatch(
            metric="repro_build_phase_seconds",
            span="build.labeling",
            phase="labeling",
        ):
            self.refresh_labels()

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------
    def rebuild_structure(self) -> None:
        """(Re)derive tree, LCA, ancestor/position arrays from ``self.elim``.

        Called at construction and after ISU/GSU change the elimination.
        Bumps the label version, invalidating any packed :class:`LabelArena`.
        """
        self.tree = TreeDecomposition(self.elim)
        self.lca = EulerTourLCA(self.tree)
        n = self.graph.num_vertices
        depth = self.tree.depth

        # ancestor arrays (root-to-v paths) packed into one preallocated
        # flat array + offsets (shared with the arena); the preorder DFS
        # keeps the current root path in a reusable buffer, so each vertex
        # costs two slice copies instead of one tiny allocation.  A label
        # holds one entry per ancestor, so these offsets are the label
        # store's too.  Ancestor ids and bag keys are int32; the position
        # arrays stay int64, since the scalar query fancy-indexes labels
        # with them and numpy converts any other index dtype per call.
        if n - 1 > _INT32_MAX:
            raise IndexStateError(f"{n} vertices: ids do not fit int32")
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(depth + 1, out=offsets[1:])
        flat = np.empty(int(offsets[n]), dtype=np.int32)
        path_buf = np.empty(int(depth.max()) + 1, dtype=np.int32)
        stack = [self.tree.root]
        while stack:
            v = stack.pop()
            d = int(depth[v])
            path_buf[d] = v
            flat[offsets[v]:offsets[v] + d + 1] = path_buf[:d + 1]
            stack.extend(self.tree.children[v])
        self.anc_offsets = offsets
        self.anc_flat = flat
        self.anc: list[np.ndarray] = [
            flat[offsets[v]:offsets[v + 1]] for v in range(n)
        ]

        self.bag_keys: list[np.ndarray] = [np.empty(0, dtype=np.int32)] * n
        self.bag_weights: list[np.ndarray] = [np.empty(0)] * n
        self.bag_pos: list[np.ndarray] = [np.empty(0, dtype=np.int64)] * n
        self.positions: list[np.ndarray] = [np.empty(0, dtype=np.int64)] * n
        for v in range(n):
            self.sync_bag(v)
        self._depth = depth
        self._inv_bags: list[set[int]] | None = None
        self._arena: LabelArena | None = None
        self._version = getattr(self, "_version", 0) + 1

    def inverse_bags(self) -> list[set[int]]:
        """``inv[x]`` = vertices whose bag contains ``x`` (cached).

        The ILU shortcut-repair pass intersects these sets to find the
        "contributors" of a bag edge.  The cache is invalidated whenever the
        elimination structure is rebuilt.
        """
        if self._inv_bags is None:
            n = self.graph.num_vertices
            inv: list[set[int]] = [set() for _ in range(n)]
            for c in range(n):
                for x in self.elim.bags[c]:
                    inv[x].add(c)
            self._inv_bags = inv
        return self._inv_bags

    def sync_bag(self, v: int) -> None:
        """Refresh the vectorised views of ``v``'s bag after a mutation."""
        bag = self.elim.bags[v]
        keys = np.fromiter(bag.keys(), dtype=np.int32, count=len(bag))
        self.bag_keys[v] = keys
        self.bag_weights[v] = np.fromiter(bag.values(), dtype=np.float64, count=len(bag))
        depth = self.tree.depth
        self.bag_pos[v] = depth[keys] if len(keys) else np.empty(0, dtype=np.int64)
        positions = np.append(self.bag_pos[v], depth[v])
        positions.sort()
        self.positions[v] = positions
        self._version = getattr(self, "_version", 0) + 1

    # ------------------------------------------------------------------
    # labels
    # ------------------------------------------------------------------
    def refresh_labels(
        self,
        seeds: set[int] | None = None,
        force_subtree_roots: set[int] | None = None,
    ) -> int:
        """(Re)compute distance labels top-down.

        Parameters
        ----------
        seeds:
            ``None`` recomputes everything.  Otherwise only vertices in
            ``seeds`` (bag weights changed) and descendants of vertices
            whose label actually changed are recomputed; subtrees that
            contain no seed and whose ancestors' labels are unchanged are
            skipped entirely.
        force_subtree_roots:
            Vertices whose *entire subtree* must be recomputed regardless of
            value comparison — used after structure updates, where ancestor
            arrays changed and old label values are meaningless even when
            numerically equal.

        Returns
        -------
        int
            Number of labels rewritten (the paper's "affected labels").

        Either way the labels end in a new packed store
        (:meth:`_set_store`).  A full refresh writes each row straight
        into one preallocated float64 block, the label lengths being known
        from the tree, and narrows the block in one ``astype``; a partial
        one computes the rewritten rows apart and packs all rows at the
        end.
        """
        tree = self.tree
        depth = tree.depth
        n = tree.num_vertices
        full = seeds is None and force_subtree_roots is None
        seeds = seeds or set()
        force_subtree_roots = force_subtree_roots or set()

        need_below = None
        if not full:
            # mark every vertex having a seed in its subtree (walk ancestors)
            need_below = bytearray(n)
            parent = tree.parent
            for s in set(seeds) | force_subtree_roots:
                v = s
                while v >= 0 and not need_below[v]:
                    need_below[v] = 1
                    v = int(parent[v])
        else:
            offsets = self.anc_offsets
            block = np.empty(int(offsets[n]), dtype=np.float64)
            via_block = np.empty(int(offsets[n]) - n, dtype=np.int32)

        h = tree.treeheight
        matrix = np.empty((h + 1, h + 1), dtype=np.float64)
        changed_count = 0

        # preorder DFS; each entry carries "an ancestor's label changed or
        # the subtree was force-marked" (both mean: recompute unconditionally
        # and propagate downward).
        stack: list[tuple[int, bool]] = [
            (tree.root, full or tree.root in force_subtree_roots)
        ]
        while stack:
            v, anc_changed = stack.pop()
            d = int(depth[v])
            recompute = anc_changed or v in seeds
            changed = False
            if full:
                # row v of the block; its via row starts v entries earlier
                # (each via row is one shorter than its label row)
                start = int(offsets[v])
                label = block[start:start + d + 1]
                if d:
                    rows = matrix[self.bag_pos[v], :d] + self.bag_weights[v][:, None]
                    rows.min(axis=0, out=label[:d])
                    via_block[start - v:start - v + d] = rows.argmin(axis=0)
                label[d] = 0.0
                changed = True
                changed_count += 1
            elif recompute:
                if d == 0:
                    label = np.zeros(1)
                    via = np.empty(0, dtype=np.int32)
                else:
                    rows = matrix[self.bag_pos[v], :d] + self.bag_weights[v][:, None]
                    head = rows.min(axis=0)
                    via = rows.argmin(axis=0).astype(np.int32)
                    label = np.append(head, 0.0)
                if anc_changed or len(self.labels[v]) != len(label) or not (
                    np.array_equal(self.labels[v], label)
                ):
                    changed = True
                    changed_count += 1
                self.labels[v] = label
                self.vias[v] = via
            else:
                label = self.labels[v]
            row = label[:d]
            matrix[d, :d] = row
            matrix[:d, d] = row
            matrix[d, d] = 0.0
            propagate = anc_changed or changed
            for child in tree.children[v]:
                child_flag = propagate or child in force_subtree_roots
                if full or child_flag or need_below[child]:
                    stack.append((child, child_flag))
        if full:
            self._set_store(block, via_block)
        else:
            values = np.concatenate(self.labels)
            if len(values) != int(self.anc_offsets[n]):
                raise IndexStateError("label lengths disagree with the tree depths")
            self._set_store(values, np.concatenate(self.vias))
        self._version += 1
        return changed_count

    def _set_store(self, values: np.ndarray, via_values: np.ndarray) -> None:
        """Adopt packed ``values``/``via_values`` as the one label store.

        Both are laid out by vertex id on the ancestor offsets (a label
        has ``depth + 1`` entries, its via array ``depth``).  ``values``
        is narrowed to int32 when that is exact (:func:`_narrow`), and
        ``labels[v]`` and ``vias[v]`` become views into the store.
        Callers pass arrays no one else writes.
        """
        offsets = self.anc_offsets
        bounds = offsets.tolist()
        self.label_offsets = offsets
        self.label_values = values = _narrow(values)
        self.via_values = via_values
        self.labels = [values[a:b] for a, b in zip(bounds, bounds[1:])]
        self.vias = [
            via_values[a - v:b - v - 1]
            for v, (a, b) in enumerate(zip(bounds, bounds[1:]))
        ]

    # ------------------------------------------------------------------
    # packed arena
    # ------------------------------------------------------------------
    @property
    def label_version(self) -> int:
        """Monotone counter bumped by every structure/label mutation.

        :meth:`arena` compares it against the packed snapshot's version, so
        maintenance (ILU/ISU/GSU) transparently invalidates the arena.
        """
        return self._version

    def arena(self) -> LabelArena:
        """The packed :class:`LabelArena` for the current labels.

        Built lazily on first use, cached, and rebuilt automatically after
        any maintenance operation bumps :attr:`label_version` — a stale
        arena can never serve a query.
        """
        arena = self._arena
        if arena is None or arena.version != self._version:
            arena = LabelArena(self)
            self._arena = arena
        return arena

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def distance(self, u: int, v: int) -> float:
        """Exact shortest spatial distance ``SPDis(u, v)`` (Alg. 2)."""
        n = self.graph.num_vertices
        if not (0 <= u < n and 0 <= v < n):
            raise QueryError(f"distance query on unknown vertices ({u}, {v})")
        if u == v:
            return 0.0
        hub_node = self.lca.query(u, v)
        pos = self.positions[hub_node]
        registry = obs.get_registry()
        if registry.enabled:
            # both endpoint labels are probed at every hub position
            registry.counter(
                "repro_label_entries_scanned_total",
                "label entries read by scalar distance queries",
            ).inc(2 * len(pos))
        return float((self.labels[u][pos] + self.labels[v][pos]).min())

    def distance_many(self, sources, targets) -> np.ndarray:
        """Vectorised :meth:`distance` over aligned vertex arrays.

        Computes every pair with one batched LCA lookup plus the arena's
        gather/segmented-min kernel — the scalar query's sums and minimum,
        exact whether the label store is int32 or float64, so
        results agree bit for bit with a :meth:`distance` loop.  Pairs with ``source == target``
        come out as exactly ``0.0`` through the label's own zero entry.
        """
        us = np.asarray(sources, dtype=np.int64)
        vs = np.asarray(targets, dtype=np.int64)
        if us.shape != vs.shape or us.ndim != 1:
            raise QueryError(
                "distance_many needs 1-D source/target arrays of equal length"
            )
        if us.size == 0:
            return np.empty(0, dtype=np.float64)
        n = self.graph.num_vertices
        if int(us.min()) < 0 or int(us.max()) >= n or int(vs.min()) < 0 or int(
            vs.max()
        ) >= n:
            raise QueryError("distance_many query on unknown vertices")
        hubs = self.lca.query_many(us, vs)
        registry = obs.get_registry()
        if registry.enabled:
            registry.counter(
                "repro_label_pairs_batched_total",
                "vertex pairs answered by the vectorised arena kernel",
            ).inc(int(us.size))
        return self.arena().pair_distances(us, vs, hubs)

    def hub_cutset(self, u: int, v: int) -> np.ndarray:
        """The precomputed hub cut-set of ``(u, v)`` as a position slice.

        Def. 8 restricts the Eq.-5 minimum to the positions of the LCA
        node's bag (plus the node itself) — the vertex-cut separating the
        two subtrees.  Those position arrays are precomputed at build time
        (:meth:`sync_bag`) and kept current by maintenance, so fetching the
        cut-set is one LCA lookup plus an O(1) slice, never a merge loop
        over the two ancestor paths.  Returned as a read-only view.
        """
        n = self.graph.num_vertices
        if not (0 <= u < n and 0 <= v < n):
            raise QueryError(f"hub_cutset query on unknown vertices ({u}, {v})")
        return self.positions[self.lca.query(u, v)]

    def distances_to(self, target: int) -> np.ndarray:
        """Exact distances from *every* vertex to ``target``.

        The one-to-all primitive the flat query kernel uses to build
        admissible A* heuristic tables: the one-target case of
        :meth:`distances_to_many`, so entry ``u`` is bit-identical to
        ``distance(u, target)``.
        """
        if not 0 <= target < self.graph.num_vertices:
            raise QueryError(f"distances_to query on unknown vertex {target}")
        return self._tables(np.array([target], dtype=np.int64), self.arena())[0]

    def distances_to_many(self, targets, cache: bool = True) -> np.ndarray:
        """The ``distances_to`` tables of several targets, as one block.

        Returns a ``(k, n)`` float64 array whose row ``j`` is bit-identical
        to ``[distance(u, targets[j]) for u in range(n)]``.  On a
        :attr:`LabelArena.quantized` arena every row comes from one
        top-down bag sweep of :meth:`LabelArena.distances_to_many`:
        ``bag(x)`` separates ``subtree(x)`` from the rest of the graph, so
        ``dis(x, t)`` is the minimum over ``y in bag(x)`` of
        ``L_x[depth(y)] + dis(y, t)``, one tree level per numpy reduction
        shared by all ``k`` targets, O(k · sum of bag sizes) reads, each
        target's ancestors restored from its own label.  Non-integral
        labels take one batched LCA lookup plus
        :meth:`LabelArena.pair_distances` over ``arange(n)`` per target.
        Either way the sweep's sums and minima are exact integers and the
        gather is exactly :meth:`distance_many`.

        With ``cache=False`` a one-off sweep leaves no arena behind: it
        reads the cached arena if that is current and otherwise sweeps a
        transient one, so :meth:`index_size_bytes` reads the same before
        and after (the sharded gateway's boundary rows at construction).
        """
        ts = np.asarray(targets)
        n = self.graph.num_vertices
        if ts.ndim != 1 or (ts.size and ts.dtype.kind not in "iu"):
            raise QueryError("distances_to_many needs a 1-D array of vertex ids")
        ts = ts.astype(np.int64, copy=False)
        bad = ts[(ts < 0) | (ts >= n)]
        if bad.size:
            raise QueryError(f"distances_to query on unknown vertex {bad[0]}")
        if cache:
            arena = self.arena()
        elif self._arena is not None and self._arena.version == self._version:
            arena = self._arena
        else:
            arena = LabelArena(self)
        return self._tables(ts, arena)

    def _tables(self, ts: np.ndarray, arena: LabelArena) -> np.ndarray:
        """:meth:`distances_to_many` on validated int64 targets."""
        n, k = self.graph.num_vertices, len(ts)
        if not k:
            return np.empty((0, n), dtype=np.float64)
        if arena.quantized:
            block, read = arena.distances_to_many(ts, self)
        else:
            us = np.arange(n, dtype=np.int64)
            block = np.empty((k, n), dtype=np.float64)
            for j, t in enumerate(ts):
                vs = np.full(n, t, dtype=np.int64)
                block[j] = arena.pair_distances(us, vs, self.lca.query_many(us, vs))
            width = (
                arena.pos_pad.shape[1]
                if arena.pos_pad is not None
                else len(arena.pos_values)
            )
            read = 2 * k * n * int(width)
        registry = obs.get_registry()
        if registry.enabled:
            registry.counter(
                "repro_label_pairs_batched_total",
                "vertex pairs answered by the vectorised arena kernel",
            ).inc(k * n)
            registry.counter(
                "repro_label_gather_entries_total",
                "label entries read by one-to-all distance sweeps",
            ).inc(read)
        return block

    def path(self, u: int, v: int) -> list[int]:
        """A concrete shortest path ``u .. v`` (unpacking label shortcuts)."""
        n = self.graph.num_vertices
        if not (0 <= u < n and 0 <= v < n):
            raise QueryError(f"path query on unknown vertices ({u}, {v})")
        if u == v:
            return [u]
        hub_node = self.lca.query(u, v)
        pos = self.positions[hub_node]
        sums = self.labels[u][pos] + self.labels[v][pos]
        k = int(pos[int(np.argmin(sums))])
        up = self._path_up(u, k)
        down = self._path_up(v, k)
        return up + down[-2::-1]

    def _path_up(self, v: int, j: int) -> list[int]:
        """Concrete shortest path from ``v`` up to its ancestor at depth ``j``."""
        depth = self.tree.depth
        path = [v]
        while depth[v] > j:
            idx = int(self.vias[v][j])
            x = int(self.bag_keys[v][idx])
            segment = self._expand_shortcut(v, x)
            path.extend(segment[1:])
            if j <= depth[x]:
                v = x
            else:
                target = int(self.anc[v][j])
                tail = self._path_up(target, int(depth[x]))  # target .. x
                path.extend(reversed(tail[:-1]))
                return path
        return path

    def _expand_shortcut(self, a: int, b: int) -> list[int]:
        """Expand a bag (shortcut) edge into original graph edges, a .. b."""
        rank = self.elim.rank
        lo, hi = (a, b) if rank[a] < rank[b] else (b, a)
        middle = self.elim.middles[lo].get(hi)
        if middle is None:
            return [a, b]
        left = self._expand_shortcut(a, middle)
        right = self._expand_shortcut(middle, b)
        return left + right[1:]

    # ------------------------------------------------------------------
    # cloning (consolidation back buffer)
    # ------------------------------------------------------------------
    def clone(self) -> "HierarchyIndex":
        """An independent copy of the index that *shares* the graph.

        Copies by the maintenance mutation contract, the attribute lists
        :class:`~repro.core.maintenance.IndexSnapshot` reads: the
        elimination's order, rank, φ array and bag and middle dicts
        (mutated in place by ILU and ISU) and the flow vector are copied,
        the :data:`REPLACED_ATTRS` lists are copied shallowly, and the
        :data:`REFERENCE_ATTRS` objects (the packed label store among
        them) are shared, as is the graph.  The tree is a shallow copy
        pointing at the copied elimination, and no arena is carried over.
        Maintenance on the clone (given a graph of its own when its
        weights are to change, as the consolidation pass does) can never
        corrupt the original, and the clone holds no second label store
        until its own maintenance packs one.
        """
        twin = copy.copy(self)
        elim = self.elim
        twin.elim = EliminationResult(
            order=list(elim.order),
            rank=elim.rank.copy(),
            bags=[dict(bag) for bag in elim.bags],
            middles=[dict(mid) for mid in elim.middles],
            phi_at_elim=elim.phi_at_elim.copy(),
        )
        for name in REPLACED_ATTRS:
            setattr(twin, name, list(getattr(self, name)))
        twin.tree = copy.copy(self.tree)
        twin.tree._elimination = twin.elim
        twin._arena = None
        flows = getattr(self, "flows", None)
        if flows is not None:
            twin.flows = flows.copy()
        return twin

    # ------------------------------------------------------------------
    # integrity
    # ------------------------------------------------------------------
    def checksum(self) -> str:
        """Hex digest of the query-relevant state (labels, order, vias).

        Two indexes answer every query identically iff their checksums
        match (same elimination order, same label values, same via
        indices).  Used by the serving layer's audits, the transactional
        rollback tests, and as a cheap fingerprint in telemetry.
        """
        h = hashlib.blake2b(digest_size=16)
        h.update(np.asarray(self.elim.order, dtype=np.int64).tobytes())
        for v in range(self.graph.num_vertices):
            h.update(np.ascontiguousarray(self.labels[v], dtype=np.float64).tobytes())
            h.update(np.ascontiguousarray(self.vias[v], dtype=np.int32).tobytes())
        return h.hexdigest()

    # ------------------------------------------------------------------
    # statistics
    # ------------------------------------------------------------------
    @property
    def treewidth(self) -> int:
        return self.tree.treewidth

    @property
    def treeheight(self) -> int:
        return self.tree.treeheight

    def index_size_entries(self) -> int:
        """Total label + position entries (the paper's index-size metric)."""
        return sum(len(lbl) for lbl in self.labels) + sum(
            len(p) for p in self.positions
        )

    def index_size_bytes(self) -> int:
        """In-memory footprint of the resident query structures.

        Counts the packed label store once (labels and vias; the
        per-vertex ``labels``/``vias`` views add nothing), the position
        arrays, the vectorised bag views (``bag_keys``/``bag_weights``/
        ``bag_pos``, which stay resident for maintenance and path
        unpacking), the flat ancestor storage (its offsets are the label
        store's), and the packed arena's own arrays when one is currently
        built.
        """
        total = self.label_values.nbytes + self.via_values.nbytes
        total += sum(p.nbytes for p in self.positions)
        total += sum(k.nbytes for k in self.bag_keys)
        total += sum(w.nbytes for w in self.bag_weights)
        total += sum(p.nbytes for p in self.bag_pos)
        total += self.anc_flat.nbytes + self.anc_offsets.nbytes
        arena = self._arena
        if arena is not None and arena.version == self._version:
            total += arena.nbytes
        return total

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(n={self.graph.num_vertices}, "
            f"treewidth={self.treewidth}, treeheight={self.treeheight}, "
            f"entries={self.index_size_entries()})"
        )


def build_hierarchy_index(
    graph: RoadNetwork,
    importance: ImportanceFunction,
) -> HierarchyIndex:
    """Eliminate ``graph`` under ``importance`` and build labels.

    Requires a connected graph (like the paper's datasets).
    """
    if graph.num_vertices == 0:
        raise IndexStateError("cannot index an empty graph")
    require_connected(graph, context="hierarchical labeling")
    with obs.stopwatch(
        metric="repro_build_phase_seconds",
        span="build.elimination",
        phase="elimination",
    ):
        elimination = eliminate(graph, importance)
    return HierarchyIndex(graph, elimination)

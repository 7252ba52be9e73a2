"""Boundary-vertex distance tables for exact cross-shard distances.

Every path that leaves a shard crosses one of its boundary vertices, so
shard-local labels plus a global boundary-to-boundary table recover exact
full-graph distances (the standard partition-hierarchy argument, cf.
TD-G-tree and Hierarchical Cut Labelling):

* ``u`` and ``v`` in *different* shards ``i`` / ``j``::

      d(u, v) = min over b in B_i, b' in B_j of
                d_i(u, b) + D(b, b') + d_j(b', v)

  where ``d_k`` is the distance *inside* shard ``k``'s subgraph and ``D``
  is the full-graph distance between boundary vertices.

* ``u`` and ``v`` in the *same* shard ``k``: the shortest path may detour
  through other shards, so::

      d(u, v) = min(d_k(u, v),
                    min over b, b' in B_k of d_k(u, b) + D(b, b') + d_k(b', v))

Both formulas are exact: decompose any optimal path at the first boundary
vertex from which it leaves the shard and the last one through which it
re-enters — the prefix and suffix stay inside their shards, the middle is
a full-graph path between boundary vertices.

Both share one term per target.  For ``v`` in shard ``j`` and every
boundary vertex ``b`` (of any shard)::

      g(b) = min over b' in B_j of D(b, b') + d_j(b', v)

so the cross-shard distance is ``min over b in B_i of d_i(u, b) + g(b)``
and the same-shard detour is the same expression with ``i = j``.
:meth:`BoundaryIndex.to_target` computes ``g``; the point combines and
the one-to-all *column* toward ``v`` (:meth:`BoundaryIndex.column`, every
``u`` of shard ``i`` at once: ``min over b of d_i(b, :) + g(b)``, an
``O(|B_i| · n_i)`` reduction) read the same ``g`` and add in the same
order, so a column entry equals the point combine bit for bit on any
weights.

``D`` itself comes from the same two parts TD-G-tree answers with —
border matrices plus border edges — not from full-graph searches.  The
*boundary overlay graph* has one vertex per boundary vertex and two kinds
of edges: within each shard ``k``, ``b -> b'`` weighted ``d_k(b, b')``
(the shard's own boundary rows, read off its local table), and every cut
edge at its live weight on the full graph.  ``D`` is the min-plus closure
of that graph (Floyd–Warshall, one vectorised ``np.minimum`` per pivot).
This is exact: split any full-graph shortest path between two boundary
vertices at its cut edges.  Each piece between two cut edges stays inside
one shard and both its ends are boundary vertices of that shard, so the
piece is no shorter than the overlay edge ``d_k(b, b')``; each cut edge is
an overlay edge at its own weight.  The overlay path is therefore no
longer than the full-graph one, and every overlay edge is a real
full-graph path, so it is no shorter either.  The closure costs
O(|B|^3) vectorised numpy work instead of |B| pure-Python Dijkstras over
the full graph.

The tables are plain numpy arrays, so the min-plus combines above are
single vectorised expressions over views of the global table.

Shard ``k``'s rows ``d_k(b, ·)`` are read off the labels of the shard index
the gateway has just built over the same subgraph: one
:meth:`~repro.labeling.hierarchy.HierarchyIndex.distances_to_many` sweep
toward ``B_k`` (the subgraph is undirected, so ``d_k(·, b) = d_k(b, ·)``),
which equals a Dijkstra from every ``b`` bit for bit on integer weights.
After an in-shard weight change, :meth:`BoundaryIndex.repair_shard` repairs
only shard ``k``'s rows in place with the row repair the delta overlay uses
for its hub rows (:func:`~repro.baselines.dijkstra.repair_rows`): after a
decrease, one relaxation seeded at the edge; after an increase, a Dijkstra
rerun of only the rows in which the edge was tight.  Then
:meth:`BoundaryIndex.rebuild_global` runs only if the shard's
``|B_k| x |B_k|`` block changed: the closure reads nothing else of the
shard, so the same inputs give the same table.  A cut-edge update changes
no in-shard distance and always needs ``rebuild_global()``.
:meth:`BoundaryIndex.rebuild_shard` recomputes a shard's rows from scratch
with |B_k| Dijkstras, for a shard restarted from its checkpoint (whose
labels may lag its overlay), *then* ``rebuild_global()``.  Flow updates
never touch distances.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.baselines.dijkstra import dijkstra_distances, repair_rows
from repro.graph.road_network import RoadNetwork
from repro.labeling.hierarchy import HierarchyIndex
from repro.scale.partitioner import ShardPlan

__all__ = ["BoundaryIndex"]


class BoundaryIndex:
    """Shard-local boundary labels plus the global boundary table.

    Parameters
    ----------
    graph:
        The full road network (shared with the gateway;
        :meth:`rebuild_global` reads the live cut-edge weights from it).
    plan:
        The shard plan the tables are derived from.
    subgraphs:
        Per shard, the induced subgraph in *local* vertex ids (the same
        objects the shard engines serve).
    indexes:
        Per shard, a label index over that subgraph at its current
        weights (the shard engine's, just built), to read the shard's
        rows off.
    """

    def __init__(
        self,
        graph: RoadNetwork,
        plan: ShardPlan,
        subgraphs: list[RoadNetwork],
        indexes: list[HierarchyIndex],
    ) -> None:
        self._graph = graph
        self._plan = plan
        self._subgraphs = subgraphs
        # global ids of every boundary vertex, concatenated shard by shard
        self._boundary_ids: list[int] = [
            v for shard_boundary in plan.boundary for v in shard_boundary
        ]
        # per shard: its contiguous range of rows in the table, so every
        # combine reads a view of the table rather than a copy
        self._rows: list[slice] = []
        offset = 0
        for shard_boundary in plan.boundary:
            self._rows.append(slice(offset, offset + len(shard_boundary)))
            offset += len(shard_boundary)
        # table row of each cut edge's endpoints (both are boundary vertices)
        row_of = {v: row for row, v in enumerate(self._boundary_ids)}
        self._cut_rows: list[tuple[int, int, int, int]] = [
            (u, v, row_of[u], row_of[v]) for u, v, _ in plan.cut_edges
        ]
        # local boundary ids per shard (position of each boundary vertex in
        # the shard's local numbering — members are sorted, so searchsorted)
        self._local_boundary: list[np.ndarray] = []
        for k, shard_boundary in enumerate(plan.boundary):
            members = np.asarray(plan.members[k], dtype=np.int64)
            self._local_boundary.append(
                np.searchsorted(members, np.asarray(shard_boundary, dtype=np.int64))
            )
        self._local: list[np.ndarray] = [
            self._compute_local(k, indexes[k]) for k in range(plan.num_shards)
        ]
        self._table = self._compute_global()

    # ------------------------------------------------------------------
    # table construction / maintenance
    # ------------------------------------------------------------------
    def _compute_local(
        self, k: int, index: HierarchyIndex | None = None
    ) -> np.ndarray:
        """``(|B_k|, n_k)`` distances from each boundary vertex, in-shard.

        Read off ``index`` (labels over shard ``k``'s current weights) in
        one sweep that leaves no arena cached, or, without one, by a
        Dijkstra from each boundary vertex.
        """
        subgraph = self._subgraphs[k]
        local_ids = self._local_boundary[k]
        if len(local_ids) == 0:
            return np.empty((0, subgraph.num_vertices), dtype=np.float64)
        if index is not None:
            return index.distances_to_many(local_ids, cache=False)
        return np.vstack(
            [dijkstra_distances(subgraph, int(b)) for b in local_ids]
        )

    def _compute_global(self) -> np.ndarray:
        """``(|B|, |B|)`` full-graph distances between boundary vertices.

        Min-plus closure of the boundary overlay graph (see the module
        docstring): shard-local boundary rows on the diagonal blocks, live
        cut-edge weights off them, then Floyd–Warshall.
        """
        size = len(self._boundary_ids)
        table = np.full((size, size), np.inf)
        for k, rows in enumerate(self._rows):
            table[rows, rows] = self._local[k][:, self._local_boundary[k]]
        weight = self._graph.weight
        for u, v, row_u, row_v in self._cut_rows:
            table[row_u, row_v] = table[row_v, row_u] = weight(u, v)
        for m in range(size):
            np.minimum(table, table[:, m, None] + table[None, m, :], out=table)
        return table

    def _count_rebuild(self, scope: str) -> None:
        registry = obs.get_registry()
        if registry.enabled:
            registry.counter(
                "repro_gateway_boundary_rebuilds_total",
                "boundary distance-table rebuilds after weight maintenance",
            ).inc(scope=scope)

    def rebuild_shard(self, k: int) -> None:
        """Recompute shard ``k``'s rows with a Dijkstra per boundary vertex.

        For a shard whose weights were replaced wholesale (a recovered
        shard); a single in-shard weight change takes :meth:`repair_shard`.
        """
        self._local[k] = self._compute_local(k)
        self._count_rebuild("shard")

    def repair_shard(self, k: int, u: int, v: int, old_weight: float) -> bool:
        """Repair shard ``k``'s rows after local edge ``(u, v)`` changed.

        Shard ``k``'s subgraph already carries the new weight;
        ``old_weight`` is the one the rows were exact for.  Returns whether
        the shard's boundary-to-boundary block changed, i.e. whether
        :meth:`rebuild_global` must run.
        """
        subgraph = self._subgraphs[k]
        new_weight = subgraph.weight(u, v)
        local = self._local[k]
        if new_weight == old_weight or len(local) == 0:
            return False
        columns = self._local_boundary[k]
        block = local[:, columns]
        repair_rows(subgraph, local, columns, u, v, old_weight, new_weight)
        self._count_rebuild("repair")
        return not np.array_equal(block, local[:, columns])

    def rebuild_global(self) -> None:
        """Recompute the boundary-to-boundary table.

        Reads the shard-local tables and the live cut-edge weights, so
        repair or rebuild every shard whose weights changed first.
        """
        self._table = self._compute_global()
        self._count_rebuild("global")

    # ------------------------------------------------------------------
    # distance combines
    # ------------------------------------------------------------------
    def to_boundary(self, k: int, local_vertex: int) -> np.ndarray:
        """In-shard distances from a local vertex to shard ``k``'s boundary."""
        return self._local[k][:, local_vertex]

    def to_target(self, j: int, v_local: int, i: int | None = None) -> np.ndarray:
        """``g(b) = min over b' in B_j of D(b, b') + d_j(b', v)``.

        Over shard ``i``'s boundary rows, or over every boundary row (shard
        by shard, the order of :meth:`column`'s input) when ``i`` is
        ``None``.  Each row's sums and minimum do not depend on which other
        rows are computed, so both forms agree bit for bit.
        """
        rows = slice(None) if i is None else self._rows[i]
        dv = self._local[j][:, v_local]
        block = self._table[rows, self._rows[j]]
        if len(dv) == 0:
            return np.full(block.shape[0], np.inf)
        return (block + dv[None, :]).min(axis=1)

    def column(self, i: int, g: np.ndarray) -> np.ndarray:
        """``min over b in B_i of d_i(b, u) + g(b)`` for every local ``u``.

        ``g`` is :meth:`to_target` over every boundary row: the exact
        distances from all of shard ``i`` to the target through its
        boundary, one entry per local vertex.
        """
        local = self._local[i]
        if len(local) == 0:
            return np.full(local.shape[1], np.inf)
        return (local + g[self._rows[i], None]).min(axis=0)

    def combine_intra(self, k: int, u_local: int, v_local: int, d_local: float) -> float:
        """Exact same-shard distance given the in-shard distance."""
        du = self._local[k][:, u_local]
        if len(du) == 0:
            return d_local
        via = float((du + self.to_target(k, v_local, k)).min())
        return min(d_local, via)

    def combine_cross(self, i: int, u_local: int, j: int, v_local: int) -> float:
        """Exact cross-shard distance via the boundary tables."""
        du = self._local[i][:, u_local]
        if len(du) == 0:
            return float("inf")
        return float((du + self.to_target(j, v_local, i)).min())

    @property
    def num_boundary_vertices(self) -> int:
        return len(self._boundary_ids)

    def table_bytes(self) -> int:
        """Memory footprint of all tables (the sharding overhead)."""
        return self._table.nbytes + sum(local.nbytes for local in self._local)

"""K-way network partitioning for the sharded serving gateway.

The gateway shards the road network the same way the partition-based
hierarchies of the literature do (TD-G-tree in the paper, Hierarchical Cut
Labelling): recursive balanced bisection with boundary refinement, reusing
the cut machinery of :mod:`repro.baselines.partition`.  On top of the raw
cuts this module adds what a *serving* tier needs and a query hierarchy
does not:

* **connectivity repair** — every shard must induce a connected subgraph,
  because each shard builds its own FAHL index (construction requires a
  connected graph).  Stray components left by the bisection heuristic are
  migrated to the neighbouring shard that owns most of their external
  edges; each migration strictly reduces the total number of
  (shard, component) pairs, so the repair terminates.
* **boundary bookkeeping** — per shard, the vertices with an edge into
  another shard (the cut vertices through which every cross-shard path
  must travel), plus the explicit cut-edge list.  These drive the
  boundary distance tables of :mod:`repro.scale.boundary`.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass

import numpy as np

from repro.baselines.partition import bisect
from repro.errors import PartitionError
from repro.graph.road_network import RoadNetwork

__all__ = ["ShardPlan", "partition_network"]


@dataclass(frozen=True)
class ShardPlan:
    """An immutable K-way vertex partition of a road network.

    Attributes
    ----------
    num_shards:
        Number of shards actually produced (may be less than requested on
        tiny graphs).
    shard_of:
        ``int64`` array mapping every global vertex id to its shard.
    members:
        Per shard, the sorted tuple of global vertex ids it owns.
    boundary:
        Per shard, the sorted tuple of its boundary vertices — members
        with at least one edge into a different shard.
    cut_edges:
        Every edge ``(u, v, weight)`` crossing two shards, with ``u < v``.
        The weights are as partitioned; cut edges belong to no shard
        subgraph, and the gateway maintains their live weights on the full
        graph (read them there, e.g. ``graph.weight(u, v)``).
    """

    num_shards: int
    shard_of: np.ndarray
    members: tuple[tuple[int, ...], ...]
    boundary: tuple[tuple[int, ...], ...]
    cut_edges: tuple[tuple[int, int, float], ...]

    def shard(self, vertex: int) -> int:
        """Owning shard of a global vertex id."""
        return int(self.shard_of[vertex])


def _components(graph: RoadNetwork, vertices: list[int]) -> list[list[int]]:
    """Connected components of the subgraph induced by ``vertices``."""
    allowed = set(vertices)
    seen: set[int] = set()
    components: list[list[int]] = []
    for start in vertices:
        if start in seen:
            continue
        component = [start]
        seen.add(start)
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for v in graph.neighbors(u):
                if v in allowed and v not in seen:
                    seen.add(v)
                    component.append(v)
                    queue.append(v)
        components.append(component)
    return components


def _repair_connectivity(graph: RoadNetwork, parts: list[list[int]]) -> list[list[int]]:
    """Migrate stray components until every part induces a connected graph.

    A non-largest component of a part is reassigned to the neighbouring
    part owning the majority of its external edges.  The component is
    adjacent to that part by construction, so the move merges it into at
    least one existing component there: the global count of
    (part, component) pairs strictly decreases and the loop terminates.
    """
    assignment: dict[int, int] = {}
    for k, part in enumerate(parts):
        for v in part:
            assignment[v] = k
    changed = True
    while changed:
        changed = False
        for k in range(len(parts)):
            part = [v for v, s in assignment.items() if s == k]
            if not part:
                continue
            components = _components(graph, part)
            if len(components) <= 1:
                continue
            components.sort(key=len, reverse=True)
            for component in components[1:]:
                votes: Counter[int] = Counter()
                inside = set(component)
                for u in component:
                    for v in graph.neighbors(u):
                        if v not in inside and assignment[v] != k:
                            votes[assignment[v]] += 1
                if not votes:
                    # no edge leaves the component except into its own
                    # shard: the *graph* is disconnected here and the
                    # component can stay (index construction rejects it
                    # upstream, like the monolithic path would).
                    continue
                target = votes.most_common(1)[0][0]
                for u in component:
                    assignment[u] = target
                changed = True
    repaired: list[list[int]] = [[] for _ in parts]
    for v, k in assignment.items():
        repaired[k].append(v)
    return [sorted(part) for part in repaired if part]


def partition_network(
    graph: RoadNetwork,
    num_shards: int,
    balance: float = 0.6,
) -> ShardPlan:
    """Partition ``graph`` into up to ``num_shards`` connected shards.

    The largest part is bisected repeatedly until the target shard count
    is reached (or no part is splittable), then stray components are
    migrated so every shard induces a connected subgraph.

    Parameters
    ----------
    num_shards:
        Requested shard count; the plan records how many were achieved.
    balance:
        Per-bisection balance cap, forwarded to
        :func:`repro.baselines.partition.bisect`.
    """
    if num_shards < 1:
        raise PartitionError(f"num_shards must be >= 1, got {num_shards}")
    if graph.num_vertices == 0:
        raise PartitionError("cannot partition an empty graph")
    parts: list[list[int]] = [sorted(graph.vertices())]
    while len(parts) < num_shards:
        parts.sort(key=len, reverse=True)
        largest = parts[0]
        if len(largest) < 2:
            break
        left, right = bisect(graph, largest, balance=balance)
        parts = [left, right] + parts[1:]
    if num_shards > 1:
        parts = _repair_connectivity(graph, parts)
    parts.sort(key=lambda part: part[0])

    shard_of = np.full(graph.num_vertices, -1, dtype=np.int64)
    for k, part in enumerate(parts):
        for v in part:
            shard_of[v] = k
    if (shard_of < 0).any():
        raise PartitionError("partition did not cover every vertex")

    boundary: list[tuple[int, ...]] = []
    for k, part in enumerate(parts):
        boundary.append(
            tuple(
                v
                for v in part
                if any(shard_of[nbr] != k for nbr in graph.neighbors(v))
            )
        )
    cut_edges = tuple(
        (u, v, w)
        for u, v, w in graph.edges()
        if shard_of[u] != shard_of[v]
    )
    return ShardPlan(
        num_shards=len(parts),
        shard_of=shard_of,
        members=tuple(tuple(part) for part in parts),
        boundary=tuple(boundary),
        cut_edges=cut_edges,
    )

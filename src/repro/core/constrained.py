"""Constrained flow-aware shortest path querying.

The paper closes with "we plan to extend our work to manage the FSPQ in
*constrained* flow-aware road networks"; this module implements that
extension.  A :class:`QueryConstraints` bundle restricts the candidate
space:

* ``forbidden_vertices`` — road closures; enforced *during* enumeration
  (banned in every A*/Yen spur search), not by post-filtering, so the
  engine still sees the k cheapest feasible paths;
* ``max_vertex_flow`` — avoid any vertex busier than a threshold at the
  query slice (e.g. "never route me through gridlock");
* ``max_path_flow`` — cap the total congestion along the path;
* ``max_hops`` — bound the number of road segments (turn-restriction
  proxy).

Scoring normalisation (Eq. 1-3) is computed over the *feasible* candidate
set, so constraints change both which paths exist and how the survivors
compare.  An infeasible query raises :class:`ConstraintError` rather than
silently returning the unconstrained optimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.core.fpsps import FlowAwareEngine, score_candidates
from repro.core.fspq import FSPQuery, FSPResult
from repro.errors import QueryError
from repro.paths.astar_search import astar_path
from repro.paths.candidates import collect_candidates, heuristic_for
from repro.paths.scoring import path_flow
from repro.paths.yen import iter_shortest_paths

__all__ = ["ConstraintError", "QueryConstraints", "ConstrainedFlowAwareEngine"]


class ConstraintError(QueryError):
    """No path satisfies the given constraints."""


@dataclass(frozen=True)
class QueryConstraints:
    """Restrictions on admissible FSPQ candidate paths."""

    forbidden_vertices: frozenset[int] = field(default_factory=frozenset)
    max_vertex_flow: float | None = None
    max_path_flow: float | None = None
    max_hops: int | None = None

    def __post_init__(self) -> None:
        if self.max_vertex_flow is not None and self.max_vertex_flow < 0:
            raise QueryError("max_vertex_flow must be non-negative")
        if self.max_path_flow is not None and self.max_path_flow < 0:
            raise QueryError("max_path_flow must be non-negative")
        if self.max_hops is not None and self.max_hops < 1:
            raise QueryError("max_hops must be >= 1")

    def is_trivial(self) -> bool:
        """Whether the constraints admit everything."""
        return (
            not self.forbidden_vertices
            and self.max_vertex_flow is None
            and self.max_path_flow is None
            and self.max_hops is None
        )

    def admits(self, path: list[int] | tuple[int, ...],
               flow_vector: np.ndarray) -> bool:
        """Whether a concrete path satisfies the flow/hop constraints.

        ``forbidden_vertices`` is enforced during enumeration; this check
        covers the remaining (path-dependent) constraints.
        """
        if self.max_hops is not None and len(path) - 1 > self.max_hops:
            return False
        if self.max_vertex_flow is not None:
            if any(flow_vector[v] > self.max_vertex_flow for v in path):
                return False
        if self.max_path_flow is not None:
            if path_flow(flow_vector, list(path)) > self.max_path_flow:
                return False
        return True


class ConstrainedFlowAwareEngine(FlowAwareEngine):
    """FSPQ engine answering queries under :class:`QueryConstraints`.

    The unconstrained :meth:`query` of the base class remains available;
    :meth:`query_constrained` adds the restricted variant.  The distance
    oracle stays admissible under vertex removals (removals only increase
    true distances), so index-guided enumeration remains exact on the
    constrained graph.
    """

    def query_constrained(
        self,
        query: FSPQuery,
        constraints: QueryConstraints,
    ) -> FSPResult:
        """Answer one constrained FSPQ query."""
        if constraints.is_trivial():
            return self.query(query)
        frn = self.frn
        query.validated(frn.num_vertices, frn.num_timesteps)
        source, target, t = query.source, query.target, query.timestep
        banned = set(constraints.forbidden_vertices)
        if source in banned or target in banned:
            raise ConstraintError(
                "query endpoints cannot be forbidden vertices"
            )
        flow_vector = self._flow_at(t)

        if source == target:
            if not constraints.admits((source,), flow_vector):
                raise ConstraintError(
                    f"vertex {source} violates the flow constraints"
                )
            return FSPResult(
                path=(source,),
                distance=0.0,
                flow=float(flow_vector[source]),
                score=0.0,
                shortest_distance=0.0,
                num_candidates=1,
                num_pruned=0,
                truncated=False,
            )

        graph = frn.graph
        heuristic = heuristic_for(graph, self.oracle, target)
        # constrained SPDis anchors the MCPDis bound: the shortest path
        # *avoiding the closures* is what the user can actually drive.
        _, spdis = astar_path(
            graph, source, target, heuristic, banned_vertices=banned
        )
        if not math.isfinite(spdis):
            raise ConstraintError(
                f"no path between {source} and {target} avoids the "
                f"{len(banned)} forbidden vertices"
            )
        max_distance = self.eta_u * spdis

        # enumeration budget: rejected candidates must also be bounded, or
        # a tight flow cap could force Yen through the entire (potentially
        # huge) MCPDis path space before giving up
        candidates = collect_candidates(
            iter_shortest_paths(
                graph, source, target, heuristic,
                max_distance=max_distance, banned_vertices=banned,
            ),
            flow_vector,
            max_candidates=self.max_candidates,
            admit=lambda path: constraints.admits(path, flow_vector),
            max_pulls=self.max_candidates * 8,
        )
        if not candidates.paths:
            raise ConstraintError(
                f"no feasible path between {source} and {target} within "
                f"MCPDis={max_distance} ({candidates.rejected} candidates "
                "rejected)"
            )

        best, scores, _ = score_candidates(
            candidates.distances, candidates.flows, spdis, max_distance,
            self.alpha,
        )
        return FSPResult(
            path=tuple(candidates.paths[best]),
            distance=candidates.distances[best],
            flow=candidates.flows[best],
            score=float(scores[best]),
            shortest_distance=spdis,
            num_candidates=len(candidates.paths),
            num_pruned=candidates.rejected,
            truncated=candidates.truncated,
        )

"""Vertex-ordering strategies for the elimination game.

The elimination engine (:mod:`repro.treedec.elimination`) repeatedly removes
the vertex with the *smallest importance*; the importance function is the
only thing that differs between H2H (pure dynamic degree, i.e. the classic
min-degree heuristic) and FAHL (degree-flow joint ordering, paper Def. 7):

.. math::

    \\varphi(v) = \\beta \\cdot (1 - \\hat P(v)) + (1 - \\beta) \\cdot \\hat D(v)

where :math:`\\hat P(v)` is the min-max normalised predicted flow and
:math:`\\hat D(v) = D(v) / D_{max}` the degree during elimination normalised
by the maximum *initial* degree.

Sign note: the paper's Def. 7 prints ``β·P̂ + (1-β)·D̂``, but its stated
motivation (Section III), its Example 1 (the root has the *highest* φ yet
the *lowest* flow in Table I) and the whole design ("place the vertices
with lower traffic-flow near the root") require importance to *decrease*
with flow — vertices are eliminated in ascending φ and the last (highest-φ)
vertex becomes the root.  We therefore use ``1 - P̂``, which realises the
described index; this reconciliation is recorded in DESIGN.md.

Importance functions receive ``(vertex, current_degree)`` and must be pure:
the engine re-evaluates them whenever a degree changes.  They also take
equal-length integer arrays ``(vertex_ids, degrees)`` and then return the
float64 array of the per-vertex values, bit for bit (the elimination's
dense phase re-scores a whole bag in one call).
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from repro.errors import IndexBuildError
from repro.graph.road_network import RoadNetwork

__all__ = [
    "ImportanceFunction",
    "degree_importance",
    "degree_flow_importance",
    "normalize_flows",
]

#: ``φ(vertex, current_degree) -> float``.  It must also take equal-length
#: integer arrays ``(vertex_ids, degrees)`` and return the float64 array of
#: the per-vertex values, bit for bit: the elimination's dense phase calls
#: that form once a bag reaches ``DENSE_BAG`` entries, so a scalar-only
#: function fails there.
ImportanceFunction = Callable[
    [int | np.ndarray, int | np.ndarray], float | np.ndarray
]


def degree_importance() -> ImportanceFunction:
    """Classic min-degree importance (what H2H uses)."""

    def importance(
        vertex: int | np.ndarray, current_degree: int | np.ndarray
    ) -> float | np.ndarray:
        del vertex  # degree only
        if isinstance(current_degree, np.ndarray):
            return current_degree.astype(np.float64)
        return float(current_degree)

    return importance


def normalize_flows(
    flows: np.ndarray,
    anchors: tuple[float, float] | None = None,
) -> np.ndarray:
    """Min-max normalise a per-vertex flow vector (Def. 7's :math:`\\hat P`).

    ``anchors`` fixes the ``(min, max)`` range explicitly; the maintenance
    algorithms pass the construction-time anchors so that updating one
    vertex's flow never re-scores the *other* vertices (values may then fall
    outside [0, 1], which is harmless for ordering).  A degenerate range
    normalises to all zeros (flow then carries no ordering information,
    degenerating gracefully to degree ordering).
    """
    flows = np.asarray(flows, dtype=np.float64)
    if flows.ndim != 1:
        raise IndexBuildError(f"flow vector must be 1-D, got shape {flows.shape}")
    if not np.isfinite(flows).all():
        raise IndexBuildError("flow vector contains non-finite values")
    if anchors is None:
        low = float(flows.min()) if flows.size else 0.0
        high = float(flows.max()) if flows.size else 0.0
    else:
        low, high = float(anchors[0]), float(anchors[1])
    if high == low:
        return np.zeros_like(flows)
    return (flows - low) / (high - low)


def degree_flow_importance(
    graph: RoadNetwork,
    flows: np.ndarray,
    beta: float = 0.5,
    anchors: tuple[float, float] | None = None,
) -> ImportanceFunction:
    """Degree-flow joint importance :math:`\\varphi` (paper Def. 7).

    Parameters
    ----------
    graph:
        Used only to fix :math:`D_{max}` (maximum initial degree).
    flows:
        Per-vertex predicted flow (raw; normalised internally).
    beta:
        Weight of the flow term; ``beta = 0`` reduces to (normalised) degree
        ordering, ``beta = 1`` ignores topology.
    anchors:
        Optional fixed ``(min, max)`` normalisation range — see
        :func:`normalize_flows`.
    """
    if not 0.0 <= beta <= 1.0:
        raise IndexBuildError(f"beta must be in [0, 1], got {beta}")
    if len(flows) != graph.num_vertices:
        raise IndexBuildError(
            f"flow vector has {len(flows)} entries for a graph with "
            f"{graph.num_vertices} vertices"
        )
    normalized = normalize_flows(flows, anchors=anchors)
    # the scalar path reads Python floats: same doubles, no numpy indexing
    flow_term = normalized.tolist()
    d_max = max((graph.degree(v) for v in graph.vertices()), default=1) or 1

    def importance(
        vertex: int | np.ndarray, current_degree: int | np.ndarray
    ) -> float | np.ndarray:
        # one expression order for both forms, so they agree bit for bit
        if isinstance(vertex, np.ndarray):
            return (
                beta * (1.0 - normalized[vertex])
                + ((1.0 - beta) * current_degree) / d_max
            )
        return (
            beta * (1.0 - flow_term[vertex])
            + ((1.0 - beta) * current_degree) / d_max
        )

    return importance

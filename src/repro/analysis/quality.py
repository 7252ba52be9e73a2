"""Result-quality metrics for FSPQ engines.

Efficiency figures tell half the story; these helpers quantify *answer
quality*:

* :func:`pruning_quality` — how closely FAHL-W's pruned/early-stopped
  answers track the unpruned optimum (path agreement, score gaps): the
  honesty check behind the Fig. 6 speedups, reported in EXPERIMENTS.md.
* :func:`prediction_regret` — how much congestion the user actually hits
  when routes are planned on *predicted* flows but driven under the
  *ground-truth* flows (the quality dimension of Fig. 10).
* :func:`congestion_savings` — flow avoided versus the purely spatial
  route, per query (the paper's motivating Fig. 1 trade-off).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.fpsps import FlowAwareEngine
from repro.core.fspq import FSPQuery
from repro.errors import QueryError
from repro.graph.frn import FlowAwareRoadNetwork
from repro.paths.scoring import path_flow

__all__ = [
    "PruningQuality",
    "RegretSummary",
    "congestion_savings",
    "prediction_regret",
    "pruning_quality",
]


@dataclass(frozen=True)
class PruningQuality:
    """Agreement of a pruned engine with an unpruned reference."""

    queries: int
    path_agreement: float      # fraction of identical paths
    mean_score_gap: float      # mean |score(pruned) - score(reference)|
    max_score_gap: float
    mean_candidate_ratio: float  # candidates enumerated, pruned / reference
    # queries where the bounds pruned every candidate, so candidate 0 (the
    # spatially shortest) won by default rather than by score
    all_pruned_share: float = 0.0

    def __str__(self) -> str:
        return (
            f"PruningQuality(queries={self.queries}, "
            f"path_agreement={self.path_agreement:.1%}, "
            f"mean_gap={self.mean_score_gap:.4f}, "
            f"max_gap={self.max_score_gap:.4f}, "
            f"candidates={self.mean_candidate_ratio:.2f}x, "
            f"all_pruned={self.all_pruned_share:.1%})"
        )


def pruning_quality(
    reference: FlowAwareEngine,
    pruned: FlowAwareEngine,
    queries: list[FSPQuery],
) -> PruningQuality:
    """Compare a pruned engine's answers against a reference engine's."""
    if not queries:
        raise QueryError("pruning_quality needs at least one query")
    agreements = 0
    all_pruned = 0
    gaps: list[float] = []
    ratios: list[float] = []
    for query in queries:
        expected = reference.query(query)
        got = pruned.query(query)
        agreements += got.path == expected.path
        all_pruned += got.num_pruned == got.num_candidates > 0
        gaps.append(abs(got.score - expected.score))
        if expected.num_candidates:
            ratios.append(got.num_candidates / expected.num_candidates)
    return PruningQuality(
        queries=len(queries),
        path_agreement=agreements / len(queries),
        mean_score_gap=float(np.mean(gaps)),
        max_score_gap=float(np.max(gaps)),
        mean_candidate_ratio=float(np.mean(ratios)) if ratios else 1.0,
        all_pruned_share=all_pruned / len(queries),
    )


@dataclass(frozen=True)
class RegretSummary:
    """Extra congestion incurred by planning on imperfect predictions."""

    queries: int
    path_agreement: float     # planned path == oracle-planned path
    mean_flow_regret: float   # mean (true flow of planned - true flow of oracle)
    relative_regret: float    # regret / mean oracle flow

    def __str__(self) -> str:
        return (
            f"RegretSummary(queries={self.queries}, "
            f"path_agreement={self.path_agreement:.1%}, "
            f"relative_regret={self.relative_regret:.2%})"
        )


def prediction_regret(
    frn: FlowAwareRoadNetwork,
    oracle,
    queries: list[FSPQuery],
    alpha: float = 0.5,
    eta_u: float = 3.0,
    max_candidates: int = 16,
) -> RegretSummary:
    """Regret of routing on ``frn.predicted_flow`` vs. the ground truth.

    Builds two engines over the same index: one scoring with the FRN's
    predicted flows (what a deployed system does) and one with the truth
    (the unachievable oracle), and measures the extra *true* congestion the
    predicted plan incurs.
    """
    if not queries:
        raise QueryError("prediction_regret needs at least one query")
    planned_engine = FlowAwareEngine(
        frn, oracle=oracle, alpha=alpha, eta_u=eta_u,
        max_candidates=max_candidates,
    )
    oracle_frn = FlowAwareRoadNetwork(frn.graph, frn.flow, lanes=frn.lanes)
    oracle_engine = FlowAwareEngine(
        oracle_frn, oracle=oracle, alpha=alpha, eta_u=eta_u,
        max_candidates=max_candidates,
    )
    agreements = 0
    regrets: list[float] = []
    oracle_flows: list[float] = []
    for query in queries:
        planned = planned_engine.query(query)
        ideal = oracle_engine.query(query)
        truth = frn.flow_at(query.timestep)
        planned_true_flow = path_flow(truth, list(planned.path))
        ideal_true_flow = path_flow(truth, list(ideal.path))
        agreements += planned.path == ideal.path
        regrets.append(planned_true_flow - ideal_true_flow)
        oracle_flows.append(ideal_true_flow)
    mean_regret = float(np.mean(regrets))
    mean_oracle = float(np.mean(oracle_flows)) or 1.0
    return RegretSummary(
        queries=len(queries),
        path_agreement=agreements / len(queries),
        mean_flow_regret=mean_regret,
        relative_regret=mean_regret / mean_oracle,
    )


def congestion_savings(
    frn: FlowAwareRoadNetwork,
    oracle,
    queries: list[FSPQuery],
    alpha: float = 0.5,
    eta_u: float = 3.0,
    max_candidates: int = 16,
) -> dict[str, float]:
    """Flow avoided (and distance paid) vs. the purely spatial route.

    Returns mean relative flow savings and mean relative detour over the
    workload — the Fig. 1 trade-off quantified.
    """
    if not queries:
        raise QueryError("congestion_savings needs at least one query")
    engine = FlowAwareEngine(
        frn, oracle=oracle, alpha=alpha, eta_u=eta_u,
        max_candidates=max_candidates,
    )
    flow_savings: list[float] = []
    detours: list[float] = []
    for query in queries:
        result = engine.query(query)
        spatial_path = (
            oracle.path(query.source, query.target)
            if hasattr(oracle, "path")
            else list(result.path)
        )
        flow_vector = frn.predicted_at(query.timestep)
        spatial_flow = path_flow(flow_vector, spatial_path)
        if spatial_flow > 0:
            flow_savings.append(1.0 - result.flow / spatial_flow)
        if result.shortest_distance > 0:
            detours.append(result.distance / result.shortest_distance - 1.0)
    return {
        "mean_flow_savings": float(np.mean(flow_savings)) if flow_savings else 0.0,
        "mean_detour": float(np.mean(detours)) if detours else 0.0,
        "queries": float(len(queries)),
    }

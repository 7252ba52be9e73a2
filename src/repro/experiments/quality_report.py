"""Result-quality report: the honesty companion to the timing figures.

For each dataset this collects the three quality metrics of
:mod:`repro.analysis.quality` on the Fig. 6 workload:

* FAHL-W vs FAHL-O answer agreement (what the pruning speedup costs);
* prediction regret (extra true congestion from routing on predictions);
* congestion savings vs the spatial optimum (the Fig. 1 motivation).

The numbers quoted in EXPERIMENTS.md come from this experiment.
"""

from __future__ import annotations

from repro.analysis.quality import (
    congestion_savings,
    prediction_regret,
    pruning_quality,
)
from repro.core.fahl import FAHLIndex
from repro.core.fpsps import FlowAwareEngine
from repro.experiments.runner import ExperimentConfig, ExperimentTable
from repro.workloads.datasets import load_dataset
from repro.workloads.queries import flatten_groups, generate_query_groups

__all__ = ["run"]


def run(config: ExperimentConfig) -> ExperimentTable:
    """Compute the quality metrics on every configured dataset."""
    table = ExperimentTable(
        title="Quality report — pruning agreement, prediction regret, savings",
        headers=[
            "Dataset",
            "path agree",
            "mean gap",
            "cand ratio",
            "all pruned",
            "regret",
            "flow saved",
            "detour",
        ],
        notes=[
            "path agree / mean gap / cand ratio: FAHL-W vs FAHL-O;",
            "all pruned: share of FAHL-W queries where Lemma 4 pruned every "
            "candidate and the spatially shortest one won by default;",
            "regret: relative extra true congestion from predicted-flow "
            "routing; flow saved / detour: vs the spatial shortest path.",
        ],
    )
    for name in config.datasets:
        dataset = load_dataset(
            name,
            scale=config.scale,
            days=config.days,
            interval_minutes=config.interval_minutes,
            epochs=config.epochs,
            seed=config.seed,
        )
        frn = dataset.frn
        index = FAHLIndex.from_frn(frn, beta=config.beta)
        queries = flatten_groups(
            generate_query_groups(
                frn,
                num_groups=config.num_groups,
                queries_per_group=config.queries_per_group,
                seed=config.seed,
            )
        )
        reference = FlowAwareEngine(
            frn, oracle=index, alpha=config.alpha, eta_u=config.eta_u,
            pruning="none", max_candidates=config.max_candidates,
        )
        pruned = FlowAwareEngine(
            frn, oracle=index, alpha=config.alpha, eta_u=config.eta_u,
            pruning="lemma4", max_candidates=config.max_candidates,
        )
        agreement = pruning_quality(reference, pruned, queries)
        regret = prediction_regret(
            frn, index, queries,
            alpha=config.alpha, eta_u=config.eta_u,
            max_candidates=config.max_candidates,
        )
        savings = congestion_savings(
            frn, index, queries,
            alpha=config.alpha, eta_u=config.eta_u,
            max_candidates=config.max_candidates,
        )
        table.add_row(
            name,
            agreement.path_agreement,
            agreement.mean_score_gap,
            agreement.mean_candidate_ratio,
            agreement.all_pruned_share,
            regret.relative_regret,
            savings["mean_flow_savings"],
            savings["mean_detour"],
        )
    return table

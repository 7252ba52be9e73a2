"""Unit tests for the result-quality analysis helpers."""

from __future__ import annotations

import pytest

from repro.analysis.quality import (
    congestion_savings,
    prediction_regret,
    pruning_quality,
)
from repro.core.fahl import build_fahl
from repro.core.fpsps import FlowAwareEngine
from repro.core.fspq import FSPQuery
from repro.errors import QueryError
from repro.flow.predictor import TrainablePredictor
from repro.graph.frn import FlowAwareRoadNetwork


@pytest.fixture()
def engines(small_frn):
    index = build_fahl(small_frn)
    reference = FlowAwareEngine(small_frn, oracle=index, alpha=0.5,
                                eta_u=3.0, pruning="none", max_candidates=16)
    pruned = FlowAwareEngine(small_frn, oracle=index, alpha=0.5,
                             eta_u=3.0, pruning="lemma4", max_candidates=16)
    return index, reference, pruned


def sample_queries(frn, rng, count=10):
    n = frn.num_vertices
    queries = []
    while len(queries) < count:
        s, t = map(int, rng.integers(0, n, 2))
        if s != t:
            queries.append(FSPQuery(s, t, int(rng.integers(frn.num_timesteps))))
    return queries


class TestPruningQuality:
    def test_identical_engines_agree_fully(self, engines, small_frn, rng):
        _, reference, _ = engines
        queries = sample_queries(small_frn, rng)
        quality = pruning_quality(reference, reference, queries)
        assert quality.path_agreement == 1.0
        assert quality.mean_score_gap == 0.0
        assert quality.mean_candidate_ratio == pytest.approx(1.0)

    def test_pruned_engine_bounded_gap(self, engines, small_frn, rng):
        _, reference, pruned = engines
        queries = sample_queries(small_frn, rng)
        quality = pruning_quality(reference, pruned, queries)
        assert 0.0 <= quality.path_agreement <= 1.0
        assert quality.mean_score_gap <= quality.max_score_gap
        assert quality.mean_candidate_ratio <= 1.0 + 1e-9
        assert str(quality).startswith("PruningQuality")

    def test_requires_queries(self, engines):
        _, reference, pruned = engines
        with pytest.raises(QueryError):
            pruning_quality(reference, pruned, [])

    def test_all_pruned_share_counts_default_wins(self, engines, small_frn, rng):
        index, reference, pruned = engines
        queries = sample_queries(small_frn, rng)
        # eta_u = 3, alpha = 0.5: the least-flow candidate always survives
        assert pruning_quality(reference, pruned, queries).all_pruned_share == 0.0
        # eta_u - 1 < alpha * eta_u puts Lemma 4's upper bound below the
        # least flow: every candidate of a query with a flow spread is pruned
        tight = FlowAwareEngine(small_frn, oracle=index, alpha=0.5,
                                eta_u=1.5, pruning="lemma4", max_candidates=16)
        results = [tight.query(q) for q in queries]
        expected = sum(r.num_pruned == r.num_candidates for r in results)
        assert expected > 0
        quality = pruning_quality(reference, tight, queries)
        assert quality.all_pruned_share == expected / len(queries)
        assert "all_pruned=" in str(quality)


class TestPredictionRegret:
    def test_perfect_prediction_zero_regret(self, small_frn, rng):
        # small_frn's predicted flow IS the truth -> zero regret
        index = build_fahl(small_frn)
        queries = sample_queries(small_frn, rng)
        summary = prediction_regret(small_frn, index, queries)
        assert summary.path_agreement == 1.0
        assert summary.mean_flow_regret == pytest.approx(0.0)

    def test_noisy_prediction_nonnegative_regret(self, small_grid, rng):
        from repro.flow.synthetic import generate_flow_series

        truth = generate_flow_series(small_grid, days=1, seed=0)
        predicted = TrainablePredictor(epochs=0, seed=5).fit(truth).predict()
        frn = FlowAwareRoadNetwork(small_grid, truth, predicted_flow=predicted)
        index = build_fahl(frn)
        queries = sample_queries(frn, rng)
        summary = prediction_regret(frn, index, queries)
        # routing on bad predictions can never *beat* the oracle on average
        assert summary.mean_flow_regret >= -1e-9
        assert str(summary).startswith("RegretSummary")

    def test_requires_queries(self, small_frn):
        index = build_fahl(small_frn)
        with pytest.raises(QueryError):
            prediction_regret(small_frn, index, [])


class TestCongestionSavings:
    def test_savings_fields(self, small_frn, rng):
        index = build_fahl(small_frn)
        queries = sample_queries(small_frn, rng)
        savings = congestion_savings(small_frn, index, queries, alpha=0.3)
        assert set(savings) == {"mean_flow_savings", "mean_detour", "queries"}
        assert savings["queries"] == len(queries)
        assert savings["mean_flow_savings"] >= -1e-9  # never worse than spatial
        assert savings["mean_detour"] >= 0.0

    def test_alpha_tradeoff(self, small_frn, rng):
        # a flow-heavy blend accepts bigger detours for bigger flow savings
        index = build_fahl(small_frn)
        queries = sample_queries(small_frn, rng, count=12)
        flow_heavy = congestion_savings(small_frn, index, queries, alpha=0.1)
        dist_heavy = congestion_savings(small_frn, index, queries, alpha=0.9)
        assert flow_heavy["mean_detour"] >= dist_heavy["mean_detour"] - 1e-9
        assert (
            flow_heavy["mean_flow_savings"]
            >= dist_heavy["mean_flow_savings"] - 1e-9
        )

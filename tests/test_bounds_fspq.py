"""Unit tests for Lemma-4 bounds, scoring (Eq. 1-3) and FSPQ types."""

from __future__ import annotations

import pytest

from repro.core.bounds import FlowBounds, adaptive_upper_bound, lemma4_bounds
from repro.core.fpsps import score_candidates
from repro.core.fspq import FSPQuery, FSPResult
from repro.errors import QueryError
from repro.paths.scoring import path_flow


class TestLemma4Bounds:
    def test_formula(self):
        bounds = lemma4_bounds(10.0, 30.0, alpha=0.5, eta_u=3.0)
        spread = 20.0
        denom = (3.0 - 1.0) * 0.5
        assert bounds.lower == pytest.approx(10.0 - spread * 1.5 / denom)
        assert bounds.upper == pytest.approx(10.0 + spread * 0.5 / denom)

    def test_prunes_outside_interval(self):
        bounds = FlowBounds(lower=5.0, upper=15.0)
        assert bounds.prunes(4.9)
        assert bounds.prunes(15.1)
        assert not bounds.prunes(5.0)
        assert not bounds.prunes(10.0)
        assert not bounds.prunes(15.0)

    def test_small_alpha_widens_upper_bound(self):
        tight = lemma4_bounds(0.0, 1.0, alpha=0.5, eta_u=3.0)
        loose = lemma4_bounds(0.0, 1.0, alpha=0.1, eta_u=3.0)
        assert loose.upper > tight.upper

    def test_degenerate_range(self):
        bounds = lemma4_bounds(7.0, 7.0, alpha=0.5, eta_u=3.0)
        assert bounds.lower == bounds.upper == 7.0

    def test_validation(self):
        with pytest.raises(QueryError):
            lemma4_bounds(0.0, 1.0, alpha=0.0, eta_u=3.0)
        with pytest.raises(QueryError):
            lemma4_bounds(0.0, 1.0, alpha=0.5, eta_u=1.0)
        with pytest.raises(QueryError):
            lemma4_bounds(2.0, 1.0, alpha=0.5, eta_u=3.0)


class TestAdaptiveBound:
    def test_zero_best_score_prunes_everything_above_min(self):
        assert adaptive_upper_bound(0.0, 10.0, 20.0, alpha=0.5) == 10.0

    def test_scales_with_best_score(self):
        low = adaptive_upper_bound(0.1, 0.0, 1.0, alpha=0.5)
        high = adaptive_upper_bound(0.4, 0.0, 1.0, alpha=0.5)
        assert high > low

    def test_degenerate_spread(self):
        assert adaptive_upper_bound(0.5, 3.0, 3.0, alpha=0.5) == 3.0

    def test_validation(self):
        with pytest.raises(QueryError):
            adaptive_upper_bound(0.5, 0.0, 1.0, alpha=1.0)


class TestNormalization:
    """Eq. 1's normalisation, observed through the one scorer."""

    def test_distance_normalization(self):
        # equal flows: the flow term is 0, so score = alpha * PDis'
        _, scores, _ = score_candidates(
            [10.0, 30.0, 20.0], [1.0, 1.0, 1.0], 10.0, 30.0, alpha=0.5
        )
        assert scores.tolist() == [0.0, 0.5, 0.25]

    def test_flow_normalization(self):
        # distances at SPDis: the distance term is 0
        _, scores, _ = score_candidates(
            [5.0, 5.0], [100.0, 300.0], 5.0, 15.0, alpha=0.5
        )
        assert scores.tolist() == [0.0, 0.5]

    def test_degenerate_ranges_contribute_zero(self):
        _, scores, _ = score_candidates(
            [5.0, 5.0], [7.0, 7.0], 5.0, 5.0, alpha=0.5
        )
        assert scores.tolist() == [0.0, 0.0]


class TestScoring:
    def test_blend(self):
        best, scores, pruned = score_candidates(
            [10.0, 0.0], [0.0, 10.0], 0.0, 10.0, alpha=0.3
        )
        # first candidate: distance'=1, flow'=0 -> 0.3; second: 0.7
        assert best == 0
        assert scores[0] == pytest.approx(0.3)
        assert scores[1] == pytest.approx(0.7)
        assert pruned == 0

    def test_sorted_with_tiebreak(self):
        # candidates 0 and 1 tie on score; the shorter one (1) wins
        best, scores, _ = score_candidates(
            [4.0, 2.0, 10.0], [0.0, 2.0, 10.0], 0.0, 10.0, alpha=0.5
        )
        assert scores[0] == scores[1]
        assert best == 1
        # a full (score, distance, flow) tie keeps the first candidate
        best, _, _ = score_candidates(
            [3.0, 3.0], [1.0, 1.0], 0.0, 10.0, alpha=0.5
        )
        assert best == 0

    def test_path_flow(self):
        import numpy as np

        vector = np.array([1.0, 2.0, 4.0])
        assert path_flow(vector, [0, 2]) == 5.0
        assert path_flow(vector, [0, 1, 2]) == 7.0


class TestFSPQueryTypes:
    def test_validated_ok(self):
        query = FSPQuery(0, 1, 2)
        assert query.validated(5, 10) is query

    def test_validated_rejects(self):
        with pytest.raises(QueryError):
            FSPQuery(0, 9, 0).validated(5, 10)
        with pytest.raises(QueryError):
            FSPQuery(0, 1, 99).validated(5, 10)

    def test_result_is_frozen(self):
        result = FSPResult(
            path=(0, 1),
            distance=1.0,
            flow=2.0,
            score=0.5,
            shortest_distance=1.0,
            num_candidates=1,
            num_pruned=0,
            truncated=False,
        )
        with pytest.raises(AttributeError):
            result.distance = 2.0

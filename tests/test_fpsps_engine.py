"""Unit tests for the FPSPS flow-aware query engine (Alg. 5)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.fahl import build_fahl
from repro.core.fpsps import FlowAwareEngine
from repro.core.fspq import FSPQuery
from repro.errors import QueryError
from repro.flow.series import FlowSeries
from repro.graph.frn import FlowAwareRoadNetwork
from repro.graph.road_network import RoadNetwork


@pytest.fixture()
def diamond_frn() -> FlowAwareRoadNetwork:
    """Two disjoint s-t routes: short/high-flow vs long/low-flow.

    0 -(1)- 1 -(1)- 3   (distance 2, heavy flow on vertex 1)
    0 -(2)- 2 -(2)- 3   (distance 4, light flow on vertex 2)
    """
    graph = RoadNetwork(4, edges=[(0, 1, 1.0), (1, 3, 1.0), (0, 2, 2.0), (2, 3, 2.0)])
    flow = FlowSeries(np.array([[5.0, 100.0, 1.0, 5.0]]))
    return FlowAwareRoadNetwork(graph, flow)


class TestEngineBasics:
    def test_alpha_balances_distance_and_flow(self, diamond_frn):
        index = build_fahl(diamond_frn)
        high_alpha = FlowAwareEngine(diamond_frn, oracle=index, alpha=0.9, eta_u=3.0)
        low_alpha = FlowAwareEngine(diamond_frn, oracle=index, alpha=0.1, eta_u=3.0)
        query = FSPQuery(0, 3, 0)
        assert high_alpha.query(query).path == (0, 1, 3)  # distance wins
        assert low_alpha.query(query).path == (0, 2, 3)   # flow wins

    def test_result_fields(self, diamond_frn):
        index = build_fahl(diamond_frn)
        engine = FlowAwareEngine(diamond_frn, oracle=index, alpha=0.5, eta_u=3.0)
        result = engine.query(FSPQuery(0, 3, 0))
        assert result.shortest_distance == 2.0
        assert result.num_candidates == 2
        assert not result.truncated
        assert result.distance == pytest.approx(
            sum(
                diamond_frn.graph.weight(a, b)
                for a, b in zip(result.path, result.path[1:])
            )
        )
        flow_vector = diamond_frn.predicted_at(0)
        assert result.flow == pytest.approx(
            float(sum(flow_vector[v] for v in result.path))
        )

    def test_same_vertex_query(self, diamond_frn):
        engine = FlowAwareEngine(diamond_frn)
        result = engine.query(FSPQuery(2, 2, 0))
        assert result.path == (2,)
        assert result.distance == 0.0
        assert result.score == 0.0

    def test_eta_restricts_candidates(self, diamond_frn):
        index = build_fahl(diamond_frn)
        # eta=1.5 -> MCPDis = 3 < 4: the long route is excluded
        engine = FlowAwareEngine(
            diamond_frn, oracle=index, alpha=0.1, eta_u=1.5
        )
        result = engine.query(FSPQuery(0, 3, 0))
        assert result.path == (0, 1, 3)
        assert result.num_candidates == 1

    def test_index_free_engine(self, diamond_frn):
        engine = FlowAwareEngine(diamond_frn, oracle=None, alpha=0.5, eta_u=3.0)
        result = engine.query(FSPQuery(0, 3, 0))
        assert result.shortest_distance == 2.0

    @pytest.mark.parametrize("pruning", ["none", "lemma4"])
    def test_exhaustive_is_uncapped_and_eager(self, small_frn, pruning):
        # the exhaustive reference (test_property_fspq builds it with the
        # default cap) keeps every MCPDis path: no cap, no lazy stop
        engine = FlowAwareEngine(
            small_frn, exhaustive=True, max_candidates=4, pruning=pruning
        )
        result = engine.query(FSPQuery(0, 14, 0))
        assert result.num_candidates > engine.max_candidates
        assert result.truncated is False
        assert result.early_stopped is False

    def test_validates_parameters(self, diamond_frn):
        with pytest.raises(QueryError):
            FlowAwareEngine(diamond_frn, alpha=0.0)
        with pytest.raises(QueryError):
            FlowAwareEngine(diamond_frn, eta_u=1.0)
        with pytest.raises(QueryError):
            FlowAwareEngine(diamond_frn, pruning="magic")

    def test_validates_query(self, diamond_frn):
        engine = FlowAwareEngine(diamond_frn)
        with pytest.raises(QueryError):
            engine.query(FSPQuery(0, 99, 0))
        with pytest.raises(QueryError):
            engine.query(FSPQuery(0, 1, 5))

    def test_flow_cache_invalidation(self, diamond_frn):
        engine = FlowAwareEngine(diamond_frn)
        engine.query(FSPQuery(0, 3, 0))
        assert engine._flow_cache
        engine.invalidate()
        assert not engine._flow_cache

    def test_invalidate_flow_cache_alias_removed(self, diamond_frn):
        engine = FlowAwareEngine(diamond_frn)
        assert not hasattr(engine, "invalidate_flow_cache")


class TestPruningModes:
    def test_adaptive_equals_none(self, small_frn, rng):
        index = build_fahl(small_frn)
        base = FlowAwareEngine(small_frn, oracle=index, pruning="none",
                               max_candidates=32)
        adaptive = FlowAwareEngine(small_frn, oracle=index, pruning="adaptive",
                                   max_candidates=32)
        n = small_frn.num_vertices
        for _ in range(20):
            s, t = map(int, rng.integers(0, n, 2))
            if s == t:
                continue
            query = FSPQuery(s, t, int(rng.integers(small_frn.num_timesteps)))
            expected = base.query(query)
            got = adaptive.query(query)
            assert got.score == pytest.approx(expected.score)
            assert got.path == expected.path

    def test_lemma4_agrees_when_nothing_fired(self, small_frn, rng):
        alpha, eta = 0.5, 3.0
        index = build_fahl(small_frn)
        base = FlowAwareEngine(small_frn, oracle=index, alpha=alpha, eta_u=eta,
                               pruning="none", max_candidates=32)
        lemma = FlowAwareEngine(small_frn, oracle=index, alpha=alpha, eta_u=eta,
                                pruning="lemma4", max_candidates=32)
        n = small_frn.num_vertices
        checked = 0
        for _ in range(40):
            s, t = map(int, rng.integers(0, n, 2))
            if s == t:
                continue
            query = FSPQuery(s, t, 0)
            expected = base.query(query)
            got = lemma.query(query)
            if got.num_pruned == 0 and not got.early_stopped:
                # no bound fired: FAHL-W saw the same candidates and must
                # return the same optimum
                assert got.score == pytest.approx(expected.score)
                assert got.path == expected.path
                checked += 1
        assert checked > 0

    def test_lemma4_saves_enumeration_work(self, small_frn, rng):
        """The pruned engine must enumerate no more candidates than the
        unpruned one and fire at least one bound over a workload."""
        index = build_fahl(small_frn)
        base = FlowAwareEngine(small_frn, oracle=index, alpha=0.2, eta_u=3.0,
                               pruning="none", max_candidates=32)
        lemma = FlowAwareEngine(small_frn, oracle=index, alpha=0.2, eta_u=3.0,
                                pruning="lemma4", max_candidates=32)
        n = small_frn.num_vertices
        fired = 0
        for _ in range(20):
            s, t = map(int, rng.integers(0, n, 2))
            if s == t:
                continue
            query = FSPQuery(s, t, 0)
            expected = base.query(query)
            got = lemma.query(query)
            assert got.num_candidates <= expected.num_candidates
            fired += got.num_pruned + int(got.early_stopped)
        assert fired > 0

    def test_lemma4_result_optimal_over_enumerated_prefix(self, small_frn, rng):
        """Even with early stopping, the returned path has the minimal score
        among the candidates the engine enumerated."""
        index = build_fahl(small_frn)
        engine = FlowAwareEngine(small_frn, oracle=index, alpha=0.5, eta_u=3.0,
                                 pruning="lemma4", max_candidates=32)
        n = small_frn.num_vertices
        for _ in range(15):
            s, t = map(int, rng.integers(0, n, 2))
            if s == t:
                continue
            result = engine.query(FSPQuery(s, t, 0))
            assert 0.0 <= result.score <= 1.0 + 1e-9
            assert result.distance <= 3.0 * result.shortest_distance + 1e-9

    def test_all_pruned_falls_back_to_shortest(self, diamond_frn):
        # alpha=0.9, eta=3: lemma-4 upper bound is below every candidate's
        # flow except possibly the minimum; the engine must still answer
        index = build_fahl(diamond_frn)
        engine = FlowAwareEngine(diamond_frn, oracle=index, alpha=0.9,
                                 eta_u=1.2, pruning="lemma4")
        result = engine.query(FSPQuery(0, 3, 0))
        assert result.path  # never empty


class TestCapacityScoring:
    def test_capacity_changes_result(self):
        graph = RoadNetwork(4, edges=[(0, 1, 1.0), (1, 3, 1.0),
                                      (0, 2, 1.0), (2, 3, 1.0)])
        # vertex 1 heavy flow but many lanes; vertex 2 lighter flow, 1 lane
        flow = FlowSeries(np.array([[1.0, 60.0, 30.0, 1.0]]))
        lanes = np.array([1, 10, 1, 1])
        frn = FlowAwareRoadNetwork(graph, flow, lanes=lanes)
        raw = FlowAwareEngine(frn, alpha=0.2, eta_u=3.0)
        blended = FlowAwareEngine(frn, alpha=0.2, eta_u=3.0,
                                  use_capacity=True, w_c=0.1)
        query = FSPQuery(0, 3, 0)
        assert raw.query(query).path == (0, 2, 3)       # raw flow: avoid v1
        assert blended.query(query).path == (0, 1, 3)   # per-lane: v1 is fine

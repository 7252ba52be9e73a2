"""Unit tests for the resilient serving layer (admission, overlay, repair)."""

from __future__ import annotations

import math
import warnings

import pytest

from repro.baselines.dijkstra import dijkstra_distance
from repro.core.fahl import FAHLIndex, build_fahl
from repro.core.fspq import FSPQuery
from repro.errors import IndexStateError, QueryError
from repro.flow.synthetic import generate_flow_series
from repro.graph.frn import FlowAwareRoadNetwork
from repro.graph.road_network import RoadNetwork
from repro.serving import (
    DeadLetterQueue,
    FlowUpdate,
    ResilientEngine,
    WeightUpdate,
    verify_index,
)
from repro.testing import FaultInjector


def fixed_graph() -> RoadNetwork:
    edges = [
        (0, 1, 4.0), (0, 2, 7.0), (1, 2, 2.0), (1, 3, 5.0),
        (2, 4, 3.0), (3, 4, 6.0), (3, 5, 1.0), (4, 6, 8.0),
        (5, 6, 2.0), (5, 7, 9.0), (6, 7, 3.0), (0, 7, 20.0),
        (2, 5, 11.0),
    ]
    return RoadNetwork(8, edges=edges)


@pytest.fixture()
def frn() -> FlowAwareRoadNetwork:
    graph = fixed_graph()
    flow = generate_flow_series(graph, days=1, seed=9)
    return FlowAwareRoadNetwork(graph, flow)


@pytest.fixture()
def serving(frn) -> ResilientEngine:
    return ResilientEngine(frn, max_retries=1)


class TestAdmissionControl:
    @pytest.mark.parametrize(
        "update, reason",
        [
            (FlowUpdate(3, math.nan), "non-finite"),
            (FlowUpdate(3, math.inf), "non-finite"),
            (FlowUpdate(3, -1.0), "negative-flow"),
            (FlowUpdate(99, 5.0), "unknown-vertex"),
            (FlowUpdate(-1, 5.0), "unknown-vertex"),
            (WeightUpdate(0, 99, 5.0), "unknown-vertex"),
            (WeightUpdate(0, 4, 5.0), "unknown-edge"),
            (WeightUpdate(0, 1, 0.0), "non-positive-weight"),
            (WeightUpdate(0, 1, math.nan), "non-finite"),
            (FlowUpdate(3, 5.0, timestamp=math.nan), "non-finite"),
        ],
    )
    def test_invalid_updates_quarantined(self, serving, update, reason):
        before = serving.index.checksum()
        outcome = serving.submit(update)
        assert not outcome.accepted
        assert not outcome.applied
        assert outcome.reason == reason
        assert serving.dead_letters.by_reason[reason] == 1
        assert serving.index.checksum() == before
        assert not serving.degraded

    def test_unsupported_type_quarantined(self, serving):
        outcome = serving.submit("not an update")
        assert outcome.reason == "unsupported-type"

    def test_stale_timestamp_quarantined(self, serving):
        assert serving.submit(FlowUpdate(3, 10.0, timestamp=5.0)).applied
        outcome = serving.submit(FlowUpdate(3, 12.0, timestamp=4.0))
        assert outcome.reason == "stale-timestamp"
        # a fresh timestamp on the same key is fine again
        assert serving.submit(FlowUpdate(3, 12.0, timestamp=6.0)).applied

    def test_timestamps_tracked_per_key(self, serving):
        assert serving.submit(FlowUpdate(3, 10.0, timestamp=5.0)).applied
        # a different key is not constrained by vertex 3's clock
        assert serving.submit(FlowUpdate(4, 10.0, timestamp=1.0)).applied
        assert serving.submit(WeightUpdate(0, 1, 2.0, timestamp=1.0)).applied

    def test_dead_letters_record_details(self, serving):
        serving.submit(FlowUpdate(3, math.nan))
        letters = serving.dead_letters.drain()
        assert len(letters) == 1
        assert letters[0].reason == "non-finite"
        assert letters[0].update == FlowUpdate(3, math.nan)
        assert len(serving.dead_letters) == 0
        assert serving.dead_letters.total_seen == 1


class TestGuardedMaintenance:
    def test_valid_updates_apply(self, serving, frn):
        assert serving.submit(FlowUpdate(3, 500.0)).applied
        assert serving.submit(WeightUpdate(0, 1, 2.0)).applied
        got = serving.distance(0, 1)
        assert got.source == "index"
        assert got.value == pytest.approx(dijkstra_distance(frn.graph, 0, 1))

    def test_repair_folds_in_deferred_updates(self, serving, frn):
        # a maintenance fault cannot touch submit: the flow update is
        # accepted and queued, never deferred, and repair folds it in
        with FaultInjector() as inj:
            inj.fail_at("flow:flow-set", times=-1)
            outcome = serving.submit(FlowUpdate(3, 500.0))
        assert outcome.applied and not outcome.deferred
        assert not serving.degraded
        report = serving.repair()
        assert report.ok
        assert not serving.degraded
        assert serving.index.flows[3] == 500.0
        assert serving.status().deferred_updates == 0
        assert serving.distance(2, 7).source == "index"

    def test_deprecated_keywords_warn_and_change_nothing(self):
        def fresh_frn():
            graph = fixed_graph()
            return FlowAwareRoadNetwork(
                graph, generate_flow_series(graph, days=1, seed=9)
            )

        query = FSPQuery(0, 7, 0)
        update = WeightUpdate(0, 1, 9.0, timestamp=1.0)
        reference = ResilientEngine(fresh_frn())
        assert reference.submit(update).applied
        with pytest.warns(DeprecationWarning, match="update_mode"):
            serving = ResilientEngine(fresh_frn(), update_mode="inline")
        outcome = serving.submit(update)
        assert outcome.applied and outcome.strategy == "overlay"
        assert serving.query(query).result == reference.query(query).result
        assert serving.distance(2, 7) == reference.distance(2, 7)
        status = serving.status()
        assert status.update_mode == "overlay"
        assert status.deferred_updates == 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ResilientEngine(fresh_frn(), update_mode="overlay")
        for name in ("time_budget", "backoff", "clock", "sleep"):
            with pytest.raises(TypeError, match=name):
                ResilientEngine(fresh_frn(), **{name: None})


class TestQueriesAndAudit:
    def test_query_sources(self, serving, frn):
        query = FSPQuery(0, 7, 0)
        healthy = serving.query(query)
        assert healthy.source == "index" and not healthy.degraded
        serving.state = "degraded"
        degraded = serving.query(query)
        assert degraded.source == "fallback" and degraded.degraded
        assert degraded.result.score == pytest.approx(healthy.result.score)

    def test_audit_detects_corrupted_label(self, serving):
        assert serving.audit().ok
        serving.index.labels[5][0] += 3.0  # silent corruption
        report = serving.audit()
        assert not report.ok
        assert serving.degraded
        assert serving.metrics["audits_failed"] == 1

    def test_repair_recovers_from_corruption(self, serving, frn):
        serving.index.labels[5][0] += 3.0
        serving.audit()
        assert serving.repair().ok
        assert not serving.degraded
        got = serving.distance(5, 0)
        assert got.value == pytest.approx(dijkstra_distance(frn.graph, 5, 0))

    def test_status_snapshot(self, serving):
        serving.submit(FlowUpdate(3, math.nan))
        status = serving.status()
        assert status.state == "healthy"
        assert status.dead_letters_queued == 1
        assert status.metrics["updates_rejected"] == 1
        assert status.last_audit_at is None  # no audit has run yet
        # dict-style access completed its deprecation cycle and was removed
        with pytest.raises(TypeError):
            status["state"]
        assert status.as_dict()["dead_letters_queued"] == 1

    def test_status_records_audit_timestamp(self, serving):
        serving.audit()
        status = serving.status()
        assert status.last_audit_at is not None
        assert status.last_audit_ok is True


class TestConstruction:
    def test_rejects_foreign_index(self, frn):
        other = FlowAwareRoadNetwork(fixed_graph(), frn.flow)
        index = build_fahl(other)
        with pytest.raises(IndexStateError):
            ResilientEngine(frn, index=index)

    def test_accepts_shared_graph_index(self, frn):
        index = FAHLIndex.from_frn(frn)
        serving = ResilientEngine(frn, index=index)
        assert serving.index is index

    def test_rejects_bad_parameters(self, frn):
        with pytest.raises(QueryError):
            ResilientEngine(frn, max_retries=-1)
        with pytest.raises(QueryError):
            ResilientEngine(frn, update_mode="eventual")


class TestVerifyIndex:
    def test_clean_index_passes(self, small_frn):
        index = build_fahl(small_frn)
        report = verify_index(index, samples=16, seed=1)
        assert report.ok
        assert report.checked == 16
        assert report.checksum == index.checksum()

    def test_flags_distance_mismatch(self, small_frn):
        index = build_fahl(small_frn)
        for v in range(index.graph.num_vertices):
            if len(index.labels[v]) > 1:
                index.labels[v][0] += 5.0
        report = verify_index(index, samples=32, seed=1)
        assert not report.ok
        assert report.mismatches or report.structure_errors


class TestUpdateTypes:
    def test_weight_key_is_normalized(self):
        assert WeightUpdate(2, 1, 5.0).key == WeightUpdate(1, 2, 5.0).key

    def test_flow_key_includes_vertex(self):
        assert FlowUpdate(3, 5.0).key != FlowUpdate(4, 5.0).key

    def test_dead_letter_queue_is_bounded(self):
        queue = DeadLetterQueue(capacity=4)
        for i in range(10):
            queue.push(FlowUpdate(i, -1.0), "negative-flow", "test")
        assert len(queue) == 4
        assert queue.total_seen == 10
        assert queue.by_reason["negative-flow"] == 10
        # the queue keeps the newest entries
        assert queue.drain()[-1].update.vertex == 9

    def test_rejects_bad_capacity(self):
        with pytest.raises(QueryError):
            DeadLetterQueue(capacity=0)

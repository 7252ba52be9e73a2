"""Unit tests for the delta overlay: absorb, exact serving, consolidation."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.baselines.dijkstra import dijkstra_distance, dijkstra_distances
from repro.core.overlay import ConsolidationTask, DeltaOverlay, OverlayOracle
from repro.errors import EdgeNotFoundError, GraphError
from repro.flow.synthetic import generate_flow_series
from repro.graph.frn import FlowAwareRoadNetwork
from repro.graph.road_network import RoadNetwork
from repro.labeling.h2h import build_h2h
from repro.serving import FlowUpdate, ResilientEngine, WeightUpdate
from repro.testing import FaultInjector

N = 8


def fixed_graph() -> RoadNetwork:
    edges = [
        (0, 1, 4.0), (0, 2, 7.0), (1, 2, 2.0), (1, 3, 5.0),
        (2, 4, 3.0), (3, 4, 6.0), (3, 5, 1.0), (4, 6, 8.0),
        (5, 6, 2.0), (5, 7, 9.0), (6, 7, 3.0), (0, 7, 20.0),
        (2, 5, 11.0),
    ]
    return RoadNetwork(N, edges=edges)


def assert_oracle_exact(oracle, graph) -> None:
    for s in range(graph.num_vertices):
        ref = dijkstra_distances(graph, s)
        for t in range(graph.num_vertices):
            assert oracle.distance(s, t) == pytest.approx(ref[t]), (s, t)


@pytest.fixture()
def graph() -> RoadNetwork:
    return fixed_graph()


@pytest.fixture()
def index(graph):
    return build_h2h(graph)


@pytest.fixture()
def overlay(graph, index) -> DeltaOverlay:
    return DeltaOverlay(graph, capacity=4)


class TestDeltaOverlay:
    def test_absorb_validates(self, overlay):
        with pytest.raises(GraphError):
            overlay.absorb(0, 1, 0.0)
        with pytest.raises(GraphError):
            overlay.absorb(0, 1, -2.0)
        with pytest.raises(GraphError):
            overlay.absorb(0, 1, math.nan)
        with pytest.raises(EdgeNotFoundError):
            overlay.absorb(0, 4, 5.0)
        assert overlay.is_empty
        assert overlay.version == 0

    def test_absorb_updates_live_graph_not_labels(self, graph, index, overlay):
        label_version = index.label_version
        assert overlay.absorb(0, 1, 9.0)
        assert graph.weight(0, 1) == 9.0
        assert index.label_version == label_version
        entry = overlay.edges[(0, 1)]
        assert entry.stable == 4.0
        assert entry.current == 9.0

    def test_unchanged_weight_is_a_noop(self, graph, overlay):
        assert not overlay.absorb(0, 1, graph.weight(0, 1))
        assert overlay.is_empty
        assert overlay.version == 0

    def test_revert_to_stable_keeps_entry(self, overlay):
        assert overlay.absorb(0, 1, 9.0)
        assert overlay.absorb(0, 1, 4.0)
        # the record must survive: a concurrent consolidation may already
        # have folded 9.0, and the rebase bookkeeping needs the entry
        assert (0, 1) in overlay.edges
        assert overlay.edges[(0, 1)].current == 4.0

    def test_is_full_at_capacity(self, overlay):
        for u, v in ((0, 1), (1, 2), (2, 4), (3, 5)):
            overlay.absorb(u, v, 1.5)
        assert overlay.is_full

    def test_hub_rows_stay_exact_under_mixed_updates(self, graph, overlay):
        overlay.absorb(0, 1, 9.0)   # increase
        overlay.absorb(5, 6, 0.5)   # decrease
        overlay.absorb(0, 1, 2.5)   # decrease below original
        for x in (0, 1, 5, 6):
            np.testing.assert_allclose(
                overlay._hub_rows[x], dijkstra_distances(graph, x)
            )

    def test_table_to_matches_current_dijkstra(self, graph, overlay):
        overlay.absorb(1, 3, 0.5)
        overlay.absorb(6, 7, 30.0)
        for t in range(N):
            np.testing.assert_allclose(
                overlay.table_to(t), dijkstra_distances(graph, t)
            )


class TestOverlayOracle:
    def test_empty_overlay_delegates_bit_identically(self, graph, index, overlay):
        oracle = OverlayOracle(index, overlay)
        for s in range(N):
            for t in range(N):
                assert oracle.distance(s, t) == index.distance(s, t)

    def test_requires_shared_graph(self, index):
        foreign = DeltaOverlay(fixed_graph())
        with pytest.raises(Exception):
            OverlayOracle(index, foreign)

    def test_exact_under_increases_and_decreases(self, graph, index, overlay):
        oracle = OverlayOracle(index, overlay)
        # (1, 2) lies on many stable shortest paths: raising it forces the
        # uncertified A* fallback for pairs whose stable optimum crossed it
        overlay.absorb(1, 2, 40.0)
        overlay.absorb(3, 5, 6.0)
        overlay.absorb(0, 7, 2.0)
        assert_oracle_exact(oracle, graph)

    def test_distance_many_matches_point_queries(self, graph, index, overlay):
        oracle = OverlayOracle(index, overlay)
        overlay.absorb(2, 4, 12.0)
        overlay.absorb(5, 6, 0.25)
        sources = np.array([0, 1, 2, 3, 7, 6])
        targets = np.array([7, 6, 5, 4, 0, 1])
        got = oracle.distance_many(sources, targets)
        for i, (s, t) in enumerate(zip(sources, targets)):
            assert got[i] == pytest.approx(oracle.distance(int(s), int(t)))

    def test_heuristic_table_tracks_overlay_version(self, graph, index, overlay):
        oracle = OverlayOracle(index, overlay)
        overlay.absorb(0, 1, 9.0)
        before = oracle.heuristic_table(7)
        np.testing.assert_allclose(before, dijkstra_distances(graph, 7))
        overlay.absorb(6, 7, 1.0)
        after = oracle.heuristic_table(7)
        np.testing.assert_allclose(after, dijkstra_distances(graph, 7))

    def test_path_is_valid_on_current_graph(self, graph, index, overlay):
        oracle = OverlayOracle(index, overlay)
        overlay.absorb(1, 2, 40.0)
        overlay.absorb(5, 6, 0.5)
        for s, t in ((0, 7), (2, 6), (7, 1)):
            path = oracle.path(s, t)
            assert path[0] == s and path[-1] == t
            weight = sum(graph.weight(a, b) for a, b in zip(path, path[1:]))
            assert weight == pytest.approx(oracle.distance(s, t))


class TestConsolidationTask:
    def test_run_folds_and_swaps(self, graph, index, overlay):
        oracle = OverlayOracle(index, overlay)
        overlay.absorb(0, 1, 9.0)
        overlay.absorb(5, 6, 0.5)
        swapped = []
        task = ConsolidationTask(index, overlay, on_commit=swapped.append)
        new_index = task.run()
        assert task.committed
        assert swapped == [new_index]
        assert new_index is not index
        assert new_index.graph is graph
        assert overlay.is_empty
        oracle.index = new_index
        assert_oracle_exact(oracle, graph)

    def test_live_absorb_leaves_back_buffer_graph_unchanged(
        self, graph, index, overlay
    ):
        overlay.absorb(0, 1, 9.0)
        task = ConsolidationTask(index, overlay)
        task.step()  # clone
        back = task.back.graph
        assert back is not graph
        # the back buffer starts from the weight its labels were built under
        assert back.weight(0, 1) == 4.0
        assert overlay.absorb(2, 4, 50.0)
        assert overlay.absorb(0, 1, 2.0)
        assert graph.weight(2, 4) == 50.0
        assert back.weight(2, 4) == back.weight(4, 2) == 3.0
        assert back.weight(0, 1) == 4.0
        assert dict(back.adjacency(2))[4] == 3.0

    def test_queries_exact_between_every_step(self, graph, index, overlay):
        oracle = OverlayOracle(index, overlay)
        overlay.absorb(1, 3, 0.5)
        overlay.absorb(6, 7, 30.0)

        def on_commit(back):
            oracle.index = back

        task = ConsolidationTask(index, overlay, on_commit=on_commit)
        while not task.done:
            task.step()
            assert_oracle_exact(oracle, graph)

    def test_mid_task_absorb_survives_swap(self, graph, index, overlay):
        oracle = OverlayOracle(index, overlay)
        overlay.absorb(0, 1, 9.0)
        task = ConsolidationTask(
            index, overlay, on_commit=lambda back: setattr(oracle, "index", back)
        )
        task.step()  # clone
        assert overlay.absorb(2, 4, 1.0)
        task.run()
        # the mid-task edge is still pending — not silently dropped
        assert (2, 4) in overlay.edges
        assert overlay.edges[(2, 4)].stable == 3.0
        assert_oracle_exact(oracle, graph)
        # a second round (cloning the *swapped-in* index) drains it
        ConsolidationTask(
            oracle.index, overlay,
            on_commit=lambda back: setattr(oracle, "index", back),
        ).run()
        assert overlay.is_empty
        assert_oracle_exact(oracle, graph)

    def test_absorb_between_prepare_and_commit_survives(self, graph, index, overlay):
        oracle = OverlayOracle(index, overlay)
        overlay.absorb(0, 1, 9.0)
        task = ConsolidationTask(
            index, overlay, on_commit=lambda back: setattr(oracle, "index", back)
        )
        while task.state != "commit":
            task.step()
        # lands after prepare computed the rebase: must not be lost
        assert overlay.absorb(5, 7, 2.0)
        task.run()
        assert (5, 7) in overlay.edges
        assert_oracle_exact(oracle, graph)


@pytest.fixture()
def frn() -> FlowAwareRoadNetwork:
    g = fixed_graph()
    return FlowAwareRoadNetwork(g, generate_flow_series(g, days=1, seed=9))


@pytest.fixture()
def serving(frn) -> ResilientEngine:
    return ResilientEngine(frn, max_retries=1, overlay_capacity=64)


class TestOverlayServing:
    def test_weight_updates_absorb_without_label_maintenance(self, serving, frn):
        label_version = serving.index.label_version
        outcome = serving.submit(WeightUpdate(0, 1, 9.0, timestamp=1.0))
        assert outcome.applied
        assert outcome.strategy == "overlay"
        assert serving.index.label_version == label_version
        assert serving.distance(0, 1).value == pytest.approx(
            dijkstra_distance(frn.graph, 0, 1)
        )

    def test_flow_updates_queue_for_consolidation(self, serving):
        outcome = serving.submit(FlowUpdate(3, 42.0, timestamp=1.0))
        assert outcome.applied
        assert outcome.strategy == "overlay-queued"
        assert serving.status().pending_flow_updates == 1
        serving.consolidate()
        assert serving.status().pending_flow_updates == 0
        assert serving.index.flows[3] == 42.0

    def test_consolidation_drains_and_stays_exact(self, serving, frn):
        ts = 0.0
        for u, v, w in ((0, 1, 9.0), (5, 6, 0.5), (2, 4, 7.5)):
            ts += 1.0
            assert serving.submit(WeightUpdate(u, v, w, timestamp=ts)).applied
        assert serving.consolidation_pending
        while serving.consolidation_pending:
            serving.maintenance_tick(steps=1)
            for s, t in ((0, 7), (3, 6), (1, 4)):
                assert serving.distance(s, t).value == pytest.approx(
                    dijkstra_distance(frn.graph, s, t)
                )
        assert serving.status().overlay_edges == 0
        assert serving.metrics["consolidations"] >= 1
        report = serving.audit()
        assert report.ok

    def test_overlay_capacity_triggers_consolidation(self, frn):
        serving = ResilientEngine(frn, max_retries=1, overlay_capacity=2)
        assert serving.submit(WeightUpdate(0, 1, 9.0, timestamp=1.0)).applied
        assert serving.submit(WeightUpdate(1, 2, 8.0, timestamp=2.0)).applied
        # hitting capacity consolidated inline: nothing left pending
        assert not serving.consolidation_pending
        assert serving.metrics["consolidations"] == 1

    def test_failed_consolidation_discards_clone_and_retries(self, serving, frn):
        assert serving.submit(WeightUpdate(0, 1, 9.0, timestamp=1.0)).applied
        index_before = serving.index
        with FaultInjector() as inj:
            inj.fail_at("consolidate:clone-created", times=1)
            state = serving.maintenance_tick(steps=10)
        assert state == "failed"
        assert serving.index is index_before
        assert serving.dead_letters.by_reason["consolidation-failed"] == 1
        assert serving.distance(0, 1).value == pytest.approx(
            dijkstra_distance(frn.graph, 0, 1)
        )
        # next attempt succeeds and drains the overlay
        serving.consolidate()
        assert not serving.consolidation_pending
        assert serving.index is not index_before

    def test_repeated_failures_escalate_to_repair(self, frn):
        serving = ResilientEngine(frn, max_retries=0)
        assert serving.submit(WeightUpdate(0, 1, 9.0, timestamp=1.0)).applied
        with FaultInjector() as inj:
            inj.fail_at("consolidate:weights-folded", times=-1)
            state = serving.maintenance_tick(steps=10)
        assert state == "rebuilt"
        assert serving.metrics["repairs"] == 1
        assert not serving.consolidation_pending
        assert serving.distance(0, 1).value == pytest.approx(
            dijkstra_distance(frn.graph, 0, 1)
        )

    def test_status_reports_overlay_fields(self, serving):
        status = serving.status()
        assert status.update_mode == "overlay"
        assert status.overlay_edges == 0
        serving.submit(WeightUpdate(0, 1, 9.0, timestamp=1.0))
        serving.submit(FlowUpdate(2, 5.0, timestamp=2.0))
        status = serving.status()
        assert status.overlay_edges == 1
        assert status.pending_flow_updates == 1
        assert status.as_dict()["update_mode"] == "overlay"

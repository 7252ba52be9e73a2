"""Property-based tests: maintenance keeps indexes exact under any updates."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.baselines.dijkstra import dijkstra_distances
from repro.core.fahl import FAHLIndex
from repro.core.fpsps import FlowAwareEngine
from repro.core.fspq import FSPQuery
from repro.core.maintenance import apply_flow_update, apply_weight_update
from repro.core.overlay import ConsolidationTask, DeltaOverlay, OverlayOracle
from repro.flow.series import FlowSeries
from repro.graph.frn import FlowAwareRoadNetwork
from repro.labeling.h2h import build_h2h
from tests.strategies import connected_graphs


def assert_index_exact(index, graph):
    n = graph.num_vertices
    for s in range(0, n, max(1, n // 4)):
        ref = dijkstra_distances(graph, s)
        for t in range(n):
            assert index.distance(s, t) == pytest.approx(ref[t]), (s, t)


@given(graph=connected_graphs(max_vertices=12), data=st.data())
def test_ilu_exact_under_random_update_sequences(graph, data):
    index = build_h2h(graph)
    edges = list(graph.edges())
    num_updates = data.draw(st.integers(1, 6))
    for _ in range(num_updates):
        u, v, _ = edges[data.draw(st.integers(0, len(edges) - 1))]
        new_weight = float(data.draw(st.integers(1, 40)))
        apply_weight_update(index, u, v, new_weight)
    assert_index_exact(index, graph)


@given(graph=connected_graphs(max_vertices=12), data=st.data())
def test_ilu_matches_fresh_rebuild(graph, data):
    index = build_h2h(graph)
    edges = list(graph.edges())
    for _ in range(data.draw(st.integers(1, 4))):
        u, v, _ = edges[data.draw(st.integers(0, len(edges) - 1))]
        apply_weight_update(index, u, v, float(data.draw(st.integers(1, 40))))
    fresh = build_h2h(graph.copy())
    assert fresh.elim.order == index.elim.order
    for v in range(graph.num_vertices):
        assert np.allclose(fresh.labels[v], index.labels[v])


@given(graph=connected_graphs(max_vertices=12), data=st.data())
def test_structure_updates_exact_under_random_flows(graph, data):
    n = graph.num_vertices
    flows = np.array([data.draw(st.integers(0, 100)) for _ in range(n)],
                     dtype=float)
    index = FAHLIndex(graph, flows, beta=0.5)
    for _ in range(data.draw(st.integers(1, 5))):
        vertex = data.draw(st.integers(0, n - 1))
        new_flow = float(data.draw(st.integers(0, 200)))
        method = data.draw(st.sampled_from(["isu", "gsu"]))
        apply_flow_update(index, vertex, new_flow, method=method)
    index.tree.validate(graph)
    assert_index_exact(index, graph)


@given(graph=connected_graphs(max_vertices=10), data=st.data())
def test_interleaved_updates_exact(graph, data):
    n = graph.num_vertices
    flows = np.array([data.draw(st.integers(0, 100)) for _ in range(n)],
                     dtype=float)
    index = FAHLIndex(graph, flows, beta=0.5)
    edges = list(graph.edges())
    for _ in range(data.draw(st.integers(2, 6))):
        if data.draw(st.booleans()):
            u, v, _ = edges[data.draw(st.integers(0, len(edges) - 1))]
            apply_weight_update(index, u, v, float(data.draw(st.integers(1, 40))))
        else:
            vertex = data.draw(st.integers(0, n - 1))
            apply_flow_update(index, vertex, float(data.draw(st.integers(0, 200))))
    index.tree.validate(graph)
    assert_index_exact(index, graph)
    # paths must stay consistent with distances too
    for s in range(0, n, max(1, n // 3)):
        for t in range(0, n, max(1, n // 3)):
            path = index.path(s, t)
            weight = sum(graph.weight(a, b) for a, b in zip(path, path[1:]))
            assert weight == pytest.approx(index.distance(s, t))


@given(graph=connected_graphs(max_vertices=10), data=st.data())
def test_overlay_interleaving_bit_identical_to_rebuild(graph, data):
    """Interleaved query/update/consolidate == rebuild-from-scratch, bitwise.

    Integer edge weights make every distance an exact float sum, so the
    overlay-served answer must equal the answer of an index built fresh on
    the current graph with ``==`` — no tolerance.
    """
    index = build_h2h(graph)
    overlay = DeltaOverlay(graph, capacity=64)
    oracle = OverlayOracle(index, overlay)
    edges = list(graph.edges())
    n = graph.num_vertices

    def check_against_rebuild():
        fresh = build_h2h(graph.copy())
        for s in range(0, n, max(1, n // 3)):
            for t in range(n):
                assert oracle.distance(s, t) == fresh.distance(s, t), (s, t)

    for _ in range(data.draw(st.integers(2, 7))):
        action = data.draw(st.sampled_from(["update", "query", "consolidate"]))
        if action == "update":
            u, v, _ = edges[data.draw(st.integers(0, len(edges) - 1))]
            overlay.absorb(u, v, float(data.draw(st.integers(1, 40))))
        elif action == "consolidate":
            task = ConsolidationTask(
                oracle.index, overlay,
                on_commit=lambda back: setattr(oracle, "index", back),
            )
            task.run()
            assert task.committed
        else:
            s = data.draw(st.integers(0, n - 1))
            t = data.draw(st.integers(0, n - 1))
            fresh = build_h2h(graph.copy())
            assert oracle.distance(s, t) == fresh.distance(s, t), (s, t)
    check_against_rebuild()
    # drain the overlay and the served answers are still the rebuilt ones
    while not overlay.is_empty:
        ConsolidationTask(
            oracle.index, overlay,
            on_commit=lambda back: setattr(oracle, "index", back),
        ).run()
    check_against_rebuild()


@given(graph=connected_graphs(min_vertices=4, max_vertices=10), data=st.data())
def test_stepped_consolidation_exact_under_mid_task_absorbs(graph, data):
    """A consolidation driven one ``step()`` at a time stays exact while
    absorbs land between its steps.

    The back buffer repairs a private copy of the graph, so an absorb
    after the clone step moves only the live graph: one lands on an edge
    already queued for the fold, one between prepare and commit, and
    more at random.  After every action the overlay-served distances
    equal a fresh rebuild with ``==`` (integer weights), and a flat
    engine over the oracle, rebuilt off the graph's mutation version,
    answers exactly what a ``kernel="scalar"`` engine does.
    """
    n = graph.num_vertices
    flows = np.array([data.draw(st.integers(0, 100)) for _ in range(n)],
                     dtype=float)
    frn = FlowAwareRoadNetwork(graph, FlowSeries(flows[None, :]))
    overlay = DeltaOverlay(graph, capacity=64)
    oracle = OverlayOracle(FAHLIndex(graph, flows, beta=0.5), overlay)
    flat = FlowAwareEngine(frn, oracle=oracle, pruning="lemma4")
    scalar = FlowAwareEngine(frn, oracle=oracle, pruning="lemma4", kernel="scalar")
    edges = [(u, v) for u, v, _ in graph.edges()]
    queries = [
        FSPQuery(s, t, 0)
        for s, t in (
            (data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1)))
            for _ in range(3)
        )
    ]

    def absorb(u, v):
        weight = data.draw(st.integers(1, 40))
        if weight == graph.weight(u, v):
            weight += 1
        assert overlay.absorb(u, v, float(weight))

    def check():
        fresh = build_h2h(graph.copy())
        for s in range(n):
            for t in range(n):
                assert oracle.distance(s, t) == fresh.distance(s, t), (s, t)
        for query in queries:
            assert flat.query(query) == scalar.query(query), query

    for _ in range(data.draw(st.integers(1, 3))):
        absorb(*edges[data.draw(st.integers(0, len(edges) - 1))])
    check()
    flow_updates = {
        data.draw(st.integers(0, n - 1)): float(data.draw(st.integers(0, 200)))
        for _ in range(data.draw(st.integers(0, 2)))
    }
    task = ConsolidationTask(
        oracle.index, overlay, flow_updates=flow_updates,
        on_commit=lambda back: setattr(oracle, "index", back),
    )
    queued = sorted(overlay.edges)
    hit_queued = hit_commit = False
    while not task.done:
        task.step()
        check()
        if task.state == "commit":
            absorb(*edges[data.draw(st.integers(0, len(edges) - 1))])
            hit_commit = True
        elif task.state != "done" and not hit_queued:
            absorb(*queued[data.draw(st.integers(0, len(queued) - 1))])
            hit_queued = True
        elif task.state != "done" and data.draw(st.booleans()):
            absorb(*edges[data.draw(st.integers(0, len(edges) - 1))])
        else:
            continue
        check()
    assert task.committed and hit_queued and hit_commit
    assert oracle.index is task.back and task.back.graph is graph

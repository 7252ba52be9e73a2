"""Property test: the two-phase elimination game equals the frozen dict loop.

The production game hands its tail to a dense numpy phase once a bag
reaches ``DENSE_BAG`` entries.  On random graphs with dense cores (grids
plus random chords, integer, float and mixed weights drawn from small
pools so weights and φ values tie), both full builds and the windowed calls that
ISU/GSU make — resumed from ``replay_prefix`` at a random rank, over a
rank window or the whole suffix — must match ``tests/elimination_oracle``
exactly: the order, the φ bits, every bag's and middle map's items in dict
order (value types included), and the ordered working state left behind.

Each property runs with the threshold at 0 (dense from the first step), at
3 (a dict-loop prefix, then the handover) and at the module default.  Fixed
cases cover the cores the dense phase must hand back to the dict loop.
"""

from __future__ import annotations

import contextlib

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import obs
from repro.graph.road_network import RoadNetwork
from repro.treedec import elimination
from repro.treedec.elimination import eliminate, replay_prefix, run_elimination_steps
from repro.treedec.ordering import degree_flow_importance, degree_importance
from tests.elimination_oracle import oracle_eliminate, oracle_elimination_steps

THRESHOLDS = [0, 3, elimination.DENSE_BAG]

_INT_WEIGHTS = st.integers(1, 3)
# 0.1 + 0.2 != 0.3: sums that round differently by association order
_FLOAT_WEIGHTS = st.sampled_from([0.1, 0.2, 0.3, 0.5, 1.25]) | st.floats(0.01, 10.0)
# a live graph: int weights, some of them scaled by a float update factor
_MIXED_WEIGHTS = _INT_WEIGHTS | st.builds(
    lambda w, factor: w * factor, _INT_WEIGHTS, st.sampled_from([0.65, 1.1, 1.5])
)


@st.composite
def dense_core_graphs(draw) -> RoadNetwork:
    """A grid plus random chords, so the elimination's tail grows dense."""
    rows, cols = draw(st.integers(2, 7)), draw(st.integers(2, 7))
    n = rows * cols
    weight = draw(st.sampled_from([_INT_WEIGHTS, _FLOAT_WEIGHTS, _MIXED_WEIGHTS]))
    graph = RoadNetwork(n)
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                graph.add_edge(v, v + 1, draw(weight))
            if r + 1 < rows:
                graph.add_edge(v, v + cols, draw(weight))
    chords = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                           max_size=2 * n))
    for u, v in chords:
        if u != v:
            graph.add_edge(u, v, draw(weight))
    return graph


@st.composite
def importances(draw, graph: RoadNetwork):
    """H2H's degree importance or FAHL's Def.-7 φ over tie-prone flows."""
    if draw(st.booleans()):
        return degree_importance()
    flows = draw(st.lists(st.integers(0, 3), min_size=graph.num_vertices,
                          max_size=graph.num_vertices))
    beta = draw(st.sampled_from([0.0, 0.3, 0.5, 1.0]))
    anchors = draw(st.sampled_from([None, (1.0, 2.0)]))
    return degree_flow_importance(
        graph, np.asarray(flows, dtype=np.float64), beta=beta, anchors=anchors
    )


@contextlib.contextmanager
def _threshold(value: int):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(elimination, "DENSE_BAG", value)
        # these graphs are far below the production core-size floor
        patch.setattr(elimination, "DENSE_MIN_CORE", 0)
        yield


def _items(maps) -> list[list[tuple]]:
    """Dict items in order, with value types, so int 2 never equals 2.0."""
    return [[(key, type(value), value) for key, value in m.items()] for m in maps]


def _bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


@pytest.mark.parametrize("threshold", THRESHOLDS)
@given(data=st.data())
def test_full_build_matches_dict_loop(threshold, data):
    graph = data.draw(dense_core_graphs())
    importance = data.draw(importances(graph))
    expected = oracle_eliminate(graph, importance)
    with _threshold(threshold):
        got = eliminate(graph, importance)
    assert got.order == expected.order
    assert _bits(got.phi_at_elim) == _bits(expected.phi_at_elim)
    assert _items(got.bags) == _items(expected.bags)
    assert _items(got.middles) == _items(expected.middles)
    assert np.array_equal(got.rank, expected.rank)


@pytest.mark.parametrize("threshold", THRESHOLDS)
@given(data=st.data())
def test_windowed_calls_match_dict_loop(threshold, data):
    graph = data.draw(dense_core_graphs())
    result = oracle_eliminate(graph, data.draw(importances(graph)))
    n = graph.num_vertices
    r_lo = data.draw(st.integers(0, n - 1), label="r_lo")
    if data.draw(st.booleans(), label="gsu suffix"):
        r_hi = n - 1
    else:
        r_hi = data.draw(st.integers(r_lo, n - 1), label="r_hi")
    window = set(result.order[r_lo:r_hi + 1])
    # a flow update re-scores the window under new flows, as ISU/GSU do
    rescored = data.draw(importances(graph))

    adj, mids = replay_prefix(graph, result, r_lo)
    ref_adj = [dict(d) for d in adj]
    ref_mids = [dict(d) for d in mids]
    ref_order, ref_phi, ref_bags, ref_middles = oracle_elimination_steps(
        ref_adj, ref_mids, rescored, set(window)
    )
    with _threshold(threshold):
        order, phi, bags, middles = run_elimination_steps(adj, mids, rescored, window)

    assert order == ref_order
    assert _bits(phi) == _bits(ref_phi)
    assert list(bags) == list(ref_bags)
    assert _items(bags.values()) == _items(ref_bags.values())
    assert _items(middles.values()) == _items(ref_middles.values())
    # the frontier the window leaves behind, which ISU compares and GSU
    # resumes from, in dict order
    assert _items(adj) == _items(ref_adj)
    assert _items(mids) == _items(ref_mids)


def _grid(side: int, weight) -> RoadNetwork:
    graph = RoadNetwork(side * side)
    for r in range(side):
        for c in range(side):
            v = r * side + c
            if c + 1 < side:
                graph.add_edge(v, v + 1, weight(v))
            if r + 1 < side:
                graph.add_edge(v, v + side, weight(v))
    return graph


@pytest.mark.parametrize("weight", [
    # int sums past 2**53 would round in float64
    lambda v: 2**52 + v,
    # float sums that overflow to +inf, the dense phase's "no edge"
    lambda v: 1e308 - v * 1e292,
    # numpy scalars, whose sums keep their numpy type in the dict loop
    lambda v: np.float64(1 + v % 3),
    lambda v: np.int64(1 + v % 3),
], ids=["int-past-2**53", "float-overflow", "np.float64", "np.int64"])
def test_inexact_core_stays_in_dict_loop(weight):
    graph = _grid(5, weight)
    importance = degree_importance()
    expected = oracle_eliminate(graph, importance)
    registry = obs.MetricsRegistry(enabled=True)
    with _threshold(0), obs.capture_registry(registry):
        got = eliminate(graph, importance)
    assert registry.get("repro_build_dense_core_vertices") is None
    assert got.order == expected.order
    assert _bits(got.phi_at_elim) == _bits(expected.phi_at_elim)
    assert _items(got.bags) == _items(expected.bags)
    assert _items(got.middles) == _items(expected.middles)


def test_mixed_core_runs_dense_with_per_cell_types():
    # int weights with a few float factors applied, as after live updates
    graph = _grid(5, lambda v: 1 + v % 3 if v % 4 else (1 + v % 3) * 1.5)
    importance = degree_importance()
    expected = oracle_eliminate(graph, importance)
    registry = obs.MetricsRegistry(enabled=True)
    with _threshold(0), obs.capture_registry(registry):
        got = eliminate(graph, importance)
    assert registry.gauge("repro_build_dense_core_vertices").value() == 25
    assert _items(got.bags) == _items(expected.bags)
    assert _items(got.middles) == _items(expected.middles)
    assert {type(w) for bag in got.bags for w in bag.values()} == {int, float}

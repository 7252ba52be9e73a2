"""Property-based tests: the packed label store and the structured clone.

Every label write (full build, ILU, ISU, GSU, ``load_index``) ends in one
packed store whose slices are the per-vertex ``labels``/``vias`` views;
it is int32 exactly when every entry is a non-negative integer and twice
the largest fits in int32.  Random maintenance sequences on integer and
on half-integer weights (every sum of halves is exact in float64, so the
answers stay comparable bit for bit) check the store's layout and dtype,
rollback after an injected fault, a ``save_index``/``load_index`` round
trip and the three query kernels against Dijkstra.  A clone driven
through the same operations as a deepcopy must end with the deepcopy's
checksum and leave its original untouched.
"""

from __future__ import annotations

import copy
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import event, given
from hypothesis import strategies as st

from repro.baselines.dijkstra import dijkstra_distances
from repro.core.fahl import FAHLIndex
from repro.core.maintenance import (
    FAULT_POINTS,
    apply_flow_update,
    apply_weight_update,
)
from repro.errors import MaintenanceError
from repro.labeling.serialize import load_index, save_index
from repro.testing import FaultInjector
from tests.strategies import connected_graphs

_INT32_MAX = int(np.iinfo(np.int32).max)


def fits_int32(index) -> bool:
    values = np.concatenate([np.asarray(lbl, dtype=np.float64) for lbl in index.labels])
    return bool(
        np.all(values == np.floor(values))
        and values.min() >= 0
        and 2 * values.max() <= _INT32_MAX
    )


def assert_store(index) -> None:
    """One packed store, its views, and the dtype the values allow."""
    store, vias = index.label_values, index.via_values
    n = index.graph.num_vertices
    depth = index.tree.depth
    assert len(store) == int(index.label_offsets[n]) == int((depth + 1).sum())
    assert len(vias) == len(store) - n
    for v in range(n):
        assert len(index.labels[v]) == depth[v] + 1
        assert np.shares_memory(index.labels[v], store)
        assert len(index.vias[v]) == depth[v]
        if depth[v]:
            assert np.shares_memory(index.vias[v], vias)
    assert (store.dtype == np.int32) == fits_int32(index)
    assert store.dtype in (np.int32, np.float64)
    assert index.arena().label_values is store


def assert_exact(index) -> None:
    """Scalar, pairwise and many-target distances all equal Dijkstra."""
    graph = index.graph
    n = graph.num_vertices
    ref = np.asarray([dijkstra_distances(graph, s) for s in range(n)])
    us, vs = (a.ravel() for a in np.meshgrid(np.arange(n), np.arange(n)))
    assert np.array_equal(index.distance_many(us, vs), ref[us, vs])
    assert np.array_equal(index.distances_to_many(np.arange(n)), ref)
    for u in range(n):
        for v in range(n):
            assert index.distance(u, v) == ref[u, v], (u, v)


def assert_round_trip(index) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "index.npz"
        save_index(index, path)
        with np.load(path) as data:
            assert data["label_values"].dtype == np.float64
        loaded = load_index(path)
    assert loaded.label_values.dtype == index.label_values.dtype
    assert loaded.checksum() == index.checksum()
    assert_store(loaded)


def draw_weight(data, fractional: bool) -> float:
    weight = float(data.draw(st.integers(1, 30)))
    return weight + 0.5 if fractional else weight


def draw_operation(data, index, fractional: bool):
    """A random ILU/ISU/GSU call on ``index`` and its fault-point prefix."""
    n = index.graph.num_vertices
    kind = data.draw(st.sampled_from(["ilu", "isu", "gsu"]))
    if kind == "ilu":
        edges = sorted((u, v) for u, v, _ in index.graph.edges())
        u, v = edges[data.draw(st.integers(0, len(edges) - 1))]
        weight = draw_weight(data, fractional)
        return kind, lambda target: apply_weight_update(target, u, v, weight)
    vertex = data.draw(st.integers(0, n - 1))
    flow = float(data.draw(st.integers(0, 300)))
    return kind, lambda target: apply_flow_update(target, vertex, flow, method=kind)


def build(graph, data, fractional: bool) -> FAHLIndex:
    if fractional:
        for u, v, _ in list(graph.edges()):
            graph.set_weight(u, v, draw_weight(data, True))
    flows = [float(data.draw(st.integers(0, 100))) for _ in range(graph.num_vertices)]
    return FAHLIndex(graph, np.asarray(flows), beta=0.5)


@given(
    graph=connected_graphs(max_vertices=10),
    fractional=st.booleans(),
    data=st.data(),
)
def test_store_stays_packed_and_exact_under_maintenance(graph, fractional, data):
    index = build(graph, data, fractional)
    assert_store(index)
    assert_exact(index)
    for _ in range(data.draw(st.integers(1, 5))):
        kind, operation = draw_operation(data, index, fractional)
        if data.draw(st.booleans()):
            points = [p for p in FAULT_POINTS if p.startswith((kind, "flow"))]
            point = data.draw(st.sampled_from(points))
            store, checksum = index.label_values, index.checksum()
            with FaultInjector() as injector:
                injector.fail_at(point)
                try:
                    operation(index)
                    failed = False
                except MaintenanceError:
                    failed = True
            event(f"injected fault fired: {failed}")
            if failed:
                # the rollback restores the old store, views and all
                assert index.label_values is store
                assert index.checksum() == checksum
        else:
            operation(index)
        assert_store(index)
    event(f"store dtype: {index.label_values.dtype}")
    assert_exact(index)
    assert_round_trip(index)


@given(
    graph=connected_graphs(max_vertices=10),
    fractional=st.booleans(),
    data=st.data(),
)
def test_clone_matches_deepcopy_and_leaves_original(graph, fractional, data):
    index = build(graph, data, fractional)
    checksum = index.checksum()
    flows = index.flows.copy()
    weights = sorted(index.graph.edges())
    twin = index.clone()
    assert twin.label_values is index.label_values  # shared until repacked
    twin.graph = index.graph.copy()
    deep = copy.deepcopy(index)
    pristine = copy.deepcopy(index)
    for _ in range(data.draw(st.integers(1, 5))):
        _, operation = draw_operation(data, twin, fractional)
        operation(twin)
        operation(deep)
        assert twin.checksum() == deep.checksum()
    assert_store(twin)
    assert index.checksum() == checksum
    assert np.array_equal(index.flows, flows)
    assert sorted(index.graph.edges()) == weights
    assert_store(index)
    assert_exact(index)
    # the original's maintenance state is untouched too: its next update
    # lands where an untouched deepcopy's does
    _, operation = draw_operation(data, index, fractional)
    operation(index)
    operation(pristine)
    assert index.checksum() == pristine.checksum()
    assert_exact(index)

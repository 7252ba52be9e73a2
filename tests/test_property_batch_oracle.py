"""Property tests: vectorised batch-oracle paths equal their scalar loops.

The vectorised kernels (``EulerTourLCA.query_many``, the label arena behind
``HierarchyIndex.distance_many``) must agree with the scalar queries bit
for bit on any graph — on integral weights (int64 labels) and on
non-integral ones (float64 labels), and right after a maintenance operation
has invalidated the packed arena.
"""

from __future__ import annotations

import numpy as np
from hypothesis import assume, given
from hypothesis import strategies as st

from repro.core.fahl import FAHLIndex
from repro.core.maintenance import apply_flow_update, apply_weight_update
from repro.graph.road_network import RoadNetwork
from repro.labeling.h2h import build_h2h
from repro.treedec.elimination import eliminate
from repro.treedec.lca import EulerTourLCA
from repro.treedec.ordering import degree_importance
from repro.treedec.tree import TreeDecomposition
from tests.strategies import connected_graphs

# a live graph: int weights, some of them scaled by a float update factor
_FACTORS = st.sampled_from([1.0, 0.65, 1.1, 1.5])


def _all_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    return (
        np.repeat(np.arange(n, dtype=np.int64), n),
        np.tile(np.arange(n, dtype=np.int64), n),
    )


@given(graph=connected_graphs())
def test_distance_many_equals_scalar_loop(graph):
    index = build_h2h(graph)
    us, vs = _all_pairs(graph.num_vertices)
    got = index.distance_many(us, vs)
    for u, v, d in zip(us.tolist(), vs.tolist(), got.tolist()):
        assert d == index.distance(u, v), (u, v)


@given(graph=connected_graphs(), data=st.data())
def test_distance_many_on_float_labels_equals_scalar_loop(graph, data):
    """Non-integral labels pack as float64; both pair kernels stay exact."""
    mixed = RoadNetwork(graph.num_vertices)
    for u, v, w in graph.edges():
        mixed.add_edge(u, v, w * data.draw(_FACTORS))
    index = build_h2h(mixed)
    arena = index.arena()
    assume(not arena.quantized)
    assert arena.label_values.dtype == np.float64
    us, vs = _all_pairs(mixed.num_vertices)
    expected = [index.distance(u, v) for u, v in zip(us.tolist(), vs.tolist())]
    assert arena.pos_pad is not None
    for pos_pad in (arena.pos_pad, None):  # the dense kernel, then the ragged one
        arena.pos_pad = pos_pad
        got = index.distance_many(us, vs)
        assert got.dtype == np.float64
        assert got.tolist() == expected


@given(graph=connected_graphs(max_vertices=20))
def test_query_many_equals_scalar_loop(graph):
    tree = TreeDecomposition(eliminate(graph, degree_importance()))
    lca = EulerTourLCA(tree)
    us, vs = _all_pairs(graph.num_vertices)
    got = lca.query_many(us, vs)
    for u, v, h in zip(us.tolist(), vs.tolist(), got.tolist()):
        assert h == lca.query(u, v), (u, v)


@given(graph=connected_graphs(min_vertices=4), data=st.data())
def test_distance_many_exact_after_maintenance(graph, data):
    """The arena rebuilt after ILU/ISU/GSU answers like the scalar query."""
    n = graph.num_vertices
    flows = np.array(
        [data.draw(st.integers(0, 100)) for _ in range(n)], dtype=float
    )
    index = FAHLIndex(graph, flows, beta=0.5)
    us, vs = _all_pairs(n)
    index.distance_many(us, vs)  # pack the arena so maintenance must invalidate it
    stale_version = index.arena().version

    kind = data.draw(st.sampled_from(["ilu", "isu", "gsu"]))
    if kind == "ilu":
        edges = list(graph.edges())
        u, v, _ = edges[data.draw(st.integers(0, len(edges) - 1))]
        apply_weight_update(index, u, v, float(data.draw(st.integers(1, 40))))
    else:
        vertex = data.draw(st.integers(0, n - 1))
        new_flow = float(data.draw(st.integers(0, 500)))
        apply_flow_update(index, vertex, new_flow, method=kind)

    got = index.distance_many(us, vs)
    for u, v, d in zip(us.tolist(), vs.tolist(), got.tolist()):
        assert d == index.distance(u, v), (kind, u, v)
    # a no-op update may legitimately keep the version; any label rewrite bumps it
    assert index.arena().version >= stale_version

"""Hypothesis strategies for property-based tests."""

from __future__ import annotations

from hypothesis import strategies as st

from repro.graph.road_network import RoadNetwork


@st.composite
def connected_graphs(
    draw,
    min_vertices: int = 3,
    max_vertices: int = 16,
    max_weight: int = 20,
    extra_edge_factor: float = 1.0,
):
    """A random connected weighted graph (spanning tree + extra edges)."""
    n = draw(st.integers(min_vertices, max_vertices))
    graph = RoadNetwork(n)
    # random spanning tree: attach vertex i to a random earlier vertex
    for i in range(1, n):
        parent = draw(st.integers(0, i - 1))
        weight = draw(st.integers(1, max_weight))
        graph.add_edge(i, parent, float(weight))
    extra = draw(st.integers(0, max(0, int(n * extra_edge_factor))))
    for _ in range(extra):
        u = draw(st.integers(0, n - 1))
        v = draw(st.integers(0, n - 1))
        if u != v and not graph.has_edge(u, v):
            weight = draw(st.integers(1, max_weight))
            graph.add_edge(u, v, float(weight))
    return graph


@st.composite
def flow_vectors(draw, graph: RoadNetwork, max_flow: int = 100):
    """A per-vertex non-negative flow vector for ``graph``."""
    return [
        float(draw(st.integers(0, max_flow))) for _ in range(graph.num_vertices)
    ]


@st.composite
def chorded_grids(draw, max_side: int = 6, weights=None):
    """A grid of at most ``max_side²`` vertices with random diagonal chords.

    ``weights`` draws each edge weight; by default unit or small integer
    weights, so equal-length paths (ties), deviations that re-enter an
    earlier root and many simple paths within a small stretch abound.
    """
    if weights is None:
        weights = st.sampled_from((1, 2, 3)).flatmap(lambda m: st.integers(1, m))
    rows = draw(st.integers(2, max_side))
    cols = draw(st.integers(2, max_side))
    graph = RoadNetwork(rows * cols)
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                graph.add_edge(v, v + 1, float(draw(weights)))
            if r + 1 < rows:
                graph.add_edge(v, v + cols, float(draw(weights)))
            if r + 1 < rows and c + 1 < cols:
                chord = draw(st.sampled_from((None, "down", "up", None)))
                if chord == "down":
                    graph.add_edge(v, v + cols + 1, float(draw(weights)))
                elif chord == "up":
                    graph.add_edge(v + 1, v + cols, float(draw(weights)))
    return graph

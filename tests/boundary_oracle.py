"""Dijkstra oracle for the sharded gateway's global boundary table.

The gateway derives its boundary-to-boundary table from the shard-local
tables and the cut edges; the oracle here builds the same table the slow,
obviously-correct way — one full-graph Dijkstra per boundary vertex — so
tests can check the two agree after every mutation path.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import as_distance
from repro.baselines.dijkstra import dijkstra_distance, dijkstra_distances


def dijkstra_boundary_table(gateway) -> np.ndarray:
    """``(|B|, |B|)`` full-graph distances, boundary vertices in shard order."""
    graph = gateway.frn.graph
    ids = [v for shard_boundary in gateway.plan.boundary for v in shard_boundary]
    columns = np.asarray(ids, dtype=np.int64)
    return np.vstack([dijkstra_distances(graph, b)[columns] for b in ids])


def assert_boundary_exact(gateway, pairs: int = 40) -> None:
    """The table equals the oracle, and sampled answers equal Dijkstra."""
    np.testing.assert_allclose(
        gateway.boundary._table, dijkstra_boundary_table(gateway), rtol=1e-12
    )
    graph = gateway.frn.graph
    n = graph.num_vertices
    for i in range(pairs):
        u, v = (5 * i) % n, (11 * i + 3) % n
        assert as_distance(gateway.distance(u, v)) == pytest.approx(
            dijkstra_distance(graph, u, v), rel=1e-12
        )

"""Shared fixtures for the FAHL reproduction test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from repro.flow.synthetic import generate_flow_series
from repro.graph.frn import FlowAwareRoadNetwork
from repro.graph.generators import grid_network
from repro.graph.road_network import RoadNetwork

# keep hypothesis fast and deterministic in CI-style runs
settings.register_profile(
    "repro",
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
# the exactness suites' longer CI run: --hypothesis-profile=deep
settings.register_profile("deep", settings.get_profile("repro"), max_examples=300)
settings.load_profile("repro")


@pytest.fixture()
def triangle_graph() -> RoadNetwork:
    """3 vertices, 3 edges — the smallest cyclic graph."""
    return RoadNetwork(3, edges=[(0, 1, 1.0), (1, 2, 2.0), (0, 2, 4.0)])


@pytest.fixture()
def paper_like_graph() -> RoadNetwork:
    """A 6-vertex graph shaped like the paper's Fig. 2(a) running example."""
    edges = [
        (0, 1, 1.0),  # v1 - v2
        (0, 5, 3.0),  # v1 - v6
        (1, 2, 1.0),  # v2 - v3
        (2, 3, 1.0),  # v3 - v4
        (2, 5, 2.0),  # v3 - v6
        (3, 0, 1.0),  # v4 - v1
        (4, 5, 2.0),  # v5 - v6
        (4, 0, 3.0),  # v5 - v1
    ]
    return RoadNetwork(6, edges=edges)


@pytest.fixture()
def small_grid() -> RoadNetwork:
    """A perturbed 6x6 grid (deterministic)."""
    return grid_network(6, 6, seed=42)


@pytest.fixture()
def medium_grid() -> RoadNetwork:
    """A perturbed 10x10 grid (deterministic)."""
    return grid_network(10, 10, seed=7)


@pytest.fixture()
def small_frn(small_grid: RoadNetwork) -> FlowAwareRoadNetwork:
    """FRN over the small grid with 2 days of hourly synthetic flow."""
    flow = generate_flow_series(small_grid, days=2, seed=3)
    return FlowAwareRoadNetwork(small_grid, flow)


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)

"""The flat kernel's spur certificate answers exactly what A* would.

A spur search whose cheapest allowed first hop is a strict minimum, and
whose tail of tight hops on ``h`` is unique at every vertex and avoids
the root, has a unique restricted shortest path; the certificate
returns it without running A*.  These tests pin that claim against
``_astar`` on tie-rich integer graphs, and check that the certificate
stays off (the stream unchanged) whenever a weight is not integral.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.core.fahl import FAHLIndex
from repro.core.flatq import FlatQueryKernel
from repro.core.fpsps import FlowAwareEngine
from repro.core.fspq import FSPQuery
from repro.core.overlay import DeltaOverlay, OverlayOracle
from repro.flow.series import FlowSeries
from repro.flow.synthetic import generate_flow_series
from repro.graph.frn import FlowAwareRoadNetwork
from repro.graph.generators import grid_network
from repro.graph.road_network import RoadNetwork
from tests.strategies import connected_graphs


def _kernel(graph: RoadNetwork) -> FlatQueryKernel:
    flows = np.zeros(graph.num_vertices)
    frn = FlowAwareRoadNetwork(graph, FlowSeries(flows[None, :]))
    engine = FlowAwareEngine(frn, oracle=FAHLIndex(graph, flows, beta=0.5))
    return engine._flat_kernel()


def _random_root(kernel, spur: int, target: int, rng: random.Random) -> tuple:
    """A simple walk ending at ``spur`` that avoids ``target``."""
    root = [spur]
    for _ in range(rng.randrange(4)):
        options = [
            v for v, _, _ in kernel.adj[root[0]]
            if v != target and v not in root
        ]
        if not options:
            break
        root.insert(0, rng.choice(options))
    return tuple(root)


def test_certified_spurs_equal_astar():
    outcomes: Counter = Counter()

    # weights up to 20 as elsewhere, and up to 3 so that equal-cost paths
    # (the case the certificate must refuse) are everywhere
    graphs = st.sampled_from((3, 20)).flatmap(
        lambda w: connected_graphs(max_vertices=12, max_weight=w)
    )

    @given(graph=graphs, seed=st.integers(0, 2**16))
    def check(graph, seed):
        kernel = _kernel(graph)
        rng = random.Random(seed)
        n = graph.num_vertices
        for spur, target in itertools.permutations(range(n), 2):
            root = _random_root(kernel, spur, target, rng)
            rootset = set(root[:-1])
            # Yen bans edges out of the spur vertex only
            banned = set(
                e for _, _, e in kernel.adj[spur] if rng.random() < 0.3
            )
            h = kernel.h_to(target)
            cost, first = kernel._spur_lookahead(spur, rootset, banned, h)
            if first < 0:
                outcomes["tie or dead end"] += 1
                continue
            hit = kernel._certify_spur(spur, first, cost, rootset, h, target)
            if hit is None:
                outcomes["rejected"] += 1
                continue
            outcomes["certified"] += 1
            assert hit == kernel._astar(
                spur, target, h, rootset, banned, math.inf
            ), (root, sorted(banned))

    check()
    # both the accept branch and each fallback branch fired
    assert outcomes["certified"] and outcomes["rejected"], outcomes
    assert outcomes["tie or dead end"], outcomes


def _engines(frn, oracle):
    return tuple(
        FlowAwareEngine(frn, oracle=oracle, kernel=kernel, max_candidates=16)
        for kernel in ("flat", "scalar")
    )


def _queries(n: int, count: int = 12) -> list[FSPQuery]:
    rng = np.random.default_rng(5)
    pairs = rng.integers(0, n, size=(count, 2))
    return [FSPQuery(int(s), int(t), 0) for s, t in pairs if s != t]


def _frn(graph: RoadNetwork) -> FlowAwareRoadNetwork:
    return FlowAwareRoadNetwork(graph, generate_flow_series(graph, days=1, seed=2))


def test_float_weights_certify_nothing_and_match_scalar():
    graph = grid_network(7, 7, seed=11)
    for u, v, w in list(graph.edges()):
        graph.set_weight(u, v, w + 0.25)
    frn = _frn(graph)
    flat, scalar = _engines(frn, FAHLIndex.from_frn(frn, beta=0.5))
    for query in _queries(graph.num_vertices):
        assert flat.query(query) == scalar.query(query)
    stats = flat._flat_kernel().stats
    assert stats["spur_certified"] == 0
    assert stats["astar_runs"] > len(_queries(graph.num_vertices))


def test_non_integral_overlay_weight_turns_certificates_off():
    graph = grid_network(7, 7, seed=11)
    frn = _frn(graph)
    overlay = DeltaOverlay(graph)
    oracle = OverlayOracle(FAHLIndex.from_frn(frn, beta=0.5), overlay)
    flat, scalar = _engines(frn, oracle)
    queries = _queries(graph.num_vertices)

    def certified_while_answering() -> int:
        kernel = flat._flat_kernel()
        before = kernel.stats["spur_certified"]
        for query in queries:
            assert flat.query(query) == scalar.query(query)
        return kernel.stats["spur_certified"] - before

    assert certified_while_answering() > 0
    kernel = flat._flat_kernel()
    u, v, w = next(iter(graph.edges()))
    overlay.absorb(u, v, w * 1.5 + 0.1)
    # the absorb set a live weight: the next query runs on a rebuilt kernel
    assert flat._flat_kernel() is not kernel
    assert certified_while_answering() == 0
    overlay.absorb(u, v, w + 3)
    assert certified_while_answering() > 0


def test_explain_reports_certified_and_searched_spurs():
    frn = _frn(grid_network(7, 7, seed=11))
    engine = FlowAwareEngine(frn, oracle=FAHLIndex.from_frn(frn, beta=0.5))
    explains = [engine.explain(q.source, q.target) for q in _queries(49)]
    assert sum(e.spur_certified for e in explains) > 0
    line = next(
        ln for ln in explains[0].render().splitlines() if "flat kernel" in ln
    )
    assert f"{explains[0].spur_searches} spur searches" in line
    assert f"{explains[0].spur_certified} certified)" in line

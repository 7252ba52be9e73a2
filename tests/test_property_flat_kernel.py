"""Property-based tests: the flat kernel is bit-identical to scalar.

On integer-weight graphs (every ``connected_graphs`` draw) the flat
kernel must return *exactly* the same ``FSPResult`` as the scalar
reference — dataclass equality, so every float compares bitwise — for
every pruning mode, and it must stay identical immediately after
ILU / ISU / GSU maintenance (the kernel's precomputed state has to be
invalidated by the label-version bump alone, with no explicit reset).
Below the answers, the kernel's raw ``(path, distance)`` stream must
equal scalar Yen's under every pull budget, on tie-rich chorded grids,
also on a kernel whose earlier streams were closed early; and every spur
a stream creates is counted exactly once, as an A* run, a certified spur
or a skip.
"""

from __future__ import annotations

import itertools
from collections import Counter

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.core.fahl import FAHLIndex
from repro.core.flatq import FlatQueryKernel
from repro.core.fpsps import PRUNING_MODES, FlowAwareEngine
from repro.core.fspq import FSPQuery
from repro.core.maintenance import apply_flow_update, apply_weight_update
from repro.errors import QueryError
from repro.flow.series import FlowSeries
from repro.graph.frn import FlowAwareRoadNetwork
from repro.graph.road_network import RoadNetwork
from repro.paths.astar_search import OracleHeuristic
from repro.paths.yen import iter_shortest_paths
from tests.strategies import chorded_grids, connected_graphs


def _engines(frn, index, pruning, max_candidates=16):
    return tuple(
        FlowAwareEngine(
            frn,
            oracle=index,
            pruning=pruning,
            kernel=kernel,
            max_candidates=max_candidates,
        )
        for kernel in ("flat", "scalar")
    )


def _answer(engine, query):
    try:
        return engine.query(query)
    except QueryError as exc:
        return ("QueryError", str(exc))


def _assert_identical(flat, scalar, graph, data, queries=4):
    n = graph.num_vertices
    for _ in range(queries):
        s = data.draw(st.integers(0, n - 1))
        t = data.draw(st.integers(0, n - 1))
        if s == t:
            continue
        query = FSPQuery(s, t, 0)
        assert _answer(flat, query) == _answer(scalar, query), (s, t)


@given(graph=connected_graphs(max_vertices=10), data=st.data())
def test_flat_bit_identical_to_scalar(graph, data):
    n = graph.num_vertices
    flows = np.array([data.draw(st.integers(0, 80)) for _ in range(n)],
                     dtype=float)
    frn = FlowAwareRoadNetwork(graph, FlowSeries(flows[None, :]))
    index = FAHLIndex(graph, flows, beta=0.5)
    pruning = data.draw(st.sampled_from(PRUNING_MODES))
    flat, scalar = _engines(frn, index, pruning)
    _assert_identical(flat, scalar, graph, data)


@given(graph=connected_graphs(max_vertices=10), data=st.data())
def test_flat_bit_identical_after_maintenance(graph, data):
    """ILU/ISU/GSU must invalidate the kernel's precomputed state."""
    n = graph.num_vertices
    flows = np.array([data.draw(st.integers(0, 80)) for _ in range(n)],
                     dtype=float)
    frn = FlowAwareRoadNetwork(graph, FlowSeries(flows[None, :]))
    index = FAHLIndex(graph, flows, beta=0.5)
    pruning = data.draw(st.sampled_from(PRUNING_MODES))
    flat, scalar = _engines(frn, index, pruning)
    # warm the kernel so maintenance has stale state to invalidate
    _assert_identical(flat, scalar, graph, data, queries=2)

    edges = list(graph.edges())
    for _ in range(data.draw(st.integers(1, 3))):
        kind = data.draw(st.sampled_from(["ilu", "isu", "gsu"]))
        if kind == "ilu":
            u, v, _ = edges[data.draw(st.integers(0, len(edges) - 1))]
            apply_weight_update(
                index, u, v, float(data.draw(st.integers(1, 40)))
            )
        else:
            vertex = data.draw(st.integers(0, n - 1))
            apply_flow_update(
                index, vertex, float(data.draw(st.integers(0, 160))),
                method=kind,
            )
        # immediately after each update: still bit-identical, with no
        # explicit invalidate() on either engine
        _assert_identical(flat, scalar, graph, data, queries=2)


@given(graph=connected_graphs(max_vertices=9), data=st.data())
def test_flat_truncation_flags_identical(graph, data):
    """Tiny budgets: truncated/early_stopped flags must agree too."""
    n = graph.num_vertices
    flows = np.array([data.draw(st.integers(0, 80)) for _ in range(n)],
                     dtype=float)
    frn = FlowAwareRoadNetwork(graph, FlowSeries(flows[None, :]))
    index = FAHLIndex(graph, flows, beta=0.5)
    pruning = data.draw(st.sampled_from(PRUNING_MODES))
    flat, scalar = _engines(frn, index, pruning, max_candidates=2)
    flat.min_candidates = scalar.min_candidates = 1
    _assert_identical(flat, scalar, graph, data, queries=6)


#: paths compared when the kernel runs without a pull budget
_UNBUDGETED_PULLS = 40
#: non-integral weights: certificates off, lookahead keys shrunk
_FLOAT_WEIGHTS = st.sampled_from((0.1, 0.2, 0.3, 0.7, 1.1))


def _kernel(graph):
    """A zero-flow FAHL index of ``graph`` and a flat kernel over it."""
    flows = np.zeros(graph.num_vertices)
    index = FAHLIndex(graph, flows, beta=0.5)
    frn = FlowAwareRoadNetwork(graph, FlowSeries(flows[None, :]))
    return index, FlatQueryKernel(index, frn)


def _stream_counts(graphs) -> Counter:
    """Compare raw streams on ``graphs`` draws; sum the kernel's stats."""
    counts: Counter = Counter()

    @given(graph=graphs, data=st.data())
    def check(graph, data):
        n = graph.num_vertices
        index, kernel = _kernel(graph)
        for _ in range(3):
            s = data.draw(st.integers(0, n - 1))
            t = data.draw(st.integers(0, n - 1))
            if s == t:
                continue
            pulls = data.draw(st.one_of(st.none(), st.integers(1, 10)))
            stretch = data.draw(st.sampled_from((1.0, 1.25, 1.5, 2.0, 3.0)))
            bound = stretch * index.distance(s, t)
            cut = _UNBUDGETED_PULLS if pulls is None else pulls
            # a budgeted stream is ``pulls`` paths, then closed: while it
            # is open only distance skips count; closing it counts the
            # spurs it left postponed, never searched
            before = kernel.stats["spur_skips"]
            stream = kernel.iter_paths(s, t, bound)
            flat = list(itertools.islice(stream, cut))
            opened = kernel.stats["spur_skips"]
            stream.close()
            scalar = list(itertools.islice(
                iter_shortest_paths(
                    graph, s, t, OracleHeuristic(index, t), bound
                ),
                cut,
            ))
            assert flat == scalar, (s, t, pulls, bound)
            # the kernel has no duplicate check: none may be queued
            assert len({tuple(p) for p, _ in flat}) == len(flat)
            if pulls is not None:
                counts["distance_skips"] += opened - before
                counts["postponed"] += kernel.stats["spur_skips"] - opened
        counts.update(kernel.stats)

    check()
    return counts


def test_raw_stream_identical_under_pull_budgets():
    """Integer weights: every skip and certificate path is exercised."""
    counts = _stream_counts(chorded_grids())
    # postponed spurs, distance skips and certificates all fired
    assert counts["postponed"] > 0, counts
    assert counts["distance_skips"] > 0, counts
    assert counts["spur_certified"] > 0, counts
    assert counts["astar_runs"] > 0, counts
    assert counts["spur_memo_hits"] == 0, counts


def test_raw_stream_identical_with_float_weights():
    """Non-integral weights: certificates off, A* answers every spur."""
    counts = _stream_counts(chorded_grids(max_side=5, weights=_FLOAT_WEIGHTS))
    assert counts["spur_certified"] == 0, counts
    # the 6-vertex case below pins the float rounding of postponed keys
    assert counts["spur_skips"] > 0, counts


def test_budget_skip_allows_for_float_rounding():
    """A postponed spur's key must not round above its candidate's total.

    The second path 3-4-1-2-5 totals 1.1 + 1.5 = 2.6, while its spur's
    lookahead bound and the queued 3-0-1-2-5 both read 2.6000000000000005.
    Keyed at face value, the spur would wait behind 3-0-1-2-5 (created
    earlier, so first on the tie) and the 2.6 path would pop late; the
    key is the bound shrunk by its float rounding error.
    """
    graph = RoadNetwork(6, edges=[
        (0, 1, 0.3), (0, 3, 1.1), (1, 2, 0.1), (1, 4, 0.3),
        (2, 5, 1.1), (3, 4, 1.1), (4, 5, 1.1),
    ])
    index, kernel = _kernel(graph)
    bound = 1.25 * index.distance(3, 5)
    scalar = list(itertools.islice(
        iter_shortest_paths(graph, 3, 5, OracleHeuristic(index, 5), bound), 2
    ))
    assert scalar[1][0] == [3, 4, 1, 2, 5]
    stream = kernel.iter_paths(3, 5, bound)
    assert list(itertools.islice(stream, 2)) == scalar
    stream.close()


def _chorded_grids_any_weights():
    """Chorded grids with integral weights or with float weights."""
    return st.one_of(
        chorded_grids(), chorded_grids(max_side=5, weights=_FLOAT_WEIGHTS)
    )


def _deviation_index(path: list[int], earlier: list[list[int]]) -> int:
    """Where ``path`` left the paths yielded before it (Lawler's order)."""
    shared = 0
    for other in earlier:
        common = 0
        for a, b in zip(path, other):
            if a != b:
                break
            common += 1
        shared = max(shared, common)
    return max(shared - 1, 0)


def _spur_work(stats: dict) -> int:
    return stats["astar_runs"] + stats["spur_certified"] + stats["spur_skips"]


def test_one_pull_runs_one_astar_and_no_spur_work():
    graph = RoadNetwork(4, edges=[(0, 1, 1.0), (1, 3, 1.0), (0, 2, 1.0), (2, 3, 2.0)])
    index, kernel = _kernel(graph)
    bound = 3.0 * index.distance(0, 3)
    stream = kernel.iter_paths(0, 3, bound)
    assert next(stream) == ([0, 1, 3], 2.0)
    stream.close()
    assert kernel.stats["astar_runs"] == 1
    assert kernel.stats["spur_certified"] == kernel.stats["spur_skips"] == 0
    # the spurs exist: a second pull searches one and finds the other path
    assert list(kernel.iter_paths(0, 3, bound)) == [([0, 1, 3], 2.0), ([0, 2, 3], 3.0)]


@given(graph=_chorded_grids_any_weights(), data=st.data())
def test_streams_after_an_early_close_equal_scalar(graph, data):
    """A stream closed after k pulls leaves the kernel's state reusable."""
    n = graph.num_vertices
    index, kernel = _kernel(graph)
    for _ in range(3):
        s = data.draw(st.integers(0, n - 1))
        t = data.draw(st.integers(0, n - 1))
        if s == t:
            continue
        bound = data.draw(st.sampled_from((1.25, 2.0, 3.0))) * index.distance(s, t)
        scalar = list(itertools.islice(
            iter_shortest_paths(graph, s, t, OracleHeuristic(index, t), bound),
            _UNBUDGETED_PULLS,
        ))
        # interrupt a stream with spurs still postponed
        pulls = data.draw(st.integers(1, 4))
        stream = kernel.iter_paths(s, t, bound)
        assert list(itertools.islice(stream, pulls)) == scalar[:pulls]
        stream.close()
        # fresh streams on the same kernel start from a clean state
        assert list(itertools.islice(
            kernel.iter_paths(s, t, bound), _UNBUDGETED_PULLS
        )) == scalar
        other = data.draw(st.integers(0, n - 1))
        if other != t:
            bound = 2.0 * index.distance(other, t)
            assert list(itertools.islice(
                kernel.iter_paths(other, t, bound), _UNBUDGETED_PULLS
            )) == list(itertools.islice(
                iter_shortest_paths(graph, other, t, OracleHeuristic(index, t), bound),
                _UNBUDGETED_PULLS,
            ))


@given(graph=_chorded_grids_any_weights(), data=st.data())
def test_every_spur_counted_exactly_once(graph, data):
    """A* runs + certified spurs + skips = 1 + the spurs of expanded paths.

    A path is expanded when the stream is resumed after yielding it; its
    spurs run from where it left the paths yielded before it to its
    second-to-last vertex.
    """
    n = graph.num_vertices
    index, kernel = _kernel(graph)
    for _ in range(3):
        s = data.draw(st.integers(0, n - 1))
        t = data.draw(st.integers(0, n - 1))
        if s == t:
            continue
        bound = data.draw(st.sampled_from((1.0, 1.5, 3.0))) * index.distance(s, t)
        pulls = data.draw(st.integers(1, 12))
        before = _spur_work(kernel.stats)
        stream = kernel.iter_paths(s, t, bound)
        paths = [p for p, _ in itertools.islice(stream, pulls)]
        stream.close()
        # the last path pulled was never resumed, unless the stream ran dry
        expanded = paths if len(paths) < pulls else paths[:-1]
        spurs = sum(
            len(p) - 1 - _deviation_index(p, paths[:j])
            for j, p in enumerate(expanded)
        )
        assert _spur_work(kernel.stats) - before == 1 + spurs, (s, t, pulls)

"""Flat (vectorised) FSPQ kernel: parity, invalidation, quantisation, obs.

The flat kernel (``repro.core.flatq``) must be *bit-identical* to the
scalar reference path — every test here compares full ``FSPResult``
equality (dataclass ``==``, i.e. exact float equality), not approximate
scores.  Also covers the satellites that ride along with the kernel:
the quantised label arena, ``hub_cutset``/``distances_to`` primitives,
vectorised Lemma-4 bounds, the latency-summary helpers, the DIMACS
dataset loader, and deprecation-warning caller attribution.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.core.bounds import adaptive_prune_mask, lemma4_bounds
from repro.core.fahl import FAHLIndex, build_fahl
from repro.core.flatq import FlatQueryKernel
from repro.core.fpsps import KERNEL_MODES, PRUNING_MODES, FlowAwareEngine
from repro.core.fspq import FSPQuery
from repro.core.maintenance import apply_flow_update, apply_weight_update
from repro.errors import DatasetFormatError, QueryError
from repro.flow.series import FlowSeries
from repro.graph.dimacs import write_gr
from repro.graph.frn import FlowAwareRoadNetwork
from repro.graph.generators import grid_network
from repro.graph.road_network import RoadNetwork
from repro.obs.export import lint_prometheus, render_prometheus
from repro.serving.engine import ResilientEngine
from repro.workloads.datasets import DIMACS_PREFIX, load_dataset


@pytest.fixture()
def grid_frn() -> FlowAwareRoadNetwork:
    """A 4x4 integer-weight grid with one deterministic flow snapshot."""
    graph = grid_network(4, 4, seed=9)
    rng = np.random.default_rng(5)
    flow = FlowSeries(rng.integers(0, 60, size=(3, 16)).astype(float))
    return FlowAwareRoadNetwork(graph, flow)


@pytest.fixture()
def grid_index(grid_frn) -> FAHLIndex:
    return build_fahl(grid_frn)


def all_queries(frn, timesteps=(0,)):
    n = frn.num_vertices
    return [
        FSPQuery(s, t, ts)
        for ts in timesteps
        for s in range(n)
        for t in range(n)
        if s != t
    ]


def answers(engine, queries):
    out = []
    for query in queries:
        try:
            out.append(engine.query(query))
        except QueryError as exc:
            out.append(str(exc))
    return out


# ----------------------------------------------------------------------
# kernel knob
# ----------------------------------------------------------------------
class TestKernelKnob:
    def test_flat_is_default(self, grid_frn):
        assert FlowAwareEngine(grid_frn).kernel == "flat"

    def test_scalar_selectable(self, grid_frn, grid_index):
        engine = FlowAwareEngine(grid_frn, oracle=grid_index, kernel="scalar")
        assert engine.kernel == "scalar"
        assert engine._flat_kernel() is None
        # and it still answers queries (the reference path)
        assert engine.query(FSPQuery(0, 15, 0)).path

    def test_rejects_unknown_kernel(self, grid_frn):
        with pytest.raises(QueryError, match="kernel"):
            FlowAwareEngine(grid_frn, kernel="simd")

    def test_kernel_modes_constant(self):
        assert KERNEL_MODES == ("flat", "scalar")

    def test_flat_engages_on_hierarchy_oracle(self, grid_frn, grid_index):
        engine = FlowAwareEngine(grid_frn, oracle=grid_index)
        assert isinstance(engine._flat_kernel(), FlatQueryKernel)

    def test_flat_disengages_without_oracle(self, grid_frn):
        assert FlowAwareEngine(grid_frn, oracle=None)._flat_kernel() is None

    def test_flat_disengages_when_exhaustive(self, grid_frn, grid_index):
        engine = FlowAwareEngine(grid_frn, oracle=grid_index, exhaustive=True)
        assert engine._flat_kernel() is None


# ----------------------------------------------------------------------
# bit-identical parity with the scalar reference
# ----------------------------------------------------------------------
class TestParity:
    @pytest.mark.parametrize("pruning", PRUNING_MODES)
    def test_bit_identical_all_pairs(self, grid_frn, grid_index, pruning):
        flat = FlowAwareEngine(
            grid_frn, oracle=grid_index, pruning=pruning, kernel="flat"
        )
        scalar = FlowAwareEngine(
            grid_frn, oracle=grid_index, pruning=pruning, kernel="scalar"
        )
        queries = all_queries(grid_frn, timesteps=(0, 2))
        assert answers(flat, queries) == answers(scalar, queries)

    @pytest.mark.parametrize("pruning", PRUNING_MODES)
    def test_bit_identical_under_truncation(self, grid_frn, grid_index, pruning):
        """A tiny candidate budget exercises truncated/early-stop flags."""
        flat = FlowAwareEngine(
            grid_frn, oracle=grid_index, pruning=pruning, kernel="flat",
            max_candidates=2, min_candidates=1,
        )
        scalar = FlowAwareEngine(
            grid_frn, oracle=grid_index, pruning=pruning, kernel="scalar",
            max_candidates=2, min_candidates=1,
        )
        queries = all_queries(grid_frn)
        got = answers(flat, queries)
        assert got == answers(scalar, queries)
        if pruning == "none":
            # the eager collector marks overflow; lazy modes may stop
            # early (score dominance) without overflowing the budget
            assert any(r.truncated for r in got if not isinstance(r, str))

    def test_shortest_distance_via_kernel(self, grid_frn, grid_index):
        engine = FlowAwareEngine(grid_frn, oracle=grid_index)
        for s in range(grid_frn.num_vertices):
            assert engine.shortest_distance(s, 11) == grid_index.distance(s, 11)


# ----------------------------------------------------------------------
# invalidation: maintenance, explicit invalidate(), oracle swap
# ----------------------------------------------------------------------
class TestInvalidation:
    def test_invalidate_drops_tables_keeps_rows(self, grid_frn, grid_index):
        engine = FlowAwareEngine(grid_frn, oracle=grid_index)
        engine.query(FSPQuery(0, 15, 0))
        kern = engine._flat_kernel_cache
        assert kern is not None and kern._h_cache
        adj = kern.adj
        engine.invalidate()
        assert engine._flat_kernel_cache is kern
        assert not kern._h_cache and not kern._pending
        assert kern.adj is adj
        before = dict(kern.stats)
        engine.query(FSPQuery(0, 15, 0))
        assert engine._flat_kernel_cache is kern
        assert kern.stats["heuristic_builds"] > before["heuristic_builds"]

    def test_weight_update_resets_kernel_state(self, grid_frn, grid_index):
        engine = FlowAwareEngine(grid_frn, oracle=grid_index)
        before = engine.query(FSPQuery(0, 15, 0))
        assert before is not None
        u, v, w = next(iter(grid_frn.graph.edges()))
        apply_weight_update(grid_index, u, v, float(w) * 3)
        # no explicit invalidate(): the kernel must notice the label
        # version bump on its own and rebuild
        scalar = FlowAwareEngine(
            grid_frn, oracle=grid_index, kernel="scalar"
        )
        queries = all_queries(grid_frn)
        assert answers(engine, queries) == answers(scalar, queries)

    def test_flow_update_resets_kernel_state(self, grid_frn, grid_index):
        engine = FlowAwareEngine(grid_frn, oracle=grid_index)
        engine.query(FSPQuery(0, 15, 0))
        apply_flow_update(grid_index, 5, 500.0, method="gsu")
        scalar = FlowAwareEngine(grid_frn, oracle=grid_index, kernel="scalar")
        queries = all_queries(grid_frn)
        assert answers(engine, queries) == answers(scalar, queries)

    def test_label_preserving_weight_update_resets_kernel(self):
        # an ILU that raises an off-shortest-path edge weight changes NO
        # label (so label_version never bumps) yet still invalidates the
        # kernel's cached adjacency: found by the maintenance property
        # test, pinned here.  Edge (0,5) is off every shortest path after
        # the raise, but path (0,5,4) sat exactly on the eta_u candidate
        # bound before it.
        graph = RoadNetwork(6)
        for u, v, w in [(1, 0, 8.0), (2, 1, 10.0), (3, 1, 3.0),
                        (4, 0, 3.0), (5, 4, 1.0), (0, 5, 8.0)]:
            graph.add_edge(u, v, w)
        flows = np.array([32.0, 78.0, 24.0, 8.0, 70.0, 54.0])
        frn = FlowAwareRoadNetwork(graph, FlowSeries(flows[None, :]))
        index = FAHLIndex(graph, flows, beta=0.5)
        flat = FlowAwareEngine(frn, oracle=index, pruning="none")
        scalar = FlowAwareEngine(
            frn, oracle=index, pruning="none", kernel="scalar"
        )
        queries = all_queries(frn)
        assert answers(flat, queries) == answers(scalar, queries)  # warm
        version_before = index.label_version
        apply_weight_update(index, 0, 5, 12.0)
        assert index.label_version == version_before  # the trap: no bump
        assert answers(flat, queries) == answers(scalar, queries)

    def test_oracle_swap_rebinds_kernel(self, grid_frn, grid_index):
        engine = FlowAwareEngine(grid_frn, oracle=grid_index)
        engine.query(FSPQuery(0, 15, 0))
        kern = engine._flat_kernel_cache
        adj = kern.adj
        engine.oracle = build_fahl(grid_frn)
        engine.query(FSPQuery(0, 15, 0))
        # same graph, so the rows stay; the tables are the new oracle's
        assert engine._flat_kernel_cache is kern
        assert kern.adj is adj
        assert kern.index is engine.oracle
        assert kern.version == engine.oracle.label_version
        assert set(kern._h_cache) == {15}

    def test_graph_change_rebuilds_kernel(self, grid_frn, grid_index):
        engine = FlowAwareEngine(grid_frn, oracle=grid_index)
        engine.query(FSPQuery(0, 15, 0))
        first = engine._flat_kernel_cache
        u, v, w = next(iter(grid_frn.graph.edges()))
        apply_weight_update(grid_index, u, v, float(w) * 3)
        engine.query(FSPQuery(0, 15, 0))
        second = engine._flat_kernel_cache
        assert second is not first
        assert second.graph_version == grid_frn.graph.mutation_version


# ----------------------------------------------------------------------
# quantised label arena
# ----------------------------------------------------------------------
class TestQuantisedArena:
    def test_integer_weights_quantise(self, grid_index):
        arena = grid_index.arena()
        assert arena.quantized
        assert arena.label_values.dtype == np.int32

    def test_quantised_distances_exact(self, grid_frn, grid_index):
        n = grid_frn.num_vertices
        us, vs = np.meshgrid(np.arange(n), np.arange(n))
        us, vs = us.ravel(), vs.ravel()
        got = grid_index.distance_many(us, vs)
        expected = np.asarray(
            [grid_index.distance(int(u), int(v)) for u, v in zip(us, vs)]
        )
        assert np.array_equal(got, expected)

    def test_fractional_weights_fall_back(self):
        graph = RoadNetwork(
            3, edges=[(0, 1, 1.5), (1, 2, 2.0), (0, 2, 4.0)]
        )
        index = FAHLIndex(graph, np.zeros(3), beta=0.5)
        arena = index.arena()
        assert not arena.quantized
        assert arena.label_values.dtype == np.float64
        # the float path still answers exactly
        assert index.distance(0, 2) == 3.5

    def test_fractional_weights_flat_parity(self):
        """Non-quantisable graphs still go through the flat kernel."""
        graph = RoadNetwork(
            4, edges=[(0, 1, 1.25), (1, 3, 1.0), (0, 2, 2.5), (2, 3, 2.0)]
        )
        frn = FlowAwareRoadNetwork(
            graph, FlowSeries(np.array([[5.0, 100.0, 1.0, 5.0]]))
        )
        index = build_fahl(frn)
        flat = FlowAwareEngine(frn, oracle=index, kernel="flat")
        scalar = FlowAwareEngine(frn, oracle=index, kernel="scalar")
        queries = all_queries(frn)
        assert answers(flat, queries) == answers(scalar, queries)


# ----------------------------------------------------------------------
# vectorised Lemma-4 bounds
# ----------------------------------------------------------------------
class TestVectorisedBounds:
    def test_prunes_many_matches_scalar(self, rng):
        bounds = lemma4_bounds(10.0, 90.0, alpha=0.4, eta_u=2.0)
        flows = rng.uniform(-20, 200, size=257)
        mask = bounds.prunes_many(flows)
        assert mask.dtype == np.bool_
        assert mask.tolist() == [bounds.prunes(f) for f in flows]

    def test_adaptive_mask_matches_incumbent_loop(self, rng):
        alpha = 0.35
        scores = rng.uniform(0, 1, size=128)
        flows = rng.uniform(0, 100, size=128)
        flow_min, flow_max = float(flows.min()), float(flows.max())
        mask = adaptive_prune_mask(scores, flows, flow_min, flow_max, alpha)
        # reference: the scalar engine's running-incumbent loop
        expected = []
        best = np.inf
        spread = flow_max - flow_min
        for i, (score, flow) in enumerate(zip(scores, flows)):
            if i == 0 or not np.isfinite(best):
                pruned = False
            else:
                bound = flow_min + spread * best / (1.0 - alpha)
                pruned = flow > bound
            expected.append(pruned)
            if not pruned and score < best:
                best = score
        assert mask.tolist() == expected

    def test_adaptive_mask_never_prunes_first(self, rng):
        scores = rng.uniform(0, 1, size=16)
        flows = rng.uniform(0, 50, size=16)
        mask = adaptive_prune_mask(
            scores, flows, float(flows.min()), float(flows.max()), 0.5
        )
        assert not mask[0]


# ----------------------------------------------------------------------
# hierarchy primitives backing the kernel
# ----------------------------------------------------------------------
class TestHierarchyPrimitives:
    def test_hub_cutset_is_lca_positions(self, grid_index):
        n = grid_index.graph.num_vertices
        for u in range(0, n, 3):
            for v in range(0, n, 4):
                cut = grid_index.hub_cutset(u, v)
                hub = grid_index.lca.query(u, v)
                assert np.array_equal(cut, grid_index.positions[hub])
                assert np.array_equal(cut, grid_index.hub_cutset(v, u))

    def test_hub_cutset_validates(self, grid_index):
        with pytest.raises(QueryError):
            grid_index.hub_cutset(0, 10_000)

    def test_distances_to_matches_scalar(self, grid_index):
        n = grid_index.graph.num_vertices
        for target in (0, 7, n - 1):
            got = grid_index.distances_to(target)
            expected = np.asarray(
                [grid_index.distance(u, target) for u in range(n)]
            )
            assert np.array_equal(got, expected)

    def test_distances_to_validates(self, grid_index):
        with pytest.raises(QueryError):
            grid_index.distances_to(-1)


# ----------------------------------------------------------------------
# latency helpers (repro.obs.latency)
# ----------------------------------------------------------------------
class TestLatencyHelpers:
    def test_recorder_exact_percentiles(self):
        recorder = obs.LatencyRecorder()
        for value in [0.001 * i for i in range(1, 101)]:
            recorder.observe(value)
        summary = recorder.summary()
        assert summary["count"] == 100
        assert summary["mean"] == pytest.approx(0.0505)
        assert summary["p50"] == pytest.approx(np.percentile(
            [0.001 * i for i in range(1, 101)], 50))
        assert summary["p99"] >= summary["p95"] >= summary["p50"]
        assert len(recorder) == 100

    def test_recorder_dual_writes_to_registry(self):
        registry = obs.MetricsRegistry(enabled=True)
        recorder = obs.LatencyRecorder(
            metric="repro_bench_query_seconds",
            help="benchmark query latency",
            registry=registry,
            mode="flat",
        )
        recorder.observe(0.25)
        recorder.observe(0.5)
        family = registry.get("repro_bench_query_seconds")
        assert family.count(mode="flat") == 2
        assert family.sum(mode="flat") == pytest.approx(0.75)

    def test_latency_summary_from_histogram(self):
        registry = obs.MetricsRegistry(enabled=True)
        hist = registry.histogram("repro_demo_seconds", "demo")
        for value in (0.001, 0.002, 0.004, 0.4):
            hist.observe(value)
        summary = obs.latency_summary(hist)
        assert summary["count"] == 4
        assert not summary["empty"]
        assert summary["mean"] == pytest.approx(hist.sum() / 4)
        # bucket-upper-bound estimates: ordered and bracketed
        assert summary["p50"] <= summary["p95"] <= summary["p99"]
        assert summary["p50"] >= 0.001

    def test_empty_recorder_summary_is_explicit(self):
        # regression: an empty recorder used to fabricate all-zero
        # percentiles, indistinguishable from a genuinely instant workload
        summary = obs.LatencyRecorder().summary()
        assert summary == {"count": 0, "empty": True}
        assert "p99" not in summary

    def test_empty_histogram_summary_is_explicit(self):
        registry = obs.MetricsRegistry(enabled=True)
        hist = registry.histogram("repro_demo_seconds", "demo")
        assert obs.latency_summary(hist) == {"count": 0, "empty": True}
        hist.observe(0.5, mode="flat")
        # a label set that never observed stays explicitly empty too
        assert obs.latency_summary(hist, mode="scalar") == {
            "count": 0, "empty": True,
        }


# ----------------------------------------------------------------------
# kernel telemetry: counters flow into a lint-clean Prometheus export
# ----------------------------------------------------------------------
class TestKernelTelemetry:
    def test_flat_query_metrics_lint_clean(self, grid_frn, grid_index):
        registry = obs.MetricsRegistry(enabled=True)
        previous = obs.set_registry(registry)
        try:
            engine = FlowAwareEngine(grid_frn, oracle=grid_index)
            for query in all_queries(grid_frn)[:40]:
                engine.query(query)
            serving = ResilientEngine(grid_frn, index=build_fahl(grid_frn))
            serving.query(FSPQuery(0, 15, 0))
        finally:
            obs.set_registry(previous)
        text = render_prometheus(registry)
        assert lint_prometheus(text) == []
        for family in (
            "repro_flatq_spur_searches_total",
            "repro_flatq_heuristic_builds_total",
            "repro_serving_query_seconds",
        ):
            assert family in text

    def test_memo_and_skip_counters_advance(self, grid_frn, grid_index):
        registry = obs.MetricsRegistry(enabled=True)
        previous = obs.set_registry(registry)
        try:
            engine = FlowAwareEngine(
                grid_frn, oracle=grid_index, pruning="adaptive"
            )
            for query in all_queries(grid_frn):
                engine.query(query)
        finally:
            obs.set_registry(previous)
        for family in (
            "repro_flatq_spur_searches_total",
            "repro_flatq_spur_skips_total",
            "repro_flatq_spur_certified_total",
            "repro_flatq_heuristic_builds_total",
        ):
            counter = registry.get(family)
            assert counter is not None and counter.total() > 0, family
        # deprecated: Lawler-order Yen keeps no memo, the counter stays 0
        memo = registry.get("repro_flatq_spur_memo_hits_total")
        assert memo is not None and memo.total() == 0


# ----------------------------------------------------------------------
# DIMACS datasets (satellite: real networks through the whole harness)
# ----------------------------------------------------------------------
class TestDimacsDataset:
    def test_round_trip(self, tmp_path, grid_frn):
        gr = tmp_path / "grid.gr"
        write_gr(grid_frn.graph, gr)
        dataset = load_dataset(f"{DIMACS_PREFIX}{gr}", days=1, epochs=5)
        assert dataset.num_vertices == grid_frn.num_vertices
        assert dataset.num_edges == grid_frn.num_edges
        assert dataset.name == f"{DIMACS_PREFIX}{gr}"
        assert "DIMACS" in dataset.description
        # flows attached: engines can answer immediately
        engine = FlowAwareEngine(dataset.frn, oracle=build_fahl(dataset.frn))
        assert engine.query(FSPQuery(0, 5, 0)).path

    def test_disconnected_input_restricted_to_largest_component(self, tmp_path):
        graph = RoadNetwork(5, edges=[(0, 1, 1.0), (1, 2, 2.0), (3, 4, 1.0)])
        gr = tmp_path / "islands.gr"
        write_gr(graph, gr)
        dataset = load_dataset(f"dimacs:{gr}", days=1, epochs=5)
        assert dataset.num_vertices == 3
        assert "largest component" in dataset.description

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(DatasetFormatError, match="not found"):
            load_dataset(f"dimacs:{tmp_path / 'absent.gr'}")

    def test_cli_dimacs_flag(self, tmp_path):
        from repro.cli import _config_from_args, build_parser

        gr = tmp_path / "net.gr"
        parser = build_parser()
        args = parser.parse_args(["run", "fig6", "--dimacs", str(gr)])
        config = _config_from_args(args)
        assert config.datasets == (f"dimacs:{gr}",)
        # without the flag, the named datasets are untouched
        args = parser.parse_args(["run", "fig6", "--datasets", "brn,nyc"])
        assert _config_from_args(args).datasets == ("BRN", "NYC")


# ----------------------------------------------------------------------
# completed deprecation cycles: the old spellings are gone (satellite c)
# ----------------------------------------------------------------------
class TestDeprecationRemoval:
    def test_invalidate_flow_cache_removed(self, grid_frn):
        engine = FlowAwareEngine(grid_frn)
        assert not hasattr(engine, "invalidate_flow_cache")
        with pytest.raises(AttributeError):
            engine.invalidate_flow_cache()

    def test_engine_status_getitem_removed(self, grid_frn):
        serving = ResilientEngine(grid_frn, max_retries=1)
        status = serving.status()
        with pytest.raises(TypeError):
            status["state"]
        # the typed surface is unaffected
        assert status.state in ("healthy", "degraded")
        assert status.as_dict()["state"] == status.state

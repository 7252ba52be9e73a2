"""Flow Priority Shortest Path Search (FPSPS, paper Alg. 5).

:class:`FlowAwareEngine` evaluates FSPQ queries in the two stages of
Section V:

1. compute ``SPDis(Q_u, D_u)`` with the configured distance oracle and
   collect the candidate set within ``MCPDis = η_u · SPDis``;
2. compute each candidate's path flow, apply the flow pruning bounds, and
   score the survivors with Eq. 1, keeping the minimum.

Every oracle runs the same pipeline: the engine only picks a *path
source* — the flat kernel's :meth:`~repro.core.flatq.FlatQueryKernel.iter_paths`
for oracles with an exact one-to-all ``distances_to`` table, otherwise
lazy Yen
(:func:`~repro.paths.yen.iter_shortest_paths`) or the sorted exhaustive
DFS list — feeds it to the one collector
(:func:`~repro.paths.candidates.collect_candidates`) and hands the
candidates to the one scorer, :func:`score_candidates`.  Flat and scalar
answers therefore agree in collection and scoring by construction; they
differ only in how the paths are produced.

The engine is method-agnostic: plugging in a FAHL/H2H/CH/G-tree oracle (or
``None`` for the index-free A* baseline) yields the paper's comparison rows.
``pruning`` selects FAHL-W's Lemma-4 bounds (paper behaviour), the
always-sound adaptive bound, or no pruning (FAHL-O and all baselines).

With Lemma-4 pruning the collector consumes candidates *lazily* (every
source yields them in non-decreasing distance) and applies a
score-dominance stop: once the next candidate's normalised-distance term
``α · PDis'`` alone exceeds the best score seen, no farther candidate can
win and the remaining — and dominant — spur-search work is skipped.  This
realises the paper's claim that "when we prune this candidate path, we do
not need to continue computing its distance".  The stop excludes the
triggering candidate, so the returned optimum is exact over the enumerated
prefix; results can differ from the unpruned engine only through the
min-max flow anchors, which is reported via ``early_stopped`` (and measured
in EXPERIMENTS.md).
"""

from __future__ import annotations

import contextlib
import math

import numpy as np

from repro import obs
from repro.core.bounds import adaptive_prune_mask, lemma4_bounds
from repro.core.flatq import FlatQueryKernel
from repro.core.fspq import FSPQuery, FSPResult
from repro.core.overlay import OverlayOracle
from repro.errors import QueryError
from repro.graph.frn import FlowAwareRoadNetwork
from repro.labeling.hierarchy import HierarchyIndex
from repro.paths.astar_search import astar_path
from repro.paths.candidates import (
    DominanceStop,
    collect_candidates,
    enumerate_all_paths_within,
    heuristic_for,
)
from repro.paths.yen import iter_shortest_paths

__all__ = ["FlowAwareEngine", "KERNEL_MODES", "PRUNING_MODES", "score_candidates"]

PRUNING_MODES = ("none", "lemma4", "adaptive")
KERNEL_MODES = ("flat", "scalar")

#: kernel stats exported to the metrics registry after each flat query
_KERNEL_COUNTERS = {
    "astar_runs": (
        "repro_flatq_spur_searches_total",
        "A* searches run by the flat kernel (certified spurs excluded)",
    ),
    "spur_memo_hits": (
        "repro_flatq_spur_memo_hits_total",
        "deprecated, always 0: the flat kernel has no spur memo",
    ),
    "spur_skips": (
        "repro_flatq_spur_skips_total",
        "spur searches skipped by the lookahead lower bound",
    ),
    "spur_certified": (
        "repro_flatq_spur_certified_total",
        "spur searches answered by the shortest-path-tree certificate",
    ),
    "heuristic_builds": (
        "repro_flatq_heuristic_builds_total",
        "one-to-all heuristic tables built by the flat kernel",
    ),
}


def score_candidates(
    distances: list[float],
    flows: list[float],
    spdis: float,
    max_distance: float,
    alpha: float,
    pruning: str = "none",
    eta_u: float | None = None,
) -> tuple[int, np.ndarray, int]:
    """Alg. 5's second stage: prune, score by Eq. 1, keep the minimum.

    Distances are normalised over ``[SPDis, MCPDis]`` and flows over the
    candidates' own min/max (Def. 5); a degenerate range contributes 0.
    ``pruning`` applies the Lemma-4 interval (needs ``eta_u``) or the
    adaptive incumbent bound as whole-vector masks.  The winner is the
    first candidate with the minimal ``(score, distance, flow)`` key — a
    stable lexsort, i.e. exactly what a sequential strict-less scan
    keeps.  When every candidate is pruned (possible under Lemma 4) the
    spatially shortest one, index 0, wins.

    Returns ``(best_index, scores, num_pruned)``.
    """
    dists = np.asarray(distances, dtype=np.float64)
    flows_arr = np.asarray(flows, dtype=np.float64)
    flow_min = min(flows)
    flow_max = max(flows)
    dist_range = max_distance - spdis
    flow_range = flow_max - flow_min
    if dist_range > 0:
        d_terms = (dists - spdis) / dist_range
    else:
        d_terms = np.zeros_like(dists)
    if flow_range > 0:
        f_terms = (flows_arr - flow_min) / flow_range
    else:
        f_terms = np.zeros_like(flows_arr)
    scores = alpha * d_terms + (1.0 - alpha) * f_terms

    if pruning == "lemma4":
        bounds = lemma4_bounds(flow_min, flow_max, alpha, eta_u)
        pruned = bounds.prunes_many(flows_arr)
    elif pruning == "adaptive":
        pruned = adaptive_prune_mask(scores, flows_arr, flow_min, flow_max, alpha)
    else:
        pruned = np.zeros(len(flows), dtype=bool)
    alive = np.flatnonzero(~pruned)
    best_index = 0
    if alive.size:
        order = np.lexsort((flows_arr[alive], dists[alive], scores[alive]))
        best_index = int(alive[order[0]])
    return best_index, scores, int(pruned.sum())


def _counter_total(snapshot: dict, name: str) -> int:
    """Sum a counter family's series values in a registry snapshot."""
    entry = snapshot.get(name)
    if not entry:
        return 0
    return int(sum(series["value"] for series in entry["series"]))


class FlowAwareEngine:
    """FSPQ query engine (Alg. 5) over a pluggable distance oracle.

    Parameters
    ----------
    frn:
        The flow-aware road network (graph + predicted flows).
    oracle:
        Object with ``distance(u, v)`` (FAHL, H2H, CH, G-tree, Dijkstra
        oracle) or ``None`` for the index-free A* baseline.
    alpha:
        Eq. 1's distance/flow blend (paper default 0.5).
    eta_u:
        User distance-constraint factor, ``MCPDis = eta_u * SPDis``
        (paper default 3).
    pruning:
        ``"lemma4"`` (FAHL-W: Lemma-4 flow bounds plus the lazy
        score-dominance enumeration stop), ``"adaptive"`` (provably
        lossless scoring-only flow bound) or ``"none"`` (FAHL-O and all
        baselines).
    max_candidates:
        Enumeration cap; truncation is reported on the result.
    use_capacity, w_c:
        Score with the capacity-based flow Ĉ_f of Def. 4 (the ``+``
        variants of Fig. 11) instead of the raw predicted flow.
    exhaustive:
        Replace bounded Yen with exhaustive DFS enumeration (reference
        semantics for tests/small graphs; exponential).
    min_candidates:
        The lazy score-dominance stop never fires before this many
        candidates have been enumerated — a quality floor trading a little
        enumeration work for much better agreement with the unpruned
        optimum (measured in EXPERIMENTS.md).
    kernel:
        ``"flat"`` (default) draws candidate paths from the
        :class:`~repro.core.flatq.FlatQueryKernel` whenever the oracle has
        an exact one-to-all ``distances_to`` table over this FRN's graph
        (hierarchy indexes, overlay oracles, the sharded gateway's
        boundary oracle) — bit-identical results, roughly an order of
        magnitude faster.  ``"scalar"`` forces the reference path iterator
        (the exactness baseline the flat kernel is tested against);
        collection and scoring are shared either way.  Oracles the kernel
        cannot speak for (``None``, CH, TD-G-tree, ALT, exhaustive mode)
        silently use the reference iterator.
    """

    def __init__(
        self,
        frn: FlowAwareRoadNetwork,
        oracle=None,
        alpha: float = 0.5,
        eta_u: float = 3.0,
        pruning: str = "none",
        max_candidates: int = 64,
        use_capacity: bool = False,
        w_c: float = 0.5,
        exhaustive: bool = False,
        min_candidates: int = 4,
        kernel: str = "flat",
    ) -> None:
        if not 0.0 < alpha < 1.0:
            raise QueryError(f"alpha must be in (0, 1), got {alpha}")
        if eta_u <= 1.0:
            raise QueryError(f"eta_u must be > 1, got {eta_u}")
        if pruning not in PRUNING_MODES:
            raise QueryError(f"pruning must be one of {PRUNING_MODES}, got {pruning!r}")
        if max_candidates < 1:
            raise QueryError(f"max_candidates must be >= 1, got {max_candidates}")
        self.frn = frn
        self.oracle = oracle
        self.alpha = float(alpha)
        self.eta_u = float(eta_u)
        self.pruning = pruning
        self.max_candidates = int(max_candidates)
        self.use_capacity = use_capacity
        self.w_c = float(w_c)
        self.exhaustive = exhaustive
        if min_candidates < 1:
            raise QueryError(f"min_candidates must be >= 1, got {min_candidates}")
        self.min_candidates = int(min_candidates)
        if kernel not in KERNEL_MODES:
            raise QueryError(
                f"kernel must be one of {KERNEL_MODES}, got {kernel!r}"
            )
        self.kernel = kernel
        self._flow_cache: dict[int, np.ndarray] = {}
        self._flat_kernel_cache: FlatQueryKernel | None = None

    # ------------------------------------------------------------------
    def _flow_at(self, t: int) -> np.ndarray:
        vector = self._flow_cache.get(t)
        if vector is None:
            if self.use_capacity:
                vector = self.frn.capacity_flow_at(t, w_c=self.w_c)
            else:
                vector = self.frn.predicted_at(t)
            self._flow_cache[t] = vector
        return vector

    def invalidate(self) -> None:
        """Drop every derived cache (call after any maintenance).

        This is the canonical invalidation hook of the engine protocol
        (docs/API.md): serving layers chain their own epoch bumps off it
        so maintenance can never refresh one cache and miss another.  The
        flat kernel keeps its graph rows (:meth:`_flat_kernel` rebuilds
        them when the graph moves) and drops its heuristic tables.
        """
        self._flow_cache.clear()
        if self._flat_kernel_cache is not None:
            self._flat_kernel_cache.drop_tables()

    def prime(self) -> None:
        """Build what a query would build lazily on the current oracle.

        That is the flat kernel and, while the overlay is empty, a
        hierarchy index's current
        :class:`~repro.labeling.arena.LabelArena` and, on a quantized
        arena, its sweep plan.  No heuristic table is swept.  A no-op for
        scalar engines and oracles the kernel cannot speak for.

        Two callers: the serving layer's consolidation pass, right after
        its index swap, so the first query on the new index does not pay
        the rebuild; and :func:`~repro.core.batch.batch_query`, right
        before it forks its pool, so every worker inherits the warm state
        copy-on-write instead of rebuilding it per batch.
        """
        kern = self._flat_kernel()
        if kern is None:
            return
        index = kern.index
        if isinstance(index, OverlayOracle) and index.overlay.is_empty:
            index = index.index
        if isinstance(index, HierarchyIndex):
            arena = index.arena()
            if arena.quantized:
                arena.sweep_plan(index)

    def _flat_kernel(self) -> FlatQueryKernel | None:
        """The flat kernel for the current oracle, or ``None``.

        The kernel speaks for any oracle with an exact one-to-all
        ``distances_to`` table, a ``label_version`` and a ``graph`` that is
        this FRN's graph: hierarchy indexes, the sharded gateway's
        boundary-table oracle, and
        :class:`~repro.core.overlay.OverlayOracle` wrappers over an index
        (stable ⊕ overlay serving: the kernel reads the wrapper's exact
        current-graph tables).  Oracles without such a table (index-free
        A*, CH, TD-G-tree, ALT) and exhaustive enumeration use the
        reference path iterator.  A cached kernel is rebuilt whenever the
        FRN or the graph's ``mutation_version`` moves — an ILU can change
        an off-shortest-path edge weight without touching any label, and
        every overlay absorb sets a live weight — and rebound
        (:meth:`FlatQueryKernel.rebind`: same graph rows, no tables) when
        only the oracle object or its label version moved.
        """
        if self.kernel != "flat" or self.exhaustive:
            return None
        oracle = self.oracle
        graph = self.frn.graph
        if not (
            callable(getattr(oracle, "distances_to", None))
            and hasattr(oracle, "label_version")
            and getattr(oracle, "graph", None) is graph
        ):
            return None
        kern = self._flat_kernel_cache
        if (
            kern is None
            or kern.frn is not self.frn
            or kern.graph_version != graph.mutation_version
        ):
            kern = FlatQueryKernel(oracle, self.frn)
            self._flat_kernel_cache = kern
        elif kern.index is not oracle or kern.version != oracle.label_version:
            kern.rebind(oracle)
        return kern

    def shortest_distance(self, source: int, target: int) -> float:
        """``SPDis`` via the oracle, or A*/Dijkstra when index-free."""
        if self.oracle is not None:
            kern = self._flat_kernel()
            if kern is not None:
                return kern.distance(source, target)
            return self.oracle.distance(source, target)
        heuristic = heuristic_for(self.frn.graph, None, target)
        _, dist = astar_path(self.frn.graph, source, target, heuristic)
        return dist

    def distance(self, u: int, v: int) -> float:
        """Shortest spatial distance — the engine-protocol spelling."""
        return self.shortest_distance(u, v)

    @contextlib.contextmanager
    def kernel_override(self, kernel: str | None):
        """Temporarily force a kernel mode; ``None`` leaves it untouched.

        ``_flat_kernel()`` re-reads ``self.kernel`` on every call, so the
        swap takes effect immediately and the cached kernel survives for
        when the original mode returns.
        """
        if kernel is None:
            yield self
            return
        if kernel not in KERNEL_MODES:
            raise QueryError(
                f"kernel must be one of {KERNEL_MODES}, got {kernel!r}"
            )
        previous = self.kernel
        self.kernel = kernel
        try:
            yield self
        finally:
            self.kernel = previous

    def batch(
        self,
        queries: list[FSPQuery],
        workers: int = 1,
        timeout: float | None = None,
        kernel: str | None = None,
        report=None,
    ):
        """Evaluate many queries via :func:`repro.core.batch.batch_query`.

        The unified engine-protocol batch signature (docs/API.md):
        ``workers`` fans chunks out to the fork pool, ``timeout`` is the
        per-chunk wall-clock budget (``None`` = the pool default), and
        ``kernel`` overrides the kernel mode for the whole batch.
        """
        from repro.core.batch import DEFAULT_CHUNK_TIMEOUT, batch_query

        chunk_timeout = DEFAULT_CHUNK_TIMEOUT if timeout is None else timeout
        with self.kernel_override(kernel):
            return batch_query(
                self,
                queries,
                workers=workers,
                chunk_timeout=chunk_timeout,
                report=report,
            )

    @property
    def flow_engine(self) -> "FlowAwareEngine":
        """The underlying flow-aware engine (itself; protocol accessor)."""
        return self

    # ------------------------------------------------------------------
    def query(self, query: FSPQuery) -> FSPResult:
        """Answer one FSPQ query (Alg. 5), recording telemetry when on.

        With the metrics registry disabled and no tracer installed this is
        a single branch on top of :meth:`_query_impl` — the overhead
        budget is enforced by ``tests/test_obs_overhead.py``.
        """
        registry = obs.get_registry()
        if not registry.enabled and obs.get_tracer() is None:
            return self._query_impl(query)
        with obs.trace(
            "fpsps.query",
            metric="repro_query_seconds",
            help="FSPQ query latency",
            labels={"pruning": self.pruning},
            src=query.source,
            dst=query.target,
            t=query.timestep,
            pruning=self.pruning,
        ):
            result = self._query_impl(query)
        if registry.enabled:
            registry.counter(
                "repro_queries_total", "FSPQ queries evaluated"
            ).inc(pruning=self.pruning)
            registry.counter(
                "repro_query_candidates_total", "candidate paths enumerated"
            ).inc(result.num_candidates)
            if self.pruning != "none":
                # every enumerated candidate is evaluated against the flow
                # bound exactly once in the scoring loop, so the bound-eval
                # counter is the pruning-rate denominator of the report.
                registry.counter(
                    "repro_query_bound_evals_total",
                    "candidates evaluated against the flow pruning bounds",
                ).inc(result.num_candidates, pruning=self.pruning)
                registry.counter(
                    "repro_query_pruned_total",
                    "candidates skipped by the flow pruning bounds",
                ).inc(result.num_pruned, pruning=self.pruning)
            if result.early_stopped:
                registry.counter(
                    "repro_query_early_stops_total",
                    "lazy enumerations ended by the score-dominance stop",
                ).inc()
            if result.truncated:
                registry.counter(
                    "repro_query_truncated_total",
                    "enumerations that hit the candidate cap",
                ).inc()
        return result

    def explain(self, source: int, target: int, timestep: int = 0):
        """EXPLAIN one query: run it for real and report what it did.

        Returns a :class:`repro.obs.QueryExplain` whose answer fields are
        **bit-identical** to :meth:`query` — the evaluation goes through
        the exact same :meth:`_query_impl`, under a private capture
        registry that harvests the label/pruning counters.  The capture is
        context-local (:func:`repro.obs.capture_registry`), so requests
        served concurrently on other threads keep reporting to the process
        registry.
        """
        query = FSPQuery(source, target, timestep).validated(
            self.frn.num_vertices, self.frn.num_timesteps
        )
        capture = obs.MetricsRegistry(enabled=True)
        with obs.stopwatch() as total, obs.capture_registry(capture):
            kern = self._flat_kernel()
            kern_before = dict(kern.stats) if kern is not None else None
            # probe SPDis separately so the heuristic-table/oracle work is
            # attributed to its own stage; the evaluation below hits the
            # warm caches and times enumeration + scoring alone
            with obs.stopwatch() as spdis:
                if source != target:
                    self.shortest_distance(source, target)
            with obs.stopwatch() as evaluate:
                result = self._query_impl(query)
        stages = {
            "spdis": spdis.seconds,
            "evaluate": evaluate.seconds,
            "total": total.seconds,
        }
        snapshot = capture.snapshot()

        oracle = self.oracle
        overlay = None
        if isinstance(oracle, OverlayOracle):
            overlay = oracle.overlay
            oracle = oracle.index
        hub_cutset_size = None
        label_src = label_dst = None
        if isinstance(oracle, HierarchyIndex):
            hub_cutset_size = (
                int(oracle.hub_cutset(source, target).size)
                if source != target
                else 0
            )
            label_src = int(len(oracle.labels[source]))
            label_dst = int(len(oracle.labels[target]))
        overlay_edges = len(overlay) if overlay is not None else 0

        spur = {
            key: kern.stats[key] - kern_before[key] if kern is not None else 0
            for key in _KERNEL_COUNTERS
        }
        ctx = obs.current_context()

        return obs.QueryExplain(
            source=source,
            target=target,
            timestep=timestep,
            distance=result.distance,
            flow=result.flow,
            score=result.score,
            shortest_distance=result.shortest_distance,
            path=result.path,
            engine="flow",
            kernel="flat" if kern is not None else "scalar",
            pruning=self.pruning,
            num_candidates=result.num_candidates,
            num_pruned=result.num_pruned,
            bound_evals=(
                result.num_candidates if self.pruning != "none" else 0
            ),
            bound_prunes=result.num_pruned,
            truncated=result.truncated,
            early_stopped=result.early_stopped,
            hub_cutset_size=hub_cutset_size,
            label_entries_source=label_src,
            label_entries_target=label_dst,
            labels_scanned=(
                _counter_total(snapshot, "repro_label_entries_scanned_total")
                + _counter_total(snapshot, "repro_label_gather_entries_total")
            ),
            spur_searches=spur["astar_runs"],
            spur_memo_hits=spur["spur_memo_hits"],
            spur_skips=spur["spur_skips"],
            spur_certified=spur["spur_certified"],
            heuristic_builds=spur["heuristic_builds"],
            provenance="overlay" if overlay_edges else "stable",
            overlay_edges=overlay_edges,
            stage_seconds=stages,
            trace_id=ctx.trace_id if ctx is not None else None,
            request_id=ctx.request_id if ctx is not None else None,
        )

    def _query_impl(self, query: FSPQuery) -> FSPResult:
        """The uninstrumented Alg. 5 evaluation."""
        frn = self.frn
        query.validated(frn.num_vertices, frn.num_timesteps)
        source, target, t = query.source, query.target, query.timestep
        flow_vector = self._flow_at(t)

        if source == target:
            return FSPResult(
                path=(source,),
                distance=0.0,
                flow=float(flow_vector[source]),
                score=0.0,
                shortest_distance=0.0,
                num_candidates=1,
                num_pruned=0,
                truncated=False,
            )

        kern = self._flat_kernel()
        registry = obs.get_registry()
        before = dict(kern.stats) if kern is not None and registry.enabled else None
        if kern is not None:
            spdis = kern.h_to(target)[source]
        else:
            spdis = self.shortest_distance(source, target)
        if not math.isfinite(spdis):
            raise QueryError(f"vertices {source} and {target} are disconnected")
        max_distance = self.eta_u * spdis

        # only lemma4 (FAHL-W) uses the lazy stop: "adaptive" stays a
        # provably lossless scoring-only prune, so it collects eagerly.
        stop = None
        if self.pruning == "lemma4" and not self.exhaustive:
            stop = DominanceStop(
                spdis, max_distance, self.alpha, self.min_candidates
            )
        if kern is None:
            candidates = collect_candidates(
                self._reference_paths(source, target, max_distance),
                flow_vector,
                max_candidates=None if self.exhaustive else self.max_candidates,
                stop=stop,
            )
        elif stop is None:
            candidates = kern.collect_eager(
                source, target, max_distance, flow_vector, self.max_candidates
            )
        else:
            candidates = kern.collect_lazy(
                source, target, max_distance, flow_vector,
                self.max_candidates, stop,
            )
        if before is not None:
            for key, (metric, help_text) in _KERNEL_COUNTERS.items():
                # registered even at 0: the deprecated memo counter never moves
                counter = registry.counter(metric, help_text)
                delta = kern.stats[key] - before[key]
                if delta:
                    counter.inc(delta)
        if not candidates.paths:
            raise QueryError(
                f"no candidate paths between {source} and {target} "
                f"within MCPDis={max_distance}"
            )

        best, scores, num_pruned = score_candidates(
            candidates.distances,
            candidates.flows,
            spdis,
            max_distance,
            self.alpha,
            self.pruning,
            self.eta_u,
        )
        return FSPResult(
            path=tuple(candidates.paths[best]),
            distance=candidates.distances[best],
            flow=candidates.flows[best],
            score=float(scores[best]),
            shortest_distance=spdis,
            num_candidates=len(candidates.paths),
            num_pruned=num_pruned,
            truncated=candidates.truncated,
            early_stopped=candidates.early_stopped,
        )

    def _reference_paths(self, source: int, target: int, max_distance: float):
        """The reference path source: exhaustive DFS or lazy Yen."""
        graph = self.frn.graph
        if self.exhaustive:
            found = enumerate_all_paths_within(graph, source, target, max_distance)
            return zip(found.paths, found.distances)
        heuristic = heuristic_for(graph, self.oracle, target)
        return iter_shortest_paths(
            graph, source, target, heuristic, max_distance=max_distance
        )

"""The sharded serving gateway: K shard engines behind one query front.

:class:`ShardedGateway` is the horizontal-scaling layer of the stack
(docs/API.md, "Sharded deployment topology").  It partitions the road
network into K connected shards (:mod:`repro.scale.partitioner`), gives
each shard its own :class:`~repro.serving.engine.ResilientEngine` over the
induced subgraph, and recovers *exact* full-graph distances with the
boundary distance tables of :mod:`repro.scale.boundary`:

* **routing** — a query whose endpoints share a shard and whose shortest
  path provably stays inside it is dispatched to that shard's engine
  (``route="shard"``); everything else is answered through the
  boundary-table combine (``route="boundary"``), which is exact for any
  endpoint pair.
* **degraded isolation** — a shard that fails its audit degrades
  *alone*: queries touching it fall back to direct Dijkstra/A* on the full
  graph (``route="fallback"``) while the remaining shards keep serving
  from their indexes.
* **result cache** — answers are cached under ``(source, target,
  flow-interval)`` keys stamped with the epoch counters of the shards they
  touched; maintenance bumps epochs through the engines' unified
  invalidation hook, so stale entries die lazily without a scan
  (:mod:`repro.scale.cache`).
* **batch fan-out** — :meth:`batch` groups a workload by route, fans each
  shard's group through the existing fork-pool ``batch_query`` machinery,
  and weights worker allocation by each shard's admitted share of the
  workload.

Everything is instrumented through :mod:`repro.obs` under the
``repro_gateway_*`` metric families.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from repro import obs
from repro.baselines.dijkstra import dijkstra_distance, dijkstra_distances
from repro.core.batch import BatchReport
from repro.core.fpsps import KERNEL_MODES, FlowAwareEngine
from repro.core.fspq import FSPQuery, FSPResult
from repro.errors import QueryError, RecoveryError
from repro.flow.series import FlowSeries
from repro.graph.frn import FlowAwareRoadNetwork
from repro.paths.astar_search import TableHeuristic
from repro.scale.boundary import BoundaryIndex
from repro.scale.cache import CacheStats, ResultCache
from repro.scale.partitioner import ShardPlan, partition_network
from repro.serving.dead_letter import DeadLetterQueue
from repro.serving.engine import (
    ResilientEngine,
    ServingDistance,
    ServingResult,
    UpdateOutcome,
)
from repro.serving.updates import FlowUpdate, WeightUpdate

__all__ = ["GatewayStatus", "ShardedGateway"]


@dataclass(frozen=True)
class GatewayStatus:
    """Typed snapshot of a :class:`ShardedGateway` for telemetry/logging."""

    num_shards: int
    shard_sizes: tuple[int, ...]
    boundary_vertices: int
    degraded_shards: tuple[int, ...]
    weight_epoch: int
    shard_epochs: tuple[int, ...]
    cache: CacheStats
    metrics: dict[str, int]
    #: accepted-but-unconsolidated updates summed over overlay-mode shards
    consolidation_lag: int = 0


class _ShardedOracle:
    """A distance oracle backed by the gateway's boundary tables.

    Plugged into the cross-shard :class:`FlowAwareEngine`, so its SPDis
    and candidate-generation heuristics see exact full-graph distances
    while the monolithic index stays out of the serving path.  It speaks
    the flat kernel's oracle protocol — ``distances_to``,
    ``label_version`` and the engine's ``graph`` — so boundary-route
    queries run :class:`~repro.core.flatq.FlatQueryKernel`.  The
    ``heuristic`` factory hands the scalar reference iterator the same
    table, so ``kernel="scalar"`` and the flat kernel produce identical
    candidate streams by construction.
    """

    def __init__(self, gateway: "ShardedGateway") -> None:
        self._gateway = gateway

    @property
    def graph(self):
        return self._gateway.frn.graph

    @property
    def label_version(self) -> tuple:
        """Moves whenever any table entry can: weights, shard maintenance,
        and a shard flipping to (or from) degraded Dijkstra serving."""
        gateway = self._gateway
        return (
            gateway._weight_epoch,
            tuple(gateway._shard_epochs),
            gateway.degraded_shards,
        )

    def distance(self, u: int, v: int) -> float:
        return self._gateway._distance_raw(u, v)

    def distances_to(self, target: int) -> np.ndarray:
        return self._gateway._distances_to(target)

    def heuristic(self, target: int) -> TableHeuristic:
        return TableHeuristic(self.distances_to(target))


class ShardedGateway:
    """A horizontally sharded, cache-fronted FSPQ serving gateway.

    Parameters
    ----------
    frn:
        The full flow-aware road network to serve.
    num_shards:
        Requested shard count (the plan may produce fewer on tiny graphs).
    alpha, eta_u, pruning, beta:
        Query/index parameters, identical in meaning to
        :class:`~repro.core.fpsps.FlowAwareEngine` /
        :class:`~repro.core.fahl.FAHLIndex`.
    cache_capacity:
        LRU capacity of the result cache.
    balance:
        Bisection balance cap forwarded to the partitioner.
    intra_shard_local:
        When true (default), same-shard queries whose shortest path
        provably stays inside the shard are answered by the shard engine
        over its subgraph — candidate enumeration is then local to the
        shard (the usual partition-serving locality trade; distances stay
        exact either way).  Set false to force the boundary-combine route
        for every query.
    kernel:
        Query-kernel selection (``"flat"`` default, ``"scalar"``
        reference), forwarded to the per-shard engines and to the
        cross-shard engine, so shard and boundary routes both run the
        vectorised flat kernel (the boundary route reads its A* tables
        from :meth:`_distances_to`).  Only the degraded-fallback engine,
        which has no oracle, stays on the scalar reference iterator.
    engine_kwargs:
        Extra keyword arguments forwarded to every per-shard
        :class:`~repro.serving.engine.ResilientEngine` (``max_retries``,
        ``audit_samples``, ``overlay_capacity``, ...).  Every shard
        serves ``stable ⊕ overlay`` and consolidates in the background
        via :meth:`maintenance_tick` / :meth:`consolidate`, swapping its
        index per shard while the others keep serving; the routing and
        distance paths read the shard *oracles*, so answers stay exact
        throughout.
    durability_dir:
        When set, every shard gets its own
        :class:`~repro.durability.Durability` manager rooted at
        ``<durability_dir>/shard-<k>`` — accepted updates are
        write-ahead logged before the ack and consolidations checkpoint
        the shard index.  After a crash, :meth:`recover_shard` restarts
        one shard from its checkpoint + log while the others keep
        serving.
    durability_kwargs:
        Extra keyword arguments for each per-shard ``Durability``
        (``fsync``, ``fsync_every``, ``auto_checkpoint``, ``retain``).
    """

    def __init__(
        self,
        frn: FlowAwareRoadNetwork,
        num_shards: int = 4,
        alpha: float = 0.5,
        eta_u: float = 3.0,
        pruning: str = "none",
        beta: float = 0.5,
        cache_capacity: int = 4096,
        balance: float = 0.6,
        intra_shard_local: bool = True,
        dead_letter_capacity: int = 1024,
        kernel: str = "flat",
        durability_dir=None,
        durability_kwargs: dict | None = None,
        **engine_kwargs,
    ) -> None:
        self.frn = frn
        self.plan: ShardPlan = partition_network(
            frn.graph, num_shards, balance=balance
        )
        self.intra_shard_local = bool(intra_shard_local)
        # engine-construction parameters, kept so recover_shard() and the
        # missing-checkpoint rebuild fallback can re-create any shard
        self._alpha = alpha
        self._eta_u = eta_u
        self._pruning = pruning
        self._beta = beta
        self._dead_letter_capacity = dead_letter_capacity
        self._kernel = kernel
        self._engine_kwargs = dict(engine_kwargs)
        self._durability_dir = (
            None if durability_dir is None else Path(durability_dir)
        )
        self._durability_kwargs = dict(durability_kwargs or {})

        # -- per-shard subgraphs, FRNs and engines ----------------------
        self._to_local: list[dict[int, int]] = []
        self._to_global: list[tuple[int, ...]] = []
        self._subgraphs = []
        self._shard_frns: list[FlowAwareRoadNetwork] = []
        self.shards: list[ResilientEngine] = []
        for k in range(self.plan.num_shards):
            members = list(self.plan.members[k])
            subgraph, relabel = frn.graph.subgraph(members)
            self._subgraphs.append(subgraph)
            self._to_local.append(relabel)
            self._to_global.append(tuple(members))
            shard_frn, engine = self._build_shard_engine(k, subgraph)
            self._shard_frns.append(shard_frn)
            self.shards.append(engine)

        # each shard's rows come off the labels just built over its subgraph
        self.boundary = BoundaryIndex(
            frn.graph, self.plan, self._subgraphs,
            [engine.index for engine in self.shards],
        )

        # -- cross-shard and degraded-fallback engines ------------------
        self._cross = FlowAwareEngine(
            frn, oracle=_ShardedOracle(self), alpha=alpha, eta_u=eta_u,
            pruning=pruning, kernel=kernel,
        )
        self._fallback = FlowAwareEngine(
            frn, oracle=None, alpha=alpha, eta_u=eta_u, pruning=pruning,
            kernel=kernel,
        )

        # -- cache + epochs (wired through the unified invalidation hook)
        self.cache = ResultCache(cache_capacity)
        self._weight_epoch = 0
        self._shard_epochs = [0] * self.plan.num_shards
        for k, engine in enumerate(self.shards):
            engine.add_invalidation_hook(
                lambda shard=k: self._on_shard_invalidated(shard)
            )

        # -- gateway-level admission state (cut edges live in no shard) -
        self.dead_letters = DeadLetterQueue(dead_letter_capacity)
        self._last_ts: dict[tuple, float] = {}
        self.metrics: Counter[str] = Counter()
        self._cut_edge_set = {
            (u, v) for u, v, _ in self.plan.cut_edges
        }
        self._sync_gauges()

    # ------------------------------------------------------------------
    # shard construction (also the recover/rebuild path)
    # ------------------------------------------------------------------
    def shard_durability_dir(self, shard: int) -> Path:
        if self._durability_dir is None:
            raise QueryError("this gateway was built without durability_dir")
        return self._durability_dir / f"shard-{shard:02d}"

    def _shard_durability(self, shard: int):
        if self._durability_dir is None:
            return None
        from repro.durability import Durability

        return Durability(
            self.shard_durability_dir(shard), **self._durability_kwargs
        )

    def _build_shard_engine(self, k: int, subgraph=None):
        """Build shard ``k``'s FRN + engine from the gateway's current graph.

        With ``subgraph=None`` the member subgraph is re-extracted from the
        (current) full graph and installed in :attr:`_subgraphs` in place —
        the rebuild path :meth:`recover_shard` falls back to when a shard
        has no usable checkpoint.
        """
        members = list(self._to_global[k])
        if subgraph is None:
            subgraph, relabel = self.frn.graph.subgraph(members)
            self._subgraphs[k] = subgraph
            self._to_local[k] = relabel
        frn = self.frn
        cols = np.asarray(members, dtype=np.int64)
        flow = FlowSeries(frn.flow.matrix[:, cols], frn.flow.interval_minutes)
        predicted = (
            flow
            if frn.predicted_flow is frn.flow
            else FlowSeries(
                frn.predicted_flow.matrix[:, cols],
                frn.predicted_flow.interval_minutes,
            )
        )
        lanes = frn.lanes[cols] if frn.lanes is not None else None
        shard_frn = FlowAwareRoadNetwork(subgraph, flow, predicted, lanes)
        index = None
        if subgraph.num_vertices > 0:
            from repro.core.fahl import FAHLIndex

            index = FAHLIndex(
                subgraph, shard_frn.total_predicted_flow(), beta=self._beta
            )
        engine = ResilientEngine(
            shard_frn,
            index=index,
            alpha=self._alpha,
            eta_u=self._eta_u,
            pruning=self._pruning,
            dead_letter_capacity=self._dead_letter_capacity,
            kernel=self._kernel,
            durability=self._shard_durability(k),
            **self._engine_kwargs,
        )
        return shard_frn, engine

    # ------------------------------------------------------------------
    # telemetry plumbing
    # ------------------------------------------------------------------
    def _count(self, name: str, help_: str, amount: int = 1, **labels) -> None:
        registry = obs.get_registry()
        if registry.enabled:
            registry.counter(name, help_).inc(amount, **labels)

    @staticmethod
    def _shard_label(shard: int | None) -> str:
        """Label value for the ``shard`` dimension (``"-"`` = no one shard)."""
        return "-" if shard is None else str(shard)

    def _count_route(
        self, route: str, amount: int = 1, shard: int | None = None
    ) -> None:
        self.metrics[f"queries_{route}"] += amount
        self._count(
            "repro_gateway_queries_total",
            "gateway queries by routing decision",
            amount,
            route=route,
            shard=self._shard_label(shard),
        )

    def _count_cache(
        self, event: str, amount: int = 1, shard: int | None = None
    ) -> None:
        if amount <= 0:
            return
        self.metrics[f"cache_{event}"] += amount
        self._count(
            "repro_gateway_cache_total",
            "result-cache lookups by outcome",
            amount,
            event=event,
            shard=self._shard_label(shard),
        )

    def _sync_gauges(self) -> None:
        registry = obs.get_registry()
        if not registry.enabled:
            return
        degraded = registry.gauge(
            "repro_gateway_shard_degraded", "1 when the shard serves degraded"
        )
        vertices = registry.gauge(
            "repro_gateway_shard_vertices", "vertices owned by the shard"
        )
        for k, engine in enumerate(self.shards):
            degraded.set(1.0 if engine.degraded else 0.0, shard=k)
            vertices.set(len(self.plan.members[k]), shard=k)
        registry.gauge(
            "repro_gateway_cache_entries", "live result-cache entries"
        ).set(len(self.cache))

    # ------------------------------------------------------------------
    # invalidation (the unified hook surface)
    # ------------------------------------------------------------------
    def _on_shard_invalidated(self, shard: int) -> None:
        """Shard maintenance happened: bump its epoch, drop derived caches."""
        self._shard_epochs[shard] += 1
        self._cross.invalidate()
        self._fallback.invalidate()

    def invalidate(self) -> None:
        """Drop every derived cache: epochs, engines, result cache."""
        self._weight_epoch += 1
        for k in range(self.plan.num_shards):
            self._shard_epochs[k] += 1
        self._cross.invalidate()
        self._fallback.invalidate()
        self.cache.clear()

    def _epochs_for(self, i: int, j: int) -> tuple[int, int, int]:
        return (self._weight_epoch, self._shard_epochs[i], self._shard_epochs[j])

    # ------------------------------------------------------------------
    # distances
    # ------------------------------------------------------------------
    def _check_vertex(self, vertex: int) -> None:
        if not isinstance(vertex, int) or not 0 <= vertex < self.frn.num_vertices:
            raise QueryError(
                f"vertex {vertex!r} not in [0, {self.frn.num_vertices})"
            )

    def _distance_raw(self, u: int, v: int) -> float:
        """Exact full-graph distance via the sharded tables (uncached)."""
        if u == v:
            return 0.0
        i, j = self.plan.shard(u), self.plan.shard(v)
        if self.shards[i].degraded or self.shards[j].degraded:
            # searched from v, so the sum is accumulated in the order of
            # _distances_to's one Dijkstra from the target
            return dijkstra_distance(self.frn.graph, v, u)
        u_local = self._to_local[i][u]
        v_local = self._to_local[j][v]
        if i == j:
            # the shard *oracle*, not the raw index: in overlay mode the
            # labels legitimately lag the live weights between
            # consolidations and the oracle folds the correction back in
            d_local = self.shards[i].oracle.distance(u_local, v_local)
            return self.boundary.combine_intra(i, u_local, v_local, d_local)
        return self.boundary.combine_cross(i, u_local, j, v_local)

    def _distances_to(self, target: int) -> np.ndarray:
        """``[_distance_raw(v, target) for v in range(n)]``, vectorised.

        One :meth:`BoundaryIndex.to_target` term, then one
        :meth:`BoundaryIndex.column` per shard; the target's own shard
        also takes the minimum with its shard oracle's one-to-all table.
        Each entry performs the point combine's float operations, so the
        two agree bit for bit wherever the shard oracle's ``distances_to``
        equals its ``distance`` (always with empty shard overlays, and on
        integer weights).  Vertices of degraded shards read one full-graph
        Dijkstra from the target.
        """
        j = self.plan.shard(target)
        graph = self.frn.graph
        if self.shards[j].degraded:
            return dijkstra_distances(graph, target)
        t_local = self._to_local[j][target]
        g = self.boundary.to_target(j, t_local)
        table = np.empty(graph.num_vertices)
        fallback = None
        for i, engine in enumerate(self.shards):
            # members are sorted, so the mask lists them in local-id order
            members = self.plan.shard_of == i
            if engine.degraded:
                if fallback is None:
                    fallback = dijkstra_distances(graph, target)
                table[members] = fallback[members]
                continue
            column = self.boundary.column(i, g)
            if i == j:
                column = np.minimum(column, engine.oracle.distances_to(t_local))
            table[members] = column
        return table

    def distance(self, u: int, v: int) -> ServingDistance:
        """Exact shortest spatial distance between any two global vertices."""
        self._check_vertex(u)
        self._check_vertex(v)
        i, j = self.plan.shard(u), self.plan.shard(v)
        epochs = self._epochs_for(i, j)
        key = ("d", u, v) if u <= v else ("d", v, u)
        stale_before = self.cache.stale_drops
        cached = self.cache.lookup(key, epochs)
        self._count_cache("stale", self.cache.stale_drops - stale_before, shard=i)
        if cached is not None:
            self._count_cache("hit", shard=i)
            return cached
        self._count_cache("miss", shard=i)
        degraded = self.shards[i].degraded or self.shards[j].degraded
        if degraded:
            self._count_route("fallback")
            answer = ServingDistance(
                value=dijkstra_distance(self.frn.graph, u, v),
                degraded=True,
                source="fallback",
            )
        else:
            route = "shard" if i == j else "boundary"
            self._count_route(route, shard=i if route == "shard" else None)
            answer = ServingDistance(
                value=self._distance_raw(u, v), degraded=False, source=route
            )
        self.cache.put(key, answer, epochs)
        self._sync_gauges()
        return answer

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def _remap_result(self, shard: int, result: FSPResult) -> FSPResult:
        to_global = self._to_global[shard]
        return replace(result, path=tuple(to_global[v] for v in result.path))

    def _route_class(self, query: FSPQuery) -> tuple[str, int, int]:
        """Routing decision for one query: ``(route, i, j)``."""
        i = self.plan.shard(query.source)
        j = self.plan.shard(query.target)
        if self.shards[i].degraded or self.shards[j].degraded:
            return "fallback", i, j
        if (
            i == j
            and self.intra_shard_local
            and query.source != query.target
        ):
            u_local = self._to_local[i][query.source]
            v_local = self._to_local[i][query.target]
            d_local = self.shards[i].oracle.distance(u_local, v_local)
            if math.isfinite(d_local) and (
                self.boundary.combine_intra(i, u_local, v_local, d_local)
                == d_local
            ):
                return "shard", i, j
        return "boundary", i, j

    def _evaluate(self, query: FSPQuery, route: str, i: int) -> ServingResult:
        if route == "fallback":
            return ServingResult(
                result=self._fallback.query(query), degraded=True,
                source="fallback",
            )
        if route == "shard":
            local = FSPQuery(
                self._to_local[i][query.source],
                self._to_local[i][query.target],
                query.timestep,
            )
            served = self.shards[i].query(local)
            return ServingResult(
                result=self._remap_result(i, served.result),
                degraded=served.degraded,
                source="shard",
            )
        return ServingResult(
            result=self._cross.query(query), degraded=False, source="boundary"
        )

    def query(self, query: FSPQuery) -> ServingResult:
        """Answer one FSPQ query through the sharded topology + cache."""
        query.validated(self.frn.num_vertices, self.frn.num_timesteps)
        with obs.front_door(
            "gateway.query",
            metric="repro_gateway_query_seconds",
            help="gateway query latency by route and shard",
            request=True,
        ) as door:
            if door.tracer is not None:
                door.annotate(src=query.source, dst=query.target)
            i = self.plan.shard(query.source)
            j = self.plan.shard(query.target)
            epochs = self._epochs_for(i, j)
            key = ("q", query.source, query.target, query.timestep)
            stale_before = self.cache.stale_drops
            cached = self.cache.lookup(key, epochs)
            self._count_cache("stale", self.cache.stale_drops - stale_before, shard=i)
            if cached is not None:
                self._count_cache("hit", shard=i)
                door.label(route="cache", shard=self._shard_label(i))
                return cached
            self._count_cache("miss", shard=i)
            route, i, j = self._route_class(query)
            shard = i if route == "shard" else None
            self._count_route(route, shard=shard)
            answer = self._evaluate(query, route, i)
            self.cache.put(key, answer, epochs)
            self._sync_gauges()
            door.label(route=route, shard=self._shard_label(shard))
            # a fallback answer burns error budget even when it is fast
            door.ok = route != "fallback"
            return answer

    def explain(self, source: int, target: int, timestep: int = 0):
        """EXPLAIN one query through the gateway's routing topology.

        Takes the exact routing decision :meth:`query` would take for the
        pair (cache probe → route class → shard/boundary/fallback engine),
        runs the chosen engine's own :meth:`explain` — which evaluates the
        query for real, so ``distance`` is bit-identical to
        :meth:`query` — and annotates the result with the gateway-level
        provenance: route taken, shard pair, cache verdict with the epoch
        stamp the entry would carry, and the boundary-table size the
        combine paths cross.  The cache probe is observational only
        (:meth:`ResultCache.peek`): it counts no hit or miss, keeps the LRU
        order and drops no stale entry, and the answer is *not* inserted,
        so explaining a query never perturbs serving state.
        """
        query = FSPQuery(source, target, timestep).validated(
            self.frn.num_vertices, self.frn.num_timesteps
        )
        i = self.plan.shard(source)
        j = self.plan.shard(target)
        epochs = self._epochs_for(i, j)
        cache_hit = (
            self.cache.peek(("q", source, target, timestep), epochs)
            is not None
        )
        route, i, j = self._route_class(query)
        if route == "shard":
            inner = self.shards[i].explain(
                self._to_local[i][source], self._to_local[i][target], timestep
            )
            to_global = self._to_global[i]
            inner = replace(
                inner,
                source=source,
                target=target,
                path=tuple(to_global[v] for v in inner.path),
            )
        elif route == "fallback":
            inner = self._fallback.explain(source, target, timestep)
        else:
            inner = self._cross.explain(source, target, timestep)
        return replace(
            inner,
            engine="gateway",
            route=route,
            shards=(i, j),
            cache_hit=cache_hit,
            cache_epochs=epochs,
            boundary_vertices=self.boundary.num_boundary_vertices,
            answer_source=route,
            degraded=route == "fallback",
        )

    def batch(
        self,
        queries: list[FSPQuery],
        workers: int = 1,
        timeout: float | None = None,
        kernel: str | None = None,
        report: BatchReport | None = None,
    ) -> list[ServingResult]:
        """Evaluate a workload, fanning shard groups through the fork pool.

        Cache hits are answered immediately; misses are grouped by routing
        decision, each shard group runs through the existing
        :func:`~repro.core.batch.batch_query` machinery on that shard's
        engine, and the pool workers available are split across groups in
        proportion to the work each one admitted (degraded-fallback
        queries always run serially in the gateway process).  ``timeout``
        and ``kernel`` follow the unified protocol batch signature
        (docs/API.md): per-chunk budget and kernel-mode override, passed
        through to every group's engine.
        """
        if workers < 1:
            raise QueryError(f"workers must be >= 1, got {workers}")
        if kernel is not None and kernel not in KERNEL_MODES:
            raise QueryError(
                f"kernel must be one of {KERNEL_MODES}, got {kernel!r}"
            )
        for query in queries:
            query.validated(self.frn.num_vertices, self.frn.num_timesteps)
        with obs.front_door("gateway.batch", queries=len(queries), workers=workers):
            results: list[ServingResult | None] = [None] * len(queries)
            pending: dict[str, list[tuple[int, FSPQuery, int, tuple[int, ...]]]] = {}
            hits_by_shard: Counter[int] = Counter()
            misses_by_shard: Counter[int] = Counter()
            for position, query in enumerate(queries):
                i = self.plan.shard(query.source)
                j = self.plan.shard(query.target)
                epochs = self._epochs_for(i, j)
                key = ("q", query.source, query.target, query.timestep)
                stale_before = self.cache.stale_drops
                cached = self.cache.lookup(key, epochs)
                self._count_cache(
                    "stale", self.cache.stale_drops - stale_before, shard=i
                )
                if cached is not None:
                    results[position] = cached
                    hits_by_shard[i] += 1
                    continue
                misses_by_shard[i] += 1
                route, i, j = self._route_class(query)
                group = f"shard:{i}" if route == "shard" else route
                pending.setdefault(group, []).append((position, query, i, epochs))
            for shard, amount in sorted(hits_by_shard.items()):
                self._count_cache("hit", amount, shard=shard)
            for shard, amount in sorted(misses_by_shard.items()):
                self._count_cache("miss", amount, shard=shard)
            total_misses = sum(len(v) for v in pending.values())

            def _finish(
                position: int, query: FSPQuery, answer: ServingResult,
                epochs: tuple[int, ...],
            ) -> None:
                key = ("q", query.source, query.target, query.timestep)
                self.cache.put(key, answer, epochs)
                results[position] = answer

            for group, entries in pending.items():
                # admission-weighted allocation: each group gets pool workers in
                # proportion to its share of the admitted (non-cached) workload.
                share = max(
                    1, round(workers * len(entries) / max(1, total_misses))
                )
                if group == "fallback":
                    self._count_route("fallback", len(entries))
                    with self._fallback.kernel_override(kernel):
                        for position, query, _, epochs in entries:
                            _finish(
                                position, query,
                                ServingResult(
                                    result=self._fallback.query(query),
                                    degraded=True, source="fallback",
                                ),
                                epochs,
                            )
                elif group == "boundary":
                    self._count_route("boundary", len(entries))
                    answers = self._cross.batch(
                        [query for _, query, _, _ in entries],
                        workers=share,
                        timeout=timeout,
                        kernel=kernel,
                        report=report,
                    )
                    for (position, query, _, epochs), result in zip(entries, answers):
                        _finish(
                            position, query,
                            ServingResult(
                                result=result, degraded=False, source="boundary"
                            ),
                            epochs,
                        )
                else:
                    shard = entries[0][2]
                    self._count_route("shard", len(entries), shard=shard)
                    local = [
                        FSPQuery(
                            self._to_local[shard][query.source],
                            self._to_local[shard][query.target],
                            query.timestep,
                        )
                        for _, query, _, _ in entries
                    ]
                    served = self.shards[shard].batch(
                        local, workers=share, timeout=timeout, kernel=kernel,
                        report=report,
                    )
                    for (position, query, _, epochs), answer in zip(entries, served):
                        _finish(
                            position, query,
                            ServingResult(
                                result=self._remap_result(shard, answer.result),
                                degraded=answer.degraded,
                                source="shard",
                            ),
                            epochs,
                        )
            self._sync_gauges()
            return results  # type: ignore[return-value]

    # ------------------------------------------------------------------
    # updates
    # ------------------------------------------------------------------
    def _reject(self, update, kind: str, reason: str, detail: str) -> UpdateOutcome:
        self.dead_letters.push(update, reason, detail)
        self.metrics["updates_rejected"] += 1
        self._count(
            "repro_gateway_updates_total",
            "gateway updates by kind and outcome",
            kind=kind,
            outcome="rejected",
        )
        return UpdateOutcome(accepted=False, applied=False, reason=reason)

    def _record_outcome(self, kind: str, outcome: UpdateOutcome) -> UpdateOutcome:
        token = "applied" if outcome.applied else "rejected"
        self.metrics[f"updates_{token}"] += 1
        self._count(
            "repro_gateway_updates_total",
            "gateway updates by kind and outcome",
            kind=kind,
            outcome=token,
        )
        self._sync_gauges()
        return outcome

    def submit(self, update: FlowUpdate | WeightUpdate) -> UpdateOutcome:
        """Route one update to its owning shard; never raises on bad input.

        Flow updates go to the vertex's shard engine.  Weight updates on a
        within-shard edge go to that shard engine *and*, once applied, are
        mirrored onto the full graph so the boundary tables and fallback
        paths see the same weights.  Weight updates on *cut edges* (which
        belong to no shard subgraph) are admitted by the gateway itself and
        applied to the full graph directly.
        """
        if isinstance(update, FlowUpdate):
            if not (
                isinstance(update.vertex, int)
                and 0 <= update.vertex < self.frn.num_vertices
            ):
                return self._reject(
                    update, "flow", "unknown-vertex",
                    f"vertex {update.vertex!r} not in "
                    f"[0, {self.frn.num_vertices})",
                )
            shard = self.plan.shard(update.vertex)
            local = FlowUpdate(
                self._to_local[shard][update.vertex],
                update.value,
                update.timestamp,
            )
            outcome = self.shards[shard].submit(local)
            return self._record_outcome("flow", outcome)
        if isinstance(update, WeightUpdate):
            return self._record_outcome("weight", self._submit_weight(update))
        return self._reject(
            update, "unknown", "unsupported-type",
            f"cannot apply {type(update).__name__}",
        )

    def _submit_weight(self, update: WeightUpdate) -> UpdateOutcome:
        for vertex in (update.u, update.v):
            if not (
                isinstance(vertex, int)
                and 0 <= vertex < self.frn.num_vertices
            ):
                return self._reject(
                    update, "weight", "unknown-vertex",
                    f"vertex {vertex!r} not in [0, {self.frn.num_vertices})",
                )
        i = self.plan.shard(update.u)
        j = self.plan.shard(update.v)
        if i == j:
            shard = i
            local = WeightUpdate(
                self._to_local[shard][update.u],
                self._to_local[shard][update.v],
                update.value,
                update.timestamp,
            )
            subgraph = self._subgraphs[shard]
            old_weight = (
                subgraph.weight(local.u, local.v)
                if subgraph.has_edge(local.u, local.v) else None
            )
            outcome = self.shards[shard].submit(local)
            if outcome.applied:
                # mirror onto the full graph so cross-shard candidate
                # generation and degraded Dijkstra see the new weight,
                # then refresh every distance structure derived from it:
                # the closure only when the shard's boundary block moved
                self.frn.graph.set_weight(update.u, update.v, update.value)
                if self.boundary.repair_shard(
                    shard, local.u, local.v, old_weight
                ):
                    self.boundary.rebuild_global()
                self._weight_epoch += 1
                self._cross.invalidate()
                self._fallback.invalidate()
            return outcome
        # cut edge: owned by the gateway, not by any shard subgraph
        return self._submit_cut_weight(update)

    def _submit_cut_weight(self, update: WeightUpdate) -> UpdateOutcome:
        key = (update.u, update.v) if update.u <= update.v else (update.v, update.u)
        if key not in self._cut_edge_set:
            return self._reject(
                update, "cut-weight", "unknown-edge",
                f"edge ({update.u}, {update.v}) not in graph",
            )
        value, timestamp = update.value, update.timestamp
        if not (isinstance(value, (int, float)) and math.isfinite(value)):
            return self._reject(
                update, "cut-weight", "non-finite",
                f"weight {value!r} is not finite",
            )
        if value <= 0:
            return self._reject(
                update, "cut-weight", "non-positive-weight",
                f"weight {value} is not positive",
            )
        if not (isinstance(timestamp, (int, float)) and math.isfinite(timestamp)):
            return self._reject(
                update, "cut-weight", "non-finite",
                f"timestamp {timestamp!r} is not finite",
            )
        last = self._last_ts.get(update.key)
        if last is not None and timestamp < last:
            return self._reject(
                update, "cut-weight", "stale-timestamp",
                f"timestamp {timestamp} predates last accepted {last}",
            )
        self._last_ts[update.key] = timestamp
        self.frn.graph.set_weight(update.u, update.v, float(value))
        self.boundary.rebuild_global()
        self._weight_epoch += 1
        self._cross.invalidate()
        self._fallback.invalidate()
        return UpdateOutcome(
            accepted=True, applied=True, strategy="cut-edge", attempts=1
        )

    # ------------------------------------------------------------------
    # health / repair
    # ------------------------------------------------------------------
    @property
    def degraded_shards(self) -> tuple[int, ...]:
        return tuple(
            k for k, engine in enumerate(self.shards) if engine.degraded
        )

    def repair(self, shard: int | None = None) -> dict[int, bool]:
        """Repair degraded shards (all of them when ``shard`` is ``None``).

        A shard repair rebuilds that shard's index on the weights it
        already serves, so no weight changes: the boundary tables stay as
        they are, and the shard's invalidation hook retires the cached
        answers it touched.  Returns the post-repair audit verdict per
        repaired shard.
        """
        targets = [shard] if shard is not None else list(self.degraded_shards)
        verdicts: dict[int, bool] = {}
        for k in targets:
            verdicts[k] = self.shards[k].repair().ok
            self.metrics["repairs"] += 1
            self._count(
                "repro_gateway_repairs_total", "per-shard repair passes"
            )
        self._sync_gauges()
        return verdicts

    def recover_shard(self, shard: int):
        """Restart one crashed shard from its checkpoint + WAL tail.

        The other shards keep serving throughout — recovery only touches
        shard-local structures until the final boundary-table refresh.
        The shard's durability directory is replayed through
        :func:`repro.durability.recover`; when nothing usable survives
        there (no checkpoint ever written *and* the log history is
        incomplete), the shard is rebuilt cold from the gateway's current
        graph and immediately checkpointed, so the next crash recovers
        fast.

        Returns the :class:`~repro.durability.RecoveryReport` of the
        replay, or ``None`` when the shard had to be rebuilt cold.
        """
        from repro.durability import recover

        if not 0 <= shard < self.plan.num_shards:
            raise QueryError(
                f"shard {shard!r} not in [0, {self.plan.num_shards})"
            )
        old = self.shards[shard]
        if old.durability is not None:
            old.durability.close()
        report = None
        try:
            engine = recover(
                self.shard_durability_dir(shard),
                self._shard_frns[shard],
                alpha=self._alpha,
                eta_u=self._eta_u,
                pruning=self._pruning,
                dead_letter_capacity=self._dead_letter_capacity,
                kernel=self._kernel,
                **self._engine_kwargs,
                **self._durability_kwargs,
            )
            report = engine.last_recovery
            # BoundaryIndex shares this list object: replacing the element
            # in place is what rebuild_shard() below will read
            self._subgraphs[shard] = engine.frn.graph
            self._shard_frns[shard] = engine.frn
        except RecoveryError:
            _, engine = self._build_shard_engine(shard)
            self._shard_frns[shard] = engine.frn
            if engine.durability is not None:
                # make the directory coherent again: a fresh generation
                # supersedes whatever debris defeated recovery
                engine.durability.checkpoint(engine)
            self.metrics["shard_rebuilds"] += 1
            self._count(
                "repro_gateway_shard_recoveries_total",
                "per-shard restarts by restore source",
                source="rebuild",
            )
        else:
            self._count(
                "repro_gateway_shard_recoveries_total",
                "per-shard restarts by restore source",
                source="checkpoint",
            )
        self.shards[shard] = engine
        engine.add_invalidation_hook(
            lambda: self._on_shard_invalidated(shard)
        )
        # mirror the recovered shard's live weights onto the full graph so
        # the boundary combine and degraded Dijkstra agree with the shard
        to_global = self._to_global[shard]
        full = self.frn.graph
        for u, v, weight in engine.frn.graph.edges():
            full.set_weight(to_global[u], to_global[v], weight)
        self.boundary.rebuild_shard(shard)
        self.boundary.rebuild_global()
        self._weight_epoch += 1
        self._shard_epochs[shard] += 1
        self._cross.invalidate()
        self._fallback.invalidate()
        self.cache.clear()
        self.metrics["shard_recoveries"] += 1
        self._sync_gauges()
        return report

    def maintenance_tick(self, steps: int = 1) -> dict[int, str]:
        """Advance every shard's background consolidation a little.

        Shards fold their pending overlays/flows into back
        buffers one cooperative step at a time; each committed swap bumps
        that shard's epoch through the unified invalidation hook, so the
        result cache self-invalidates without a scan.  Shards with nothing
        pending are skipped.  Returns the per-shard task state after the
        tick.
        """
        states: dict[int, str] = {}
        for k, engine in enumerate(self.shards):
            state = engine.maintenance_tick(steps=steps)
            if state is not None:
                states[k] = state
        self._sync_gauges()
        return states

    def consolidate(self) -> dict[int, str]:
        """Run every pending shard consolidation to the committed swap."""
        states: dict[int, str] = {}
        for k, engine in enumerate(self.shards):
            state = engine.consolidate()
            if state is not None:
                states[k] = state
        self._sync_gauges()
        return states

    @property
    def flow_engine(self) -> FlowAwareEngine:
        """The gateway's exact-distance flow engine (for kNN & friends)."""
        return self._cross

    def status(self) -> GatewayStatus:
        """Typed snapshot for telemetry/logging."""
        lag = sum(
            len(engine.overlay) + len(engine._pending_flows)
            for engine in self.shards
        )
        return GatewayStatus(
            num_shards=self.plan.num_shards,
            shard_sizes=tuple(len(m) for m in self.plan.members),
            boundary_vertices=self.boundary.num_boundary_vertices,
            degraded_shards=self.degraded_shards,
            weight_epoch=self._weight_epoch,
            shard_epochs=tuple(self._shard_epochs),
            cache=self.cache.stats(),
            metrics=dict(self.metrics),
            consolidation_lag=lag,
        )

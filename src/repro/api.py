"""The stable public query surface of the FAHL stack (docs/API.md).

Three serving classes answer queries — :class:`~repro.core.fpsps.FlowAwareEngine`
(the bare Alg.-5 evaluator), :class:`~repro.serving.engine.ResilientEngine`
(fault-tolerant single process) and :class:`~repro.scale.gateway.ShardedGateway`
(horizontally sharded, cache-fronted).  This module pins down what makes
them drop-in interchangeable:

* the :class:`Engine` protocol — ``query(FSPQuery)``, ``distance(u, v)``
  and ``batch(queries, workers=...)``, plus the ``invalidate()`` hook and
  the ``flow_engine`` accessor;
* :func:`as_result` / :func:`as_distance` — normalisers that unwrap the
  serving layers' envelopes (:class:`ServingResult` /
  :class:`ServingDistance`) to the plain :class:`FSPResult` / ``float``
  the bare engine returns, so callers can stay engine-agnostic;
* the :class:`AsyncEngine` protocol — the async-first serving surface
  (``aquery``/``adistance``/``abatch`` coroutines plus a sync
  ``submit() -> Future`` escape hatch) — with :func:`to_async`, the
  adapter that wraps any :class:`Engine` in the micro-batching
  :class:`~repro.serving.async_gateway.AsyncGateway` so all three tiers
  satisfy it; envelope normalisation via :func:`as_result` /
  :func:`as_distance` applies identically to sync and async answers;
* harmonised, :class:`FSPQuery`-accepting front doors for the extension
  queries: :func:`knn`, :func:`constrained` and :func:`skyline`.  The
  legacy positional ``source``/``timestep`` spellings completed their
  deprecation cycle and were **removed** — they now raise
  :class:`~repro.errors.QueryError` with a migration hint (docs/API.md,
  "Deprecation policy").
"""

from __future__ import annotations

import math
from typing import Protocol, Sequence, runtime_checkable

from repro.core.constrained import (
    ConstrainedFlowAwareEngine,
    QueryConstraints,
)
from repro.core.fpsps import FlowAwareEngine
from repro.core.fspq import FSPQuery, FSPResult
from repro.core.knn import KNNMatch, flow_aware_knn
from repro.core.skyline import SkylineResult, skyline_paths
from repro.errors import QueryError
from repro.graph.frn import FlowAwareRoadNetwork

__all__ = [
    "AsyncEngine",
    "Engine",
    "as_distance",
    "as_result",
    "constrained",
    "knn",
    "skyline",
    "to_async",
]


@runtime_checkable
class Engine(Protocol):
    """What every serving class guarantees (the stable engine protocol).

    ``query`` returns either a bare :class:`FSPResult` or an envelope with
    a ``.result`` attribute; ``distance`` a ``float`` or an envelope with
    ``.value`` — normalise with :func:`as_result` / :func:`as_distance`
    when you need engine-agnostic values.

    ``batch`` is keyword-consistent across every tier: ``workers`` fans
    chunks out to the fork pool, ``timeout`` bounds each pool chunk
    (``None`` = the pool default) and ``kernel`` overrides the query
    kernel (``"flat"``/``"scalar"``) for the whole batch — asserted by
    ``tests/test_api_surface.py``.
    """

    def query(self, query: FSPQuery): ...

    def distance(self, u: int, v: int): ...

    def batch(
        self,
        queries: Sequence[FSPQuery],
        workers: int = 1,
        timeout: float | None = None,
        kernel: str | None = None,
    ): ...

    def invalidate(self) -> None: ...

    @property
    def flow_engine(self) -> FlowAwareEngine: ...


@runtime_checkable
class AsyncEngine(Protocol):
    """The async-first serving surface (asyncio-native front doors).

    ``aquery``/``adistance``/``abatch`` are coroutines answering through
    the implementation's coalescing/dispatch machinery; ``submit`` is the
    sync escape hatch returning a :class:`concurrent.futures.Future` so
    threaded callers can use the same gateway without an event loop.
    Answers carry whatever envelope the wrapped engine produces — the
    same :func:`as_result` / :func:`as_distance` normalisers apply to
    sync and async answers identically.

    Satisfy it with :func:`to_async` — every :class:`Engine` tier adapts
    via :class:`~repro.serving.async_gateway.AsyncGateway`.
    """

    async def aquery(self, query: FSPQuery): ...

    async def adistance(self, u: int, v: int): ...

    async def abatch(self, queries: Sequence[FSPQuery]): ...

    def submit(self, query: FSPQuery): ...


def to_async(engine, **gateway_kwargs):
    """Adapt any :class:`Engine` to the :class:`AsyncEngine` protocol.

    An engine that already satisfies :class:`AsyncEngine` is returned
    unchanged (``gateway_kwargs`` must then be empty); a sync
    :class:`Engine` is wrapped in a
    :class:`~repro.serving.async_gateway.AsyncGateway`, forwarding
    ``gateway_kwargs`` (``max_window``, ``max_queue``, ``admission_rate``,
    ...).  Anything else raises
    :class:`~repro.errors.QueryError`.
    """
    from repro.serving.async_gateway import AsyncGateway

    if isinstance(engine, AsyncEngine):
        if gateway_kwargs:
            raise QueryError(
                f"{type(engine).__name__} is already an AsyncEngine; "
                "gateway options cannot be applied to it"
            )
        return engine
    if isinstance(engine, Engine):
        return AsyncGateway(engine, **gateway_kwargs)
    raise QueryError(
        f"{type(engine).__name__} satisfies neither the Engine nor the "
        "AsyncEngine protocol"
    )


def as_result(outcome) -> FSPResult:
    """Unwrap any engine's query answer to the plain :class:`FSPResult`."""
    if isinstance(outcome, FSPResult):
        return outcome
    inner = getattr(outcome, "result", None)
    if isinstance(inner, FSPResult):
        return inner
    raise QueryError(
        f"cannot extract an FSPResult from {type(outcome).__name__}"
    )


def as_distance(outcome) -> float:
    """Unwrap any engine's distance answer to a plain ``float``."""
    if isinstance(outcome, (int, float)):
        return float(outcome)
    value = getattr(outcome, "value", None)
    if isinstance(value, (int, float)):
        return float(value)
    raise QueryError(
        f"cannot extract a distance from {type(outcome).__name__}"
    )


# ----------------------------------------------------------------------
# harmonised extension-query front doors
# ----------------------------------------------------------------------
def _flow_engine(engine) -> FlowAwareEngine:
    if isinstance(engine, FlowAwareEngine):
        return engine
    inner = getattr(engine, "flow_engine", None)
    if isinstance(inner, FlowAwareEngine):
        return inner
    raise QueryError(
        f"{type(engine).__name__} does not expose a flow engine; pass a "
        "FlowAwareEngine, ResilientEngine or ShardedGateway"
    )


def _require_query(query, caller: str) -> FSPQuery:
    """The front doors take :class:`FSPQuery` only (positional removed)."""
    if isinstance(query, FSPQuery):
        return query
    raise QueryError(
        f"repro.{caller}() takes an FSPQuery, got {type(query).__name__} — "
        f"the legacy positional spelling was removed; build "
        f"FSPQuery(source, target, timestep) instead (docs/API.md)"
    )


def knn(
    engine,
    query: FSPQuery,
    pois: Sequence[int],
    k: int,
    *,
    prefilter: int | None = None,
) -> list[KNNMatch]:
    """Flow-aware k-nearest POIs from ``query.source`` at ``query.timestep``.

    ``query.target`` is ignored (kNN ranks the POI set instead).  Works
    with any :class:`Engine`; serving layers contribute their flow engine,
    so e.g. a :class:`ShardedGateway` ranks with exact sharded distances.
    """
    query = _require_query(query, "knn")
    return flow_aware_knn(
        _flow_engine(engine),
        query.source,
        list(pois),
        k,
        query.timestep,
        prefilter=prefilter,
    )


def constrained(
    engine,
    query: FSPQuery,
    constraints: QueryConstraints,
) -> FSPResult:
    """One FSPQ query under :class:`QueryConstraints`, on any engine."""
    query = _require_query(query, "constrained")
    inner = _flow_engine(engine)
    if isinstance(inner, ConstrainedFlowAwareEngine):
        return inner.query_constrained(query, constraints)
    shim = ConstrainedFlowAwareEngine(
        inner.frn,
        oracle=inner.oracle,
        alpha=inner.alpha,
        eta_u=inner.eta_u,
        pruning=inner.pruning,
        max_candidates=inner.max_candidates,
        use_capacity=inner.use_capacity,
        w_c=inner.w_c,
        exhaustive=inner.exhaustive,
        min_candidates=inner.min_candidates,
    )
    return shim.query_constrained(query, constraints)


def skyline(
    source_of_frn,
    query: FSPQuery,
    *,
    max_distance: float = math.inf,
    max_labels_per_vertex: int = 64,
) -> SkylineResult:
    """The (distance, flow) Pareto frontier for one FSPQ triple.

    ``source_of_frn`` is an FRN or any :class:`Engine` (its FRN is used).
    """
    frn = source_of_frn
    if not isinstance(frn, FlowAwareRoadNetwork):
        frn = getattr(source_of_frn, "frn", None)
        if not isinstance(frn, FlowAwareRoadNetwork):
            raise QueryError(
                f"{type(source_of_frn).__name__} carries no FlowAwareRoadNetwork"
            )
    query = _require_query(query, "skyline")
    return skyline_paths(
        frn,
        query.source,
        query.target,
        query.timestep,
        max_distance=max_distance,
        max_labels_per_vertex=max_labels_per_vertex,
    )

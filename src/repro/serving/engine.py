"""A resilient serving wrapper around a FAHL index and its FPSPS engine.

The paper's maintenance algorithms assume well-formed updates and
fault-free execution; a production serving tier gets neither.
:class:`ResilientEngine` therefore wraps the index behind three shields:

* **Admission control** — every incoming update is validated (finite
  values, known vertices/edges, per-key timestamp monotonicity) and
  rejects are *quarantined* into a bounded dead-letter queue instead of
  raising into the feed consumer.
* **Non-blocking updates** — accepted updates never touch the serving
  labels.  Weight updates are absorbed O(1)-ish into a
  :class:`~repro.core.overlay.DeltaOverlay` and queries answer exactly
  from ``stable ⊕ overlay`` through an
  :class:`~repro.core.overlay.OverlayOracle`; flow updates queue for the
  next consolidation (they steer ordering quality, not answer
  correctness).  :meth:`maintenance_tick` runs the paper's ILU/ISU on a
  back buffer in small cooperative steps and swaps it in atomically, so
  index maintenance stays off the query path.  A consolidation that keeps
  failing escalates through ``max_retries`` retries to the full
  :meth:`repair` rebuild, with each failure recorded in the dead-letter
  queue.
* **Degraded serving** — while degraded (a failed :meth:`audit`),
  queries are answered by direct Dijkstra/A* on the current graph and
  flagged as such: correctness degrades to *latency*, never to wrong
  answers.

The engine is deliberately synchronous and single-threaded — it models the
per-shard serving loop; sharding/replication live a layer above.
"""

from __future__ import annotations

import math
import time
import warnings
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Callable

from repro import obs
from repro.obs import flight as obs_flight
from repro.baselines.dijkstra import dijkstra_distance
from repro.core.fahl import FAHLIndex
from repro.core.fpsps import KERNEL_MODES, FlowAwareEngine
from repro.core.fspq import FSPQuery, FSPResult
from repro.core.overlay import ConsolidationTask, DeltaOverlay, OverlayOracle
from repro.errors import IndexStateError, QueryError
from repro.graph.frn import FlowAwareRoadNetwork
from repro.serving.audit import AuditReport, verify_index
from repro.serving.dead_letter import DeadLetterQueue
from repro.serving.updates import FlowUpdate, WeightUpdate

__all__ = [
    "EngineStatus",
    "ResilientEngine",
    "ServingDistance",
    "ServingResult",
    "UpdateOutcome",
]

HEALTHY = "healthy"
DEGRADED = "degraded"

#: serving-query histogram labels per answer source, built once: the
#: front door runs on every request and spans never mutate their labels
_SOURCE_LABELS = {source: {"source": source} for source in ("index", "fallback")}


@dataclass(frozen=True)
class EngineStatus:
    """Typed snapshot of a :class:`ResilientEngine` for telemetry/logging.

    ``metrics`` is the engine's per-instance counter view (the
    process-global picture lives on the :mod:`repro.obs` registry as the
    ``repro_serving_*`` families).  ``last_audit_at`` is a wall-clock
    ``time.time()`` timestamp, ``None`` until the first :meth:`~ResilientEngine.audit`.

    Access is attribute-style (``status.state``) or via :meth:`as_dict`;
    the deprecated dict-style ``status["state"]`` spelling completed its
    cycle and was removed (docs/API.md, "Deprecation policy").
    ``deferred_updates`` (always 0) and ``update_mode`` (always
    ``"overlay"``) are deprecated: no update is deferred any more and
    overlay is the only update path.
    """

    state: str
    deferred_updates: int
    dead_letters_queued: int
    dead_letters_seen: int
    last_audit_at: float | None = None
    last_audit_ok: bool | None = None
    metrics: dict[str, int] = field(default_factory=dict)
    update_mode: str = "overlay"
    overlay_edges: int = 0
    overlay_hubs: int = 0
    pending_flow_updates: int = 0
    consolidation_state: str | None = None

    def as_dict(self) -> dict:
        return {
            "state": self.state,
            "deferred_updates": self.deferred_updates,
            "dead_letters_queued": self.dead_letters_queued,
            "dead_letters_seen": self.dead_letters_seen,
            "last_audit_at": self.last_audit_at,
            "last_audit_ok": self.last_audit_ok,
            "metrics": dict(self.metrics),
            "update_mode": self.update_mode,
            "overlay_edges": self.overlay_edges,
            "overlay_hubs": self.overlay_hubs,
            "pending_flow_updates": self.pending_flow_updates,
            "consolidation_state": self.consolidation_state,
        }


@dataclass(frozen=True)
class UpdateOutcome:
    """What happened to one submitted update.

    ``accepted`` — passed validation (not quarantined).
    ``applied`` — answers reflect it (via ``strategy``).
    ``deferred`` — deprecated, always ``False``: every accepted update is
    applied through the overlay.
    """

    accepted: bool
    applied: bool
    reason: str | None = None
    strategy: str | None = None
    attempts: int = 0
    deferred: bool = False


@dataclass(frozen=True, slots=True)
class ServingResult:
    """An FSPQ answer plus how it was produced (``"index"`` | ``"fallback"``)."""

    result: FSPResult
    degraded: bool
    source: str


@dataclass(frozen=True, slots=True)
class ServingDistance:
    """A distance answer plus how it was produced."""

    value: float
    degraded: bool
    source: str


class ResilientEngine:
    """Fault-tolerant serving facade over an FRN + FAHL index.

    Parameters
    ----------
    frn:
        The flow-aware road network to serve.
    index:
        An existing :class:`FAHLIndex` over ``frn.graph`` (built from the
        FRN's predicted flow when omitted).  Must share the FRN's graph
        object — maintenance and degraded Dijkstra must see the same
        weights.
    max_retries:
        Consecutive failed consolidations tolerated before the engine
        escalates to the full :meth:`repair` rebuild.
    audit_samples, audit_seed:
        Size and seed of the sampled Dijkstra cross-check in :meth:`audit`.
    dead_letter_capacity:
        Bound of the quarantine ring buffer.
    kernel:
        Query-kernel selection forwarded to both wrapped engines
        (``"flat"`` default, ``"scalar"`` reference) — see
        :class:`~repro.core.fpsps.FlowAwareEngine`.
    overlay_capacity:
        Pending-edge count at which :meth:`submit` triggers a
        consolidation run.
    durability:
        Optional :class:`~repro.durability.Durability` manager.  When set,
        every accepted update is appended to the write-ahead log *before*
        it is absorbed (and therefore before the ack), its outcome is
        logged after, admission rejects and consolidation failures land
        in the log as dead-letter records, and each committed
        consolidation or :meth:`repair` writes a checkpoint and rotates
        the log.  :func:`repro.durability.recover` turns that directory
        back into a serving engine after a crash.
    update_mode:
        Deprecated (docs/API.md).  ``"overlay"`` names the only update
        path and is accepted silently; ``"inline"`` warns and changes
        nothing.
    """

    def __init__(
        self,
        frn: FlowAwareRoadNetwork,
        index: FAHLIndex | None = None,
        alpha: float = 0.5,
        eta_u: float = 3.0,
        pruning: str = "none",
        max_retries: int = 1,
        audit_samples: int = 24,
        audit_seed: int = 0,
        dead_letter_capacity: int = 1024,
        kernel: str = "flat",
        update_mode: str = "overlay",
        overlay_capacity: int = 64,
        durability=None,
    ) -> None:
        _warn_deprecated(update_mode)
        if index is None:
            index = FAHLIndex.from_frn(frn)
        if index.graph is not frn.graph:
            raise IndexStateError(
                "ResilientEngine needs the index and FRN to share one graph "
                "object — degraded Dijkstra must see the weights the index saw"
            )
        if max_retries < 0:
            raise QueryError(f"max_retries must be >= 0, got {max_retries}")
        self.frn = frn
        self.index = index
        self.overlay = DeltaOverlay(frn.graph, capacity=overlay_capacity)
        self.oracle = OverlayOracle(index, self.overlay)
        self._engine = FlowAwareEngine(
            frn, oracle=self.oracle, alpha=alpha, eta_u=eta_u, pruning=pruning,
            kernel=kernel,
        )
        self._fallback = FlowAwareEngine(
            frn, oracle=None, alpha=alpha, eta_u=eta_u, pruning=pruning,
            kernel=kernel,
        )
        self.max_retries = int(max_retries)
        self.audit_samples = int(audit_samples)
        self.audit_seed = int(audit_seed)
        self.dead_letters = DeadLetterQueue(dead_letter_capacity)
        self.state = HEALTHY
        self.metrics: Counter[str] = Counter()
        self._last_ts: dict[tuple, float] = {}
        self._last_audit_at: float | None = None
        self._last_audit_ok: bool | None = None
        self._invalidation_hooks: list[Callable[[], None]] = []
        self._task: ConsolidationTask | None = None
        self._pending_flows: dict[int, float] = {}
        self._consolidation_failures = 0
        self.durability = durability
        #: True while :func:`repro.durability.recover` replays the WAL —
        #: suppresses re-logging records that are already in the log
        self._replaying = False
        self.last_recovery = None
        #: flight-recorder dump captured at the last healthy->degraded flip
        self.last_degraded_flight: tuple = ()

    # ------------------------------------------------------------------
    # unified invalidation hook
    # ------------------------------------------------------------------
    def add_invalidation_hook(self, hook: Callable[[], None]) -> None:
        """Register a callback fired on every :meth:`invalidate`.

        Layers stacked above the engine (the sharded gateway's result
        cache, ...) register here so one maintenance
        event refreshes *every* derived cache — the engine's own flow
        cache and the listeners are bumped by the same call, never
        separately.
        """
        self._invalidation_hooks.append(hook)

    def invalidate(self) -> None:
        """Drop the engines' derived caches and notify every listener."""
        self._engine.invalidate()
        self._fallback.invalidate()
        self._notify_listeners()

    def _notify_listeners(self) -> None:
        """Fire the registered hooks without nuking the engines' caches.

        Overlay absorbs use this lighter path: the flat kernel rebuilds
        itself once the live graph's ``mutation_version`` moves and the
        flow cache does not depend on weights, but result caches stacked
        above (the gateway) key off epochs and must still be bumped.
        """
        for hook in self._invalidation_hooks:
            hook()

    # ------------------------------------------------------------------
    # telemetry plumbing (dual-write: self.metrics + the obs registry)
    # ------------------------------------------------------------------
    def _count(self, name: str, help_: str, amount: int = 1, **labels) -> None:
        registry = obs.get_registry()
        if registry.enabled:
            registry.counter(name, help_).inc(amount, **labels)

    def _sync_depth_gauges(self) -> None:
        registry = obs.get_registry()
        if not registry.enabled:
            return
        registry.gauge(
            "repro_serving_dead_letter_depth", "updates currently quarantined"
        ).set(len(self.dead_letters))
        registry.gauge(
            "repro_serving_consolidation_lag",
            "accepted updates not yet folded into the stable index",
        ).set(len(self.overlay) + len(self._pending_flows))

    # ------------------------------------------------------------------
    # write-ahead logging (no-ops without a durability manager, and during
    # WAL replay — replayed records are already in the log)
    # ------------------------------------------------------------------
    def _log_update(self, update: FlowUpdate | WeightUpdate) -> int | None:
        if self.durability is None or self._replaying:
            return None
        return self.durability.log_update(update)

    def _log_outcome(self, wal_seq: int | None, strategy: str) -> None:
        if wal_seq is not None:
            self.durability.log_outcome(wal_seq, strategy)

    def _log_dlq(self, update: object, reason: str, detail: str) -> None:
        if self.durability is None or self._replaying:
            return
        self.durability.log_dlq(update, reason, detail)

    def _set_state(self, new_state: str) -> None:
        if self.state == HEALTHY and new_state == DEGRADED:
            self._count(
                "repro_serving_degraded_transitions_total",
                "healthy-to-degraded state flips",
            )
            # black box: record the flip, then freeze what the engine was
            # doing right before it (the note itself is in the dump)
            obs_flight.note("serving.degraded_transition", state=new_state)
            self.last_degraded_flight = obs_flight.dump(last=16)
        self.state = new_state

    # ------------------------------------------------------------------
    # admission control
    # ------------------------------------------------------------------
    def _validate(self, update: object) -> tuple[str, str] | None:
        """Reject reason ``(token, detail)`` or ``None`` when admissible."""
        n = self.frn.num_vertices
        if isinstance(update, FlowUpdate):
            if not isinstance(update.vertex, int) or not 0 <= update.vertex < n:
                return "unknown-vertex", f"vertex {update.vertex!r} not in [0, {n})"
            if not _finite(update.value):
                return "non-finite", f"flow {update.value!r} is not finite"
            if update.value < 0:
                return "negative-flow", f"flow {update.value} is negative"
        elif isinstance(update, WeightUpdate):
            for vertex in (update.u, update.v):
                if not isinstance(vertex, int) or not 0 <= vertex < n:
                    return "unknown-vertex", f"vertex {vertex!r} not in [0, {n})"
            if not self.frn.graph.has_edge(update.u, update.v):
                return "unknown-edge", f"edge ({update.u}, {update.v}) not in graph"
            if not _finite(update.value):
                return "non-finite", f"weight {update.value!r} is not finite"
            if update.value <= 0:
                return "non-positive-weight", f"weight {update.value} is not positive"
        else:
            return "unsupported-type", f"cannot apply {type(update).__name__}"
        if not _finite(update.timestamp):
            return "non-finite", f"timestamp {update.timestamp!r} is not finite"
        last = self._last_ts.get(update.key)
        if last is not None and update.timestamp < last:
            return (
                "stale-timestamp",
                f"timestamp {update.timestamp} predates last accepted {last}",
            )
        return None

    # ------------------------------------------------------------------
    # update path
    # ------------------------------------------------------------------
    def submit(self, update: FlowUpdate | WeightUpdate) -> UpdateOutcome:
        """Validate and absorb one update; never raises on bad input.

        Invalid updates land in :attr:`dead_letters`; accepted ones are
        write-ahead logged and then absorbed by :meth:`_submit_overlay`.
        """
        rejection = self._validate(update)
        if rejection is not None:
            reason, detail = rejection
            self._log_dlq(update, reason, detail)
            self.dead_letters.push(update, reason, detail)
            self.metrics["updates_rejected"] += 1
            self._count(
                "repro_serving_updates_total",
                "submitted updates by admission outcome",
                outcome="rejected",
            )
            self._count(
                "repro_serving_quarantined_total",
                "updates quarantined at admission, by rejection reason",
                reason=reason,
            )
            self._sync_depth_gauges()
            return UpdateOutcome(accepted=False, applied=False, reason=reason)
        self._last_ts[update.key] = update.timestamp
        # log-before-ack: the update is in the WAL before it is absorbed,
        # so a crash from here on can never lose it
        wal_seq = self._log_update(update)
        return self._submit_overlay(update, wal_seq=wal_seq)

    def _submit_overlay(
        self,
        update: FlowUpdate | WeightUpdate,
        wal_seq: int | None = None,
    ) -> UpdateOutcome:
        """Absorb one validated update without touching the labels.

        Weight updates land in the overlay (the live graph changes, the
        index does not — queries answer from ``stable ⊕ overlay``); flow
        updates queue for the next consolidation, since flows steer the
        elimination ordering, never answer correctness.  Either way the
        serving index is never blocked on a label repair.
        """
        overlay = self.overlay
        if isinstance(update, WeightUpdate):
            if overlay.absorb(update.u, update.v, update.value):
                # results changed: bump listener epochs; the flat kernel
                # rebuilds itself off the graph's mutation version
                self._notify_listeners()
            strategy = "overlay"
        else:
            self._pending_flows[update.vertex] = update.value
            strategy = "overlay-queued"
        # outcome goes in *before* the is_full trigger below, so the
        # update/outcome pair always lands in the same WAL generation as
        # the consolidation marker + rotation it may cause
        self._log_outcome(wal_seq, strategy)
        self.metrics["updates_accepted"] += 1
        self._count(
            "repro_serving_updates_total",
            "submitted updates by admission outcome",
            outcome="accepted",
        )
        self._sync_depth_gauges()
        if overlay.is_full and self._task is None:
            self.consolidate()
        elif self.durability is not None and not self._replaying:
            self.durability.maybe_checkpoint(self)
        return UpdateOutcome(
            accepted=True, applied=True, strategy=strategy, attempts=1
        )

    @property
    def consolidation_pending(self) -> bool:
        """True when there is unconsolidated state (or a task in flight)."""
        return (
            self._task is not None
            or not self.overlay.is_empty
            or bool(self._pending_flows)
        )

    def maintenance_tick(self, steps: int = 1) -> str | None:
        """Advance background consolidation by up to ``steps`` small steps.

        The serving loop calls this between queries; each step is one
        bounded unit of :class:`~repro.core.overlay.ConsolidationTask`
        work, so queries never wait behind a full repair.  Returns the
        task state after the tick (``None`` when nothing is pending).
        A failed step discards the back buffer — the serving index was
        never touched — and counts toward the retry/escalation budget:
        after ``max_retries`` consecutive failures the engine pulls the
        full-rebuild valve.
        """
        if not self.consolidation_pending:
            return None
        if self._task is None:
            self._task = ConsolidationTask(
                self.index,
                self.overlay,
                flow_updates=dict(self._pending_flows),
                on_commit=self._install_back_buffer,
            )
        task = self._task
        try:
            state = task.state
            for _ in range(max(1, steps)):
                state = task.step()
                if state == "done":
                    break
        except Exception as exc:  # noqa: BLE001 — chaos faults are arbitrary
            self._task = None
            if task.committed:
                # the fault fired after the atomic swap: the new index is
                # live and exact, only bookkeeping remained
                self._finish_consolidation(task)
                return "done"
            return self._consolidation_failed(task, exc)
        if task.done:
            self._finish_consolidation(task)
        return task.state

    def consolidate(self) -> str | None:
        """Run consolidation to completion (a "tick" of unbounded size)."""
        state = self.maintenance_tick(steps=1)
        while self._task is not None and state not in (None, "done"):
            state = self.maintenance_tick(steps=1)
        return state

    def _install_back_buffer(self, back: FAHLIndex) -> None:
        """The atomic swap body — plain assignments only, nothing raises."""
        self.index = back
        self.oracle.index = back

    def _finish_consolidation(self, task: ConsolidationTask) -> None:
        self._task = None
        self._consolidation_failures = 0
        for vertex, flow in task.consolidated_flows.items():
            if self._pending_flows.get(vertex) == flow:
                del self._pending_flows[vertex]
        self.metrics["consolidations"] += 1
        self._count(
            "repro_serving_consolidations_total",
            "background consolidation swaps committed",
        )
        self.invalidate()
        # rebuild the flat kernel, label arena and sweep plan here, on the
        # consolidation plane — the first query after the swap must not
        # pay the arena rebuild
        self._engine.prime()
        self._sync_depth_gauges()
        if self.durability is not None and not self._replaying:
            # the fold is committed: mark it, persist the new stable index
            # and rotate the log so recovery replays only the fresh tail
            self.durability.log_consolidated()
            self.durability.checkpoint(self)

    def _consolidation_failed(
        self, task: ConsolidationTask, error: Exception
    ) -> str:
        """A consolidation step failed before the swap: discard and escalate.

        The back buffer is thrown away (the serving pair was never touched,
        so queries stay exact), the failure is recorded in the dead-letter
        queue, and after ``max_retries`` consecutive failures the engine
        escalates to the full :meth:`repair` rebuild valve — which does not
        depend on the incremental paths at all.
        """
        self._consolidation_failures += 1
        self.metrics["consolidation_failures"] += 1
        self._count(
            "repro_serving_consolidation_failures_total",
            "consolidation attempts aborted before the swap",
        )
        detail = (
            f"attempt {self._consolidation_failures} died in state "
            f"{task.state!r}: {error}"
        )
        self._log_dlq(None, "consolidation-failed", detail)
        self.dead_letters.push(None, "consolidation-failed", detail)
        self._sync_depth_gauges()
        if self._consolidation_failures > self.max_retries:
            self._consolidation_failures = 0
            self.repair()
            return "rebuilt"
        return "failed"

    @property
    def degraded(self) -> bool:
        return self.state != HEALTHY

    def query(self, query: FSPQuery) -> ServingResult:
        """Answer an FSPQ query, degrading to index-free search if needed."""
        # runs on every request: helper calls and keyword packing are
        # spelled out inline (tests/test_obs_overhead.py budgets this path)
        degraded = self.state != HEALTHY
        source = "fallback" if degraded else "index"
        engine = self._fallback if degraded else self._engine
        self.metrics["queries_degraded" if degraded else "queries_index"] += 1
        registry = obs.get_registry()
        if registry.enabled:
            registry.counter(
                "repro_serving_queries_total", "served queries by answer source"
            ).inc(source=source)
        with obs.front_door(
            "serving.query",
            metric="repro_serving_query_seconds",
            help="end-to-end serving query latency",
            labels=_SOURCE_LABELS[source],
            request=True,
        ) as door:
            if door.tracer is not None:
                door.annotate(source=source, src=query.source, dst=query.target)
            # a degraded answer burns error budget even when it is fast
            door.ok = not degraded
            result = engine.query(query)
        return ServingResult(result=result, degraded=degraded, source=source)

    def explain(self, source: int, target: int, timestep: int = 0):
        """EXPLAIN one query through the serving facade.

        Delegates to the engine :meth:`query` would use (fallback when
        degraded), so the answer fields stay bit-identical to a real
        query; see :meth:`repro.core.fpsps.FlowAwareEngine.explain`.
        """
        degraded = self.degraded
        engine = self._fallback if degraded else self._engine
        inner = engine.explain(source, target, timestep)
        return replace(
            inner,
            engine="resilient",
            degraded=degraded,
            answer_source="fallback" if degraded else "index",
        )

    def distance(self, u: int, v: int) -> ServingDistance:
        """Shortest spatial distance, degrading to direct Dijkstra if needed."""
        if self.degraded:
            self.metrics["queries_degraded"] += 1
            self._count(
                "repro_serving_queries_total",
                "served queries by answer source",
                source="fallback",
            )
            return ServingDistance(
                value=dijkstra_distance(self.frn.graph, u, v),
                degraded=True,
                source="fallback",
            )
        self.metrics["queries_index"] += 1
        self._count(
            "repro_serving_queries_total",
            "served queries by answer source",
            source="index",
        )
        return ServingDistance(
            value=self.oracle.distance(u, v), degraded=False, source="index"
        )

    def batch(
        self,
        queries: list[FSPQuery],
        workers: int = 1,
        timeout: float | None = None,
        kernel: str | None = None,
        report=None,
    ) -> list[ServingResult]:
        """Evaluate a workload, degrading to the index-free path if needed.

        Healthy engines fan the workload through
        :func:`repro.core.batch.batch_query` (target-grouped order, fork
        pool with ``workers > 1``); degraded engines answer serially from
        the fallback engine, query by query, exactly like :meth:`query`.
        ``timeout`` bounds each pool chunk; ``kernel`` overrides the
        kernel mode of whichever engine answers (the unified protocol
        batch signature, docs/API.md).
        """
        if kernel is not None and kernel not in KERNEL_MODES:
            raise QueryError(
                f"kernel must be one of {KERNEL_MODES}, got {kernel!r}"
            )
        with obs.front_door("serving.batch", queries=len(queries), workers=workers):
            if self.degraded:
                self.metrics["queries_degraded"] += len(queries)
                self._count(
                    "repro_serving_queries_total",
                    "served queries by answer source",
                    len(queries),
                    source="fallback",
                )
                with self._fallback.kernel_override(kernel):
                    return [
                        ServingResult(
                            result=self._fallback.query(query),
                            degraded=True,
                            source="fallback",
                        )
                        for query in queries
                    ]
            self.metrics["queries_index"] += len(queries)
            self._count(
                "repro_serving_queries_total",
                "served queries by answer source",
                len(queries),
                source="index",
            )
            results = self._engine.batch(
                queries, workers=workers, timeout=timeout, kernel=kernel,
                report=report,
            )
            return [
                ServingResult(result=result, degraded=False, source="index")
                for result in results
            ]

    @property
    def flow_engine(self) -> FlowAwareEngine:
        """The flow-aware engine answering right now (protocol accessor)."""
        return self._fallback if self.degraded else self._engine

    # ------------------------------------------------------------------
    # health / repair
    # ------------------------------------------------------------------
    def audit(self) -> AuditReport:
        """Run the sampled self-audit; a failed audit degrades the engine.

        The probe checks what queries actually see — ``stable ⊕ overlay``
        through the oracle — since the raw labels legitimately lag the
        live weights between consolidations.
        """
        report = verify_index(
            self.index,
            samples=self.audit_samples,
            seed=self.audit_seed,
            oracle=self.oracle,
        )
        self._last_audit_at = time.time()
        self._last_audit_ok = report.ok
        self._count(
            "repro_serving_audits_total",
            "sampled self-audits by result",
            ok=str(report.ok).lower(),
        )
        if not report.ok:
            self._set_state(DEGRADED)
            self.metrics["audits_failed"] += 1
        else:
            self.state = HEALTHY
        return report

    def repair(self) -> AuditReport:
        """Rebuild the index from scratch on the live graph and pending flows.

        A full rebuild does not depend on the incremental maintenance paths
        at all, so it recovers even from failures that defeat ISU, GSU and
        ILU alike.  The engine returns to healthy only if the post-repair
        audit passes.
        """
        flows = self.index.flows.copy()
        for vertex, value in self._pending_flows.items():
            flows[vertex] = value
        index = FAHLIndex(self.frn.graph, flows, beta=self.index.beta)
        # nothing below raises: the engine flips to the new index whole.
        # The rebuild saw the *current* weights, so the overlay empties:
        # its stable baseline is now the live graph itself
        self.index = index
        self._task = None
        self.oracle.index = index
        self.overlay.commit_rebase(({}, [], {}))
        self._pending_flows.clear()
        self.invalidate()
        self.metrics["repairs"] += 1
        self._count("repro_serving_repairs_total", "full index rebuilds")
        self._sync_depth_gauges()
        report = self.audit()
        if self.durability is not None and not self._replaying:
            # a rebuild invalidates everything the old WAL tail would
            # replay — persist the new world and start a fresh log
            self.durability.checkpoint(self)
        return report

    def status(self) -> EngineStatus:
        """Typed snapshot for telemetry/logging (attribute access only)."""
        return EngineStatus(
            state=self.state,
            deferred_updates=0,
            dead_letters_queued=len(self.dead_letters),
            dead_letters_seen=self.dead_letters.total_seen,
            last_audit_at=self._last_audit_at,
            last_audit_ok=self._last_audit_ok,
            metrics=dict(self.metrics),
            overlay_edges=len(self.overlay),
            overlay_hubs=self.overlay.num_hubs,
            pending_flow_updates=len(self._pending_flows),
            consolidation_state=None if self._task is None else self._task.state,
        )


def _warn_deprecated(update_mode: str) -> None:
    """One deprecation cycle for the retired inline update path."""
    if update_mode == "inline":
        warnings.warn(
            "update_mode='inline' is deprecated and serves through the "
            "overlay: ResilientEngine has one update path",
            DeprecationWarning,
            stacklevel=3,
        )
    elif update_mode != "overlay":
        raise QueryError(
            f"update_mode must be 'overlay' (or the deprecated 'inline'), "
            f"got {update_mode!r}"
        )


def _finite(value: object) -> bool:
    try:
        return math.isfinite(float(value))  # type: ignore[arg-type]
    except (TypeError, ValueError):
        return False

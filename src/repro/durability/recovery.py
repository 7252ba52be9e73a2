"""``recover(path)``: rebuild a serving engine from checkpoint + WAL tail.

The contract (tested by the crash matrix in ``tests/test_crash_matrix.py``):
after a kill at *any* instrumented point, ``recover`` returns an engine
whose answers are bit-identical to an index rebuilt from scratch on the
same acknowledged update history — zero acknowledged updates lost, the
dead-letter queue intact.

Strategy
--------
1. Walk checkpoint generations newest-first; use the first one whose
   manifest, file digests, archive checksum and index fingerprint all
   verify (:exc:`~repro.errors.IndexIntegrityError` and digest mismatches
   demote a generation, they never abort recovery while an older valid
   generation remains).
2. Restore the engine around the checkpoint: rewind the graph to the
   overlay's *stable* weights, re-absorb the overlay deltas, restore
   admission timestamps, pending flows and the DLQ.
3. Replay the WAL tail(s) — every log from the recovered generation up to
   the newest — through the overlay: every update with a logged
   ``outcome`` is absorbed again; updates whose outcome never reached the
   log (the crash raced the ack) are re-run through the full
   :meth:`~repro.serving.engine.ResilientEngine.submit` machinery;
   ``dlq`` records re-materialise quarantined letters.
4. If *no* checkpoint generation survives but the complete log history
   does (typically: the engine crashed before its first checkpoint),
   rebuild the index cold from the caller's FRN and replay everything.
   Otherwise raise :class:`~repro.errors.RecoveryError` — losing
   acknowledged updates silently is the one thing this module must never
   do.

Directories written while the engine still had an inline update path
recover the same way: their checkpoint's ``update_mode`` is ignored, its
``deferred`` updates are absorbed once the state is restored, and their
``ilu``/``isu``/``gsu`` and ``applied: false`` outcomes replay through
the overlay like any other acknowledged update.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from repro import obs
from repro.obs import flight as obs_flight
from repro.durability.crashpoints import crash_point
from repro.durability.manager import MANIFEST, Durability, _file_digest
from repro.durability.records import decode_update
from repro.durability.wal import scan_and_repair
from repro.errors import IndexIntegrityError, RecoveryError, ReproError
from repro.graph.frn import FlowAwareRoadNetwork
from repro.labeling.serialize import load_index
from repro.serving.engine import ResilientEngine
from repro.serving.updates import DeadLetter

__all__ = ["RecoveryReport", "recover"]


@dataclass(frozen=True)
class RecoveryReport:
    """What one :func:`recover` run did, for operators and tests."""

    #: checkpoint generation restored from (``None`` = cold rebuild)
    generation: int | None
    #: newer generations skipped because they failed verification
    fallback_generations: int
    #: the index was rebuilt from the FRN instead of a checkpoint
    cold_rebuild: bool
    #: logged updates routed through their recorded outcome
    replayed_updates: int
    #: logged updates whose outcome never hit the log (re-submitted whole)
    resubmitted_updates: int
    #: dead-letter records re-materialised from the log
    replayed_dead_letters: int
    #: consolidation markers re-run
    replayed_consolidations: int
    #: bytes cut off torn WAL tails during the repair scans
    torn_bytes: int
    #: total WAL records read (all replayed generations)
    wal_records: int
    duration_seconds: float
    #: flight-recorder tail captured when the report was cut — the span
    #: events and slow-query digests leading into/through the recovery,
    #: for post-mortem without a live tracer attached
    flight: tuple = ()


def _verify_generation(
    durability: Durability, generation: int
) -> tuple[object, dict]:
    """Load one checkpoint generation, verifying every integrity layer.

    Raises :class:`IndexIntegrityError` (or any :class:`ReproError`) on
    the first problem; the caller treats that as "try the next-older
    generation".
    """
    directory = durability.checkpoint_dir(generation)
    manifest_path = directory / MANIFEST
    try:
        manifest = json.loads(manifest_path.read_bytes())
    except (OSError, ValueError) as exc:
        raise IndexIntegrityError(manifest_path, f"unreadable manifest: {exc}")
    for name, expected in manifest.get("files", {}).items():
        path = directory / name
        if not path.exists():
            raise IndexIntegrityError(path, "file named in manifest is missing")
        actual = _file_digest(path)
        if actual != expected:
            raise IndexIntegrityError(
                path, "file digest does not match its manifest entry",
                expected_checksum=expected, actual_checksum=actual,
            )
    index = load_index(directory / "index.npz")
    state = json.loads((directory / "state.json").read_bytes())
    fingerprint = index.checksum()
    if state.get("index_checksum") != fingerprint:
        raise IndexIntegrityError(
            directory / "state.json",
            "index fingerprint does not match the checkpointed state",
            expected_checksum=state.get("index_checksum"),
            actual_checksum=fingerprint,
        )
    return index, state


def _restore_engine_state(engine: ResilientEngine, state: dict) -> None:
    """Install the checkpointed wrapper state on a fresh engine."""
    engine._last_ts = {tuple(key): ts for key, ts in state["last_ts"]}
    engine._pending_flows = {
        int(vertex): value for vertex, value in state["pending_flows"].items()
    }
    letters = state["dead_letters"]
    for item in letters["letters"]:
        engine.dead_letters._letters.append(
            DeadLetter(
                update=decode_update(item["update"]),
                reason=item["reason"],
                detail=item["detail"],
                sequence=int(item["sequence"]),
            )
        )
    engine.dead_letters.total_seen = int(letters["total_seen"])
    engine.dead_letters.by_reason = Counter(letters["by_reason"])
    engine.dead_letters._sequence = int(letters["total_seen"])
    engine.metrics = Counter(state["metrics"])
    engine.state = state["state"]
    # an inline-mode checkpoint parked updates whose maintenance failed
    # for the next repair; absorbing them keeps every acknowledged one
    for item in state.get("deferred", ()):
        engine._submit_overlay(decode_update(item))


def recover(
    path: str | Path,
    frn: FlowAwareRoadNetwork,
    *,
    fsync: str = "interval",
    fsync_every: int = 32,
    auto_checkpoint: int | None = None,
    retain: int = 2,
    checkpoint_on_recover: bool = True,
    **engine_kwargs,
) -> ResilientEngine:
    """Restore a :class:`ResilientEngine` from a durability directory.

    Parameters
    ----------
    path:
        The directory a :class:`~repro.durability.Durability` manager was
        (or will be) rooted at.
    frn:
        A flow-aware road network built the same way as the crashed
        engine's (same dataset, scale and seed).  Recovery serves from the
        checkpointed *graph* (weights included) but borrows the FRN's flow
        series and lanes, which the checkpoint does not store.
    checkpoint_on_recover:
        Write a fresh checkpoint once replay finishes (default), so a
        second crash recovers fast and the replayed log is retired.
    engine_kwargs:
        Forwarded to :class:`ResilientEngine` (``alpha``, ``kernel``,
        ``max_retries``, ...).

    Returns the recovered engine with a fresh durability manager attached
    and the :class:`RecoveryReport` available as ``engine.last_recovery``.
    """
    clock = obs.stopwatch(
        "repro_durability_recovery_seconds", help="wall time of one recover() run"
    ).begin()
    obs_flight.note("durability.recover", path=str(path))
    if not Path(path).is_dir():
        # a Durability manager always creates its root eagerly, so a
        # missing directory is an operator typo, not an empty world
        raise RecoveryError(f"no durability directory at {path}")
    durability = Durability(
        path, fsync=fsync, fsync_every=fsync_every,
        auto_checkpoint=auto_checkpoint, retain=retain,
    )
    torn_bytes = durability.wal.torn_bytes

    index = None
    state: dict | None = None
    used_generation: int | None = None
    fallbacks = 0
    for generation in durability.list_checkpoints():
        try:
            index, state = _verify_generation(durability, generation)
        except ReproError:
            fallbacks += 1
            continue
        used_generation = generation
        break

    if used_generation is not None:
        assert index is not None and state is not None
        graph = index.graph
        if graph.num_vertices != frn.num_vertices:
            raise RecoveryError(
                f"checkpoint graph has {graph.num_vertices} vertices but the "
                f"supplied FRN has {frn.num_vertices} — recover() needs the "
                "FRN the engine was built from"
            )
        # index.npz stores the *live* graph; the labels assume the stable
        # weights.  Rewind, then re-absorb so stable ⊕ overlay is rebuilt
        # exactly as it was.
        overlay_entries = state.get("overlay", [])
        for u, v, stable, _current in overlay_entries:
            graph.set_weight(int(u), int(v), float(stable))
        recovered_frn = FlowAwareRoadNetwork(
            graph, frn.flow, frn.predicted_flow, frn.lanes
        )
        engine = ResilientEngine(
            recovered_frn, index=index, durability=durability, **engine_kwargs
        )
        engine._replaying = True
        for u, v, _stable, current in overlay_entries:
            engine.overlay.absorb(int(u), int(v), float(current))
        _restore_engine_state(engine, state)
        replay_generations = range(used_generation, durability.generation + 1)
    else:
        # no checkpoint survived: cold rebuild is exact only with the
        # complete log history (nothing pruned)
        missing = [
            g for g in range(durability.generation + 1)
            if not durability.wal_path(g).exists()
        ]
        if durability.list_checkpoints() or missing:
            durability.close()
            raise RecoveryError(
                f"no checkpoint generation under {path} verifies and the WAL "
                f"history is incomplete (missing generations {missing}) — "
                "acknowledged updates would be lost"
            )
        engine = ResilientEngine(frn, durability=durability, **engine_kwargs)
        engine._replaying = True
        replay_generations = range(durability.generation + 1)

    # ------------------------------------------------------------------
    # WAL tail replay
    # ------------------------------------------------------------------
    replayed = resubmitted = dlq_replayed = consolidations = 0
    wal_records = 0
    for generation in replay_generations:
        if generation == durability.generation:
            records = durability.wal.recovered_records
        else:
            records, torn = scan_and_repair(durability.wal_path(generation))
            torn_bytes += torn
        wal_records += len(records)
        pending: dict[int, object] = {}
        for record in records:
            crash_point("recover:mid-replay")
            kind = record.get("type")
            if kind == "update":
                pending[int(record["seq"])] = decode_update(record["update"])
            elif kind == "outcome":
                update = pending.pop(int(record["ref"]), None)
                if update is not None:
                    engine._last_ts[update.key] = update.timestamp
                    engine._submit_overlay(update)
                    replayed += 1
            elif kind == "dlq":
                update = decode_update(record["update"])
                engine.dead_letters.push(
                    update, record["reason"], record["detail"]
                )
                # keep the lifetime counters honest: a quarantined update
                # was an admission reject, an update-less letter a
                # consolidation-failure note
                if update is not None:
                    engine.metrics["updates_rejected"] += 1
                else:
                    engine.metrics["consolidation_failures"] += 1
                dlq_replayed += 1
            elif kind == "consolidated":
                engine.consolidate()
                consolidations += 1
        # updates whose ack raced the crash: run the full machinery
        for update in pending.values():
            engine.submit(update)
            resubmitted += 1

    engine._replaying = False
    engine.invalidate()
    engine._sync_depth_gauges()
    if checkpoint_on_recover:
        durability.checkpoint(engine)

    duration = clock.end()
    report = RecoveryReport(
        generation=used_generation,
        fallback_generations=fallbacks,
        cold_rebuild=used_generation is None,
        replayed_updates=replayed,
        resubmitted_updates=resubmitted,
        replayed_dead_letters=dlq_replayed,
        replayed_consolidations=consolidations,
        torn_bytes=torn_bytes,
        wal_records=wal_records,
        duration_seconds=duration,
        # the note above plus everything recorded since — replayed
        # dead-letter pushes, slow queries, span events — ends up here
        flight=obs_flight.dump(last=32),
    )
    engine.last_recovery = report
    registry = obs.get_registry()
    if registry.enabled:
        registry.counter(
            "repro_durability_recoveries_total",
            "recover() runs by restore source",
            source="cold" if report.cold_rebuild else "checkpoint",
        ).inc()
        registry.counter(
            "repro_durability_replayed_total",
            "WAL records re-applied during recovery, by kind",
        ).inc(replayed + resubmitted, kind="update")
        registry.counter(
            "repro_durability_replayed_total",
            "WAL records re-applied during recovery, by kind",
        ).inc(dlq_replayed, kind="dlq")
    return engine

"""The durability manager: one WAL + checkpoint generations per engine.

Directory layout (one directory per :class:`~repro.serving.engine.ResilientEngine`,
so a sharded deployment gives every shard its own)::

    <root>/
      wal-00000000.log      generation-0 log (before any checkpoint)
      ckpt-00000001/        checkpoint generation 1
        index.npz           the serving index (.npz format v2, checksummed)
        state.json          overlay / DLQ / pending-flow / timestamp state
        MANIFEST.json       written last, atomically (tmp + rename)
      wal-00000001.log      records accepted *after* checkpoint 1
      ...

A checkpoint is **valid** iff its ``MANIFEST.json`` exists and every file
digest in it matches — the manifest is renamed into place only after
``index.npz`` and ``state.json`` are fsynced, so a kill anywhere inside
:meth:`Durability.checkpoint` leaves either a complete generation or an
ignorable partial one, never a half-trusted one.  The WAL is rotated in
the same step: records accepted after generation ``g`` land in
``wal-g.log``, which is exactly the tail :func:`repro.durability.recover`
replays on top of checkpoint ``g``.  The previous ``retain`` generations
(checkpoint + log) are kept as fallbacks; older ones are pruned.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from pathlib import Path

from repro import obs
from repro.durability.crashpoints import crash_point
from repro.durability.records import (
    consolidated_record,
    dlq_record,
    encode_update,
    outcome_record,
    update_record,
)
from repro.durability.wal import FSYNC_POLICIES, WriteAheadLog
from repro.errors import RecoveryError

__all__ = ["Durability"]

_STATE_FORMAT = 1
MANIFEST = "MANIFEST.json"


def _file_digest(path: Path) -> str:
    h = hashlib.blake2b(digest_size=16)
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _fsync_path(path: Path) -> None:
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def engine_state(engine) -> dict:
    """Everything a :class:`ResilientEngine` holds outside its index.

    The index itself (labels + graph) goes to ``index.npz``; this JSON
    document captures the serving wrapper: admission timestamps, the
    dead-letter queue, pending flows and — crucially — the
    overlay's ``(stable, current)`` weight pairs, because ``index.npz``
    stores the *live* graph weights while the labels assume the *stable*
    ones.  Recovery rewinds the graph to stable and re-absorbs.
    """
    return {
        "format": _STATE_FORMAT,
        "state": engine.state,
        "index_checksum": engine.index.checksum(),
        "last_ts": [[list(key), ts] for key, ts in engine._last_ts.items()],
        "pending_flows": {
            str(vertex): value
            for vertex, value in engine._pending_flows.items()
        },
        "overlay": [
            [e.u, e.v, e.stable, e.current]
            for e in engine.overlay.edges.values()
        ],
        "dead_letters": {
            "capacity": engine.dead_letters._letters.maxlen,
            "total_seen": engine.dead_letters.total_seen,
            "by_reason": dict(engine.dead_letters.by_reason),
            "letters": [
                {
                    "update": (
                        None if letter.update is None
                        else encode_update(letter.update)
                    ),
                    "reason": letter.reason,
                    "detail": letter.detail,
                    "sequence": letter.sequence,
                }
                for letter in engine.dead_letters
            ],
        },
        "metrics": dict(engine.metrics),
    }


class Durability:
    """WAL + checkpoint lifecycle for one engine directory.

    Parameters
    ----------
    root:
        Directory owning this engine's log and checkpoint generations
        (created if missing).
    fsync:
        ``"always"`` | ``"interval"`` | ``"never"`` — see
        :mod:`repro.durability.wal`.
    fsync_every:
        Interval-policy fsync cadence, in appended records.
    auto_checkpoint:
        When set, :meth:`maybe_checkpoint` triggers a checkpoint every
        this-many logged updates (consolidations and :meth:`checkpoint`
        calls reset the counter).  ``None`` disables the cadence —
        checkpoints then happen only at consolidations/repairs.
    retain:
        Checkpoint generations (and their WAL tails) kept as fallbacks.
    """

    def __init__(
        self,
        root: str | Path,
        fsync: str = "interval",
        fsync_every: int = 32,
        auto_checkpoint: int | None = None,
        retain: int = 2,
    ) -> None:
        if fsync not in FSYNC_POLICIES:
            raise RecoveryError(
                f"fsync policy must be one of {FSYNC_POLICIES}, got {fsync!r}"
            )
        if auto_checkpoint is not None and auto_checkpoint < 1:
            raise RecoveryError(
                f"auto_checkpoint must be >= 1 or None, got {auto_checkpoint}"
            )
        if retain < 1:
            raise RecoveryError(f"retain must be >= 1, got {retain}")
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.fsync = fsync
        self.fsync_every = int(fsync_every)
        self.auto_checkpoint = auto_checkpoint
        self.retain = int(retain)
        self.generation = self._discover_generation()
        self.updates_since_checkpoint = 0
        self.wal = WriteAheadLog(
            self.wal_path(self.generation), fsync=fsync, fsync_every=fsync_every
        )

    # ------------------------------------------------------------------
    # layout
    # ------------------------------------------------------------------
    def wal_path(self, generation: int) -> Path:
        return self.root / f"wal-{generation:08d}.log"

    def checkpoint_dir(self, generation: int) -> Path:
        return self.root / f"ckpt-{generation:08d}"

    def _discover_generation(self) -> int:
        """Newest generation with *any* on-disk trace (manifest or log)."""
        newest = 0
        for path in self.root.iterdir():
            name = path.name
            if name.startswith("ckpt-") and (path / MANIFEST).exists():
                newest = max(newest, int(name[len("ckpt-"):]))
            elif name.startswith("wal-") and name.endswith(".log"):
                newest = max(newest, int(name[len("wal-"):-len(".log")]))
        return newest

    def list_checkpoints(self) -> list[int]:
        """Manifest-bearing generations, newest first."""
        found = [
            int(path.name[len("ckpt-"):])
            for path in self.root.iterdir()
            if path.name.startswith("ckpt-") and (path / MANIFEST).exists()
        ]
        return sorted(found, reverse=True)

    # ------------------------------------------------------------------
    # engine-facing logging (all called before the ack they protect)
    # ------------------------------------------------------------------
    def log_update(self, update) -> int:
        seq = self.wal.append(update_record(update))
        self.updates_since_checkpoint += 1
        self._sync_lag_gauge()
        return seq

    def log_outcome(self, ref: int, strategy: str) -> int:
        return self.wal.append(outcome_record(ref, strategy))

    def log_dlq(self, update, reason: str, detail: str) -> int:
        return self.wal.append(dlq_record(update, reason, detail))

    def log_consolidated(self) -> int:
        return self.wal.append(consolidated_record())

    def should_checkpoint(self) -> bool:
        return (
            self.auto_checkpoint is not None
            and self.updates_since_checkpoint >= self.auto_checkpoint
        )

    def _sync_lag_gauge(self) -> None:
        registry = obs.get_registry()
        if registry.enabled:
            registry.gauge(
                "repro_durability_wal_lag",
                "acknowledged updates not yet covered by a checkpoint",
            ).set(self.updates_since_checkpoint)

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------
    def checkpoint(self, engine) -> int:
        """Persist ``engine`` as a new generation, then rotate the WAL.

        Ordering is the whole design: every file of the generation is
        written and fsynced *before* the manifest rename publishes it,
        and the manifest is durable *before* the old log stops being the
        current one.  A kill at any point leaves the previous generation
        plus its complete log — nothing acknowledged is ever stranded.
        """
        from repro.labeling.serialize import save_index

        with obs.stopwatch(
            "repro_durability_checkpoint_seconds",
            help="wall time to write one checkpoint generation",
        ):
            self.wal.sync()  # barrier: the log covers everything acked so far
            generation = self.generation + 1
            directory = self.checkpoint_dir(generation)
            crash_point("checkpoint:start")
            if directory.exists():
                # debris from a previously killed attempt at this generation
                shutil.rmtree(directory)
            directory.mkdir(parents=True)
            index_path = directory / "index.npz"
            save_index(engine.index, index_path)
            _fsync_path(index_path)
            crash_point("checkpoint:index-written")
            state_path = directory / "state.json"
            state_bytes = json.dumps(engine_state(engine), indent=1).encode()
            with open(state_path, "wb") as handle:
                handle.write(state_bytes)
                handle.flush()
                os.fsync(handle.fileno())
            crash_point("checkpoint:state-written")
            manifest = {
                "format": _STATE_FORMAT,
                "generation": generation,
                "files": {
                    "index.npz": _file_digest(index_path),
                    "state.json": _file_digest(state_path),
                },
                "wal": self.wal_path(generation).name,
            }
            tmp_path = directory / (MANIFEST + ".tmp")
            with open(tmp_path, "wb") as handle:
                handle.write(json.dumps(manifest, indent=1).encode())
                handle.flush()
                os.fsync(handle.fileno())
            crash_point("checkpoint:manifest")
            os.replace(tmp_path, directory / MANIFEST)
            _fsync_path(directory)
            crash_point("checkpoint:rotate")
            old_wal = self.wal
            self.wal = WriteAheadLog(
                self.wal_path(generation), fsync=self.fsync,
                fsync_every=self.fsync_every,
            )
            old_wal.close()
            self.generation = generation
            self.updates_since_checkpoint = 0
            self._prune()
            self._sync_lag_gauge()
        obs.counter(
            "repro_durability_checkpoints_total",
            "checkpoint generations written",
        ).inc()
        return generation

    def maybe_checkpoint(self, engine) -> int | None:
        """Run the auto-cadence checkpoint when it is due."""
        if self.should_checkpoint():
            return self.checkpoint(engine)
        return None

    def _prune(self) -> None:
        """Drop generations older than the ``retain`` fallback window."""
        floor = self.generation - self.retain + 1
        for path in list(self.root.iterdir()):
            name = path.name
            if name.startswith("ckpt-"):
                generation = int(name[len("ckpt-"):])
                if generation < floor:
                    shutil.rmtree(path, ignore_errors=True)
            elif name.startswith("wal-") and name.endswith(".log"):
                generation = int(name[len("wal-"):-len(".log")])
                if generation < floor:
                    path.unlink(missing_ok=True)

    # ------------------------------------------------------------------
    def close(self) -> None:
        self.wal.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Durability({self.root}, generation={self.generation}, "
            f"fsync={self.fsync!r}, lag={self.updates_since_checkpoint})"
        )

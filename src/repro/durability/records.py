"""WAL record payloads: typed envelopes and their JSON wire form.

Four record types cover everything the serving layer acknowledges:

``update``
    An accepted :class:`~repro.serving.updates.WeightUpdate` or
    :class:`~repro.serving.updates.FlowUpdate`, appended *before* it is
    absorbed (and therefore before the ack).
``outcome``
    A previously logged update (``ref`` is its WAL sequence number) went
    live with ``strategy`` ``"overlay"`` (weights) or ``"overlay-queued"``
    (flows).  Logs written before overlay became the only update path
    also carry ``"ilu"``/``"isu"``/``"gsu"`` and ``applied: false``
    (deferred) outcomes; recovery replays those through the overlay too.
    An ``update`` with no ``outcome`` in the log means the crash raced the
    ack — recovery re-submits it through the full machinery.
``dlq``
    A dead-letter push that replay cannot re-derive (admission rejects,
    consolidation-failure notes).  ``update`` may be ``None``.
``consolidated``
    The overlay was folded into the stable index and the swap committed.
    Normally followed immediately by a checkpoint + WAL rotation; the
    marker only survives in a log whose checkpoint never completed, where
    it tells replay to re-run the fold.

Payloads are JSON objects — small, stdlib-only, self-describing; the
framing/checksum layer lives in :mod:`repro.durability.wal`.
"""

from __future__ import annotations

from repro.errors import RecoveryError
from repro.serving.updates import FlowUpdate, WeightUpdate

__all__ = [
    "consolidated_record",
    "decode_update",
    "dlq_record",
    "encode_update",
    "outcome_record",
    "update_record",
]


def encode_update(update: FlowUpdate | WeightUpdate) -> dict:
    if isinstance(update, WeightUpdate):
        return {
            "kind": "weight",
            "u": update.u,
            "v": update.v,
            "value": update.value,
            "timestamp": update.timestamp,
        }
    if isinstance(update, FlowUpdate):
        return {
            "kind": "flow",
            "vertex": update.vertex,
            "value": update.value,
            "timestamp": update.timestamp,
        }
    raise RecoveryError(
        f"cannot serialize {type(update).__name__} into the write-ahead log"
    )


def decode_update(payload: dict | None) -> FlowUpdate | WeightUpdate | None:
    if payload is None:
        return None
    kind = payload.get("kind")
    if kind == "weight":
        return WeightUpdate(
            int(payload["u"]),
            int(payload["v"]),
            float(payload["value"]),
            float(payload["timestamp"]),
        )
    if kind == "flow":
        return FlowUpdate(
            int(payload["vertex"]),
            float(payload["value"]),
            float(payload["timestamp"]),
        )
    raise RecoveryError(f"unknown update kind {kind!r} in the write-ahead log")


def update_record(update: FlowUpdate | WeightUpdate) -> dict:
    return {"type": "update", "update": encode_update(update)}


def outcome_record(ref: int, strategy: str) -> dict:
    return {"type": "outcome", "ref": ref, "applied": True,
            "strategy": strategy}


def dlq_record(
    update: FlowUpdate | WeightUpdate | None, reason: str, detail: str
) -> dict:
    return {
        "type": "dlq",
        "update": None if update is None else encode_update(update),
        "reason": reason,
        "detail": detail,
    }


def consolidated_record() -> dict:
    return {"type": "consolidated"}

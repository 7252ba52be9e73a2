"""Always-on flight recorder: a bounded lock-free ring of recent events.

The recorder keeps the last ``capacity`` events — span events mirrored
from the active tracer, slow-query digests, and structural notes
(degraded-mode transitions, dead-letter pushes, recovery starts) — in a
preallocated ring buffer.  Writers claim a slot with one
``next(itertools.count())`` (atomic under the GIL) and store a reference;
no locks, no allocation beyond the event dict itself, so the recorder
stays on even on the hot serving path.

When something goes wrong, the ring is the black box: dead letters,
``RecoveryReport``, and degraded-mode transitions each capture a
:func:`dump` so postmortems see *what the engine was doing* right before
the incident, not just which counters moved.

Memory is strictly bounded: the slot list never grows past ``capacity``
and old events are overwritten, never accumulated (proved by test).
"""

from __future__ import annotations

import itertools
import time

__all__ = [
    "FlightRecorder",
    "dump",
    "get_flight",
    "note",
    "record_event",
    "set_flight",
]

#: default latency above which a query gets a slow-query digest (seconds)
DEFAULT_SLOW_THRESHOLD = 0.025

#: default ring capacity (events); ~a few hundred bytes per event
DEFAULT_CAPACITY = 512


class FlightRecorder:
    """Bounded ring of recent events; lock-free single-writer slots."""

    __slots__ = ("capacity", "slow_threshold", "_slots", "_ticket")

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        slow_threshold: float = DEFAULT_SLOW_THRESHOLD,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"flight recorder capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self.slow_threshold = float(slow_threshold)
        self._slots: list[tuple[int, dict] | None] = [None] * self.capacity
        # next(count) is a single C-level op: atomic under the GIL, so
        # concurrent writers always claim distinct tickets (and slots)
        self._ticket = itertools.count()

    def __len__(self) -> int:
        return sum(1 for slot in self._slots if slot is not None)

    def record(self, event: dict) -> None:
        """Store one event, overwriting the oldest when the ring is full."""
        ticket = next(self._ticket)
        self._slots[ticket % self.capacity] = (ticket, event)

    def note(self, name: str, **attrs: object) -> None:
        """Record a structural event (state change, incident, milestone)."""
        event: dict = {"event": "note", "name": name, "ts": time.time()}
        if attrs:
            event["attrs"] = attrs
        self.record(event)

    def observe_query(self, name: str, seconds: float, **attrs: object) -> None:
        """Record a slow-query digest when latency crosses the threshold."""
        if seconds < self.slow_threshold:
            return
        event: dict = {
            "event": "slow_query",
            "name": name,
            "ts": time.time(),
            "dur_s": float(seconds),
        }
        if attrs:
            event["attrs"] = attrs
        self.record(event)

    def dump(
        self, last: int | None = None, seconds: float | None = None
    ) -> list[dict]:
        """Snapshot of the ring in arrival order (oldest first).

        ``last`` keeps only the newest N events; ``seconds`` keeps events
        whose timestamp falls within the trailing window.  Reads race
        benignly with writers: a concurrent overwrite yields the newer
        event, never a torn one (slot writes are single references).
        """
        entries = [slot for slot in list(self._slots) if slot is not None]
        entries.sort(key=lambda pair: pair[0])
        events = [event for _, event in entries]
        if seconds is not None:
            cutoff = time.time() - seconds
            events = [
                event
                for event in events
                if _event_time(event) >= cutoff
            ]
        if last is not None:
            events = events[-last:]
        return events

    def clear(self) -> None:
        self._slots = [None] * self.capacity


def _event_time(event: dict) -> float:
    """Best-effort wall-clock timestamp of an event (0.0 when absent)."""
    for key in ("ts", "end", "start"):
        value = event.get(key)
        if isinstance(value, (int, float)):
            return float(value)
    return 0.0


# ----------------------------------------------------------------------
# module-global recorder (always on; mirrors the registry pattern)
# ----------------------------------------------------------------------
_FLIGHT: FlightRecorder | None = FlightRecorder()


def get_flight() -> FlightRecorder | None:
    return _FLIGHT


def set_flight(recorder: FlightRecorder | None) -> FlightRecorder | None:
    """Install (or, with ``None``, suppress) the process flight recorder."""
    global _FLIGHT
    previous = _FLIGHT
    _FLIGHT = recorder
    return previous


def record_event(event: dict) -> None:
    recorder = _FLIGHT
    if recorder is not None:
        recorder.record(event)


def note(name: str, **attrs: object) -> None:
    recorder = _FLIGHT
    if recorder is not None:
        recorder.note(name, **attrs)


def dump(last: int | None = None, seconds: float | None = None) -> tuple[dict, ...]:
    """Dump the global ring (empty tuple when suppressed)."""
    recorder = _FLIGHT
    if recorder is None:
        return ()
    return tuple(recorder.dump(last=last, seconds=seconds))

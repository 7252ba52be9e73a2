"""Flow-interval-aware result cache with epoch-based invalidation.

The gateway caches query answers keyed on ``(source, target, flow-interval
epoch)`` — concretely the FSPQ triple ``(source, target, timestep)`` for
full queries and ``(u, v)`` for pure distances.  Instead of scanning the
cache on every maintenance operation, each entry records the *epochs* it
was computed under:

* a **global weight epoch**, bumped on any accepted weight update (a
  weight change anywhere can reroute any path via the boundary tables);
* the **per-shard epochs** of the source and target shards, bumped by each
  shard's maintenance through the unified invalidation hook.

A lookup whose recorded epochs no longer match the current ones simply
drops the entry — stale results die lazily, O(1) per touch, without any
scan.  Eviction is LRU via :class:`collections.OrderedDict`.

Overlay serving rides the same machinery: an overlay **absorb** fires the
shard's invalidation hook (epoch bump — the answer changed even though
the labels did not), and the background consolidation's atomic **swap**
fires it again through the engine's full ``invalidate()``.  Entries
computed against any pre-swap ``stable ⊕ overlay`` pair therefore
self-invalidate, and a query can never read a result cached under a
half-consolidated state — the swap is a single epoch transition.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from repro.errors import QueryError

__all__ = ["CacheStats", "ResultCache"]


@dataclass(frozen=True)
class CacheStats:
    """Counter snapshot of one :class:`ResultCache`."""

    hits: int
    misses: int
    stale_drops: int
    evictions: int
    size: int
    capacity: int

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class ResultCache:
    """An LRU cache whose entries self-invalidate on epoch mismatch.

    Parameters
    ----------
    capacity:
        Maximum number of live entries; least-recently-used entries are
        evicted beyond it.
    """

    def __init__(self, capacity: int = 4096) -> None:
        if capacity < 1:
            raise QueryError(f"cache capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self._entries: OrderedDict[tuple, tuple[object, tuple[int, ...]]] = (
            OrderedDict()
        )
        self.hits = 0
        self.misses = 0
        self.stale_drops = 0
        self.evictions = 0

    def lookup(self, key: tuple, epochs: tuple[int, ...]):
        """The cached payload, or ``None`` on miss / stale entry.

        ``epochs`` is the tuple of *current* epochs relevant to ``key``;
        an entry recorded under different epochs is deleted on touch.
        """
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        payload, recorded = entry
        if recorded != epochs:
            del self._entries[key]
            self.stale_drops += 1
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return payload

    def peek(self, key: tuple, epochs: tuple[int, ...]):
        """What :meth:`lookup` would return, with no side effects.

        Counts nothing, keeps the LRU order and leaves a stale entry in
        place for the next real lookup to drop — the probe EXPLAIN uses.
        """
        entry = self._entries.get(key)
        if entry is None or entry[1] != epochs:
            return None
        return entry[0]

    def put(self, key: tuple, payload: object, epochs: tuple[int, ...]) -> None:
        """Record ``payload`` for ``key`` under the given epochs."""
        if key in self._entries:
            self._entries.move_to_end(key)
        self._entries[key] = (payload, epochs)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1

    def clear(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def stats(self) -> CacheStats:
        return CacheStats(
            hits=self.hits,
            misses=self.misses,
            stale_drops=self.stale_drops,
            evictions=self.evictions,
            size=len(self._entries),
            capacity=self.capacity,
        )

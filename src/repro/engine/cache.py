"""A small thread-safe LRU cache with hit/miss statistics.

The evaluation engine memoizes its expensive, endlessly re-requested
intermediates — communication-edge arrays keyed by ``(grid, stencil)``,
permutations and costs keyed by instance and mapper spec — behind
instances of this cache.  ``functools.lru_cache`` is unsuitable because the engine
needs per-cache statistics, explicit invalidation, and a compute
callback supplied at call time rather than bound at decoration time.

The lock guards the entries and counters, not the work: a compute
callback runs outside it, so two threads that miss one key at once may
both compute it, and the later ``put`` wins.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from collections.abc import Callable, Hashable
from dataclasses import dataclass
from typing import Any

__all__ = ["CacheStats", "LRUCache"]


@dataclass(frozen=True)
class CacheStats:
    """Point-in-time counters of one cache."""

    hits: int
    misses: int
    size: int
    capacity: int

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class LRUCache:
    """Least-recently-used mapping with a fixed capacity.

    Parameters
    ----------
    capacity:
        Maximum number of entries; the least recently *used* entry is
        evicted when a new key would exceed it.  Must be positive.
    """

    def __init__(self, capacity: int):
        capacity = int(capacity)
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self._capacity = capacity
        self._data: OrderedDict[Hashable, Any] = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0

    def get_or_compute(self, key: Hashable, compute: Callable[[], Any]) -> Any:
        """Return the cached value of *key*, computing and storing on miss.

        The callback runs outside the lock, so misses on different keys
        do not serialise and a callback may call back into the cache.
        Concurrent misses on one key each run the callback (each a
        miss); the later store wins.  A callback that raises stores
        nothing.
        """
        with self._lock:
            if key in self._data:
                self._hits += 1
                self._data.move_to_end(key)
                return self._data[key]
            self._misses += 1
        value = compute()
        self.put(key, value)
        return value

    def get(self, key: Hashable, default: Any = None) -> Any:
        """Return the cached value of *key* or *default* (counts as a
        hit/miss like :meth:`get_or_compute`)."""
        with self._lock:
            if key in self._data:
                self._hits += 1
                self._data.move_to_end(key)
                return self._data[key]
            self._misses += 1
            return default

    def put(self, key: Hashable, value: Any) -> None:
        """Insert or refresh an entry, evicting the LRU entry if full."""
        with self._lock:
            if key in self._data:
                self._data.move_to_end(key)
            self._data[key] = value
            while len(self._data) > self._capacity:
                self._data.popitem(last=False)

    def clear(self) -> None:
        """Drop every entry (statistics are kept)."""
        with self._lock:
            self._data.clear()

    def stats(self) -> CacheStats:
        """Current hit/miss/occupancy counters."""
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                size=len(self._data),
                capacity=self._capacity,
            )

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._data

    def __repr__(self) -> str:
        s = self.stats()
        return (
            f"LRUCache(size={s.size}/{s.capacity}, "
            f"hits={s.hits}, misses={s.misses})"
        )

"""A small thread-safe LRU cache with hit/miss statistics.

The evaluation engine memoizes its expensive, endlessly re-requested
intermediates — communication-edge arrays keyed by ``(grid, stencil)``,
permutations and costs keyed by instance and mapper spec — behind
instances of this cache.  ``functools.lru_cache`` is unsuitable because the engine
needs per-cache statistics, explicit invalidation, and a compute
callback supplied at call time rather than bound at decoration time.

``get_or_compute`` is single-flight: when threads sharing one engine
(the portfolio search's candidate threads) miss on the same key at
once — typical at the start of a race, when every candidate wants the
same instance's edge array — exactly one computes and the rest wait for
its value.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from collections.abc import Callable, Hashable
from dataclasses import dataclass
from typing import Any

__all__ = ["CacheStats", "LRUCache"]


class _Flight:
    """One in-progress computation that concurrent callers wait on."""

    __slots__ = ("done", "value", "failed", "owner")

    def __init__(self):
        self.done = threading.Event()
        self.value: Any = None
        self.failed = False
        self.owner = threading.get_ident()


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
        self._pending: dict[Hashable, _Flight] = {}
        self._hits = 0
        self._misses = 0

    def get_or_compute(self, key: Hashable, compute: Callable[[], Any]) -> Any:
        """Return the cached value of *key*, computing and storing on miss.

        Computation is *single-flight*: the compute callback runs
        outside the lock (so misses on different keys do not serialise),
        but concurrent misses on the *same* key elect one leader — the
        others block until the leader's value is stored and share it,
        instead of duplicating the work.  Waiters count as hits.  If the
        leader's callback raises, the exception propagates to the leader
        and one waiter is promoted to retry.

        Callbacks should not call back into the cache: a *same-key*
        reentrant call is detected and degrades to computing twice
        (the pre-single-flight behaviour) rather than deadlocking, but
        a cycle across *different* keys on different threads cannot be
        detected and will block both leaders forever.
        """
        while True:
            with self._lock:
                if key in self._data:
                    self._hits += 1
                    self._data.move_to_end(key)
                    return self._data[key]
                flight = self._pending.get(key)
                leader = flight is None
                if leader:
                    flight = _Flight()
                    self._pending[key] = flight
                    self._misses += 1

            if leader:
                try:
                    value = compute()
                except BaseException:
                    with self._lock:
                        self._pending.pop(key, None)
                    flight.failed = True
                    flight.done.set()
                    raise
                self.put(key, value)
                with self._lock:
                    self._pending.pop(key, None)
                flight.value = value
                flight.done.set()
                return value

            if flight.owner == threading.get_ident():
                # Reentrant same-key call from inside the leader's own
                # compute: waiting would deadlock on ourselves, so fall
                # back to duplicate compute (the later store wins).  The
                # value is not served from the cache, so it is a miss —
                # leaving it uncounted overstates hit_rate.
                with self._lock:
                    self._misses += 1
                value = compute()
                self.put(key, value)
                return value
            flight.done.wait()
            if flight.failed:
                continue  # leader raised; this thread retries (may lead)
            with self._lock:
                self._hits += 1
            return flight.value

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

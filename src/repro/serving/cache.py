"""Thread-safe LRU + TTL cache for fitted predictor state.

Fitting the paper's models is seconds-to-minutes of work; answering a
forecast query against a fitted model is milliseconds.  The serving
layer therefore keeps fitted state (whole pipelines in the registry,
per-target forecasts in the engine) behind this cache: least-recently-
used entries fall out when capacity is exceeded, and entries older
than the TTL are treated as stale -- the operational analogue of
"refit once enough new verified attacks have arrived" (§III-B3).

The clock is injectable so staleness is testable without sleeping.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Hashable, Iterator

__all__ = ["CacheStats", "LRUTTLCache"]


@dataclass
class CacheStats:
    """Counters describing cache effectiveness."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    expirations: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups answered from the cache."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def to_dict(self) -> dict:
        """JSON-safe snapshot."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "expirations": self.expirations,
            "hit_rate": round(self.hit_rate, 4),
        }


@dataclass
class _Entry:
    value: Any
    stored_at: float


class LRUTTLCache:
    """LRU cache with optional time-to-live staleness eviction.

    ``get_or_create`` is single-flight per key: when many threads miss
    on the same key at once, exactly one runs the factory while the
    rest wait for its result -- crucial when the factory is a full
    model fit.
    """

    def __init__(self, max_entries: int = 64, ttl: float | None = None,
                 clock: Callable[[], float] = time.monotonic) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        if ttl is not None and ttl <= 0:
            raise ValueError("ttl must be positive (or None to disable)")
        self.max_entries = max_entries
        self.ttl = ttl
        self._clock = clock
        self._lock = threading.RLock()
        self._entries: "OrderedDict[Hashable, _Entry]" = OrderedDict()
        self._key_locks: dict[Hashable, threading.Lock] = {}
        self.stats = CacheStats()

    # ----- internal helpers (call with self._lock held) -----

    def _expired(self, entry: _Entry) -> bool:
        return self.ttl is not None and self._clock() - entry.stored_at > self.ttl

    def _lookup(self, key: Hashable) -> _Entry | None:
        entry = self._entries.get(key)
        if entry is None:
            self.stats.misses += 1
            return None
        if self._expired(entry):
            del self._entries[key]
            self.stats.expirations += 1
            self.stats.misses += 1
            return None
        self._entries.move_to_end(key)
        self.stats.hits += 1
        return entry

    def _live(self, key: Hashable) -> _Entry | None:
        """An unexpired entry, recency refreshed; not counted in stats."""
        entry = self._entries.get(key)
        if entry is None or self._expired(entry):
            return None
        self._entries.move_to_end(key)
        return entry

    def _store(self, key: Hashable, value: Any) -> None:
        self._entries[key] = _Entry(value=value, stored_at=self._clock())
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.stats.evictions += 1

    # ----- public API -----

    def get(self, key: Hashable, default: Any = None) -> Any:
        """Fetch ``key``, refreshing its recency; ``default`` on miss."""
        with self._lock:
            entry = self._lookup(key)
            return default if entry is None else entry.value

    def put(self, key: Hashable, value: Any) -> None:
        """Insert or overwrite ``key``."""
        with self._lock:
            self._store(key, value)

    def get_or_create(self, key: Hashable,
                      factory: Callable[[], Any]) -> tuple[Any, bool]:
        """Return ``(value, was_hit)``, running ``factory`` on a miss.

        The factory runs outside the cache-wide lock (it may take
        seconds) but under a per-key lock, so concurrent misses on one
        key run it exactly once.  Only the current holder of a key's
        lock may run the factory; it retires the lock when done.  A
        waiter that wakes on a retired lock starts over, because the
        key may have been invalidated since and a new holder may
        already be running the factory for it.
        """
        with self._lock:
            entry = self._lookup(key)
        while entry is None:
            with self._lock:
                key_lock = self._key_locks.setdefault(key, threading.Lock())
            with key_lock:
                with self._lock:
                    entry = self._live(key)
                    if self._key_locks.get(key) is not key_lock:
                        continue  # retired while we waited: look again
                    if entry is not None:  # put() by another caller
                        del self._key_locks[key]
                        break
                try:
                    value = factory()
                    with self._lock:
                        self._store(key, value)
                    return value, False
                finally:
                    with self._lock:
                        del self._key_locks[key]
        return entry.value, True

    def invalidate(self, key: Hashable) -> bool:
        """Drop ``key``; True if it was present."""
        with self._lock:
            return self._entries.pop(key, None) is not None

    def clear(self) -> None:
        """Drop every entry (stats are kept)."""
        with self._lock:
            self._entries.clear()

    def keys(self) -> Iterator[Hashable]:
        """Snapshot of the cached keys, least recent first."""
        with self._lock:
            return iter(list(self._entries))

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            entry = self._entries.get(key)
            return entry is not None and not self._expired(entry)

"""Tests for the serving LRU + TTL cache."""

import threading
import time
from types import SimpleNamespace

import pytest

import repro.serving.cache as cache_module
from repro.serving.cache import CacheStats, LRUTTLCache


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class ReportingLock:
    """A per-key lock that reports its acquirers and can hold them.

    ``hooks`` maps a thread name to a list of ``(arrived, gate)`` event
    pairs, consumed one per acquisition by that thread: ``arrived`` is
    set before the thread blocks on the lock, and once it holds the
    lock it waits for ``gate`` (when given).
    """

    def __init__(self, hooks: dict) -> None:
        self._lock = threading.Lock()
        self._hooks = hooks

    def __enter__(self):
        pending = self._hooks.get(threading.current_thread().name)
        arrived, gate = pending.pop(0) if pending else (None, None)
        if arrived is not None:
            arrived.set()
        self._lock.acquire()
        if gate is not None:
            assert gate.wait(timeout=10.0)
        return self

    def __exit__(self, *exc_info) -> None:
        self._lock.release()


class TestLRU:
    def test_basic_get_put(self):
        cache = LRUTTLCache(max_entries=4)
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.get("missing") is None
        assert cache.get("missing", default=7) == 7
        assert len(cache) == 1
        assert "a" in cache and "missing" not in cache

    def test_least_recently_used_evicted_first(self):
        cache = LRUTTLCache(max_entries=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")          # refresh a's recency
        cache.put("c", 3)       # b is now the LRU entry
        assert cache.get("b") is None
        assert cache.get("a") == 1
        assert cache.get("c") == 3
        assert cache.stats.evictions == 1

    def test_overwrite_does_not_grow(self):
        cache = LRUTTLCache(max_entries=2)
        cache.put("a", 1)
        cache.put("a", 2)
        assert len(cache) == 1
        assert cache.get("a") == 2

    def test_invalidate_and_clear(self):
        cache = LRUTTLCache(max_entries=4)
        cache.put("a", 1)
        assert cache.invalidate("a") is True
        assert cache.invalidate("a") is False
        cache.put("b", 2)
        cache.clear()
        assert len(cache) == 0

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            LRUTTLCache(max_entries=0)
        with pytest.raises(ValueError):
            LRUTTLCache(ttl=0.0)


class TestTTL:
    def test_entries_expire_after_ttl(self):
        clock = FakeClock()
        cache = LRUTTLCache(max_entries=4, ttl=10.0, clock=clock)
        cache.put("a", 1)
        clock.advance(9.9)
        assert cache.get("a") == 1
        clock.advance(0.2)
        assert cache.get("a") is None
        assert cache.stats.expirations == 1

    def test_expired_entry_not_contained(self):
        clock = FakeClock()
        cache = LRUTTLCache(max_entries=4, ttl=5.0, clock=clock)
        cache.put("a", 1)
        clock.advance(6.0)
        assert "a" not in cache

    def test_get_or_create_refits_stale_entry(self):
        clock = FakeClock()
        cache = LRUTTLCache(max_entries=4, ttl=5.0, clock=clock)
        calls = []
        value, hit = cache.get_or_create("k", lambda: calls.append(1) or "v1")
        assert (value, hit) == ("v1", False)
        clock.advance(6.0)
        value, hit = cache.get_or_create("k", lambda: calls.append(1) or "v2")
        assert (value, hit) == ("v2", False)
        assert len(calls) == 2


class TestStats:
    def test_hit_rate(self):
        stats = CacheStats(hits=3, misses=1)
        assert stats.hit_rate == 0.75
        assert CacheStats().hit_rate == 0.0
        assert stats.to_dict()["hit_rate"] == 0.75

    def test_counters_track_lookups(self):
        cache = LRUTTLCache(max_entries=4)
        cache.put("a", 1)
        cache.get("a")
        cache.get("nope")
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1


class TestSingleFlight:
    def test_concurrent_misses_run_factory_once(self):
        cache = LRUTTLCache(max_entries=4)
        calls = []
        started = threading.Barrier(8)

        def factory():
            calls.append(threading.get_ident())
            time.sleep(0.05)  # widen the race window
            return "fitted"

        results = []

        def worker():
            started.wait()
            results.append(cache.get_or_create("model", factory))

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(calls) == 1
        assert all(value == "fitted" for value, _ in results)
        assert sum(1 for _, hit in results if not hit) == 1

    def test_concurrent_distinct_keys_do_not_serialize(self):
        cache = LRUTTLCache(max_entries=8)
        t0 = time.perf_counter()

        def worker(key):
            cache.get_or_create(key, lambda: time.sleep(0.1) or key)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # 4 x 0.1s factories in parallel must take far less than 0.4s.
        assert time.perf_counter() - t0 < 0.35

    def test_waiter_on_a_retired_lock_joins_the_new_fit(self, monkeypatch):
        """Regression: a refresh between a fit and its waiter's wake-up.

        The waiter queues on the first fit's key lock; that fit stores
        and retires the lock; the key is invalidated and a new caller
        starts a second fit under a fresh lock.  The waiter must then
        wait for that fit, not run the factory beside it.
        """
        hooks: dict = {}
        monkeypatch.setattr(cache_module, "threading", SimpleNamespace(
            Lock=lambda: ReportingLock(hooks), RLock=threading.RLock))
        cache = LRUTTLCache(max_entries=4)
        fits, results = [], {}

        def factory(name, started=None, release=None):
            def fit():
                fits.append(name)
                if started is not None:
                    started.set()
                    assert release.wait(timeout=10.0)
                return name
            return fit

        def start(name, fit):
            thread = threading.Thread(
                target=lambda: results.update({name: cache.get_or_create("k", fit)}),
                name=name)
            thread.start()
            return thread

        first_in, first_go = threading.Event(), threading.Event()
        first = start("first", factory("first", first_in, first_go))
        assert first_in.wait(timeout=10.0)

        second_in, second_go = threading.Event(), threading.Event()
        queued, wake = threading.Event(), threading.Event()
        moved_on = threading.Event()  # the waiter's next step, either way
        hooks["waiter"] = [(queued, wake), (moved_on, None)]
        waiter = start("waiter", factory("waiter", moved_on, second_go))
        assert queued.wait(timeout=10.0)  # it holds the first fit's lock

        first_go.set()
        first.join(timeout=10.0)
        assert not first.is_alive()
        assert cache.invalidate("k")  # e.g. ModelRegistry.refresh

        second = start("second", factory("second", second_in, second_go))
        assert second_in.wait(timeout=10.0)

        wake.set()  # the waiter now holds a retired lock
        assert moved_on.wait(timeout=10.0)
        second_go.set()
        second.join(timeout=10.0)
        waiter.join(timeout=10.0)
        assert not second.is_alive() and not waiter.is_alive()
        assert fits == ["first", "second"]  # one fit per miss
        assert results == {"first": ("first", False),
                           "second": ("second", False),
                           "waiter": ("second", True)}

"""Tests for serving telemetry primitives."""

import threading

import pytest

from repro.telemetry import DEFAULT_BUCKETS, LatencyHistogram, Telemetry


class TestLatencyHistogram:
    def test_observations_land_in_buckets(self):
        hist = LatencyHistogram(buckets=(0.01, 0.1, 1.0))
        hist.record(0.005)   # le_0.01
        hist.record(0.05)    # le_0.1
        hist.record(0.5)     # le_1
        hist.record(5.0)     # overflow
        snap = hist.snapshot()
        assert snap["count"] == 4
        assert snap["buckets"] == {
            "le_0.01": 1, "le_0.1": 1, "le_1": 1, "overflow": 1
        }
        assert snap["max_s"] == 5.0

    def test_mean_and_quantiles(self):
        hist = LatencyHistogram()
        for ms in range(1, 101):
            hist.record(ms / 1000.0)
        snap = hist.snapshot()
        assert snap["mean_s"] == pytest.approx(0.0505, abs=1e-4)
        assert snap["p50_s"] == pytest.approx(0.0505, abs=0.002)
        assert snap["p99_s"] >= snap["p95_s"] >= snap["p50_s"]

    def test_rejects_unsorted_buckets(self):
        with pytest.raises(ValueError):
            LatencyHistogram(buckets=(1.0, 0.1))

    def test_default_buckets_cover_fit_and_hit_regimes(self):
        assert DEFAULT_BUCKETS[0] <= 0.001   # cache-hit scale
        assert DEFAULT_BUCKETS[-1] >= 30.0   # cold-fit scale

    def test_negative_latency_clamped(self):
        hist = LatencyHistogram()
        hist.record(-1.0)
        assert hist.snapshot()["count"] == 1
        assert hist.snapshot()["max_s"] == 0.0


class TestServingMetrics:
    def test_counters(self):
        metrics = Telemetry()
        metrics.incr("queries")
        metrics.incr("queries", 4)
        assert metrics.counter("queries") == 5
        assert metrics.counter("never") == 0

    def test_timer_records_elapsed(self):
        metrics = Telemetry()
        with metrics.timer("work") as timer:
            sum(range(1000))
        assert timer.elapsed >= 0.0
        snap = metrics.snapshot()
        assert snap["latency"]["work"]["count"] == 1

    def test_snapshot_merges_cache_stats(self):
        metrics = Telemetry()
        metrics.incr("a")
        snap = metrics.snapshot(cache_stats={"predictions": {"hits": 3}})
        assert snap["counters"] == {"a": 1}
        assert snap["caches"]["predictions"]["hits"] == 3
        assert snap["uptime_s"] >= 0.0
        assert "caches" not in metrics.snapshot()

    def test_thread_safe_increments(self):
        metrics = Telemetry()

        def worker():
            for _ in range(1000):
                metrics.incr("n")
                metrics.observe("lat", 0.001)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert metrics.counter("n") == 8000
        assert metrics.snapshot()["latency"]["lat"]["count"] == 8000

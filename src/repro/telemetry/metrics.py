"""The one metrics registry behind every ``/metrics`` surface.

Everything an operator dashboard would scrape from the forecast
service lives here.  The primitives are deliberately dependency-free
(no prometheus client in the image): fixed-bucket histograms plus a
bounded reservoir of recent samples for quantiles, all behind one
lock, exported three ways from the same state:

* :meth:`Telemetry.snapshot` -- the JSON body, stamped with
  ``METRICS_SCHEMA_VERSION`` like every other wire dict in the stack;
* :func:`to_prometheus` -- Prometheus text exposition built from a
  snapshot (so merged cluster views expose identically);
* :func:`merge_snapshots` -- the cluster-wide view: counters summed,
  histogram buckets summed, quantiles re-estimated from the merged
  buckets.

Counter names are namespaced by the layer that owns them --
``serving.*`` (engine + registry + caches), ``server.*`` (network
front end), ``shard.*`` (worker processes), ``cluster.*`` (failover
client).
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict, deque
from typing import Iterable, Mapping

import numpy as np

__all__ = [
    "DEFAULT_BUCKETS",
    "METRICS_SCHEMA_VERSION",
    "LatencyHistogram",
    "Telemetry",
    "merge_snapshots",
    "to_prometheus",
]

#: Version stamped into every metrics snapshot (and exposed as a gauge
#: in the Prometheus exposition).  Bump when the snapshot *shape*
#: changes incompatibly, exactly like ``FORECAST_SCHEMA_VERSION``.
METRICS_SCHEMA_VERSION = 1

# Bucket upper bounds in seconds; chosen to straddle the two regimes a
# forecast query lives in -- sub-millisecond cache hits and multi-second
# cold fits.
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)

class LatencyHistogram:
    """Fixed-bucket latency histogram with recent-sample quantiles."""

    def __init__(self, buckets: tuple[float, ...] = DEFAULT_BUCKETS,
                 reservoir: int = 2048) -> None:
        if list(buckets) != sorted(buckets):
            raise ValueError("bucket bounds must be ascending")
        self.buckets = tuple(buckets)
        self.counts = [0] * (len(self.buckets) + 1)  # +1 overflow bucket
        self.count = 0
        self.total = 0.0
        self.max = 0.0
        self._recent: deque[float] = deque(maxlen=reservoir)

    def record(self, seconds: float) -> None:
        """Add one observation (in seconds)."""
        seconds = max(0.0, float(seconds))
        i = int(np.searchsorted(self.buckets, seconds, side="left"))
        self.counts[i] += 1
        self.count += 1
        self.total += seconds
        self.max = max(self.max, seconds)
        self._recent.append(seconds)

    def quantile(self, q: float) -> float:
        """Quantile over the recent-sample reservoir (0 when empty)."""
        if not self._recent:
            return 0.0
        return float(np.quantile(np.array(self._recent), q))

    def snapshot(self) -> dict:
        """JSON-safe summary.

        With zero observations every field is an exact literal zero
        (no float arithmetic touches the empty state), so two idle
        replicas snapshot bit-identically.
        """
        if self.count == 0:
            stats = {"count": 0, "sum_s": 0.0, "mean_s": 0.0, "max_s": 0.0,
                     "p50_s": 0.0, "p95_s": 0.0, "p99_s": 0.0}
        else:
            stats = {
                "count": self.count,
                "sum_s": round(self.total, 6),
                "mean_s": round(self.total / self.count, 6),
                "max_s": round(self.max, 6),
                "p50_s": round(self.quantile(0.50), 6),
                "p95_s": round(self.quantile(0.95), 6),
                "p99_s": round(self.quantile(0.99), 6),
            }
        stats["buckets"] = {
            f"le_{bound:g}": count
            for bound, count in zip(self.buckets, self.counts)
        } | {"overflow": self.counts[-1]}
        return stats


class Telemetry:
    """Thread-safe counter + histogram registry for the forecast service."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, int] = defaultdict(int)
        self._histograms: dict[str, LatencyHistogram] = {}
        self._started = time.time()

    def incr(self, name: str, by: int = 1) -> None:
        """Bump a named counter."""
        with self._lock:
            self._counters[name] += by

    def observe(self, name: str, seconds: float) -> None:
        """Record a latency sample under ``name``."""
        with self._lock:
            hist = self._histograms.get(name)
            if hist is None:
                hist = self._histograms[name] = LatencyHistogram()
            hist.record(seconds)

    def timer(self, name: str) -> "_Timer":
        """Context manager recording its block's wall time under ``name``."""
        return _Timer(self, name)

    def counter(self, name: str) -> int:
        """Current value of a counter (0 if never bumped)."""
        with self._lock:
            return self._counters.get(name, 0)

    def snapshot(self, cache_stats: dict | None = None) -> dict:
        """One JSON-safe view of every counter and histogram.

        ``cache_stats`` lets the caller splice in :class:`CacheStats`
        dictionaries from the caches it owns, so one snapshot carries
        the whole serving picture.
        """
        with self._lock:
            snap = {
                "schema_version": METRICS_SCHEMA_VERSION,
                "uptime_s": round(time.time() - self._started, 3),
                "counters": dict(sorted(self._counters.items())),
                "latency": {
                    name: hist.snapshot()
                    for name, hist in sorted(self._histograms.items())
                },
            }
        if cache_stats is not None:
            snap["caches"] = cache_stats
        return snap

    def to_prometheus(self, cache_stats: dict | None = None,
                      extra_gauges: Mapping[str, float] | None = None) -> str:
        """Prometheus text exposition of the current state."""
        return to_prometheus(self.snapshot(cache_stats), extra_gauges=extra_gauges)


class _Timer:
    def __init__(self, metrics: Telemetry, name: str) -> None:
        self._metrics = metrics
        self._name = name
        self.elapsed = 0.0

    def __enter__(self) -> "_Timer":
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self.elapsed = time.perf_counter() - self._t0
        self._metrics.observe(self._name, self.elapsed)


# --------------------------------------------------------------------------
# Prometheus text exposition (built from snapshots, not live registries,
# so the supervisor's merged cluster view exposes through the same code).

def _prom_name(name: str) -> str:
    out = []
    for ch in name:
        out.append(ch if ch.isalnum() or ch == "_" else "_")
    base = "".join(out)
    if not base or not (base[0].isalpha() or base[0] == "_"):
        base = "_" + base
    return "repro_" + base


def _prom_float(value: float) -> str:
    if value != value:  # NaN guard; never emit NaN samples
        return "0"
    return format(float(value), ".9g")


def _bucket_bounds(buckets: Mapping[str, int]) -> list[tuple[float, int]]:
    """Parse a snapshot's ``le_X``/``overflow`` keys, ascending."""
    bounds: list[tuple[float, int]] = []
    for key, count in buckets.items():
        if key == "overflow":
            bounds.append((float("inf"), int(count)))
        elif key.startswith("le_"):
            bounds.append((float(key[3:]), int(count)))
    bounds.sort(key=lambda pair: pair[0])
    return bounds


def to_prometheus(snapshot: Mapping, *,
                  extra_gauges: Mapping[str, float] | None = None) -> str:
    """Render a metrics snapshot in Prometheus text exposition format.

    Counters become ``repro_<name>_total``, histograms become
    ``repro_<name>_seconds`` families with *cumulative* ``_bucket``
    series plus ``_sum``/``_count``, and the snapshot's schema version
    and uptime ride along as gauges.  ``extra_gauges`` lets the
    dispatcher add point-in-time values (inflight, connections) that
    live outside the registry.
    """
    lines: list[str] = []

    def gauge(name: str, value: float, help_text: str) -> None:
        prom = _prom_name(name)
        lines.append(f"# HELP {prom} {help_text}")
        lines.append(f"# TYPE {prom} gauge")
        lines.append(f"{prom} {_prom_float(value)}")

    gauge("metrics_schema_version", snapshot.get("schema_version", 0),
          "Schema version of the metrics snapshot this was rendered from.")
    gauge("uptime_seconds", snapshot.get("uptime_s", 0.0),
          "Seconds since the process registry was created.")
    if "replicas" in snapshot:
        gauge("replicas", snapshot["replicas"],
              "Replica snapshots merged into this view.")

    counters = snapshot.get("counters") or {}
    for name in sorted(counters):
        prom = _prom_name(name) + "_total"
        lines.append(f"# HELP {prom} Total {name} events.")
        lines.append(f"# TYPE {prom} counter")
        lines.append(f"{prom} {int(counters[name])}")

    latency = snapshot.get("latency") or {}
    for name in sorted(latency):
        hist = latency[name]
        prom = _prom_name(name) + "_seconds"
        lines.append(f"# HELP {prom} Latency of {name} in seconds.")
        lines.append(f"# TYPE {prom} histogram")
        cumulative = 0
        for bound, count in _bucket_bounds(hist.get("buckets") or {}):
            cumulative += count
            le = "+Inf" if bound == float("inf") else _prom_float(bound)
            lines.append(f'{prom}_bucket{{le="{le}"}} {cumulative}')
        lines.append(f"{prom}_sum {_prom_float(hist.get('sum_s', 0.0))}")
        lines.append(f"{prom}_count {int(hist.get('count', 0))}")

    for name in sorted(extra_gauges or {}):
        gauge(name, extra_gauges[name], f"Point-in-time value of {name}.")

    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# Cluster-wide merging.

def _bucket_quantile(bounds: list[tuple[float, int]], total: int, q: float,
                     max_s: float) -> float:
    """Upper-bound quantile estimate from cumulative-able bucket counts."""
    if total <= 0:
        return 0.0
    rank = q * total
    cumulative = 0
    for bound, count in bounds:
        cumulative += count
        if cumulative >= rank:
            return max_s if bound == float("inf") else bound
    return max_s


def _merge_histogram_snapshots(snaps: Iterable[Mapping]) -> dict:
    buckets: dict[str, int] = defaultdict(int)
    count = 0
    total = 0.0
    max_s = 0.0
    for snap in snaps:
        count += int(snap.get("count", 0))
        total += float(snap.get("sum_s",
                                snap.get("mean_s", 0.0) * snap.get("count", 0)))
        max_s = max(max_s, float(snap.get("max_s", 0.0)))
        for key, n in (snap.get("buckets") or {}).items():
            buckets[key] += int(n)
    bounds = _bucket_bounds(buckets)
    ordered = {
        ("overflow" if b == float("inf") else f"le_{b:g}"): n
        for b, n in bounds
    }
    if count == 0:
        stats = {"count": 0, "sum_s": 0.0, "mean_s": 0.0, "max_s": 0.0,
                 "p50_s": 0.0, "p95_s": 0.0, "p99_s": 0.0}
    else:
        stats = {
            "count": count,
            "sum_s": round(total, 6),
            "mean_s": round(total / count, 6),
            "max_s": round(max_s, 6),
            # Reservoirs cannot be merged after the fact; estimate from
            # the merged buckets (each estimate is its bucket's upper
            # bound, i.e. pessimistic, which is the right bias for SLOs).
            "p50_s": round(_bucket_quantile(bounds, count, 0.50, max_s), 6),
            "p95_s": round(_bucket_quantile(bounds, count, 0.95, max_s), 6),
            "p99_s": round(_bucket_quantile(bounds, count, 0.99, max_s), 6),
        }
    stats["buckets"] = ordered
    return stats


def merge_snapshots(snapshots: Iterable[Mapping]) -> dict:
    """Merge per-replica snapshots into one cluster-wide view.

    Counters sum; histogram buckets sum with quantiles re-estimated
    from the merged distribution; ``uptime_s`` reports the oldest
    replica.  The result has the same shape as a single snapshot plus
    a ``replicas`` count, so it feeds straight into
    :func:`to_prometheus`.
    """
    snaps = [dict(s) for s in snapshots]
    counters: dict[str, int] = defaultdict(int)
    hist_parts: dict[str, list[Mapping]] = defaultdict(list)
    uptime = 0.0
    for snap in snaps:
        uptime = max(uptime, float(snap.get("uptime_s", 0.0)))
        for name, value in (snap.get("counters") or {}).items():
            counters[name] += int(value)
        for name, hist in (snap.get("latency") or {}).items():
            hist_parts[name].append(hist)
    return {
        "schema_version": METRICS_SCHEMA_VERSION,
        "replicas": len(snaps),
        "uptime_s": round(uptime, 3),
        "counters": dict(sorted(counters.items())),
        "latency": {
            name: _merge_histogram_snapshots(parts)
            for name, parts in sorted(hist_parts.items())
        },
    }

"""Metric vocabulary, run results, run-set summaries and comparison."""

from __future__ import annotations

import json
import math
import statistics
from dataclasses import dataclass, field

from benchmarks.e2e.workloads import ROOT, WORKLOADS

BENCHMARK_JSON = ROOT / "BENCHMARK.json"
RESULTS_SCHEMA_VERSION = 1

#: Every metric a run can emit, with its unit.
UNITS: dict[str, str] = {
    # end to end, measured with tracing off
    "rps": "req/s",
    "p50_ms": "ms",
    "p99_ms": "ms",
    "fail_frac": "ratio",
    "setup_s": "s",
    "rss_mb": "MB",
    "ingest_rps": "rec/s",
    "ingest_p99_ms": "ms",
    # the same three before host-speed normalization
    "raw.rps": "req/s",
    "raw.p50_ms": "ms",
    "raw.p99_ms": "ms",
    # per layer, from the traced run
    "server.read_request_us": "us",
    "server.handle_us": "us",
    "server.encode_us": "us",
    "server.loop_lag_p99_ms": "ms",
    "server.ingest_append_us": "us",
    "serving.pool_wait_us": "us",
    "serving.shard_rtt_us": "us",
    "serving.registry_get_us": "us",
    "serving.cache_get_us": "us",
    "serving.cache_hit_ratio": "ratio",
    "serving.fallback_us": "us",
    "serving.fallback_records_scanned": "count",
    "core.predict_us": "us",
    "core.context_us": "us",
    "core.temporal_us": "us",
    "core.spatial_us": "us",
    "core.tree_us": "us",
    "core.features_self_us": "us",
    "telemetry.calls_per_req": "count",
    "telemetry.us_per_req": "us",
    "setup.import_s": "s",
    "setup.load_trace_s": "s",
    "setup.restore_s": "s",
    "setup.fit_s": "s",
    "loadgen.cpu_frac": "ratio",
    "trace.overhead_frac": "ratio",
    # the host, not the program: the factor behind the normalized numbers,
    # the share of core time the hypervisor took during the window, and
    # the share of the window the end-to-end metrics cover
    "host.slowdown": "ratio",
    "host.steal_frac": "ratio",
    "host.quiet_frac": "ratio",
}

@dataclass(frozen=True)
class Bound:
    """How far a metric's median may worsen before it is a regression."""

    better: str          # "lower" or "higher"
    bound: float
    relative: bool       # share of the baseline median, else absolute
    workloads: tuple[str, ...]
    gating: bool = True  # False: reported, but never a regression


#: End-to-end metrics that BENCHMARK.json does not list as such.  The
#: ingest metrics exist only on ingest-mixed, and the file wants every
#: listed metric on every workload.  ``p99_ms`` is listed among the
#: per-layer metrics, because under hypervisor steal its run-to-run
#: spread exceeds a tenth (README.md).  Each takes the bound of the
#: listed metric it mirrors, a rate's or a latency's, so the bounds live
#: in one file.  The raw metrics are shown beside the normalized ones,
#: never gating.
MIRRORED: dict[str, tuple[str, tuple[str, ...], bool]] = {
    "p99_ms": ("p50_ms", tuple(WORKLOADS), True),
    "ingest_rps": ("rps", ("ingest-mixed",), True),
    "ingest_p99_ms": ("p50_ms", ("ingest-mixed",), True),
    "raw.rps": ("rps", tuple(WORKLOADS), False),
    "raw.p50_ms": ("p50_ms", tuple(WORKLOADS), False),
    "raw.p99_ms": ("p50_ms", tuple(WORKLOADS), False),
}


def load_benchmark() -> dict:
    return json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))


def e2e_bounds(benchmark: dict) -> dict[str, Bound]:
    """BENCHMARK.json's end-to-end bounds plus the metrics that mirror them.

    ``fail_frac`` is 0 on every good run, so the file cannot list it; it
    reaches ``run.py``'s result line as the ``failed`` count, and here
    no failure may be added at all.
    """
    listed = {m["name"]: m for m in benchmark["end_to_end"]}
    bounds = {name: Bound(m["better"], float(m["bound"]), True, tuple(WORKLOADS))
              for name, m in listed.items()}
    for name, (mirror, workloads, gating) in MIRRORED.items():
        spec = listed[mirror]
        bounds[name] = Bound(spec["better"], float(spec["bound"]), True,
                             workloads, gating)
    bounds["fail_frac"] = Bound("lower", 0.0, False, tuple(WORKLOADS))
    return bounds


@dataclass
class RunResult:
    """One run of one workload: metrics, checks and request counts."""

    workload: str
    seed: int
    window_s: float
    traced: bool = False
    metrics: dict[str, float] = field(default_factory=dict)
    checks: list[tuple[str, bool, str]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, bool(ok), detail))

    @property
    def correct(self) -> bool:
        return (self.attempted > 0 and self.failed == 0
                and all(ok for _, ok, _ in self.checks))

    def to_dict(self) -> dict:
        return {
            "workload": self.workload,
            "seed": self.seed,
            "window_s": self.window_s,
            "traced": self.traced,
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: {"value": finite(value), "unit": UNITS[name]}
                        for name, value in self.metrics.items()},
            "checks": [{"name": n, "ok": ok, "detail": d}
                       for n, ok, d in self.checks],
        }


def finite(value: float) -> float | None:
    """JSON has no infinities: a non-finite value is written as null."""
    return value if math.isfinite(value) else None


def format_run(result: RunResult) -> str:
    mode = "traced" if result.traced else "untraced"
    lines = [f"== {result.workload}  seed {result.seed}  "
             f"window {result.window_s:g} s  ({mode})"]
    for name in sorted(result.metrics, key=list(UNITS).index):
        lines.append(f"   {name:<34} {result.metrics[name]:>14.6g}  {UNITS[name]}")
    for name, ok, detail in result.checks:
        lines.append(f"   check {'ok  ' if ok else 'FAIL'}  {name}"
                     + (f": {detail}" if detail else ""))
    lines.append(f"   attempted {result.attempted}  failed {result.failed}  "
                 f"correct {str(result.correct).lower()}")
    return "\n".join(lines)


# ----- run-sets -----------------------------------------------------------

def summarize(values: list[float]) -> dict:
    """Median and quartiles, as ``statistics.quantiles(values, n=4)``."""
    median = statistics.median(values)
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else (median, median, median))
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def run_set_summary(runs: list[RunResult]) -> dict:
    names = sorted({name for run in runs for name in run.metrics})
    summary = {}
    for name in names:
        values = [run.metrics[name] for run in runs
                  if math.isfinite(run.metrics.get(name, math.nan))]
        if values:
            summary[name] = {"unit": UNITS[name]} | summarize(values)
    return summary


def compare(base: dict, change: dict, bounds: dict[str, Bound]
            ) -> tuple[list[dict], bool]:
    """Per workload and end-to-end metric: is ``change`` worse than ``base``?

    A metric whose run-to-run spread (quartile distance over median,
    either side) exceeds its bound is *unresolved* unless every run of
    the change reads better than every run of the base.  Rows of
    non-gating metrics carry a verdict but never count as a regression.
    """
    rows, regressed = [], False
    for workload in sorted(set(base["workloads"]) & set(change["workloads"])):
        a_set, b_set = base["workloads"][workload], change["workloads"][workload]
        for name, bound in bounds.items():
            if workload not in bound.workloads:
                continue
            a_vals = _values(a_set, name)
            b_vals = _values(b_set, name)
            if not a_vals or not b_vals:
                continue
            a, b = summarize(a_vals), summarize(b_vals)
            sign = 1.0 if bound.better == "lower" else -1.0
            if bound.relative and a["median"]:
                worse = sign * (b["median"] - a["median"]) / a["median"]
                spread = max(_iqr(a) / abs(a["median"]),
                             _iqr(b) / abs(b["median"]) if b["median"] else 0.0)
            else:
                worse = sign * (b["median"] - a["median"])
                spread = max(_iqr(a), _iqr(b))
            all_better = all(sign * (y - x) < 0 for x in a_vals for y in b_vals)
            if spread > bound.bound and not all_better:
                verdict = "unresolved"
            elif worse > bound.bound:
                verdict = "regressed" if bound.gating else "worse (raw)"
                regressed = regressed or bound.gating
            else:
                verdict = "better" if all_better else "within bound"
            rows.append({"workload": workload, "metric": name,
                         "unit": UNITS[name], "base": a["median"],
                         "change": b["median"], "worse": worse,
                         "spread": spread, "bound": bound.bound,
                         "relative": bound.relative, "verdict": verdict})
    return rows, regressed


def _values(run_set: dict, name: str) -> list[float]:
    values = []
    for run in run_set.get("runs", []):
        value = run["metrics"].get(name, {}).get("value")
        if value is not None:
            values.append(value)
    return values


def _iqr(summary: dict) -> float:
    return summary["q3"] - summary["q1"]


def format_compare(rows: list[dict]) -> str:
    lines = [f"{'workload':<13} {'metric':<14} {'base':>11} {'change':>11} "
             f"{'worse':>8} {'spread':>8} {'bound':>7}  verdict"]
    for row in rows:
        pct = (lambda v: f"{v:+.1%}") if row["relative"] else (lambda v: f"{v:+.3g}")
        lines.append(
            f"{row['workload']:<13} {row['metric']:<14} {row['base']:>11.5g} "
            f"{row['change']:>11.5g} {pct(row['worse']):>8} "
            f"{pct(row['spread']).lstrip('+'):>8} "
            f"{pct(row['bound']).lstrip('+'):>7}  {row['verdict']}")
    return "\n".join(lines)

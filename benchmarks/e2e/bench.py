"""One run of one workload: boot, warm up, measure, check.

An untraced run boots ``repro serve-http`` ``boots`` times (``setup_s``
is the median spawn-to-healthy time), keeps the last boot, warms it up
for ``WARMUP_S`` and measures one window.  A traced run times a fresh
``export-models`` fit, measures an untraced reference window, then
boots the server through ``traced_server.py`` and measures again; the
per-layer metrics come from the difference of the launcher's probe
snapshots taken in quiet gaps before and after the traced window.

The end-to-end rates and times cover the window's quiet spans, those
without hypervisor steal, and are normalized by the host slowdown that
``calibrate.py`` measured over the same spans (see ``host.py``): this
shared host's speed drifts by up to a factor of two within an hour, far
more than any bound could absorb.  The same numbers before that
normalization are reported beside them as ``raw.*``.

Every answer in a window is checked as it arrives, a seeded sample is
compared bit for bit against an in-process engine restored from the
same store, and the workload's self-checks make a mislabelled run fail
instead of reporting a number.
"""

from __future__ import annotations

import array
import asyncio
import http.client
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from random import Random

from benchmarks.e2e.host import (
    Calibrator,
    Span,
    quiet_spans,
    read_steal,
    sample_steal,
    span_seconds,
    steal_frac,
    within,
)
from benchmarks.e2e.loadgen import HttpConnection, Lane, Tally, quantile, run_phase
from benchmarks.e2e.report import RunResult
from benchmarks.e2e.workloads import (
    GET_METRICS,
    HOST,
    RECORDS_PER_POST,
    ROOT,
    WORK,
    WORKLOADS,
    BenchError,
    World,
    Workload,
    check_ack,
    check_forecast,
    export_models,
    import_repro,
    read_stream,
    record_stream,
    repro_cmd,
    repro_env,
    server_flags,
)

HERE = Path(__file__).resolve().parent
WARMUP_S = 2.0
#: Quiet gap on each side of the window, longer than the launcher's
#: flush period, so both probe snapshots see settled counts.
PAUSE_S = 0.25
ORACLE_SAMPLES = 64
#: A generator busier than this measures itself, not the server.
MAX_LOADGEN_CPU = 0.8
#: p99 needs at least ten samples beyond it.
MIN_P99_SAMPLES = 1000
BOOT_TIMEOUT_S = 120.0
STOP_TIMEOUT_S = 30.0
_LISTENING = re.compile(rb"listening on http://[^:\s]+:(\d+)")


# ----- the server process -------------------------------------------------

class ServerProcess:
    """One server child in its own session, logging to a file."""

    def __init__(self, argv: list[str], log_path: Path) -> None:
        self.log_path = log_path
        self._log = open(log_path, "wb")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            argv, cwd=ROOT, env=repro_env(), stdin=subprocess.DEVNULL,
            stdout=self._log, stderr=subprocess.STDOUT, start_new_session=True)
        self.port: int | None = None

    def wait_ready(self) -> float:
        """Seconds from spawn to the first ``/healthz`` 200."""
        deadline = self.started + BOOT_TIMEOUT_S
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                raise BenchError(f"server exited {self.proc.returncode} while "
                                 f"booting: {self.log_tail()}")
            if self.port is None:
                match = _LISTENING.search(self.log_path.read_bytes())
                if match:
                    self.port = int(match.group(1))
            if self.port is not None and _healthz_ok(self.port):
                return time.perf_counter() - self.started
            time.sleep(0.005)
        raise BenchError(f"server not healthy after {BOOT_TIMEOUT_S:g} s")

    def stop(self) -> int:
        """SIGTERM and wait for the drain; returns the exit code."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            return self.proc.wait(STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.close()
            return self.proc.returncode

    def close(self) -> None:
        """Kill whatever is left of the process group and reap it."""
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        self.proc.wait()
        self._log.close()

    def log_tail(self) -> str:
        return self.log_path.read_bytes()[-600:].decode(errors="replace")


def _healthz_ok(port: int) -> bool:
    conn = http.client.HTTPConnection(HOST, port, timeout=2.0)
    try:
        conn.request("GET", "/healthz")
        return conn.getresponse().status == 200
    except (OSError, http.client.HTTPException):
        return False
    finally:
        conn.close()


def tree_rss_mb(pid: int) -> float:
    """Resident memory of a process and all its descendants, in MB."""
    children: dict[int, list[int]] = {}
    for entry in os.scandir("/proc"):
        if not entry.name.isdigit():
            continue
        try:
            stat = Path(entry.path, "stat").read_text()
        except OSError:
            continue
        parent = int(stat.rsplit(")", 1)[1].split()[1])
        children.setdefault(parent, []).append(int(entry.name))
    total_kb, todo = 0, [pid]
    while todo:
        current = todo.pop()
        todo.extend(children.get(current, ()))
        try:
            status = Path(f"/proc/{current}/status").read_text()
        except OSError:
            continue
        for line in status.splitlines():
            if line.startswith("VmRSS:"):
                total_kb += int(line.split()[1])
    return total_kb / 1024.0


# ----- probe snapshots from the traced launcher ---------------------------

@dataclass
class ProbeSnapshot:
    probes: dict[int, dict[str, list[int]]]  # pid -> probe -> [calls, wall, self]
    lag_samples: int  # server-process lag samples written so far


def _probe_snapshot(trace_dir: Path, server_pid: int) -> ProbeSnapshot:
    probes = {}
    for path in trace_dir.glob("stats-*.json"):
        doc = json.loads(path.read_text(encoding="utf-8"))
        probes[int(doc["pid"])] = doc["probes"]
    lag = trace_dir / f"lag-{server_pid}.f32"
    return ProbeSnapshot(probes, lag.stat().st_size // 4 if lag.exists() else 0)


def _lag_samples_us(trace_dir: Path, server_pid: int, start: int, end: int
                    ) -> list[float]:
    samples = array.array("f")
    with open(trace_dir / f"lag-{server_pid}.f32", "rb") as handle:
        handle.seek(start * 4)
        samples.fromfile(handle, end - start)
    return list(samples)


# ----- correctness oracle -------------------------------------------------

class Oracle:
    """Reference answers from an in-process engine on the same store."""

    def __init__(self, world: World) -> None:
        self.world = world
        self._engine = None
        self._fallback = None

    def _load(self) -> None:
        import_repro()
        from repro.dataset import SimulationEnvironment, load_trace
        from repro.serving import (
            BaselineFallback,
            ForecastEngine,
            ModelRegistry,
            Telemetry,
        )

        trace = load_trace(self.world.trace)
        env = SimulationEnvironment.from_metadata(trace.metadata)
        registry = ModelRegistry()
        if not registry.load(self.world.store, trace, env):
            raise BenchError(f"store {self.world.store} has no model for the trace")
        self._engine = ForecastEngine(trace, env, registry=registry, max_workers=1)
        self._fallback = BaselineFallback(trace, Telemetry())

    def mismatches(self, workload: Workload, samples: list) -> list[str]:
        """Sampled answers that differ from the reference answer."""
        if self._engine is None:
            self._load()
        from repro.serving import ForecastRequest

        wrong = []
        for (asn, family, now), doc in samples:
            request = ForecastRequest(asn=asn, family=family, now=now)
            expected = (self._fallback.forecast(request)
                        if workload.source == "baseline"
                        else self._engine.query(request))
            if (doc["source"] != workload.source
                    or expected.source != workload.source
                    or doc["forecast"] != expected.to_dict()["forecast"]):
                wrong.append(f"AS{asn}/{family}/now={now}: {doc['source']} "
                             f"answer differs from the {expected.source} "
                             "reference")
        return wrong

    def close(self) -> None:
        if self._engine is not None:
            self._engine.close()


def _journal_next_offset(path: Path) -> int:
    """The offset a reopened journal would assign next."""
    import_repro()
    from repro.ingest import RecordJournal

    journal = RecordJournal(path)
    try:
        return journal.next_offset
    finally:
        journal.close()


class Reservoir:
    """A seeded uniform sample of ``k`` items from a stream."""

    def __init__(self, k: int, rng: Random) -> None:
        self.k, self.rng, self.seen, self.items = k, rng, 0, []

    def offer(self, item) -> None:
        self.seen += 1
        if len(self.items) < self.k:
            self.items.append(item)
        else:
            j = self.rng.randrange(self.seen)
            if j < self.k:
                self.items[j] = item


# ----- one served window --------------------------------------------------

@dataclass
class Window:
    """Everything one server lifetime measured."""

    setup_s: list[float] = field(default_factory=list)
    exit_codes: list[int] = field(default_factory=list)
    server_pid: int = 0
    warmup: dict[str, Tally] = field(default_factory=dict)
    tallies: dict[str, Tally] = field(default_factory=dict)
    elapsed_s: float = 0.0
    cpu_frac: float = 0.0
    rss_mb: float = 0.0
    metrics_before: dict = field(default_factory=dict)
    metrics_after: dict = field(default_factory=dict)
    samples: list = field(default_factory=list)
    acks: list[tuple[int, int]] = field(default_factory=list)
    degraded: Counter = field(default_factory=Counter)
    journal: Path | None = None
    probes_before: ProbeSnapshot | None = None
    probes_after: ProbeSnapshot | None = None
    # monotonic_ns spans: each boot (spawn -> healthy) and the window
    boot_spans: list[Span] = field(default_factory=list)
    span: Span = (0, 0)
    steal: list[tuple[int, int]] = field(default_factory=list)

    @property
    def quiet(self) -> list[Span]:
        return quiet_spans(self.steal, self.span)

    def measured(self, kind: str) -> tuple[float, list[float]]:
        """Answers per second and sorted latencies of ``kind`` requests
        ("read" or "write") over the quiet spans."""
        rate, latencies = within(self.tallies[kind], self.quiet)
        latencies.sort()
        return rate, latencies


def normalized_rps(window: Window, calibrator: Calibrator) -> float:
    return window.measured("read")[0] * calibrator.slowdown(window.quiet)


def serve_window(world: World, workload: Workload, seed: int, seconds: float,
                 run_dir: Path, tag: str, boots: int,
                 trace_dir: Path | None = None, spin: int = 0) -> Window:
    """Boot ``boots`` times, then warm up and measure the last boot.

    ``trace_dir`` boots through the probing launcher; ``spin`` through
    the launcher that slows every request by a fixed amount of work.
    """
    window = Window()
    if workload.journal:
        window.journal = run_dir / f"journal-{tag}"
    flags = server_flags(workload, world, window.journal)
    launcher = [sys.executable, str(HERE / "traced_server.py")]
    if trace_dir is not None:
        argv = [*launcher, "--out", str(trace_dir), "--", *flags]
    elif spin:
        argv = [*launcher, "--spin", str(spin), "--", *flags]
    else:
        argv = repro_cmd(*flags)
    for boot in range(boots):
        spawned = time.monotonic_ns()
        server = ServerProcess(argv, run_dir / f"server-{tag}-{boot}.log")
        try:
            window.setup_s.append(server.wait_ready())
            window.boot_spans.append((spawned, time.monotonic_ns()))
            if boot == boots - 1:
                window.server_pid = server.proc.pid
                asyncio.run(_measure(window, server, workload, world, seed,
                                     seconds, trace_dir))
            window.exit_codes.append(server.stop())
        finally:
            server.close()
    return window


def _steal_mark(samples: list[tuple[int, int]]) -> int:
    """Now, in monotonic ns, recorded with a steal sample where counted."""
    now, steal = time.monotonic_ns(), read_steal()
    if steal is not None:
        samples.append((now, steal))
    return now


async def _metrics(conn: HttpConnection) -> dict:
    status, body = await conn.request(GET_METRICS)
    if status != 200:
        raise BenchError(f"GET /metrics answered {status}")
    return json.loads(body)


async def _measure(window: Window, server: ServerProcess, workload: Workload,
                   world: World, seed: int, seconds: float,
                   trace_dir: Path | None) -> None:
    reads = Lane("read", read_stream(workload, world, seed), check_forecast)
    conns = [HttpConnection(HOST, server.port) for _ in range(2)]
    if workload.journal:
        # One POST beside one read per step.  Driven independently, the
        # two would race for the event loop and their split would follow
        # thread wake-up timing, not the server's speed.
        writes = record_stream(world, Random(f"{seed}|{workload.name}|records"))
        groups = [[(conns[0], Lane("write", writes, check_ack)),
                   (conns[1], reads)]]
    else:  # two independent closed loops over one request stream
        groups = [[(conn, reads)] for conn in conns]
    reservoir = Reservoir(ORACLE_SAMPLES, Random(f"{seed}|{workload.name}|oracle"))

    def on_ack(_key, doc: dict) -> None:
        window.acks.append((doc["first_offset"], doc["next_offset"]))

    def on_read(key, doc: dict) -> None:
        window.degraded[doc["degraded"]] += 1
        reservoir.offer((key, doc))

    def snapshot() -> ProbeSnapshot | None:
        return (None if trace_dir is None
                else _probe_snapshot(trace_dir, window.server_pid))

    try:
        window.warmup, _ = await run_phase(groups, WARMUP_S, {"write": on_ack})
        window.metrics_before = await _metrics(conns[0])
        await asyncio.sleep(PAUSE_S)
        window.probes_before = snapshot()
        cpu0 = time.process_time()
        start = _steal_mark(window.steal)
        sampler = asyncio.create_task(sample_steal(window.steal))
        try:
            window.tallies, window.elapsed_s = await run_phase(
                groups, seconds, {"write": on_ack, "read": on_read})
        finally:
            sampler.cancel()
            await asyncio.gather(sampler, return_exceptions=True)
        window.span = (start, _steal_mark(window.steal))
        window.cpu_frac = (time.process_time() - cpu0) / window.elapsed_s
        window.rss_mb = tree_rss_mb(window.server_pid)
        await asyncio.sleep(PAUSE_S)
        window.probes_after = snapshot()
        window.metrics_after = await _metrics(conns[0])
    finally:
        for conn in conns:
            await conn.close()
    window.samples = reservoir.items


# ----- judging a window ---------------------------------------------------

def _counters(snapshot: dict) -> Counter:
    """Engine counters of the server plus every shard worker."""
    total = Counter(snapshot.get("counters", {}))
    for shard in snapshot.get("shards", {}).values():
        total.update((shard.get("worker") or {}).get("counters", {}))
    return total


def _cache_hit_ratio(window: Window) -> float:
    delta = _counters(window.metrics_after) - _counters(window.metrics_before)
    hits = delta["serving.prediction_cache_hits"]
    answered = hits + delta["serving.model_answers"]
    return hits / answered if answered else 0.0


def judge(result: RunResult, workload: Workload, window: Window,
          oracle: Oracle, prefix: str = "") -> None:
    """Count the window's requests and record its checks on ``result``."""
    tallies = list(window.tallies.values())
    bad = sum(t.bad for t in tallies)
    warm_bad = sum(t.bad for t in window.warmup.values())
    wrong = oracle.mismatches(workload, window.samples)
    result.attempted += sum(t.attempted for t in tallies)
    result.failed += bad + len(wrong)
    check = lambda name, ok, detail="": result.check(prefix + name, ok, detail)

    check("server exits 0 on SIGTERM", all(rc == 0 for rc in window.exit_codes),
          f"exit codes {window.exit_codes}")
    check("every answer well-formed", bad == 0 and warm_bad == 0,
          f"{bad} bad in window, {warm_bad} in warm-up")
    check("oracle matches sampled answers", not wrong and window.samples,
          f"{len(window.samples) - len(wrong)}/{len(window.samples)} match"
          + (f"; first: {wrong[0]}" if wrong else ""))
    answered = sum(window.degraded.values())
    share = window.degraded[True] / answered if answered else 0.0
    expected = 1.0 if workload.source == "baseline" else 0.0
    check("degraded share", share == expected,
          f"{share:.4f}, expected {expected:g}")
    measured = len(window.measured("read")[1])
    check("p99 has >= 10 samples beyond it",
          measured >= MIN_P99_SAMPLES, f"{measured} reads in quiet spans")
    check("load generator below 0.8 of a core",
          window.cpu_frac <= MAX_LOADGEN_CPU, f"{window.cpu_frac:.3f}")
    ratio = _cache_hit_ratio(window)
    if workload.name in ("hit-heavy", "ingest-mixed"):
        check("cache hit ratio >= 0.99", ratio >= 0.99, f"{ratio:.4f}")
    elif workload.name == "miss-heavy":
        check("cache hit ratio <= 0.01", ratio <= 0.01, f"{ratio:.4f}")
        shards = window.metrics_after.get("shards", {})
        alive = sum(1 for s in shards.values() if s.get("alive"))
        check(f"{workload.workers} shards serving",
              window.metrics_after.get("n_shards") == workload.workers
              and alive == workload.workers, f"{alive} alive of {len(shards)}")
    if workload.journal:
        acks = sorted(window.acks)
        dense = all(a[1] == b[0] for a, b in zip(acks, acks[1:]))
        acked = acks[-1][1] if acks else 0
        check("acked offsets dense from 0",
              bool(acks) and acks[0][0] == 0 and dense, f"{len(acks)} acks")
        on_disk = _journal_next_offset(window.journal)
        check("journal next_offset == records acked", on_disk == acked,
              f"{on_disk} vs {acked}")


def e2e_metrics(window: Window, calibrator: Calibrator) -> dict[str, float]:
    """End-to-end metrics over the quiet spans, normalized to the
    reference host speed.

    Rates are multiplied and times divided by the host slowdown measured
    over the same spans, so a host that runs Python at half speed for the
    whole run moves none of them.  ``raw.*`` are the same numbers before
    that normalization.  ``rps``/``p50_ms``/``p99_ms`` count forecast
    reads only; on ingest-mixed the record POSTs have
    ``ingest_rps``/``ingest_p99_ms``.

    With a journal the latency tail is the fsync, which the host's disk,
    not its CPU speed, sets: normalizing it tripled its run-to-run spread,
    so the p99s of the journal workload stay raw.
    """
    quiet = window.quiet
    load = calibrator.slowdown(quiet)
    boot = calibrator.slowdown(window.boot_spans)
    tail = 1.0 if window.journal else load
    rate, latencies = window.measured("read")
    raw = {"raw.rps": rate,
           "raw.p50_ms": quantile(latencies, 0.50),
           "raw.p99_ms": quantile(latencies, 0.99)}
    window_s = (window.span[1] - window.span[0]) / 1e9
    metrics = {
        "rps": raw["raw.rps"] * load,
        "p50_ms": raw["raw.p50_ms"] / load,
        "p99_ms": raw["raw.p99_ms"] / tail,
        "setup_s": statistics.median(window.setup_s) / boot,
        "rss_mb": window.rss_mb,
        **raw,
        "host.slowdown": load,
        "host.steal_frac": steal_frac(window.steal, window.span, os.cpu_count() or 1),
        "host.quiet_frac": span_seconds(quiet) / window_s,
        "loadgen.cpu_frac": window.cpu_frac,
        "serving.cache_hit_ratio": _cache_hit_ratio(window),
    }
    if "write" in window.tallies:
        rate, latencies = window.measured("write")
        metrics["ingest_rps"] = rate * RECORDS_PER_POST * load
        metrics["ingest_p99_ms"] = quantile(latencies, 0.99) / tail
    return metrics


# ----- per-layer metrics --------------------------------------------------

ALL = tuple(WORKLOADS)
WALL, SELF = 1, 2

#: Probe time per request: metric -> (probe, column, workloads on which
#: the probe must fire).  ``server.*`` metrics read the server process
#: only (shard workers also encode, for the pipe); the rest sum every
#: process.  "Per request" divides by the window's Dispatcher.handle calls.
PER_REQUEST: dict[str, tuple[str, int, tuple[str, ...]]] = {
    "server.read_request_us": ("server.read_request", WALL, ("hit-heavy",)),
    "server.handle_us": ("server.handle", WALL, ALL),
    "server.encode_us": ("server.encode", WALL, ("hit-heavy",)),
    "server.ingest_append_us": ("server.ingest_append", WALL, ("ingest-mixed",)),
    "serving.pool_wait_us": ("serving.pool_wait", WALL, ("hit-heavy", "degraded")),
    "serving.shard_rtt_us": ("serving.shard_rtt", WALL, ("miss-heavy",)),
    "serving.registry_get_us": ("serving.registry_get", WALL, ("hit-heavy",)),
    "serving.cache_get_us": ("serving.cache_get", WALL, ("hit-heavy",)),
    "serving.fallback_us": ("serving.fallback", WALL, ("degraded",)),
    "core.predict_us": ("core.predict", WALL, ("miss-heavy",)),
    "core.context_us": ("core.context", WALL, ("miss-heavy",)),
    "core.temporal_us": ("core.temporal", WALL, ("miss-heavy",)),
    "core.spatial_us": ("core.spatial", WALL, ("miss-heavy",)),
    "core.tree_us": ("core.tree", WALL, ("miss-heavy",)),
    "core.features_self_us": ("core.features", SELF, ("miss-heavy",)),
    "telemetry.us_per_req": ("telemetry", WALL, ("hit-heavy",)),
}
CORE_PARTS = ("core.context_us", "core.temporal_us", "core.spatial_us",
              "core.tree_us", "core.features_self_us")
SETUP_PROBES = {"setup.import_s": "setup.import",
                "setup.load_trace_s": "setup.load_trace",
                "setup.restore_s": "setup.restore"}


def _sum_rows(tables) -> dict[str, list[int]]:
    total: dict[str, list[int]] = {}
    for table in tables:
        for probe, row in table.items():
            acc = total.setdefault(probe, [0, 0, 0])
            for i in range(3):
                acc[i] += row[i]
    return total


def layer_metrics(result: RunResult, workload: Workload, world: World,
                  window: Window, trace_dir: Path) -> dict[str, float]:
    """Per-layer metrics of the traced window, with their self-checks."""
    before, after = window.probes_before, window.probes_after
    zero = [0, 0, 0]
    diff = {pid: {probe: [a - b for a, b in zip(row, before.probes.get(pid, {})
                                                .get(probe, zero))]
                  for probe, row in probes.items()}
            for pid, probes in after.probes.items()}
    server = diff.get(window.server_pid, {})
    every = _sum_rows(diff.values())
    requests = server.get("server.handle", zero)[0]
    if not requests:
        raise BenchError("traced window recorded no Dispatcher.handle calls")

    metrics, fired = {}, {}
    for name, (probe, column, _) in PER_REQUEST.items():
        row = (server if name.startswith("server.") else every).get(probe, zero)
        metrics[name] = row[column] / requests / 1e3
        fired[name] = row[0] > 0
    metrics["telemetry.calls_per_req"] = every.get("telemetry", zero)[0] / requests
    fallbacks = every.get("serving.fallback", zero)[0]
    scans = every.get("serving.fallback_scan", zero)[0]
    metrics["serving.fallback_records_scanned"] = (
        scans * world.n_attacks / fallbacks if fallbacks else 0.0)
    lag = _lag_samples_us(trace_dir, window.server_pid, before.lag_samples,
                          after.lag_samples)
    metrics["server.loop_lag_p99_ms"] = quantile(sorted(lag), 0.99) / 1e3
    setup = after.probes.get(window.server_pid, {})
    for name, probe in SETUP_PROBES.items():
        metrics[name] = setup.get(probe, zero)[WALL] / 1e9
        fired[name] = setup.get(probe, zero)[0] > 0

    missing = [name for name, (_, _, on) in PER_REQUEST.items()
               if workload.name in on and not fired[name]]
    missing += [name for name in SETUP_PROBES if not fired[name]]
    if not lag:
        missing.append("server.loop_lag_p99_ms")
    if workload.name == "degraded" and not scans:
        missing.append("serving.fallback_records_scanned")
    result.check("every marked probe fired", not missing,
                 ", ".join(missing) or f"{requests} requests traced")
    if workload.name == "miss-heavy":
        parts = sum(metrics[name] for name in CORE_PARTS)
        predict = metrics["core.predict_us"]
        result.check("core.* parts within 10% of core.predict_us",
                     abs(predict - parts) <= 0.1 * predict,
                     f"{parts:.1f} of {predict:.1f} us")
    return metrics


# ----- the run ------------------------------------------------------------

def run_workload(world: World, name: str, seed: int, seconds: float, *,
                 traced: bool = False, boots: int = 3, spin: int = 0
                 ) -> RunResult:
    """One run; raises :class:`BenchError` when it cannot run at all.

    ``spin`` > 0 (untraced runs only) slows the server on purpose; see
    ``traced_server.spin``.
    """
    workload = WORKLOADS[name]
    result = RunResult(workload=name, seed=seed, window_s=seconds, traced=traced)
    WORK.mkdir(parents=True, exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"run-{name}-", dir=WORK))
    oracle = Oracle(world)
    calibrator = None
    try:
        if traced:
            result.metrics["setup.fit_s"] = export_models(
                world.trace, run_dir / "fit-store")
        calibrator = Calibrator(run_dir / "host-speed.bin")
        if traced:
            reference = serve_window(world, workload, seed, seconds, run_dir,
                                     "reference", boots=1)
            judge(result, workload, reference, oracle, prefix="reference: ")
            trace_dir = run_dir / "trace"
            trace_dir.mkdir()
            window = serve_window(world, workload, seed, seconds, run_dir,
                                  "traced", boots=1, trace_dir=trace_dir)
            judge(result, workload, window, oracle, prefix="traced: ")
            result.metrics.update(layer_metrics(result, workload, world,
                                                window, trace_dir))
            result.metrics["trace.overhead_frac"] = (
                1.0 - normalized_rps(window, calibrator)
                / normalized_rps(reference, calibrator))
            # listed per layer in BENCHMARK.json, measured untraced
            result.metrics["p99_ms"] = e2e_metrics(reference, calibrator)["p99_ms"]
            result.metrics["host.slowdown"] = calibrator.slowdown(window.quiet)
            result.metrics["loadgen.cpu_frac"] = window.cpu_frac
            result.metrics["serving.cache_hit_ratio"] = _cache_hit_ratio(window)
        else:
            window = serve_window(world, workload, seed, seconds, run_dir,
                                  "main", boots=boots, spin=spin)
            judge(result, workload, window, oracle)
            result.metrics.update(e2e_metrics(window, calibrator))
        result.metrics["fail_frac"] = result.failed / max(1, result.attempted)
    finally:
        if calibrator is not None:
            calibrator.close()
        oracle.close()
        shutil.rmtree(run_dir, ignore_errors=True)
    return result

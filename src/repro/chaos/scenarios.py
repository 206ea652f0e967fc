"""Named chaos scenarios: live topologies driven under a fault plan.

Each scenario builds a real slice of the stack (journal, sharded
engine + dispatcher, versioned store + refresh pipeline, supervised
replica set), arms a seeded :class:`~repro.chaos.faults.FaultPlan`,
drives deterministic traffic through it, and feeds every observable
outcome to an :class:`~repro.chaos.invariants.InvariantSuite`.  The
same seed always produces the same plan (``repro chaos plan`` prints
the canonical JSON to prove it), so a failure replays exactly.

Scenario catalog (``SCENARIOS``):

``journal-io``
    ``RecordJournal`` under injected write/fsync errors with repeated
    crash-recovery reopens and a hand-torn tail.  Invariant: offsets
    stay dense and every acknowledged record survives recovery.
``drift-skew``
    ``DriftMonitor`` on an injectable clock driven through scheduled
    clock-skew steps (including rollbacks).  Invariant: staleness
    never goes negative, decisions stay internally consistent.
``shard-pipes``
    ``ShardedForecastEngine`` + ``Dispatcher`` under pipe drops, pump
    EOFs, a worker SIGKILL, and deadline storms.  Invariant: every
    client-visible answer carries a forecast (real or degraded
    baseline) and the killed shard recovers.
``store-rollback``
    ``RefreshPipeline`` against a versioned store with injected
    ``activate_version``/``set_current`` failures.  Invariant:
    ``CURRENT`` always resolves to a verified version, failed
    candidates are quarantined, and the next trigger retries cleanly.
``replica-chaos`` (slow)
    A live 2-replica ``ReplicaSupervisor`` under probe faults, a
    replica SIGKILL, and a rolling reload.  Invariant: the ready floor
    holds at N-1 during the roll and per-incarnation ``model_version``
    never regresses.

Everything here must be deterministic in ``(scenario, seed)``: dataset
seeds are fixed per scenario, traffic is generated in sorted order,
and all randomness comes from the plan's seeded stream.
"""

from __future__ import annotations

import asyncio
import json
import os
import shutil
import signal
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from repro.chaos.faults import FaultInjector, FaultPlan
from repro.chaos.hooks import injected
from repro.chaos.invariants import InvariantSuite
from repro.core.spatiotemporal import AttackPrediction
from repro.errors import JournalError

__all__ = ["ScenarioResult", "Scenario", "SCENARIOS", "run_scenario",
           "scenario_names", "stub_factory", "StubPredictor"]

#: Dataset seeds are fixed per scenario: the chaos seed varies the
#: *fault schedule*, not the world it fires into, so two seeds differ
#: only in where the faults land.
_TINY_DATA_SEED = 5
_INGEST_DATA_SEED = 8


class StubPredictor:
    """Instant fixed-answer predictor for topology-focused scenarios."""

    def predict_next_for_network(self, asn, family, now=None):
        return AttackPrediction(
            hour=3.5, day=12.0, duration=600.0, magnitude=42.0,
            temporal_hour=3.0, spatial_hour=4.0,
            temporal_day=11.0, spatial_day=13.0,
        )


def stub_factory(trace, env, config):
    """Module-level so it stays picklable under any mp start method."""
    return StubPredictor()


@dataclass
class ScenarioResult:
    """Everything one scenario run produced, JSON-safe via to_dict."""

    name: str
    seed: int
    ok: bool
    duration_s: float
    digest: str
    schedule: dict
    fired: list[dict]
    invariants: dict
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "seed": self.seed,
            "ok": self.ok,
            "duration_s": round(self.duration_s, 3),
            "digest": self.digest,
            "schedule": self.schedule,
            "fired": self.fired,
            "invariants": self.invariants,
            "details": self.details,
        }


@dataclass(frozen=True)
class Scenario:
    """One catalog entry: plan builder + topology driver."""

    name: str
    description: str
    build_plan: Callable[[int], FaultPlan]
    run: Callable[[FaultPlan, FaultInjector, InvariantSuite, Path], dict]
    slow: bool = False


# ---------------------------------------------------------------------------
# journal-io
# ---------------------------------------------------------------------------

def _journal_io_plan(seed: int) -> FaultPlan:
    # Phase 1 (single writer, per-record fsync) visits journal.write
    # exactly 40 times and journal.fsync 37 times (the 3 write faults
    # abort before the fsync hook).  Phase 2 quotas target the visit
    # numbers that can only occur inside the concurrent-append hammer:
    # 8 threads x 10 appends makes write visits 41..120, and every
    # append that writes pays its own fsync visit (at least 78 more),
    # so fsync visits 38..46 land inside phase 2 by construction.
    return FaultPlan.generate(seed, "journal-io", [
        {"site": "journal.write", "count": 3, "visits": (1, 40),
         "action": "os_error"},
        {"site": "journal.fsync", "count": 2, "visits": (1, 40),
         "action": "os_error"},
        {"site": "journal.write", "count": 2, "visits": (50, 115),
         "action": "os_error"},
        {"site": "journal.fsync", "count": 2, "visits": (38, 46),
         "action": "os_error"},
    ])


def _tiny_records(n: int) -> list[dict]:
    """Deterministic tagged record dicts from the tiny fixed trace."""
    from repro.dataset import DatasetConfig, TraceGenerator

    trace, _env = TraceGenerator(DatasetConfig(
        n_days=2, seed=_TINY_DATA_SEED, scale=0.4, n_targets=10,
    )).generate()
    records = [{"type": "attack", **r.to_dict()} for r in trace.attacks]
    records += [{"type": "snapshot", **s.to_dict()} for s in trace.snapshots]
    if len(records) < n:
        records = (records * (n // len(records) + 1))
    return records[:n]


def _run_journal_io(plan: FaultPlan, injector: FaultInjector,
                    suite: InvariantSuite, workdir: Path) -> dict:
    from repro.ingest import RecordJournal

    path = workdir / "journal"
    records = _tiny_records(40)
    journal = RecordJournal(path, fsync=True, segment_max_records=8)
    acked: list[int] = []
    faults = 0
    reopens = 0
    for i, record in enumerate(records):
        try:
            acked.append(journal.append(record))
        except JournalError:
            suite.record_explained_error("journal.append")
            faults += 1
            # Crash-recover after every injected fault: close, reopen
            # (recovery truncates any torn tail), offsets must be dense.
            journal.close()
            journal = RecordJournal(path, fsync=True, segment_max_records=8)
            reopens += 1
            suite.check_journal_dense(journal, f"after fault at record {i}")
        if i % 10 == 9:
            journal.close()
            journal = RecordJournal(path, fsync=True, segment_max_records=8)
            reopens += 1
            suite.check_journal_dense(journal, f"periodic reopen at {i}")
    # A crash mid-append leaves a torn half-line; recovery must drop it
    # without losing any acknowledged record.
    journal.close()
    segments = journal.segments()
    with open(segments[-1], "a", encoding="utf-8") as fh:
        fh.write('{"offset": ' + str(journal.next_offset) + ', "rec')
    journal = RecordJournal(path, fsync=True, segment_max_records=8)
    reopens += 1
    suite.check_journal_dense(journal, "after torn tail recovery")
    on_disk = {entry.offset for entry in journal.tail(0)}
    for offset in acked:
        if offset not in on_disk:
            suite.violation(
                "journal-dense",
                f"acknowledged offset {offset} lost across recovery")

    # ----- phase 2: concurrent appends under write and fsync faults -----
    # 8 writer threads race on the journal lock while the plan injects
    # write and fsync faults between them.  A faulted append
    # acknowledges none of its records, so the invariant is unchanged:
    # density always, and no acknowledged offset ever missing after
    # recovery.
    import threading

    journal.close()
    journal = RecordJournal(path, fsync=True, segment_max_records=8)
    reopens += 1
    group_records = _tiny_records(120)[40:]
    acked_group: list[int] = []
    group_faults = 0
    phase2_lock = threading.Lock()

    def hammer(worker: int) -> None:
        nonlocal group_faults
        for i in range(10):
            record = group_records[worker * 10 + i]
            try:
                offset = journal.append(record)
            except JournalError:
                suite.record_explained_error("journal.append")
                with phase2_lock:
                    group_faults += 1
            else:
                with phase2_lock:
                    acked_group.append(offset)

    writers = [threading.Thread(target=hammer, args=(w,)) for w in range(8)]
    for writer in writers:
        writer.start()
    for writer in writers:
        writer.join()
    journal.close()
    journal = RecordJournal(path, fsync=True, segment_max_records=8)
    reopens += 1
    suite.check_journal_dense(journal, "after concurrent-append phase")
    on_disk = {entry.offset for entry in journal.tail(0)}
    if len(set(acked_group)) != len(acked_group):
        suite.violation("journal-dense",
                        "concurrent appends acknowledged a duplicate offset")
    for offset in acked + acked_group:
        if offset not in on_disk:
            suite.violation(
                "journal-dense",
                f"acknowledged offset {offset} lost across concurrent appends")
    return {
        "appended": len(acked),
        "journal_faults": faults,
        "reopens": reopens,
        "records_on_disk": len(on_disk),
        "group_appended": len(acked_group),
        "group_faults": group_faults,
    }


# ---------------------------------------------------------------------------
# drift-skew
# ---------------------------------------------------------------------------

def _drift_skew_plan(seed: int) -> FaultPlan:
    return FaultPlan.generate(seed, "drift-skew", [
        {"site": "runner", "kind": "clock_skew", "count": 4,
         "visits": (1, 12), "skew_range": (-7200.0, 7200.0)},
    ])


class _StepClock:
    """A manually-advanced monotonic-ish clock the plan can skew."""

    def __init__(self, start: float = 1000.0) -> None:
        self.t = start

    def now(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


def _run_drift_skew(plan: FaultPlan, injector: FaultInjector,
                    suite: InvariantSuite, workdir: Path) -> dict:
    from repro.ingest import DriftConfig, DriftMonitor

    clock = _StepClock()
    monitor = DriftMonitor(
        DriftConfig(window=16, min_observations=4, ratio=1.2,
                    staleness_s=3600.0),
        clock=clock.now,
    )
    skews = 0
    fires = 0
    for step in range(1, 13):
        for fault in plan.steps_at(step):
            if fault.kind == "clock_skew":
                clock.advance(float(fault.payload["skew_s"]))
                skews += 1
                suite.record_explained_error("clock_skew")
        # A drifting model: its error grows with the step while the
        # actuals stay in a tight band the baselines track well.
        for i in range(5):
            actual = 100.0 + (i % 7) * 3.0
            monitor.observe("L", actual, actual + 5.0 * step)
        # An all-zero lineage: baselines and model agree at zero; the
        # ratio test must stay well-defined and quiet.
        monitor.observe("Z", 0.0, 0.0)
        clock.advance(300.0)
        for lineage in ("L", "Z"):
            decision = monitor.check(lineage)
            if decision.seconds_since_refresh < 0:
                suite.violation(
                    "clock-sane",
                    f"{lineage}: negative staleness "
                    f"{decision.seconds_since_refresh} at step {step}")
            if decision.fire and not (decision.drifted or decision.stale):
                suite.violation(
                    "clock-sane",
                    f"{lineage}: fired without a reason at step {step}")
            if decision.lineage == "Z" and decision.drifted:
                suite.violation(
                    "clock-sane",
                    f"all-zero lineage drifted at step {step}: "
                    f"{decision.to_dict()}")
        decision = monitor.check("L")
        if decision.fire:
            fires += 1
            monitor.mark_refreshed("L")
            after = monitor.check("L")
            if after.seconds_since_refresh < 0:
                suite.violation(
                    "clock-sane",
                    f"negative staleness right after refresh at {step}")
    return {"clock_skews": skews, "refresh_fires": fires,
            "final_clock": clock.t}


# ---------------------------------------------------------------------------
# shard-pipes
# ---------------------------------------------------------------------------

def _shard_pipes_plan(seed: int) -> FaultPlan:
    return FaultPlan.generate(seed, "shard-pipes", [
        {"site": "shard.send[0]", "count": 2, "visits": (2, 24),
         "action": "broken_pipe"},
        {"site": "shard.pump[1]", "count": 1, "visits": (2, 18),
         "action": "eof"},
        {"site": "dispatcher.deadline", "kind": "value", "count": 3,
         "visits": (4, 28), "payload": {"timeout_s": 0.0}},
        {"site": "runner", "kind": "kill", "count": 1, "visits": (3, 7),
         "payload": {"shard": 1}},
        {"site": "runner", "kind": "deadline_storm", "count": 1,
         "visits": (8, 10), "payload": {"count": 4}},
    ])


def _run_shard_pipes(plan: FaultPlan, injector: FaultInjector,
                     suite: InvariantSuite, workdir: Path) -> dict:
    from repro.dataset import DatasetConfig, TraceGenerator
    from repro.serving import ForecastRequest, ShardedForecastEngine
    from repro.server.dispatcher import Dispatcher

    trace, env = TraceGenerator(DatasetConfig(
        n_days=2, seed=_TINY_DATA_SEED, scale=0.4, n_targets=10,
    )).generate()
    pairs = sorted({(a.target_asn, a.family) for a in trace.attacks})
    requests = [{"asn": asn, "family": family}
                for asn, family in pairs]
    kills = 0
    storms = 0
    with ShardedForecastEngine(trace, env, n_shards=2,
                               factory=stub_factory,
                               restart_backoff_s=0.1,
                               max_restart_backoff_s=0.5) as engine:
        dispatcher = Dispatcher(engine, default_timeout_s=5.0)

        async def ask(payload: dict) -> tuple[int, dict]:
            status, body, _retry = await dispatcher.handle(
                "forecast", payload)
            return status, body

        for step in range(1, 11):
            for fault in plan.steps_at(step):
                if fault.kind == "kill":
                    shard = int(fault.payload.get("shard", 0))
                    # The target may itself be mid-restart from an
                    # earlier pipe fault; wait briefly for a live pid
                    # so the scheduled kill actually lands.
                    kill_deadline = time.monotonic() + 3.0
                    pid = engine.shard_pids()[shard]
                    while pid is None and time.monotonic() < kill_deadline:
                        time.sleep(0.05)
                        pid = engine.shard_pids()[shard]
                    if pid is not None:
                        os.kill(pid, signal.SIGKILL)
                        kills += 1
                        suite.record_explained_error(f"kill shard {shard}")
                elif fault.kind == "deadline_storm":
                    storms += 1
                    for k in range(int(fault.payload.get("count", 3))):
                        payload = dict(requests[k % len(requests)])
                        payload["timeout_s"] = 0.001
                        status, body = asyncio.run(ask(payload))
                        suite.record_response(status, body,
                                              f"storm req {k}")
            for k in range(3):
                index = (step - 1) * 3 + k
                payload = dict(requests[index % len(requests)])
                status, body = asyncio.run(ask(payload))
                suite.record_response(status, body,
                                      f"step {step} req {k}")
        deadline = time.monotonic() + 20.0
        while time.monotonic() < deadline:
            if all(pid is not None for pid in engine.shard_pids()):
                break
            time.sleep(0.05)
        else:
            suite.violation(
                "answers",
                f"killed shard never recovered: pids {engine.shard_pids()}")
        final_pids = engine.shard_pids()
    return {"kills": kills, "deadline_storms": storms,
            "final_shard_pids": final_pids}


# ---------------------------------------------------------------------------
# store-rollback
# ---------------------------------------------------------------------------

def _store_rollback_plan(seed: int) -> FaultPlan:
    # Visits are pinned, not sampled: the refresh sequence below visits
    # the hooks in a fixed order, and the scenario asserts which step
    # each containment fires on.  The seed still varies the digest via
    # the plan identity, keeping the replay check honest.
    return FaultPlan.generate(seed, "store-rollback", [
        {"site": "store.activate", "count": 1, "visits": (2, 2),
         "action": "state_error"},
        {"site": "store.set_current", "count": 1, "visits": (3, 3),
         "action": "state_error"},
    ])


def _run_store_rollback(plan: FaultPlan, injector: FaultInjector,
                        suite: InvariantSuite, workdir: Path) -> dict:
    from repro.dataset import DatasetConfig, TraceGenerator
    from repro.ingest import RecordJournal, RefreshPipeline, SimulatedFeed
    from repro.persistence import ModelStore

    trace, env = TraceGenerator(DatasetConfig(
        n_days=10, seed=_INGEST_DATA_SEED, scale=0.5, n_targets=30,
    )).generate()
    journal = RecordJournal(workdir / "journal", fsync=False)
    store_root = workdir / "store"
    pipeline = RefreshPipeline(trace, env, journal, store_root)
    store = ModelStore(store_root)
    feed = SimulatedFeed(trace, horizon_days=1, batch_days=0.25)

    def observe(label: str) -> None:
        suite.check_store_current(store, label)
        suite.record_model_version("store",
                                   store.describe().get("max_version"))

    # Seed export: activate visit 1, set_current visit 1 -- clean.
    seed_result = pipeline.refresh(reason="seed")
    if not seed_result.ok:
        suite.violation("current-resolves",
                        f"seed export failed: {seed_result.error}")
    observe("after seed")

    # Drift refresh: activate visit 2 raises -> contained + quarantined.
    journal.append_many(feed.next_batch())
    blocked = pipeline.refresh(reason="drift")
    if blocked.ok:
        suite.violation("current-resolves",
                        "refresh succeeded through an injected "
                        "activate failure")
    else:
        suite.record_explained_error("activate fault contained")
    if blocked.quarantined is None:
        suite.violation("current-resolves",
                        "failed candidate was not quarantined")
    observe("after contained activate fault")

    # Next trigger retries: activate visit 3 and set_current visit 2
    # both pass -- the quarantined failure does not poison the retry.
    journal.append_many(feed.next_batch())
    retried = pipeline.refresh(reason="drift")
    if not retried.ok:
        suite.violation("current-resolves",
                        f"quarantine-then-retry failed: {retried.error}")
    observe("after retry")

    # One more: activate visit 4 passes its own guard, then set_current
    # visit 3 raises *after* the version rename -- contained, CURRENT
    # keeps pointing at the last verified version.
    journal.append_many(feed.next_batch())
    partial = pipeline.refresh(reason="drift")
    if partial.ok:
        suite.violation("current-resolves",
                        "refresh succeeded through an injected "
                        "CURRENT-swap failure")
    else:
        suite.record_explained_error("set_current fault contained")
    observe("after contained CURRENT-swap fault")
    current = store.current_version()
    expected = (retried.version_path.name
                if retried.ok and retried.version_path else None)
    if expected is not None and (current is None
                                 or current.name != expected):
        suite.violation(
            "current-resolves",
            f"CURRENT moved off the verified version: "
            f"{current and current.name} != {expected}")
    return {
        "versions": [p.name for p in store.versions()],
        "current": current.name if current else None,
        "quarantined": str(blocked.quarantined) if blocked.quarantined
        else None,
        "refreshes": 4,
    }


# ---------------------------------------------------------------------------
# replica-chaos (slow)
# ---------------------------------------------------------------------------

def _replica_chaos_plan(seed: int) -> FaultPlan:
    return FaultPlan.generate(seed, "replica-chaos", [
        {"site": "supervisor.probe[0]", "count": 2, "visits": (5, 120),
         "action": "os_error"},
        {"site": "supervisor.probe[1]", "count": 1, "visits": (5, 120),
         "action": "timeout"},
        {"site": "runner", "kind": "kill", "count": 1, "visits": (2, 4),
         "payload": {"replica": 1}},
    ])


def _run_replica_chaos(plan: FaultPlan, injector: FaultInjector,
                       suite: InvariantSuite, workdir: Path) -> dict:
    import threading

    from repro.cluster import ReplicaSupervisor
    from repro.dataset import DatasetConfig, TraceGenerator
    from repro.dataset.loader import save_trace
    from repro.ingest import RecordJournal, RefreshPipeline
    from repro.persistence import ModelStore

    trace, env = TraceGenerator(DatasetConfig(
        n_days=10, seed=_INGEST_DATA_SEED, scale=0.5, n_targets=30,
    )).generate()
    trace_path = workdir / "trace.jsonl.gz"
    save_trace(trace, trace_path)
    journal = RecordJournal(workdir / "journal", fsync=False)
    store_root = workdir / "store"
    seeded = RefreshPipeline(trace, env, journal, store_root).refresh(
        reason="seed")
    if not seeded.ok:
        suite.violation("current-resolves",
                        f"seed export failed: {seeded.error}")
        return {"aborted": "no seed store"}
    store = ModelStore(store_root)

    kills = 0
    report: dict | None = None
    with ReplicaSupervisor(replicas=2, trace_path=trace_path,
                           store_path=store_root,
                           restart_backoff_s=0.1,
                           drain_timeout_s=10.0) as supervisor:
        supervisor.wait_ready(2, timeout_s=120.0)
        stop = threading.Event()

        def sample() -> None:
            while not stop.is_set():
                suite.record_ready(supervisor.ready_count(), 2, floor=1)
                for replica in supervisor.replicas:
                    version = (replica.health or {}).get("model_version")
                    if replica.ready and replica.pid is not None:
                        suite.record_model_version(
                            f"replica{replica.index}:pid{replica.pid}",
                            version)
                time.sleep(0.05)

        sampler = threading.Thread(target=sample, daemon=True)
        sampler.start()
        try:
            # Phase 1: probe faults fire on their own as the watch
            # loops run; the kill step hits between observation rounds.
            for step in range(1, 5):
                for fault in plan.steps_at(step):
                    if fault.kind == "kill":
                        index = int(fault.payload.get("replica", 0))
                        replica = supervisor.replicas[index]
                        if (replica.process is not None
                                and replica.process.poll() is None):
                            replica.process.send_signal(signal.SIGKILL)
                            kills += 1
                            suite.record_explained_error(
                                f"kill replica {index}")
                time.sleep(0.5)
            if not supervisor.wait_ready(2, timeout_s=60.0):
                suite.violation(
                    "ready-floor",
                    "set never returned to full strength after the kill")

            # Phase 2: roll to a byte-identical new version -- the roll
            # machinery and the N-1 floor are what is under test, so no
            # refit is needed.
            v1 = store.current_version()
            v2 = store.path / "v-00000002"
            shutil.copytree(v1, v2)
            store.set_current(v2.name)
            report = supervisor.rolling_reload(
                str(v2), per_replica_timeout_s=120.0)
            if not report.get("ok"):
                suite.violation("ready-floor",
                                f"rolling reload failed: {report}")
            if report.get("min_ready", 0) < 1:
                suite.violation(
                    "ready-floor",
                    f"reload floor dropped to {report.get('min_ready')}")
        finally:
            stop.set()
            sampler.join(timeout=5.0)
    suite.check_store_current(store, "after replica chaos")
    return {"kills": kills, "reload": report,
            "restarts": [r.restarts for r in supervisor.replicas]}


# ---------------------------------------------------------------------------
# catalog + runner
# ---------------------------------------------------------------------------

SCENARIOS: dict[str, Scenario] = {
    scenario.name: scenario for scenario in [
        Scenario(
            name="journal-io",
            description="journal write/fsync faults + crash recovery; "
                        "offsets stay dense, acked records survive",
            build_plan=_journal_io_plan,
            run=_run_journal_io,
        ),
        Scenario(
            name="drift-skew",
            description="drift monitor under scheduled clock skew and "
                        "rollback; staleness stays sane",
            build_plan=_drift_skew_plan,
            run=_run_drift_skew,
        ),
        Scenario(
            name="shard-pipes",
            description="sharded engine + dispatcher under pipe drops, "
                        "a worker SIGKILL, and deadline storms; every "
                        "answer is a forecast",
            build_plan=_shard_pipes_plan,
            run=_run_shard_pipes,
        ),
        Scenario(
            name="store-rollback",
            description="refresh pipeline under activate/CURRENT-swap "
                        "faults; CURRENT always resolves, quarantine "
                        "then retry",
            build_plan=_store_rollback_plan,
            run=_run_store_rollback,
        ),
        Scenario(
            name="replica-chaos",
            description="live replica set under probe faults, SIGKILL, "
                        "and a rolling reload; N-1 ready floor holds",
            build_plan=_replica_chaos_plan,
            run=_run_replica_chaos,
            slow=True,
        ),
    ]
}


def scenario_names(include_slow: bool = True) -> list[str]:
    """Catalog names, optionally excluding the slow ones."""
    return [name for name, scenario in SCENARIOS.items()
            if include_slow or not scenario.slow]


def run_scenario(name: str, seed: int,
                 workdir: str | Path | None = None) -> ScenarioResult:
    """Run one named scenario under its seeded plan.

    ``workdir`` defaults to a throwaway temp directory.  The armed
    injector is process-global, so scenarios must not run concurrently
    in one process (the CLI and tests run them sequentially).
    """
    try:
        scenario = SCENARIOS[name]
    except KeyError:
        raise ValueError(
            f"unknown scenario {name!r}; known: "
            f"{', '.join(sorted(SCENARIOS))}") from None
    plan = scenario.build_plan(seed)
    injector = FaultInjector(plan)
    suite = InvariantSuite()
    t0 = time.monotonic()
    cleanup = None
    if workdir is None:
        cleanup = tempfile.TemporaryDirectory(prefix=f"chaos-{name}-")
        workdir = cleanup.name
    try:
        with injected(injector):
            details = scenario.run(plan, injector, suite, Path(workdir))
    finally:
        if cleanup is not None:
            cleanup.cleanup()
    report = suite.report()
    return ScenarioResult(
        name=name,
        seed=seed,
        ok=report["ok"],
        duration_s=time.monotonic() - t0,
        digest=plan.digest(),
        schedule=plan.to_dict(),
        fired=injector.fired_log(),
        invariants=report,
        details=_json_safe(details),
    )


def _json_safe(value):
    """Coerce scenario detail payloads to JSON-encodable values."""
    try:
        json.dumps(value)
        return value
    except (TypeError, ValueError):
        if isinstance(value, dict):
            return {str(k): _json_safe(v) for k, v in value.items()}
        if isinstance(value, (list, tuple)):
            return [_json_safe(v) for v in value]
        return repr(value)

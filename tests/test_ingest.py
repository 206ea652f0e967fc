"""Tests for the continuous-ingest layer (`repro.ingest`).

Three layers, increasingly real:

* the :class:`RecordJournal` and :class:`DriftMonitor` -- pure
  filesystem/arithmetic unit tests, no model fits;
* the :class:`RefreshPipeline` against a real registry and versioned
  store -- each test pays for one warm refit on the cheap 10-day
  config, so these ride behind ``@pytest.mark.slow``;
* the acceptance scenario -- an :class:`IngestDaemon` streaming
  simulated records into a journal, firing a drift refresh, and
  rolling the verified new version across a *live 2-replica
  supervised cluster* while an in-flight failover client watches
  ``model_version`` advance with zero errors, followed by a
  deliberately corrupted candidate being quarantined without any
  replica loading it.
"""

import asyncio
import json
import shutil
import threading
import time

import pytest

from repro.dataset import DatasetConfig, TraceGenerator
from repro.errors import IngestError, JournalError
from repro.ingest import (
    DriftConfig,
    DriftMonitor,
    IngestDaemon,
    RecordJournal,
    RefreshPipeline,
    SimulatedFeed,
    extend_trace,
    pick_canaries,
)
from repro.persistence import ModelStore
from repro.serving import ModelRegistry
from repro.telemetry import Telemetry

INGEST_CONFIG = DatasetConfig(n_days=10, seed=8, scale=0.5, n_targets=30)


def tagged(trace, kind, n, start=0):
    """The first ``n`` records of a trace as tagged journal dicts."""
    records = trace.attacks if kind == "attack" else trace.snapshots
    return [{"type": kind, **r.to_dict()} for r in records[start:start + n]]


# ----- journal -----


class TestRecordJournal:
    def test_append_assigns_dense_offsets(self, small_trace, tmp_path):
        journal = RecordJournal(tmp_path / "j", fsync=False)
        assert journal.next_offset == 0
        assert journal.append(tagged(small_trace, "attack", 1)[0]) == 0
        first, nxt = journal.append_many(tagged(small_trace, "attack", 3, 1))
        assert (first, nxt) == (1, 4)
        status = journal.status()
        assert status["next_offset"] == 4
        assert status["segments"] == 1
        assert not status["torn_tail_recovered"]

    def test_tail_parses_both_kinds_in_order(self, small_trace, tmp_path):
        journal = RecordJournal(tmp_path / "j", fsync=False)
        journal.append_many(tagged(small_trace, "attack", 2)
                            + tagged(small_trace, "snapshot", 1))
        entries = list(journal.tail())
        assert [e.offset for e in entries] == [0, 1, 2]
        assert [e.kind for e in entries] == ["attack", "attack", "snapshot"]
        assert entries[0].record.ddos_id == small_trace.attacks[0].ddos_id
        # .raw round-trips to the tagged dict form append took.
        assert entries[0].raw["type"] == "attack"

    def test_tail_since_offset_skips_earlier(self, small_trace, tmp_path):
        journal = RecordJournal(tmp_path / "j", fsync=False,
                                segment_max_records=2)
        journal.append_many(tagged(small_trace, "attack", 7))
        assert [e.offset for e in journal.tail(5)] == [5, 6]
        assert [e.offset for e in journal.tail(0)] == list(range(7))

    def test_segment_rotation_names_by_first_offset(self, small_trace,
                                                    tmp_path):
        journal = RecordJournal(tmp_path / "j", fsync=False,
                                segment_max_records=3)
        journal.append_many(tagged(small_trace, "attack", 8))
        names = [s.name for s in journal.segments()]
        assert names == ["segment-000000000000.jsonl",
                         "segment-000000000003.jsonl",
                         "segment-000000000006.jsonl"]

    def test_batch_validates_before_assigning_any_offset(self, small_trace,
                                                         tmp_path):
        journal = RecordJournal(tmp_path / "j", fsync=False)
        batch = tagged(small_trace, "attack", 2) + [{"type": "attack"}]
        with pytest.raises(ValueError, match="malformed attack"):
            journal.append_many(batch)
        assert journal.next_offset == 0
        assert list(journal.tail()) == []

    def test_metadata_records_rejected(self, small_trace, tmp_path):
        journal = RecordJournal(tmp_path / "j", fsync=False)
        record = {"type": "metadata", **small_trace.metadata.to_dict()}
        with pytest.raises(ValueError, match="metadata"):
            journal.append(record)

    def test_cross_process_reader_sees_appends(self, small_trace, tmp_path):
        writer = RecordJournal(tmp_path / "j", fsync=False)
        reader = RecordJournal(tmp_path / "j", fsync=False)
        writer.append_many(tagged(small_trace, "attack", 4))
        # The reader was created before any append: tail() re-scans disk.
        assert [e.offset for e in reader.tail()] == [0, 1, 2, 3]

    def test_torn_tail_recovered_and_truncated(self, small_trace, tmp_path):
        journal = RecordJournal(tmp_path / "j", fsync=False)
        journal.append_many(tagged(small_trace, "attack", 3))
        journal.close()
        segment = journal.segments()[-1]
        with open(segment, "a", encoding="utf-8") as fh:
            fh.write('{"offset": 3, "record": {"type": "att')  # crash mid-write
        # A reader skips the torn line silently.
        assert [e.offset for e in journal.tail()] == [0, 1, 2]
        # A recovering writer truncates it and resumes at the right offset.
        recovered = RecordJournal(tmp_path / "j", fsync=False)
        assert recovered.next_offset == 3
        assert recovered.status()["torn_tail_recovered"]
        # The torn line is physically gone: every remaining line parses.
        lines = segment.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 3
        for line in lines:
            json.loads(line)
        assert recovered.append(tagged(small_trace, "attack", 1, 3)[0]) == 3
        assert len(list(recovered.tail())) == 4

    def test_corruption_mid_journal_raises_typed(self, small_trace, tmp_path):
        journal = RecordJournal(tmp_path / "j", fsync=False,
                                segment_max_records=2)
        journal.append_many(tagged(small_trace, "attack", 4))
        journal.close()
        first = journal.segments()[0]
        first.write_text('{"offset": 0, "garbage\n', encoding="utf-8")
        with pytest.raises(JournalError, match="corrupt journal line"):
            list(journal.tail())
        # Recovery refuses it too: only the *tail* may be torn.
        with pytest.raises(JournalError):
            RecordJournal(tmp_path / "j", fsync=False)

    def test_segment_bound_validated(self, tmp_path):
        with pytest.raises(ValueError, match="segment_max_records"):
            RecordJournal(tmp_path / "j", segment_max_records=0)

    def test_concurrent_writers_get_dense_offsets(self, small_trace, tmp_path,
                                                  monkeypatch):
        """8 writers: dense unique offsets, one fsync per append."""
        import repro.ingest.journal as journal_module

        fsyncs = []
        real_fsync = journal_module.os.fsync
        monkeypatch.setattr(journal_module.os, "fsync",
                            lambda fd: (fsyncs.append(fd), real_fsync(fd))[1])
        journal = RecordJournal(tmp_path / "j", fsync=True)
        records = tagged(small_trace, "attack", 8)
        acked = []
        lock = threading.Lock()

        def writer(record):
            for _ in range(10):
                offset = journal.append(record)
                with lock:
                    acked.append(offset)

        threads = [threading.Thread(target=writer, args=(records[i],))
                   for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        journal.close()
        assert sorted(acked) == list(range(80))
        assert [e.offset for e in journal.tail()] == list(range(80))
        assert len(fsyncs) == 80

    def test_failed_fsync_acknowledges_nobody(self, small_trace, tmp_path,
                                              monkeypatch):
        """Concurrent writers, one fsync fault: its caller alone fails."""
        import repro.ingest.journal as journal_module

        records = tagged(small_trace, "attack", 8)
        journal = RecordJournal(tmp_path / "j", fsync=True)
        barrier = threading.Barrier(4)
        real_fsync = journal_module.os.fsync
        state = {"failed": False}

        def flaky_fsync(fd):
            if not state["failed"]:
                state["failed"] = True
                raise OSError("injected fsync fault")
            return real_fsync(fd)

        monkeypatch.setattr(journal_module.os, "fsync", flaky_fsync)
        acked, errors = [], []
        lock = threading.Lock()

        def writer(record):
            barrier.wait()
            try:
                offset = journal.append(record)
            except JournalError:
                with lock:
                    errors.append(record)
            else:
                with lock:
                    acked.append(offset)

        threads = [threading.Thread(target=writer, args=(records[i],))
                   for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(errors) == 1 and len(acked) == 3
        # The journal stays usable and loses no acknowledged offset.
        post = journal.append(records[4])
        journal.close()
        on_disk = {e.offset for e in journal.tail()}
        assert set(acked) <= on_disk
        assert post in on_disk


# ----- drift -----


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class TestDriftConfig:
    @pytest.mark.parametrize("kwargs", [
        {"window": 1}, {"min_observations": 0},
        {"ratio": 0.0}, {"staleness_s": 0.0},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            DriftConfig(**kwargs)


class TestDriftMonitor:
    def monitor(self, **cfg):
        defaults = {"window": 16, "min_observations": 4,
                    "ratio": 1.25, "staleness_s": 1000.0}
        clock = FakeClock()
        return DriftMonitor(DriftConfig(**(defaults | cfg)),
                            Telemetry(), clock=clock), clock

    def test_accurate_model_stays_healthy(self):
        monitor, _clock = self.monitor()
        for actual in (10.0, 40.0, 20.0, 55.0, 30.0, 60.0):
            monitor.observe("lin", actual, predicted=actual)  # error 0
        decision = monitor.check("lin")
        assert not decision.fire
        assert decision.reason == "healthy"
        assert decision.model_mae == 0.0
        assert decision.baseline_mae > 0.0

    def test_drift_fires_when_model_loses_to_baselines(self):
        monitor, _clock = self.monitor()
        for _ in range(8):
            # Constant actuals: AlwaysSame/AlwaysMean are perfect, the
            # model is off by 100 every time.
            monitor.observe("lin", 50.0, predicted=150.0)
        decision = monitor.check("lin")
        assert decision.drifted and decision.fire
        assert decision.reason == "drift"
        assert decision.model_mae == pytest.approx(100.0)
        assert decision.baseline_mae == pytest.approx(0.0, abs=1e-9)
        assert monitor.telemetry.counter("ingest.drift.fired") == 1

    def test_min_observations_gates_drift(self):
        monitor, _clock = self.monitor(min_observations=10)
        for _ in range(5):
            monitor.observe("lin", 50.0, predicted=150.0)
        assert not monitor.check("lin").fire

    def test_staleness_fires_without_any_traffic(self):
        monitor, clock = self.monitor(staleness_s=100.0)
        monitor.observe("lin", 1.0, predicted=1.0)  # creates the lineage
        assert not monitor.check("lin").stale
        clock.advance(101.0)
        decision = monitor.check("lin")
        assert decision.stale and decision.fire
        assert decision.reason == "stale"
        assert decision.seconds_since_refresh >= 100.0

    def test_mark_refreshed_resets_model_window_not_actuals(self):
        monitor, clock = self.monitor()
        for _ in range(8):
            monitor.observe("lin", 50.0, predicted=150.0)
        assert monitor.check("lin").fire
        clock.advance(10.0)
        monitor.mark_refreshed("lin")
        decision = monitor.check("lin")
        assert not decision.fire
        assert decision.n_observations == 0
        assert decision.seconds_since_refresh == 0.0
        # Baseline replay context survived the refresh.
        assert decision.baseline_mae is not None

    def test_unscored_records_feed_baselines_only(self):
        monitor, _clock = self.monitor()
        for _ in range(6):
            monitor.observe("lin", 50.0, predicted=None)
        decision = monitor.check("lin")
        assert decision.model_mae is None
        assert not decision.drifted
        assert monitor.telemetry.counter("ingest.drift.unscored") == 6

    def test_window_is_bounded(self):
        monitor, _clock = self.monitor(window=4)
        for i in range(20):
            monitor.observe("lin", float(i), predicted=float(i))
        window = monitor._lineages["lin"]
        assert len(window.actuals) == 4
        assert len(window.model_errors) == 4

    def test_status_covers_all_lineages(self):
        monitor, _clock = self.monitor()
        monitor.observe("a", 1.0, 1.0)
        monitor.observe("b", 2.0, 2.0)
        status = monitor.status()
        assert set(status) == {"a", "b"}
        assert status["a"]["reason"] == "healthy"

    def test_exactly_min_observations_is_enough_to_fire(self):
        # The gate is inclusive: n == min_observations may fire; one
        # fewer may not, no matter how bad the model looks.
        monitor, _clock = self.monitor(min_observations=4)
        for _ in range(3):
            monitor.observe("lin", 50.0, predicted=150.0)
        decision = monitor.check("lin")
        assert decision.n_observations == 3 and not decision.fire
        monitor.observe("lin", 50.0, predicted=150.0)
        decision = monitor.check("lin")
        assert decision.n_observations == 4
        assert decision.drifted and decision.fire

    def test_window_exactly_min_observations_wide(self):
        # window == min_observations: the deque can never hold more
        # than the gate requires, so drift stays decidable.
        monitor, _clock = self.monitor(window=4, min_observations=4)
        for _ in range(10):
            monitor.observe("lin", 50.0, predicted=150.0)
        decision = monitor.check("lin")
        assert decision.n_observations == 4
        assert decision.drifted and decision.fire

    def test_all_zero_actuals_with_perfect_model_stay_healthy(self):
        # Baselines and model all predict 0 exactly: every MAE is 0,
        # and 0 > ratio * 0 must be false (no drift, no div-by-zero).
        monitor, _clock = self.monitor()
        for _ in range(8):
            monitor.observe("lin", 0.0, predicted=0.0)
        decision = monitor.check("lin")
        assert decision.model_mae == 0.0
        assert decision.baseline_mae == 0.0
        assert not decision.drifted
        assert decision.reason == "healthy"

    def test_all_zero_actuals_with_wrong_model_drift(self):
        # Same zero actuals, model constantly wrong: baseline MAE is 0,
        # so any positive model MAE exceeds ratio * 0 and fires.
        monitor, _clock = self.monitor()
        for _ in range(8):
            monitor.observe("lin", 0.0, predicted=5.0)
        decision = monitor.check("lin")
        assert decision.model_mae == pytest.approx(5.0)
        assert decision.baseline_mae == 0.0
        assert decision.drifted and decision.fire

    def test_staleness_survives_clock_rollback(self):
        # A clock stepping backwards past the refresh mark must clamp
        # elapsed time at zero, not go negative or fire staleness.
        monitor, clock = self.monitor(staleness_s=100.0)
        clock.advance(50.0)
        monitor.observe("lin", 1.0, predicted=1.0)  # refreshed_at = 50
        clock.advance(-40.0)  # now = 10, before the refresh mark
        decision = monitor.check("lin")
        assert decision.seconds_since_refresh == 0.0
        assert not decision.stale and not decision.fire
        # Once the clock passes the mark again, staleness resumes.
        clock.advance(141.0)  # now = 151, elapsed = 101
        decision = monitor.check("lin")
        assert decision.seconds_since_refresh == pytest.approx(101.0)
        assert decision.stale and decision.fire


# ----- trace reconstruction (pure) -----


class TestExtendTrace:
    def test_empty_extension_is_the_base_itself(self, small_trace):
        extended = extend_trace(small_trace, [], [])
        assert extended is small_trace
        assert extended.fingerprint() == small_trace.fingerprint()

    def test_extension_appends_and_keeps_metadata(self, small_trace):
        extra = list(small_trace.attacks[:5])
        extended = extend_trace(small_trace, extra, [])
        assert len(extended.attacks) == len(small_trace.attacks) + 5
        assert extended.metadata is small_trace.metadata
        assert extended.fingerprint() != small_trace.fingerprint()

    def test_pick_canaries_busiest_first(self, small_trace):
        canaries = pick_canaries(small_trace, count=3)
        assert len(canaries) == 3
        frequency = {}
        for attack in small_trace.attacks:
            key = (attack.target_asn, attack.family)
            frequency[key] = frequency.get(key, 0) + 1
        assert frequency[canaries[0]] == max(frequency.values())
        # Deterministic: same trace, same list.
        assert canaries == pick_canaries(small_trace, count=3)


class TestRefreshPipelineBookkeeping:
    """Offset/trace arithmetic that needs no model fit."""

    def test_trace_at_offsets(self, small_trace, small_env, tmp_path):
        journal = RecordJournal(tmp_path / "j", fsync=False)
        pipeline = RefreshPipeline(small_trace, small_env, journal,
                                   tmp_path / "store")
        trace, offset = pipeline.trace_at()
        assert trace is small_trace and offset == 0
        journal.append_many(tagged(small_trace, "attack", 4)
                            + tagged(small_trace, "snapshot", 2))
        trace, offset = pipeline.trace_at()
        assert offset == 6
        assert len(trace.attacks) == len(small_trace.attacks) + 4
        assert len(trace.snapshots) == len(small_trace.snapshots) + 2
        partial, offset = pipeline.trace_at(3)
        assert offset == 3
        assert len(partial.attacks) == len(small_trace.attacks) + 3

    def test_load_current_on_empty_store_is_none(self, small_trace, small_env,
                                                 tmp_path):
        journal = RecordJournal(tmp_path / "j", fsync=False)
        pipeline = RefreshPipeline(small_trace, small_env, journal,
                                   tmp_path / "store")
        assert pipeline.load_current() is None
        status = pipeline.status()
        assert status["current_version"] is None
        assert status["journal_next_offset"] == 0


# ----- simulated feed -----


class TestSimulatedFeed:
    @pytest.fixture(scope="class")
    def base(self):
        trace, _env = TraceGenerator(INGEST_CONFIG).generate()
        return trace

    def test_feed_streams_only_past_the_base_window(self, base):
        from repro.dataset.records import DAY

        feed = SimulatedFeed(base, horizon_days=2, batch_days=0.5)
        cutoff = base.metadata.n_days * DAY
        records = []
        while not feed.exhausted:
            records.extend(feed.next_batch())
        assert records
        for record in records:
            timestamp = (record["start_time"] if record["type"] == "attack"
                         else record["hour_index"] * 3600.0)
            assert timestamp >= cutoff
        timestamps = [r["start_time"] if r["type"] == "attack"
                      else r["hour_index"] * 3600.0 for r in records]
        assert timestamps == sorted(timestamps)

    def test_feed_is_deterministic(self, base):
        one = SimulatedFeed(base, horizon_days=1, batch_days=1.0)
        two = SimulatedFeed(base, horizon_days=1, batch_days=1.0)
        assert one.next_batch() == two.next_batch()

    def test_feed_records_pass_the_journal_gate(self, base, tmp_path):
        feed = SimulatedFeed(base, horizon_days=1, batch_days=0.5)
        journal = RecordJournal(tmp_path / "j", fsync=False)
        batch = feed.next_batch()
        assert batch
        first, nxt = journal.append_many(batch)
        assert (first, nxt) == (0, len(batch))

    def test_validation(self, base):
        with pytest.raises(ValueError):
            SimulatedFeed(base, horizon_days=0)
        with pytest.raises(ValueError):
            SimulatedFeed(base, batch_days=0.0)


# ----- refresh pipeline against a real registry (one fit each) -----


@pytest.fixture(scope="module")
def seeded(tmp_path_factory):
    """A base trace plus a seeded versioned store (the module's one cold fit).

    Tests copy the store into their own tmp dir, so the seed stays
    pristine and every refresh after it is a warm refit.
    """
    root = tmp_path_factory.mktemp("ingest-seed")
    trace, env = TraceGenerator(INGEST_CONFIG).generate()
    journal = RecordJournal(root / "journal", fsync=False)
    pipeline = RefreshPipeline(trace, env, journal, root / "store")
    result = pipeline.refresh(reason="seed")
    assert result.ok, result.error
    return {"trace": trace, "env": env, "store": root / "store",
            "seed": result}


def copy_store(seeded, tmp_path):
    store = tmp_path / "store"
    shutil.copytree(seeded["store"], store)
    return store


def make_pipeline(seeded, tmp_path, **kwargs):
    journal = RecordJournal(tmp_path / "journal", fsync=False)
    pipeline = RefreshPipeline(seeded["trace"], seeded["env"], journal,
                               copy_store(seeded, tmp_path), **kwargs)
    return pipeline, journal


@pytest.mark.slow
class TestRefreshPipeline:
    def test_seed_export_is_versioned_and_described(self, seeded):
        seed = seeded["seed"]
        assert seed.reason == "seed" and seed.offset == 0
        assert seed.model_version == 1
        store = ModelStore(seeded["store"])
        assert store.is_versioned_root()
        assert store.current_version().name == "v-00000001"
        assert (seed.version_path / ModelStore.TRACE_FILE).is_file()
        ingest = json.loads(
            (seed.version_path / ModelStore.INGEST_FILE).read_text())
        assert ingest["journal_offset"] == 0
        assert ingest["reason"] == "seed"
        info = store.describe()
        assert info["version"] == "v-00000001"
        assert info["created_at"] is not None
        assert info["n_attacks"] == len(seeded["trace"])

    def test_refresh_after_appends_bumps_version_and_offset(self, seeded,
                                                            tmp_path):
        pipeline, journal = make_pipeline(seeded, tmp_path, keep_last=1)
        assert pipeline.load_current() is not None
        assert pipeline.current_offset == 0
        feed = SimulatedFeed(seeded["trace"], horizon_days=1, batch_days=1.0)
        journal.append_many(feed.next_batch())

        result = pipeline.refresh(reason="drift")
        assert result.ok, result.error
        assert result.offset == journal.next_offset > 0
        assert result.model_version == 2
        assert result.version_path.name == "v-00000002"
        # keep_last=1 pruned the seed version; CURRENT moved atomically.
        assert result.pruned == ["v-00000001"]
        store = ModelStore(pipeline.store.path)
        assert [p.name for p in store.versions()] == ["v-00000002"]
        info = store.describe()
        assert info["version"] == "v-00000002"
        assert info["n_attacks"] > len(seeded["trace"])
        assert pipeline.current_offset == result.offset

        # A brand-new process warm-starts from the exported version.
        rebuilt = RefreshPipeline(seeded["trace"], seeded["env"], journal,
                                  pipeline.store.path)
        restored = rebuilt.load_current()
        assert restored is not None and restored.version == 2
        assert rebuilt.current_offset == result.offset

    def test_corrupted_candidate_is_quarantined_not_activated(self, seeded,
                                                              tmp_path):
        def corrupt(staged):
            victim = next(staged.glob("model-*.json.gz"))
            victim.write_bytes(b"not gzip at all")

        pipeline, _journal = make_pipeline(seeded, tmp_path,
                                           post_export=corrupt)
        pipeline.load_current()
        result = pipeline.refresh(reason="drift")
        assert not result.ok
        assert result.quarantined is not None
        assert "does not load" in result.error
        assert (result.quarantined / "QUARANTINE.json").is_file()
        note = json.loads((result.quarantined / "QUARANTINE.json").read_text())
        assert "does not load" in note["reason"]
        # The active version never moved and no candidate leaked.
        store = ModelStore(pipeline.store.path)
        assert store.current_version().name == "v-00000001"
        assert [p.name for p in store.versions()] == ["v-00000001"]
        assert not list(store.path.glob(".candidate-*"))
        assert pipeline.telemetry.counter("ingest.refresh.quarantined") == 1

    def test_failed_rolling_reload_rolls_back_current(self, seeded, tmp_path):
        calls = []

        class FlakySupervisor:
            def rolling_reload(self, path):
                calls.append(path)
                ok = "v-00000001" in path  # only the old version reloads
                return {"ok": ok, "min_ready": 1, "steps": []}

        pipeline, _journal = make_pipeline(seeded, tmp_path,
                                           supervisor=FlakySupervisor())
        pipeline.load_current()
        result = pipeline.refresh(reason="stale")
        assert not result.ok
        assert result.rolled_back
        assert result.error == "rolling reload failed"
        assert len(calls) == 2
        assert "v-00000002" in calls[0] and "v-00000001" in calls[1]
        store = ModelStore(pipeline.store.path)
        assert store.current_version().name == "v-00000001"
        assert pipeline.telemetry.counter("ingest.refresh.rollbacks") == 1

    def test_injected_activate_fault_quarantines_then_retry_succeeds(
            self, seeded, tmp_path):
        """An activate-time fault is contained (CURRENT never moves,
        the candidate is quarantined) and the *next* drift trigger
        refits and activates cleanly -- the failure does not poison
        the pipeline."""
        from repro.chaos import FaultInjector, FaultPlan, injected

        pipeline, journal = make_pipeline(seeded, tmp_path)
        pipeline.load_current()
        feed = SimulatedFeed(seeded["trace"], horizon_days=1, batch_days=0.5)
        journal.append_many(feed.next_batch())
        plan = FaultPlan.generate(0, "activate-fault", [
            {"site": "store.activate", "count": 1, "visits": (1, 1),
             "action": "state_error"}])
        with injected(FaultInjector(plan)):
            blocked = pipeline.refresh(reason="drift")
        assert not blocked.ok
        assert "activate failed" in blocked.error
        assert blocked.quarantined is not None
        assert (blocked.quarantined / "QUARANTINE.json").is_file()
        store = ModelStore(pipeline.store.path)
        assert store.current_version().name == "v-00000001"
        assert pipeline.telemetry.counter(
            "ingest.refresh.activate_failures") == 1

        # Next drift trigger: more records arrive, the retry succeeds,
        # and CURRENT lands on the newly verified version.
        journal.append_many(feed.next_batch())
        retried = pipeline.refresh(reason="drift")
        assert retried.ok, retried.error
        store = ModelStore(pipeline.store.path)
        assert store.current_version().name == retried.version_path.name
        assert retried.offset == journal.next_offset

    def test_failed_reload_with_no_previous_raises(self, seeded, tmp_path):
        class DeadSupervisor:
            def rolling_reload(self, path):
                return {"ok": False, "min_ready": 0, "steps": []}

        journal = RecordJournal(tmp_path / "journal", fsync=False)
        pipeline = RefreshPipeline(seeded["trace"], seeded["env"], journal,
                                   tmp_path / "empty-store",
                                   supervisor=DeadSupervisor())
        with pytest.raises(IngestError, match="no.*previous version"):
            pipeline.refresh(reason="seed")


# ----- the acceptance scenario: live 2-replica cluster -----


@pytest.mark.slow
@pytest.mark.net
class TestIngestAcceptance:
    def test_drift_refresh_rolls_cluster_then_corrupt_candidate_quarantined(
            self, seeded, tmp_path):
        """Streamed records -> drift -> verified version rolled live.

        One cluster, two phases.  Phase 1: the daemon appends simulated
        records, drift fires, the pipeline exports a verified version
        and rolls it across 2 live replicas with >= N-1 ready (sampled
        externally) while an in-flight failover client sees zero errors
        and a strictly advancing model_version.  Phase 2: a deliberately
        corrupted candidate is quarantined -- CURRENT and every
        replica's served store stay untouched.
        """
        from repro.cluster import (
            ClusterConfig,
            FailoverForecastClient,
            ReplicaEndpoint,
            ReplicaSupervisor,
        )
        from repro.serving.engine import BaselineFallback
        from repro.telemetry import Telemetry

        trace, env = seeded["trace"], seeded["env"]
        store_root = copy_store(seeded, tmp_path)
        journal = RecordJournal(tmp_path / "journal", fsync=False)
        registry = ModelRegistry()
        pipeline = RefreshPipeline(trace, env, journal, store_root,
                                   registry=registry, keep_last=3)
        assert pipeline.load_current() is not None
        current = ModelStore(store_root).current_version()

        probe = ClusterConfig(endpoints=(ReplicaEndpoint("x", 1),),
                              probe_interval_s=0.25, failure_threshold=2)
        supervisor = ReplicaSupervisor(
            replicas=2, trace_path=None, store_path=str(current),
            config=probe, boot_timeout_s=120.0, restart_backoff_s=0.2,
            log=lambda _msg: None)
        pipeline.supervisor = supervisor

        drift = DriftMonitor(
            DriftConfig(window=64, min_observations=4, ratio=0.01,
                        staleness_s=1e9),
            pipeline.telemetry)
        daemon = IngestDaemon(
            pipeline, drift,
            feed=SimulatedFeed(trace, horizon_days=2, batch_days=0.5))

        asn, family = pick_canaries(trace, count=1)[0]
        stop = threading.Event()
        forecasts, client_errors = [], []
        floor = {"min": 2}

        def drive_client():
            async def loop():
                metrics = Telemetry()
                client = FailoverForecastClient(
                    supervisor.cluster_config(),
                    fallback=BaselineFallback(trace, metrics),
                    metrics=metrics)
                async with client:
                    while not stop.is_set():
                        try:
                            f = await client.forecast(asn=asn, family=family)
                            forecasts.append(
                                (f.source, f.degraded, f.model_version))
                        except Exception as exc:  # any error fails the test
                            client_errors.append(repr(exc))
                        await asyncio.sleep(0.03)
            asyncio.run(loop())

        def sample_floor():
            while not stop.is_set():
                floor["min"] = min(floor["min"], supervisor.ready_count())
                time.sleep(0.02)

        with supervisor:
            assert supervisor.wait_ready(2, timeout_s=120.0)
            threads = [threading.Thread(target=drive_client, daemon=True),
                       threading.Thread(target=sample_floor, daemon=True)]
            for t in threads:
                t.start()
            try:
                # Phase 1: stream until a drift refresh rolls the cluster.
                for _ in range(8):
                    daemon.step()
                    if daemon.refreshes >= 1:
                        break
                assert daemon.refreshes >= 1, daemon.status()
                rolled = pipeline.last_result
                assert rolled.ok and rolled.reload_report["ok"]
                new_version = rolled.version_path
                for row in supervisor.status():
                    assert row["ready"]
                    assert row["health_store"]["path"] == str(new_version)

                # Phase 2: a corrupted candidate must never reach a replica.
                def corrupt(staged):
                    next(staged.glob("model-*.json.gz")).write_bytes(b"junk")

                pipeline.post_export = corrupt
                result = pipeline.refresh(reason="drift")
                assert not result.ok and result.quarantined is not None
                store = ModelStore(store_root)
                assert store.current_version() == new_version
                for row in supervisor.status():
                    assert row["ready"]
                    assert row["health_store"]["path"] == str(new_version)
            finally:
                stop.set()
                for t in threads:
                    t.join(timeout=10.0)

        # The in-flight client: zero errors, zero degraded answers, and
        # a monotonically advancing model_version that really advanced.
        assert client_errors == []
        assert forecasts, "client never got a forecast in"
        assert all(source == "model" and not degraded
                   for source, degraded, _ in forecasts)
        versions = [v for _, _, v in forecasts]
        assert versions == sorted(versions)
        assert versions[-1] > versions[0]
        # Externally sampled rolling-reload floor: never below N-1.
        assert floor["min"] >= 1


# ----- the POST /v1/records wire surface -----


@pytest.mark.net
class TestRecordsEndpoint:
    @staticmethod
    async def post_records(addr, payload: dict):
        body = json.dumps(payload).encode()
        raw = (f"POST /v1/records HTTP/1.1\r\nHost: x\r\n"
               f"Content-Length: {len(body)}\r\n\r\n").encode() + body
        reader, writer = await asyncio.open_connection(*addr)
        writer.write(raw)
        await writer.drain()
        head = await reader.readuntil(b"\r\n\r\n")
        status = int(head.split(b" ")[1])
        headers = dict(line.split(b": ", 1)
                       for line in head.split(b"\r\n")[1:] if b": " in line)
        body = await reader.readexactly(int(headers.get(b"Content-Length", b"0")))
        writer.close()
        return status, json.loads(body)

    @pytest.fixture()
    def serve(self, small_trace, small_env):
        from repro.core.spatiotemporal import AttackPrediction
        from repro.server import Dispatcher, ForecastServer
        from repro.serving import ForecastEngine

        class Stub:
            def predict_next_for_network(self, asn, family, now=None):
                return AttackPrediction(
                    hour=1.0, day=1.0, duration=60.0, magnitude=5.0,
                    temporal_hour=1.0, spatial_hour=1.0,
                    temporal_day=1.0, spatial_day=1.0)

        engines = []

        def make(journal=None):
            registry = ModelRegistry(factory=lambda t, e, c: Stub())
            engine = ForecastEngine(small_trace, small_env, registry=registry)
            engines.append(engine)
            dispatcher = Dispatcher(engine)
            if journal is not None:
                dispatcher.record_sink = journal.append_many
            return ForecastServer(dispatcher, port=0, log=lambda _msg: None)

        yield make
        for engine in engines:
            engine.close()

    def test_post_records_journals_durably(self, serve, small_trace,
                                           tmp_path):
        from repro.evaluation.reporting import FORECAST_SCHEMA_VERSION

        journal = RecordJournal(tmp_path / "journal", fsync=False)
        records = tagged(small_trace, "attack", 2) \
            + tagged(small_trace, "snapshot", 1)

        async def scenario():
            async with serve(journal) as server:
                addr = server.http_address
                first = await self.post_records(addr, {"records": records})
                second = await self.post_records(addr, {"records": records})
                bad = await self.post_records(
                    addr, {"records": [{"type": "attack", "ddos_id": 1}]})
                shape = await self.post_records(addr, {"records": []})
                return first, second, bad, shape

        first, second, bad, shape = asyncio.run(scenario())
        assert first == (200, {"schema_version": FORECAST_SCHEMA_VERSION,
                               "appended": 3,
                               "first_offset": 0, "next_offset": 3})
        assert second[1]["first_offset"] == 3
        assert second[1]["next_offset"] == 6
        assert bad[0] == 400
        assert bad[1]["error"]["code"] == "bad_record"
        assert "malformed attack" in bad[1]["error"]["message"]
        assert shape[0] == 400
        # Ack implies durability: a fresh reader sees all six records.
        reader = RecordJournal(tmp_path / "journal", fsync=False)
        assert reader.next_offset == 6

    def test_post_records_without_journal_is_503(self, serve, small_trace):
        async def scenario():
            async with serve(None) as server:
                return await self.post_records(
                    server.http_address,
                    {"records": tagged(small_trace, "attack", 1)})

        status, body = asyncio.run(scenario())
        assert status == 503
        assert body["error"]["code"] == "ingest_disabled"

"""Tests for the record schema."""

import numpy as np
import pytest

from repro.dataset.records import (
    DAY,
    HOUR,
    AttackRecord,
    AttackTrace,
    HourlySnapshot,
    TraceMetadata,
)


def make_attack(**overrides) -> AttackRecord:
    base = dict(
        ddos_id=1,
        family="TestFam",
        target_ip=12345,
        target_asn=7,
        start_time=2 * DAY + 3 * HOUR + 600,
        duration=5400.0,
        bot_ips=np.array([10, 20, 30], dtype=np.int64),
        hourly_magnitude=np.array([3, 2], dtype=np.int64),
        campaign_id=9,
    )
    base.update(overrides)
    return AttackRecord(**base)


class TestAttackRecord:
    def test_derived_times(self):
        attack = make_attack()
        assert attack.start_day == 2
        assert attack.start_hour == 3
        assert attack.start_hour_index == 2 * 24 + 3
        assert attack.end_time == attack.start_time + 5400.0

    def test_magnitude_is_unique_bots(self):
        assert make_attack().magnitude == 3

    def test_rejects_negative_duration(self):
        with pytest.raises(ValueError):
            make_attack(duration=-1.0)

    def test_rejects_negative_start(self):
        with pytest.raises(ValueError):
            make_attack(start_time=-5.0)

    def test_dict_roundtrip(self):
        attack = make_attack()
        clone = AttackRecord.from_dict(attack.to_dict())
        assert clone.ddos_id == attack.ddos_id
        assert clone.family == attack.family
        assert np.array_equal(clone.bot_ips, attack.bot_ips)
        assert np.array_equal(clone.hourly_magnitude, attack.hourly_magnitude)
        assert clone.campaign_id == attack.campaign_id

    def test_dict_is_json_serializable(self):
        import json

        json.dumps(make_attack().to_dict())

    def test_arrays_coerced(self):
        attack = make_attack(bot_ips=[1, 2], hourly_magnitude=[2])
        assert attack.bot_ips.dtype == np.int64


class TestHourlySnapshot:
    def test_roundtrip(self):
        snap = HourlySnapshot(
            family="F", hour_index=5, n_active_bots=10,
            n_cumulative_bots=50, n_attacks_running=2, as_histogram={3: 7},
        )
        clone = HourlySnapshot.from_dict(snap.to_dict())
        assert clone == snap

    def test_histogram_keys_are_ints_after_roundtrip(self):
        snap = HourlySnapshot("F", 0, 1, 1, 0, {42: 1})
        clone = HourlySnapshot.from_dict(snap.to_dict())
        assert 42 in clone.as_histogram


class TestTraceMetadata:
    def test_roundtrip(self):
        meta = TraceMetadata(n_days=30, seed=1, families=["A"], n_targets=5,
                             topology_seed=2, scale=0.5)
        assert TraceMetadata.from_dict(meta.to_dict()) == meta

    def test_scale_defaults_on_old_payloads(self):
        meta = TraceMetadata.from_dict(
            {"n_days": 1, "seed": 0, "families": [], "n_targets": 1, "topology_seed": 0}
        )
        assert meta.scale == 1.0


class TestAttackTrace:
    def _trace(self, attacks):
        meta = TraceMetadata(n_days=10, seed=0, families=["A", "B"],
                             n_targets=2, topology_seed=0)
        return AttackTrace(attacks=attacks, snapshots=[], metadata=meta)

    def test_sorts_attacks_on_construction(self):
        a = make_attack(ddos_id=1, start_time=5 * HOUR)
        b = make_attack(ddos_id=2, start_time=2 * HOUR)
        trace = self._trace([a, b])
        assert [x.ddos_id for x in trace.attacks] == [2, 1]

    def test_by_family(self):
        a = make_attack(ddos_id=1, family="A")
        b = make_attack(ddos_id=2, family="B")
        trace = self._trace([a, b])
        assert [x.ddos_id for x in trace.by_family("A")] == [1]

    def test_by_target_asn(self):
        a = make_attack(ddos_id=1, target_asn=7)
        b = make_attack(ddos_id=2, target_asn=8)
        trace = self._trace([a, b])
        assert [x.ddos_id for x in trace.by_target_asn(8)] == [2]

    def test_groups_keep_trace_order(self):
        attacks = [make_attack(ddos_id=i, family="AB"[i % 2], target_asn=7 + i % 3,
                               start_time=(10 - i) * HOUR)
                   for i in range(9)]
        trace = self._trace(attacks)
        for family in ("A", "B"):
            assert trace.by_family(family) == [
                a for a in trace.attacks if a.family == family]
        for asn in (7, 8, 9):
            assert trace.by_target_asn(asn) == [
                a for a in trace.attacks if a.target_asn == asn]
        assert trace.by_family("absent") == []
        assert trace.by_target_asn(404) == []

    def test_group_index_is_not_a_field(self):
        import dataclasses

        record = make_attack(ddos_id=1, family="A")  # records compare by identity
        built, fresh = self._trace([record]), self._trace([record])
        built.by_family("A")  # builds the index on one of the two
        built.fingerprint()  # and the fingerprint memo
        assert [f.name for f in dataclasses.fields(AttackTrace)] == [
            "attacks", "snapshots", "metadata"]
        assert set(dataclasses.asdict(built)) == {"attacks", "snapshots", "metadata"}
        assert repr(built) == repr(fresh)
        assert built == fresh

    def test_group_index_follows_reassignment(self):
        import copy

        trace = self._trace([make_attack(ddos_id=1, family="A", target_asn=7)])
        assert len(trace.by_family("A")) == 1
        empty = copy.copy(trace)  # shares the built index with ``trace``
        empty.attacks = []
        assert empty.by_family("A") == []
        assert empty.by_target_asn(7) == []
        assert len(trace.by_family("A")) == 1
        trace.attacks = [make_attack(ddos_id=2, family="B", target_asn=8)]  # same length
        assert trace.by_family("A") == []
        assert [a.ddos_id for a in trace.by_target_asn(8)] == [2]

    def test_group_index_follows_append(self):
        trace = self._trace([make_attack(ddos_id=1, family="A", start_time=HOUR)])
        assert len(trace.by_family("A")) == 1
        trace.attacks.append(make_attack(ddos_id=2, family="A", start_time=2 * HOUR))
        assert [a.ddos_id for a in trace.by_family("A")] == [1, 2]

    def test_fingerprint_follows_append_reassignment_and_metadata(self):
        import dataclasses

        trace = self._trace([make_attack(ddos_id=1, start_time=HOUR)])
        seen = {trace.fingerprint()}
        trace.attacks.append(make_attack(ddos_id=2, start_time=2 * HOUR))
        seen.add(trace.fingerprint())
        trace.attacks = [make_attack(ddos_id=3, start_time=HOUR),
                         make_attack(ddos_id=4, start_time=2 * HOUR)]  # same length
        seen.add(trace.fingerprint())
        trace.metadata = dataclasses.replace(trace.metadata, seed=1)
        seen.add(trace.fingerprint())
        assert len(seen) == 4
        # Each memoized value is the one a fresh trace computes.
        assert trace.fingerprint() == AttackTrace(
            attacks=list(trace.attacks), snapshots=[],
            metadata=trace.metadata).fingerprint()

    def test_unchanged_trace_returns_the_memo_without_hashing(self, monkeypatch):
        import repro.dataset.records as records

        trace = self._trace([make_attack(ddos_id=1)])
        first = trace.fingerprint()
        calls = []
        real = records.hashlib.sha256
        monkeypatch.setattr(records.hashlib, "sha256",
                            lambda blob: calls.append(blob) or real(blob))
        assert [trace.fingerprint() for _ in range(3)] == [first] * 3
        assert calls == []
        trace.attacks.append(make_attack(ddos_id=2))
        assert trace.fingerprint() != first
        assert len(calls) == 1

    def test_lookups_return_fresh_lists(self):
        attacks = [make_attack(ddos_id=i, family="A", target_asn=7,
                               start_time=i * HOUR) for i in range(1, 4)]
        trace = self._trace(attacks)
        mine = trace.by_family("A")
        mine.sort(key=lambda a: -a.ddos_id)
        mine.append(make_attack(ddos_id=99))
        theirs = trace.by_target_asn(7)
        theirs.clear()
        assert [a.ddos_id for a in trace.by_family("A")] == [1, 2, 3]
        assert [a.ddos_id for a in trace.by_target_asn(7)] == [1, 2, 3]

    def test_families_sorted_by_count(self):
        attacks = [make_attack(ddos_id=i, family="A") for i in range(3)]
        attacks += [make_attack(ddos_id=10 + i, family="B") for i in range(5)]
        trace = self._trace(attacks)
        assert trace.families() == ["B", "A"]

    def test_n_hours(self):
        assert self._trace([]).n_hours == 240

    def test_snapshots_for_sorted(self):
        meta = TraceMetadata(n_days=1, seed=0, families=["F"], n_targets=1,
                             topology_seed=0)
        snaps = [
            HourlySnapshot("F", 3, 1, 1, 0),
            HourlySnapshot("F", 1, 1, 1, 0),
            HourlySnapshot("G", 2, 1, 1, 0),
        ]
        trace = AttackTrace(attacks=[], snapshots=snaps, metadata=meta)
        assert [s.hour_index for s in trace.snapshots_for("F")] == [1, 3]

"""Record schema for attack traces.

Mirrors the collection methodology of §II-C: every verified attack has
a unique DDoS ID tied to a (malware family, target) pair, a start
timestamp, an approximate duration in seconds, the set of bot IPs seen
attacking, and an hourly magnitude series; the monitoring unit also
logs an hourly snapshot per family with the bots active over the
trailing 24 hours.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

__all__ = ["HOUR", "DAY", "AttackRecord", "HourlySnapshot", "TraceMetadata", "AttackTrace"]

HOUR = 3600.0
DAY = 24 * HOUR


@dataclass
class AttackRecord:
    """One verified DDoS attack.

    Attributes:
        ddos_id: unique attack identifier.
        family: botnet (malware) family that launched the attack.
        target_ip: target address as a 32-bit integer.
        target_asn: AS hosting the target.
        start_time: launch timestamp, seconds since the trace epoch.
        duration: attack duration in seconds (the ``Duration`` attribute
            of §III-A2).
        bot_ips: unique bot addresses observed over the attack, as an
            int64 array.
        hourly_magnitude: number of simultaneously active bots in each
            hour of the attack (the per-attack magnitude time series of
            §III-A1); ``hourly_magnitude[k]`` covers hour ``k`` after
            launch.
        campaign_id: ground-truth multistage-campaign linkage (the
            generator's analogue of the 30 s .. 24 h linking rule); not
            visible to the models.
    """

    ddos_id: int
    family: str
    target_ip: int
    target_asn: int
    start_time: float
    duration: float
    bot_ips: np.ndarray
    hourly_magnitude: np.ndarray
    campaign_id: int | None = None

    def __post_init__(self) -> None:
        self.bot_ips = np.asarray(self.bot_ips, dtype=np.int64)
        self.hourly_magnitude = np.asarray(self.hourly_magnitude, dtype=np.int64)
        if self.duration < 0:
            raise ValueError("duration must be non-negative")
        if self.start_time < 0:
            raise ValueError("start_time must be non-negative")

    @property
    def end_time(self) -> float:
        """Timestamp at which the attack ended."""
        return self.start_time + self.duration

    @property
    def magnitude(self) -> int:
        """Total number of unique bots involved."""
        return int(self.bot_ips.size)

    @property
    def start_hour(self) -> int:
        """Hour-of-day component of the launch timestamp (``T^hour``)."""
        return int(self.start_time % DAY // HOUR)

    @property
    def start_day(self) -> int:
        """Day index since the trace epoch (``T^day``)."""
        return int(self.start_time // DAY)

    @property
    def start_hour_index(self) -> int:
        """Absolute hour index since the trace epoch."""
        return int(self.start_time // HOUR)

    def to_dict(self) -> dict:
        """JSON-serializable representation."""
        return {
            "ddos_id": self.ddos_id,
            "family": self.family,
            "target_ip": int(self.target_ip),
            "target_asn": int(self.target_asn),
            "start_time": float(self.start_time),
            "duration": float(self.duration),
            "bot_ips": [int(x) for x in self.bot_ips],
            "hourly_magnitude": [int(x) for x in self.hourly_magnitude],
            "campaign_id": self.campaign_id,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "AttackRecord":
        """Inverse of :meth:`to_dict`."""
        return cls(
            ddos_id=data["ddos_id"],
            family=data["family"],
            target_ip=data["target_ip"],
            target_asn=data["target_asn"],
            start_time=data["start_time"],
            duration=data["duration"],
            bot_ips=np.asarray(data["bot_ips"], dtype=np.int64),
            hourly_magnitude=np.asarray(data["hourly_magnitude"], dtype=np.int64),
            campaign_id=data.get("campaign_id"),
        )


@dataclass
class HourlySnapshot:
    """Per-family hourly monitoring report (compact form).

    The paper's reports list the bots active over the trailing 24 h;
    we keep the aggregate counts plus a truncated AS histogram, which is
    all the models consume.
    """

    family: str
    hour_index: int
    n_active_bots: int
    n_cumulative_bots: int
    n_attacks_running: int
    as_histogram: dict[int, int] = field(default_factory=dict)

    def to_dict(self) -> dict:
        """JSON-serializable representation."""
        return {
            "family": self.family,
            "hour_index": self.hour_index,
            "n_active_bots": self.n_active_bots,
            "n_cumulative_bots": self.n_cumulative_bots,
            "n_attacks_running": self.n_attacks_running,
            "as_histogram": {str(k): v for k, v in self.as_histogram.items()},
        }

    @classmethod
    def from_dict(cls, data: dict) -> "HourlySnapshot":
        """Inverse of :meth:`to_dict`."""
        return cls(
            family=data["family"],
            hour_index=data["hour_index"],
            n_active_bots=data["n_active_bots"],
            n_cumulative_bots=data["n_cumulative_bots"],
            n_attacks_running=data["n_attacks_running"],
            as_histogram={int(k): v for k, v in data.get("as_histogram", {}).items()},
        )


@dataclass
class TraceMetadata:
    """Provenance of a trace: generation parameters for regeneration.

    ``topology`` holds the full TopologyConfig as a dict so that the
    simulation environment (AS graph + IP allocation) can be rebuilt
    exactly from a persisted trace.
    """

    n_days: int
    seed: int
    families: list[str]
    n_targets: int
    topology_seed: int
    scale: float = 1.0
    topology: dict | None = None

    def to_dict(self) -> dict:
        """JSON-serializable representation."""
        return {
            "n_days": self.n_days,
            "seed": self.seed,
            "families": list(self.families),
            "n_targets": self.n_targets,
            "topology_seed": self.topology_seed,
            "scale": self.scale,
            "topology": dict(self.topology) if self.topology else None,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TraceMetadata":
        """Inverse of :meth:`to_dict`."""
        return cls(
            n_days=data["n_days"],
            seed=data["seed"],
            families=list(data["families"]),
            n_targets=data["n_targets"],
            topology_seed=data["topology_seed"],
            scale=data.get("scale", 1.0),
            topology=data.get("topology"),
        )


@dataclass
class AttackTrace:
    """A complete trace: attacks (chronological) + hourly snapshots.

    Per-family and per-target-AS views come from one lazily built group
    index over ``attacks``.  The index is a plain instance attribute,
    not a dataclass field, so equality, ``repr`` and ``asdict`` ignore
    it.  It is keyed on the identity and length of the ``attacks``
    list: reassigning the list or appending to it rebuilds the index on
    the next lookup (replacing an element in place does not).

    :meth:`fingerprint` is memoized under the same rule, plus the
    identity of ``metadata``: appending a record, reassigning
    ``attacks`` or replacing ``metadata`` gives a new fingerprint on the
    next call, while mutating a record or the metadata in place does
    not.
    """

    attacks: list[AttackRecord]
    snapshots: list[HourlySnapshot]
    metadata: TraceMetadata

    def __post_init__(self) -> None:
        starts = [a.start_time for a in self.attacks]
        if any(b < a for a, b in zip(starts, starts[1:])):
            self.attacks = sorted(self.attacks, key=lambda a: (a.start_time, a.ddos_id))

    def __len__(self) -> int:
        return len(self.attacks)

    @property
    def n_hours(self) -> int:
        """Length of the observation window in hours."""
        return self.metadata.n_days * 24

    def _groups(self) -> tuple[dict[str, list[AttackRecord]],
                               dict[int, list[AttackRecord]]]:
        """The chronological (per-family, per-target-AS) group index."""
        attacks = self.attacks
        memo = getattr(self, "_group_memo", None)
        if memo is None or memo[0] is not attacks or memo[1] != len(attacks):
            families: dict[str, list[AttackRecord]] = {}
            asns: dict[int, list[AttackRecord]] = {}
            for a in attacks:
                families.setdefault(a.family, []).append(a)
                asns.setdefault(a.target_asn, []).append(a)
            memo = self._group_memo = (attacks, len(attacks), families, asns)
        return memo[2], memo[3]

    def by_family(self, family: str) -> list[AttackRecord]:
        """Chronological attacks of one family (a fresh list)."""
        return list(self._groups()[0].get(family, ()))

    def by_target_asn(self, asn: int) -> list[AttackRecord]:
        """Chronological attacks against targets inside one AS (a fresh list)."""
        return list(self._groups()[1].get(asn, ()))

    def families(self) -> list[str]:
        """Families present in the trace, by descending attack count."""
        counts: dict[str, int] = {}
        for a in self.attacks:
            counts[a.family] = counts.get(a.family, 0) + 1
        return sorted(counts, key=lambda f: (-counts[f], f))

    def snapshots_for(self, family: str) -> list[HourlySnapshot]:
        """Hourly snapshots of one family, ordered by hour."""
        return sorted(
            (s for s in self.snapshots if s.family == family), key=lambda s: s.hour_index
        )

    def fingerprint(self) -> str:
        """Stable content identity of the trace.

        Hashes the generation metadata together with the attack count
        and the first/last attack identities, so that the same trace
        always maps to the same key while a trace extended with newly
        verified attacks maps to a new one.  Used by the serving layer
        to key fitted models without hashing every record.  Memoized
        under the rule in the class docstring.
        """
        attacks, metadata = self.attacks, self.metadata
        memo = getattr(self, "_fingerprint_memo", None)
        if (memo is not None and memo[0] is attacks
                and memo[1] == len(attacks) and memo[2] is metadata):
            return memo[3]
        parts: dict = {"metadata": metadata.to_dict(), "n": len(attacks)}
        if attacks:
            first, last = attacks[0], attacks[-1]
            parts["first"] = [first.ddos_id, first.start_time]
            parts["last"] = [last.ddos_id, last.start_time]
        blob = json.dumps(parts, sort_keys=True).encode()
        digest = hashlib.sha256(blob).hexdigest()[:16]
        self._fingerprint_memo = (attacks, len(attacks), metadata, digest)
        return digest

"""Typed faults, seeded fault plans, and the deterministic injector.

A :class:`FaultPlan` is the *schedule*: a seed plus a list of typed
:class:`Fault` entries, each naming a hook site (or a runner step) and
the visit index at which it fires.  The plan is a pure function of
``(seed, name, quotas)`` -- generating it twice yields byte-identical
canonical JSON (:meth:`FaultPlan.to_json`), which is what ``repro
chaos run --seed S`` replays and what the CI smoke diffs across runs.

Fault kinds:

``raise``
    The injector raises a typed exception at the site (I/O errors in
    the journal, state errors in the store, pipe drops in the sharded
    engine, probe timeouts in the supervisor).  The exceptions are
    dedicated ``Injected*`` subclasses of the builtins each site
    already handles, so injection exercises the *real* error paths and
    post-mortems can still tell injected faults from organic ones.
``value``
    The injector returns the fault to the call site, which interprets
    its payload (the dispatcher shrinks a request deadline, for
    example).  Sites ignore value faults they do not understand.
``byte_flip``
    Deterministic wire corruption: the payload carries a position
    fraction and an XOR mask; :func:`apply_byte_flip` applies it to a
    byte string.  This is the schedule format the frame-codec/state
    fuzzers share with fault injection.
``kill`` / ``clock_skew`` / ``deadline_storm``
    Runner steps: the scenario runner (not a hook site) executes these
    between operations -- SIGKILL a worker or replica, skew an
    injectable clock, or fire a burst of near-zero-deadline requests.
"""

from __future__ import annotations

import hashlib
import json
import random
import threading
from dataclasses import dataclass, field

from repro.errors import StateError

__all__ = [
    "Fault",
    "FaultPlan",
    "FaultInjector",
    "InjectedOSError",
    "InjectedBrokenPipeError",
    "InjectedEOFError",
    "InjectedStateError",
    "InjectedTimeoutError",
    "FAULT_ACTIONS",
    "apply_byte_flip",
]

#: Kinds the injector fires at hook sites; everything else is a runner step.
HOOK_KINDS = frozenset({"raise", "value"})
#: Kinds the scenario runner executes between operations.
STEP_KINDS = frozenset({"kill", "clock_skew", "deadline_storm"})


class InjectedOSError(OSError):
    """Injected I/O failure (fsync/write/probe paths)."""


class InjectedBrokenPipeError(BrokenPipeError):
    """Injected worker-pipe drop."""


class InjectedEOFError(EOFError):
    """Injected pipe EOF (reader side of a dropped pipe)."""


class InjectedStateError(StateError):
    """Injected persistence failure (activate/CURRENT swap paths)."""


class InjectedTimeoutError(TimeoutError):
    """Injected timeout."""


#: action slug -> exception class for ``raise``-kind faults.
FAULT_ACTIONS: dict[str, type[BaseException]] = {
    "os_error": InjectedOSError,
    "broken_pipe": InjectedBrokenPipeError,
    "eof": InjectedEOFError,
    "state_error": InjectedStateError,
    "timeout": InjectedTimeoutError,
}


@dataclass(frozen=True)
class Fault:
    """One scheduled fault.

    ``site`` is a hook-site name (``journal.fsync``,
    ``supervisor.probe[0]``, ...) for hook kinds, or ``runner`` for
    step kinds; ``at_visit`` is the 1-based visit/step index at which
    it fires.  ``action`` picks the exception for ``raise`` kinds;
    ``payload`` carries kind-specific parameters (XOR mask, skew
    seconds, storm size, kill target).
    """

    site: str
    at_visit: int
    kind: str = "raise"
    action: str = "os_error"
    payload: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.at_visit < 1:
            raise ValueError("at_visit is 1-based and must be >= 1")
        if self.kind not in HOOK_KINDS | STEP_KINDS | {"byte_flip"}:
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if self.kind == "raise" and self.action not in FAULT_ACTIONS:
            raise ValueError(f"unknown fault action {self.action!r}")

    def to_dict(self) -> dict:
        return {
            "site": self.site,
            "at_visit": self.at_visit,
            "kind": self.kind,
            "action": self.action,
            "payload": dict(self.payload),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Fault":
        return cls(
            site=data["site"],
            at_visit=int(data["at_visit"]),
            kind=data.get("kind", "raise"),
            action=data.get("action", "os_error"),
            payload=dict(data.get("payload") or {}),
        )

    def exception(self) -> BaseException:
        """The typed exception a ``raise`` fault throws at its site."""
        cls = FAULT_ACTIONS[self.action]
        return cls(f"chaos[{self.site}@{self.at_visit}]: injected "
                   f"{self.action}")


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, deterministic schedule of typed faults."""

    name: str
    seed: int
    faults: tuple[Fault, ...]

    @classmethod
    def generate(cls, seed: int, name: str,
                 quotas: list[dict]) -> "FaultPlan":
        """Build a plan from per-site quotas, deterministically.

        Each quota is a dict: ``site``, ``count``, ``visits=(lo, hi)``
        (inclusive, 1-based), plus optional ``kind``/``action``/
        ``payload``.  Visit indices are drawn without replacement from
        the range via one :class:`random.Random` seeded stream, so the
        same ``(seed, name, quotas)`` always yields the same plan.
        ``byte_flip`` and ``clock_skew`` quotas get per-fault random
        parameters (position/mask, skew seconds) from the same stream.
        """
        rng = random.Random(f"{seed}|{name}")
        faults: list[Fault] = []
        for quota in quotas:
            site = quota["site"]
            count = int(quota.get("count", 1))
            lo, hi = quota.get("visits", (1, max(1, count)))
            if hi - lo + 1 < count:
                raise ValueError(
                    f"quota for {site!r} wants {count} faults in "
                    f"[{lo}, {hi}]")
            kind = quota.get("kind", "raise")
            action = quota.get("action", "os_error")
            base_payload = dict(quota.get("payload") or {})
            for visit in sorted(rng.sample(range(lo, hi + 1), count)):
                payload = dict(base_payload)
                if kind == "byte_flip":
                    payload.setdefault("pos_frac", round(rng.random(), 6))
                    payload.setdefault("xor", rng.randint(1, 255))
                elif kind == "clock_skew":
                    skew_lo, skew_hi = quota.get("skew_range", (-60.0, 60.0))
                    payload.setdefault(
                        "skew_s", round(rng.uniform(skew_lo, skew_hi), 3))
                faults.append(Fault(site=site, at_visit=visit, kind=kind,
                                    action=action, payload=payload))
        return cls(name=name, seed=seed, faults=tuple(faults))

    # ----- views -----

    def for_site(self, site: str) -> list[Fault]:
        """Faults scheduled at one hook site, in visit order."""
        return sorted((f for f in self.faults if f.site == site),
                      key=lambda f: f.at_visit)

    def hook_faults(self) -> list[Fault]:
        """Faults the injector fires at hook sites."""
        return [f for f in self.faults if f.kind in HOOK_KINDS]

    def step_faults(self) -> list[Fault]:
        """Runner-step faults, ordered by step index."""
        return sorted((f for f in self.faults if f.kind in STEP_KINDS),
                      key=lambda f: f.at_visit)

    def steps_at(self, step: int) -> list[Fault]:
        """Runner-step faults scheduled for one step index."""
        return [f for f in self.step_faults() if f.at_visit == step]

    # ----- serialization / identity -----

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "seed": self.seed,
            "faults": [f.to_dict() for f in self.faults],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlan":
        return cls(
            name=data["name"],
            seed=int(data["seed"]),
            faults=tuple(Fault.from_dict(f) for f in data.get("faults", [])),
        )

    def to_json(self) -> str:
        """Canonical JSON: the byte-identical replayable schedule."""
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))

    def digest(self) -> str:
        """Content identity of the schedule (sha256 of canonical JSON)."""
        return hashlib.sha256(self.to_json().encode("utf-8")).hexdigest()[:16]


class FaultInjector:
    """Counts visits per hook site and fires the plan's faults.

    Thread-safe: hook sites live in lifecycle threads, blocking
    callers' threads, and the event loop.  The fired log records every fault actually
    delivered (site, visit, kind, and the call-site context), so a
    scenario report can show the schedule *and* what it hit.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._lock = threading.Lock()
        self._visits: dict[str, int] = {}
        self._by_site: dict[str, dict[int, list[Fault]]] = {}
        for fault in plan.hook_faults():
            self._by_site.setdefault(fault.site, {}).setdefault(
                fault.at_visit, []).append(fault)
        self.fired: list[dict] = []

    def visits(self, site: str) -> int:
        """How many times a site has been visited so far."""
        with self._lock:
            return self._visits.get(site, 0)

    def visit(self, site: str, context: dict | None = None):
        """Called by :func:`~repro.chaos.hooks.chaos_point`."""
        with self._lock:
            count = self._visits.get(site, 0) + 1
            self._visits[site] = count
            faults = self._by_site.get(site, {}).get(count, [])
            value_fault = None
            to_raise = None
            for fault in faults:
                self.fired.append({
                    "site": site,
                    "visit": count,
                    "kind": fault.kind,
                    "action": fault.action,
                    "context": dict(context or {}),
                })
                if fault.kind == "raise" and to_raise is None:
                    to_raise = fault.exception()
                elif fault.kind == "value" and value_fault is None:
                    value_fault = fault
        if to_raise is not None:
            raise to_raise
        return value_fault

    def fired_log(self) -> list[dict]:
        """A copy of the delivered-fault log (JSON-safe)."""
        with self._lock:
            return [dict(entry) for entry in self.fired]


def apply_byte_flip(data: bytes, fault: Fault) -> bytes:
    """Apply one ``byte_flip`` fault's deterministic corruption.

    The flipped position is ``pos_frac`` of the way through the buffer
    and the byte is XORed with ``xor`` (1..255, so the byte always
    changes).  Empty buffers come back unchanged.
    """
    if fault.kind != "byte_flip":
        raise ValueError(f"not a byte_flip fault: {fault.kind!r}")
    if not data:
        return data
    pos = min(len(data) - 1, int(fault.payload["pos_frac"] * len(data)))
    mask = int(fault.payload["xor"]) & 0xFF
    if mask == 0:
        mask = 1
    mutated = bytearray(data)
    mutated[pos] ^= mask
    return bytes(mutated)

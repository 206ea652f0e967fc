"""The fixed trace world and the four workloads' request streams.

The world is built once per checkout with the public CLI and cached
under ``.bench_build/e2e/world``: ``repro generate`` writes the trace,
``repro export-models`` fits and snapshots the models, and the
simulated ingest feed is drawn from :class:`repro.ingest.SimulatedFeed`.
Only the request streams depend on the run's seed: request order,
``now`` offsets, unknown ASNs and record order.  The server receives
nothing but the generated requests.
"""

from __future__ import annotations

import itertools
import json
import os
import shutil
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from random import Random
from typing import Iterator

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
#: Everything a run builds or writes lives under here (git-ignored).
WORK = ROOT / ".bench_build" / "e2e"

#: The trace world: 30 days at 0.6 rate, seed 3 -> 3,519 attacks.
WORLD_ARGS = ("--days", "30", "--scale", "0.6", "--seed", "3")
N_ASNS = 8
N_FAMILIES = 4
#: miss-heavy draws each request's ``now`` from the trace's last week.
MISS_SPAN_S = 7 * 86400.0
#: degraded asks about networks the trace never saw.
UNKNOWN_ASNS = (900_000, 999_999)
RECORDS_PER_POST = 8
FEED_HORIZON_DAYS = 2

HOST = "127.0.0.1"


class BenchError(RuntimeError):
    """The benchmark could not run (as opposed to a wrong answer)."""


def repro_env() -> dict[str, str]:
    """Environment for child processes: the checkout's ``src`` first."""
    env = dict(os.environ)
    paths = [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def repro_cmd(*args: str) -> list[str]:
    """``python -m repro <args>`` with this interpreter."""
    return [sys.executable, "-m", "repro", *args]


def import_repro() -> None:
    """Make the checkout's ``repro`` importable in this process."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def require_source() -> None:
    """Fail fast when the checkout has no program to benchmark."""
    if not (SRC / "repro" / "cli.py").is_file():
        raise BenchError(f"no repro sources under {SRC}")


@dataclass(frozen=True)
class World:
    """The built trace world plus what the request streams need of it."""

    path: Path
    asns: tuple[int, ...]
    families: tuple[str, ...]
    trace_end_s: float
    n_attacks: int

    @property
    def trace(self) -> Path:
        return self.path / "trace.jsonl.gz"

    @property
    def store(self) -> Path:
        return self.path / "store"

    @property
    def feed(self) -> Path:
        return self.path / "feed.json"

    def pairs(self) -> list[tuple[int, str]]:
        """The 32 (asn, family) targets of hit-heavy and miss-heavy."""
        return [(asn, family) for asn in self.asns for family in self.families]


def _run_cli(*args: str) -> float:
    """Run one ``repro`` command to completion; returns its wall time."""
    t0 = time.perf_counter()
    done = subprocess.run(repro_cmd(*args), cwd=ROOT, env=repro_env(),
                          stdin=subprocess.DEVNULL, capture_output=True,
                          text=True)
    elapsed = time.perf_counter() - t0
    if done.returncode != 0:
        raise BenchError(f"repro {args[0]} exited {done.returncode}: "
                         f"{done.stderr.strip()[-500:]}")
    return elapsed


def export_models(trace: Path, store: Path) -> float:
    """Fit and snapshot the models with the public CLI; wall seconds."""
    return _run_cli("export-models", "--trace", str(trace), "--store", str(store))


def _describe(path: Path) -> dict:
    """Targets, families and ingest feed of a freshly generated trace."""
    import_repro()
    from repro.dataset import load_trace
    from repro.ingest import SimulatedFeed

    trace = load_trace(path / "trace.jsonl.gz")
    busiest = Counter(a.target_asn for a in trace.attacks).most_common(N_ASNS)
    if any(UNKNOWN_ASNS[0] <= a.target_asn <= UNKNOWN_ASNS[1]
           for a in trace.attacks):
        raise BenchError("trace contains an ASN from the unknown-ASN range")
    feed = SimulatedFeed(trace, horizon_days=FEED_HORIZON_DAYS,
                         batch_days=FEED_HORIZON_DAYS)
    records = feed.next_batch()
    (path / "feed.json").write_text(json.dumps(records), encoding="utf-8")
    return {
        "asns": [asn for asn, _ in busiest],
        "families": trace.families()[:N_FAMILIES],
        "trace_end_s": trace.n_hours * 3600.0,
        "n_attacks": len(trace.attacks),
    }


def ensure_world(log=print) -> World:
    """Load the cached world, building it first if this checkout lacks it."""
    require_source()
    final = WORK / "world"
    if not (final / "world.json").is_file():
        WORK.mkdir(parents=True, exist_ok=True)
        staging = WORK / f"world.tmp-{os.getpid()}"
        shutil.rmtree(staging, ignore_errors=True)
        staging.mkdir()
        log(f"building trace world ({' '.join(WORLD_ARGS)}) ...")
        _run_cli("generate", *WORLD_ARGS, "--out", str(staging / "trace.jsonl.gz"))
        fit_s = export_models(staging / "trace.jsonl.gz", staging / "store")
        meta = _describe(staging)
        (staging / "world.json").write_text(json.dumps(meta, indent=1),
                                            encoding="utf-8")
        shutil.rmtree(final, ignore_errors=True)
        staging.rename(final)
        log(f"world built: {meta['n_attacks']} attacks, fit {fit_s:.1f} s")
    meta = json.loads((final / "world.json").read_text(encoding="utf-8"))
    return World(path=final, asns=tuple(meta["asns"]),
                 families=tuple(meta["families"]),
                 trace_end_s=float(meta["trace_end_s"]),
                 n_attacks=int(meta["n_attacks"]))


# ----- workloads ----------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    """Server flags and expected answers; the reasons are in README.md."""

    name: str
    workers: int
    journal: bool
    source: str  # the answer source every read must carry


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload("hit-heavy", workers=1, journal=False, source="model"),
    Workload("miss-heavy", workers=2, journal=False, source="model"),
    Workload("degraded", workers=1, journal=False, source="baseline"),
    Workload("ingest-mixed", workers=1, journal=True, source="model"),
)}


def server_flags(workload: Workload, world: World, journal: Path | None) -> list[str]:
    """``serve-http`` arguments for one workload (ephemeral port)."""
    flags = ["serve-http", "--trace", str(world.trace), "--store", str(world.store),
             "--port", "0", "--workers", str(workload.workers)]
    if workload.journal:
        flags += ["--journal", str(journal)]
    return flags


# ----- request streams ----------------------------------------------------

def _post(path: str, body: bytes) -> bytes:
    return (b"POST %s HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json"
            b"\r\nContent-Length: %d\r\n\r\n%s" % (path.encode(), len(body), body))


def forecast_post(key: tuple[int, str, float | None]) -> bytes:
    asn, family, now = key
    body = json.dumps({"asn": asn, "family": family, "now": now},
                      separators=(",", ":")).encode()
    return _post("/v1/forecast", body)


GET_METRICS = b"GET /metrics HTTP/1.1\r\nHost: bench\r\n\r\n"

Stream = Iterator[tuple[bytes, object]]


def hit_stream(world: World, rng: Random) -> Stream:
    """The 32 targets at ``now=null`` in a seeded order, cycled."""
    keys = [(asn, family, None) for asn, family in world.pairs()]
    rng.shuffle(keys)
    return itertools.cycle([(forecast_post(key), key) for key in keys])


def miss_stream(world: World, rng: Random) -> Stream:
    """The 32 targets cycled, each request at a fresh seeded ``now``."""
    pairs = world.pairs()
    rng.shuffle(pairs)
    for asn, family in itertools.cycle(pairs):
        key = (asn, family, world.trace_end_s - rng.random() * MISS_SPAN_S)
        yield forecast_post(key), key


def degraded_stream(world: World, rng: Random) -> Stream:
    """Seeded unknown ASNs crossed with the 4 families."""
    while True:
        key = (rng.randint(*UNKNOWN_ASNS), rng.choice(world.families), None)
        yield forecast_post(key), key


def record_stream(world: World, rng: Random) -> Stream:
    """The simulated feed in seeded order, 8 records per POST, cycled."""
    records = json.loads(world.feed.read_text(encoding="utf-8"))
    rng.shuffle(records)
    usable = len(records) - len(records) % RECORDS_PER_POST
    posts = [json.dumps({"records": records[i:i + RECORDS_PER_POST]}).encode()
             for i in range(0, usable, RECORDS_PER_POST)]
    return itertools.cycle([(_post("/v1/records", body), RECORDS_PER_POST)
                            for body in posts])


def read_stream(workload: Workload, world: World, seed: int) -> Stream:
    rng = Random(f"{seed}|{workload.name}|reads")
    if workload.name == "miss-heavy":
        return miss_stream(world, rng)
    if workload.name == "degraded":
        return degraded_stream(world, rng)
    return hit_stream(world, rng)


def check_forecast(key, status: int, body: bytes) -> dict | None:
    """The answer document when it is a well-formed answer to ``key``."""
    if status != 200:
        return None
    try:
        doc = json.loads(body)
    except ValueError:
        return None
    asn, family, now = key
    if (doc.get("asn") != asn or doc.get("family") != family
            or doc.get("now") != now or not isinstance(doc.get("forecast"), dict)
            or doc.get("source") not in ("model", "baseline")
            or doc.get("degraded") is not (doc.get("source") != "model")):
        return None
    return doc


def check_ack(n_records: int, status: int, body: bytes) -> dict | None:
    """The ack document when it durably acknowledged the whole batch."""
    if status != 200:
        return None
    try:
        doc = json.loads(body)
        first, nxt = int(doc["first_offset"]), int(doc["next_offset"])
    except (ValueError, KeyError, TypeError):
        return None
    if doc.get("appended") != n_records or nxt - first != n_records:
        return None
    return doc

"""What the shared host does to a run, measured beside the server.

Two things move every number on this host without any code change:

* **Python speed.**  ``calibrate.py`` times a fixed kernel in CPU time
  beside the server; :meth:`Calibrator.slowdown` is its mean over a set
  of spans divided by the reference time.
* **Hypervisor steal.**  While the hypervisor runs something else on one
  of this machine's cores, nothing here runs there.  Process CPU time
  leaves that gap out, so the kernel cannot see it, but it stalls every
  request in flight.  The guest kernel counts it as ``steal`` in
  ``/proc/stat``.  :func:`sample_steal` reads that counter every
  ``STEAL_PERIOD_S`` during a window, and :func:`quiet_spans` keeps the
  stretches in which it did not move.

The end-to-end metrics are computed over the quiet spans and normalized
by the slowdown over the same spans.
"""

from __future__ import annotations

import array
import asyncio
import bisect
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from benchmarks.e2e.loadgen import Tally
from benchmarks.e2e.workloads import ROOT, BenchError

HERE = Path(__file__).resolve().parent
#: Mean CPU ms of ``calibrate.kernel`` on the reference host.  Normalized
#: metrics read as if measured on a host where the kernel takes this long.
REFERENCE_KERNEL_MS = 0.4
STEAL_PERIOD_S = 0.1
_START_TIMEOUT_S = 120.0
_STOP_TIMEOUT_S = 30.0

Span = tuple[int, int]  # monotonic_ns start and end


class Calibrator:
    """``calibrate.py`` sampling host speed for the whole run."""

    def __init__(self, path: Path) -> None:
        self.path = path
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "calibrate.py"), str(path)],
            cwd=ROOT, stdin=subprocess.DEVNULL)
        deadline = time.monotonic() + _START_TIMEOUT_S
        while not (path.exists() and path.stat().st_size >= 16):
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.close()
                raise BenchError("the calibration process did not start")
            time.sleep(0.01)

    def slowdown(self, spans: list[Span]) -> float:
        """Mean kernel CPU time inside ``spans`` / the reference time.

        2.0 means this host ran Python half as fast as the reference
        while the spans lasted.
        """
        raw = self.path.read_bytes()
        data = array.array("q")
        data.frombytes(raw[:len(raw) - len(raw) % 16])
        cpu_ns = [data[i + 1] for i in range(0, len(data), 2)
                  if any(start <= data[i] <= end for start, end in spans)]
        if not cpu_ns:
            raise BenchError("no host-speed samples inside the measured span")
        return statistics.fmean(cpu_ns) / 1e6 / REFERENCE_KERNEL_MS

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
        try:
            self.proc.wait(_STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def read_steal() -> int | None:
    """Jiffies of steal over all cores so far, or None where not counted."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = handle.readline().split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return None


async def sample_steal(samples: list[tuple[int, int]]) -> None:
    """Append ``(monotonic_ns, steal)`` every ``STEAL_PERIOD_S`` until cancelled."""
    while True:
        await asyncio.sleep(STEAL_PERIOD_S)
        steal = read_steal()
        if steal is None:
            return
        samples.append((time.monotonic_ns(), steal))


def quiet_spans(samples: list[tuple[int, int]], window: Span) -> list[Span]:
    """The parts of ``window`` to measure, as merged non-overlapping spans.

    The periods between samples in which steal did not move, if they
    cover at least half the window.  Otherwise steal ran through most
    of it, and the half of the periods with the least steal is kept
    instead, so that every run measures at least half its window.
    """
    start, end = window
    periods = [(a, b, s1 - s0) for (a, s0), (b, s1) in zip(samples, samples[1:])
               if a >= start and b <= end]
    if not periods:
        return [window]
    half = (end - start) / 2
    kept = [p for p in periods if p[2] == 0]
    if sum(b - a for a, b, _ in kept) < half:
        kept, covered = [], 0
        for period in sorted(periods, key=lambda p: p[2]):  # stable: time order
            if covered >= half:
                break
            kept.append(period)
            covered += period[1] - period[0]
        kept.sort()
    merged: list[list[int]] = []
    for a, b, _ in kept:
        if merged and merged[-1][1] == a:
            merged[-1][1] = b
        else:
            merged.append([a, b])
    return [(a, b) for a, b in merged]


def span_seconds(spans: list[Span]) -> float:
    return sum(b - a for a, b in spans) / 1e9


def steal_frac(samples: list[tuple[int, int]], window: Span, ncpu: int) -> float:
    """Share of the window's core time the hypervisor took."""
    inside = [s for t, s in samples if window[0] <= t <= window[1]]
    if len(inside) < 2:
        return 0.0
    jiffies = (window[1] - window[0]) / 1e9 * os.sysconf("SC_CLK_TCK") * ncpu
    return (inside[-1] - inside[0]) / jiffies


def within(tally: Tally, spans: list[Span]) -> tuple[float, list[float]]:
    """Correct answers per second and latencies, over ``spans`` only.

    The rate counts answers that arrived inside a span.  The latencies
    are those of requests that started and ended inside one span, so a
    stall outside the spans reaches none of them; a failed request
    inside counts as +inf.
    """
    starts = [a for a, _ in spans]

    def span_of(t: int) -> int:
        i = bisect.bisect_right(starts, t) - 1
        return i if i >= 0 and t <= spans[i][1] else -1

    answered, latencies = 0, []
    for t0, t1, ms in zip(tally.starts_ns, tally.ends_ns, tally.latencies_ms):
        j = span_of(t1)
        if j < 0:
            continue
        if not math.isinf(ms):
            answered += 1
        if span_of(t0) == j:
            latencies.append(ms)
    return answered / span_seconds(spans), latencies

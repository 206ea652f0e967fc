"""Closed-loop HTTP/1.1 load generator owned by the benchmark.

Deliberately not ``repro.server.AsyncForecastClient``: a change to the
product's client must not move the generator.  One asyncio process
drives a few keep-alive connections in groups; a group sends its next
requests only after all its previous answers arrived (a closed loop, so
a slower server receives less load).
"""

from __future__ import annotations

import asyncio
import math
import time
from dataclasses import dataclass, field
from typing import Callable, Iterator

# EOFError covers asyncio.IncompleteReadError; ValueError a garbled head.
_CONNECTION_ERRORS = (OSError, EOFError, asyncio.LimitOverrunError, ValueError)


class HttpConnection:
    """One keep-alive HTTP/1.1 connection, reopened after any error."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None

    async def request(self, raw: bytes) -> tuple[int, bytes]:
        """Send one pre-encoded request; returns ``(status, body)``."""
        if self._writer is None:
            self._reader, self._writer = await asyncio.open_connection(
                self.host, self.port)
        try:
            self._writer.write(raw)
            head = await self._reader.readuntil(b"\r\n\r\n")
            length, close = 0, False
            for line in head.split(b"\r\n")[1:]:
                name, _, value = line.partition(b":")
                name = name.strip().lower()
                if name == b"content-length":
                    length = int(value)
                elif name == b"connection":
                    close = value.strip().lower() == b"close"
            body = await self._reader.readexactly(length)
            status = int(head[9:12])
        except BaseException:
            self._drop()
            raise
        if close:
            self._drop()
        return status, body

    def _drop(self) -> None:
        writer, self._reader, self._writer = self._writer, None, None
        if writer is not None:
            writer.close()

    async def close(self) -> None:
        writer = self._writer
        self._drop()
        if writer is not None:
            try:
                await writer.wait_closed()
            except OSError:
                pass


@dataclass
class Tally:
    """Outcomes of one kind of request over one phase.

    A failed, refused or wrong answer counts as +inf latency, so it
    misses every percentile it could have improved.  ``starts_ns`` and
    ``ends_ns`` hold each request's ``time.monotonic_ns`` send and
    answer times, in the order of ``latencies_ms``.
    """

    latencies_ms: list[float] = field(default_factory=list)
    starts_ns: list[int] = field(default_factory=list)
    ends_ns: list[int] = field(default_factory=list)
    ok: int = 0
    bad: int = 0

    @property
    def attempted(self) -> int:
        return self.ok + self.bad

    def quantile_ms(self, q: float) -> float:
        return quantile(sorted(self.latencies_ms), q)


@dataclass
class Lane:
    """What one connection sends: a request stream and its answer check.

    ``check(key, status, body)`` returns the parsed answer or None when
    it is wrong; ``kind`` groups lanes into one :class:`Tally`.
    """

    kind: str
    requests: Iterator[tuple[bytes, object]]
    check: Callable[[object, int, bytes], dict | None]


OnAnswer = Callable[[object, dict], None]
#: Connections driven in lockstep: each step sends one request on every
#: connection of the group and waits for all of their answers.
Group = list[tuple[HttpConnection, Lane]]


async def _send(conn: HttpConnection, lane: Lane, tallies: dict[str, Tally],
                on_answer: dict[str, OnAnswer]) -> None:
    clock = time.monotonic_ns
    raw, key = next(lane.requests)
    t0 = clock()
    try:
        status, body = await conn.request(raw)
    except _CONNECTION_ERRORS:
        status, body = 0, b""
    t1 = clock()
    doc = lane.check(key, status, body)
    tally = tallies[lane.kind]
    tally.starts_ns.append(t0)
    tally.ends_ns.append(t1)
    if doc is None:
        tally.bad += 1
        tally.latencies_ms.append(math.inf)
        return
    tally.ok += 1
    tally.latencies_ms.append((t1 - t0) / 1e6)
    if lane.kind in on_answer:
        on_answer[lane.kind](key, doc)


async def _drive(group: Group, deadline: float, tallies: dict[str, Tally],
                 on_answer: dict[str, OnAnswer]) -> None:
    if len(group) == 1:
        (conn, lane), = group
        while time.perf_counter() < deadline:
            await _send(conn, lane, tallies, on_answer)
        return
    while time.perf_counter() < deadline:
        await asyncio.gather(*(_send(conn, lane, tallies, on_answer)
                               for conn, lane in group))


async def run_phase(groups: list[Group], seconds: float,
                    on_answer: dict[str, OnAnswer] | None = None
                    ) -> tuple[dict[str, Tally], float]:
    """Drive every group for ``seconds``, each in its own closed loop.

    Returns one tally per lane kind and the phase's wall seconds, which
    run until the last in-flight answer arrived.
    """
    tallies = {lane.kind: Tally() for group in groups for _, lane in group}
    t0 = time.perf_counter()
    await asyncio.gather(*(_drive(group, t0 + seconds, tallies, on_answer or {})
                           for group in groups))
    return tallies, time.perf_counter() - t0


def quantile(ordered: list[float], q: float) -> float:
    """Linear-interpolated quantile of an ascending list (+inf aware)."""
    if not ordered:
        return math.nan
    pos = q * (len(ordered) - 1)
    lo, hi = math.floor(pos), math.ceil(pos)
    if math.isinf(ordered[hi]):
        return ordered[hi]
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)

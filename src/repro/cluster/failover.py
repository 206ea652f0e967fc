"""Health-probed client-side failover over a forecast replica set.

:class:`ReplicaSet` is the member-state machine: each replica carries
its consecutive failure/success counts, an ejection bit, and a
cooldown deadline.  Selection is round-robin over *ready* members --
ready meaning not ejected and not cooling down -- so load spreads
while sick replicas rest.  A member's cooldown honors the server's own
``Retry-After`` hint when one came back (429 shedding, 503 draining);
otherwise it doubles per consecutive failure from
``ClusterConfig.cooldown_s`` up to ``max_cooldown_s`` -- the same
bounded-backoff discipline the sharded engine's lifecycle threads use.

:class:`FailoverForecastClient` wraps one
:class:`~repro.server.client.AsyncForecastClient` per member and walks
the set on failure:

* **fail over** on connection errors, request timeouts, and 503s (a
  draining replica *asked* to be skipped) -- the next ready member
  answers and the caller never sees the dead replica;
* **accept but cool down** on 429 -- the body is still a usable
  (degraded) forecast, and the ``Retry-After`` hint parks the member;
* **raise immediately** on 4xx request errors -- every replica would
  reject the same malformed question, so retrying is noise;
* **degrade, never hang** once every member is exhausted: with a
  §VII-A :class:`~repro.serving.engine.BaselineFallback` installed the
  caller gets a ``degraded: true`` forecast naming the dead replicas,
  mirroring the engine's own overload contract; without one,
  :class:`NoReplicasAvailableError` carries the per-member errors.

Probing is cooperative: :meth:`FailoverForecastClient.probe_once`
sweeps ``/healthz`` across all members concurrently (ejected ones too
-- that is how they come back), and :meth:`start_probing` runs the
sweep on ``ClusterConfig.probe_interval_s`` as a background task.
Failover itself never waits for a probe; a request failure updates the
same member state a probe would.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field

from repro.cluster.config import ClusterConfig, ReplicaEndpoint
from repro.errors import NoReplicasAvailableError
from repro.server.client import (
    AsyncForecastClient,
    BaseForecastClient,
    ForecastServiceError,
    ReplicaHealth,
)
from repro.serving.engine import Forecast, ForecastRequest
from repro.telemetry import Telemetry, Span, new_trace_id

__all__ = [
    "FailoverForecastClient",
    "NoReplicasAvailableError",
    "ReplicaSet",
    "ReplicaState",
]

#: Failures that mean "this replica, right now" -- not "this request".
_FAILOVER_ERRORS = (ConnectionError, OSError, asyncio.TimeoutError,
                    asyncio.IncompleteReadError, EOFError)


@dataclass
class ReplicaState:
    """Mutable failover bookkeeping for one member."""

    endpoint: ReplicaEndpoint
    client: AsyncForecastClient
    consecutive_failures: int = 0
    consecutive_successes: int = 0
    ejected: bool = False
    #: ``time.monotonic()`` deadline before which selection skips us.
    cooldown_until: float = 0.0
    health: ReplicaHealth | None = None
    last_error: str | None = None
    requests: int = 0
    failures: int = 0

    @property
    def address(self) -> str:
        return self.endpoint.address

    def ready(self, now: float) -> bool:
        """Eligible for round-robin selection right now."""
        return not self.ejected and now >= self.cooldown_until

    def describe(self) -> dict:
        """JSON-safe status row (CLI output, tests, benchmarks)."""
        return {
            "address": self.address,
            "ready": self.ready(time.monotonic()),
            "ejected": self.ejected,
            "consecutive_failures": self.consecutive_failures,
            "requests": self.requests,
            "failures": self.failures,
            "model_version": self.health.model_version if self.health else None,
            "store": self.health.store if self.health else None,
            "last_error": self.last_error,
        }


class ReplicaSet:
    """Member selection + health accounting for a replica list.

    Single event-loop confined (like everything in ``repro.server``):
    no locks, just careful ordering.  The two mutation paths -- request
    outcomes and probe outcomes -- funnel through
    :meth:`record_success` / :meth:`record_failure` so they cannot
    disagree about a member's state.
    """

    def __init__(self, config: ClusterConfig, *,
                 transport: str = "http",
                 metrics: Telemetry | None = None) -> None:
        self.config = config
        self.metrics = metrics or Telemetry()
        self.members = [
            ReplicaState(
                endpoint=endpoint,
                client=AsyncForecastClient(
                    endpoint.host, endpoint.port, transport=transport,
                    request_timeout_s=config.request_timeout_s),
            )
            for endpoint in config.endpoints
        ]
        self._rr = 0  # next round-robin start offset

    def __len__(self) -> int:
        return len(self.members)

    # ----- selection -----

    def candidates(self) -> list[ReplicaState]:
        """Members in attempt order: ready first (round-robin), rest after.

        The non-ready tail means a request can still land on a cooling
        or ejected member when nothing healthy remains -- a replica
        that just recovered answers, and the success readmits it.
        """
        now = time.monotonic()
        ready = [m for m in self.members if m.ready(now)]
        rest = [m for m in self.members if not m.ready(now)]
        if ready:
            start = self._rr % len(ready)
            self._rr += 1
            ready = ready[start:] + ready[:start]
        # Least-recently-failed first gives a recovering member the
        # best shot before truly dead ones burn the timeout budget.
        rest.sort(key=lambda m: m.cooldown_until)
        return ready + rest

    def ready_members(self) -> list[ReplicaState]:
        """Members currently eligible for selection."""
        now = time.monotonic()
        return [m for m in self.members if m.ready(now)]

    # ----- outcome accounting -----

    def record_success(self, member: ReplicaState,
                       health: ReplicaHealth | None = None) -> None:
        member.consecutive_failures = 0
        member.consecutive_successes += 1
        member.last_error = None
        if health is not None:
            member.health = health
        if member.ejected and (member.consecutive_successes
                               >= self.config.recovery_threshold):
            member.ejected = False
            member.cooldown_until = 0.0
            self.metrics.incr("cluster.readmissions")

    def record_failure(self, member: ReplicaState, error: str, *,
                       retry_after_s: float | None = None) -> None:
        member.consecutive_successes = 0
        member.consecutive_failures += 1
        member.failures += 1
        member.last_error = error
        cooldown = retry_after_s if retry_after_s is not None else min(
            self.config.cooldown_s * 2 ** (member.consecutive_failures - 1),
            self.config.max_cooldown_s,
        )
        member.cooldown_until = time.monotonic() + cooldown
        if (not member.ejected
                and member.consecutive_failures >= self.config.failure_threshold):
            member.ejected = True
            self.metrics.incr("cluster.ejections")

    def cool_down(self, member: ReplicaState, retry_after_s: float) -> None:
        """Park a member without counting a failure (429 hints)."""
        member.cooldown_until = max(
            member.cooldown_until, time.monotonic() + retry_after_s)

    # ----- probing -----

    async def probe_once(self) -> list[ReplicaState]:
        """One concurrent ``/healthz`` sweep across every member.

        A 200 is a success; a 503 ``draining`` body parks the member
        for its ``Retry-After`` without burning the failure counter (a
        drain is deliberate, not sick); transport errors count toward
        ejection.  Returns the members for convenient inspection.
        """

        async def probe(member: ReplicaState) -> None:
            try:
                health = await member.client.healthz()
            except _FAILOVER_ERRORS as exc:
                self.metrics.incr("cluster.probe_failures")
                self.record_failure(
                    member, f"{type(exc).__name__}: {exc}".strip(": "))
                return
            except ForecastServiceError as exc:
                self.metrics.incr("cluster.probe_failures")
                self.record_failure(member, f"healthz answered {exc.status}",
                                    retry_after_s=exc.retry_after_s)
                return
            member.health = health
            if health.ready:
                self.record_success(member, health)
            elif health.draining:
                cooldown = health.retry_after_s or self.config.cooldown_s
                self.cool_down(member, cooldown)
            else:
                self.record_failure(member,
                                    f"healthz status {health.status!r}",
                                    retry_after_s=health.retry_after_s)

        self.metrics.incr("cluster.probes")
        await asyncio.gather(*(probe(member) for member in self.members))
        return self.members

    async def close(self) -> None:
        for member in self.members:
            await member.client.close()


class FailoverForecastClient(BaseForecastClient):
    """A smart client: one replica set, transparent failover.

    The surface mirrors :class:`AsyncForecastClient` (``forecast``,
    ``forecast_batch``, ``metrics``, ``healthz``) so call sites swap a
    single endpoint for a replica list without rewriting; answers are
    the same :class:`~repro.serving.engine.Forecast` objects.  Request
    payloads and response checking come from the shared
    :class:`~repro.server.client.BaseForecastClient`.

    Tracing starts here: pass ``trace=True`` (or an explicit
    ``trace_id``) and the client mints one identifier that survives
    every failover hop -- each attempt (successful or not) becomes a
    ``client.attempt`` span and the whole walk a ``client.request``
    span on the returned forecast, while the same id tags the winning
    replica's access-log line and worker-side ``shard.query`` span.
    """

    def __init__(self, config: ClusterConfig, *,
                 transport: str = "http",
                 fallback=None,
                 metrics: Telemetry | None = None) -> None:
        self.config = config
        self.metrics = metrics or Telemetry()
        self.replicas = ReplicaSet(config, transport=transport,
                                   metrics=self.metrics)
        #: §VII-A degradation when the whole set is down -- typically a
        #: :class:`~repro.serving.engine.BaselineFallback`; None means
        #: exhaustion raises :class:`NoReplicasAvailableError` instead.
        self.fallback = fallback
        self._probe_task: asyncio.Task | None = None

    # ----- lifecycle -----

    def start_probing(self) -> None:
        """Run :meth:`ReplicaSet.probe_once` every probe interval."""
        if self._probe_task is None or self._probe_task.done():
            self._probe_task = asyncio.ensure_future(self._probe_loop())

    async def _probe_loop(self) -> None:
        while True:
            try:
                await self.replicas.probe_once()
            except asyncio.CancelledError:
                raise
            except Exception:  # pragma: no cover - defensive
                self.metrics.incr("cluster.probe_errors")
            await asyncio.sleep(self.config.probe_interval_s)

    async def probe_once(self) -> list[ReplicaState]:
        """One health sweep now (also what the background task runs)."""
        return await self.replicas.probe_once()

    async def close(self) -> None:
        if self._probe_task is not None:
            self._probe_task.cancel()
            try:
                await self._probe_task
            except asyncio.CancelledError:
                pass
            self._probe_task = None
        await self.replicas.close()

    async def __aenter__(self) -> "FailoverForecastClient":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    # ----- queries -----

    async def forecast(self, asn: int | None = None,
                       family: str | None = None, *,
                       now: float | None = None,
                       timeout_s: float | None = None,
                       trace: bool = False,
                       trace_id: str | None = None) -> Forecast:
        """One forecast, from whichever replica answers first."""
        if trace and trace_id is None:
            trace_id = new_trace_id()
        request = ForecastRequest(asn=asn, family=family, now=now)
        return await self._failover(
            lambda client: client.forecast(
                asn=asn, family=family, now=now, timeout_s=timeout_s,
                trace_id=trace_id),
            [request], single=True, trace_id=trace_id,
        )

    async def forecast_batch(self, requests, *,
                             timeout_s: float | None = None,
                             trace: bool = False,
                             trace_id: str | None = None) -> list[Forecast]:
        """One batch, entirely answered by a single healthy replica."""
        if trace and trace_id is None:
            trace_id = new_trace_id()
        normalized = self._normalize_requests(requests)
        return await self._failover(
            lambda client: client.forecast_batch(
                normalized, timeout_s=timeout_s, trace_id=trace_id),
            normalized, single=False, trace_id=trace_id,
        )

    async def metrics_snapshot(self) -> dict:
        """``/metrics`` from the first replica that answers."""
        return await self._failover(lambda client: client.metrics(),
                                    None, single=True)

    async def healthz(self) -> list[dict]:
        """Probe everyone and report per-member status rows."""
        await self.replicas.probe_once()
        return [member.describe() for member in self.replicas.members]

    def cluster_status(self) -> dict:
        """Client-side view: members + failover counters (no I/O)."""
        return {
            "members": [m.describe() for m in self.replicas.members],
            "counters": self.metrics.snapshot().get("counters", {}),
        }

    # ----- the failover walk -----

    async def _failover(self, attempt, requests, *, single: bool,
                        trace_id: str | None = None):
        """Try candidates in order; degrade (or raise) when all fail.

        ``requests`` is the original request list for baseline
        degradation -- None for non-forecast operations, which have no
        baseline to give and always raise on exhaustion.  ``single``
        says whether the caller expects one answer or a list.  With a
        ``trace_id`` every attempt is recorded as a ``client.attempt``
        span on the answer -- one id across however many replicas the
        walk touched.
        """
        self.metrics.incr("cluster.requests")
        errors: dict[str, str] = {}
        spans: list[dict] = []
        walk_start, walk_t0 = time.time(), time.perf_counter()
        first = True
        for member in self.replicas.candidates():
            if not first:
                self.metrics.incr("cluster.failovers")
            first = False
            member.requests += 1
            attempt_start, attempt_t0 = time.time(), time.perf_counter()
            try:
                result = await attempt(member.client)
            except ForecastServiceError as exc:
                self._attempt_span(spans, trace_id, member, attempt_start,
                                   attempt_t0, f"{exc.status} {exc.code}")
                if exc.status in (503, 429):
                    # The replica asked us to go away (draining, full):
                    # honor its Retry-After and walk on.
                    errors[member.address] = f"{exc.status} {exc.code}"
                    self.replicas.record_failure(
                        member, f"{exc.status} {exc.code}",
                        retry_after_s=exc.retry_after_s)
                    continue
                # 4xx request errors: our fault, every replica agrees.
                raise
            except _FAILOVER_ERRORS as exc:
                error = f"{type(exc).__name__}: {exc}".strip(": ")
                self._attempt_span(spans, trace_id, member, attempt_start,
                                   attempt_t0, error)
                errors[member.address] = error
                self.replicas.record_failure(member, error)
                continue
            self._attempt_span(spans, trace_id, member, attempt_start,
                               attempt_t0, None)
            self.replicas.record_success(member)
            retry_hint = member.client.last_retry_after_s
            if retry_hint is not None:
                # Forecast-bearing 429: answer accepted, member parked.
                self.metrics.incr("cluster.throttled_answers")
                self.replicas.cool_down(member, retry_hint)
            return self._attach_trace(result, trace_id, spans,
                                      walk_start, walk_t0)

        self.metrics.incr("cluster.exhausted")
        detail = "; ".join(f"{addr}: {err}" for addr, err in errors.items())
        if requests is not None and self.fallback is not None:
            error = (f"all {len(self.replicas)} replicas failed ({detail}); "
                     "serving the naive baseline")
            forecasts = [self.fallback.forecast(r, error=error)
                         for r in requests]
            self._attach_trace(forecasts, trace_id, spans,
                               walk_start, walk_t0)
            return forecasts[0] if single else forecasts
        raise NoReplicasAvailableError(
            f"all {len(self.replicas)} replicas failed: {detail}", errors)

    # ----- client-side spans -----

    @staticmethod
    def _attempt_span(spans: list[dict], trace_id: str | None,
                      member: ReplicaState, start_s: float, t0: float,
                      error: str | None) -> None:
        """Record one replica attempt on the trace (no-op untraced)."""
        if trace_id is None:
            return
        detail = {"replica": member.address}
        if error is not None:
            detail["error"] = error
        spans.append(Span(
            name="client.attempt", start_s=start_s,
            elapsed_s=time.perf_counter() - t0,
            outcome="ok" if error is None else "error",
            detail=detail,
        ).to_dict())

    @staticmethod
    def _attach_trace(result, trace_id: str | None, spans: list[dict],
                      walk_start: float, walk_t0: float):
        """Pin the trace id + client spans onto the returned forecasts."""
        if trace_id is None:
            return result
        client_spans = spans + [Span(
            name="client.request", start_s=walk_start,
            elapsed_s=time.perf_counter() - walk_t0,
            detail={"attempts": len(spans)},
        ).to_dict()]
        forecasts = result if isinstance(result, list) else [result]
        for forecast in forecasts:
            if isinstance(forecast, Forecast):
                if forecast.trace_id is None:
                    forecast.trace_id = trace_id
                forecast.spans = list(forecast.spans) + client_spans
        return result

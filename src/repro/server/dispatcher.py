"""Protocol-independent request dispatcher over a :class:`ForecastEngine`.

Both transports (HTTP and length-prefixed frames) reduce every request
to ``(op, payload)`` and hand it here; the dispatcher owns the
operational policy so the two wire formats cannot drift:

* **Admission** -- at most ``max_inflight`` forecast computations run
  concurrently.  Excess load is *shed with an answer*: a 429 whose
  body is still a schema-versioned forecast, produced by the engine's
  §VII-A naive-baseline fallback path (`degraded: true`).  Clients
  under overload lose accuracy, not availability.
* **Deadlines** -- each request may carry ``timeout_s``; the
  dispatcher clamps it to ``max_timeout_s`` and maps it onto the
  engine's timeout machinery, so a network deadline and an engine
  timeout hit the same counters and the same baseline degradation.
  An answer that already exists meets any deadline.
* **Draining** -- once :meth:`Dispatcher.begin_drain` runs (graceful
  shutdown), new forecasts get 503 + ``Retry-After`` while in-flight
  ones finish; ``/healthz`` flips to ``draining`` so load balancers
  eject the replica first.

Every forecast is one :meth:`ForecastEngine.submit`.  A prediction-cache
hit comes back already resolved and is answered on the event loop
without a thread hop; fits and predictions run on the engine's own
thread pool and the event loop awaits their wrapped futures under the
deadline, so thousands of connections multiplex over ``max_workers``
model threads.  A sharded engine hands back this loop's own future
instead: the loop reads the shard's reply off the worker pipe and
resolves it in place, and ``wrap_future`` passes it through unchanged.
"""

from __future__ import annotations

import asyncio
import time

from repro.chaos.hooks import chaos_point
from repro.errors import JournalError
from repro.evaluation.reporting import FORECAST_SCHEMA_VERSION, error_payload
from repro.serving.engine import (
    EngineClosedError,
    Forecast,
    ForecastEngine,
    ForecastRequest,
    coalesce,
)
from repro.server.protocol import (
    ProtocolError,
    parse_batch_request,
    parse_forecast_request,
    parse_records_request,
    parse_timeout,
)
from repro.telemetry import TraceContext, to_prometheus

__all__ = ["Dispatcher"]

#: Retry hint handed to shed/drained clients, in seconds.
DEFAULT_RETRY_AFTER_S = 1.0


class Dispatcher:
    """Maps wire operations onto one engine, with backpressure."""

    def __init__(self, engine: ForecastEngine, *,
                 max_inflight: int = 64,
                 default_timeout_s: float | None = 10.0,
                 max_timeout_s: float = 60.0,
                 retry_after_s: float = DEFAULT_RETRY_AFTER_S,
                 store_info: dict | None = None) -> None:
        if max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        self.engine = engine
        self.metrics = engine.metrics
        self.max_inflight = max_inflight
        self.default_timeout_s = default_timeout_s
        self.max_timeout_s = max_timeout_s
        self.retry_after_s = retry_after_s
        #: Model-store provenance (``ModelStore.describe()``), exposed
        #: on ``/healthz`` so a rolling reload can verify each replica
        #: came back serving the *new* store version.  None when the
        #: replica fitted from scratch.
        self.store_info = store_info
        #: Optional ingest sink the CLI installs when ``--journal`` is
        #: given: ``callable(list[dict]) -> (first_offset, next_offset)``
        #: (the journal's ``append_many``).  None means this replica
        #: does not accept records and ``POST /v1/records`` answers 503.
        self.record_sink = None
        self._inflight = 0  # event-loop confined; no lock needed
        self._draining = False
        #: Optional callable the transport installs so ``/metrics`` can
        #: report connection-level state alongside engine telemetry.
        self.transport_stats = None

    # ----- lifecycle -----

    @property
    def inflight(self) -> int:
        """Forecast computations currently admitted."""
        return self._inflight

    @property
    def draining(self) -> bool:
        """Whether graceful shutdown has begun."""
        return self._draining

    def begin_drain(self) -> None:
        """Stop admitting forecast work; health flips to ``draining``."""
        self._draining = True
        self.metrics.incr("server.drains")

    async def wait_idle(self, timeout_s: float | None = None) -> bool:
        """Wait for admitted work to finish; True when fully drained."""
        deadline = (asyncio.get_running_loop().time() + timeout_s
                    if timeout_s is not None else None)
        while self._inflight:
            if deadline is not None and asyncio.get_running_loop().time() >= deadline:
                return False
            await asyncio.sleep(0.01)
        return True

    # ----- the one entry point transports call -----

    async def handle(self, op: str, payload: dict,
                     ctx: TraceContext | None = None) -> tuple[int, dict, float | None]:
        """Execute one wire operation.

        Returns ``(status, body, retry_after_s)`` where ``status`` uses
        HTTP semantics in both transports and ``retry_after_s`` is the
        backpressure hint (None unless shedding/draining).  Malformed
        payloads come back as their :class:`ProtocolError` status with
        an :func:`error_payload` body -- this method does not raise for
        bad input, only for dispatcher bugs.

        ``ctx`` is the request's trace (None for untraced requests);
        its ``trace_id`` rides through the engine into the forecast
        body and is echoed on error payloads, so one identifier links
        client attempt, access-log line, and worker span.
        """
        t0 = time.perf_counter()
        trace_id = ctx.trace_id if ctx is not None else None
        try:
            if op == "forecast":
                return await self._forecast(payload, ctx)
            if op == "forecast_batch":
                return await self._forecast_batch(payload, ctx)
            if op == "metrics":
                stats = self.transport_stats() if self.transport_stats else None
                return 200, self.metrics_payload(stats), None
            if op == "healthz":
                return self.health()
            if op == "ingest_records":
                return self._ingest_records(payload, ctx)
            return 404, error_payload("unknown_op", f"unknown operation {op!r}",
                                      trace_id=trace_id), None
        except ProtocolError as exc:
            self.metrics.incr("server.bad_requests")
            return exc.status, error_payload(exc.code, str(exc),
                                             trace_id=trace_id), None
        finally:
            self.metrics.observe("server.request", time.perf_counter() - t0)

    # ----- operations -----

    async def _forecast(self, payload: dict,
                        ctx: TraceContext | None) -> tuple[int, dict, float | None]:
        request = parse_forecast_request(payload)
        timeout = parse_timeout(payload, self.max_timeout_s)
        if (refused := self._refuse(ctx)) is not None:
            return refused
        if self._inflight >= self.max_inflight:
            return self._shed(request, ctx)
        self._inflight += 1
        try:
            forecast = await self._run(request, timeout, ctx)
        except EngineClosedError:
            return self._drained_response(ctx)
        finally:
            self._inflight -= 1
        self.metrics.incr("server.requests")
        return 200, self._envelope(forecast), None

    async def _forecast_batch(self, payload: dict,
                              ctx: TraceContext | None) -> tuple[int, dict, float | None]:
        requests = parse_batch_request(payload)
        timeout = parse_timeout(payload, self.max_timeout_s)
        if (refused := self._refuse(ctx)) is not None:
            return refused
        if self._inflight >= self.max_inflight:
            self.metrics.incr("server.shed", len(requests))
            body = {
                "schema_version": FORECAST_SCHEMA_VERSION,
                "forecasts": [
                    self._stamp(self._shed_forecast(request), ctx).to_dict()
                    for request in requests
                ],
            }
            return 429, body, self.retry_after_s
        # ForecastEngine.query_batch's counter semantics, without
        # blocking the event loop on it: each distinct request counts
        # its own query as it is submitted, the duplicates count here.
        self.metrics.incr("serving.batches")
        distinct, index = coalesce(requests, self.metrics)
        self.metrics.incr("serving.queries", len(requests) - len(distinct))
        self._inflight += len(distinct)  # a batch holds one slot per computation
        try:
            answers = await asyncio.gather(
                *(self._run(request, timeout, ctx) for request in distinct)
            )
        except EngineClosedError:
            return self._drained_response(ctx)
        finally:
            self._inflight -= len(distinct)
        self.metrics.incr("server.requests", len(requests))
        body = {
            "schema_version": FORECAST_SCHEMA_VERSION,
            "forecasts": [answers[slot].to_dict() for slot in index],
        }
        return 200, body, None

    def _ingest_records(self, payload: dict,
                        ctx: TraceContext | None
                        ) -> tuple[int, dict, float | None]:
        """``POST /v1/records``: durably journal a batch of records.

        Synchronous on the event loop on purpose: the journal append is
        a bounded local write + one fsync, and acknowledging *before*
        the fsync would turn "accepted" into a lie on crash.  Draining
        replicas refuse (the journal's writer is going away); replicas
        without a journal answer 503 ``ingest_disabled``.
        """
        trace_id = ctx.trace_id if ctx is not None else None
        records = parse_records_request(payload)
        if self._draining:
            return self._drained_response(ctx)
        if self.record_sink is None:
            self.metrics.incr("server.ingest_refused")
            return 503, error_payload(
                "ingest_disabled",
                "this replica has no record journal attached "
                "(start it with --journal)",
                trace_id=trace_id,
            ), None
        try:
            first, next_offset = self.record_sink(records)
        except JournalError as exc:  # journal fault, not the client's
            self.metrics.incr("server.ingest_errors")
            return 500, error_payload(exc.code, str(exc),
                                      trace_id=trace_id), None
        except ValueError as exc:
            self.metrics.incr("server.bad_requests")
            return 400, error_payload("bad_record", str(exc),
                                      trace_id=trace_id), None
        self.metrics.incr("server.ingested_records", len(records))
        body = {
            "schema_version": FORECAST_SCHEMA_VERSION,
            "appended": len(records),
            "first_offset": first,
            "next_offset": next_offset,
        }
        if trace_id is not None:
            body["trace_id"] = trace_id
        return 200, body, None

    def metrics_payload(self, transport_stats: dict | None = None) -> dict:
        """The ``/metrics`` body: engine telemetry + server admission state."""
        snapshot = self.engine.metrics_snapshot()
        snapshot["server"] = {
            "inflight": self._inflight,
            "max_inflight": self.max_inflight,
            "draining": self._draining,
        }
        if transport_stats:
            snapshot["server"].update(transport_stats)
        return snapshot

    def metrics_exposition(self, transport_stats: dict | None = None) -> str:
        """The ``/metrics`` body in Prometheus text exposition format.

        Rendered from the same snapshot the JSON view serves -- one
        registry, two encodings -- with the server admission state
        (inflight, connection counts, draining) exported as gauges.
        """
        snapshot = self.metrics_payload(transport_stats)
        gauges: dict[str, float] = {}
        for key, value in snapshot.get("server", {}).items():
            if isinstance(value, bool):
                gauges[f"server.{key}"] = 1.0 if value else 0.0
            elif isinstance(value, (int, float)):
                gauges[f"server.{key}"] = float(value)
        return to_prometheus(snapshot, extra_gauges=gauges)

    def health(self) -> tuple[int, dict, float | None]:
        """The ``/healthz`` body; 503 while draining so LBs eject us.

        Ready or not, the body carries the full readiness state --
        ``model_version`` and the store provenance in particular, so
        rolling reloads can observe each replica switching to the new
        store version rather than inferring it from uptime.
        """
        draining = self._draining or self.engine.closed
        body = {
            "status": "draining" if draining else "ok",
            "draining": draining,
            "model_version": self.engine.model_version(),
            "inflight": self._inflight,
            "store": self.store_info,
        }
        if draining:
            return 503, body, self.retry_after_s
        return 200, body, None

    # ----- internals -----

    async def _run(self, request: ForecastRequest, timeout_s: float | None,
                   ctx: TraceContext | None = None) -> Forecast:
        if timeout_s is None:
            timeout_s = self.default_timeout_s
        # A value fault here is a deadline storm: the scheduled visits
        # run under a near-zero deadline and must still answer (the
        # timeout path degrades to the §VII-A baseline, never errors).
        fault = chaos_point("dispatcher.deadline", asn=request.asn,
                            family=request.family)
        if fault is not None:
            storm = float(fault.payload.get("timeout_s", 0.0))
            timeout_s = storm if timeout_s is None else min(timeout_s, storm)
        trace_id = ctx.trace_id if ctx is not None else None
        future = self.engine.submit(request, trace_id)
        if future.done():  # an answer that already exists meets any deadline
            return self._stamp(future.result(), ctx)
        try:
            forecast = await asyncio.wait_for(
                asyncio.wrap_future(future), timeout_s
            )
        except asyncio.TimeoutError:
            future.cancel()  # frees the slot if the pool never started it
            forecast = self.engine.timeout_forecast(request, timeout_s)
        return self._stamp(forecast, ctx)

    def _stamp(self, forecast: Forecast, ctx: TraceContext | None) -> Forecast:
        """Attach the request's trace id to answers minted outside the
        engine's traced path (timeouts, sheds, parent-side fallbacks)."""
        if ctx is not None and forecast.trace_id is None:
            forecast.trace_id = ctx.trace_id
        return forecast

    def _refuse(self, ctx: TraceContext | None = None
                ) -> tuple[int, dict, float | None] | None:
        if self._draining or self.engine.closed:
            return self._drained_response(ctx)
        return None

    def _drained_response(self, ctx: TraceContext | None = None
                          ) -> tuple[int, dict, float]:
        self.metrics.incr("server.refused_draining")
        return 503, error_payload(
            "draining", "server is draining; retry another replica",
            retry_after_s=self.retry_after_s,
            trace_id=ctx.trace_id if ctx is not None else None,
        ), self.retry_after_s

    def _shed(self, request: ForecastRequest,
              ctx: TraceContext | None = None) -> tuple[int, dict, float]:
        self.metrics.incr("server.shed")
        forecast = self._stamp(self._shed_forecast(request), ctx)
        return 429, self._envelope(forecast), self.retry_after_s

    def _shed_forecast(self, request: ForecastRequest) -> Forecast:
        """Overload answer: the engine's §VII-A naive-baseline fallback."""
        return self.engine.fallback(
            request,
            error=f"overloaded ({self.max_inflight} forecasts in flight); "
                  "serving the naive baseline",
        )

    def _envelope(self, forecast: Forecast) -> dict:
        """One forecast's response body.

        A strict superset of ``predict --json``: same ``schema_version``
        / ``asn`` / ``family`` / ``forecast`` fields with identical
        values, plus the serving provenance from
        :meth:`Forecast.to_dict`.
        """
        return {"schema_version": FORECAST_SCHEMA_VERSION} | forecast.to_dict()

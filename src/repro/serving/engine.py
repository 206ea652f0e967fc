"""Concurrent forecast query engine.

The operational front door of the reproduction: a mitigation provider
process holds one :class:`ForecastEngine` per trace and answers
"when/how big is the next ``family`` attack on AS ``asn``" queries --
singly or in batches -- without refitting anything on the hot path.

Request flow::

    query --> prediction cache --(miss)--> registry (fitted pipeline)
                                              |  fit failure / timeout /
                                              v  thin history
                                     baseline fallback (§VII-A),
                                     answer flagged ``degraded``

Batches coalesce duplicate (asn, family, now) work, fan the distinct
work across a thread pool, and apply a per-request timeout.  Every
path is counted in :class:`~repro.serving.metrics.ServingMetrics`.
"""

from __future__ import annotations

import threading
import time
from bisect import bisect_left
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Sequence

from repro.core.baselines import AttackColumns, naive_columns_forecast
from repro.core.spatiotemporal import AttackPrediction, SpatiotemporalConfig
from repro.dataset.generator import SimulationEnvironment
from repro.dataset.records import AttackRecord, AttackTrace
from repro.evaluation.reporting import prediction_from_dict, prediction_to_dict
from repro.errors import EngineClosedError
from repro.serving.cache import LRUTTLCache
from repro.serving.registry import ModelRegistry, RegisteredModel
from repro.telemetry import ServingMetrics, Span

__all__ = [
    "ForecastRequest",
    "Forecast",
    "ForecastEngine",
    "BaselineFallback",
    "EngineClosedError",
]

#: Sentinel for "use the engine-level default timeout" on per-call
#: timeout overrides (``None`` is a meaningful value: no timeout).
_UNSET = object()


@dataclass(frozen=True)
class ForecastRequest:
    """One forecast question: the next ``family`` attack on ``asn``.

    ``now`` is the query time in seconds since the trace epoch; ``None``
    means "end of the observed trace", matching
    :meth:`AttackPredictor.predict_next_for_network`.
    """

    asn: int
    family: str
    now: float | None = None

    @property
    def work_key(self) -> tuple:
        """Coalescing identity: requests with equal keys share work."""
        return (self.asn, self.family, self.now)


@dataclass
class Forecast:
    """Answer to a :class:`ForecastRequest`.

    ``source`` records which layer produced the numbers (``model``,
    ``baseline``, or ``none`` when there is no history at all);
    ``degraded`` is True whenever the fitted model did not answer.

    ``trace_id``/``spans`` are set only on traced requests: the id the
    caller minted plus one span dict per hop that handled the answer
    (``serving.query``, ``shard.query``, ...).  Untraced requests
    leave both empty and their wire dicts carry neither key, so the
    PR 1..6 payload shape is unchanged byte for byte.
    """

    request: ForecastRequest
    prediction: AttackPrediction | None
    source: str
    degraded: bool
    model_version: int = 0
    cached: bool = False
    error: str | None = None
    latency_s: float = 0.0
    trace_id: str | None = None
    spans: list[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Whether any prediction (model or baseline) was produced."""
        return self.prediction is not None

    def to_dict(self) -> dict:
        """JSON-safe payload (the CLI's ``--json`` schema)."""
        payload = {
            "asn": self.request.asn,
            "family": self.request.family,
            "now": self.request.now,
            "source": self.source,
            "degraded": self.degraded,
            "model_version": self.model_version,
            "cached": self.cached,
            "latency_s": round(self.latency_s, 6),
            "forecast": (
                prediction_to_dict(self.prediction) if self.prediction else None
            ),
        }
        if self.error:
            payload["error"] = self.error
        if self.trace_id is not None:
            payload["trace_id"] = self.trace_id
            if self.spans:
                payload["spans"] = [dict(span) for span in self.spans]
        return payload

    @classmethod
    def from_dict(cls, data: dict) -> "Forecast":
        """Rebuild a forecast from :meth:`to_dict` output.

        The symmetric inverse for clients that archive ``--json``
        responses: the embedded prediction goes through
        :func:`~repro.evaluation.reporting.prediction_from_dict`, which
        enforces the forecast ``schema_version``.
        """
        request = ForecastRequest(
            asn=int(data["asn"]),
            family=str(data["family"]),
            now=None if data.get("now") is None else float(data["now"]),
        )
        forecast = data.get("forecast")
        return cls(
            request=request,
            prediction=prediction_from_dict(forecast) if forecast else None,
            source=str(data["source"]),
            degraded=bool(data["degraded"]),
            model_version=int(data.get("model_version", 0)),
            cached=bool(data.get("cached", False)),
            error=data.get("error"),
            latency_s=float(data.get("latency_s", 0.0)),
            trace_id=data.get("trace_id"),
            spans=[dict(s) for s in data.get("spans") or []],
        )


class BaselineFallback:
    """§VII-A naive-baseline answers straight off the raw trace.

    One shared implementation for every engine flavor -- the in-process
    :class:`ForecastEngine` and the multi-process
    :class:`~repro.serving.sharded.ShardedForecastEngine` parent -- so
    degraded answers (fit failures, timeouts, shed load, dead shards)
    are a single code path with a single wire shape.
    """

    def __init__(self, trace: AttackTrace, metrics: ServingMetrics) -> None:
        self.trace = trace
        self.metrics = metrics
        # (attacks list, its length, {pool key: (starts, columns)}):
        # rebuilt whenever the trace's attacks list is replaced or grows.
        # Threads racing on it at worst build the same entry twice.
        self._columns: tuple = (None, 0, {})

    def forecast(self, request: ForecastRequest,
                 error: str | None = None) -> Forecast:
        """Baseline-backed degraded answer (§VII-A naive predictors).

        The history is the most specific non-empty pool -- same-AS
        attacks first (what the target itself observed), then the
        family's, then everything -- cut to attacks strictly before
        the query time.  The cut is a bisection over the pool's cached
        launch times and the forecast runs on column prefixes, so after
        a pool's first answer no answer touches the records again.
        """
        horizon = request.now if request.now is not None else float("inf")
        for key, pool in self._pools(request):
            if not pool:  # unknown keys are never cached: the cache stays bounded
                continue
            starts, columns = self._pool_columns(key, pool)
            k = bisect_left(starts, horizon)
            if k:
                prediction = naive_columns_forecast(columns.head(k))
                self.metrics.incr("serving.fallbacks")
                return Forecast(
                    request=request, prediction=prediction, source="baseline",
                    degraded=True, error=error,
                )
        self.metrics.incr("serving.unanswerable")
        return Forecast(
            request=request, prediction=None, source="none",
            degraded=True, error=error or "no observable history",
        )

    def _pools(self, request: ForecastRequest):
        """(cache key, chronological records) from most to least specific."""
        yield ("asn", request.asn), self.trace.by_target_asn(request.asn)
        yield ("family", request.family), self.trace.by_family(request.family)
        yield ("all",), self.trace.attacks

    def _pool_columns(self, key: tuple, pool: list[AttackRecord]
                      ) -> tuple[list[float], AttackColumns]:
        """Cached launch times and §VII-A columns of one pool."""
        attacks = self.trace.attacks
        built_from, n_built, cache = self._columns
        if built_from is not attacks or n_built != len(attacks):
            cache = {}
            self._columns = (attacks, len(attacks), cache)
        entry = cache.get(key)
        if entry is None:
            columns = AttackColumns.of(pool)
            entry = cache[key] = (columns.start.tolist(), columns)
        return entry


class ForecastEngine:
    """Batched, cached, degradation-aware forecast service for one trace."""

    def __init__(self, trace: AttackTrace, env: SimulationEnvironment,
                 config: SpatiotemporalConfig | None = None,
                 registry: ModelRegistry | None = None,
                 metrics: ServingMetrics | None = None,
                 prediction_cache: LRUTTLCache | None = None,
                 max_workers: int = 4,
                 timeout_s: float | None = None) -> None:
        if max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        self.trace = trace
        self.env = env
        self.config = config
        self.metrics = metrics or ServingMetrics()
        self.registry = registry or ModelRegistry(metrics=self.metrics)
        self.prediction_cache = prediction_cache or LRUTTLCache(max_entries=4096)
        self.timeout_s = timeout_s
        self._baseline = BaselineFallback(trace, self.metrics)
        self._pool = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="forecast"
        )
        self._closed = False
        self._close_lock = threading.Lock()

    # ----- lifecycle -----

    def warm(self) -> RegisteredModel | None:
        """Eagerly fit the model so the first query pays nothing.

        Returns ``None`` (and counts a fit failure) when fitting is
        impossible; queries will then serve baseline answers.
        """
        try:
            return self.registry.get(self.trace, self.env, self.config)
        except Exception:
            self.metrics.incr("serving.fit_failures")
            return None

    def close(self) -> None:
        """Drain in-flight queries, then reject new ones (idempotent).

        Safe to call from any thread, any number of times, while
        queries are still running: work already submitted (including
        queued-but-unstarted batch members) completes and its callers
        get real answers; anything submitted after the close began
        raises :class:`EngineClosedError` instead of racing a dying
        pool.
        """
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
        self._pool.shutdown(wait=True, cancel_futures=False)

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has begun (new queries are rejected)."""
        return self._closed

    def __enter__(self) -> "ForecastEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ----- queries -----

    def query(self, request: ForecastRequest | None = None, *,
              asn: int | None = None, family: str | None = None,
              now: float | None = None, timeout_s: object = _UNSET,
              trace_id: str | None = None) -> Forecast:
        """Answer one forecast request (built from kwargs if omitted).

        ``timeout_s`` overrides the engine-level default for this call
        only -- the hook the network front end uses to map per-request
        deadlines onto engine timeouts.  ``trace_id`` marks the call as
        traced: the answer echoes the id and carries a
        ``serving.query`` span.
        """
        if request is None:
            if asn is None or family is None:
                raise ValueError("need a ForecastRequest or asn= and family=")
            request = ForecastRequest(asn=asn, family=family, now=now)
        if self._closed:
            raise EngineClosedError("engine is closed")
        timeout = self.timeout_s if timeout_s is _UNSET else timeout_s
        self.metrics.incr("serving.queries")
        start_s = time.time()
        t0 = time.perf_counter()
        if timeout is not None:
            forecast = self._await(request, self._submit_answer(request), timeout)
        else:
            forecast = self._answer(request)
        forecast.latency_s = time.perf_counter() - t0
        self.metrics.observe("serving.query", forecast.latency_s)
        self._stamp_trace(forecast, trace_id, start_s)
        return forecast

    def query_batch(self, requests: Sequence[ForecastRequest], *,
                    timeout_s: object = _UNSET,
                    trace_id: str | None = None) -> list[Forecast]:
        """Answer many requests, coalescing duplicates across the pool.

        Results come back in request order; duplicate requests share
        one computation (and therefore one answer object).
        ``timeout_s`` overrides the engine default per call, as in
        :meth:`query`; ``trace_id`` (one per batch -- the batch is the
        request) stamps every distinct answer.
        """
        if self._closed:
            raise EngineClosedError("engine is closed")
        timeout = self.timeout_s if timeout_s is _UNSET else timeout_s
        self.metrics.incr("serving.batches")
        self.metrics.incr("serving.queries", len(requests))
        start_s = time.time()
        t0 = time.perf_counter()
        distinct: dict[tuple, ForecastRequest] = {}
        for request in requests:
            distinct.setdefault(request.work_key, request)
        self.metrics.incr("serving.coalesced", len(requests) - len(distinct))

        futures: dict[tuple, Future] = {
            key: self._submit_answer(request)
            for key, request in distinct.items()
        }
        answers = {
            key: self._await(distinct[key], future, timeout)
            for key, future in futures.items()
        }
        elapsed = time.perf_counter() - t0
        for forecast in answers.values():
            forecast.latency_s = elapsed
            self._stamp_trace(forecast, trace_id, start_s)
        self.metrics.observe("serving.batch", elapsed)
        return [answers[request.work_key] for request in requests]

    def submit(self, request: ForecastRequest,
               trace_id: str | None = None) -> Future:
        """Async-completion hook: schedule one request, return its future.

        The future resolves to a fully accounted :class:`Forecast`
        (latency stamped, ``serving.query`` observed, trace span
        attached when ``trace_id`` is given) and never carries an
        exception from the answer path itself.  The asyncio front end
        wraps it with :func:`asyncio.wrap_future`; synchronous callers
        should prefer :meth:`query`.  Raises
        :class:`EngineClosedError` once :meth:`close` has begun.
        """
        if self._closed:
            raise EngineClosedError("engine is closed")
        self.metrics.incr("serving.queries")
        try:
            return self._pool.submit(self._timed_answer, request, trace_id)
        except RuntimeError as exc:  # pool shut down between check and submit
            raise EngineClosedError("engine is closed") from exc

    def timeout_forecast(self, request: ForecastRequest,
                         timeout_s: float) -> Forecast:
        """Deadline-exceeded answer: count the timeout, degrade to baseline.

        The async front end calls this when its own ``wait_for`` fires,
        so network deadlines and engine timeouts land on the same
        fallback path and the same ``engine.timeouts`` counter.
        """
        self.metrics.incr("serving.timeouts")
        return self.fallback(request, error=f"timeout after {timeout_s}s")

    def model_version(self) -> int:
        """Current lineage version serving this engine's config (0 = unfitted).

        The health endpoint's view; the sharded engine answers the same
        question from its workers' boot reports.
        """
        model = self.registry.latest(self.config)
        return model.version if model else 0

    def metrics_snapshot(self) -> dict:
        """Full serving telemetry: engine, caches, registry lineages."""
        return self.metrics.snapshot(cache_stats={
            "predictions": self.prediction_cache.stats.to_dict(),
            "registry": self.registry.snapshot(),
        })

    # ----- internals -----

    def _submit_answer(self, request: ForecastRequest) -> Future:
        try:
            return self._pool.submit(self._answer, request)
        except RuntimeError as exc:  # pool shut down between check and submit
            raise EngineClosedError("engine is closed") from exc

    def _timed_answer(self, request: ForecastRequest,
                      trace_id: str | None = None) -> Forecast:
        start_s = time.time()
        t0 = time.perf_counter()
        forecast = self._answer(request)
        forecast.latency_s = time.perf_counter() - t0
        self.metrics.observe("serving.query", forecast.latency_s)
        self._stamp_trace(forecast, trace_id, start_s)
        return forecast

    def _stamp_trace(self, forecast: Forecast, trace_id: str | None,
                     start_s: float) -> None:
        """Mark a traced answer: echo the id, record this hop's span."""
        if trace_id is None:
            return
        forecast.trace_id = trace_id
        forecast.spans = forecast.spans + [Span(
            name="serving.query", start_s=start_s,
            elapsed_s=forecast.latency_s,
            outcome="degraded" if forecast.degraded else "ok",
            detail={"source": forecast.source, "cached": forecast.cached},
        ).to_dict()]

    def _await(self, request: ForecastRequest, future: Future,
               timeout_s: float | None) -> Forecast:
        try:
            return future.result(timeout=timeout_s)
        except TimeoutError:
            return self.timeout_forecast(request, timeout_s)
        except Exception as exc:  # defensive: _answer should not raise
            self.metrics.incr("serving.errors")
            return self.fallback(request, error=str(exc))

    def _answer(self, request: ForecastRequest) -> Forecast:
        try:
            model = self.registry.get(self.trace, self.env, self.config)
        except Exception as exc:
            self.metrics.incr("serving.fit_failures")
            return self.fallback(request, error=f"model fit failed: {exc}")

        cache_key = (model.key, model.version, request.work_key)
        cached = self.prediction_cache.get(cache_key)
        if cached is not None:
            self.metrics.incr("serving.prediction_cache_hits")
            return Forecast(
                request=request, prediction=cached, source="model",
                degraded=False, model_version=model.version, cached=True,
            )
        try:
            prediction = model.predictor.predict_next_for_network(
                request.asn, request.family, now=request.now
            )
        except Exception as exc:
            self.metrics.incr("serving.predict_failures")
            return self.fallback(request, error=f"prediction failed: {exc}")
        if prediction is None:
            self.metrics.incr("serving.thin_history")
            return self.fallback(
                request,
                error=(f"AS{request.asn} below the §VI-B history floor "
                       "for the fitted model"),
            )
        self.prediction_cache.put(cache_key, prediction)
        self.metrics.incr("serving.model_answers")
        return Forecast(
            request=request, prediction=prediction, source="model",
            degraded=False, model_version=model.version,
        )

    def fallback(self, request: ForecastRequest,
                 error: str | None = None) -> Forecast:
        """Baseline-backed degraded answer (§VII-A naive predictors).

        Public because the network front end reuses it for overload
        shedding: a 429 still carries a naive-baseline forecast, so
        clients degrade instead of starving.
        """
        return self._baseline.forecast(request, error=error)

"""Tests for the forecast query engine.

The expensive model fit is shared: the engines here are fed the
session-scoped fitted ``predictor`` through an injected registry
factory, so no test refits the pipeline.
"""

import copy
import dataclasses
import json
import random
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core.baselines import naive_attack_forecast
from repro.dataset.records import AttackTrace
from repro.serving import (
    BaselineFallback,
    EngineClosedError,
    Forecast,
    ForecastEngine,
    ForecastRequest,
    ModelRegistry,
    ServingMetrics,
)


@pytest.fixture(scope="module")
def engine(small_trace, small_env, predictor):
    registry = ModelRegistry(factory=lambda trace, env, config: predictor)
    eng = ForecastEngine(small_trace, small_env, registry=registry, max_workers=4)
    yield eng
    eng.close()


@pytest.fixture(scope="module")
def served_requests(small_trace, predictor):
    """Requests the fitted model can actually answer."""
    asns = predictor.spatial.ases()[:4]
    families = small_trace.families()[:3]
    return [ForecastRequest(asn=asn, family=family)
            for asn in asns for family in families]


class TestModelPath:
    def test_query_answers_from_model(self, engine, served_requests):
        forecast = engine.query(served_requests[0])
        assert forecast.source == "model"
        assert not forecast.degraded
        assert forecast.ok
        assert forecast.model_version == 1
        prediction = forecast.prediction
        assert 0.0 <= prediction.hour < 24.0
        assert prediction.duration >= 0.0

    def test_repeat_query_hits_prediction_cache(self, engine, served_requests):
        request = served_requests[1]
        first = engine.query(request)
        again = engine.query(request)
        assert not first.cached or again.cached  # second identical query cached
        assert again.prediction.hour == first.prediction.hour
        assert engine.metrics.counter("serving.prediction_cache_hits") >= 1

    def test_kwargs_form(self, engine, served_requests):
        request = served_requests[0]
        forecast = engine.query(asn=request.asn, family=request.family)
        assert forecast.request == request

    def test_query_requires_target(self, engine):
        with pytest.raises(ValueError):
            engine.query()


class TestBatching:
    def test_batched_equals_sequential(self, engine, served_requests):
        batch = engine.query_batch(served_requests)
        sequential = [engine.query(r) for r in served_requests]
        assert len(batch) == len(sequential) == len(served_requests)
        for b, s in zip(batch, sequential):
            assert b.request == s.request
            assert b.source == s.source == "model"
            assert b.prediction.hour == s.prediction.hour
            assert b.prediction.day == s.prediction.day
            assert b.prediction.duration == s.prediction.duration
            assert b.prediction.magnitude == s.prediction.magnitude

    def test_duplicates_coalesce(self, engine, served_requests):
        metrics_before = engine.metrics.counter("serving.coalesced")
        request = served_requests[0]
        batch = engine.query_batch([request] * 5)
        assert len(batch) == 5
        assert all(f is batch[0] for f in batch)  # one shared computation
        assert engine.metrics.counter("serving.coalesced") - metrics_before == 4

    def test_order_preserved(self, engine, served_requests):
        reordered = list(reversed(served_requests))
        batch = engine.query_batch(reordered)
        assert [f.request for f in batch] == reordered


class TestDegradation:
    def test_fit_failure_falls_back_to_baseline(self, small_trace, small_env):
        def failing_factory(trace, env, config):
            raise RuntimeError("induced fit failure")

        metrics = ServingMetrics()
        with ForecastEngine(
            small_trace, small_env, metrics=metrics,
            registry=ModelRegistry(factory=failing_factory, metrics=metrics),
        ) as engine:
            request = ForecastRequest(
                asn=small_trace.attacks[0].target_asn,
                family=small_trace.families()[0],
            )
            forecast = engine.query(request)
            assert forecast.degraded
            assert forecast.source == "baseline"
            assert forecast.ok  # baseline still produced numbers
            assert "induced fit failure" in forecast.error
            assert metrics.counter("serving.fit_failures") == 1
            assert metrics.counter("serving.fallbacks") == 1

    def test_warm_survives_fit_failure(self, small_trace, small_env):
        def failing_factory(trace, env, config):
            raise RuntimeError("boom")

        with ForecastEngine(
            small_trace, small_env,
            registry=ModelRegistry(factory=failing_factory),
        ) as engine:
            assert engine.warm() is None

    def test_thin_history_target_gets_baseline(self, engine, small_trace):
        forecast = engine.query(
            asn=10**9, family=small_trace.families()[0]
        )
        assert forecast.degraded
        assert forecast.source == "baseline"
        assert forecast.ok
        assert "history floor" in forecast.error
        assert engine.metrics.counter("serving.thin_history") >= 1

    def test_empty_history_is_unanswerable(self, small_trace, small_env):
        import copy

        empty = copy.copy(small_trace)
        empty.attacks = []
        registry = ModelRegistry(
            factory=lambda t, e, c: (_ for _ in ()).throw(RuntimeError("no fit"))
        )
        with ForecastEngine(empty, small_env, registry=registry) as engine:
            forecast = engine.query(asn=1, family="DirtJumper")
            assert forecast.degraded
            assert forecast.source == "none"
            assert not forecast.ok

    def test_timeout_degrades_to_baseline(self, small_trace, small_env, predictor):
        def slow_factory(trace, env, config):
            time.sleep(0.5)
            return predictor

        with ForecastEngine(
            small_trace, small_env, timeout_s=0.05,
            registry=ModelRegistry(factory=slow_factory),
        ) as engine:
            request = ForecastRequest(
                asn=small_trace.attacks[0].target_asn,
                family=small_trace.families()[0],
            )
            forecast = engine.query(request)
            assert forecast.degraded
            assert forecast.source == "baseline"
            assert "timeout" in forecast.error
            assert engine.metrics.counter("serving.timeouts") == 1

    def test_baseline_forecast_metrics_flagged(self, small_trace, small_env):
        registry = ModelRegistry(
            factory=lambda t, e, c: (_ for _ in ()).throw(RuntimeError("down"))
        )
        with ForecastEngine(small_trace, small_env, registry=registry) as engine:
            batch = engine.query_batch([
                ForecastRequest(asn=a.target_asn, family=a.family)
                for a in small_trace.attacks[:6]
            ])
            assert all(f.degraded for f in batch)
            snap = engine.metrics_snapshot()
            assert snap["counters"]["serving.fallbacks"] >= 1


def _reference_fallback(trace, request):
    """The list-scanning §VII-A answer: linear filters, then the oracle."""
    horizon = request.now if request.now is not None else float("inf")
    for pool in ([a for a in trace.attacks if a.target_asn == request.asn],
                 [a for a in trace.attacks if a.family == request.family],
                 trace.attacks):
        history = [a for a in pool if a.start_time < horizon]
        if history:
            return naive_attack_forecast(history)
    return None


def _exact(prediction):
    """Every AttackPrediction field, floats by their exact bits."""
    return {f.name: (getattr(prediction, f.name).hex()
                     if isinstance(getattr(prediction, f.name), float)
                     else getattr(prediction, f.name).tolist())
            for f in dataclasses.fields(prediction)}


class CountingList(list):
    """A list that counts full passes (``__iter__`` calls) over it."""

    passes = 0

    def __iter__(self):
        self.passes += 1
        return super().__iter__()


@pytest.fixture()
def tied_trace(small_trace):
    """The small trace plus same-instant twins of some attacks."""
    twins = [dataclasses.replace(a, ddos_id=10**7 + i, duration=a.duration + 60.0,
                                 target_asn=(a.target_asn if i % 2 else 10**6))
             for i, a in enumerate(small_trace.attacks[::97])]
    return AttackTrace(attacks=small_trace.attacks + twins, snapshots=[],
                       metadata=small_trace.metadata)


@pytest.fixture()
def counted_trace(small_trace):
    """A copy of the small trace whose attacks list counts passes."""
    trace = copy.copy(small_trace)
    trace.attacks = CountingList(small_trace.attacks)
    return trace


def _pool_requests(trace):
    """One request per fallback pool: same AS, family, everything."""
    first = trace.attacks[0]
    return [ForecastRequest(asn=first.target_asn, family=first.family),
            ForecastRequest(asn=10**9, family=first.family),
            ForecastRequest(asn=10**9, family="NoSuchFamily")]


def _sweep(trace, pools, n):
    """``n`` seeded degraded requests over the given pool requests."""
    rng = random.Random(7)
    end = trace.attacks[-1].start_time
    return [ForecastRequest(asn=r.asn, family=r.family,
                            now=rng.choice((None, rng.uniform(0.0, end))))
            for r in rng.choices(pools, k=n)]


class TestIndexedFallback:
    """The bisected, columnar fallback against the list-scanning oracle."""

    def test_bit_identical_to_list_reference(self, tied_trace, test_seed):
        rng = random.Random(test_seed)
        attacks = tied_trace.attacks
        starts = [a.start_time for a in attacks]
        tied = sorted({s for s in starts if starts.count(s) > 1})
        assert tied, "the fixture must hold tied launch times"
        asns = sorted({a.target_asn for a in attacks}) + [10**9, -1]
        families = tied_trace.families() + ["NoSuchFamily"]
        nows = [None, -5.0, 0.0, starts[0], starts[0] / 2, starts[-1],
                starts[-1] + 1.0, *tied]
        nows += rng.sample(starts, 40) + [rng.uniform(0.0, starts[-1])
                                          for _ in range(40)]

        metrics = ServingMetrics()
        fallback = BaselineFallback(tied_trace, metrics)
        answered = unanswerable = 0
        for i in range(600):
            request = ForecastRequest(asn=rng.choice(asns),
                                      family=rng.choice(families),
                                      now=rng.choice(nows))
            error = rng.choice((None, f"cause {i}"))
            forecast = fallback.forecast(request, error=error)
            expected = _reference_fallback(tied_trace, request)
            assert forecast.degraded and forecast.request == request
            if expected is None:
                unanswerable += 1
                assert forecast.source == "none" and forecast.prediction is None
                assert forecast.error == (error or "no observable history")
            else:
                answered += 1
                assert forecast.source == "baseline"
                assert forecast.error == error
                assert _exact(forecast.prediction) == _exact(expected), request
        assert answered and unanswerable
        assert metrics.counter("serving.fallbacks") == answered
        assert metrics.counter("serving.unanswerable") == unanswerable

    def test_follows_reassigned_attacks(self, small_trace):
        trace = copy.copy(small_trace)
        fallback = BaselineFallback(trace, ServingMetrics())
        requests = _pool_requests(trace)
        for request in requests:
            assert fallback.forecast(request).ok
        trace.attacks = small_trace.attacks[: len(small_trace.attacks) // 2]
        for request in requests:
            assert (_exact(fallback.forecast(request).prediction)
                    == _exact(_reference_fallback(trace, request)))
        trace.attacks = []
        assert fallback.forecast(requests[0]).source == "none"

    def test_concurrent_first_answers_agree(self, small_trace):
        """Threads racing to build the index and the column cache."""
        import sys

        trace = copy.copy(small_trace)
        trace.attacks = list(small_trace.attacks)  # nothing built yet
        metrics = ServingMetrics()
        fallback = BaselineFallback(trace, metrics)
        requests = _sweep(trace, _pool_requests(trace), 64)
        expected = [_reference_fallback(trace, r) for r in requests]
        expected = [p and _exact(p) for p in expected]
        n_threads = 8
        barrier = threading.Barrier(n_threads)

        def answer(_):
            barrier.wait(timeout=10.0)
            return [f.prediction and _exact(f.prediction)
                    for f in map(fallback.forecast, requests)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=n_threads) as pool:
                results = list(pool.map(answer, range(n_threads), timeout=60.0))
        finally:
            sys.setswitchinterval(interval)
        assert results == [expected] * n_threads
        assert (metrics.counter("serving.fallbacks")
                + metrics.counter("serving.unanswerable")) == n_threads * len(requests)

    def test_unknown_keys_are_not_cached(self, small_trace):
        fallback = BaselineFallback(small_trace, ServingMetrics())
        for asn in range(10**9, 10**9 + 50):
            fallback.forecast(ForecastRequest(asn=asn, family="NoSuchFamily"))
        assert set(fallback._columns[2]) == {("all",)}


class TestFallbackNeverScans:
    """After a pool's first answer, degraded answers make no full pass
    over ``trace.attacks`` -- on every path that serves one."""

    N = 200

    def _assert_no_passes(self, trace, answer):
        pools = _pool_requests(trace)
        for request in pools:
            answer([request])
        trace.attacks.passes = 0
        forecasts = answer(_sweep(trace, pools, self.N))
        assert len(forecasts) == self.N
        assert all(f.degraded for f in forecasts)
        assert trace.attacks.passes == 0

    def test_engine_fallback(self, counted_trace, small_env):
        with ForecastEngine(counted_trace, small_env) as engine:
            self._assert_no_passes(
                counted_trace,
                lambda requests: [engine.fallback(r) for r in requests])

    def test_sharded_parent_fallback(self, counted_trace, small_env):
        from repro.serving import ShardedForecastEngine

        # Never started: the parent answers alone, as it does for a dead shard.
        engine = ShardedForecastEngine(counted_trace, small_env, n_shards=1)
        try:
            self._assert_no_passes(
                counted_trace,
                lambda requests: [engine.fallback(r) for r in requests])
        finally:
            engine.close()

    @pytest.mark.parametrize("op", ["forecast", "forecast_batch"])
    def test_dispatcher_shed(self, op, counted_trace, small_env):
        import asyncio

        from repro.server import Dispatcher

        def shed(requests):
            wire = [{"asn": r.asn, "family": r.family, "now": r.now}
                    for r in requests]

            async def run():
                if op == "forecast_batch":
                    status, body, _ = await dispatcher.handle(
                        op, {"requests": wire})
                    assert status == 429
                    return body["forecasts"]
                bodies = []
                for payload in wire:
                    status, body, _ = await dispatcher.handle(op, payload)
                    assert status == 429
                    bodies.append(body)
                return bodies
            return [Forecast.from_dict(body) for body in asyncio.run(run())]

        with ForecastEngine(counted_trace, small_env) as engine:
            dispatcher = Dispatcher(engine, max_inflight=1)
            dispatcher._inflight = 1  # saturated: every forecast is shed
            self._assert_no_passes(counted_trace, shed)


class TestThreadSafety:
    def test_hammer_from_many_threads(self, engine, served_requests):
        queries_before = engine.metrics.counter("serving.queries")
        n_threads, per_thread = 8, 12
        errors = []
        barrier = threading.Barrier(n_threads)

        def hammer(seed):
            barrier.wait()
            try:
                out = []
                for i in range(per_thread):
                    request = served_requests[(seed + i) % len(served_requests)]
                    out.append(engine.query(request))
                return out
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)
                return []

        with ThreadPoolExecutor(max_workers=n_threads) as pool:
            results = list(pool.map(hammer, range(n_threads)))
        assert not errors
        flat = [f for chunk in results for f in chunk]
        assert len(flat) == n_threads * per_thread
        assert all(f.source == "model" and f.ok for f in flat)
        # Identical requests answered identically regardless of thread.
        by_key = {}
        for f in flat:
            key = f.request.work_key
            hour = f.prediction.hour
            assert by_key.setdefault(key, hour) == hour
        assert (engine.metrics.counter("serving.queries") - queries_before
                == n_threads * per_thread)


class TestLifecycle:
    """close() is idempotent and drains in-flight work before rejecting."""

    @staticmethod
    def _slow_predictor(predictor, delay_s):
        class Slow:
            def predict_next_for_network(self, asn, family, now=None):
                time.sleep(delay_s)
                return predictor.predict_next_for_network(asn, family, now=now)
        return Slow()

    def test_close_is_idempotent_and_concurrent(self, small_trace, small_env,
                                                predictor):
        engine = ForecastEngine(
            small_trace, small_env,
            registry=ModelRegistry(factory=lambda t, e, c: predictor),
        )
        with ThreadPoolExecutor(max_workers=4) as pool:
            list(pool.map(lambda _: engine.close(), range(8)))
        engine.close()  # and again, after everything settled
        assert engine.closed

    def test_close_drains_inflight_then_rejects(self, small_trace, small_env,
                                                predictor, served_requests):
        """The shutdown race the server depends on: no dropped answers."""
        slow = self._slow_predictor(predictor, 0.15)
        engine = ForecastEngine(
            small_trace, small_env, max_workers=2,
            registry=ModelRegistry(factory=lambda t, e, c: slow),
        )
        futures = [engine.submit(r) for r in served_requests[:4]]
        closer = threading.Thread(target=engine.close)
        closer.start()
        # In-flight (and queued) work completes with real model answers.
        for future in futures:
            forecast = future.result(timeout=10.0)
            assert forecast.source == "model"
            assert not forecast.degraded
        closer.join(timeout=10.0)
        assert not closer.is_alive()
        assert engine.closed
        # ... and only then are new queries rejected.
        with pytest.raises(EngineClosedError):
            engine.query(served_requests[0])
        with pytest.raises(EngineClosedError):
            engine.submit(served_requests[0])
        with pytest.raises(EngineClosedError):
            engine.query_batch(served_requests[:2])

    def test_per_call_timeout_override(self, small_trace, small_env, predictor,
                                       served_requests):
        """timeout_s= on one call beats the engine default (None here)."""
        slow = self._slow_predictor(predictor, 0.3)
        with ForecastEngine(
            small_trace, small_env,
            registry=ModelRegistry(factory=lambda t, e, c: slow),
        ) as engine:
            forecast = engine.query(served_requests[0], timeout_s=0.05)
            assert forecast.degraded
            assert forecast.source == "baseline"
            assert "timeout" in forecast.error
            # The same request without the override waits it out.
            forecast = engine.query(served_requests[0])
            assert forecast.source == "model"

    def test_timeout_forecast_hook(self, engine, served_requests):
        """The async front end's deadline path lands on the same counters."""
        before = engine.metrics.counter("serving.timeouts")
        forecast = engine.timeout_forecast(served_requests[0], 0.25)
        assert forecast.degraded
        assert forecast.source == "baseline"
        assert "timeout after 0.25s" in forecast.error
        assert engine.metrics.counter("serving.timeouts") == before + 1


class TestPayloads:
    def test_to_dict_is_json_serializable(self, engine, served_requests):
        forecast = engine.query(served_requests[0])
        payload = json.loads(json.dumps(forecast.to_dict()))
        assert payload["asn"] == served_requests[0].asn
        assert payload["source"] == "model"
        assert set(payload["forecast"]) >= {
            "hour", "day", "duration_s", "magnitude_bots"
        }

    def test_metrics_snapshot_shape(self, engine):
        snap = engine.metrics_snapshot()
        assert {"uptime_s", "counters", "latency", "caches"} <= set(snap)
        assert "predictions" in snap["caches"]
        assert "registry" in snap["caches"]
        json.dumps(snap)  # must be JSON-safe end to end

"""Multi-process sharded serving: equivalence, faults, lifecycle.

Cross-process bugs are silent -- a worker that deserializes state
slightly differently, or a parent that reorders a batch, still returns
*plausible* forecasts.  The equivalence suite is therefore the heart
of this file: the sharded engine must return **identical** forecasts
to the single-process engine for identical requests, at every shard
count, because both sides boot from the same
:class:`~repro.persistence.store.ModelStore` snapshot and speak the
same ``FORECAST_SCHEMA_VERSION`` wire dicts.

The fault-injection half proves the operational contract: SIGKILL a
worker mid-hammer and every answer is still a forecast (degraded
§VII-A baseline while the shard is down), the shard restarts on its
own, and model answers resume -- without restarting the server.
"""

import asyncio
import functools
import gc
import itertools
import os
import random
import signal
import threading
import time

import pytest

from repro.core.spatiotemporal import AttackPrediction
from repro.serving import (
    EngineClosedError,
    Forecast,
    ForecastEngine,
    ForecastRequest,
    ModelRegistry,
    ShardedForecastEngine,
    shard_index,
)

# ----- stable hash partitioning -----------------------------------------


class TestShardIndex:
    def test_stable_across_runs(self):
        # Frozen expectations: routing must never drift between
        # processes or releases (builtin hash() is salted; this isn't).
        assert shard_index(64512, "Mirai", 4) == shard_index(64512, "Mirai", 4)
        assert [shard_index(65001, "DirtJumper", n) for n in (1, 2, 4, 8)] == [
            shard_index(65001, "DirtJumper", n) for n in (1, 2, 4, 8)
        ]

    def test_single_shard_owns_everything(self):
        assert all(shard_index(asn, fam, 1) == 0
                   for asn in (1, 7, 64512) for fam in ("a", "b"))

    def test_within_range_and_spread(self):
        owners = {shard_index(asn, fam, 4)
                  for asn in range(64500, 64600)
                  for fam in ("Mirai", "DirtJumper", "Nitol")}
        assert owners <= {0, 1, 2, 3}
        assert len(owners) == 4  # 300 keys land on every shard

    def test_family_distinguishes(self):
        spread = {shard_index(64512, f"fam{i}", 16) for i in range(64)}
        assert len(spread) > 8

    def test_rejects_zero_shards(self):
        with pytest.raises(ValueError):
            shard_index(1, "Mirai", 0)


# ----- equivalence: sharded == in-process --------------------------------


@pytest.fixture(scope="session")
def model_store(tmp_path_factory, small_trace, small_env, predictor):
    """A ModelStore snapshot of the session's fitted predictor.

    Both the in-process reference engine and every sharded worker boot
    from this store, so any forecast divergence is a sharding bug, not
    a fitting difference.
    """
    path = tmp_path_factory.mktemp("sharding") / "store"
    registry = ModelRegistry(factory=lambda t, e, c: predictor)
    registry.get(small_trace, small_env)
    registry.save(path)
    return path


@pytest.fixture(scope="session")
def equivalence_requests(small_trace):
    """A wide deterministic request set: many targets x families x nows."""
    asns = sorted({a.target_asn for a in small_trace.attacks})[:12]
    families = small_trace.families()[:5]
    end = max(a.start_time for a in small_trace.attacks)
    nows = (None, round(end * 0.5, 3), round(end * 0.9, 3))
    return [ForecastRequest(asn=asn, family=family, now=now)
            for asn in asns for family in families for now in nows]


@pytest.fixture(scope="session")
def reference_forecasts(model_store, small_trace, small_env,
                        equivalence_requests):
    """The single-process engine's answers off the shared store."""
    registry = ModelRegistry()
    assert registry.load(model_store, small_trace, small_env)
    with ForecastEngine(small_trace, small_env, registry=registry) as engine:
        return engine.query_batch(equivalence_requests)


def _canonical(forecast):
    """A forecast's comparable identity: everything but timing noise."""
    payload = forecast.to_dict()
    payload.pop("latency_s")
    payload.pop("cached")  # an engine-local detail, not an answer
    return payload


class TestEquivalence:
    @pytest.mark.parametrize("n_shards", [1, 2, 4])
    def test_sharded_matches_in_process(self, n_shards, model_store,
                                        small_trace, small_env,
                                        equivalence_requests,
                                        reference_forecasts):
        with ShardedForecastEngine(small_trace, small_env,
                                   n_shards=n_shards,
                                   store_path=model_store) as engine:
            assert engine.model_version() == 1  # warm boot, no refit
            forecasts = engine.query_batch(equivalence_requests)
        assert len(forecasts) == len(reference_forecasts)
        for reference, sharded in zip(reference_forecasts, forecasts):
            assert _canonical(sharded) == _canonical(reference)
            assert sharded.degraded == reference.degraded

    def test_random_shard_count(self, test_seed, model_store, small_trace,
                                small_env, equivalence_requests,
                                reference_forecasts):
        """The shard count is a free parameter; a random one must agree."""
        n_shards = random.Random(test_seed).randint(2, 6)
        with ShardedForecastEngine(small_trace, small_env,
                                   n_shards=n_shards,
                                   store_path=model_store) as engine:
            forecasts = [engine.query(request)
                         for request in equivalence_requests[::7]]
        for reference, sharded in zip(reference_forecasts[::7], forecasts):
            assert _canonical(sharded) == _canonical(reference), n_shards

    def test_dispatcher_health_reads_shard_version(self, model_store,
                                                   small_trace, small_env):
        from repro.server import Dispatcher

        with ShardedForecastEngine(small_trace, small_env, n_shards=2,
                                   store_path=model_store) as engine:
            status, body, _ = Dispatcher(engine).health()
        assert status == 200
        assert body["model_version"] == 1


@pytest.mark.net
class TestSharedOverHTTP:
    def test_http_round_trip_over_sharded_engine(self, model_store,
                                                 small_trace, small_env,
                                                 equivalence_requests,
                                                 reference_forecasts):
        """The network front end is engine-flavor agnostic."""
        import asyncio

        from repro.server import AsyncForecastClient, Dispatcher, ForecastServer

        probe = equivalence_requests[0]
        reference = reference_forecasts[0]

        async def run(engine):
            dispatcher = Dispatcher(engine)
            async with ForecastServer(dispatcher, port=0,
                                      close_engine=False) as server:
                host, port = server.http_address
                async with AsyncForecastClient(host, port) as client:
                    forecast = await client.forecast(probe.asn, probe.family,
                                                     now=probe.now)
                await server.shutdown("test done")
            return forecast

        with ShardedForecastEngine(small_trace, small_env, n_shards=2,
                                   store_path=model_store) as engine:
            forecast = asyncio.run(run(engine))
        assert _canonical(forecast) == _canonical(reference)


# ----- fault injection ---------------------------------------------------


class FixedPredictor:
    """Instant fixed-answer predictor (keeps fault tests fast)."""

    def __init__(self, delay_s: float = 0.0):
        self.delay_s = delay_s

    def predict_next_for_network(self, asn, family, now=None):
        if self.delay_s:
            time.sleep(self.delay_s)
        return AttackPrediction(
            hour=3.5, day=12.0, duration=600.0, magnitude=42.0,
            temporal_hour=3.0, spatial_hour=4.0,
            temporal_day=11.0, spatial_day=13.0,
        )


def fixed_factory(trace, env, config):
    """Module-level so it stays picklable under any mp start method."""
    return FixedPredictor()


def slow_factory(trace, env, config):
    return FixedPredictor(delay_s=0.05)


def _owned_request(trace, n_shards, shard_id):
    """A request routed to ``shard_id`` under ``n_shards`` partitions."""
    for asn in sorted({a.target_asn for a in trace.attacks}):
        for family in trace.families():
            if shard_index(asn, family, n_shards) == shard_id:
                return ForecastRequest(asn=asn, family=family)
    raise AssertionError("no request maps to the shard")


class KeyedPredictor:
    """Per-ASN answers (so misrouted replies show); optional poison.

    The poisoned ASN gets an answer whose hour cannot be encoded, so
    the worker must degrade that one item, not its whole frame.
    """

    def __init__(self, delay_s: float = 0.0, poison_asn: int | None = None):
        self.delay_s = delay_s
        self.poison_asn = poison_asn

    def predict_next_for_network(self, asn, family, now=None):
        if self.delay_s:
            time.sleep(self.delay_s)
        return AttackPrediction(
            hour="poison" if asn == self.poison_asn else float(asn % 24),
            day=12.0, duration=600.0, magnitude=float(asn % 100),
            temporal_hour=3.0, spatial_hour=4.0,
            temporal_day=11.0, spatial_day=13.0,
        )


def keyed_factory(trace, env, config):
    return KeyedPredictor()


def keyed_slow_factory(trace, env, config):
    return KeyedPredictor(delay_s=0.4)


def _owned_requests(trace, n_shards, shard_id, n):
    """``n`` distinct-ASN requests routed to ``shard_id``."""
    requests = []
    for asn in sorted({a.target_asn for a in trace.attacks}):
        family = next((f for f in trace.families()
                       if shard_index(asn, f, n_shards) == shard_id), None)
        if family is not None:
            requests.append(ForecastRequest(asn=asn, family=family))
    assert len(requests) >= n, "too few requests map to the shard"
    return requests[:n]


def _wire_hex(forecast):
    """The wire-precision forecast numbers, bit for bit."""
    return {key: float.hex(float(value))
            for key, value in forecast.to_dict()["forecast"].items()}


class TestWireProtocol:
    """One ``query`` frame, one reply shape, per-item degradation."""

    def test_concurrent_singles_bit_identical(self, small_trace, small_env):
        """8 threads of hammered singles == the in-process answers."""
        requests = _owned_requests(small_trace, 2, 0, 3) + \
            _owned_requests(small_trace, 2, 1, 3)
        with ForecastEngine(small_trace, small_env,
                            registry=ModelRegistry(factory=keyed_factory)
                            ) as reference:
            expected = {r.work_key: _canonical(reference.query(r))
                        for r in requests}
        with ShardedForecastEngine(small_trace, small_env, n_shards=2,
                                   warm=False, factory=keyed_factory) as engine:
            collected = []
            lock = threading.Lock()

            def hammer():
                futures = [engine.submit(r) for _ in range(5)
                           for r in requests]
                with lock:
                    collected.extend(zip(requests * 5, futures))

            threads = [threading.Thread(target=hammer) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert len(collected) == 8 * 5 * len(requests)
            for request, future in collected:
                forecast = future.result(timeout=30)
                assert _canonical(forecast) == expected[request.work_key]

    def test_traced_single_keeps_shard_span(self, small_trace, small_env):
        with ShardedForecastEngine(small_trace, small_env, n_shards=2,
                                   warm=False, factory=keyed_factory) as engine:
            forecast = engine.query(_owned_request(small_trace, 2, 0),
                                    trace_id="wire-trace")
        assert forecast.trace_id == "wire-trace"
        assert "shard.query" in [s["name"] for s in forecast.spans]

    def test_scrape_latency_is_max_of_shards(self, small_trace, small_env):
        """metrics_snapshot issues all worker scrapes before collecting.

        Each worker is busy with a deliberately slow (0.4s) forecast
        when the scrape lands, so a sequential issue-wait-issue scrape
        would take ~n_shards * 0.4s; issue-all-then-collect takes
        ~max-of-shards.  Guards the fan-out against regressing to a
        sequential loop.
        """
        n_shards = 4
        with ShardedForecastEngine(small_trace, small_env, n_shards=n_shards,
                                   warm=False, factory=keyed_slow_factory,
                                   timeout_s=5.0) as engine:
            futures = [engine.submit(_owned_request(small_trace, n_shards, i))
                       for i in range(n_shards)]  # one slow query per shard
            t0 = time.perf_counter()
            snapshot = engine.metrics_snapshot(include_workers=True,
                                               worker_timeout_s=5.0)
            elapsed = time.perf_counter() - t0
            for future in futures:
                future.result(timeout=30)
        workers = [s.get("worker") for s in snapshot["shards"].values()]
        assert all(w is not None for w in workers)
        # Sequential would be >= n_shards * 0.4s = 1.6s.
        assert elapsed < 1.2

    def test_poisoned_item_degrades_alone(self, small_trace, small_env):
        """One frame, one unencodable answer: only that item degrades."""
        requests = _owned_requests(small_trace, 2, 0, 4)
        poison = requests[1].asn
        factory = functools.partial(_poison_factory, poison)
        with ShardedForecastEngine(small_trace, small_env, n_shards=2,
                                   warm=False, factory=factory) as engine:
            forecasts = engine.query_batch(requests)  # one frame to shard 0
            counters = engine.metrics.snapshot()["counters"]
        for request, forecast in zip(requests, forecasts):
            if request.asn == poison:
                assert forecast.degraded and forecast.source == "baseline"
                assert "ValueError" in forecast.error
            else:
                assert forecast.source == "model" and not forecast.degraded
                assert forecast.prediction.hour == float(request.asn % 24)
        assert counters["shard.worker_errors"] == 1

    def test_wrong_schema_version_degrades(self, small_trace, small_env,
                                           monkeypatch):
        import repro.serving.sharded as sharded_module

        request = _owned_request(small_trace, 2, 0)
        with ShardedForecastEngine(small_trace, small_env, n_shards=2,
                                   warm=False, factory=keyed_factory) as engine:
            # The workers are already forked with the real version; only
            # the parent now expects another one.
            monkeypatch.setattr(sharded_module, "FORECAST_SCHEMA_VERSION",
                                sharded_module.FORECAST_SCHEMA_VERSION + 1)
            forecast = engine.query(request)
            counters = engine.metrics.snapshot()["counters"]
        assert forecast.degraded and forecast.source == "baseline"
        assert "schema" in forecast.error
        assert counters["shard.wire_errors"] == 1

    def test_cross_shard_batch_with_duplicates_matches_in_process(
            self, model_store, small_trace, small_env, equivalence_requests,
            reference_forecasts):
        distinct = equivalence_requests[:24]
        requests = distinct + distinct[::3] + distinct[:2]
        expected = {r.work_key: f for r, f in
                    zip(equivalence_requests, reference_forecasts)}
        with ShardedForecastEngine(small_trace, small_env, n_shards=2,
                                   store_path=model_store) as engine:
            assert {engine.shard_for(r) for r in distinct} == {0, 1}
            forecasts = engine.query_batch(requests)
        first = {}
        for request, forecast in zip(requests, forecasts):
            oracle = expected[request.work_key]
            assert (forecast.source, forecast.degraded) == (
                oracle.source, oracle.degraded)
            if oracle.prediction is not None:
                assert _wire_hex(forecast) == _wire_hex(oracle)
            # Duplicates share one answer object, as in-process.
            assert first.setdefault(request.work_key, forecast) is forecast

    def test_sigkill_with_multi_item_frame_pending(self, small_trace,
                                                   small_env):
        """Every item of a frame in flight at the crash gets the baseline."""
        horizon = max(a.start_time for a in small_trace.attacks) + 1.0
        owned = _owned_request(small_trace, 2, 0)
        requests = [ForecastRequest(owned.asn, owned.family, now=horizon + i)
                    for i in range(4)]
        with ShardedForecastEngine(small_trace, small_env, n_shards=2,
                                   warm=False, factory=keyed_slow_factory,
                                   max_workers_per_shard=1,
                                   restart_backoff_s=0.1) as engine:
            result = []
            batch = threading.Thread(
                target=lambda: result.extend(engine.query_batch(requests)))
            batch.start()
            deadline = time.monotonic() + 10.0
            while (engine.metrics_snapshot(include_workers=False)
                   ["shards"]["0"]["inflight"] < len(requests)):
                assert time.monotonic() < deadline, "frame never in flight"
                time.sleep(0.005)
            os.kill(engine.shard_pids()[0], signal.SIGKILL)
            batch.join(timeout=30.0)
            assert not batch.is_alive()
            counters = engine.metrics.snapshot()["counters"]
        assert len(result) == len(requests)
        for forecast in result:
            assert forecast.degraded and forecast.source == "baseline"
            assert "worker died" in forecast.error
        assert counters["shard.failed_inflight"] == len(requests)


def _poison_factory(poison_asn, trace, env, config):
    return KeyedPredictor(poison_asn=poison_asn)


@pytest.mark.slow
class TestWorkerCrash:
    def test_sigkill_degrades_then_recovers(self, small_trace, small_env):
        """SIGKILL mid-hammer: only baseline answers, then full recovery."""
        request = _owned_request(small_trace, 2, 0)
        with ShardedForecastEngine(small_trace, small_env, n_shards=2,
                                   factory=fixed_factory,
                                   restart_backoff_s=0.1,
                                   max_restart_backoff_s=0.5) as engine:
            assert engine.query(request).source == "model"
            victim = engine.shard_pids()[0]
            assert victim is not None
            os.kill(victim, signal.SIGKILL)

            saw_degraded = recovered = False
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline and not recovered:
                forecast = engine.query(request)  # must never raise
                assert forecast.ok, forecast.error
                if forecast.degraded:
                    assert forecast.source == "baseline"
                    saw_degraded = True
                elif saw_degraded:
                    recovered = True
                time.sleep(0.01)
            assert saw_degraded, "kill never produced a degraded answer"
            assert recovered, "shard did not recover within 30s"

            snapshot = engine.metrics_snapshot(include_workers=False)
            assert snapshot["shards"]["0"]["restarts"] >= 1
            assert snapshot["shards"]["0"]["alive"]
            assert engine.shard_pids()[0] != victim

    def test_inflight_requests_resolve_on_crash(self, small_trace, small_env):
        """Futures pending at crash time get baseline answers, not hangs."""
        request = _owned_request(small_trace, 2, 0)
        with ShardedForecastEngine(small_trace, small_env, n_shards=2,
                                   factory=slow_factory,
                                   restart_backoff_s=0.1) as engine:
            engine.query(request)  # ensure the worker is warm + answering
            # Distinct work keys (no coalescing), horizons past the end
            # of the trace so the §VII-A baseline can always answer.
            horizon = max(a.start_time for a in small_trace.attacks) + 1.0
            futures = [engine.submit(ForecastRequest(request.asn,
                                                     request.family,
                                                     now=horizon + i))
                       for i in range(1, 9)]
            os.kill(engine.shard_pids()[0], signal.SIGKILL)
            # Generous timeout: on a loaded 1-CPU CI box, death detection
            # competes with every other process for cycles.
            for future in futures:
                forecast = future.result(timeout=30.0)
                assert forecast.ok
            counters = engine.metrics_snapshot(
                include_workers=False)["counters"]
            assert (counters.get("shard.failed_inflight", 0)
                    + counters.get("serving.model_answers", 0)) >= 1

    def test_boot_failure_serves_baseline(self, small_trace, small_env,
                                          tmp_path):
        """A shard that cannot boot degrades its slice, never errors."""
        bad_store = tmp_path / "not-a-store"
        bad_store.mkdir()
        (bad_store / "manifest.json").write_text("{ not json")
        with ShardedForecastEngine(small_trace, small_env, n_shards=2,
                                   store_path=bad_store,
                                   restart_backoff_s=0.1,
                                   max_restart_backoff_s=0.2,
                                   boot_timeout_s=20.0) as engine:
            request = _owned_request(small_trace, 2, 0)
            forecast = engine.query(request)
            assert forecast.ok
            assert forecast.degraded
            assert forecast.source == "baseline"


@pytest.mark.slow
class TestDrainClose:
    def test_close_under_16_concurrent_clients(self, small_trace, small_env):
        """Drain-then-reject under load: real answers or a typed error."""
        with ShardedForecastEngine(small_trace, small_env, n_shards=2,
                                   factory=slow_factory) as engine:
            requests = [_owned_request(small_trace, 2, i % 2)
                        for i in range(2)]
            # Horizons past the trace end: distinct work keys per query
            # that the §VII-A baseline can still answer if one degrades.
            horizon = max(a.start_time for a in small_trace.attacks) + 1.0
            rejected, anomalies = [], []
            stop = threading.Event()

            def client(worker_id: int) -> None:
                i = 0
                while not stop.is_set():
                    request = ForecastRequest(
                        requests[worker_id % 2].asn,
                        requests[worker_id % 2].family,
                        now=horizon + worker_id * 1000 + i)
                    i += 1
                    try:
                        forecast = engine.query(request)
                    except EngineClosedError:
                        rejected.append(worker_id)
                        return
                    except Exception as exc:  # anything else is a bug
                        anomalies.append(exc)
                        return
                    if not forecast.ok:
                        anomalies.append(forecast.error)

            threads = [threading.Thread(target=client, args=(i,))
                       for i in range(16)]
            for thread in threads:
                thread.start()
            time.sleep(0.5)  # let all 16 clients get in flight
            engine.close()
            stop.set()
            for thread in threads:
                thread.join(timeout=15.0)
            assert not any(thread.is_alive() for thread in threads), \
                "client threads hung across close()"
            assert not anomalies, anomalies

        # Idempotent close, and post-close submission is a typed error.
        engine.close()
        with pytest.raises(EngineClosedError):
            engine.query(requests[0])

    def test_close_without_start_is_clean(self, small_trace, small_env):
        engine = ShardedForecastEngine(small_trace, small_env, n_shards=2,
                                       factory=fixed_factory)
        engine.close()
        with pytest.raises(EngineClosedError):
            engine.query(asn=1, family="Mirai")


# ----- the event loop reads replies --------------------------------------


def delayed_keyed_factory(trace, env, config):
    return KeyedPredictor(delay_s=0.5)


def _horizon(trace):
    """Past the trace's last attack: a fresh work key the baseline answers."""
    return max(a.start_time for a in trace.attacks) + 1.0


@pytest.fixture()
def keyed_reference(small_trace, small_env):
    """In-process oracle on the keyed stub model, by canonical forecast."""
    engine = ForecastEngine(small_trace, small_env,
                            registry=ModelRegistry(factory=keyed_factory))
    yield engine
    engine.close()


def _assert_no_loop_errors(caplog):
    gc.collect()  # a future's unretrieved exception is logged on collection
    assert "Exception in callback" not in caplog.text
    assert "exception was never retrieved" not in caplog.text


def _matches_oracle(forecast, request, oracle):
    """A model answer equals the oracle's; a degraded one is its baseline."""
    if forecast.degraded:
        assert forecast.source == "baseline", forecast.error
        assert _wire_hex(forecast) == _wire_hex(oracle.fallback(request))
    else:
        assert forecast.source == "model"
        assert _canonical(forecast) == _canonical(oracle.query(request))


@pytest.mark.net
class TestLoopReader:
    """``submit`` on a running loop: the loop itself reads the pipe."""

    def test_submit_returns_loop_future_and_no_reader_threads(
            self, small_trace, small_env, keyed_reference):
        requests = _owned_requests(small_trace, 2, 0, 2) + \
            _owned_requests(small_trace, 2, 1, 2)
        before = set(threading.enumerate())
        with ShardedForecastEngine(small_trace, small_env, n_shards=2,
                                   warm=False, factory=keyed_factory) as engine:
            async def ask_all():
                loop = asyncio.get_running_loop()
                futures = [engine.submit(r) for r in requests]
                for future in futures:
                    assert isinstance(future, asyncio.Future)
                    assert future.get_loop() is loop
                return await asyncio.gather(*futures)

            forecasts = asyncio.run(ask_all())
            started = set(threading.enumerate()) - before
        assert sorted(t.name for t in started) == ["shard-0", "shard-1"]
        for request, forecast in zip(requests, forecasts):
            assert _canonical(forecast) == _canonical(
                keyed_reference.query(request))

    def test_sigkill_in_flight_over_http(self, small_trace, small_env,
                                         keyed_reference, caplog):
        """In-flight and while-down answers degrade; the shard comes back."""
        from repro.server import AsyncForecastClient, Dispatcher, ForecastServer

        owned = _owned_request(small_trace, 2, 0)
        horizon = _horizon(small_trace)
        counter = itertools.count()

        def fresh():
            return ForecastRequest(owned.asn, owned.family,
                                   now=horizon + next(counter))

        async def ask(host, port, request):
            async with AsyncForecastClient(host, port) as client:
                return request, await client.forecast(
                    request.asn, request.family, now=request.now)

        async def run(engine):
            async with ForecastServer(Dispatcher(engine), port=0,
                                      close_engine=False) as server:
                host, port = server.http_address
                _, first = await ask(host, port, fresh())
                assert first.source == "model"
                victim = engine.shard_pids()[0]
                in_flight = [asyncio.create_task(ask(host, port, fresh()))
                             for _ in range(4)]
                deadline = time.monotonic() + 10.0
                while (engine.metrics_snapshot(include_workers=False)
                       ["shards"]["0"]["inflight"] < 4):
                    assert time.monotonic() < deadline, "never in flight"
                    await asyncio.sleep(0.005)
                os.kill(victim, signal.SIGKILL)
                crashed = await asyncio.gather(*in_flight)
                after = []
                deadline = time.monotonic() + 30.0
                while time.monotonic() < deadline:
                    after.append(await ask(host, port, fresh()))
                    if not after[-1][1].degraded:
                        break
                await server.shutdown("test done")
            return victim, crashed, after

        with ShardedForecastEngine(small_trace, small_env, n_shards=2,
                                   warm=False, factory=delayed_keyed_factory,
                                   max_workers_per_shard=1,
                                   restart_backoff_s=0.1) as engine:
            victim, crashed, after = asyncio.run(run(engine))
            assert engine.shard_pids()[0] not in (None, victim)
            counters = engine.metrics.snapshot()["counters"]
        for request, forecast in crashed:
            assert forecast.degraded and forecast.source == "baseline"
            assert "worker died" in forecast.error
            _matches_oracle(forecast, request, keyed_reference)
        assert counters["shard.failed_inflight"] >= 4
        assert not after[-1][1].degraded, "shard never served models again"
        for request, forecast in after:
            _matches_oracle(forecast, request, keyed_reference)
        _assert_no_loop_errors(caplog)

    def test_metrics_on_the_loop_under_load(self, small_trace, small_env):
        """GET /metrics blocks the loop, so it reads the worker replies."""
        from repro.server import AsyncForecastClient, Dispatcher, ForecastServer

        owned = _owned_requests(small_trace, 2, 0, 2) + \
            _owned_requests(small_trace, 2, 1, 2)
        horizon = _horizon(small_trace)

        async def client_loop(host, port, base, answered, stop):
            async with AsyncForecastClient(host, port) as client:
                i = 0
                while not stop.is_set():
                    request = owned[i % len(owned)]
                    forecast = await client.forecast(
                        request.asn, request.family,
                        now=horizon + base + i)
                    assert forecast.source == "model" and not forecast.cached
                    answered.append(forecast)
                    i += 1

        async def run(engine):
            async with ForecastServer(Dispatcher(engine), port=0,
                                      close_engine=False) as server:
                host, port = server.http_address
                answered, stop = [], asyncio.Event()
                clients = [asyncio.create_task(
                    client_loop(host, port, 10_000 * k, answered, stop))
                    for k in range(4)]
                while len(answered) < 200:
                    await asyncio.sleep(0.01)
                async with AsyncForecastClient(host, port) as client:
                    floor = len(answered)
                    body = await client.metrics()
                stop.set()
                await asyncio.gather(*clients)
                await server.shutdown("test done")
            return floor, body

        with ShardedForecastEngine(small_trace, small_env, n_shards=2,
                                   warm=False, factory=keyed_factory) as engine:
            floor, body = asyncio.run(run(engine))
        assert body["n_shards"] == 2
        workers = [shard["worker"] for shard in body["shards"].values()]
        assert all(shard["alive"] for shard in body["shards"].values())
        # None would mean the scrape missed worker_timeout_s.
        assert all(worker is not None for worker in workers), body["shards"]
        model_answers = sum(worker["counters"].get("serving.model_answers", 0)
                            for worker in workers)
        assert model_answers >= floor


class TestMixedCallers:
    """Loops that come and go, and blocking callers beside a live loop."""

    def test_one_loop_per_request(self, small_trace, small_env,
                                  keyed_reference, caplog):
        from repro.server import Dispatcher

        requests = _owned_requests(small_trace, 2, 0, 3) + \
            _owned_requests(small_trace, 2, 1, 3)
        with ShardedForecastEngine(small_trace, small_env, n_shards=2,
                                   warm=False, factory=keyed_factory) as engine:
            dispatcher = Dispatcher(engine)
            for _ in range(3):
                for request in requests:
                    status, body, _ = asyncio.run(dispatcher.handle(
                        "forecast", {"asn": request.asn,
                                     "family": request.family}))
                    assert status == 200
                    forecast = Forecast.from_dict(body)
                    assert not forecast.degraded
                    assert _wire_hex(forecast) == _wire_hex(
                        keyed_reference.query(request))
            assert engine.query(requests[0]).source == "model"
        _assert_no_loop_errors(caplog)

    def test_reply_after_its_loop_closed(self, small_trace, small_env,
                                         keyed_reference, caplog):
        from repro.server import Dispatcher

        request = _owned_request(small_trace, 2, 0)
        late = ForecastRequest(request.asn, request.family,
                               now=_horizon(small_trace))
        with ShardedForecastEngine(small_trace, small_env, n_shards=2,
                                   warm=False,
                                   factory=delayed_keyed_factory) as engine:
            dispatcher = Dispatcher(engine)
            status, body, _ = asyncio.run(dispatcher.handle(
                "forecast", {"asn": late.asn, "family": late.family,
                             "now": late.now, "timeout_s": 0.001}))
            assert status == 200 and body["degraded"]  # timed out
            time.sleep(0.8)  # its reply lands with no loop left to read it
            # The next loop reads (and drops) the stale reply first.
            status, body, _ = asyncio.run(dispatcher.handle(
                "forecast", {"asn": request.asn, "family": request.family}))
            assert status == 200
            assert _wire_hex(Forecast.from_dict(body)) == _wire_hex(
                keyed_reference.query(request))
            assert _wire_hex(engine.query(late)) == _wire_hex(
                keyed_reference.query(late))
            assert engine.metrics_snapshot(
                include_workers=False)["shards"]["0"]["inflight"] == 0
        _assert_no_loop_errors(caplog)

    def test_full_size_batch_on_the_loop(self, small_trace, small_env,
                                         keyed_reference):
        """A 1,024-request batch submits every item in one loop pass.

        The loop must read replies while it writes: a worker with ~170
        unread replies blocks on its full pipe and stops reading, and
        the loop would then block writing to it.
        """
        from repro.server import Dispatcher
        from repro.server.protocol import MAX_BATCH_REQUESTS

        base = _owned_requests(small_trace, 2, 0, 2) + \
            _owned_requests(small_trace, 2, 1, 2)
        horizon = _horizon(small_trace)
        requests = [ForecastRequest(b.asn, b.family, now=horizon + i)
                    for i in range(MAX_BATCH_REQUESTS // len(base))
                    for b in base]
        payload = {"requests": [{"asn": r.asn, "family": r.family,
                                 "now": r.now} for r in requests]}
        with ShardedForecastEngine(small_trace, small_env, n_shards=2,
                                   warm=False, factory=keyed_factory) as engine:
            result = []
            thread = threading.Thread(target=lambda: result.append(
                asyncio.run(Dispatcher(engine).handle("forecast_batch",
                                                      payload))),
                daemon=True)
            thread.start()
            thread.join(timeout=60)
            if thread.is_alive():
                for pid in engine.shard_pids():  # unblock the loop first
                    if pid is not None:
                        os.kill(pid, signal.SIGKILL)
                thread.join(timeout=30)
                pytest.fail("the loop and a worker blocked on full pipes")
        status, body, _ = result[0]
        assert status == 200
        for request, item in zip(requests, body["forecasts"]):
            forecast = Forecast.from_dict(item)
            assert not forecast.degraded
            assert _wire_hex(forecast) == _wire_hex(
                keyed_reference.query(request))

    def test_blocking_callers_beside_a_live_loop(self, small_trace, small_env,
                                                 keyed_reference, caplog):
        requests = _owned_requests(small_trace, 2, 0, 3) + \
            _owned_requests(small_trace, 2, 1, 3)
        horizon = _horizon(small_trace)
        expected = {}
        with ShardedForecastEngine(small_trace, small_env, n_shards=2,
                                   warm=False, factory=keyed_factory) as engine:
            loop = asyncio.new_event_loop()
            server = threading.Thread(target=loop.run_forever)
            server.start()
            try:
                async def register():
                    return await asyncio.gather(
                        *(engine.submit(r) for r in requests))

                asyncio.run_coroutine_threadsafe(register(), loop).result(30)
                assert all(s.pipe.loop is loop for s in engine._shards)
                answers, errors = [], []

                def caller(k: int) -> None:
                    try:
                        for i in range(25):
                            base = requests[(k + i) % len(requests)]
                            request = ForecastRequest(
                                base.asn, base.family,
                                now=horizon + 100 * k + i)
                            answers.append((request, engine.query(request)))
                    except Exception as exc:  # pragma: no cover - reported
                        errors.append(exc)

                threads = [threading.Thread(target=caller, args=(k,))
                           for k in range(4)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not errors, errors
                assert len(answers) == 100
                assert all(s.pipe.loop is loop for s in engine._shards)
            finally:
                loop.call_soon_threadsafe(loop.stop)
                server.join(timeout=10)
                loop.close()
        for request, forecast in answers:
            key = request.work_key
            expected.setdefault(key, keyed_reference.query(request))
            assert not forecast.degraded
            assert _wire_hex(forecast) == _wire_hex(expected[key])
        _assert_no_loop_errors(caplog)

"""Tests for the replicated-serving tier (`repro.cluster`).

Three layers, increasingly real:

* config parsing and the :class:`ReplicaSet` state machine -- pure
  in-process unit tests;
* failover behavior against *live in-process servers* (real sockets,
  one event loop, same pattern as ``test_server.py``) -- drains,
  exhaustion degradation, 4xx short-circuits;
* the :class:`ReplicaSupervisor` against *real child processes* booted
  from a real model store -- SIGKILL crash/restart and the rolling
  reload invariant.  These carry ``@pytest.mark.slow`` (each boots
  replicas that load a trace and restore models) and run in CI's
  full-matrix job.
"""

import asyncio
import json
import os
import signal
import threading
import time

import pytest

from repro.cluster import (
    ClusterConfig,
    ClusterConfigError,
    FailoverForecastClient,
    NoReplicasAvailableError,
    ReplicaSet,
    ReplicaSupervisor,
    parse_endpoint,
    parse_endpoints,
)
from repro.core.spatiotemporal import AttackPrediction
from repro.dataset import DatasetConfig, TraceGenerator, save_trace
from repro.serving import ForecastEngine, ModelRegistry
from repro.serving.engine import BaselineFallback
from repro.telemetry import Telemetry
from repro.server import Dispatcher, ForecastServer


class TestClusterConfig:
    def test_parse_endpoint_forms(self):
        endpoint = parse_endpoint("10.1.2.3:8377")
        assert (endpoint.host, endpoint.port) == ("10.1.2.3", 8377)
        assert endpoint.address == "10.1.2.3:8377"
        assert parse_endpoints(" a:1 , b:2 ") == (
            parse_endpoint("a:1"), parse_endpoint("b:2"))

    @pytest.mark.parametrize("bad", [
        "nope", ":8080", "host:", "host:abc", "host:0", "host:99999", "",
    ])
    def test_bad_endpoint_specs_raise_typed(self, bad):
        with pytest.raises(ClusterConfigError):
            parse_endpoints(bad)

    def test_duplicate_endpoints_rejected(self):
        with pytest.raises(ClusterConfigError, match="listed twice"):
            parse_endpoints("a:1,b:2,a:1")

    def test_config_validation(self):
        endpoints = parse_endpoints("a:1,b:2")
        config = ClusterConfig(endpoints=endpoints)
        assert config.probe_interval_s > 0
        for kwargs in (
            {"probe_interval_s": 0},
            {"failure_threshold": 0},
            {"recovery_threshold": -1},
            {"cooldown_s": -0.5},
            {"cooldown_s": 4.0, "max_cooldown_s": 1.0},
        ):
            with pytest.raises(ClusterConfigError):
                ClusterConfig(endpoints=endpoints, **kwargs)
        with pytest.raises(ClusterConfigError, match="at least one"):
            ClusterConfig(endpoints=())

    def test_from_dict_roundtrip_and_unknown_keys(self):
        config = ClusterConfig.from_endpoints(
            "a:1,b:2", probe_interval_s=0.5, failure_threshold=3)
        rebuilt = ClusterConfig.from_dict(config.to_dict())
        assert rebuilt == config
        with pytest.raises(ClusterConfigError, match="unknown cluster config"):
            ClusterConfig.from_dict({"endpoints": "a:1", "probe_hz": 2})
        with pytest.raises(ClusterConfigError, match="missing 'endpoints'"):
            ClusterConfig.from_dict({"probe_interval_s": 1.0})

    def test_from_file_errors_are_typed(self, tmp_path):
        missing = tmp_path / "absent.json"
        with pytest.raises(ClusterConfigError, match="cannot read"):
            ClusterConfig.from_file(missing)
        garbage = tmp_path / "garbage.json"
        garbage.write_text("{not json", encoding="utf-8")
        with pytest.raises(ClusterConfigError, match="not valid JSON"):
            ClusterConfig.from_file(garbage)
        wrong_shape = tmp_path / "wrong.json"
        wrong_shape.write_text(json.dumps(["a:1"]), encoding="utf-8")
        with pytest.raises(ClusterConfigError, match="JSON object"):
            ClusterConfig.from_file(wrong_shape)
        good = tmp_path / "cluster.json"
        good.write_text(json.dumps({
            "endpoints": ["a:1", "b:2"], "probe_interval_s": 0.25,
        }), encoding="utf-8")
        config = ClusterConfig.from_file(good)
        assert [e.address for e in config.endpoints] == ["a:1", "b:2"]
        assert config.probe_interval_s == 0.25

    def test_cli_rejects_bad_cluster_config(self, tmp_path, capsys):
        """predict --cluster-config maps typed errors onto exit code 2."""
        from repro.cli import main

        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"endpoints": ["nope"]}), encoding="utf-8")
        code = main(["predict", "--days", "6", "--scale", "0.3",
                     "--targets", "10", "--cluster-config", str(bad)])
        assert code == 2
        assert "host:port" in capsys.readouterr().err


class TestReplicaSetStateMachine:
    def make_set(self, n=3, **overrides):
        spec = ",".join(f"replica{i}:80{80 + i}" for i in range(n))
        defaults = {"failure_threshold": 2, "recovery_threshold": 2,
                    "cooldown_s": 0.05, "max_cooldown_s": 0.2}
        return ReplicaSet(ClusterConfig.from_endpoints(
            spec, **(defaults | overrides)))

    def test_round_robin_over_ready_members(self):
        replicas = self.make_set(3)
        first = [replicas.candidates()[0].address for _ in range(6)]
        assert len(set(first[:3])) == 3  # all three lead once per cycle
        assert first[:3] == first[3:]

    def test_failure_threshold_ejects_and_cooldown_parks(self):
        replicas = self.make_set(2)
        sick = replicas.members[0]
        replicas.record_failure(sick, "connection refused")
        assert not sick.ejected  # one failure is not a verdict
        assert not sick.ready(time.monotonic())  # but it cools down
        replicas.record_failure(sick, "connection refused")
        assert sick.ejected
        assert replicas.metrics.counter("cluster.ejections") == 1
        # Ejected members still appear as last-resort candidates.
        order = replicas.candidates()
        assert order[-1] is sick
        assert replicas.ready_members() == [replicas.members[1]]

    def test_recovery_threshold_readmits(self):
        replicas = self.make_set(2)
        sick = replicas.members[0]
        for _ in range(2):
            replicas.record_failure(sick, "down")
        assert sick.ejected
        replicas.record_success(sick)
        assert sick.ejected  # recovery_threshold=2: one success is not enough
        replicas.record_success(sick)
        assert not sick.ejected
        assert sick.ready(time.monotonic())
        assert replicas.metrics.counter("cluster.readmissions") == 1

    def test_cooldown_backoff_doubles_and_caps(self):
        replicas = self.make_set(1, failure_threshold=99)
        member = replicas.members[0]
        waits = []
        for _ in range(4):
            replicas.record_failure(member, "down")
            waits.append(member.cooldown_until - time.monotonic())
        assert waits[0] == pytest.approx(0.05, abs=0.02)
        assert waits[1] == pytest.approx(0.10, abs=0.02)
        assert waits[3] == pytest.approx(0.20, abs=0.02)  # capped

    def test_retry_after_hint_overrides_backoff(self):
        replicas = self.make_set(1, failure_threshold=99)
        member = replicas.members[0]
        replicas.record_failure(member, "draining", retry_after_s=0.4)
        remaining = member.cooldown_until - time.monotonic()
        assert remaining == pytest.approx(0.4, abs=0.05)
        # cool_down (429 hints) parks without touching failure counts.
        failures_before = member.consecutive_failures
        replicas.cool_down(member, 1.0)
        assert member.consecutive_failures == failures_before
        assert member.cooldown_until - time.monotonic() > 0.5


# ----- failover against live in-process servers -----


class StubPredictor:
    """Fixed-answer predictor (same shape as test_server's)."""

    def predict_next_for_network(self, asn, family, now=None):
        return AttackPrediction(
            hour=3.5, day=12.0, duration=600.0, magnitude=42.0,
            temporal_hour=3.0, spatial_hour=4.0,
            temporal_day=11.0, spatial_day=13.0,
        )


@pytest.fixture()
def make_engine(small_trace, small_env):
    engines = []

    def make(**engine_kw):
        registry = ModelRegistry(factory=lambda t, e, c: StubPredictor())
        engine = ForecastEngine(small_trace, small_env, registry=registry,
                                **engine_kw)
        engines.append(engine)
        return engine

    yield make
    for engine in engines:
        engine.close()


def make_client(servers, trace, metrics=None, **config_kw):
    """A failover client over live servers' resolved addresses."""
    spec = ",".join(f"{s.http_address[0]}:{s.http_address[1]}"
                    for s in servers)
    defaults = {"probe_interval_s": 0.1, "cooldown_s": 0.05,
                "max_cooldown_s": 0.5, "request_timeout_s": 5.0}
    metrics = metrics or Telemetry()
    return FailoverForecastClient(
        ClusterConfig.from_endpoints(spec, **(defaults | config_kw)),
        fallback=BaselineFallback(trace, metrics), metrics=metrics)


@pytest.mark.net
class TestFailoverClient:
    def serve_n(self, make_engine, n):
        return [ForecastServer(Dispatcher(make_engine()), port=0,
                               log=lambda _msg: None) for _ in range(n)]

    def test_draining_replica_is_skipped_without_client_errors(
            self, make_engine, small_trace):
        """503 draining -> the next ready member answers; zero errors."""
        asn, family = small_trace.attacks[0].target_asn, small_trace.families()[0]

        async def scenario():
            servers = self.serve_n(make_engine, 3)
            for server in servers:
                await server.start()
            client = make_client(servers, small_trace)
            try:
                warmup = [await client.forecast(asn=asn, family=family)
                          for _ in range(3)]
                servers[0].dispatcher.begin_drain()
                forecasts = [await client.forecast(asn=asn, family=family)
                             for _ in range(6)]
                return warmup + forecasts, client.cluster_status()
            finally:
                await client.close()
                for server in servers:
                    await server.shutdown()

        forecasts, status = asyncio.run(scenario())
        assert all(f.source == "model" and not f.degraded for f in forecasts)
        assert status["counters"].get("cluster.exhausted", 0) == 0
        # The drained member was tried once, asked us off, and was parked.
        assert status["counters"]["cluster.failovers"] >= 1

    def test_probe_marks_draining_member_unready(self, make_engine,
                                                 small_trace):
        async def scenario():
            servers = self.serve_n(make_engine, 2)
            for server in servers:
                await server.start()
            client = make_client(servers, small_trace)
            try:
                await client.probe_once()
                ready_before = len(client.replicas.ready_members())
                servers[1].dispatcher.begin_drain()
                await client.probe_once()
                drained = client.replicas.members[1]
                return (ready_before, len(client.replicas.ready_members()),
                        drained.health.draining, drained.consecutive_failures)
            finally:
                await client.close()
                for server in servers:
                    await server.shutdown()

        before, after, draining, failures = asyncio.run(scenario())
        assert (before, after) == (2, 1)
        assert draining  # structured readiness, not a raw dict
        assert failures == 0  # a deliberate drain is not a failure

    def test_all_replicas_down_degrades_to_baseline(self, small_trace):
        """Exhaustion: §VII-A baseline, degraded, names the dead members."""
        asn, family = small_trace.attacks[0].target_asn, small_trace.families()[0]
        metrics = Telemetry()
        config = ClusterConfig.from_endpoints(
            "127.0.0.1:9,127.0.0.1:10",  # discard ports: nothing listens
            cooldown_s=0.05, max_cooldown_s=0.1, request_timeout_s=1.0)
        client = FailoverForecastClient(
            config, fallback=BaselineFallback(small_trace, metrics),
            metrics=metrics)

        async def scenario():
            async with client:
                single = await client.forecast(asn=asn, family=family)
                batch = await client.forecast_batch(
                    [(asn, family), (asn, family)])
                return single, batch

        single, batch = asyncio.run(scenario())
        assert single.degraded and single.source == "baseline"
        assert "all 2 replicas failed" in single.error
        assert "127.0.0.1:9" in single.error
        assert len(batch) == 2 and all(f.degraded for f in batch)
        assert metrics.counter("cluster.exhausted") >= 2

    def test_exhaustion_without_fallback_raises_typed(self, small_trace):
        config = ClusterConfig.from_endpoints(
            "127.0.0.1:9", request_timeout_s=1.0)
        client = FailoverForecastClient(config)  # no fallback installed

        async def scenario():
            async with client:
                await client.forecast(asn=1, family="x")

        with pytest.raises(NoReplicasAvailableError) as excinfo:
            asyncio.run(scenario())
        assert "127.0.0.1:9" in excinfo.value.errors

    def test_bad_request_raises_without_failover(self, make_engine,
                                                 small_trace):
        """4xx is the caller's fault: no second replica gets the question."""
        from repro.server import ForecastServiceError

        async def scenario():
            servers = self.serve_n(make_engine, 2)
            for server in servers:
                await server.start()
            client = make_client(servers, small_trace)
            try:
                with pytest.raises(ForecastServiceError) as excinfo:
                    await client.forecast(asn=1, family="")
                return excinfo.value, client.cluster_status()
            finally:
                await client.close()
                for server in servers:
                    await server.shutdown()

        error, status = asyncio.run(scenario())
        assert error.status == 400
        assert status["counters"].get("cluster.failovers", 0) == 0
        assert sum(m["requests"] for m in status["members"]) == 1

    def test_background_probing_recovers_ejected_member(self, make_engine,
                                                        small_trace):
        """A restarted replica is readmitted by the probe loop alone."""
        asn, family = small_trace.attacks[0].target_asn, small_trace.families()[0]

        async def scenario():
            servers = self.serve_n(make_engine, 2)
            for server in servers:
                await server.start()
            client = make_client(servers, small_trace,
                                 failure_threshold=1, recovery_threshold=1)
            try:
                await client.probe_once()
                # Take server 0 down hard; requests fail over, probes eject.
                address = servers[0].http_address
                await servers[0].shutdown()
                for _ in range(3):
                    forecast = await client.forecast(asn=asn, family=family)
                    assert forecast.source == "model"
                await client.probe_once()
                assert client.replicas.members[0].ejected
                # Bring a fresh replica back on the *same* address.
                engine = make_engine()
                revived = ForecastServer(
                    Dispatcher(engine), port=address[1],
                    log=lambda _msg: None)
                await revived.start()
                servers[0] = revived
                client.start_probing()
                deadline = asyncio.get_running_loop().time() + 5.0
                while asyncio.get_running_loop().time() < deadline:
                    if not client.replicas.members[0].ejected:
                        break
                    await asyncio.sleep(0.05)
                return client.replicas.members[0].ejected, \
                    client.cluster_status()
            finally:
                await client.close()
                for server in servers:
                    await server.shutdown()

        still_ejected, status = asyncio.run(scenario())
        assert not still_ejected
        assert status["counters"]["cluster.readmissions"] >= 1


# ----- real child processes: supervisor, crash, rolling reload -----


CLUSTER_CONFIG = DatasetConfig(n_days=10, seed=8, scale=0.5, n_targets=30)


@pytest.fixture(scope="module")
def cluster_store(tmp_path_factory):
    """A saved trace + two store exports (v1 and v2) for replica boots.

    One fit, two exports: ``saved_at`` and the path differ, which is
    exactly what a rolling reload needs to prove replicas moved.
    """
    root = tmp_path_factory.mktemp("cluster")
    trace, env = TraceGenerator(CLUSTER_CONFIG).generate()
    trace_path = root / "trace.jsonl.gz"
    save_trace(trace, trace_path)
    registry = ModelRegistry()
    registry.get(trace, env)  # the one real fit this module pays for
    registry.save(root / "store-v1")
    registry.save(root / "store-v2")
    return {"trace": trace, "env": env, "trace_path": str(trace_path),
            "store_v1": str(root / "store-v1"),
            "store_v2": str(root / "store-v2")}


def make_supervisor(cluster_store, n, **kwargs):
    from repro.cluster import ReplicaEndpoint

    probe = ClusterConfig(endpoints=(ReplicaEndpoint("x", 1),),
                          probe_interval_s=0.25, failure_threshold=2)
    defaults = {"replicas": n, "trace_path": cluster_store["trace_path"],
                "store_path": cluster_store["store_v1"], "config": probe,
                "boot_timeout_s": 90.0, "restart_backoff_s": 0.2,
                "log": lambda _msg: None}
    return ReplicaSupervisor(**(defaults | kwargs))


@pytest.mark.slow
@pytest.mark.net
class TestReplicaSupervisor:
    def test_sigkill_failover_restart_bit_identical(self, cluster_store):
        """The acceptance scenario: 3 replicas, one SIGKILLed mid-load.

        The client must surface zero errors and bit-identical canonical
        forecasts throughout, and the supervisor must restart the
        victim (warm, from the same store).
        """
        trace = cluster_store["trace"]
        asn = trace.attacks[0].target_asn
        family = trace.families()[0]
        with make_supervisor(cluster_store, 3) as supervisor:
            assert supervisor.wait_ready(3, timeout_s=90.0)

            async def drive():
                metrics = Telemetry()
                client = FailoverForecastClient(
                    supervisor.cluster_config(),
                    fallback=BaselineFallback(trace, metrics),
                    metrics=metrics)
                answers = []
                async with client:
                    for _ in range(5):  # warm every replica's cache
                        answers.append(
                            await client.forecast(asn=asn, family=family))
                    victim = supervisor.replicas[0].pid
                    os.kill(victim, signal.SIGKILL)
                    for _ in range(20):
                        answers.append(
                            await client.forecast(asn=asn, family=family))
                        await asyncio.sleep(0.02)
                    return answers, client.cluster_status(), victim

            answers, status, victim = asyncio.run(drive())
            # Zero client-visible errors, zero degraded answers: every
            # response is a real model forecast.
            assert all(f.source == "model" and not f.degraded
                       for f in answers)
            assert status["counters"].get("cluster.exhausted", 0) == 0
            # Bit-identical canonical forecasts across the kill.
            dicts = [f.to_dict()["forecast"] for f in answers]
            assert all(d == dicts[0] for d in dicts[1:])
            # The supervisor replaces the victim with a fresh pid.
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline:
                replica = supervisor.replicas[0]
                if replica.ready and replica.pid != victim:
                    break
                time.sleep(0.1)
            assert supervisor.replicas[0].ready
            assert supervisor.replicas[0].pid != victim
            assert supervisor.replicas[0].restarts >= 1

    def test_rolling_reload_keeps_n_minus_1_ready(self, cluster_store):
        """Reload to store-v2: observable, and never below N-1 ready."""
        trace = cluster_store["trace"]
        asn = trace.attacks[0].target_asn
        family = trace.families()[0]
        new_store = cluster_store["store_v2"]
        with make_supervisor(cluster_store, 2) as supervisor:
            assert supervisor.wait_ready(2, timeout_s=90.0)
            # Sample the ready count from outside while the reload runs,
            # and keep forecasts flowing through the failover client.
            floor = {"min": supervisor.ready_count()}
            stop = threading.Event()

            def sample():
                while not stop.is_set():
                    floor["min"] = min(floor["min"], supervisor.ready_count())
                    time.sleep(0.02)

            sampler = threading.Thread(target=sample, daemon=True)
            sampler.start()
            try:
                report = supervisor.rolling_reload(new_store)
            finally:
                stop.set()
                sampler.join(timeout=5.0)
            assert report["ok"], report
            assert report["min_ready"] >= 1
            assert floor["min"] >= 1  # externally observed N-1 floor
            # Every replica now proves (via /healthz) it serves store-v2.
            for row in supervisor.status():
                assert row["ready"]
                assert row["health_store"]["path"] == new_store

            async def ask():
                metrics = Telemetry()
                client = FailoverForecastClient(
                    supervisor.cluster_config(),
                    fallback=BaselineFallback(trace, metrics),
                    metrics=metrics)
                async with client:
                    return await client.forecast(asn=asn, family=family)

            forecast = asyncio.run(ask())
            assert forecast.source == "model" and not forecast.degraded

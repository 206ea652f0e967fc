"""Tests for the unified telemetry subsystem (`repro.telemetry`).

Four layers, increasingly real:

* pure units -- trace ids, spans, the span-tree renderer, the
  :class:`Telemetry` registry (namespaced counters, deterministic empty
  snapshots), the Prometheus exposition (a golden text), snapshot
  merging, the sampled access log, and the consolidated
  :mod:`repro.errors` taxonomy;
* live in-process servers (real sockets, one event loop, the
  ``test_server.py`` pattern) -- trace propagation over both
  transports, untraced wire parity, error-body echo, and /metrics
  content negotiation;
* the sharded engine (real worker processes) -- the ``shard.query``
  span crossing the worker pipe;
* the :class:`ReplicaSupervisor` acceptance scenario (child
  processes, ``--workers 2 --access-log``) -- one client-minted
  trace id observable at every hop, plus the merged cluster scrape.
"""

import asyncio
import json
import time

import pytest

from repro.core.spatiotemporal import AttackPrediction
from repro.errors import (
    ERROR_CODES,
    ClusterConfigError,
    EngineClosedError,
    ForecastServiceError,
    NoReplicasAvailableError,
    ProtocolError,
    ReproError,
    StateError,
    StateSchemaError,
)
from repro.evaluation.reporting import FORECAST_SCHEMA_VERSION, error_payload
from repro.serving import (
    ForecastEngine,
    ForecastRequest,
    ModelRegistry,
    ShardedForecastEngine,
)
from repro.server import AsyncForecastClient, Dispatcher, ForecastServer
from repro.telemetry import (
    METRICS_SCHEMA_VERSION,
    AccessLog,
    LatencyHistogram,
    Span,
    Telemetry,
    TraceContext,
    format_span_tree,
    merge_snapshots,
    new_trace_id,
    to_prometheus,
    valid_trace_id,
)


# ----- trace ids and spans ------------------------------------------------


class TestTraceIds:
    def test_minted_ids_are_valid_and_distinct(self):
        ids = {new_trace_id() for _ in range(64)}
        assert len(ids) == 64
        assert all(valid_trace_id(t) and len(t) == 16 for t in ids)

    @pytest.mark.parametrize("bad", [
        None, 7, "", "abc", "x" * 65, "has space", "semi;colon", b"bytes",
    ])
    def test_wire_garbage_is_rejected(self, bad):
        assert not valid_trace_id(bad)
        assert TraceContext.from_wire(bad) is None

    def test_from_wire_carries_the_peer_id(self):
        ctx = TraceContext.from_wire("deadbeef00112233")
        assert ctx is not None
        assert ctx.trace_id == "deadbeef00112233"
        assert ctx.spans == []


class TestSpans:
    def test_span_dict_roundtrip(self):
        span = Span(name="serving.query", start_s=12.25, elapsed_s=0.5,
                    outcome="degraded", detail={"shard": 3})
        rebuilt = Span.from_dict(span.to_dict())
        assert (rebuilt.name, rebuilt.outcome) == ("serving.query", "degraded")
        assert rebuilt.detail == {"shard": 3}
        assert rebuilt.elapsed_s == pytest.approx(0.5)

    def test_context_span_records_elapsed_and_outcome(self):
        ctx = TraceContext("abcd1234abcd1234")
        with ctx.span("server.handle", op="forecast"):
            time.sleep(0.01)
        with pytest.raises(RuntimeError):
            with ctx.span("server.handle"):
                raise RuntimeError("boom")
        ok, err = ctx.spans
        assert ok.outcome == "ok" and ok.elapsed_s >= 0.01
        assert ok.detail == {"op": "forecast"}
        assert err.outcome == "error"  # the escaping exception stamped it

    def test_extend_from_wire_ignores_junk(self):
        ctx = TraceContext()
        ctx.extend_from_wire("not a list")
        ctx.extend_from_wire([{"name": "shard.query"}, "junk", 4])
        assert [s.name for s in ctx.spans] == ["shard.query"]

    def test_format_span_tree_indents_by_hop(self):
        spans = [
            {"name": "serving.query", "start_s": 10.2, "elapsed_s": 0.01},
            {"name": "client.request", "start_s": 10.0, "elapsed_s": 0.3},
            {"name": "server.handle", "start_s": 10.1, "elapsed_s": 0.02,
             "detail": {"op": "forecast", "status": 200}},
        ]
        text = format_span_tree("feedbeef00001111", spans)
        lines = text.splitlines()
        assert lines[0] == "trace feedbeef00001111"
        # Known hops render shallow-to-deep in start order.
        assert [ln.strip().split()[0] for ln in lines[1:]] == [
            "client.request", "server.handle", "serving.query"]
        assert lines[1].startswith("  client.request")
        assert lines[2].startswith("      server.handle")
        assert "[op=forecast status=200]" in lines[2]

    def test_format_span_tree_empty(self):
        assert "(no spans recorded)" in format_span_tree("abcd1234", [])


# ----- the unified registry ----------------------------------------------


class TestTelemetryRegistry:
    def test_snapshot_is_versioned(self):
        snap = Telemetry().snapshot()
        assert snap["schema_version"] == METRICS_SCHEMA_VERSION
        assert snap["uptime_s"] >= 0.0
        assert snap["counters"] == {} and snap["latency"] == {}

    def test_zero_observation_snapshot_is_deterministic(self):
        """Two idle replicas must snapshot bit-identically (the PR-7 fix)."""
        first = LatencyHistogram().snapshot()
        second = LatencyHistogram().snapshot()
        assert first == second
        for key in ("count", "sum_s", "mean_s", "max_s",
                    "p50_s", "p95_s", "p99_s"):
            assert first[key] == 0
        assert set(first["buckets"].values()) == {0}

    def test_timer_records_under_canonical_name(self):
        metrics = Telemetry()
        with metrics.timer("serving.query"):
            pass
        assert metrics.snapshot()["latency"]["serving.query"]["count"] == 1


class TestMergeSnapshots:
    def make_snapshot(self, queries, latencies):
        metrics = Telemetry()
        metrics.incr("serving.queries", by=queries)
        for seconds in latencies:
            metrics.observe("serving.query", seconds)
        return metrics.snapshot()

    def test_counters_sum_and_replicas_counted(self):
        merged = merge_snapshots([
            self.make_snapshot(3, [0.01]),
            self.make_snapshot(5, [0.02, 0.03]),
        ])
        assert merged["schema_version"] == METRICS_SCHEMA_VERSION
        assert merged["replicas"] == 2
        assert merged["counters"]["serving.queries"] == 8
        hist = merged["latency"]["serving.query"]
        assert hist["count"] == 3
        assert hist["sum_s"] == pytest.approx(0.06, abs=1e-6)
        assert hist["max_s"] == pytest.approx(0.03, abs=1e-6)

    def test_merged_quantiles_are_pessimistic_bucket_bounds(self):
        merged = merge_snapshots([self.make_snapshot(0, [0.003] * 10)])
        hist = merged["latency"]["serving.query"]
        # 0.003 lands in the le_0.005 bucket; the estimate reports its
        # upper bound, never an optimistic interpolation below truth.
        assert hist["p50_s"] == pytest.approx(0.005)
        assert hist["p50_s"] >= 0.003

    def test_empty_merge_is_a_valid_zero_snapshot(self):
        merged = merge_snapshots([])
        assert merged == {
            "schema_version": METRICS_SCHEMA_VERSION,
            "replicas": 0,
            "uptime_s": 0.0,
            "counters": {},
            "latency": {},
        }
        # ... and it renders: the supervisor scrape path with zero
        # answering replicas still serves valid exposition text.
        assert to_prometheus(merged).startswith("# HELP repro_metrics_schema")


class TestPrometheusExposition:
    def test_golden_exposition(self):
        """The exact text a fixed snapshot renders to, end to end."""
        snapshot = {
            "schema_version": 1,
            "uptime_s": 12.5,
            "counters": {"serving.queries": 3, "shard.restarts": 1},
            "latency": {"serving.query": {
                "count": 2, "sum_s": 0.3, "mean_s": 0.15, "max_s": 0.2,
                "p50_s": 0.1, "p95_s": 0.2, "p99_s": 0.2,
                "buckets": {"le_0.1": 1, "le_0.25": 1, "overflow": 0},
            }},
        }
        text = to_prometheus(snapshot, extra_gauges={"server.inflight": 2})
        assert text == (
            "# HELP repro_metrics_schema_version Schema version of the "
            "metrics snapshot this was rendered from.\n"
            "# TYPE repro_metrics_schema_version gauge\n"
            "repro_metrics_schema_version 1\n"
            "# HELP repro_uptime_seconds Seconds since the process "
            "registry was created.\n"
            "# TYPE repro_uptime_seconds gauge\n"
            "repro_uptime_seconds 12.5\n"
            "# HELP repro_serving_queries_total Total serving.queries "
            "events.\n"
            "# TYPE repro_serving_queries_total counter\n"
            "repro_serving_queries_total 3\n"
            "# HELP repro_shard_restarts_total Total shard.restarts "
            "events.\n"
            "# TYPE repro_shard_restarts_total counter\n"
            "repro_shard_restarts_total 1\n"
            "# HELP repro_serving_query_seconds Latency of serving.query "
            "in seconds.\n"
            "# TYPE repro_serving_query_seconds histogram\n"
            'repro_serving_query_seconds_bucket{le="0.1"} 1\n'
            'repro_serving_query_seconds_bucket{le="0.25"} 2\n'
            'repro_serving_query_seconds_bucket{le="+Inf"} 2\n'
            "repro_serving_query_seconds_sum 0.3\n"
            "repro_serving_query_seconds_count 2\n"
            "# HELP repro_server_inflight Point-in-time value of "
            "server.inflight.\n"
            "# TYPE repro_server_inflight gauge\n"
            "repro_server_inflight 2\n"
        )

    def test_registry_renders_itself(self):
        metrics = Telemetry()
        metrics.incr("cluster.failovers")
        metrics.observe("serving.query", 0.002)
        text = metrics.to_prometheus()
        assert "repro_cluster_failovers_total 1" in text
        assert "repro_serving_query_seconds_count 1" in text
        assert text.endswith("\n")

    def test_merged_cluster_view_exposes_replica_gauge(self):
        merged = merge_snapshots([Telemetry().snapshot()] * 3)
        text = to_prometheus(merged)
        assert "repro_replicas 3" in text

    def test_never_emits_nan_samples(self):
        text = to_prometheus({"schema_version": 1,
                              "uptime_s": float("nan"), "counters": {}})
        assert "nan" not in text.lower().replace("_nan", "")
        assert "repro_uptime_seconds 0\n" in text


# ----- access log ---------------------------------------------------------


class TestAccessLog:
    def collect(self, **kwargs):
        lines: list[dict] = []
        log = AccessLog(lambda line: lines.append(json.loads(line)), **kwargs)
        return log, lines

    def test_every_line_is_json_with_ts(self):
        log, lines = self.collect()
        log.emit({"op": "forecast", "status": 200, "elapsed_s": 0.01})
        assert len(lines) == 1
        assert lines[0]["op"] == "forecast"
        assert lines[0]["ts"] > 0

    def test_sampling_keeps_every_nth(self):
        log, lines = self.collect(sample_every=3)
        for _ in range(9):
            log.emit({"op": "forecast", "status": 200, "elapsed_s": 0.001})
        assert len(lines) == 3

    def test_slow_and_5xx_always_beat_the_sampler(self):
        log, lines = self.collect(sample_every=1000, slow_s=0.5)
        log.emit({"op": "forecast", "status": 200, "elapsed_s": 0.001})
        log.emit({"op": "forecast", "status": 200, "elapsed_s": 0.9})
        log.emit({"op": "forecast", "status": 500, "elapsed_s": 0.001})
        assert [ln["status"] for ln in lines] == [200, 500]
        assert lines[0]["slow"] is True
        assert "slow" not in lines[1]

    def test_on_slow_hook_fires_and_broken_hook_is_contained(self):
        seen: list[dict] = []

        def hook(record):
            seen.append(record)
            raise RuntimeError("pager is down")

        log, lines = self.collect(slow_s=0.01, on_slow=hook)
        log.emit({"op": "forecast", "status": 200, "elapsed_s": 0.05,
                  "trace_id": "abcd1234abcd1234"})
        assert len(seen) == 1 and seen[0]["trace_id"] == "abcd1234abcd1234"
        assert len(lines) == 1  # the raising hook never lost the line

    def test_rejects_bad_sample_rate(self):
        with pytest.raises(ValueError):
            AccessLog(lambda line: None, sample_every=0)


# ----- the consolidated error taxonomy -----------------------------------


class TestErrorTaxonomy:
    @pytest.mark.parametrize("cls,legacy_base", [
        (EngineClosedError, RuntimeError),
        (StateError, ValueError),
        (StateSchemaError, ValueError),
        (ClusterConfigError, ValueError),
        (NoReplicasAvailableError, ConnectionError),
        (ForecastServiceError, RuntimeError),
        (ProtocolError, ValueError),
    ])
    def test_common_root_keeps_legacy_bases(self, cls, legacy_base):
        assert issubclass(cls, ReproError)
        assert issubclass(cls, legacy_base)  # historical excepts keep working
        assert cls.code in ERROR_CODES

    def test_historical_homes_reexport_the_same_classes(self):
        from repro.cluster import NoReplicasAvailableError as cluster_exc
        from repro.cluster.config import ClusterConfigError as config_exc
        from repro.persistence.state import StateError as state_exc
        from repro.serving import EngineClosedError as serving_exc
        from repro.server import ForecastServiceError as client_exc
        from repro.server.protocol import ProtocolError as protocol_exc

        assert serving_exc is EngineClosedError
        assert state_exc is StateError
        assert config_exc is ClusterConfigError
        assert cluster_exc is NoReplicasAvailableError
        assert client_exc is ForecastServiceError
        assert protocol_exc is ProtocolError

    def test_payload_fields_carry_the_stable_code(self):
        exc = EngineClosedError("engine is closed")
        assert exc.payload_fields() == {"code": "engine_closed",
                                        "message": "engine is closed"}

    def test_error_payload_mirrors_code_and_trace(self):
        body = error_payload("draining", "shutting down",
                             retry_after_s=2.0, trace_id="feedbeef00001111")
        assert body["schema_version"] == FORECAST_SCHEMA_VERSION
        assert body["error"]["code"] == "draining"
        assert body["error"]["retry_after_s"] == 2.0
        assert body["trace_id"] == "feedbeef00001111"
        assert "trace_id" not in error_payload("draining", "m")

    def test_service_error_carries_wire_identity(self):
        exc = ForecastServiceError(503, "draining", "go away",
                                   retry_after_s=1.5,
                                   trace_id="abcd1234abcd1234")
        assert exc.status == 503 and exc.code == "draining"
        assert exc.trace_id == "abcd1234abcd1234"
        assert "503" in str(exc) and "draining" in str(exc)

    def test_wire_only_codes_are_documented(self):
        for code in ("overloaded", "draining", "timeout", "not_found",
                     "schema_mismatch", "internal"):
            assert code in ERROR_CODES


# ----- live servers: propagation, parity, negotiation ---------------------


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


def serve(engine, **server_kw):
    return ForecastServer(Dispatcher(engine), port=0,
                          log=lambda _msg: None, **server_kw)


async def raw_http(host, port, request_text):
    """One raw HTTP exchange; returns (status, headers, body_bytes)."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(request_text.encode())
        await writer.drain()
        raw = await reader.read()
    finally:
        writer.close()
        await writer.wait_closed()
    head, _, body = raw.partition(b"\r\n\r\n")
    lines = head.decode().split("\r\n")
    status = int(lines[0].split()[1])
    headers = {}
    for line in lines[1:]:
        key, _, value = line.partition(":")
        headers[key.strip().lower()] = value.strip()
    return status, headers, body


def http_post(path, payload, extra_headers=()):
    body = json.dumps(payload)
    headers = [f"POST {path} HTTP/1.1", "Host: test",
               "Content-Type: application/json",
               f"Content-Length: {len(body)}", "Connection: close"]
    headers += list(extra_headers)
    return "\r\n".join(headers) + "\r\n\r\n" + body


def http_get(path, extra_headers=()):
    headers = [f"GET {path} HTTP/1.1", "Host: test", "Connection: close"]
    headers += list(extra_headers)
    return "\r\n".join(headers) + "\r\n\r\n"


@pytest.mark.net
class TestTracePropagation:
    def run_one(self, engine, coro_factory):
        async def scenario():
            async with serve(engine) as server:
                host, port = server.http_address
                return await coro_factory(host, port)
        return asyncio.run(scenario())

    def test_http_trace_round_trip(self, make_engine, small_trace):
        asn, family = small_trace.attacks[0].target_asn, small_trace.families()[0]
        trace_id = "feedbeef00112233"

        async def scenario(host, port):
            async with AsyncForecastClient(host, port) as client:
                return await client.forecast(asn=asn, family=family,
                                             trace_id=trace_id)

        forecast = self.run_one(make_engine(), scenario)
        assert forecast.trace_id == trace_id
        names = [span["name"] for span in forecast.spans]
        assert "serving.query" in names  # the engine hop
        assert "server.handle" in names  # the transport hop
        for span in forecast.spans:
            assert span["elapsed_s"] >= 0.0
            assert span["outcome"] == "ok"

    def test_framed_trace_round_trip(self, make_engine, small_trace):
        asn, family = small_trace.attacks[0].target_asn, small_trace.families()[0]
        trace_id = "framed0011223344"

        async def scenario():
            async with serve(make_engine(), framed_port=0) as server:
                host, port = server.framed_address
                async with AsyncForecastClient(host, port,
                                               transport="framed") as client:
                    return await client.forecast(asn=asn, family=family,
                                                 trace_id=trace_id)

        forecast = asyncio.run(scenario())
        assert forecast.trace_id == trace_id
        assert {"serving.query", "server.handle"} <= {
            span["name"] for span in forecast.spans}

    def test_untraced_wire_body_is_unchanged(self, make_engine, small_trace):
        """No trace header -> the PR 1..6 payload, byte for byte."""
        asn, family = small_trace.attacks[0].target_asn, small_trace.families()[0]

        async def scenario(host, port):
            return await raw_http(host, port, http_post(
                "/v1/forecast", {"asn": asn, "family": family}))

        status, headers, body = self.run_one(make_engine(), scenario)
        payload = json.loads(body)
        assert status == 200
        assert "trace_id" not in payload and "spans" not in payload
        assert "x-repro-trace" not in headers

    def test_bogus_wire_trace_is_discarded(self, make_engine, small_trace):
        """An unvalidatable peer id never reaches logs or bodies."""
        asn, family = small_trace.attacks[0].target_asn, small_trace.families()[0]

        async def scenario(host, port):
            return await raw_http(host, port, http_post(
                "/v1/forecast", {"asn": asn, "family": family},
                ["X-Repro-Trace: not a valid id!"]))

        status, headers, body = self.run_one(make_engine(), scenario)
        assert status == 200
        assert "trace_id" not in json.loads(body)
        assert "x-repro-trace" not in headers

    def test_error_body_echoes_the_trace(self, make_engine):
        trace_id = "errbeef000011112"

        async def scenario(host, port):
            return await raw_http(host, port, http_get(
                "/nope", [f"X-Repro-Trace: {trace_id}"]))

        status, headers, body = self.run_one(make_engine(), scenario)
        payload = json.loads(body)
        assert status == 404
        assert payload["error"]["code"] == "not_found"
        assert payload["trace_id"] == trace_id
        assert headers["x-repro-trace"] == trace_id

    def test_metrics_content_negotiation(self, make_engine, small_trace):
        """One registry, two encodings: JSON default, Prometheus on Accept."""
        asn, family = small_trace.attacks[0].target_asn, small_trace.families()[0]

        async def scenario(host, port):
            async with AsyncForecastClient(host, port) as client:
                await client.forecast(asn=asn, family=family)
            plain = await raw_http(host, port, http_get("/metrics"))
            prom = await raw_http(host, port, http_get(
                "/metrics", ["Accept: text/plain; version=0.0.4"]))
            return plain, prom

        (json_status, json_headers, json_body), (prom_status, prom_headers,
                                                 prom_body) = \
            self.run_one(make_engine(), scenario)
        snapshot = json.loads(json_body)
        assert json_status == 200
        assert "application/json" in json_headers["content-type"]
        assert snapshot["schema_version"] == METRICS_SCHEMA_VERSION
        assert snapshot["counters"]["serving.queries"] >= 1
        assert snapshot["server"]["inflight"] == 0

        text = prom_body.decode()
        assert prom_status == 200
        assert prom_headers["content-type"].startswith("text/plain")
        assert "repro_metrics_schema_version 1" in text
        assert "repro_serving_queries_total" in text
        assert "# TYPE repro_serving_query_seconds histogram" in text
        assert "repro_server_inflight 0" in text

    def test_access_log_lines_carry_the_trace(self, make_engine, small_trace):
        asn, family = small_trace.attacks[0].target_asn, small_trace.families()[0]
        lines: list[dict] = []
        engine = make_engine()
        trace_id = "logbeef000011112"

        async def scenario():
            access = AccessLog(lambda line: lines.append(json.loads(line)))
            async with ForecastServer(Dispatcher(engine), port=0,
                                      log=lambda _msg: None,
                                      access_log=access) as server:
                host, port = server.http_address
                async with AsyncForecastClient(host, port) as client:
                    await client.forecast(asn=asn, family=family,
                                          trace_id=trace_id)
                    await client.forecast(asn=asn, family=family)

        asyncio.run(scenario())
        assert [ln["op"] for ln in lines] == ["forecast", "forecast"]
        assert lines[0]["trace_id"] == trace_id
        assert lines[0]["status"] == 200 and lines[0]["elapsed_s"] >= 0
        assert lines[0]["transport"] == "http"
        assert "trace_id" not in lines[1]  # untraced stays untraced


# ----- failover: one trace across the replica walk ------------------------


@pytest.mark.net
class TestFailoverTracing:
    def make_client(self, servers, **config_kw):
        from repro.cluster import ClusterConfig, FailoverForecastClient

        spec = ",".join(f"{s.http_address[0]}:{s.http_address[1]}"
                        for s in servers)
        defaults = {"cooldown_s": 0.05, "max_cooldown_s": 0.5,
                    "request_timeout_s": 5.0}
        return FailoverForecastClient(
            ClusterConfig.from_endpoints(spec, **(defaults | config_kw)))

    def test_one_trace_id_across_a_failover(self, make_engine, small_trace):
        """Drained replica 0, answering replica 1: one id, every hop."""
        asn, family = small_trace.attacks[0].target_asn, small_trace.families()[0]

        async def scenario():
            servers = [serve(make_engine()) for _ in range(2)]
            for server in servers:
                await server.start()
            servers[0].dispatcher.begin_drain()
            client = self.make_client(servers)
            try:
                return await client.forecast(asn=asn, family=family,
                                             trace=True)
            finally:
                await client.close()
                for server in servers:
                    await server.shutdown()

        forecast = asyncio.run(scenario())
        assert forecast.source == "model" and not forecast.degraded
        assert valid_trace_id(forecast.trace_id)
        by_name: dict[str, list[dict]] = {}
        for span in forecast.spans:
            by_name.setdefault(span["name"], []).append(span)
        # The walk: a failed attempt on the drained member, a good one
        # on its neighbor, and the server/engine hops from the answer.
        attempts = by_name["client.attempt"]
        assert len(attempts) == 2
        assert attempts[0]["outcome"] == "error"
        assert "503" in attempts[0]["detail"]["error"]
        assert attempts[1]["outcome"] == "ok"
        assert attempts[0]["detail"]["replica"] != attempts[1]["detail"]["replica"]
        assert by_name["client.request"][0]["detail"]["attempts"] == 2
        assert "server.handle" in by_name and "serving.query" in by_name
        # Renderable end to end.
        tree = format_span_tree(forecast.trace_id, forecast.spans)
        assert tree.startswith(f"trace {forecast.trace_id}")
        assert "client.attempt" in tree

    def test_batch_shares_one_caller_supplied_trace(self, make_engine,
                                                    small_trace):
        asn, family = small_trace.attacks[0].target_asn, small_trace.families()[0]
        trace_id = "batch00011122233"

        async def scenario():
            servers = [serve(make_engine())]
            await servers[0].start()
            client = self.make_client(servers)
            try:
                return await client.forecast_batch(
                    [(asn, family), (asn, family)],
                    trace=True, trace_id=trace_id)
            finally:
                await client.close()
                await servers[0].shutdown()

        batch = asyncio.run(scenario())
        assert [f.trace_id for f in batch] == [trace_id, trace_id]
        for forecast in batch:
            assert {"client.request", "server.handle"} <= {
                span["name"] for span in forecast.spans}

    def test_untraced_failover_requests_stay_bare(self, make_engine,
                                                  small_trace):
        asn, family = small_trace.attacks[0].target_asn, small_trace.families()[0]

        async def scenario():
            servers = [serve(make_engine())]
            await servers[0].start()
            client = self.make_client(servers)
            try:
                return await client.forecast(asn=asn, family=family)
            finally:
                await client.close()
                await servers[0].shutdown()

        forecast = asyncio.run(scenario())
        assert forecast.trace_id is None and forecast.spans == []
        assert "trace_id" not in forecast.to_dict()


# ----- sharded engine: the span that crosses the worker pipe --------------


@pytest.fixture(scope="module")
def telemetry_store(tmp_path_factory, small_trace, small_env, predictor):
    """A ModelStore snapshot so sharded workers boot without refitting."""
    path = tmp_path_factory.mktemp("telemetry") / "store"
    registry = ModelRegistry(factory=lambda t, e, c: predictor)
    registry.get(small_trace, small_env)
    registry.save(path)
    return path


class TestShardedTracing:
    def test_shard_span_crosses_the_worker_pipe(self, telemetry_store,
                                                small_trace, small_env):
        asn = small_trace.attacks[0].target_asn
        family = small_trace.families()[0]
        trace_id = "shard00011122233"
        with ShardedForecastEngine(small_trace, small_env, n_shards=2,
                                   store_path=telemetry_store) as engine:
            traced = engine.query(ForecastRequest(asn=asn, family=family),
                                  trace_id=trace_id)
            untraced = engine.query(ForecastRequest(asn=asn, family=family))
        assert traced.trace_id == trace_id
        by_name = {span["name"]: span for span in traced.spans}
        assert "serving.query" in by_name  # the worker's inner engine
        shard_span = by_name["shard.query"]  # the pipe hop, stamped by a worker
        assert shard_span["detail"]["shard"] in (0, 1)
        assert shard_span["detail"]["pid"] > 0
        # Untraced queries keep the PR 4 wire shape exactly.
        assert untraced.trace_id is None and untraced.spans == []

    def test_batch_spans_name_each_shard(self, telemetry_store, small_trace,
                                         small_env):
        asns = sorted({a.target_asn for a in small_trace.attacks})[:6]
        family = small_trace.families()[0]
        requests = [ForecastRequest(asn=asn, family=family) for asn in asns]
        with ShardedForecastEngine(small_trace, small_env, n_shards=2,
                                   store_path=telemetry_store) as engine:
            forecasts = engine.query_batch(requests, trace_id="batchshard01")
        shards = set()
        for forecast in forecasts:
            assert forecast.trace_id == "batchshard01"
            for span in forecast.spans:
                if span["name"] == "shard.query":
                    shards.add(span["detail"]["shard"])
        assert shards  # at least one shard hop was recorded per answer


# ----- CLI argument discipline (no sockets) -------------------------------


class TestMetricsCLI:
    def test_requires_exactly_one_endpoint_source(self, capsys):
        from repro.cli import main

        assert main(["metrics"]) == 2
        assert "endpoint" in capsys.readouterr().err
        assert main(["metrics", "a:1", "--endpoints", "b:2"]) == 2

    def test_bad_endpoint_spec_exits_2(self, capsys):
        from repro.cli import main

        assert main(["metrics", "--endpoints", "nope"]) == 2
        assert "host:port" in capsys.readouterr().err

    def test_unreachable_endpoint_exits_1(self, capsys):
        from repro.cli import main

        assert main(["metrics", "127.0.0.1:9"]) == 1
        assert "no replica answered" in capsys.readouterr().err


# ----- acceptance: the whole stack, child processes, --workers 2 ----------


CLUSTER_CONFIG_KW = dict(n_days=10, seed=8, scale=0.5, n_targets=30)


@pytest.fixture(scope="module")
def cluster_store(tmp_path_factory):
    from repro.dataset import DatasetConfig, TraceGenerator, save_trace

    root = tmp_path_factory.mktemp("telemetry-cluster")
    trace, env = TraceGenerator(DatasetConfig(**CLUSTER_CONFIG_KW)).generate()
    trace_path = root / "trace.jsonl.gz"
    save_trace(trace, trace_path)
    registry = ModelRegistry()
    registry.get(trace, env)  # the one real fit this module pays for
    registry.save(root / "store")
    return {"trace": trace, "trace_path": str(trace_path),
            "store": str(root / "store")}


@pytest.mark.slow
@pytest.mark.net
class TestClusterTelemetryEndToEnd:
    def test_one_trace_id_at_every_hop(self, cluster_store, tmp_path):
        """The ISSUE acceptance walk: serve-cluster --workers 2, one
        client-minted trace id visible in the forecast body's span from
        every layer, in a replica's access-log line, and a merged
        /metrics scrape over the same replicas."""
        from repro.cluster import ClusterConfig, ReplicaEndpoint, \
            ReplicaSupervisor, probe_metrics

        trace = cluster_store["trace"]
        asn = trace.attacks[0].target_asn
        family = trace.families()[0]
        log_dir = tmp_path / "logs"
        probe = ClusterConfig(endpoints=(ReplicaEndpoint("x", 1),),
                              probe_interval_s=0.25)
        supervisor = ReplicaSupervisor(
            replicas=2, workers=2,
            trace_path=cluster_store["trace_path"],
            store_path=cluster_store["store"],
            config=probe, boot_timeout_s=120.0,
            extra_args=["--access-log"], log_dir=log_dir,
            log=lambda _msg: None)
        with supervisor:
            assert supervisor.wait_ready(2, timeout_s=120.0)

            async def drive():
                from repro.cluster import FailoverForecastClient

                client = FailoverForecastClient(supervisor.cluster_config())
                async with client:
                    return await client.forecast(asn=asn, family=family,
                                                 trace=True)

            forecast = asyncio.run(drive())
            assert forecast.source == "model" and not forecast.degraded
            trace_id = forecast.trace_id
            assert valid_trace_id(trace_id)

            # Every hop contributed a span under the one id.
            names = {span["name"] for span in forecast.spans}
            assert {"client.request", "client.attempt", "server.handle",
                    "serving.query", "shard.query"} <= names

            # The replica that answered logged the same id.
            deadline = time.monotonic() + 10.0
            logged = ""
            while time.monotonic() < deadline and trace_id not in logged:
                logged = "".join(p.read_text()
                                 for p in log_dir.glob("replica-*.log"))
                time.sleep(0.2)
            assert trace_id in logged
            line = next(ln for ln in logged.splitlines()
                        if trace_id in ln and ln.startswith("{"))
            record = json.loads(line)
            assert record["op"] == "forecast" and record["status"] == 200

            # The merged scrape sees both replicas through one registry.
            merged = supervisor.scrape_metrics()
            assert merged["replicas"] == 2
            assert merged["replica_errors"] == {}
            assert merged["schema_version"] == METRICS_SCHEMA_VERSION
            assert merged["counters"].get("server.requests", 0) >= 1
            assert "repro_replicas 2" in to_prometheus(merged)

            # And each replica answers the versioned JSON view directly.
            endpoint = supervisor.endpoints()[0]
            status, snapshot = probe_metrics(endpoint.host, endpoint.port)
            assert status == 200
            assert snapshot["schema_version"] == METRICS_SCHEMA_VERSION

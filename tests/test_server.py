"""Tests for the asyncio network front end (`repro.server`).

Each test drives a real server over real sockets, but inside one
``asyncio.run`` on the test's own (main) thread -- which is also what
lets the SIGTERM drain test deliver an actual signal to an actual
handler.  Engines are fed injected registry factories (stubs, or the
session-scoped fitted ``predictor``) so nothing here refits models.
"""

import asyncio
import json
import os
import signal
import threading
import time

import pytest

from repro.core.spatiotemporal import AttackPrediction
from repro.evaluation.reporting import FORECAST_SCHEMA_VERSION, prediction_to_dict
from repro.serving import ForecastEngine, ForecastRequest, ModelRegistry
from repro.server import (
    AsyncForecastClient,
    Dispatcher,
    ForecastServer,
    ForecastServiceError,
    ProtocolError,
    encode_frame,
    read_frame,
)
from repro.server.http import (
    ResponseEncodeCache,
    encode_json_body,
    render_response,
)
from repro.server.protocol import parse_forecast_request
from repro.telemetry import TRACE_HEADER

# Every test here talks to a live loopback server on an ephemeral port
# (bind port 0 everywhere -- fully hermetic, no retries, no collisions).
pytestmark = pytest.mark.net


class StubPredictor:
    """Fixed-answer predictor; optional per-call delay."""

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


@pytest.fixture()
def make_engine(small_trace, small_env):
    """Engine factory with an injected (stub by default) predictor."""
    engines = []

    def make(predictor=None, **engine_kw):
        stub = predictor or StubPredictor()
        registry = ModelRegistry(factory=lambda t, e, c: stub)
        engine = ForecastEngine(small_trace, small_env, registry=registry,
                                **engine_kw)
        engines.append(engine)
        return engine

    yield make
    for engine in engines:
        engine.close()


def serve(engine, **server_kw):
    """A started server on an ephemeral port (use as async context)."""
    dispatcher_kw = {
        key: server_kw.pop(key)
        for key in ("max_inflight", "default_timeout_s") if key in server_kw
    }
    return ForecastServer(Dispatcher(engine, **dispatcher_kw),
                          port=0, log=lambda _msg: None, **server_kw)


def target_of(trace):
    return trace.attacks[0].target_asn, trace.families()[0]


class TestRoundTrip:
    def test_http_forecast_matches_predict_json(self, small_trace, small_env,
                                                predictor):
        """The wire payload is byte-identical to the in-process schema."""
        registry = ModelRegistry(factory=lambda t, e, c: predictor)
        engine = ForecastEngine(small_trace, small_env, registry=registry)
        asn = predictor.spatial.ases()[0]
        family = small_trace.families()[0]
        expected = prediction_to_dict(
            predictor.predict_next_for_network(asn, family))

        async def scenario():
            async with serve(engine) as server:
                host, port = server.http_address
                async with AsyncForecastClient(host, port) as client:
                    return await client.forecast(asn=asn, family=family)

        forecast = asyncio.run(scenario())
        assert forecast.source == "model"
        assert not forecast.degraded
        assert prediction_to_dict(forecast.prediction) == expected
        assert expected["schema_version"] == FORECAST_SCHEMA_VERSION

    def test_framed_forecast_roundtrip(self, make_engine, small_trace):
        asn, family = target_of(small_trace)

        async def scenario():
            async with serve(make_engine(), framed_port=0) as server:
                host, port = server.framed_address
                async with AsyncForecastClient(host, port,
                                               transport="framed") as client:
                    forecast = await client.forecast(asn=asn, family=family)
                    health = await client.healthz()
                    return forecast, health

        forecast, health = asyncio.run(scenario())
        assert forecast.source == "model"
        assert forecast.prediction.hour == 3.5
        assert health.status == "ok"
        assert health.ready and not health.draining

    def test_batch_preserves_order_and_coalesces(self, make_engine, small_trace):
        asns = [a.target_asn for a in small_trace.attacks[:3]]
        family = small_trace.families()[0]
        engine = make_engine()

        async def scenario():
            async with serve(engine) as server:
                host, port = server.http_address
                async with AsyncForecastClient(host, port) as client:
                    # Duplicates on purpose: they must coalesce.
                    return await client.forecast_batch(
                        [(asn, family) for asn in asns + asns])

        batch = asyncio.run(scenario())
        assert [f.request.asn for f in batch] == asns + asns
        assert all(f.source == "model" for f in batch)
        assert engine.metrics.counter("serving.coalesced") >= 3

    def test_metrics_and_healthz_endpoints(self, make_engine, small_trace):
        asn, family = target_of(small_trace)

        async def scenario():
            async with serve(make_engine()) as server:
                host, port = server.http_address
                async with AsyncForecastClient(host, port) as client:
                    await client.forecast(asn=asn, family=family)
                    return await client.metrics(), await client.healthz()

        metrics, health = asyncio.run(scenario())
        assert metrics["counters"]["server.requests"] == 1
        assert metrics["server"]["max_inflight"] == 64
        assert metrics["server"]["connections"] >= 1
        assert health.ready and not health.draining
        assert health.model_version == 1
        assert health.inflight == 0
        assert health.store is None  # no model store behind this engine
        assert health.raw["status"] == "ok"  # wire body kept verbatim
        json.dumps(metrics)  # JSON-safe end to end

    def test_healthz_exposes_store_provenance(self, make_engine):
        """Rolling reloads watch /healthz for the store a replica serves."""
        store_info = {"path": "/stores/v2", "saved_at": 123.0,
                      "entries": 1, "max_version": 3}

        async def scenario():
            engine = make_engine()
            server = ForecastServer(
                Dispatcher(engine, store_info=store_info),
                port=0, log=lambda _msg: None)
            async with server:
                host, port = server.http_address
                async with AsyncForecastClient(host, port) as client:
                    return await client.healthz()

        health = asyncio.run(scenario())
        assert health.ready
        assert health.store == store_info
        assert health.model_version == 0  # nothing fitted yet


class TestMalformedRequests:
    @staticmethod
    async def raw_http(addr, payload: bytes):
        reader, writer = await asyncio.open_connection(*addr)
        writer.write(payload)
        await writer.drain()
        head = await reader.readuntil(b"\r\n\r\n")
        status = int(head.split(b" ")[1])
        headers = dict(
            line.split(b": ", 1) for line in head.split(b"\r\n")[1:] if b": " in line
        )
        body = await reader.readexactly(int(headers.get(b"Content-Length", b"0")))
        writer.close()
        return status, json.loads(body) if body else {}

    def test_http_400_404_405(self, make_engine):
        def post(path, body: bytes):
            return (f"POST {path} HTTP/1.1\r\nHost: x\r\n"
                    f"Content-Length: {len(body)}\r\n\r\n").encode() + body

        cases = [
            (post("/v1/forecast", b"not json"), 400),
            (post("/v1/forecast", b'{"family": "x"}'), 400),
            (post("/v1/forecast", b'{"asn": true, "family": "x"}'), 400),
            (post("/v1/forecast",
                  b'{"asn": 1, "family": "x", "timeout_s": -2}'), 400),
            (post("/nope", b"{}"), 404),
            (b"GET /v1/forecast HTTP/1.1\r\nHost: x\r\n\r\n", 405),
            (post("/v1/forecast/batch", b'{"requests": []}'), 400),
        ]

        async def scenario():
            async with serve(make_engine()) as server:
                return [await self.raw_http(server.http_address, raw)
                        for raw, _expected in cases]

        results = asyncio.run(scenario())
        assert [status for status, _ in results] == [s for _, s in cases]
        for _status, body in results:
            assert body["schema_version"] == FORECAST_SCHEMA_VERSION
            assert "code" in body["error"] and "message" in body["error"]

    def test_client_raises_on_error_payload(self, make_engine):
        async def scenario():
            async with serve(make_engine()) as server:
                host, port = server.http_address
                async with AsyncForecastClient(host, port) as client:
                    with pytest.raises(ForecastServiceError) as excinfo:
                        await client.forecast(asn=1, family="")
                    return excinfo.value

        error = asyncio.run(scenario())
        assert error.status == 400
        assert error.code == "bad_request"

    def test_framed_rejects_garbage(self, make_engine):
        async def scenario():
            async with serve(make_engine(), framed_port=0) as server:
                reader, writer = await asyncio.open_connection(
                    *server.framed_address)
                writer.write((2**31).to_bytes(4, "big"))  # absurd length
                await writer.drain()
                response = await read_frame(reader)
                writer.close()
                return response

        response = asyncio.run(scenario())
        assert response["status"] == 413
        assert response["body"]["error"]["code"] == "frame_too_large"


class TestDeadlines:
    def test_deadline_exceeded_degrades_to_baseline(self, make_engine,
                                                    small_trace):
        asn, family = target_of(small_trace)
        engine = make_engine(StubPredictor(delay_s=0.5))

        async def scenario():
            async with serve(engine) as server:
                host, port = server.http_address
                async with AsyncForecastClient(host, port) as client:
                    return await client.forecast(asn=asn, family=family,
                                                 timeout_s=0.05)

        forecast = asyncio.run(scenario())
        assert forecast.degraded
        assert forecast.source == "baseline"
        assert "timeout" in forecast.error
        assert forecast.ok  # baseline still answered
        assert engine.metrics.counter("serving.timeouts") == 1


class TestHitPath:
    def test_cached_key_answers_while_every_pool_thread_is_blocked(
            self, make_engine, small_trace):
        """A prediction-cache hit needs no pool thread and no deadline.

        Both pool threads sit in the predictor waiting on an Event; the
        cached key still gets its 200 through ``Dispatcher.handle``,
        even under a deadline far shorter than any pool round trip.
        """
        family = small_trace.families()[0]
        asns = sorted({a.target_asn for a in small_trace.attacks})[:3]
        cached_asn, blocked_asns = asns[0], asns[1:]
        entered = threading.Semaphore(0)
        release = threading.Event()

        class Gated(StubPredictor):
            def predict_next_for_network(self, asn, family, now=None):
                if asn != cached_asn:
                    entered.release()
                    assert release.wait(timeout=30.0)
                return super().predict_next_for_network(asn, family, now)

        engine = make_engine(Gated(), max_workers=2)
        dispatcher = Dispatcher(engine)
        primed = engine.query(asn=cached_asn, family=family)
        blocked = [engine.submit(ForecastRequest(asn=asn, family=family))
                   for asn in blocked_asns]
        try:
            for _ in blocked:
                assert entered.acquire(timeout=30.0)
            status, body, retry = asyncio.run(dispatcher.handle(
                "forecast", {"asn": cached_asn, "family": family,
                             "timeout_s": 0.001}))
            assert all(not future.done() for future in blocked)
        finally:
            release.set()
        assert (status, retry) == (200, None)
        assert body["cached"] is True
        assert body["source"] == "model" and not body["degraded"]
        assert body["forecast"] == prediction_to_dict(primed.prediction)
        assert engine.metrics.counter("serving.timeouts") == 0
        for future in blocked:
            assert future.result(timeout=30.0).source == "model"


class TestBackpressure:
    def test_overload_sheds_with_429_baseline(self, make_engine, small_trace):
        family = small_trace.families()[0]
        asns = [a.target_asn for a in small_trace.attacks[:8]]
        engine = make_engine(StubPredictor(delay_s=0.25), max_workers=8)

        async def scenario():
            async with serve(engine, max_inflight=2) as server:
                host, port = server.http_address
                clients = [AsyncForecastClient(host, port) for _ in asns]
                try:
                    forecasts = await asyncio.gather(*(
                        client.forecast(asn=asn, family=family)
                        for client, asn in zip(clients, asns)
                    ))
                    hints = [client.last_retry_after_s for client in clients]
                    return forecasts, hints
                finally:
                    for client in clients:
                        await client.close()

        forecasts, hints = asyncio.run(scenario())
        shed = [f for f in forecasts if f.degraded and "overloaded" in (f.error or "")]
        served = [f for f in forecasts if f.source == "model"]
        assert shed, "no request was shed at max_inflight=2"
        assert served, "no request was served at all"
        assert all(f.ok for f in shed)  # 429s still carry baseline numbers
        assert engine.metrics.counter("server.shed") == len(shed)
        # A forecast-bearing 429 does not raise, so its Retry-After hint
        # surfaces on the client instead -- one per shed response.
        throttled = [hint for hint in hints if hint is not None]
        assert len(throttled) == len(shed)
        assert all(hint > 0 for hint in throttled)

    def test_connection_cap_answers_503(self, make_engine):
        async def scenario():
            async with serve(make_engine(), max_connections=1) as server:
                addr = server.http_address
                # First connection occupies the only slot ...
                _r1, w1 = await asyncio.open_connection(*addr)
                await asyncio.sleep(0.05)  # let the handler register
                # ... so the second is refused at the door.
                status, body = await TestMalformedRequests.raw_http(
                    addr, b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
                w1.close()
                return status, body

        status, body = asyncio.run(scenario())
        assert status == 503
        assert body["error"]["code"] == "too_many_connections"
        assert body["error"]["retry_after_s"] > 0


class TestGracefulDrain:
    def test_sigterm_drains_inflight_then_stops(self, make_engine, small_trace):
        """A real SIGTERM: in-flight work finishes, new work is refused."""
        asn, family = target_of(small_trace)
        engine = make_engine(StubPredictor(delay_s=0.3))

        async def scenario():
            server = serve(engine, drain_timeout_s=5.0)
            await server.start()
            server.install_signal_handlers()
            host, port = server.http_address
            client = AsyncForecastClient(host, port)
            inflight = asyncio.ensure_future(
                client.forecast(asn=asn, family=family))
            await asyncio.sleep(0.05)  # let it reach the engine pool
            os.kill(os.getpid(), signal.SIGTERM)
            await server.serve_forever()  # returns once the drain completes
            forecast = await inflight
            # Post-drain queries are refused, not queued.
            late = AsyncForecastClient(host, port)
            with pytest.raises((ForecastServiceError, OSError,
                                asyncio.IncompleteReadError, ProtocolError)):
                await late.forecast(asn=asn, family=family)
            await client.close()
            await late.close()
            return forecast

        forecast = asyncio.run(scenario())
        assert forecast.source == "model"  # drained, not dropped
        assert not forecast.degraded
        assert engine.closed

    def test_drain_flips_health_and_refuses_forecasts(self, make_engine,
                                                      small_trace):
        asn, family = target_of(small_trace)
        engine = make_engine()

        async def scenario():
            async with serve(engine) as server:
                host, port = server.http_address
                server.dispatcher.begin_drain()
                async with AsyncForecastClient(host, port) as client:
                    health = await client.healthz()
                    with pytest.raises(ForecastServiceError) as excinfo:
                        await client.forecast(asn=asn, family=family)
                    return health, excinfo.value

        health, error = asyncio.run(scenario())
        assert health.status == "draining"
        assert health.draining and not health.ready
        # The 503's Retry-After header surfaces as the probe cooldown hint.
        assert health.retry_after_s > 0
        assert error.status == 503
        assert error.code == "draining"
        assert error.retry_after_s > 0


@pytest.mark.slow
class TestConcurrentHammer:
    def test_16_connections_no_dropped_or_duplicated_responses(
            self, make_engine, small_trace):
        """16 concurrent clients, distinct questions, exact answers."""
        families = small_trace.families()[:4]
        asns = [a.target_asn for a in small_trace.attacks[:16]]
        engine = make_engine(max_workers=8)
        n_clients, per_client = 16, 8

        async def hammer(client_id, addr):
            host, port = addr
            async with AsyncForecastClient(host, port) as client:
                answers = []
                for i in range(per_client):
                    asn = asns[(client_id + i) % len(asns)]
                    family = families[(client_id * 3 + i) % len(families)]
                    forecast = await client.forecast(asn=asn, family=family)
                    answers.append((asn, family, forecast))
                return answers

        async def scenario():
            async with serve(engine, max_inflight=256) as server:
                return await asyncio.gather(*(
                    hammer(client_id, server.http_address)
                    for client_id in range(n_clients)
                ))

        results = asyncio.run(scenario())
        flat = [item for chunk in results for item in chunk]
        assert len(flat) == n_clients * per_client
        for asn, family, forecast in flat:
            # Every response answers exactly the question asked on that
            # connection -- no crosstalk between interleaved sockets.
            assert forecast.request.asn == asn
            assert forecast.request.family == family
            assert forecast.source == "model"
            assert forecast.ok
        assert (engine.metrics.counter("server.requests")
                == n_clients * per_client)
        assert engine.metrics.counter("server.shed") == 0


class TestProtocolUnits:
    def test_frame_codec_roundtrip(self):
        async def scenario():
            reader = asyncio.StreamReader()
            payload = {"op": "forecast", "asn": 7, "family": "x"}
            reader.feed_data(encode_frame(payload) + encode_frame({"a": 1}))
            reader.feed_eof()
            first = await read_frame(reader)
            second = await read_frame(reader)
            third = await read_frame(reader)
            return first, second, third

        first, second, third = asyncio.run(scenario())
        assert first == {"op": "forecast", "asn": 7, "family": "x"}
        assert second == {"a": 1}
        assert third is None  # clean EOF

    def test_parse_forecast_request_strictness(self):
        request = parse_forecast_request({"asn": 9, "family": "f", "now": 10})
        assert (request.asn, request.family, request.now) == (9, "f", 10.0)
        for bad in (
            [],                                   # not an object
            {"family": "f"},                      # asn missing
            {"asn": "9", "family": "f"},          # asn as string
            {"asn": True, "family": "f"},         # bool is not an ASN
            {"asn": 9, "family": ""},             # empty family
            {"asn": 9, "family": "f", "now": "x"},
        ):
            with pytest.raises(ProtocolError):
                parse_forecast_request(bad)


# ----- response rendering: byte identity ---------------------------------


def _legacy_render(status, body, keep_alive=True, retry_after_s=None,
                   trace_id=None):
    """The straightforward header assembly, kept verbatim as the oracle."""
    reasons = {
        200: "OK", 400: "Bad Request", 404: "Not Found",
        405: "Method Not Allowed", 408: "Request Timeout",
        413: "Content Too Large", 429: "Too Many Requests",
        431: "Request Header Fields Too Large",
        500: "Internal Server Error", 503: "Service Unavailable",
    }
    if isinstance(body, str):
        payload = body.encode("utf-8")
        content_type = "text/plain; version=0.0.4; charset=utf-8"
    else:
        payload = json.dumps(body, separators=(",", ":")).encode("utf-8")
        content_type = "application/json"
    headers = [
        f"HTTP/1.1 {status} {reasons.get(status, 'Unknown')}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(payload)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    if retry_after_s is not None:
        headers.append(f"Retry-After: {max(1, round(retry_after_s))}")
    if trace_id is not None:
        headers.append(f"{TRACE_HEADER}: {trace_id}")
    return ("\r\n".join(headers) + "\r\n\r\n").encode("latin-1") + payload


class TestRenderResponseBytes:
    @pytest.mark.parametrize("status", [200, 404, 429, 503, 999])
    @pytest.mark.parametrize("keep_alive", [True, False])
    def test_byte_identical_to_legacy(self, status, keep_alive):
        body = {"schema_version": 1, "asn": 64512, "nested": {"x": [1, 2]}}
        for retry in (None, 1.0, 2.6):
            for trace_id in (None, "abc123"):
                assert render_response(
                    status, body, keep_alive=keep_alive,
                    retry_after_s=retry, trace_id=trace_id,
                ) == _legacy_render(status, body, keep_alive=keep_alive,
                                    retry_after_s=retry, trace_id=trace_id)

    def test_prometheus_and_precoded_bodies(self):
        text = "repro_serving_queries_total 3\n"
        assert render_response(200, text) == _legacy_render(200, text)
        body = {"asn": 1, "family": "Mirai"}
        pre = encode_json_body(body)
        assert render_response(200, pre) == render_response(200, body)

    def test_refusal_frames_match_fresh_render(self, make_engine):
        from repro.evaluation.reporting import error_payload

        dispatcher = Dispatcher(make_engine())
        server = ForecastServer(dispatcher, port=0, max_connections=3,
                                log=lambda _msg: None)
        body = error_payload("too_many_connections",
                             "connection limit 3 reached",
                             retry_after_s=dispatcher.retry_after_s)
        assert server._http_refusal == render_response(
            503, body, keep_alive=False,
            retry_after_s=dispatcher.retry_after_s)
        assert server._framed_refusal == encode_frame({
            "status": 503, "body": body,
            "retry_after_s": dispatcher.retry_after_s})


# ----- response-encode cache ---------------------------------------------


class TestEncodeCache:
    def test_key_eligibility(self):
        eligible = {"source": "model", "cached": True, "degraded": False,
                    "asn": 1, "family": "Mirai", "now": None,
                    "model_version": 3}
        key = ResponseEncodeCache.key_for("forecast", 200, False, eligible)
        assert key == ((1, "Mirai", None), 3, False)
        rejects = [
            ("healthz", 200, False, eligible),
            ("forecast", 429, False, eligible),
            ("forecast", 200, True, eligible),  # traced
            ("forecast", 200, False, {**eligible, "source": "baseline"}),
            ("forecast", 200, False, {**eligible, "cached": False}),
            ("forecast", 200, False, {**eligible, "degraded": True}),
            ("forecast", 200, False, {**eligible, "error": "boom"}),
            ("forecast", 200, False, {**eligible, "trace_id": "t"}),
            ("forecast", 200, False, "not-a-dict"),
        ]
        for case in rejects:
            assert ResponseEncodeCache.key_for(*case) is None, case

    def test_lru_eviction_and_stats(self):
        cache = ResponseEncodeCache(max_entries=2)
        cache.put(("a",), b"1")
        cache.put(("b",), b"2")
        assert cache.get(("a",)) == b"1"  # refreshes 'a'
        cache.put(("c",), b"3")  # evicts 'b', the least recent
        assert cache.get(("b",)) is None
        assert cache.get(("a",)) == b"1"
        assert cache.get(("c",)) == b"3"
        assert cache.stats() == {"entries": 2, "hits": 3, "misses": 1}
        with pytest.raises(ValueError):
            ResponseEncodeCache(max_entries=0)

    def test_served_bytes_identical_and_hits_counted(self, make_engine,
                                                     small_trace):
        asn, family = target_of(small_trace)
        body = json.dumps({"asn": asn, "family": family}).encode()

        async def fetch(host, port):
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(
                (f"POST /v1/forecast HTTP/1.1\r\n"
                 f"Content-Length: {len(body)}\r\n"
                 f"Connection: close\r\n\r\n").encode() + body)
            await writer.drain()
            raw = await reader.read()
            writer.close()
            return raw

        async def scenario():
            async with serve(make_engine()) as server:
                host, port = server.http_address
                first = await fetch(host, port)   # computes (cached: false)
                second = await fetch(host, port)  # engine cache hit, encoded
                third = await fetch(host, port)   # encode-cache hit
                return server.encode_cache.stats(), (first, second, third)

        stats, (first, second, third) = asyncio.run(scenario())
        assert second == third  # byte-identical reuse, frame included
        payload = json.loads(second.partition(b"\r\n\r\n")[2])
        assert payload["source"] == "model" and payload["cached"] is True
        assert json.loads(first.partition(b"\r\n\r\n")[2])["cached"] is False
        assert stats == {"entries": 1, "hits": 1, "misses": 1}

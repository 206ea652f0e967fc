"""The asyncio network front end: sockets in, forecasts out.

One :class:`ForecastServer` owns up to two listeners over a single
shared :class:`~repro.server.dispatcher.Dispatcher`:

* an HTTP/1.1 listener (``POST /v1/forecast``, ``POST
  /v1/forecast/batch``, ``GET /metrics``, ``GET /healthz``), and
* an optional length-prefixed JSON listener for non-HTTP clients.

Production behaviors live here, not in the protocol code:

* **Connection cap** -- beyond ``max_connections`` concurrent
  sockets, new arrivals get an immediate 503 (or error frame) with
  ``Retry-After`` and are closed; the kernel backlog never becomes an
  invisible queue.
* **Graceful drain** -- :meth:`shutdown` (wired to SIGTERM/SIGINT by
  :meth:`install_signal_handlers`) stops accepting, flips the
  dispatcher to draining (503s for new work, ``/healthz`` ejects the
  replica), waits up to ``drain_timeout_s`` for in-flight forecasts,
  cancels idle keep-alive connections, then drains the engine pool via
  :meth:`ForecastEngine.close`.

Use ``port=0`` (or a pre-bound socket from :func:`bind_socket`) to let
the OS pick a port; the resolved address is logged and exposed as
:attr:`http_address` / :attr:`framed_address`.
"""

from __future__ import annotations

import asyncio
import signal
import socket
import sys
import time

from repro.evaluation.reporting import error_payload
from repro.server.dispatcher import Dispatcher
from repro.server.http import (
    ResponseEncodeCache,
    encode_json_body,
    read_http_request,
    render_response,
    route_to_op,
    wants_prometheus,
)
from repro.server.protocol import ProtocolError, encode_frame, read_frame
from repro.telemetry import AccessLog, Span, TraceContext

__all__ = ["ForecastServer", "bind_socket"]


def bind_socket(host: str, port: int) -> socket.socket:
    """Bind (not listen) a TCP socket, for fail-fast CLI startup.

    Raises ``OSError`` on unbindable addresses -- the CLI turns that
    into its dedicated bind-failure exit code *before* paying for
    dataset loading or model fitting.
    """
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind((host, port))
    except OSError:
        sock.close()
        raise
    return sock


class ForecastServer:
    """Two wire protocols, one dispatcher, one lifecycle."""

    def __init__(self, dispatcher: Dispatcher, *,
                 host: str = "127.0.0.1", port: int = 8377,
                 framed_port: int | None = None,
                 http_sock: socket.socket | None = None,
                 framed_sock: socket.socket | None = None,
                 max_connections: int = 128,
                 drain_timeout_s: float = 10.0,
                 close_engine: bool = True,
                 access_log: AccessLog | None = None,
                 log=None) -> None:
        self.dispatcher = dispatcher
        #: Response-encode cache: untraced repeat 200-forecast bodies
        #: skip ``json.dumps`` entirely.
        self.encode_cache = ResponseEncodeCache()
        #: Structured request logging (None = off).  One JSON line per
        #: served request, subject to the log's own sampling policy.
        self.access_log = access_log
        self.host = host
        self.port = port
        self.framed_port = framed_port
        self._http_sock = http_sock
        self._framed_sock = framed_sock
        self.max_connections = max_connections
        self.drain_timeout_s = drain_timeout_s
        self.close_engine = close_engine
        self._log = log or (lambda message: print(message, file=sys.stderr))
        self._http_server: asyncio.AbstractServer | None = None
        self._framed_server: asyncio.AbstractServer | None = None
        self._connections: set[asyncio.Task] = set()
        self._stopped = asyncio.Event()
        self._shutting_down = False
        self.http_address: tuple[str, int] | None = None
        self.framed_address: tuple[str, int] | None = None
        # The connection-refusal answers never vary for a server's
        # lifetime (limit and retry hint are fixed at construction), so
        # serialize them once instead of per refused connection.
        refusal_body = error_payload(
            "too_many_connections",
            f"connection limit {max_connections} reached",
            retry_after_s=dispatcher.retry_after_s)
        self._http_refusal = render_response(
            503, refusal_body, keep_alive=False,
            retry_after_s=dispatcher.retry_after_s)
        self._framed_refusal = encode_frame({
            "status": 503,
            "body": refusal_body,
            "retry_after_s": dispatcher.retry_after_s,
        })
        dispatcher.transport_stats = self._transport_stats

    # ----- lifecycle -----

    async def start(self) -> "ForecastServer":
        """Bind the listeners and log the resolved addresses."""
        if self._http_sock is not None:
            self._http_server = await asyncio.start_server(
                self._handle_http, sock=self._http_sock)
        else:
            self._http_server = await asyncio.start_server(
                self._handle_http, host=self.host, port=self.port)
        self.http_address = self._http_server.sockets[0].getsockname()[:2]
        self._log(f"forecast server listening on "
                  f"http://{self.http_address[0]}:{self.http_address[1]}")
        if self._framed_sock is not None or self.framed_port is not None:
            if self._framed_sock is not None:
                self._framed_server = await asyncio.start_server(
                    self._handle_framed, sock=self._framed_sock)
            else:
                self._framed_server = await asyncio.start_server(
                    self._handle_framed, host=self.host, port=self.framed_port)
            self.framed_address = self._framed_server.sockets[0].getsockname()[:2]
            self._log(f"forecast server listening on "
                      f"framed://{self.framed_address[0]}:{self.framed_address[1]}")
        return self

    def install_signal_handlers(self) -> None:
        """SIGTERM/SIGINT trigger a graceful drain (loop-safe)."""
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(
                    signum,
                    lambda s=signum: asyncio.ensure_future(
                        self.shutdown(f"signal {signal.Signals(s).name}")),
                )
            except (NotImplementedError, RuntimeError):  # non-main loop
                pass

    async def serve_forever(self) -> None:
        """Block until :meth:`shutdown` completes."""
        await self._stopped.wait()

    async def shutdown(self, reason: str = "shutdown") -> None:
        """Graceful drain: stop accepting, finish work, close the engine."""
        if self._shutting_down:
            await self._stopped.wait()
            return
        self._shutting_down = True
        self._log(f"forecast server draining ({reason}) ...")
        for server in (self._http_server, self._framed_server):
            if server is not None:
                server.close()
        self.dispatcher.begin_drain()
        drained = await self.dispatcher.wait_idle(self.drain_timeout_s)
        if not drained:
            self._log(f"drain timeout after {self.drain_timeout_s}s; "
                      f"{self.dispatcher.inflight} forecasts abandoned")
        # Idle keep-alive connections are parked in a read; cut them.
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)
        for server in (self._http_server, self._framed_server):
            if server is not None:
                await server.wait_closed()
        if self.close_engine:
            # The pool drain is quick here: the dispatcher is idle.
            await asyncio.get_running_loop().run_in_executor(
                None, self.dispatcher.engine.close)
        self._log("forecast server stopped")
        self._stopped.set()

    async def __aenter__(self) -> "ForecastServer":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.shutdown("context exit")

    # ----- connection handling -----

    def _transport_stats(self) -> dict:
        cache = self.encode_cache.stats()
        return {
            "connections": len(self._connections),
            "max_connections": self.max_connections,
            "encode_cache_entries": cache["entries"],
            "encode_cache_hits": cache["hits"],
            "encode_cache_misses": cache["misses"],
        }

    def _admit_connection(self) -> bool:
        if len(self._connections) >= self.max_connections:
            self.dispatcher.metrics.incr("server.connections_refused")
            return False
        self._connections.add(asyncio.current_task())
        self.dispatcher.metrics.incr("server.connections")
        return True

    async def _handle_http(self, reader: asyncio.StreamReader,
                           writer: asyncio.StreamWriter) -> None:
        if not self._admit_connection():
            await self._finish(writer, self._http_refusal)
            return
        try:
            while True:
                try:
                    request = await read_http_request(reader)
                except ProtocolError as exc:
                    self.dispatcher.metrics.incr("server.bad_requests")
                    self._access("http", None, exc.status, 0.0, None,
                                 path="<malformed>")
                    writer.write(render_response(
                        exc.status, error_payload(exc.code, str(exc)),
                        keep_alive=False))
                    await writer.drain()
                    break
                if request is None:
                    break
                ctx = TraceContext.from_wire(
                    request.headers.get("x-repro-trace"))
                start_s, t0 = time.time(), time.perf_counter()
                op = None
                try:
                    op = route_to_op(request)
                    if op == "metrics" and wants_prometheus(request.headers):
                        status, body, retry = 200, self.dispatcher.metrics_exposition(
                            self._transport_stats()), None
                    else:
                        payload = request.json() if request.method == "POST" else {}
                        status, body, retry = await self.dispatcher.handle(
                            op, payload, ctx)
                except ProtocolError as exc:
                    self.dispatcher.metrics.incr("server.bad_requests")
                    status, body, retry = exc.status, error_payload(
                        exc.code, str(exc),
                        trace_id=ctx.trace_id if ctx else None), None
                elapsed_s = time.perf_counter() - t0
                self._stamp_body(body, ctx, op or request.path, start_s,
                                 elapsed_s, status)
                self._access("http", op, status, elapsed_s, ctx,
                             path=request.path)
                keep = request.keep_alive and not self._shutting_down
                wire_body = body
                key = ResponseEncodeCache.key_for(
                    op, status, ctx is not None, body)
                if key is not None:
                    wire_body = self.encode_cache.get(key)
                    if wire_body is None:
                        wire_body = encode_json_body(body)
                        self.encode_cache.put(key, wire_body)
                writer.write(render_response(
                    status, wire_body, keep_alive=keep, retry_after_s=retry,
                    trace_id=ctx.trace_id if ctx else None))
                await writer.drain()
                if not keep:
                    break
        except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
            pass  # peer vanished, or the drain cancelled an idle keep-alive
        finally:
            self._connections.discard(asyncio.current_task())
            await self._close_writer(writer)

    async def _handle_framed(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        if not self._admit_connection():
            await self._finish(writer, self._framed_refusal)
            return
        try:
            while True:
                try:
                    frame = await read_frame(reader)
                except ProtocolError as exc:
                    self.dispatcher.metrics.incr("server.bad_requests")
                    writer.write(encode_frame({
                        "status": exc.status,
                        "body": error_payload(exc.code, str(exc)),
                    }))
                    await writer.drain()
                    break
                if frame is None:
                    break
                ctx = TraceContext.from_wire(frame.get("trace_id"))
                start_s, t0 = time.time(), time.perf_counter()
                op = frame.get("op")
                if not isinstance(op, str):
                    self.dispatcher.metrics.incr("server.bad_requests")
                    status, body, retry = 400, error_payload(
                        "bad_request", "'op' must be a string",
                        trace_id=ctx.trace_id if ctx else None), None
                    op = None
                else:
                    status, body, retry = await self.dispatcher.handle(
                        op, frame, ctx)
                elapsed_s = time.perf_counter() - t0
                self._stamp_body(body, ctx, op or "<bad-op>", start_s,
                                 elapsed_s, status)
                self._access("framed", op, status, elapsed_s, ctx)
                response = {"status": status, "body": body}
                if retry is not None:
                    response["retry_after_s"] = retry
                writer.write(encode_frame(response))
                await writer.drain()
                if self._shutting_down:
                    break
        except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
            pass
        finally:
            self._connections.discard(asyncio.current_task())
            await self._close_writer(writer)

    # ----- telemetry -----

    @staticmethod
    def _stamp_body(body, ctx: TraceContext | None, op: str,
                    start_s: float, elapsed_s: float, status: int) -> None:
        """Attach the server hop to a traced response body.

        Appends a ``server.handle`` span (covering routing, dispatch
        and engine wait) to the body's span list and pins ``trace_id``
        at the top level, so clients see the full hop chain without a
        log join.  No-op for untraced requests and non-JSON bodies --
        untraced responses stay byte-identical to pre-telemetry builds.
        """
        if ctx is None or not isinstance(body, dict):
            return
        span = Span(
            name="server.handle", start_s=start_s, elapsed_s=elapsed_s,
            outcome="ok" if status < 400 else "error",
            detail={"op": op, "status": status},
        )
        body["trace_id"] = ctx.trace_id
        body["spans"] = list(body.get("spans", ())) + [span.to_dict()]

    def _access(self, transport: str, op: str | None, status: int,
                elapsed_s: float, ctx: TraceContext | None,
                path: str | None = None) -> None:
        """Emit one access-log record (if logging is enabled)."""
        if self.access_log is None:
            return
        record = {
            "transport": transport,
            "op": op,
            "status": status,
            "elapsed_s": round(elapsed_s, 6),
        }
        if path is not None:
            record["path"] = path
        if ctx is not None:
            record["trace_id"] = ctx.trace_id
        self.access_log.emit(record)

    async def _finish(self, writer: asyncio.StreamWriter, data: bytes) -> None:
        try:
            writer.write(data)
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass
        await self._close_writer(writer)

    @staticmethod
    async def _close_writer(writer: asyncio.StreamWriter) -> None:
        try:
            writer.close()
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass

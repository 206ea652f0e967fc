"""Multi-process sharded forecast serving.

Per-AS / per-family model work is CPU-bound (ARIMA grid fits, NAR
Levenberg-Marquardt, pure-python predict paths) and serializes behind
one interpreter's GIL -- the ceiling the `repro.server` tier hits once
a single :class:`~repro.serving.engine.ForecastEngine` saturates.
:class:`ShardedForecastEngine` partitions the per-target query key
space (the paper's §V/§VI models are trained *per target network*)
across N worker processes by a **stable hash** of ``(asn, family)`` --
the same name-spacing the registry's :class:`ModelKey` scheme uses --
so each worker owns its slice of targets with its own GIL, its own
:class:`~repro.serving.registry.ModelRegistry`, its own caches.

Topology::

    Dispatcher --> ShardedForecastEngine --+--> worker 0: ModelRegistry + ForecastEngine
    (event loop)   (parent: routing,       +--> worker 1: ModelRegistry + ForecastEngine
        ^           restart, §VII-A        +--> ...
        |           degradation)           (multiprocessing pipes)
        +---- replies: loop.add_reader on each pipe, resolved on the loop

    One lifecycle thread per shard boots its worker, waits on the
    worker's ``process.sentinel`` and restarts it; no parent thread
    exists only to read a pipe.

Operational contracts (all mirrored from the single-process tier so
the two paths cannot drift):

* **Wire format** -- one ``("query", items)`` frame per shard and
  call, each item ``(item_id, request, timeout, trace_id)``; one
  ``("forecast", entries)`` reply with a ``forecast`` or ``error``
  entry per item, so a poisoned item degrades only itself.  Forecast
  entries are the existing ``FORECAST_SCHEMA_VERSION`` dicts
  (``Forecast.to_dict()``), rebuilt via ``Forecast.from_dict``; an
  entry in a different schema is degraded, not trusted.
* **Reply path** -- the caller that waits reads.  ``submit`` on a
  running event loop registers the shard's pipe with that loop
  (``loop.add_reader``) and returns a loop future the reader callback
  resolves on the loop thread; any other caller gets a future whose
  ``result`` reads the pipe itself, unless another thread's running
  loop is the pipe's reader.  Both go through one read site and one
  frame dispatch; a per-pipe read lock is held only while taking a
  ready frame, never while waiting.  Any read-side EOF unregisters the
  reader before the parent's end is closed, so no selector keeps an fd
  number that gets reused.
* **Warm boot** -- each worker restores its registry from the PR 2
  :class:`~repro.persistence.store.ModelStore` when ``store_path`` is
  given, so N shards do not pay N cold fits.
* **Degradation** -- a dead shard's requests are answered by the
  parent's §VII-A :class:`~repro.serving.engine.BaselineFallback`
  (``degraded: true``), mirroring the Dispatcher's 429 policy: load
  and faults cost accuracy, never availability.
* **Restart** -- a crashed worker is restarted with bounded
  exponential backoff; in-flight requests at crash time resolve to
  baseline answers, and the shard resumes serving model answers once
  its replacement boots (warm, from the store).
* **Lifecycle** -- ``close()`` keeps the drain-then-reject contract:
  submitted work completes with real answers, anything after the close
  began raises :class:`~repro.serving.engine.EngineClosedError`.
"""

from __future__ import annotations

import asyncio
import hashlib
import itertools
import multiprocessing
import os
import select
import signal
import threading
import time
from concurrent.futures import Future
from concurrent.futures import wait as wait_futures
from dataclasses import dataclass, field
from multiprocessing.connection import wait as wait_ready
from pathlib import Path
from typing import Callable, Iterator, Sequence

from repro.chaos.hooks import chaos_point
from repro.core.spatiotemporal import SpatiotemporalConfig
from repro.dataset.generator import SimulationEnvironment
from repro.dataset.records import AttackTrace
from repro.evaluation.reporting import FORECAST_SCHEMA_VERSION
from repro.serving.engine import (
    _UNSET,
    EngineClosedError,
    Forecast,
    ForecastEngine,
    ForecastRequest,
    _EngineBase,
)
from repro.serving.registry import ModelRegistry
from repro.telemetry import Span, Telemetry

__all__ = ["ShardedForecastEngine", "ShardBoot", "shard_index"]


#: Serializes pipe creation and fork across every sharded engine.
_SPAWN_LOCK = threading.Lock()

#: How long a blocking waiter waits before it checks again who reads its
#: pipe (another thread may have taken its reply or stopped its loop).
_WAIT_SLICE_S = 0.01

#: Unanswered items on a shard past which a sender first reads ready
#: replies: a worker blocked writing to a full pipe stops reading too.
_DRAIN_ABOVE = 32


def shard_index(asn: int, family: str, n_shards: int) -> int:
    """Stable shard owner of the ``(asn, family)`` key space slice.

    SHA-256 based so the mapping is identical across processes, runs,
    and machines (Python's builtin ``hash`` is salted per process and
    must not leak into routing).
    """
    if n_shards < 1:
        raise ValueError("n_shards must be >= 1")
    digest = hashlib.sha256(f"{asn}|{family}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % n_shards


@dataclass
class ShardBoot:
    """Everything a worker process needs to build its engine.

    Plain data (picklable under the ``spawn`` start method; inherited
    for free under ``fork``).  ``factory`` is the registry's injectable
    predictor factory -- tests use it to substitute stubs; it must be
    picklable (module-level) when spawning.
    """

    shard_id: int
    n_shards: int
    trace: AttackTrace
    env: SimulationEnvironment
    config: SpatiotemporalConfig | None
    store_path: str | None
    max_workers: int
    timeout_s: float | None
    warm: bool
    prediction_cache_entries: int
    factory: Callable | None = None


def _request_to_wire(request: ForecastRequest) -> dict:
    return {"asn": request.asn, "family": request.family, "now": request.now}


def _request_from_wire(data: dict) -> ForecastRequest:
    return ForecastRequest(asn=data["asn"], family=data["family"],
                           now=data["now"])


def _error_entry(item_id: int, exc: Exception) -> tuple:
    return (item_id, "error", {"error": f"{type(exc).__name__}: {exc}"})


def _shard_main(conn, boot: ShardBoot, parent_end=None) -> None:
    """Worker process body: one registry + engine, serves its pipe."""
    if parent_end is not None:
        # A forked worker inherits the parent's end too; holding it
        # would hide the parent closing the pipe (EOF) from ``recv``.
        parent_end.close()
    # The parent owns interactive signals; workers exit via the pipe
    # ("stop" or EOF), SIGTERM, or SIGKILL (crash-tested).
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):  # non-main thread / exotic platform
        pass
    try:
        from repro.serving.cache import LRUTTLCache

        metrics = Telemetry()
        if boot.factory is not None:
            registry = ModelRegistry(factory=boot.factory, metrics=metrics)
        else:
            registry = ModelRegistry(metrics=metrics)
        if boot.store_path:
            registry.load(boot.store_path, boot.trace, boot.env)
        engine = ForecastEngine(
            boot.trace, boot.env, config=boot.config, registry=registry,
            metrics=metrics, max_workers=boot.max_workers,
            timeout_s=boot.timeout_s,
            prediction_cache=LRUTTLCache(
                max_entries=boot.prediction_cache_entries),
        )
        if boot.warm:
            engine.warm()  # a store restore makes this a hit, not a refit
        conn.send(("ready", {
            "shard": boot.shard_id,
            "pid": os.getpid(),
            "model_version": engine.model_version(),
        }))
    except Exception as exc:
        try:
            conn.send(("boot_error", {
                "shard": boot.shard_id,
                "error": f"{type(exc).__name__}: {exc}",
            }))
        except (BrokenPipeError, OSError):
            pass
        return

    def answer(items: list) -> list:
        """One reply entry per item; a failure degrades only its items.

        A one-item frame is answered by ``engine.query`` (inline when
        there is no deadline); larger frames run one ``query_batch`` per
        ``(timeout, trace_id)`` group, so duplicates coalesce while each
        item keeps its own deadline and trace.
        """
        groups: dict[tuple, list] = {}
        for item_id, wire_request, wire_timeout, trace_id in items:
            groups.setdefault((wire_timeout, trace_id), []).append(
                (item_id, wire_request))
        entries = []
        for (timeout, trace_id), members in groups.items():
            try:
                requests = [_request_from_wire(w) for _, w in members]
                start_s, t0 = time.time(), time.perf_counter()
                if len(requests) == 1:
                    forecasts = [engine.query(requests[0], timeout_s=timeout,
                                              trace_id=trace_id)]
                else:
                    forecasts = engine.query_batch(
                        requests, timeout_s=timeout, trace_id=trace_id)
            except Exception as exc:
                entries += [_error_entry(item_id, exc) for item_id, _ in members]
                continue
            if trace_id is not None:
                span = Span(
                    name="shard.query", start_s=start_s,
                    elapsed_s=time.perf_counter() - t0, outcome="ok",
                    detail={"shard": boot.shard_id, "pid": os.getpid()},
                ).to_dict()
                for forecast in {id(f): f for f in forecasts}.values():
                    forecast.spans = forecast.spans + [span]
            for (item_id, _), forecast in zip(members, forecasts):
                try:
                    entries.append((item_id, "forecast",
                                    {"schema_version": FORECAST_SCHEMA_VERSION}
                                    | forecast.to_dict()))
                except Exception as exc:  # an unencodable answer degrades alone
                    entries.append(_error_entry(item_id, exc))
        return entries

    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        op = message[0]
        if op == "stop":
            break
        try:
            if op == "metrics":
                reply = ("metrics", message[1], engine.metrics_snapshot())
            else:
                reply = ("forecast", answer(message[1]))
            conn.send(reply)
        except (BrokenPipeError, OSError):
            break
    engine.close()
    try:
        conn.close()
    except OSError:
        pass


class _Pipe:
    """The parent's end of one worker pipe, and who reads it.

    ``loop`` is the event loop whose reader watches ``fd`` (None when no
    loop does); it changes under the shard's ``lock``.  ``read_lock`` is
    held only around taking one ready frame off the pipe, never while
    waiting for one; ``send_lock`` keeps frames whole on the way out
    without stopping readers while a write blocks.
    """

    def __init__(self, conn) -> None:
        self.conn = conn
        self.fd = conn.fileno()
        self.loop: asyncio.AbstractEventLoop | None = None
        self.read_lock = threading.Lock()
        self.send_lock = threading.Lock()
        self._poller = select.poll()
        self._poller.register(self.fd, select.POLLIN)

    def ready(self) -> bool:
        """Whether a frame (or EOF) is waiting; call under ``read_lock``."""
        return bool(self._poller.poll(0))


@dataclass
class _Shard:
    """Parent-side bookkeeping for one worker process."""

    id: int
    process: multiprocessing.process.BaseProcess | None = None
    pipe: _Pipe | None = None
    alive: bool = False
    pid: int | None = None
    model_version: int = 0
    restarts: int = 0
    lock: threading.Lock = field(default_factory=threading.Lock)
    # item id -> (future, wire request); the wire request is None for a
    # metrics scrape, which has no baseline to degrade to.  Ids come
    # from ``ids`` under ``lock``.
    pending: dict = field(default_factory=dict)
    ids: Iterator[int] = field(default_factory=itertools.count)
    booted: threading.Event = field(default_factory=threading.Event)


class _PipeFuture(Future):
    """A blocking caller's future: ``result`` reads the pipe while it waits.

    The waiter reads unless another thread's running loop is the pipe's
    registered reader; then that loop resolves this future.
    """

    def __init__(self, engine: "ShardedForecastEngine", shard: _Shard,
                 pipe: _Pipe) -> None:
        super().__init__()
        self._engine = engine
        self._shard = shard
        self._pipe = pipe

    def result(self, timeout: float | None = None):
        deadline = None if timeout is None else time.monotonic() + timeout
        while not self.done():
            wait_s = _WAIT_SLICE_S
            if deadline is not None:
                wait_s = min(wait_s, deadline - time.monotonic())
                if wait_s <= 0:
                    break
            if not self._engine._read_blocking(self._shard, self._pipe, wait_s):
                wait_futures([self], timeout=wait_s)
        return super().result(timeout=0)


class ShardedForecastEngine(_EngineBase):
    """N worker processes behind one ForecastEngine-shaped front.

    Drop-in for :class:`~repro.serving.engine.ForecastEngine` wherever
    the serving tier consumes one (``Dispatcher``, ``ForecastServer``,
    the CLI): the same shared ``query``/``query_batch``/``fallback``/
    ``timeout_forecast`` surface plus ``submit``/``close``, the same
    :class:`~repro.serving.engine.Forecast` answers, the same metrics
    vocabulary (parent-side counters under ``shard.*`` on top).
    """

    def __init__(self, trace: AttackTrace, env: SimulationEnvironment,
                 config: SpatiotemporalConfig | None = None, *,
                 n_shards: int = 2,
                 store_path: str | Path | None = None,
                 factory: Callable | None = None,
                 max_workers_per_shard: int = 2,
                 timeout_s: float | None = None,
                 warm: bool = True,
                 prediction_cache_entries: int = 4096,
                 restart_backoff_s: float = 0.5,
                 max_restart_backoff_s: float = 8.0,
                 boot_timeout_s: float = 120.0,
                 drain_timeout_s: float = 10.0,
                 metrics: Telemetry | None = None,
                 mp_context: str | None = None) -> None:
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        super().__init__(trace, env, config, metrics, timeout_s)
        self.n_shards = n_shards
        self.restart_backoff_s = restart_backoff_s
        self.max_restart_backoff_s = max_restart_backoff_s
        self.boot_timeout_s = boot_timeout_s
        self.drain_timeout_s = drain_timeout_s
        self._boot_template = ShardBoot(
            shard_id=-1, n_shards=n_shards, trace=trace, env=env,
            config=config,
            store_path=str(store_path) if store_path is not None else None,
            max_workers=max_workers_per_shard, timeout_s=timeout_s,
            warm=warm, prediction_cache_entries=prediction_cache_entries,
            factory=factory,
        )
        # fork keeps worker boot cheap on POSIX (the trace and imports
        # are inherited); spawn is the portable fallback.
        methods = multiprocessing.get_all_start_methods()
        method = mp_context or ("fork" if "fork" in methods else "spawn")
        self._mp = multiprocessing.get_context(method)
        self._shards = [_Shard(id=i) for i in range(n_shards)]
        self._threads: list[threading.Thread] = []
        self._state_lock = threading.Lock()
        self._started = False
        self._stopping = False

    # ----- lifecycle -----

    def start(self) -> "ShardedForecastEngine":
        """Boot every shard and wait for first boot attempts (idempotent).

        Shards whose first boot fails stay in degraded mode (baseline
        answers) while their lifecycle thread keeps retrying with
        bounded backoff; ``start`` does not raise for them.
        """
        with self._state_lock:
            if self._closed:
                raise EngineClosedError("engine is closed")
            if self._started:
                return self
            self._started = True
            for shard in self._shards:
                thread = threading.Thread(
                    target=self._shard_loop, args=(shard,),
                    name=f"shard-{shard.id}", daemon=True,
                )
                self._threads.append(thread)
                thread.start()
        deadline = time.monotonic() + self.boot_timeout_s
        for shard in self._shards:
            shard.booted.wait(max(0.0, deadline - time.monotonic()))
        return self

    def close(self) -> None:
        """Drain in-flight queries, then reject new ones (idempotent).

        In-flight work (futures already handed out) completes with real
        answers up to ``drain_timeout_s``; anything still pending at the
        deadline resolves to a degraded baseline answer -- callers never
        hang on a dead worker.  Workers are then stopped and joined.
        Replies are read by the registered loop when one runs on another
        thread, and by this call otherwise.
        """
        with self._state_lock:
            if self._closed:
                return
            self._closed = True
            started = self._started
        if not started:
            return
        deadline = time.monotonic() + self.drain_timeout_s
        for shard in self._shards:
            while time.monotonic() < deadline:
                with shard.lock:
                    if not shard.pending:
                        break
                    pipe = shard.pipe
                if pipe is None or not self._read_blocking(shard, pipe, 0.005):
                    time.sleep(0.005)
        self._stopping = True
        for shard in self._shards:
            with shard.lock:
                self._fail_pending_locked(
                    shard, "engine closed before the shard answered")
                pipe = shard.pipe
            if pipe is not None:
                try:
                    with pipe.send_lock:
                        pipe.conn.send(("stop",))
                except (BrokenPipeError, OSError):
                    pass
        for thread in self._threads:
            thread.join(timeout=self.drain_timeout_s)
        for shard in self._shards:
            process = shard.process
            if process is not None and process.is_alive():
                process.terminate()
                process.join(timeout=2.0)
                if process.is_alive():
                    process.kill()
                    process.join(timeout=2.0)
        self.metrics.incr("shard.closes")

    def __enter__(self) -> "ShardedForecastEngine":
        return self.start()

    # ----- queries -----

    def shard_for(self, request: ForecastRequest) -> int:
        """Which shard owns this request's (asn, family) slice."""
        return shard_index(request.asn, request.family, self.n_shards)

    def submit(self, request: ForecastRequest, trace_id: str | None = None, *,
               timeout_s: object = _UNSET) -> Future | asyncio.Future:
        """Schedule one request on its shard; resolves to a Forecast.

        Writes a one-item ``query`` frame from the caller's thread.
        Called on a running event loop, it returns that loop's future
        and the loop reads the reply itself (``loop.add_reader`` on the
        shard's pipe); elsewhere the future's ``result`` reads it.  The
        future never carries an exception from the answer path: a dead
        shard, a worker error, or a crash mid-request all resolve to the
        §VII-A baseline (``degraded: true``).  Raises
        :class:`EngineClosedError` once :meth:`close` has begun.
        ``trace_id`` rides the pipe so the worker stamps its
        ``shard.query`` span into the answer.
        """
        self._ensure_open()
        self.metrics.incr("serving.queries")
        [future] = self._send(self._shards[self.shard_for(request)], [request],
                              self._resolve_timeout(timeout_s), trace_id,
                              _running_loop())
        return future

    def model_version(self) -> int:
        """Highest model version any live shard reported at boot."""
        return max((s.model_version for s in self._shards), default=0)

    def shard_pids(self) -> list[int | None]:
        """Worker PIDs by shard index (None while a shard is down)."""
        return [shard.pid if shard.alive else None for shard in self._shards]

    def metrics_snapshot(self, include_workers: bool = True,
                         worker_timeout_s: float = 1.0) -> dict:
        """Parent telemetry plus per-shard status and worker snapshots.

        Worker snapshots ride the same pipes as queries; a shard too
        busy (or dead) to answer within ``worker_timeout_s`` reports
        only its parent-side status.  Safe on the event loop thread: a
        blocked loop cannot run its reader, so this call reads instead.
        """
        snapshot = self.metrics.snapshot()
        shards: dict[str, dict] = {}
        pending_metrics: list[tuple[_Shard, Future]] = []
        for shard in self._shards:
            with shard.lock:
                status = {
                    "alive": shard.alive,
                    "pid": shard.pid,
                    "restarts": shard.restarts,
                    "model_version": shard.model_version,
                    "inflight": len(shard.pending),
                }
            shards[str(shard.id)] = status
            if include_workers and shard.alive and not self._closed:
                future = self._scrape(shard)
                if future is not None:
                    pending_metrics.append((shard, future))
        deadline = time.monotonic() + worker_timeout_s
        for shard, future in pending_metrics:
            try:
                shards[str(shard.id)]["worker"] = future.result(
                    timeout=max(0.0, deadline - time.monotonic()))
            except (TimeoutError, Exception):
                shards[str(shard.id)]["worker"] = None
        snapshot["shards"] = shards
        snapshot["n_shards"] = self.n_shards
        return snapshot

    # ----- internals -----

    def _ensure_open(self) -> None:
        super()._ensure_open()
        if not self._started:
            self.start()

    def _start(self, requests: Sequence[ForecastRequest],
               timeout: float | None, trace_id: str | None) -> list[Future]:
        """Partition by owner shard: one ``query`` frame per shard."""
        slots: dict[int, list[int]] = {}
        for i, request in enumerate(requests):
            slots.setdefault(self.shard_for(request), []).append(i)
        futures: list[Future] = [None] * len(requests)  # type: ignore[list-item]
        for shard_id, indices in slots.items():
            sent = self._send(self._shards[shard_id],
                              [requests[i] for i in indices], timeout, trace_id)
            for i, future in zip(indices, sent):
                futures[i] = future
        return futures

    def _patience(self, timeout: float) -> float:
        """How long the parent waits before degrading locally.

        The worker applies the same timeout and answers with its own
        baseline in time; the grace keeps the parent from racing it and
        only fires when the worker is stuck or the pipe is backed up.
        """
        return timeout + max(0.25, 0.1 * timeout)

    def _stamp_trace(self, forecast: Forecast, trace_id: str | None,
                     start_s: float) -> None:
        """No parent hop: the worker's engine stamped the answer's spans."""

    def _send(self, shard: _Shard, requests: list[ForecastRequest],
              timeout: float | None, trace_id: str | None,
              loop: asyncio.AbstractEventLoop | None = None) -> list:
        """Write one ``query`` frame; resolve to baseline if the shard is down.

        With a ``loop``, the futures are that loop's and its reader is
        registered on the pipe; without one they read the pipe
        themselves (:class:`_PipeFuture`).  A backlog of unanswered
        items is read first, so a worker never blocks on a full pipe
        while this caller writes to it.
        """
        pipe = shard.pipe
        if pipe is not None and len(shard.pending) > _DRAIN_ABOVE \
                and not self._loop_reads(pipe):
            self._on_readable(shard, pipe)
        with shard.lock:
            pipe = shard.pipe if shard.alive else None
            if pipe is not None:
                if loop is not None and pipe.loop is not loop:
                    self._attach_locked(shard, pipe, loop)
                futures = [loop.create_future() if loop is not None
                           else _PipeFuture(self, shard, pipe)
                           for _ in requests]
                items = []
                for future, request in zip(futures, requests):
                    item_id = next(shard.ids)
                    wire_request = _request_to_wire(request)
                    shard.pending[item_id] = (future, wire_request)
                    items.append((item_id, wire_request, timeout, trace_id))
        if pipe is not None:
            if self._write(shard, pipe, "query", ("query", items),
                           [item[0] for item in items]):
                return futures
        else:
            futures = [loop.create_future() if loop is not None else Future()
                       for _ in requests]
        self.metrics.incr("shard.down_shard_answers")
        error = (f"shard {shard.id} is down (restarting); "
                 "serving the naive baseline")
        for future, request in zip(futures, requests):
            _resolve(future, self.fallback(request, error=error))
        return futures

    def _scrape(self, shard: _Shard) -> Future | None:
        """Ask one worker for its metrics snapshot; None when it is down."""
        with shard.lock:
            pipe = shard.pipe
            if not shard.alive or pipe is None:
                return None
            future = _PipeFuture(self, shard, pipe)
            req_id = next(shard.ids)
            shard.pending[req_id] = (future, None)
        if not self._write(shard, pipe, "metrics", ("metrics", req_id),
                           [req_id]):
            return None
        return future

    def _write(self, shard: _Shard, pipe: _Pipe, op: str, frame: tuple,
               item_ids: Sequence[int]) -> bool:
        """Send one frame whole; on failure forget its pending items."""
        try:
            with pipe.send_lock:
                chaos_point(f"shard.send[{shard.id}]", op=op)
                pipe.conn.send(frame)
            return True
        except (BrokenPipeError, OSError):
            with shard.lock:
                for item_id in item_ids:
                    shard.pending.pop(item_id, None)
            return False

    def _fail_pending_locked(self, shard: _Shard, reason: str) -> None:
        """Resolve every pending future to a baseline answer (lock held)."""
        pending, shard.pending = shard.pending, {}
        error = f"shard {shard.id}: {reason}; serving the naive baseline"
        for future, wire_request in pending.values():
            if wire_request is None:  # a metrics scrape: no baseline to give
                _resolve(future, None)
                continue
            self.metrics.incr("shard.failed_inflight")
            _resolve(future, self.fallback(_request_from_wire(wire_request),
                                           error=error))

    # ----- reading replies: one read site, two kinds of reader -----

    def _attach_locked(self, shard: _Shard, pipe: _Pipe,
                       loop: asyncio.AbstractEventLoop) -> None:
        """Make ``loop`` (running on this thread) the pipe's reader.

        A loop running on another thread keeps the pipe: it resolves
        this loop's futures thread-safely.  A stopped one hands it over.
        """
        current = pipe.loop
        if current is not None and not current.is_closed():
            if current.is_running():
                return
            current.remove_reader(pipe.fd)
        loop.add_reader(pipe.fd, self._on_readable, shard, pipe)
        pipe.loop = loop

    def _loop_reads(self, pipe: _Pipe) -> bool:
        """Whether another thread's running loop reads this pipe."""
        loop = pipe.loop
        return (loop is not None and loop.is_running()
                and loop is not _running_loop())

    def _read_blocking(self, shard: _Shard, pipe: _Pipe,
                       wait_s: float) -> bool:
        """A blocking waiter's turn: wait up to ``wait_s``, read what is ready.

        Returns False, having waited for nothing, when this thread must
        not read: the pipe is gone, or another thread's loop reads it.
        """
        if shard.pipe is not pipe or self._loop_reads(pipe):
            return False
        try:
            pipe.conn.poll(wait_s)
        except (EOFError, OSError):
            pass  # closed under us: the read below takes the EOF path
        self._on_readable(shard, pipe)
        return True

    def _on_readable(self, shard: _Shard, pipe: _Pipe) -> None:
        """Dispatch every frame ready on ``pipe`` (the loop's reader)."""
        while (message := self._read(shard, pipe)) is not None:
            self._on_frame(shard, message)

    def _read(self, shard: _Shard, pipe: _Pipe):
        """Take one ready frame off the pipe; None when none is ready.

        The worker writes each reply with one ``send``, so a readable
        pipe holds a whole frame.  Any EOF detaches the pipe.
        """
        try:
            with pipe.read_lock:
                if not pipe.ready():
                    return None
                chaos_point(f"shard.pump[{shard.id}]")
                return pipe.conn.recv()
        except (EOFError, OSError):
            self._on_eof(shard, pipe)
            return None

    def _on_frame(self, shard: _Shard, message: tuple) -> None:
        """Resolve the futures one reply frame answers."""
        if message[0] == "metrics":
            _, req_id, snapshot = message
            entries = [(req_id, "metrics", snapshot)]
        else:
            entries = message[1]
        for item_id, kind, payload in entries:
            with shard.lock:
                entry = shard.pending.pop(item_id, None)
            if entry is None:
                continue  # caller gave up (parent timeout); drop it
            future, wire_request = entry
            _resolve(future, payload if kind == "metrics" else
                     self._decode(shard, kind, payload, wire_request))

    def _on_eof(self, shard: _Shard, pipe: _Pipe) -> None:
        """Read-side EOF: stop reading, close the parent end, end the worker.

        The worker exits on EOF (a forked sibling may still hold this end
        open, so it is also told to terminate); the lifecycle thread sees
        its sentinel and fails pending work, backs off, and restarts it.
        """
        with shard.lock:
            process = shard.process if shard.pipe is pipe else None
        self._detach(shard, pipe)
        if process is not None:
            process.terminate()

    def _detach(self, shard: _Shard, pipe: _Pipe) -> None:
        """Stop reading ``pipe`` and close it: the reader goes before the fd."""
        with shard.lock:
            if shard.pipe is not pipe:
                return
            shard.pipe = None
            loop, pipe.loop = pipe.loop, None
        if (loop is not None and loop.is_running()
                and loop is not _running_loop()):
            try:
                loop.call_soon_threadsafe(_close_pipe, pipe, loop)
                return
            except RuntimeError:  # closed meanwhile, with its selector
                loop = None
        _close_pipe(pipe, loop)

    def _decode(self, shard: _Shard, kind: str, payload: dict,
                wire_request: dict) -> Forecast:
        """One reply entry as a Forecast, enforcing the forecast schema.

        An ``error`` entry or an entry in another schema degrades to the
        parent's §VII-A baseline and is counted.
        """
        if kind == "error":
            self.metrics.incr("shard.worker_errors")
            return self.fallback(_request_from_wire(wire_request),
                                 error=payload.get("error", "worker error"))
        try:
            if payload.get("schema_version") != FORECAST_SCHEMA_VERSION:
                raise ValueError(
                    f"shard {shard.id} speaks forecast schema "
                    f"{payload.get('schema_version')!r}, parent reads "
                    f"{FORECAST_SCHEMA_VERSION}")
            return Forecast.from_dict(payload)
        except Exception as exc:
            self.metrics.incr("shard.wire_errors")
            return self.fallback(_request_from_wire(wire_request),
                                 error=str(exc))

    # ----- per-shard lifecycle thread -----

    def _shard_loop(self, shard: _Shard) -> None:
        """Boot, watch, and (with bounded backoff) restart one worker."""
        backoff = self.restart_backoff_s
        first = True
        while not self._stopping and not self._closed:
            booted = self._boot_shard(shard, first_boot=first)
            shard.booted.set()
            # A boot that lands after close() began missed its "stop";
            # skip the watch so the reap below ends the worker instead.
            if booted and not self._stopping:
                backoff = self.restart_backoff_s  # healthy boot resets it
                wait_ready([shard.process.sentinel])
            with shard.lock:
                shard.alive = False
                self._fail_pending_locked(shard, "worker died")
            if self._stopping or self._closed:
                break
            self.metrics.incr("shard.worker_deaths" if booted
                              else "shard.boot_failures")
            if not first or not booted:
                time.sleep(backoff)
                backoff = min(backoff * 2, self.max_restart_backoff_s)
            first = False
        self._reap(shard)

    def _boot_shard(self, shard: _Shard, first_boot: bool) -> bool:
        self._reap(shard)
        boot = ShardBoot(**{**self._boot_template.__dict__,
                            "shard_id": shard.id})
        # Forked siblings inherit open descriptors: a worker forked while
        # this pipe's child end is still open in the parent would keep it
        # alive, and this worker's death would never read as EOF.
        with _SPAWN_LOCK:
            parent_conn, child_conn = self._mp.Pipe(duplex=True)
            process = self._mp.Process(
                target=_shard_main, args=(child_conn, boot, parent_conn),
                name=f"repro-shard-{shard.id}", daemon=True,
            )
            try:
                process.start()
            except Exception:
                parent_conn.close()
                return False
            finally:
                child_conn.close()
        if not parent_conn.poll(self.boot_timeout_s):
            process.terminate()
            parent_conn.close()
            return False
        try:
            kind, info = parent_conn.recv()
        except (EOFError, OSError):
            process.terminate()
            parent_conn.close()
            return False
        if kind != "ready":
            self.metrics.incr("shard.boot_errors")
            process.join(timeout=2.0)
            parent_conn.close()
            return False
        with shard.lock:
            shard.process = process
            shard.pipe = _Pipe(parent_conn)
            shard.pid = info.get("pid")
            shard.model_version = int(info.get("model_version", 0))
            shard.alive = True
            if not first_boot:
                shard.restarts += 1
        self.metrics.incr("shard.boots")
        return True

    def _reap(self, shard: _Shard) -> None:
        with shard.lock:
            process, shard.process = shard.process, None
            pipe = shard.pipe
        if pipe is not None:
            self._detach(shard, pipe)
        if process is not None:
            process.join(timeout=2.0)
            if process.is_alive():
                process.kill()
                process.join(timeout=2.0)


def _running_loop() -> asyncio.AbstractEventLoop | None:
    """The event loop running on this thread, if any."""
    try:
        return asyncio.get_running_loop()
    except RuntimeError:
        return None


def _close_pipe(pipe: _Pipe, loop: asyncio.AbstractEventLoop | None) -> None:
    """Unregister the pipe's reader from ``loop``, then close the pipe."""
    if loop is not None and not loop.is_closed():
        loop.remove_reader(pipe.fd)
    try:
        pipe.conn.close()
    except OSError:
        pass


def _resolve(future, value) -> None:
    """Set a result from any thread, tolerating callers that gave up.

    A loop future is set directly on its own loop's thread and through
    ``call_soon_threadsafe`` from any other; one whose loop has closed
    is dropped (nobody can await it).
    """
    if isinstance(future, asyncio.Future):
        loop = future.get_loop()
        if loop is _running_loop():
            _set_result(future, value)
            return
        try:
            loop.call_soon_threadsafe(_set_result, future, value)
        except RuntimeError:  # loop closed
            pass
        return
    _set_result(future, value)


def _set_result(future, value) -> None:
    if future.done():
        return
    try:
        future.set_result(value)
    except Exception:  # InvalidStateError: caller resolved/cancelled first
        pass

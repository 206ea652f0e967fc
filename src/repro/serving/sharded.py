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
                   (parent: routing,       +--> worker 1: ModelRegistry + ForecastEngine
                    restart, §VII-A        +--> ...
                    degradation)           (multiprocessing pipes)

Operational contracts (all mirrored from the single-process tier so
the two paths cannot drift):

* **Wire format** -- one ``("query", items)`` frame per shard and
  call, each item ``(item_id, request, timeout, trace_id)``; one
  ``("forecast", entries)`` reply with a ``forecast`` or ``error``
  entry per item, so a poisoned item degrades only itself.  Forecast
  entries are the existing ``FORECAST_SCHEMA_VERSION`` dicts
  (``Forecast.to_dict()``), rebuilt via ``Forecast.from_dict``; an
  entry in a different schema is degraded, not trusted.
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

import hashlib
import itertools
import multiprocessing
import os
import signal
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field
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


@dataclass
class _Shard:
    """Parent-side bookkeeping for one worker process."""

    id: int
    process: multiprocessing.process.BaseProcess | None = None
    conn: object = None
    alive: bool = False
    pid: int | None = None
    model_version: int = 0
    restarts: int = 0
    lock: threading.Lock = field(default_factory=threading.Lock)
    # item id -> (Future, wire request); the wire request is None for a
    # metrics scrape, which has no baseline to degrade to.  Ids come
    # from ``ids`` under ``lock``.
    pending: dict = field(default_factory=dict)
    ids: Iterator[int] = field(default_factory=itertools.count)
    booted: threading.Event = field(default_factory=threading.Event)


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
                time.sleep(0.005)
        self._stopping = True
        for shard in self._shards:
            with shard.lock:
                self._fail_pending_locked(
                    shard, "engine closed before the shard answered")
                if shard.conn is not None:
                    try:
                        shard.conn.send(("stop",))
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
               timeout_s: object = _UNSET) -> Future:
        """Schedule one request on its shard; resolves to a Forecast.

        Writes a one-item ``query`` frame from the caller's thread.  The
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
                              self._resolve_timeout(timeout_s), trace_id)
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
        only its parent-side status.
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
              timeout: float | None, trace_id: str | None) -> list[Future]:
        """Write one ``query`` frame; resolve to baseline if the shard is down."""
        futures = [Future() for _ in requests]
        with shard.lock:
            if shard.alive and shard.conn is not None:
                items = []
                for future, request in zip(futures, requests):
                    item_id = next(shard.ids)
                    wire_request = _request_to_wire(request)
                    shard.pending[item_id] = (future, wire_request)
                    items.append((item_id, wire_request, timeout, trace_id))
                try:
                    chaos_point(f"shard.send[{shard.id}]", op="query")
                    shard.conn.send(("query", items))
                    return futures
                except (BrokenPipeError, OSError):
                    for item in items:
                        shard.pending.pop(item[0], None)
        self.metrics.incr("shard.down_shard_answers")
        error = (f"shard {shard.id} is down (restarting); "
                 "serving the naive baseline")
        for future, request in zip(futures, requests):
            _resolve(future, self.fallback(request, error=error))
        return futures

    def _scrape(self, shard: _Shard) -> Future | None:
        """Ask one worker for its metrics snapshot; None when it is down."""
        future: Future = Future()
        with shard.lock:
            if not shard.alive or shard.conn is None:
                return None
            req_id = next(shard.ids)
            shard.pending[req_id] = (future, None)
            try:
                chaos_point(f"shard.send[{shard.id}]", op="metrics")
                shard.conn.send(("metrics", req_id))
            except (BrokenPipeError, OSError):
                shard.pending.pop(req_id, None)
                return None
        return future

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

    # ----- per-shard lifecycle thread -----

    def _shard_loop(self, shard: _Shard) -> None:
        """Boot, pump, and (with bounded backoff) restart one worker."""
        backoff = self.restart_backoff_s
        first = True
        while not self._stopping and not self._closed:
            booted = self._boot_shard(shard, first_boot=first)
            shard.booted.set()
            # A boot that lands after close() began missed its "stop";
            # skip the pump so the reap below ends the worker instead.
            if booted and not self._stopping:
                backoff = self.restart_backoff_s  # healthy boot resets it
                self._pump(shard)
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
            shard.conn = parent_conn
            shard.pid = info.get("pid")
            shard.model_version = int(info.get("model_version", 0))
            shard.alive = True
            if not first_boot:
                shard.restarts += 1
        self.metrics.incr("shard.boots")
        return True

    def _pump(self, shard: _Shard) -> None:
        """Deliver worker replies to their futures until EOF."""
        conn = shard.conn
        while True:
            try:
                chaos_point(f"shard.pump[{shard.id}]")
                message = conn.recv()
            except (EOFError, OSError):
                return
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

    def _reap(self, shard: _Shard) -> None:
        with shard.lock:
            process, shard.process = shard.process, None
            conn, shard.conn = shard.conn, None
        if conn is not None:
            try:
                conn.close()
            except OSError:
                pass
        if process is not None:
            process.join(timeout=2.0)
            if process.is_alive():
                process.kill()
                process.join(timeout=2.0)


def _resolve(future: Future, value) -> None:
    """Set a result, tolerating callers that cancelled or raced us."""
    if future.cancelled():
        return
    try:
        future.set_result(value)
    except Exception:  # InvalidStateError: caller resolved/cancelled first
        pass

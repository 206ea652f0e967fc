"""Traced ``repro serve-http`` launcher: per-layer timers from outside.

Usage::

    python benchmarks/e2e/traced_server.py --out DIR -- serve-http [flags]
    python benchmarks/e2e/traced_server.py --spin N -- serve-http [flags]

It imports ``repro.cli``, wraps each layer's public functions with
timers, adds a 1 ms event-loop lag ticker, then calls
``repro.cli.main``.  Per probe it keeps calls, wall time and self time
(wall time minus nested wrapped calls on the same thread).  Coroutines
interleave on the loop, so their probes keep wall time only.

``--spin N`` instead makes every ``Dispatcher.handle`` call first run
:func:`spin` for ``N`` iterations on the event loop: a known server
slowdown, which ``python -m benchmarks.e2e validate`` uses to check that
host-speed normalization keeps the size of a real change.

Shard workers are forked, so the wrappers carry into them, but they
leave through ``os._exit``.  Every process therefore rewrites
``DIR/stats-<pid>.json`` each ``FLUSH_S`` (cumulative, so a reader
diffs two snapshots) and appends its loop-lag samples, in µs, to
``DIR/lag-<pid>.f32``.
"""

from __future__ import annotations

import argparse
import array
import asyncio
import collections
import functools
import importlib
import json
import os
import threading
import time
from pathlib import Path

FLUSH_S = 0.1
TICK_S = 0.001

#: (probe, module, attribute) -- patched where the caller looks it up.
#: ``kind`` is "sync", "async", or "future" (the returned future's
#: done time minus submit time minus the answer's own ``latency_s``).
PROBES = (
    ("server.read_request", "repro.server.server", "read_http_request", "async"),
    ("server.handle", "repro.server.dispatcher", "Dispatcher.handle", "async"),
    ("server.encode", "repro.server.server", "render_response", "sync"),
    ("server.encode", "repro.serving.engine", "Forecast.to_dict", "sync"),
    ("server.ingest_append", "repro.ingest.journal", "RecordJournal.append_many", "sync"),
    ("serving.pool_wait", "repro.serving.engine", "ForecastEngine.submit", "future"),
    ("serving.shard_rtt", "repro.serving.sharded", "ShardedForecastEngine.submit", "future"),
    ("serving.registry_get", "repro.serving.registry", "ModelRegistry.get", "sync"),
    ("serving.cache_get", "repro.serving.cache", "LRUTTLCache.get", "sync"),
    ("serving.fallback", "repro.serving.engine", "BaselineFallback.forecast", "sync"),
    ("serving.fallback_scan", "repro.dataset.records", "AttackTrace.by_target_asn", "sync"),
    ("serving.fallback_scan", "repro.dataset.records", "AttackTrace.by_family", "sync"),
    ("core.predict", "repro.core.pipeline", "AttackPredictor.predict_next_for_network", "sync"),
    ("core.context", "repro.core.spatiotemporal", "HistoryIndex.recent_same_as", "sync"),
    ("core.context", "repro.core.spatiotemporal", "HistoryIndex.recent_global", "sync"),
    ("core.context", "repro.core.spatiotemporal", "HistoryIndex.recent_family", "sync"),
    ("core.temporal", "repro.core.temporal", "FamilyTemporalModel.predict_next_hour", "sync"),
    ("core.temporal", "repro.core.temporal", "FamilyTemporalModel.predict_next_interval", "sync"),
    ("core.spatial", "repro.core.spatial", "SpatialModel.predict_next_hour", "sync"),
    ("core.spatial", "repro.core.spatial", "SpatialModel.predict_next_interval", "sync"),
    ("core.spatial", "repro.core.spatial", "SpatialModel.predict_next_duration", "sync"),
    ("core.tree", "repro.tree.model_tree", "ModelTree.predict", "sync"),
    ("core.features", "repro.core.spatiotemporal", "SpatiotemporalModel.predict_context", "sync"),
    ("telemetry", "repro.telemetry.metrics", "Telemetry.incr", "sync"),
    ("telemetry", "repro.telemetry.metrics", "Telemetry.observe", "sync"),
    ("setup.load_trace", "repro.cli", "load_trace", "sync"),
    ("setup.restore", "repro.serving.registry", "ModelRegistry.load", "sync"),
    ("setup.restore", "repro.serving.sharded", "ShardedForecastEngine.start", "sync"),
)


class Recorder:
    """Per-thread probe tables for one process, flushed to files."""

    def __init__(self, out_dir: Path) -> None:
        self.out_dir = out_dir
        self._reset()

    def _reset(self) -> None:
        # Also the post-fork path: locks held by threads the child does
        # not inherit must be replaced, not reused.
        self._tables: list[dict[str, list[int]]] = []
        self._tables_lock = threading.Lock()
        self.lag_us: collections.deque[float] = collections.deque()
        self._local = threading.local()

    def _thread_state(self) -> tuple[list, dict]:
        local = self._local
        try:
            return local.stack, local.table
        except AttributeError:
            local.stack, local.table = [], {}
            with self._tables_lock:
                self._tables.append(local.table)
            return local.stack, local.table

    def add(self, probe: str, wall_ns: int, self_ns: int) -> None:
        _, table = self._thread_state()
        row = table.get(probe)
        if row is None:
            row = table[probe] = [0, 0, 0]
        row[0] += 1
        row[1] += wall_ns
        row[2] += self_ns

    # ----- wrappers -----

    def wrap_sync(self, probe: str, fn):
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            stack, table = self._thread_state()
            nested = [0]
            stack.append(nested)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                wall = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += wall
                # add() inlined: this runs on every wrapped call
                row = table.get(probe)
                if row is None:
                    row = table[probe] = [0, 0, 0]
                row[0] += 1
                row[1] += wall
                row[2] += wall - nested[0]
        return timed

    def wrap_async(self, probe: str, fn):
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        async def timed(*args, **kwargs):
            t0 = clock()
            try:
                return await fn(*args, **kwargs)
            finally:
                wall = clock() - t0
                self.add(probe, wall, wall)
        return timed

    def wrap_future(self, probe: str, fn):
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            t0 = clock()
            future = fn(*args, **kwargs)

            def done(f) -> None:
                if f.cancelled() or f.exception() is not None:
                    return
                wait = clock() - t0 - int(f.result().latency_s * 1e9)
                self.add(probe, wait, wait)
            future.add_done_callback(done)
            return future
        return timed

    def install(self) -> None:
        wrappers = {"sync": self.wrap_sync, "async": self.wrap_async,
                    "future": self.wrap_future}
        for probe, module_name, attribute, kind in PROBES:
            owner = importlib.import_module(module_name)
            *path, name = attribute.split(".")
            for part in path:
                owner = getattr(owner, part)
            setattr(owner, name, wrappers[kind](probe, getattr(owner, name)))
        from repro.server.server import ForecastServer

        start = ForecastServer.start

        @functools.wraps(start)
        async def start_with_ticker(server, *args, **kwargs):
            started = await start(server, *args, **kwargs)
            self._start_ticker(asyncio.get_running_loop())
            return started
        ForecastServer.start = start_with_ticker

    def _start_ticker(self, loop: asyncio.AbstractEventLoop) -> None:
        """Sample how late a 1 ms timer fires: time the loop was busy."""
        def tick(due: float) -> None:
            now = loop.time()
            self.lag_us.append(max(0.0, now - due) * 1e6)
            loop.call_at(now + TICK_S, tick, now + TICK_S)
        first = loop.time() + TICK_S
        loop.call_at(first, tick, first)

    # ----- output -----

    def flush(self) -> None:
        totals: dict[str, list[int]] = {}
        with self._tables_lock:
            tables = list(self._tables)
        for table in tables:
            for probe, row in list(table.items()):
                total = totals.setdefault(probe, [0, 0, 0])
                for i in range(3):
                    total[i] += row[i]
        pid = os.getpid()
        path = self.out_dir / f"stats-{pid}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps({"pid": pid, "probes": totals}),
                       encoding="utf-8")
        os.replace(tmp, path)
        samples = array.array("f")
        while self.lag_us:
            samples.append(self.lag_us.popleft())
        if samples:
            with open(self.out_dir / f"lag-{pid}.f32", "ab") as handle:
                samples.tofile(handle)

    def start_flusher(self) -> None:
        def loop() -> None:
            while True:
                time.sleep(FLUSH_S)
                self.flush()
        threading.Thread(target=loop, name="trace-flush", daemon=True).start()

    def after_fork_in_child(self) -> None:
        """A forked worker starts from empty tables and flushes itself."""
        self._reset()
        self.start_flusher()


def spin(iterations: int) -> int:
    """Fixed interpreter work: its cost follows host speed like the server's."""
    total = 0
    for i in range(iterations):
        total += i & 7
    return total


def install_spin(iterations: int) -> None:
    from repro.server.dispatcher import Dispatcher

    handle = Dispatcher.handle

    @functools.wraps(handle)
    async def spun(*args, **kwargs):
        spin(iterations)
        return await handle(*args, **kwargs)
    Dispatcher.handle = spun


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--out", type=Path,
                      help="directory for stats-<pid>.json and lag-<pid>.f32")
    mode.add_argument("--spin", type=int,
                      help="iterations of spin() added to each Dispatcher.handle")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER,
                        help="-- then the repro command line")
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args
    if args.spin is not None:
        import repro.cli
        install_spin(args.spin)
        return repro.cli.main(cli_args)

    t0 = time.perf_counter_ns()
    import repro.cli
    for _, module_name, _, _ in PROBES:
        importlib.import_module(module_name)
    import_ns = time.perf_counter_ns() - t0

    recorder = Recorder(args.out)
    recorder.add("setup.import", import_ns, import_ns)
    recorder.install()
    os.register_at_fork(after_in_child=recorder.after_fork_in_child)
    recorder.start_flusher()
    try:
        return repro.cli.main(cli_args)
    finally:
        recorder.flush()


if __name__ == "__main__":
    raise SystemExit(main())

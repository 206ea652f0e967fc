"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``generate`` -- synthesize a trace and write it to disk.
* ``table1`` -- print the Table I activity statistics of a trace.
* ``evaluate`` -- fit the models and print the paper's tables/figures.
* ``predict`` -- forecast the next attack on a network.
* ``serve`` -- run the in-process forecast service over a batch of
  queries and print answers plus a metrics snapshot.
* ``serve-http`` -- run the asyncio network front end: concurrent
  forecast queries over plain sockets (HTTP/1.1 + optional
  length-prefixed JSON), warm-started from a model store.
* ``serve-cluster`` -- boot N supervised ``serve-http`` replicas from
  one model store; crashed replicas restart with bounded backoff.
* ``export-models`` -- fit once and snapshot the fitted registry to a
  model store directory for later ``predict``/``serve``/``serve-http``
  ``--store`` runs.

``predict`` can also answer through a live replica set instead of a
local model: ``--endpoints host:port,host:port`` (or ``--cluster-config
cluster.json``) routes the question through the failover client, which
walks the replicas and degrades to the §VII-A baseline only when every
one is down.

Every command accepts the same dataset options: either ``--trace path``
(a persisted trace; the environment is rebuilt from its metadata) or
generation parameters (``--days/--seed/--scale/--targets``).

Exit codes: 0 success, 1 nothing to serve/predict, 2 bad arguments,
``EXIT_BIND_FAILURE`` (3) when a listen address cannot be bound, and
``EXIT_BAD_STORE`` (4) when ``serve``/``serve-http`` are pointed at a
``--store`` path that is not a model store -- distinct codes so
process supervisors can tell a port conflict from a deployment mistake.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.core import AttackPredictor
from repro.dataset import (
    DatasetConfig,
    SimulationEnvironment,
    TraceGenerator,
    load_trace,
    save_trace,
)

__all__ = ["main", "build_parser", "EXIT_BIND_FAILURE", "EXIT_BAD_STORE"]

#: A serve/serve-http listen socket could not be bound (port in use,
#: privileged port, bad interface).
EXIT_BIND_FAILURE = 3

#: A --store path handed to serve/serve-http is not a model store.
EXIT_BAD_STORE = 4


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Adversary-centric DDoS behavior modeling (ICDCS 2017 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_dataset_args(p: argparse.ArgumentParser) -> None:
        """The one shared dataset options group every command gets.

        ``--trace`` loads a persisted trace (its metadata rebuilds the
        environment); otherwise the generation parameters synthesize
        one.
        """
        group = p.add_argument_group(
            "dataset", "persisted trace or generation parameters"
        )
        group.add_argument("--trace", help="persisted trace path")
        group.add_argument("--days", type=int, default=60,
                           help="observation window")
        group.add_argument("--seed", type=int, default=0, help="world seed")
        group.add_argument("--scale", type=float, default=1.0,
                           help="rate multiplier")
        group.add_argument("--targets", type=int, default=80,
                           help="victim count")

    gen = sub.add_parser("generate", help="synthesize and persist a trace")
    add_dataset_args(gen)
    gen.add_argument("--out", required=True, help="output path (.jsonl.gz)")

    table = sub.add_parser("table1", help="print Table I statistics")
    add_dataset_args(table)

    evaluate = sub.add_parser("evaluate", help="fit models, print experiments")
    add_dataset_args(evaluate)
    evaluate.add_argument(
        "--experiments",
        default="table1,fig1,fig2,fig34,comparison",
        help=("comma list: table1, fig1, fig2, fig34, comparison, fig5, "
              "goodness, signaling, detection"),
    )

    predict = sub.add_parser("predict", help="forecast the next attack")
    add_dataset_args(predict)
    predict.add_argument("--asn", type=int, help="target network (default: busiest)")
    predict.add_argument("--family", help="botnet family (default: most active)")
    predict.add_argument("--store",
                         help="model store directory; restore the fitted "
                              "model from it instead of refitting")
    predict.add_argument("--shards", type=int, default=1,
                         help="answer through N sharded worker processes "
                              "(1 = in-process)")
    predict.add_argument("--endpoints",
                         help="comma-separated replica list "
                              "(host:port,host:port); answer through the "
                              "failover client instead of a local model")
    predict.add_argument("--cluster-config",
                         help="JSON replica-set spec (alternative to "
                              "--endpoints)")
    predict.add_argument("--json", action="store_true",
                         help="emit the forecast as JSON")
    predict.add_argument("--show-trace", action="store_true",
                         help="trace the request end to end and print the "
                              "span tree (serving paths: --shards or "
                              "--endpoints/--cluster-config)")

    serve = sub.add_parser(
        "serve", help="answer a batch of forecast queries via the serving engine"
    )
    add_dataset_args(serve)
    serve.add_argument("--queries", type=int, default=32,
                       help="number of forecast queries to issue")
    serve.add_argument("--workers", type=int, default=4,
                       help="engine thread-pool size")
    serve.add_argument("--shards", type=int, default=1,
                       help="serve through N sharded worker processes "
                            "(1 = in-process)")
    serve.add_argument("--timeout", type=float, default=None,
                       help="per-request timeout in seconds")
    serve.add_argument("--store",
                       help="model store directory; warm-start the registry "
                            "from it instead of fitting on first query")
    serve.add_argument("--json", action="store_true",
                       help="emit forecasts + metrics as JSON")

    serve_http = sub.add_parser(
        "serve-http",
        help="serve forecasts over the network (asyncio HTTP + framed JSON)",
    )
    add_dataset_args(serve_http)
    serve_http.add_argument("--host", default="127.0.0.1",
                            help="listen interface")
    serve_http.add_argument("--port", type=int, default=8377,
                            help="HTTP listen port (0 = ephemeral)")
    serve_http.add_argument("--framed-port", type=int, default=None,
                            help="also listen for length-prefixed JSON "
                                 "clients on this port")
    serve_http.add_argument("--workers", type=int, default=1,
                            help="worker processes sharding the registry "
                                 "(1 = single in-process engine)")
    serve_http.add_argument("--worker-threads", type=int, default=4,
                            help="engine thread-pool size (per worker "
                                 "process when --workers > 1)")
    serve_http.add_argument("--timeout", type=float, default=10.0,
                            help="default per-request deadline in seconds "
                                 "(0 disables)")
    serve_http.add_argument("--max-connections", type=int, default=128,
                            help="concurrent socket cap (503 beyond it)")
    serve_http.add_argument("--max-inflight", type=int, default=64,
                            help="concurrent forecast cap (429 + baseline "
                                 "degradation beyond it)")
    serve_http.add_argument("--drain-timeout", type=float, default=10.0,
                            help="seconds to wait for in-flight forecasts "
                                 "on SIGTERM/SIGINT")
    serve_http.add_argument("--store",
                            help="model store directory (flat or versioned "
                                 "root); boot warm from it instead of "
                                 "refitting.  A store carrying an embedded "
                                 "trace snapshot supplies the trace too when "
                                 "--trace is absent")
    serve_http.add_argument("--journal",
                            help="record-journal directory; enables "
                                 "POST /v1/records (this replica becomes "
                                 "the journal's single writer)")
    serve_http.add_argument("--access-log", action="store_true",
                            help="emit one JSON access-log line per request "
                                 "on stderr")
    serve_http.add_argument("--access-log-sample", type=int, default=1,
                            metavar="N",
                            help="log every Nth request (slow and 5xx "
                                 "requests always log)")
    serve_http.add_argument("--slow-ms", type=float, default=None,
                            help="requests slower than this always log, "
                                 "flagged slow")

    serve_cluster = sub.add_parser(
        "serve-cluster",
        help="boot and supervise N serve-http replicas from one model store",
    )
    add_dataset_args(serve_cluster)
    serve_cluster.add_argument("--replicas", type=int, default=2,
                               help="replica count")
    serve_cluster.add_argument("--store", required=True,
                               help="model store directory every replica "
                                    "warm-boots from (run export-models "
                                    "first; N cold refits would defeat the "
                                    "point)")
    serve_cluster.add_argument("--host", default="127.0.0.1",
                               help="listen interface for every replica")
    serve_cluster.add_argument("--port", type=int, default=0,
                               help="base HTTP port; replica i listens on "
                                    "port+i (0 = one ephemeral port each)")
    serve_cluster.add_argument("--workers", type=int, default=1,
                               help="worker processes per replica "
                                    "(serve-http --workers)")
    serve_cluster.add_argument("--worker-threads", type=int, default=4,
                               help="engine threads per worker")
    serve_cluster.add_argument("--probe-interval", type=float, default=1.0,
                               help="seconds between /healthz probes")
    serve_cluster.add_argument("--failure-threshold", type=int, default=2,
                               help="consecutive probe failures before a "
                                    "replica is marked unready")
    serve_cluster.add_argument("--boot-timeout", type=float, default=120.0,
                               help="seconds a replica may take to become "
                                    "healthy before it is killed and retried")
    serve_cluster.add_argument("--drain-timeout", type=float, default=15.0,
                               help="seconds to wait for graceful drains "
                                    "on shutdown")
    serve_cluster.add_argument("--access-log", action="store_true",
                               help="replicas emit JSON access-log lines "
                                    "(pair with --log-dir to capture them)")
    serve_cluster.add_argument("--log-dir",
                               help="directory for per-replica log files")

    metrics_cmd = sub.add_parser(
        "metrics",
        help="fetch /metrics from a live replica (or merge a replica set)",
    )
    metrics_cmd.add_argument("endpoint", nargs="?",
                             help="one replica as host:port")
    metrics_cmd.add_argument("--endpoints",
                             help="comma-separated host:port list; the "
                                  "per-replica snapshots are merged into one "
                                  "cluster view")
    metrics_cmd.add_argument("--prometheus", action="store_true",
                             help="print Prometheus text exposition instead "
                                  "of JSON")

    export = sub.add_parser(
        "export-models",
        help="fit the pipeline and snapshot it to a model store directory",
    )
    add_dataset_args(export)
    export.add_argument("--store", required=True,
                        help="model store directory to write")
    export.add_argument("--keep", type=int, default=None, metavar="N",
                        help="write a *versioned* store root (CURRENT + "
                             "v-XXXXXXXX dirs, trace embedded) and prune to "
                             "the newest N versions; omit for a flat store")

    def add_ingest_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--journal", required=True,
                       help="record-journal directory")
        p.add_argument("--simulate", action="store_true",
                       help="append simulated future records (the dataset "
                            "flags name the base trace being extended)")
        p.add_argument("--horizon-days", type=int, default=2,
                       help="simulated days of future records available")
        p.add_argument("--batch-days", type=float, default=0.25,
                       help="simulated days appended per batch/cycle")
        p.add_argument("--json", action="store_true",
                       help="emit machine-readable status")

    ingest = sub.add_parser(
        "ingest",
        help="append simulated records to a journal, or report ingest state",
    )
    add_dataset_args(ingest)
    ingest.add_argument("action", nargs="?", choices=("append", "status"),
                        default="append",
                        help="append records (default) or print journal/"
                             "store status")
    add_ingest_common(ingest)
    ingest.add_argument("--store",
                        help="store root (status output lists its versions)")
    ingest.add_argument("--batches", type=int, default=1,
                        help="batches to append in one invocation")

    ingest_daemon = sub.add_parser(
        "ingest-daemon",
        help="continuous refresh: tail the journal, score drift, export "
             "verified store versions, roll them across a replica set",
    )
    add_dataset_args(ingest_daemon)
    add_ingest_common(ingest_daemon)
    ingest_daemon.add_argument("--store", required=True,
                               help="versioned model-store root (seeded "
                                    "automatically when absent)")
    ingest_daemon.add_argument("--interval", type=float, default=2.0,
                               help="seconds between ingest cycles")
    ingest_daemon.add_argument("--replicas", type=int, default=0,
                               help="boot and roll N supervised serve-http "
                                    "replicas (0 = export-only)")
    ingest_daemon.add_argument("--endpoints",
                               help="externally managed replicas "
                                    "(host:port,...); the daemon exports new "
                                    "versions but cannot roll replicas it "
                                    "does not supervise")
    ingest_daemon.add_argument("--host", default="127.0.0.1",
                               help="listen interface for supervised replicas")
    ingest_daemon.add_argument("--port", type=int, default=0,
                               help="base port for supervised replicas "
                                    "(0 = ephemeral)")
    ingest_daemon.add_argument("--keep", type=int, default=4, metavar="N",
                               help="prune the store to the newest N "
                                    "versions after each refresh")
    ingest_daemon.add_argument("--cycles", type=int, default=None,
                               help="stop after N cycles (default: run "
                                    "until the feed is exhausted, or "
                                    "forever without --simulate)")
    ingest_daemon.add_argument("--duration", type=float, default=None,
                               help="stop after this many seconds")
    ingest_daemon.add_argument("--drift-window", type=int, default=48,
                               help="sliding window of scored records")
    ingest_daemon.add_argument("--drift-min-observations", type=int,
                               default=12,
                               help="scored records required before drift "
                                    "can fire")
    ingest_daemon.add_argument("--drift-ratio", type=float, default=1.25,
                               help="model MAE must exceed ratio x baseline "
                                    "MAE to count as drift")
    ingest_daemon.add_argument("--staleness", type=float, default=3600.0,
                               help="seconds without a refresh before one "
                                    "fires regardless of drift")

    chaos = sub.add_parser(
        "chaos",
        help="seeded fault injection: run named scenarios against live "
             "topologies and check the cross-stack invariant suite",
    )
    chaos.add_argument("action", nargs="?",
                       choices=("run", "plan", "list"), default="run",
                       help="run a scenario, print its fault schedule, "
                            "or list the catalog")
    chaos.add_argument("--scenario", help="scenario name (see `chaos list`)")
    chaos.add_argument("--seed", type=int, default=0,
                       help="fault-plan seed; same seed replays the "
                            "identical schedule")
    chaos.add_argument("--workdir",
                       help="scenario scratch directory (default: a "
                            "throwaway temp dir)")
    chaos.add_argument("--json", action="store_true",
                       help="emit the full result as JSON")
    return parser


def _load_or_generate(args: argparse.Namespace):
    if getattr(args, "trace", None):
        trace = load_trace(args.trace)
        env = SimulationEnvironment.from_metadata(trace.metadata)
        return trace, env
    config = DatasetConfig(
        n_days=args.days, seed=args.seed, scale=args.scale, n_targets=args.targets
    )
    return TraceGenerator(config).generate()


def _cmd_generate(args: argparse.Namespace) -> int:
    t0 = time.time()
    trace, _ = _load_or_generate(args)
    save_trace(trace, args.out)
    print(f"wrote {len(trace)} attacks ({args.days} days, seed {args.seed}) "
          f"to {args.out} in {time.time() - t0:.0f}s")
    return 0


def _cmd_table1(args: argparse.Namespace) -> int:
    from repro.evaluation import format_table1, run_table1

    trace, _ = _load_or_generate(args)
    print(format_table1(run_table1(trace)))
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    from repro.evaluation import (
        format_comparison,
        format_figure1,
        format_goodness,
        format_figure2,
        format_figure34,
        format_table1,
        format_usecases,
        run_comparison,
        run_figure1,
        run_figure2,
        run_figure34,
        run_table1,
        run_usecases,
        temporal_goodness_report,
    )

    trace, env = _load_or_generate(args)
    wanted = {name.strip() for name in args.experiments.split(",") if name.strip()}
    known = {"table1", "fig1", "fig2", "fig34", "comparison", "fig5",
             "goodness", "signaling", "detection"}
    unknown = wanted - known
    if unknown:
        print(f"unknown experiments: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2

    if "table1" in wanted:
        print(format_table1(run_table1(trace)))
        print()
    needs_models = wanted - {"table1"}
    if needs_models:
        print("fitting models ...", file=sys.stderr)
        predictor = AttackPredictor(trace, env).fit()
        if "fig1" in wanted:
            print(format_figure1(run_figure1(predictor)))
            print()
        if "fig2" in wanted:
            print(format_figure2(run_figure2(predictor)))
            print()
        if "fig34" in wanted:
            print(format_figure34(run_figure34(predictor)))
            print()
        if "comparison" in wanted:
            print(format_comparison(run_comparison(predictor)))
            print()
        if "fig5" in wanted:
            print(format_usecases(run_usecases(predictor)))
            print()
        if "goodness" in wanted:
            print(format_goodness(temporal_goodness_report(predictor)))
            print()
        if "signaling" in wanted:
            from repro.defense.signaling import run_signaling_usecase

            print("DOTS-STYLE THREAT SIGNALING (§VI-B)")
            for key, value in run_signaling_usecase(predictor).items():
                print(f"    {key:<28s} {value:.4g}")
            print()
        if "detection" in wanted:
            from repro.defense.detection import run_detection_usecase

            print("ENTROPY-BASED EARLY DETECTION (§V-B)")
            for key, value in run_detection_usecase(predictor, n_attacks=40).items():
                print(f"    {key:<28s} {value:.4g}")
    return 0


def _restore_predictor(store_path: str, trace, env):
    """Fitted predictor for ``trace`` from a model store, or ``None``.

    ``None`` (with a stderr notice) means the caller should fit from
    scratch: the store is absent or holds no entry for this trace.
    """
    from repro.persistence import ModelStore
    from repro.serving import ModelRegistry

    if not ModelStore(store_path).exists():
        print(f"model store {store_path} not found; fitting from scratch",
              file=sys.stderr)
        return None
    registry = ModelRegistry()
    restored = registry.load(store_path, trace, env)
    if not restored:
        print(f"model store {store_path} has no model for this trace; "
              "fitting from scratch", file=sys.stderr)
        return None
    model = restored[0]
    print(f"restored fitted model v{model.version} from {store_path}",
          file=sys.stderr)
    return model.predictor


def _busiest_pair(trace) -> tuple[int | None, str | None]:
    """Default (asn, family) for trace-level commands: the busiest ones."""
    if not trace.attacks:
        return None, None
    asn = min({a.target_asn for a in trace.attacks},
              key=lambda asn: -len(trace.by_target_asn(asn)))
    return asn, trace.families()[0]


def _predict_sharded(args: argparse.Namespace, trace, env) -> int:
    """``predict --shards N``: answer through the multi-process engine."""
    from repro.persistence import ModelStore
    from repro.serving import ShardedForecastEngine

    store = args.store
    if store and not ModelStore(store).exists():
        print(f"model store {store} not found; fitting from scratch",
              file=sys.stderr)
        store = None
    default_asn, default_family = _busiest_pair(trace)
    asn = args.asn if args.asn is not None else default_asn
    family = args.family or default_family
    if asn is None:
        print("empty trace: nothing to predict", file=sys.stderr)
        return 1
    trace_id = None
    if getattr(args, "show_trace", False):
        from repro.telemetry import new_trace_id

        trace_id = new_trace_id()
    print(f"booting {args.shards} shard(s) ...", file=sys.stderr)
    with ShardedForecastEngine(trace, env, n_shards=args.shards,
                               store_path=store) as engine:
        forecast = engine.query(asn=asn, family=family, trace_id=trace_id)
    return _print_forecast(args, forecast, asn, family)


def _print_forecast(args: argparse.Namespace, forecast,
                    asn: int, family: str) -> int:
    """Render one serving-tier Forecast like the other predict paths."""
    import json

    from repro.evaluation.reporting import FORECAST_SCHEMA_VERSION

    if forecast.prediction is None:
        print(f"AS{asn} has no answerable history: {forecast.error}",
              file=sys.stderr)
        return 1
    prediction = forecast.prediction
    traced = (getattr(args, "show_trace", False)
              and forecast.trace_id is not None)
    if args.json:
        payload = {"schema_version": FORECAST_SCHEMA_VERSION,
                   "asn": asn, "family": family,
                   "source": forecast.source, "degraded": forecast.degraded,
                   "forecast": forecast.to_dict()["forecast"]}
        if traced:
            payload["trace_id"] = forecast.trace_id
            payload["spans"] = forecast.spans
        print(json.dumps(payload, indent=2))
        return 0
    tag = f" [{forecast.source}]" if forecast.degraded else ""
    print(f"next {family} attack on AS{asn}:{tag}")
    print(f"  date      : day {prediction.day:.2f} of the trace")
    print(f"  hour      : {prediction.hour:.1f}")
    print(f"  duration  : {prediction.duration:.0f} s")
    print(f"  magnitude : {prediction.magnitude:.0f} bots")
    if traced:
        from repro.telemetry import format_span_tree

        print()
        print(format_span_tree(forecast.trace_id, forecast.spans))
    return 0


def _predict_cluster(args: argparse.Namespace, trace) -> int:
    """``predict --endpoints``: route through the failover client."""
    import asyncio

    from repro.cluster import ClusterConfig, FailoverForecastClient
    from repro.serving.engine import BaselineFallback
    from repro.telemetry import Telemetry

    if args.cluster_config:
        config = ClusterConfig.from_file(args.cluster_config)
    else:
        config = ClusterConfig.from_endpoints(args.endpoints)
    default_asn, default_family = _busiest_pair(trace)
    asn = args.asn if args.asn is not None else default_asn
    family = args.family or default_family
    if asn is None:
        print("empty trace: nothing to predict", file=sys.stderr)
        return 1

    async def ask():
        metrics = Telemetry()
        client = FailoverForecastClient(
            config, fallback=BaselineFallback(trace, metrics),
            metrics=metrics)
        async with client:
            return await client.forecast(
                asn=asn, family=family,
                trace=getattr(args, "show_trace", False))

    forecast = asyncio.run(ask())
    if forecast.degraded:
        print(f"degraded answer: {forecast.error}", file=sys.stderr)
    return _print_forecast(args, forecast, asn, family)


def _cmd_predict(args: argparse.Namespace) -> int:
    import json

    from repro.evaluation.reporting import FORECAST_SCHEMA_VERSION, prediction_to_dict

    trace, env = _load_or_generate(args)
    if args.endpoints or args.cluster_config:
        from repro.cluster import ClusterConfigError

        try:
            return _predict_cluster(args, trace)
        except ClusterConfigError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    if args.shards > 1:
        return _predict_sharded(args, trace, env)
    if args.show_trace:
        print("--show-trace needs a serving path (--shards or "
              "--endpoints/--cluster-config); ignored", file=sys.stderr)
    predictor = _restore_predictor(args.store, trace, env) if args.store else None
    if predictor is None:
        predictor = AttackPredictor(trace, env).fit()
    asn = args.asn if args.asn is not None else (
        predictor.spatial.ases()[0] if predictor.spatial.ases() else None
    )
    family = args.family or trace.families()[0]
    if asn is None:
        print("no network has enough history to predict", file=sys.stderr)
        return 1
    prediction = predictor.predict_next_for_network(asn, family)
    if prediction is None:
        print(f"AS{asn} has too little history for the §VI-B protocol",
              file=sys.stderr)
        return 1
    if args.json:
        payload = {"schema_version": FORECAST_SCHEMA_VERSION,
                   "asn": asn, "family": family,
                   "forecast": prediction_to_dict(prediction)}
        print(json.dumps(payload, indent=2))
        return 0
    print(f"next {family} attack on AS{asn}:")
    print(f"  date      : day {prediction.day:.2f} of the trace")
    print(f"  hour      : {prediction.hour:.1f}")
    print(f"  duration  : {prediction.duration:.0f} s")
    print(f"  magnitude : {prediction.magnitude:.0f} bots")
    return 0


def _warm_start_registry(store_path: str, registry, trace, env) -> None:
    """Restore fitted models from a validated store into ``registry``.

    Callers must have checked ``ModelStore(store_path).exists()``
    already (bad paths are an :data:`EXIT_BAD_STORE` error for the
    serving commands).  A store with no entry for this trace only
    warns -- the service then fits on warm-up.
    """
    restored = registry.load(store_path, trace, env)
    if restored:
        print(f"warm-started {len(restored)} model(s) from {store_path}",
              file=sys.stderr)
    else:
        print(f"model store {store_path} has no model for this trace; "
              "fitting on warm-up", file=sys.stderr)


def _store_missing(store_path: str) -> bool:
    from repro.persistence import ModelStore

    if ModelStore(store_path).exists():
        return False
    print(f"error: --store {store_path} is not a model store "
          "(run export-models first)", file=sys.stderr)
    return True


def _cmd_serve(args: argparse.Namespace) -> int:
    import json

    from repro.serving import ForecastEngine, ForecastRequest, ModelRegistry
    from repro.telemetry import Telemetry

    if args.store and _store_missing(args.store):
        return EXIT_BAD_STORE
    trace, env = _load_or_generate(args)
    if not trace.attacks:
        print("empty trace: nothing to serve", file=sys.stderr)
        return 1
    metrics = Telemetry()
    if args.shards > 1:
        from repro.serving import ShardedForecastEngine

        engine = ShardedForecastEngine(
            trace, env, n_shards=args.shards, store_path=args.store,
            max_workers_per_shard=args.workers, timeout_s=args.timeout,
            metrics=metrics,
        )
        print(f"booting {args.shards} shard(s) ...", file=sys.stderr)
    else:
        registry = ModelRegistry(metrics=metrics)
        if args.store:
            _warm_start_registry(args.store, registry, trace, env)
        engine = ForecastEngine(trace, env, registry=registry, metrics=metrics,
                                max_workers=args.workers,
                                timeout_s=args.timeout)
    with engine:
        print("warming up ...", file=sys.stderr)
        if args.shards > 1:
            engine.start()
        else:
            engine.warm()
        # Busiest networks x most active families, cycled until the
        # requested batch size -- duplicates exercise coalescing just
        # like repeated customer queries would.
        asns = sorted(
            {a.target_asn for a in trace.attacks},
            key=lambda asn: -len(trace.by_target_asn(asn)),
        )[:8]
        families = trace.families()[:4]
        pairs = [(asn, family) for asn in asns for family in families]
        requests = [
            ForecastRequest(asn=pair[0], family=pair[1])
            for pair in (pairs[i % len(pairs)] for i in range(args.queries))
        ]
        forecasts = engine.query_batch(requests)
        snapshot = engine.metrics_snapshot()

    if args.json:
        from repro.evaluation.reporting import FORECAST_SCHEMA_VERSION

        print(json.dumps(
            {"schema_version": FORECAST_SCHEMA_VERSION,
             "forecasts": [f.to_dict() for f in forecasts],
             "metrics": snapshot},
            indent=2,
        ))
        return 0
    print(f"served {len(forecasts)} queries "
          f"({snapshot['counters'].get('serving.coalesced', 0)} coalesced)")
    for forecast in forecasts:
        request = forecast.request
        tag = forecast.source + (" DEGRADED" if forecast.degraded else "")
        if forecast.prediction is None:
            print(f"  AS{request.asn:<6d} {request.family:<12s} [{tag}] "
                  f"no answer: {forecast.error}")
            continue
        p = forecast.prediction
        print(f"  AS{request.asn:<6d} {request.family:<12s} [{tag}] "
              f"day {p.day:7.2f}  hour {p.hour:4.1f}  "
              f"{p.duration:6.0f}s  {p.magnitude:5.0f} bots")
    print("\nmetrics snapshot:")
    print(json.dumps(snapshot, indent=2))
    return 0


def _cmd_serve_http(args: argparse.Namespace) -> int:
    import asyncio

    from repro.serving import ForecastEngine, ModelRegistry
    from repro.telemetry import Telemetry
    from repro.server import Dispatcher, ForecastServer, bind_socket

    # Fail fast, in order of cheapness: a bad store path and an
    # unbindable port are both diagnosable before paying for dataset
    # loading or model fitting -- with distinct exit codes.
    if args.store and _store_missing(args.store):
        return EXIT_BAD_STORE
    if args.store and not getattr(args, "trace", None):
        # A versioned store exported by the ingest layer carries the
        # exact trace its models bind to; without it a replica handed
        # a refreshed store would regenerate the *base* trace, skip
        # every entry on fingerprint mismatch, and silently cold-refit.
        from repro.persistence import ModelStore

        embedded = (ModelStore(args.store).resolve().path
                    / ModelStore.TRACE_FILE)
        if embedded.is_file():
            args.trace = str(embedded)
            print(f"using trace embedded in store: {embedded}",
                  file=sys.stderr)
    try:
        http_sock = bind_socket(args.host, args.port)
    except OSError as exc:
        print(f"error: cannot bind {args.host}:{args.port}: {exc}",
              file=sys.stderr)
        return EXIT_BIND_FAILURE
    framed_sock = None
    if args.framed_port is not None:
        try:
            framed_sock = bind_socket(args.host, args.framed_port)
        except OSError as exc:
            http_sock.close()
            print(f"error: cannot bind {args.host}:{args.framed_port}: {exc}",
                  file=sys.stderr)
            return EXIT_BIND_FAILURE

    trace, env = _load_or_generate(args)
    if not trace.attacks:
        http_sock.close()
        if framed_sock is not None:
            framed_sock.close()
        print("empty trace: nothing to serve", file=sys.stderr)
        return 1
    metrics = Telemetry()
    if args.workers > 1:
        from repro.serving import ShardedForecastEngine

        engine = ShardedForecastEngine(
            trace, env, n_shards=args.workers, store_path=args.store,
            max_workers_per_shard=args.worker_threads, metrics=metrics,
        )
        print(f"booting {args.workers} shard(s) ...", file=sys.stderr)
        engine.start()
    else:
        registry = ModelRegistry(metrics=metrics)
        if args.store:
            _warm_start_registry(args.store, registry, trace, env)
        engine = ForecastEngine(trace, env, registry=registry, metrics=metrics,
                                max_workers=args.worker_threads)
        print("warming up ...", file=sys.stderr)
        engine.warm()  # a store restore makes this a cache hit, not a refit
    store_info = None
    if args.store:
        from repro.persistence import ModelStore

        store_info = ModelStore(args.store).describe()
    dispatcher = Dispatcher(
        engine,
        max_inflight=args.max_inflight,
        default_timeout_s=args.timeout if args.timeout > 0 else None,
        store_info=store_info,
    )
    if getattr(args, "journal", None):
        from repro.ingest import RecordJournal

        journal = RecordJournal(args.journal)
        dispatcher.record_sink = journal.append_many
        print(f"accepting records into journal {args.journal} "
              f"(next offset {journal.next_offset})", file=sys.stderr)
    access_log = None
    if args.access_log:
        from repro.telemetry import AccessLog

        access_log = AccessLog(
            sys.stderr,
            sample_every=max(1, args.access_log_sample),
            slow_s=args.slow_ms / 1000.0 if args.slow_ms else None,
        )
    server = ForecastServer(
        dispatcher,
        host=args.host,
        http_sock=http_sock,
        framed_sock=framed_sock,
        max_connections=args.max_connections,
        drain_timeout_s=args.drain_timeout,
        access_log=access_log,
    )

    async def run() -> None:
        await server.start()
        server.install_signal_handlers()
        await server.serve_forever()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        pass  # loops without add_signal_handler support land here
    return 0


def _cmd_serve_cluster(args: argparse.Namespace) -> int:
    import signal as signal_module
    import threading

    from repro.cluster import ClusterConfig, ClusterConfigError, ReplicaEndpoint
    from repro.cluster.supervisor import ReplicaSupervisor

    if _store_missing(args.store):
        return EXIT_BAD_STORE
    try:
        if args.replicas < 1:
            raise ClusterConfigError("--replicas must be >= 1")
        probe = ClusterConfig(
            endpoints=(ReplicaEndpoint("placeholder", 1),),
            probe_interval_s=args.probe_interval,
            failure_threshold=args.failure_threshold,
        )
    except ClusterConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    # Children rebuild the dataset themselves: forward the trace path
    # when we have one, the generation parameters otherwise.
    extra_args: list[str] = []
    trace_path = getattr(args, "trace", None)
    if not trace_path:
        extra_args += ["--days", str(args.days), "--seed", str(args.seed),
                       "--scale", str(args.scale),
                       "--targets", str(args.targets)]
    if args.access_log:
        extra_args.append("--access-log")
    ports = ([args.port + i for i in range(args.replicas)]
             if args.port else None)
    supervisor = ReplicaSupervisor(
        replicas=args.replicas,
        trace_path=trace_path,
        store_path=args.store,
        host=args.host,
        ports=ports,
        workers=args.workers,
        worker_threads=args.worker_threads,
        config=probe,
        boot_timeout_s=args.boot_timeout,
        drain_timeout_s=args.drain_timeout,
        extra_args=extra_args,
        log_dir=args.log_dir,
    )
    print(f"booting {args.replicas} replica(s) from {args.store} ...",
          file=sys.stderr)
    supervisor.start()
    ready = supervisor.ready_count()
    if ready == 0:
        print("error: no replica became healthy", file=sys.stderr)
        supervisor.stop()
        return 1
    endpoints = ",".join(e.address for e in supervisor.endpoints())
    print(f"cluster ready: {ready}/{args.replicas} replicas "
          f"(query with: predict --endpoints {endpoints})", file=sys.stderr)
    print(f"cluster serving on {endpoints}")

    stop = threading.Event()
    for signum in (signal_module.SIGTERM, signal_module.SIGINT):
        try:
            signal_module.signal(signum, lambda *_args: stop.set())
        except ValueError:  # non-main thread (tests)
            pass
    try:
        while not stop.is_set():  # 1s ticks keep signals deliverable
            stop.wait(1.0)
    except KeyboardInterrupt:
        pass
    print("cluster draining ...", file=sys.stderr)
    supervisor.stop()
    print("cluster stopped", file=sys.stderr)
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    """``repro metrics host:port``: the observability quick look.

    One endpoint prints that replica's ``/metrics`` verbatim (JSON, or
    the server's own Prometheus rendering with ``--prometheus``).  A
    ``--endpoints`` list scrapes every member's JSON snapshot and
    merges them into one cluster view -- the same merge the supervisor
    uses -- rendered as JSON or Prometheus locally.
    """
    import json

    from repro.cluster import ClusterConfigError, parse_endpoints
    from repro.telemetry import merge_snapshots, to_prometheus

    if bool(args.endpoint) == bool(args.endpoints):
        print("error: give one endpoint (host:port) or --endpoints, "
              "not both or neither", file=sys.stderr)
        return 2
    try:
        endpoints = parse_endpoints(args.endpoints or args.endpoint)
    except ClusterConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.endpoint and args.prometheus:
        # Single replica: let the server render, proving the wire
        # content negotiation end to end.
        import http.client

        endpoint = endpoints[0]
        try:
            conn = http.client.HTTPConnection(endpoint.host, endpoint.port,
                                              timeout=5.0)
            try:
                conn.request("GET", "/metrics",
                             headers={"Accept": "text/plain; version=0.0.4"})
                response = conn.getresponse()
                body = response.read().decode("utf-8", "replace")
            finally:
                conn.close()
        except OSError as exc:
            print(f"error: {endpoint.address}: {exc}", file=sys.stderr)
            return 1
        if response.status != 200:
            print(f"error: {endpoint.address} answered {response.status}",
                  file=sys.stderr)
            return 1
        print(body, end="" if body.endswith("\n") else "\n")
        return 0

    from repro.cluster.supervisor import probe_metrics

    snapshots: list[dict] = []
    errors: dict[str, str] = {}
    for endpoint in endpoints:
        try:
            status, body = probe_metrics(endpoint.host, endpoint.port,
                                         timeout_s=5.0)
        except OSError as exc:
            errors[endpoint.address] = f"{type(exc).__name__}: {exc}".strip(": ")
            continue
        if status != 200 or not isinstance(body, dict):
            errors[endpoint.address] = f"metrics answered {status}"
            continue
        snapshots.append(body)
    for address, error in errors.items():
        print(f"warning: {address}: {error}", file=sys.stderr)
    if not snapshots:
        print("error: no replica answered /metrics", file=sys.stderr)
        return 1

    if args.endpoint:
        snapshot = snapshots[0]
    else:
        snapshot = merge_snapshots(snapshots)
        snapshot["replica_errors"] = errors
    if args.prometheus:
        print(to_prometheus(snapshot), end="")
    else:
        print(json.dumps(snapshot, indent=2))
    return 0


def _cmd_export_models(args: argparse.Namespace) -> int:
    from repro.serving import ModelRegistry

    trace, env = _load_or_generate(args)
    if not trace.attacks:
        print("empty trace: nothing to fit", file=sys.stderr)
        return 1
    registry = ModelRegistry()
    print("fitting models ...", file=sys.stderr)
    t0 = time.time()
    model = registry.get(trace, env)
    if args.keep is not None:
        version = registry.save_version(args.store, keep_last=args.keep,
                                        trace=trace)
        print(f"exported store version {version.name} "
              f"(trace {model.key.fingerprint}, v{model.version}, "
              f"fitted in {time.time() - t0:.1f}s) under {args.store} "
              f"(keeping last {args.keep})")
        return 0
    manifest = registry.save(args.store)
    print(f"exported {len(manifest['entries'])} model(s) "
          f"(trace {model.key.fingerprint}, v{model.version}, "
          f"fitted in {time.time() - t0:.1f}s) to {args.store}")
    return 0


def _cmd_ingest(args: argparse.Namespace) -> int:
    import json

    from repro.ingest import RecordJournal, SimulatedFeed
    from repro.persistence import ModelStore

    if args.action == "status":
        journal = RecordJournal(args.journal)
        status = {"journal": journal.status()}
        if args.store:
            store = ModelStore(args.store)
            current = store.current_version()
            status["store"] = {
                "path": args.store,
                "current_version": current.name if current else None,
                "versions": [p.name for p in store.versions()],
            }
            if store.exists():
                status["store"]["describe"] = store.describe()
        print(json.dumps(status, indent=2))
        return 0

    if not args.simulate:
        print("error: 'ingest append' needs --simulate (live records "
              "arrive via POST /v1/records on a --journal replica)",
              file=sys.stderr)
        return 2
    trace, _ = _load_or_generate(args)
    journal = RecordJournal(args.journal)
    feed = SimulatedFeed(trace, horizon_days=args.horizon_days,
                         batch_days=args.batch_days)
    appended = 0
    for _ in range(args.batches):
        batch = feed.next_batch()
        if not batch:
            break
        _, next_offset = journal.append_many(batch)
        appended += len(batch)
    if args.json:
        print(json.dumps({"appended": appended, **journal.status()}))
    else:
        print(f"appended {appended} record(s); journal at offset "
              f"{journal.next_offset}")
    return 0


def _cmd_ingest_daemon(args: argparse.Namespace) -> int:
    import json

    from repro.ingest import (
        DriftConfig,
        DriftMonitor,
        IngestDaemon,
        RecordJournal,
        RefreshPipeline,
        SimulatedFeed,
    )
    from repro.persistence import ModelStore
    from repro.serving import ModelRegistry
    from repro.telemetry import Telemetry

    def log(message: str) -> None:
        print(f"[ingest-daemon] {message}", file=sys.stderr)

    trace, env = _load_or_generate(args)
    if not trace.attacks:
        print("empty trace: nothing to ingest against", file=sys.stderr)
        return 1
    telemetry = Telemetry()
    journal = RecordJournal(args.journal)
    registry = ModelRegistry(metrics=telemetry)
    pipeline = RefreshPipeline(
        trace, env, journal, args.store,
        registry=registry, telemetry=telemetry, keep_last=args.keep,
    )

    store = ModelStore(args.store)
    if store.is_versioned_root():
        restored = pipeline.load_current()
        if restored is not None:
            log(f"restored model v{restored.version} from "
                f"{store.current_version()} "
                f"(journal offset {pipeline.current_offset})")
    elif store.exists():
        print(f"error: --store {args.store} is a flat store; the daemon "
              "needs a versioned root (export-models --keep N)",
              file=sys.stderr)
        return EXIT_BAD_STORE
    if pipeline.registry.latest(pipeline.config) is None:
        log("no usable store version; fitting and seeding one")
        seed = pipeline.refresh(reason="seed")
        if not seed.ok:
            print(f"error: cannot seed store: {seed.error}", file=sys.stderr)
            return EXIT_BAD_STORE
        log(f"seeded {seed.version_path}")

    supervisor = None
    if args.replicas > 0:
        from repro.cluster import ReplicaSupervisor

        current = store.current_version()
        supervisor = ReplicaSupervisor(
            replicas=args.replicas,
            store_path=str(current),
            host=args.host,
            ports=([args.port + i for i in range(args.replicas)]
                   if args.port else None),
            log=log,
        )
        log(f"booting {args.replicas} replica(s) from {current} ...")
        supervisor.start(wait_ready=True)
        pipeline.supervisor = supervisor
    elif args.endpoints:
        log(f"observing external replicas at {args.endpoints}: new "
            "versions are exported and activated, but replicas the "
            "daemon does not supervise must reload themselves")

    drift = DriftMonitor(
        DriftConfig(
            window=args.drift_window,
            min_observations=args.drift_min_observations,
            ratio=args.drift_ratio,
            staleness_s=args.staleness,
        ),
        telemetry=telemetry,
    )
    feed = None
    if args.simulate:
        feed = SimulatedFeed(trace, horizon_days=args.horizon_days,
                             batch_days=args.batch_days)
    daemon = IngestDaemon(pipeline, drift, feed=feed, telemetry=telemetry,
                          interval_s=args.interval, log=log)
    try:
        daemon.run(duration_s=args.duration, max_cycles=args.cycles)
    except KeyboardInterrupt:
        log("interrupted; shutting down")
    finally:
        if supervisor is not None:
            supervisor.stop()
    status = daemon.status()
    if args.json:
        print(json.dumps(status, indent=2))
    else:
        log(f"done: {status['cycles']} cycle(s), "
            f"{status['refreshes']} refresh(es), journal at offset "
            f"{status['journal']['next_offset']}")
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    """Seeded fault injection: run/plan/list chaos scenarios.

    ``plan`` prints the canonical schedule JSON -- running it twice
    with the same seed must emit byte-identical output (the replay
    contract CI diffs).  ``run`` exits 0 when the invariant suite is
    clean and 1 when any invariant was violated, so the scenario run
    itself is the pass/fail signal.
    """
    import json

    from repro.chaos import SCENARIOS, run_scenario

    if args.action == "list":
        for name, scenario in sorted(SCENARIOS.items()):
            slow = " [slow]" if scenario.slow else ""
            print(f"{name}{slow}: {scenario.description}")
        return 0

    if not args.scenario:
        print("error: --scenario is required for "
              f"'chaos {args.action}' (see `repro chaos list`)",
              file=sys.stderr)
        return 2
    scenario = SCENARIOS.get(args.scenario)
    if scenario is None:
        print(f"error: unknown scenario {args.scenario!r}; known: "
              f"{', '.join(sorted(SCENARIOS))}", file=sys.stderr)
        return 2

    if args.action == "plan":
        plan = scenario.build_plan(args.seed)
        print(plan.to_json())
        print(f"digest: {plan.digest()}", file=sys.stderr)
        return 0

    result = run_scenario(args.scenario, args.seed, workdir=args.workdir)
    if args.json:
        print(json.dumps(result.to_dict(), indent=2))
    else:
        report = result.invariants
        print(f"scenario {result.name} seed {result.seed}: "
              f"{'PASS' if result.ok else 'FAIL'} in "
              f"{result.duration_s:.2f}s (schedule {result.digest}, "
              f"{len(result.fired)} fault(s) fired, "
              f"{report['answers']} answer(s), "
              f"{report['explained_errors']} explained error(s))")
        for violation in report["violations"]:
            print(f"  VIOLATION [{violation['invariant']}] "
                  f"{violation['detail']}")
    return 0 if result.ok else 1


_COMMANDS = {
    "generate": _cmd_generate,
    "table1": _cmd_table1,
    "evaluate": _cmd_evaluate,
    "predict": _cmd_predict,
    "serve": _cmd_serve,
    "serve-http": _cmd_serve_http,
    "serve-cluster": _cmd_serve_cluster,
    "metrics": _cmd_metrics,
    "export-models": _cmd_export_models,
    "ingest": _cmd_ingest,
    "ingest-daemon": _cmd_ingest_daemon,
    "chaos": _cmd_chaos,
}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())

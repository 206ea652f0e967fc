"""``python -m benchmarks.e2e run|compare|validate`` -- run-sets and checks.

``run`` repeats every workload (``--repeat N``, seeds S, S+1, ...),
optionally adds one traced run per workload (``--traced``), prints every
metric and check, and writes the run-set to ``results/`` as JSON with
per-metric median and quartiles.  ``compare BASE.json CHANGE.json``
applies the bounds of ``BENCHMARK.json`` per workload and exits 1 when
a metric regressed.  ``validate`` measures a deliberately slowed server
against the plain one to check the host-speed normalization.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from benchmarks.e2e.bench import WARMUP_S, run_workload
from benchmarks.e2e.report import (
    RESULTS_SCHEMA_VERSION,
    compare,
    e2e_bounds,
    format_compare,
    format_run,
    load_benchmark,
    run_set_summary,
)
from benchmarks.e2e.workloads import ROOT, WORKLOADS, WORLD_ARGS, BenchError, ensure_world

RESULTS_DIR = Path(__file__).resolve().parent / "results"


def _git_commit() -> str | None:
    try:
        done = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=ROOT,
                              capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return done.stdout.strip()


def cmd_run(args: argparse.Namespace) -> int:
    benchmark = load_benchmark()
    window = args.window or benchmark["run_seconds"]
    workloads = args.workload or list(WORKLOADS)
    world = ensure_world(log=lambda message: print(message, flush=True))
    runs = {name: [] for name in workloads}
    traced = {}
    for repeat in range(args.repeat):
        for name in workloads:
            result = run_workload(world, name, args.seed + repeat, window,
                                  boots=args.boots)
            print(format_run(result), flush=True)
            runs[name].append(result)
    if args.traced:
        for name in workloads:
            traced[name] = run_workload(world, name, args.seed, window,
                                        traced=True)
            print(format_run(traced[name]), flush=True)
    document = {
        "schema_version": RESULTS_SCHEMA_VERSION,
        "created_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "git_commit": _git_commit(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "world": " ".join(WORLD_ARGS),
        "seed": args.seed,
        "seeds": [args.seed + r for r in range(args.repeat)],
        "window_s": window,
        "warmup_s": WARMUP_S,
        "boots": args.boots,
        "workloads": {
            name: {"summary": run_set_summary(runs[name]),
                   "runs": [run.to_dict() for run in runs[name]]}
            | ({"traced": traced[name].to_dict()} if name in traced else {})
            for name in workloads
        },
    }
    args.out.mkdir(parents=True, exist_ok=True)
    path = args.out / time.strftime("run-%Y%m%dT%H%M%SZ.json", time.gmtime())
    path.write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {path}")
    every = [r for rs in runs.values() for r in rs] + list(traced.values())
    return 0 if all(r.correct for r in every) else 1


def cmd_validate(args: argparse.Namespace) -> int:
    """Alternating pairs of plain and spun servers, raw vs normalized.

    The spun server does the same fixed extra work per request, so on
    every pair the raw ratio spun/plain is the size of a real server
    change measured under the same host conditions.  Normalization keeps
    that size only if the normalized ratio matches it.
    """
    benchmark = load_benchmark()
    window = args.window or benchmark["run_seconds"]
    world = ensure_world(log=lambda message: print(message, flush=True))
    names = ("rps", "p50_ms", "p99_ms")
    ratios = {(kind, name): [] for kind in ("raw", "norm") for name in names}
    correct = True
    for pair in range(args.pairs):
        seed = args.seed + pair
        order = (0, args.spin) if pair % 2 == 0 else (args.spin, 0)
        runs = {}
        for spin in order:
            runs[spin] = run_workload(world, args.workload, seed, window, spin=spin)
            correct = correct and runs[spin].correct
        plain, spun = runs[0].metrics, runs[args.spin].metrics
        line = [f"pair {pair + 1:>2} seed {seed}"]
        for name in names:
            for kind, key in (("raw", f"raw.{name}"), ("norm", name)):
                ratios[kind, name].append(spun[key] / plain[key])
            line.append(f"{name} raw {ratios['raw', name][-1]:.3f} "
                        f"norm {ratios['norm', name][-1]:.3f}")
        print("  ".join(line), flush=True)
    print(f"median spun/plain ratio over {args.pairs} pairs, {args.workload}, "
          f"spin {args.spin}:")
    for name in names:
        raw = statistics.median(ratios["raw", name])
        norm = statistics.median(ratios["norm", name])
        print(f"   {name:<7} raw {raw:.3f}  normalized {norm:.3f}  "
              f"normalized/raw {norm / raw:.3f}")
    return 0 if correct else 1


def cmd_compare(args: argparse.Namespace) -> int:
    base, change = (json.loads(Path(p).read_text(encoding="utf-8"))
                    for p in (args.base, args.change))
    rows, regressed = compare(base, change, e2e_bounds(load_benchmark()))
    print(format_compare(rows))
    return 1 if regressed else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e",
                                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="measure run-sets and write results JSON")
    run.add_argument("--seed", type=int, default=0, help="seed of the first run")
    run.add_argument("--repeat", type=int, default=1, help="runs per workload")
    run.add_argument("--traced", action="store_true",
                     help="also one traced run per workload (per-layer metrics)")
    run.add_argument("--window", type=float, default=None,
                     help="measured seconds (default: BENCHMARK.json run_seconds)")
    run.add_argument("--boots", type=int, default=3,
                     help="timed boots per untraced run (setup_s is the median)")
    run.add_argument("--workload", action="append", choices=sorted(WORKLOADS),
                     help="restrict to this workload (repeatable; default all)")
    run.add_argument("--out", type=Path, default=RESULTS_DIR,
                     help="directory for the run-set JSON")
    cmp = sub.add_parser("compare", help="apply BENCHMARK.json bounds to two run-sets")
    cmp.add_argument("base", help="run-set JSON of the parent")
    cmp.add_argument("change", help="run-set JSON of the change")
    val = sub.add_parser("validate", help="check normalization against a "
                         "known server slowdown (alternating pairs)")
    val.add_argument("--workload", default="hit-heavy", choices=sorted(WORKLOADS))
    val.add_argument("--spin", type=int, default=1000,
                     help="iterations of extra work per request on the spun side")
    val.add_argument("--pairs", type=int, default=10)
    val.add_argument("--seed", type=int, default=0, help="seed of the first pair")
    val.add_argument("--window", type=float, default=None,
                     help="measured seconds (default: BENCHMARK.json run_seconds)")
    args = parser.parse_args(argv)
    commands = {"run": cmd_run, "compare": cmd_compare, "validate": cmd_validate}
    try:
        return commands[args.command](args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())

"""One run of one workload -- the command ``BENCHMARK.json`` names.

    python3 benchmarks/e2e/run.py --workload hit-heavy --seed 1 \\
        --seconds 15 --trace 0

Run from the repository root.  The first run in a checkout builds the
trace world (about half a minute).  Prints a readable report, then as
its last line one JSON object ``{"correct", "attempted", "failed",
"metrics"}`` holding every ``end_to_end`` metric of ``BENCHMARK.json``
(``--trace 0``) or every ``per_layer`` one (``--trace 1``).  Exits 0
only when every answer and self-check passed; exits 2 without a result
when the checkout has no program to run.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from benchmarks.e2e.bench import run_workload  # noqa: E402
from benchmarks.e2e.report import finite, format_run, load_benchmark  # noqa: E402
from benchmarks.e2e.workloads import WORKLOADS, BenchError, ensure_world  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True,
                        help="picks the request streams, not the trace world")
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the measured window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 = traced run reporting the per-layer metrics")
    args = parser.parse_args(argv)
    try:
        world = ensure_world(log=lambda message: print(message, flush=True))
        benchmark = load_benchmark()
        result = run_workload(world, args.workload, args.seed, args.seconds,
                              traced=bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(format_run(result), flush=True)
    listed = benchmark["per_layer" if args.trace else "end_to_end"]
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {m["name"]: {"value": finite(result.metrics[m["name"]]),
                                "unit": m["unit"]} for m in listed},
    }))
    return 0 if result.correct else 1


if __name__ == "__main__":
    raise SystemExit(main())

"""Smoke test of the end-to-end benchmark (not collected by tier-1).

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_e2e_smoke.py -q

Runs every workload once untraced and once traced with a 4 s window and
one boot, then checks the output format of ``run.py``.  Takes about
four minutes, most of it the model fit each traced run times.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from benchmarks.e2e.report import MIRRORED, UNITS, e2e_bounds, load_benchmark
from benchmarks.e2e.workloads import RECORDS_PER_POST, ROOT, WORKLOADS

HERE = Path(__file__).resolve().parent
#: Shortest window whose reads reach the 1,000 the p99 check needs on a
#: slow host (degraded and ingest-mixed reads run at 500-700 req/s).
WINDOW_S = 4


def _run_py(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "benchmarks/e2e/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.fixture(scope="module")
def run_set(tmp_path_factory) -> dict:
    out = tmp_path_factory.mktemp("results")
    done = subprocess.run(
        [sys.executable, "-m", "benchmarks.e2e", "run", "--window", str(WINDOW_S),
         "--boots", "1", "--traced", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-2000:]
    (path,) = out.glob("run-*.json")
    return json.loads(path.read_text(encoding="utf-8"))


def test_benchmark_json_names_and_units():
    benchmark = load_benchmark()
    assert benchmark["paths"] == ["benchmarks/e2e"]
    assert [w["name"] for w in benchmark["workloads"]] == list(WORKLOADS)
    for spec in benchmark["end_to_end"] + benchmark["per_layer"]:
        assert UNITS[spec["name"]] == spec["unit"], spec


def test_mirrored_bounds_follow_benchmark_json():
    listed = {m["name"]: m for m in load_benchmark()["end_to_end"]}
    bounds = e2e_bounds(load_benchmark())
    for name, (mirror, workloads, gating) in MIRRORED.items():
        assert bounds[name].bound == listed[mirror]["bound"], name
        assert bounds[name].better == listed[mirror]["better"], name
        assert bounds[name].workloads == workloads
        assert bounds[name].gating is gating


def test_every_metric_emitted_with_its_unit(run_set):
    benchmark = load_benchmark()
    for workload in WORKLOADS:
        entry = run_set["workloads"][workload]
        (untraced,) = entry["runs"]
        expected = [(untraced, spec) for spec in benchmark["end_to_end"]]
        expected += [(untraced, {"name": name, "unit": UNITS[name]})
                     for name in ("raw.rps", "raw.p50_ms", "raw.p99_ms")]
        expected += [(entry["traced"], spec) for spec in benchmark["per_layer"]]
        for run, spec in expected:
            metric = run["metrics"][spec["name"]]
            assert metric["unit"] == spec["unit"], (workload, spec)
            assert metric["value"] is not None, (workload, spec)
    ingest = run_set["workloads"]["ingest-mixed"]["runs"][0]["metrics"]
    assert ingest["ingest_rps"]["value"] > 0
    assert ingest["ingest_p99_ms"]["unit"] == "ms"
    # lockstep: one read per POST, and rps counts the reads alone
    posts_per_s = ingest["ingest_rps"]["value"] / RECORDS_PER_POST
    assert abs(ingest["rps"]["value"] / posts_per_s - 1.0) < 0.01


def test_every_check_passes(run_set):
    for workload, entry in run_set["workloads"].items():
        for run in entry["runs"] + [entry["traced"]]:
            failed = [c for c in run["checks"] if not c["ok"]]
            assert run["correct"] and not failed, (workload, failed)


def test_run_py_prints_the_result_line():
    done = _run_py("--workload", "degraded", "--seed", "7", "--seconds", str(WINDOW_S),
                   "--trace", "0")
    assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-2000:]
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert line["attempted"] >= 1
    names = {spec["name"] for spec in load_benchmark()["end_to_end"]}
    assert set(line["metrics"]) == names


def test_run_py_refuses_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__", "results"))
    done = _run_py("--workload", "hit-heavy", "--seed", "1", "--seconds", "1",
                   "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert not done.stdout.strip()

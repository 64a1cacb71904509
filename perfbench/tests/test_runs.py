"""Whole runs through ``run.py`` and ``worker.py``, in fresh processes."""

import json
import shutil
import subprocess
import sys
import time
from collections import Counter

import layers
import run
import tracer as tracing
import workloads

BENCH = run.HERE
ROOT = run.ROOT


def _worker(mode, *extra):
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", "cyclotomic-diagonal",
           "--seed", "4", "--seconds", "1", "--mode", mode, "--t0", repr(time.monotonic()),
           *extra]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True,
                          env={"PYTHONHASHSEED": "0", "PATH": ""})
    return json.loads(proc.stdout.splitlines()[-1])


def test_counts_repeat_exactly_across_processes():
    counts = [_worker("count")["per_layer"] for _ in range(2)]
    assert counts[0] == counts[1]
    assert counts[0]["scalars.mul.cyclo"] > 0 and counts[0]["scalars.max_order"] == 12
    # the general path reads three cocycle values per triple of Z/6 x Z/6
    assert counts[0][layers.ALPHA_EVALS] > 3 * 36 ** 3
    traced = [_worker("trace")["per_layer"] for _ in range(2)]
    keys = [k for k in traced[0] if k.endswith((".calls", ".count", ".dim", ".pivots",
                                                ".words"))]
    assert len(keys) == len(layers.COUNT_METRICS)
    assert {k: traced[0][k] for k in keys} == {k: traced[1][k] for k in keys}


def test_benchmark_json_names_what_the_runs_print():
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == {"setup_s", "solve_s", "peak_rss_mb"}
    printed = {**layers.per_layer(tracing.Tracer(), []),
               **tracing.scalar_metrics(Counter()),
               layers.ALPHA_EVALS: 0,
               "trace.overhead_ratio": 1.0, "error_ratio": 0.0}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        k: run.unit(k) for k in printed}
    for m in spec["end_to_end"]:
        assert m["unit"] == run.unit(m["name"])


def test_unknown_workload_is_refused():
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "no-such-workload", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "s4-kappa-stream", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""

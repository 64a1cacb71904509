"""tqdha benchmark: one run of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere inside a checkout of the repository; it imports the
package from ``src/`` of that checkout.  Every pass is a fresh
single-threaded Python process (see ``worker.py``), started one after the
other, so the load is one process.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` is the median of
three to 21 set-ups (set-up-only processes and the measured one), and
``solve_s`` and ``peak_rss_mb`` come from the measured process.

``--trace 1`` runs three passes: the run's work traced (spans and
counters, per-layer self times), and the first ``COMPARE_OPS`` operations
of it untraced and again counting scalar operations.  It prints the
per-layer metrics and ``trace.overhead_ratio``: the traced wall time over
the untraced one, both up to the end of the same operation.  Spans go to
``perfbench/out/``.

The last line of standard output is the JSON result.  Any failure to run
(no ``src/tqdha`` here, a pass that crashed or overran) exits 1 or 2
without printing one.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# set-ups per run: at least three, more while they add up to under 4 s, so
# that a short set-up (the stream's is 0.2 s) still gets a steady median
SETUP_SAMPLES = 3
SETUP_MAX_SAMPLES = 21
SETUP_MIN_TOTAL_S = 4.0
# operations in the untraced and counting passes of a traced run (all of
# them for the S5 and cyclotomic runs), so that it ends well inside 180 s
COMPARE_OPS = 16
DEADLINE_S = 170  # the whole run, all passes, must end within 180 s


class RunError(RuntimeError):
    pass


def unit(metric: str) -> str:
    if metric.endswith("_ms"):
        return "ms"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_mb"):
        return "MB"
    if metric.endswith(("_ratio", "_yield")):
        return "ratio"
    return "count"


def _spawn(a, mode: str, deadline: float, *extra) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", a.workload,
           "--seed", str(a.seed), "--seconds", str(a.seconds), "--mode", mode, *extra]
    # string hashing fixed, so set iteration orders and the counts repeat
    env = dict(os.environ, PYTHONHASHSEED="0")
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise RunError(f"no time left for the {mode} pass")
    cmd += ["--t0", repr(time.monotonic())]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env, timeout=remaining)
    if proc.returncode != 0:
        raise RunError(f"{mode} pass exited with {proc.returncode}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    for line in out.get("failures", []):
        print(f"perfbench: {a.workload} seed {a.seed} {mode}: {line}", file=sys.stderr)
    return out


def run_plain(a, deadline: float) -> dict:
    probes = []
    while len(probes) < SETUP_SAMPLES - 1 or (
            len(probes) < SETUP_MAX_SAMPLES - 1
            and sum(p["setup_s"] for p in probes) < SETUP_MIN_TOTAL_S):
        probes.append(_spawn(a, "setup", deadline))
    main = _spawn(a, "plain", deadline)
    setups = [p["setup_s"] for p in probes + [main]]
    raw = [p["setup_wall_s"] for p in probes + [main]]
    print(f"perfbench: wall time, not speed-adjusted: setup {statistics.median(raw):.4f} s, "
          f"solve {main['solve_wall_s']:.4f} s", file=sys.stderr)
    metrics = {
        "setup_s": statistics.median(setups),
        "solve_s": main["solve_s"],
        "peak_rss_mb": main["peak_rss_mb"],
    }
    return _result([main], metrics)


def run_traced(a, deadline: float) -> dict:
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    spans = out_dir / f"{a.workload}-seed{a.seed}.spans.json"
    traced = _spawn(a, "trace", deadline, "--spans", str(spans), "--mark", str(COMPARE_OPS))
    k = str(min(COMPARE_OPS, traced["attempted"]))
    base = _spawn(a, "plain", deadline, "--ops", k)
    counted = _spawn(a, "count", deadline, "--ops", k)
    passes = [base, traced, counted]
    metrics = {**traced["per_layer"], **counted["per_layer"]}
    metrics["trace.overhead_ratio"] = traced["mark_wall_s"] / base["wall_s"]
    metrics["error_ratio"] = sum(p["failed"] for p in passes) / sum(p["attempted"] for p in passes)
    return _result(passes, metrics)


def _result(passes, metrics: dict) -> dict:
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit(k)} for k, v in metrics.items()},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="tqdha benchmark, one run of one workload")
    # checked by worker.py against workloads.WORKLOADS, which needs tqdha
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = p.parse_args(argv)
    if a.seconds < 1:
        p.error("--seconds must be at least 1")
    if not (ROOT / "src" / "tqdha" / "__init__.py").is_file():
        print(f"perfbench: no tqdha sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    try:
        result = (run_traced if a.trace else run_plain)(a, deadline)
    except (RunError, subprocess.TimeoutExpired, ValueError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

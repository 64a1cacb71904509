"""One pass of one workload, in a fresh process.

``run.py`` starts it; by hand:

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --mode {plain,setup,trace,count} --t0 MONOTONIC [--ops K] [--mark K] \
        [--spans PATH]

``--t0`` is the parent's ``time.monotonic()`` just before it started this
process, so ``setup_s`` runs from process start (interpreter start-up and
imports included) to the first timed solve.  The module-level caches of
``tqdha`` (``symmetric_group``, ``spin_cocycle``, ...) are cold in every
pass, as they are in every CLI run.

Modes: ``setup`` stops after set-up; ``plain`` runs the operations
untraced; ``trace`` records spans and counters; ``count`` counts scalar
operations.  ``--ops K`` runs only the first K operations of the run, and
``--mark K`` reports ``mark_wall_s``, the time up to the end of operation K,
so that a traced pass can be set against an untraced pass of K operations.
Times are speed-adjusted (see ``speed.py``); the raw ones are reported
beside them.  The last line of standard output is a JSON object.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from collections import Counter
from contextlib import nullcontext
from pathlib import Path

from speed import SpeedProbe

ROOT = Path(__file__).resolve().parents[1]


def run_pass(probe, name, seed, seconds, mode, t0, ops=None, mark=None, spans_path=None) -> dict:
    # imported here, after main() has started the speed probe
    import layers
    import tracer as tracing
    import workloads
    from tqdha import scalars

    wl = workloads.WORKLOADS[name]
    tracer = tracing.Tracer() if mode == "trace" else None
    patcher = tracing.Patcher()
    counts: Counter = Counter()
    if tracer is not None:
        layers.install(tracer, patcher)
    if mode == "count":
        tracing.count_scalar_ops(patcher, scalars.CyclotomicScalar, counts)
        evals = layers.count_cocycle_evals(patcher)
    span = tracer.span if tracer is not None else (lambda name: nullcontext())
    start = time.monotonic()
    try:
        with span("bench.setup"):
            ctx = wl.prepare(seed, seconds)
        setup_end = time.monotonic()
        out = {"setup_s": probe.adjusted(t0, setup_end), "setup_wall_s": setup_end - t0}
        if mode == "setup":
            return out
        items = ctx.items[:ops] if ops else ctx.items
        mark = min(mark, len(items)) if mark else None
        results, oracle_s = [], []
        for k, item in enumerate(items):
            with span("bench.op"):
                try:
                    res = wl.run(ctx, item, tracer)
                except Exception:  # a crash is a failed operation, not a lost run
                    res = workloads.Outcome(False, traceback.format_exc(limit=3))
            results.append(res)
            oracle_s.extend(res.oracle_s)
            if k + 1 == mark:
                out["mark_wall_s"] = probe.adjusted(t0, time.monotonic())
        end = time.monotonic()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        patcher.restore()
    # the benchmark's own reference answers, after the timed part
    expected = ctx.reference() if ctx.reference else [None] * len(items)
    failures = []
    for k, (res, exp) in enumerate(zip(results, expected)):
        detail = res.detail
        if res.ok and wl.check:
            detail = wl.check(res.value, exp)
        if detail:
            failures.append(f"op {k}: {detail}")
    out.update(
        solve_s=probe.adjusted(setup_end, end),
        solve_wall_s=end - setup_end,
        wall_s=probe.adjusted(t0, end),
        peak_rss_mb=peak_rss_mb,
        attempted=len(items),
        failed=len(failures),
        failures=failures[:5],
    )
    if tracer is not None:
        out["per_layer"] = layers.per_layer(tracer, oracle_s)
        out["span_self_total_s"] = sum(tracer.self_times().values())
        out["span_wall_s"] = end - start
        if spans_path:
            tracer.dump(spans_path)
    if mode == "count":
        out["per_layer"] = {**tracing.scalar_metrics(counts), **evals}
    return out


def main(argv=None) -> int:
    # the speed probe starts before tqdha is imported, so imports are sampled
    probe = SpeedProbe()
    probe.start()
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    p = argparse.ArgumentParser(description="one pass of one tqdha benchmark workload")
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--mode", required=True, choices=("plain", "setup", "trace", "count"))
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--ops", type=int, default=None)
    p.add_argument("--mark", type=int, default=None)
    p.add_argument("--spans", default=None)
    a = p.parse_args(argv)
    try:
        out = run_pass(probe, a.workload, a.seed, a.seconds, a.mode, a.t0, a.ops, a.mark, a.spans)
    finally:
        probe.stop()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

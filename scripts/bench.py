#!/usr/bin/env python3
"""Wall time, peak memory, exit code and stdout digest of the repository's
commands, each run in a child process, written as one JSON report.

The entries are every golden case of tests/test_golden.py (digest cases
included), ``classify-symmetric`` at n = 6 and 7 with and without
``--twisted``, the diagonal survey, the exhaustive rewriting oracle on
twisted S5 (``ci/pbw-check.s5_twisted.oracle``: ``pbw-check
problems/s5_twisted.json --kappa <kappa_1> --oracle``, kappa_1 written to a
temporary file as the CI step does), ``compare_twisted_untwisted.py
--max-n 7``, ``selftest`` and the tier-1 suite with ``--durations=0``.  For each run
it records the wall time, the command's own peak RSS (``ru_maxrss`` from
``os.wait4``), the exit code and the sha256 of stdout; ``--repeat k`` runs
every entry k times, entry after entry, and reports the median, min and max.
The report also holds ``nproc``, the Python version and the git revision.

The bench also checks outputs: it exits 1 when a digest differs from its
golden (tests/golden/) or its CI pin (.github/workflows/tests.yml), or when
an exit code differs from the golden's (0 for entries without one).  Runs
are bytecode-free (``PYTHONDONTWRITEBYTECODE=1``), and a tree that holds a
``__pycache__`` directory is refused, since cached bytecode makes every
start-up faster and the numbers incomparable.  From the repository root:

    python scripts/bench.py --out BENCH_31.json --repeat 3
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
import time

sys.dont_write_bytecode = True
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

import test_golden  # noqa: E402  (the golden cases, read from their one definition)
from tqdha import classify  # noqa: E402

WORKFLOW = os.path.join(ROOT, ".github", "workflows", "tests.yml")
CLI = [sys.executable, "-m", "tqdha.cli"]


def ci_pins() -> dict:
    """The sha256 pins of the CI workflow, by the file name its step writes
    stdout to: each ``out="$RUNNER_TEMP/<name>"`` followed, before the next
    such line, by ``echo "<sha256>  $out" | sha256sum -c -``."""
    with open(WORKFLOW) as f:
        text = f.read()
    step = r'out="\$RUNNER_TEMP/([^"]+)"((?:(?!out=").)*?)echo "([0-9a-f]{64})  \$out"'
    return {name: sha for name, _, sha in re.findall(step, text, re.S)}


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def entries(scratch: str) -> dict:
    """name -> (argv, expected exit code, expected sha256 or None).  The
    files an argv reads beyond the repository are written under scratch."""
    with open(os.path.join(test_golden.GOLDEN, "exit_codes.json")) as f:
        codes = json.load(f)
    with open(os.path.join(test_golden.GOLDEN, "digests.json")) as f:
        digests = json.load(f)

    def resolve(argv):
        return [os.path.join(test_golden.GOLDEN if os.path.exists(os.path.join(test_golden.GOLDEN, a))
                             else test_golden.PROBLEMS, a) if a.endswith(".json") else a
                for a in argv]

    out = {}
    for name, argv in sorted(test_golden.CASES.items()):
        with open(os.path.join(test_golden.GOLDEN, name + ".out"), "rb") as f:
            out[f"golden/{name}"] = (CLI + resolve(argv), codes[name], _digest(f.read()))
    for name, argv in sorted(test_golden.DIGEST_CASES.items()):
        want = digests[name]
        out[f"digest/{name}"] = (CLI + resolve(argv), want["exit_code"], want["sha256"])
    pins = ci_pins()
    for n in (6, 7):
        for twisted in (False, True):
            flag = ["--twisted"] if twisted else []
            pin = pins[f"s{n}_{'twisted' if twisted else 'untwisted'}.json"]
            out[f"ci/classify-symmetric.{n}{'.twisted' if twisted else ''}"] = (
                CLI + ["classify-symmetric", "--n", str(n)] + flag, 0, pin)
    out["ci/diagonal_survey"] = (
        [sys.executable, os.path.join(ROOT, "scripts", "diagonal_survey.py")], 0,
        pins["diagonal_survey.txt"])
    kappa = os.path.join(scratch, "kappa_one_s5.json")
    with open(kappa, "w") as f:
        f.write(json.dumps(classify.kappa_one(5).to_records()))
    out["ci/pbw-check.s5_twisted.oracle"] = (
        CLI + ["pbw-check", os.path.join(test_golden.PROBLEMS, "s5_twisted.json"), "--kappa", kappa,
               "--oracle"], 0, None)
    out["compare_twisted_untwisted.max-n.7"] = (
        [sys.executable, os.path.join(ROOT, "scripts", "compare_twisted_untwisted.py"),
         "--max-n", "7"], 0, None)
    out["selftest"] = (CLI + ["selftest"], 0, None)
    out["tier1"] = ([sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
                     "--durations=0", "-W", "error", "-p", "no:cacheprovider"], 0, None)
    return out


# Linux carries a process's peak RSS across exec, so a command started
# straight from this script would report at least this script's own RSS
# (tens of MB once the goldens are read).  A bare Python starts it instead
# and hands back its wall time, its own ru_maxrss and its exit code.
LAUNCHER = """
import os, sys, time
start = time.perf_counter()
pid = os.fork()
if pid == 0:
    os.execv(sys.argv[2], sys.argv[2:])
_, status, usage = os.wait4(pid, 0)
with open(sys.argv[1], "w") as f:
    f.write(f"{time.perf_counter() - start} {usage.ru_maxrss} {os.waitstatus_to_exitcode(status)}")
"""


def run_once(argv, env) -> dict:
    """One run of argv in a grandchild of this script, through ``LAUNCHER``;
    its stdout goes to a temporary file."""
    with tempfile.TemporaryFile() as stdout, tempfile.NamedTemporaryFile("r") as result:
        subprocess.run([sys.executable, "-I", "-S", "-c", LAUNCHER, result.name, *argv], cwd=ROOT,
                       env=env, stdout=stdout, stderr=subprocess.DEVNULL, check=True)
        wall, rss_kb, code = result.read().split()
        stdout.seek(0)
        sha = _digest(stdout.read())
    return {"wall_s": round(float(wall), 4), "peak_rss_mb": round(int(rss_kb) / 1024, 1),
            "exit_code": int(code), "sha256": sha}


def spread(values) -> dict:
    return {"median": statistics.median(values), "min": min(values), "max": max(values)}


def pycache_dirs() -> list:
    return [os.path.relpath(os.path.join(d, "__pycache__"), ROOT)
            for d, subdirs, _ in os.walk(ROOT) if ".git" not in d.split(os.sep)
            and "__pycache__" in subdirs]


def git_revision() -> dict:
    def git(*args):
        run = subprocess.run(["git", *args], cwd=ROOT, stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL, text=True)
        return run.stdout.strip() if run.returncode == 0 else None
    status = git("status", "--porcelain", "--untracked-files=no")
    return {"commit": git("rev-parse", "HEAD"), "dirty": bool(status) if status is not None else None}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--out", help="write the JSON report here (default: stdout)")
    ap.add_argument("--repeat", type=int, default=1, help="runs per entry (default 1)")
    args = ap.parse_args(argv)
    if args.repeat < 1:
        ap.error("--repeat must be at least 1")
    cached = pycache_dirs()
    if cached:
        print(f"refusing a tree with cached bytecode: {', '.join(cached[:5])}", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONIOENCODING="utf-8",
               PYTHONPATH=os.pathsep.join(filter(None, [os.path.join(ROOT, "src"),
                                                        os.environ.get("PYTHONPATH")])))
    report = {
        "revision": git_revision(),
        "machine": {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
                    "implementation": platform.python_implementation()},
        "repeat": args.repeat,
        "entries": {},
    }
    failures = []
    with tempfile.TemporaryDirectory() as scratch:
        for name, (cmd, code, sha) in entries(scratch).items():
            runs = [run_once(cmd, env) for _ in range(args.repeat)]
            bad = [r for r in runs
                   if r["exit_code"] != code or (sha is not None and r["sha256"] != sha)]
            if bad:
                failures.append(name)
            report["entries"][name] = {
                "argv": [os.path.relpath(a, ROOT) if os.path.isabs(a) and a.startswith(ROOT)
                         else a.replace(scratch, "<tmp>") for a in cmd[1:]],
                "expected_exit_code": code, "expected_sha256": sha, "ok": not bad,
                "wall_s": spread([r["wall_s"] for r in runs]),
                "peak_rss_mb": spread([r["peak_rss_mb"] for r in runs]),
                "runs": runs,
            }
            print(f"{name}: {report['entries'][name]['wall_s']['median']:.2f} s, "
                  f"{report['entries'][name]['peak_rss_mb']['median']:.1f} MB"
                  f"{'' if not bad else ', OUTPUT OR EXIT CODE DIFFERS'}", file=sys.stderr)
    report["ok"] = not failures
    report["failures"] = failures
    text = json.dumps(report, indent=2) + "\n"
    if args.out:
        with open(args.out, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)
    leftover = pycache_dirs()
    if leftover:
        print(f"the runs left cached bytecode: {', '.join(leftover[:5])}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

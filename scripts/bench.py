#!/usr/bin/env python3
"""Every check of the repository, each run in a child process: the one list
of checks that CI runs, measured and written as one JSON report.

``entries()`` is that list.  Each record (``Check``) holds the argv, the
expected exit code, the sha256 pin of stdout, assertions on fields of the
JSON that stdout holds, and upper bounds.  A bound names a measurement of
the run (``wall_s``, ``peak_rss_mb``) or a field of its JSON stdout (the
solver child's ``solve_s``).  The entries are every golden case of
tests/test_golden.py (digest cases included), ``classify-symmetric`` at
n = 6 and 7 with and without ``--twisted``, the diagonal survey, the loaded
structures (``scripts/load_digest.py``), the exhaustive rewriting oracle on
twisted S5, the direct solver against the cohomology route on untwisted S7
(``SOLVER_CHILD``), the refusals of ``pbw-check --oracle`` on twisted S6
and of ``alpha-table 7`` (exit 3),
``compare_twisted_untwisted.py --max-n 7``, five short
perfbench runs, ``selftest`` and the tier-1 suite with ``--durations=0``.

For each run it records the wall time, the command's own peak RSS
(``ru_maxrss`` from ``os.wait4``), the exit code, the sha256 of stdout and
the JSON fields the record asserts or bounds; ``--repeat k`` runs every
entry k times, entry after entry, and reports the median, min and max next
to the record's pin, assertions and bounds.  Every run is checked on its
own, not on a median: a wrong exit code or digest, a failed assertion or a
crossed bound fails the entry, and the script prints what failed, with the
value and its limit, and the last lines of that run's stdout and stderr,
and exits 1.  The report also records ``code_lines``, the number of lines
of the package src/tqdha that hold code (no docstring, comment or blank
line counts; see ``code_lines``), and that number per module.  Runs are bytecode-free (``PYTHONDONTWRITEBYTECODE=1``) and
turn warnings into errors (``PYTHONWARNINGS=error``); a tree that holds a
``__pycache__`` directory is refused, since cached bytecode makes every
start-up faster and the numbers incomparable.  From the repository root:

    python scripts/bench.py --out BENCH_38.json --repeat 3
"""

from __future__ import annotations

import argparse
import ast
import hashlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import tokenize
from typing import NamedTuple

sys.dont_write_bytecode = True
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

import test_golden  # noqa: E402  (the golden cases, read from their one definition)
from tqdha import classify  # noqa: E402

CLI = [sys.executable, "-m", "tqdha.cli"]
MEASURED = ("wall_s", "peak_rss_mb")
TAIL_LINES = 20


class Check(NamedTuple):
    """One entry: a run passes when it exits with ``exit_code``, its stdout
    has the digest ``sha256`` (None: any), the JSON on stdout has each field
    of ``expect`` with that value and type, and each reading named in
    ``under`` is strictly below its limit."""
    argv: list
    exit_code: int = 0
    sha256: str | None = None
    expect: dict = {}
    under: dict = {}


# The direct solver on untwisted S7 (dimension 5) against the cohomology
# route.  The class-local solver takes about 0.1 s and adds no memory, so the
# child (S7's table, both routes) stays under 6 s and 300 MB, where the
# whole-group solver took 3 s and 115 MB more (3.1-3.8 s and 229 MB on a
# 2-core box with Python 3.11); the cohomology route, summing each
# centralizer through its subgroup chain and expanding only the kept
# invariants, stays under 1 s (0.2 s; 1.7-1.9 s when it summed over every
# element of each centralizer).
SOLVER_CHILD = """
import json, time
from tqdha.classify import symmetric_instance
from tqdha.cohomology import cohomological_parameter_space
from tqdha.pbw import same_space, solve_parameter_space
_, action, q, alpha = symmetric_instance(7, False)
start = time.perf_counter()
direct = solve_parameter_space(action, q, alpha, recheck=False)
solve_s = time.perf_counter() - start
start = time.perf_counter()
coh = cohomological_parameter_space(action, q, alpha, recheck=False)
coh_s = time.perf_counter() - start
print(json.dumps({"dimension": len(direct), "same_space": same_space(direct, coh),
                  "solve_s": solve_s, "cohomology_s": coh_s}))
"""

# The benchmark's own correctness check, one short run per workload: every
# route's answers are checked against the benchmark's references.  The
# cyclotomic run solves three problems in one process in its 12 s budget, so
# a memoized scalar carried from one problem to the next meets the labels;
# its second seed has Galois-conjugated problems, which mix the shared
# scalars 0 and +-1 with values in Q(zeta_12) another way.  The kappa stream
# runs at two seeds, so two sets of failing kappas, on which the checker and
# the oracle stop early, meet the benchmark's in-span reference.
PERFBENCH_RUNS = [("s5-twisted-both", 1, 1), ("cyclotomic-diagonal", 1, 12),
                  ("cyclotomic-diagonal", 2, 12), ("s4-kappa-stream", 1, 1),
                  ("s4-kappa-stream", 2, 1)]


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def entries(scratch: str) -> dict:
    """name -> Check, in run order.  The files an argv reads beyond the
    repository are written under scratch."""
    with open(os.path.join(test_golden.GOLDEN, "exit_codes.json")) as f:
        codes = json.load(f)
    with open(os.path.join(test_golden.GOLDEN, "digests.json")) as f:
        digests = json.load(f)

    def resolve(argv):
        return [os.path.join(test_golden.GOLDEN if os.path.exists(os.path.join(test_golden.GOLDEN, a))
                             else test_golden.PROBLEMS, a) if a.endswith(".json") else a
                for a in argv]

    def script(name, *args):
        return [sys.executable, os.path.join(ROOT, "scripts", name), *args]

    out = {}
    for name, argv in sorted(test_golden.CASES.items()):
        with open(os.path.join(test_golden.GOLDEN, name + ".out"), "rb") as f:
            out[f"golden/{name}"] = Check(CLI + resolve(argv), codes[name], _digest(f.read()))
    for name, argv in sorted(test_golden.DIGEST_CASES.items()):
        want = digests[name]
        out[f"digest/{name}"] = Check(CLI + resolve(argv), want["exit_code"], want["sha256"])
    # the paper's comparison: dimension 2 twisted, 5 untwisted; the sha256
    # pins the whole report (basis, image table)
    symmetric = CLI + ["classify-symmetric", "--n"]
    out["ci/classify-symmetric.6"] = Check(
        symmetric + ["6"], sha256="d6474d9f214cd3b4345d37e3e397ba7a8af2318304889c73b70c08601ccb5d8a",
        expect={"dimension": 5})
    out["ci/classify-symmetric.6.twisted"] = Check(
        symmetric + ["6", "--twisted"],
        sha256="f1f4e359e9fb3e3be3fff1c4c3d2a276cfcc516a350e23e0284ce8bbb2b547ac",
        expect={"dimension": 2})
    # the largest S_n the dense route supports.  Untwisted: 239 MB with the
    # checker writing only the sites that meet each kappa's support, 332 MB
    # when the cohomology recheck built a whole-group condition system
    out["ci/classify-symmetric.7"] = Check(
        symmetric + ["7"], sha256="cb67051e2b1d4784a2bc5e37642803384c4a49a2310643e098a960515b2b11d1",
        expect={"dimension": 5}, under={"peak_rss_mb": 300})
    # twisted: 426-429 MB on a 2-core box with Python 3.10 and 3.11, nearly
    # all of it two tables of 5,040 tuples of 5,040 small ints, the S7 group
    # table and the spin cocycle's, filled by rows and kept as built (825 MB
    # when the cocycle was filled by columns and transposed)
    out["ci/classify-symmetric.7.twisted"] = Check(
        symmetric + ["7", "--twisted"],
        sha256="10731a6e8ccc0f0f964151ce0ef00bff798c11ec123bb74b31510924e9aa0163",
        expect={"dimension": 2, "matches_expected": True}, under={"peak_rss_mb": 500})
    # the sha256 pins every survey line (dimensions, labels)
    out["ci/diagonal_survey"] = Check(
        script("diagonal_survey.py"),
        sha256="9cb4d99242374e8dbf2595b7ff12da178a8104e41838a74eb20c98296356f8f1")
    # the sha256 pins the loaded structures of every bundled problem and of
    # the benchmark's seeded Z/6 x Z/6 problems
    out["ci/load_digest"] = Check(
        script("load_digest.py"),
        sha256="4fb9e48c3a787f89c0cd70793b6c1b70118efe15be28fbbb66c06ac3e4ed7919")
    # the exhaustive oracle resolves kappa_1 on all 1,801,210 overlap words
    # of twisted S5 with small per-problem tables: 0.4-0.6 s with the ttt
    # and ttv families decided in closed form by the cocycle's and the
    # action's own evaluators, 14.7-16.6 s when their words were each
    # reduced both ways (2-core box, Python 3.11)
    kappa = os.path.join(scratch, "kappa_one_s5.json")
    with open(kappa, "w") as f:
        f.write(json.dumps(classify.kappa_one(5).to_records()))
    out["ci/pbw-check.s5_twisted.oracle"] = Check(
        CLI + ["pbw-check", os.path.join(test_golden.PROBLEMS, "s5_twisted.json"), "--kappa", kappa,
               "--oracle"],
        expect={"ambiguities_resolvable": True, "ambiguities_checked": 1801210},
        under={"wall_s": 8, "peak_rss_mb": 64})
    # the exhaustive oracle on twisted S6 would decide 376,369,220 words,
    # past pbw.MAX_ORACLE_WORDS, so pbw-check --oracle refuses it after
    # loading the problem (0.39 s and 26 MB) and before any table; the
    # problem stays out of problems/, whose every file ci/load_digest pins
    s6 = {"n": 6, "q": "all:-1", "action": "natural-permutation", "cocycle": "spin(6)",
          "group": {"permutation_generators": [[2, 1, 3, 4, 5, 6], [2, 3, 4, 5, 6, 1]],
                    "degree": 6}}
    problem = os.path.join(scratch, "s6_twisted.json")
    with open(problem, "w") as f:
        f.write(json.dumps(s6))
    kappa = os.path.join(scratch, "kappa_zero.json")
    with open(kappa, "w") as f:
        f.write("[]")
    out["ci/pbw-check.s6_twisted.oracle"] = Check(
        CLI + ["pbw-check", problem, "--kappa", kappa, "--oracle"], 3,
        sha256="1730e827032d57c32018fe8fc512051980424ec79b8bedac0cbbe8f231d9abf4",
        expect={"error": "validation"}, under={"wall_s": 2, "peak_rss_mb": 48})
    # alpha-table 7 is refused before S7 is built: its 25,401,600 values
    # would make a JSON document of several GB (0.37 s and 17 MB to exit 3,
    # 2-core box, Python 3.11)
    out["ci/alpha-table.7"] = Check(
        CLI + ["alpha-table", "7"], 3,
        sha256="df6113c779ef9f867971a88ae864c0cecb2895eb1248e3207b36ddd8f7e0ddb8",
        expect={"error": "validation"}, under={"wall_s": 1, "peak_rss_mb": 32})
    out["ci/solve.s7"] = Check(
        [sys.executable, "-c", SOLVER_CHILD], expect={"dimension": 5, "same_space": True},
        under={"wall_s": 6, "solve_s": 1, "cohomology_s": 1, "peak_rss_mb": 300})
    # n = 4 to 7, twisted and untwisted, in one process: 439 MB, nearly all
    # of it S7's group table and the spin cocycle's, built last (452 MB when
    # module caches kept the smaller problems alive; 2-core box, Python 3.11)
    out["compare_twisted_untwisted.max-n.7"] = Check(
        script("compare_twisted_untwisted.py", "--max-n", "7"), under={"peak_rss_mb": 470})
    for workload, seed, seconds in PERFBENCH_RUNS:
        out[f"perfbench/{workload}.{seed}"] = Check(
            [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            expect={"correct": True, "failed": 0})
    out["selftest"] = Check(CLI + ["selftest"])
    out["tier1"] = Check([sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
                          "--durations=0", "-W", "error", "-p", "no:cacheprovider"])
    return out


def verdict(name: str, check: Check, run: dict) -> list:
    """One line per fault of one run, each naming the entry; empty when the
    run passes.  ``run`` holds the exit code, the sha256, the measurements
    and the JSON fields that check reads (None where stdout lacks one)."""
    faults = []
    if run["exit_code"] != check.exit_code:
        faults.append(f"{name}: exit code {run['exit_code']}, expected {check.exit_code}")
    if check.sha256 is not None and run["sha256"] != check.sha256:
        faults.append(f"{name}: stdout sha256 {run['sha256']}, expected {check.sha256}")
    for key, want in check.expect.items():
        got = run[key]
        if got != want or type(got) is not type(want):
            faults.append(f"{name}: {key} = {got!r}, expected {want!r}")
    for key, limit in check.under.items():
        got = run[key]
        if not isinstance(got, (int, float)) or got >= limit:
            faults.append(f"{name}: {key} = {got!r}, bound: under {limit}")
    return faults


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


def _tail(label: str, data: bytes) -> str:
    lines = data.decode("utf-8", "replace").splitlines()[-TAIL_LINES:]
    return "\n".join([f"--- last {len(lines)} lines of {label}"] + lines)


def run_once(check: Check, env) -> tuple:
    """One run of check.argv in a grandchild of this script, through
    ``LAUNCHER``: its readings (see ``verdict``) and the last lines of its
    stdout and stderr."""
    with tempfile.TemporaryFile() as stdout, tempfile.TemporaryFile() as stderr, \
            tempfile.NamedTemporaryFile("r") as result:
        subprocess.run([sys.executable, "-I", "-S", "-c", LAUNCHER, result.name, *check.argv],
                       cwd=ROOT, env=env, stdout=stdout, stderr=stderr, check=True)
        wall, rss_kb, code = result.read().split()
        stdout.seek(0)
        stderr.seek(0)
        out, err = stdout.read(), stderr.read()
    run = {"wall_s": round(float(wall), 4), "peak_rss_mb": round(int(rss_kb) / 1024, 1),
           "exit_code": int(code), "sha256": _digest(out)}
    fields = [k for k in (*check.expect, *check.under) if k not in MEASURED]
    if fields:
        try:
            doc = json.loads(out)
        except ValueError:
            doc = None
        run.update({k: doc.get(k) if isinstance(doc, dict) else None for k in fields})
    return run, _tail("stdout", out) + "\n" + _tail("stderr", err)


# the tokens that hold no code: comments, line breaks and indentation
LAYOUT_TOKENS = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
                 tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """The number of lines of the Python source that hold code: the lines
    met by a token other than a comment, a line break or an indentation
    change, less the lines of docstrings (a string that is the first
    statement of a module, class or function).  Blank and comment lines
    hold no such token."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in LAYOUT_TOKENS:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def package_code_lines() -> dict:
    """``code_lines`` of each module of src/tqdha, by file name, and their total."""
    package = os.path.join(ROOT, "src", "tqdha")
    modules = {}
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as f:
                modules[name] = code_lines(f.read())
    return {"total": sum(modules.values()), "modules": modules}


def spread(values) -> dict:
    return {"median": statistics.median(values), "min": min(values), "max": max(values)}


def pycache_dirs() -> list:
    return [os.path.relpath(os.path.join(d, "__pycache__"), ROOT)
            for d, subdirs, _ in os.walk(ROOT) if ".git" not in d.split(os.sep)
            and "__pycache__" in subdirs]


def child_env() -> dict:
    return dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONIOENCODING="utf-8",
                PYTHONWARNINGS="error",
                PYTHONPATH=os.pathsep.join(filter(None, [os.path.join(ROOT, "src"),
                                                         os.environ.get("PYTHONPATH")])))


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
    env = child_env()
    lines = package_code_lines()
    report = {
        "revision": git_revision(),
        "code_lines": lines["total"],
        "code_lines_by_module": lines["modules"],
        "machine": {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
                    "implementation": platform.python_implementation()},
        "repeat": args.repeat,
        "entries": {},
    }
    failures = []
    with tempfile.TemporaryDirectory() as scratch:
        for name, check in entries(scratch).items():
            runs, faults = [], []
            for _ in range(args.repeat):
                run, tails = run_once(check, env)
                bad = verdict(name, check, run)
                if bad:
                    print("\n".join(bad + [tails]), file=sys.stderr)
                runs.append(run)
                faults += bad
            if faults:
                failures.append(name)
            entry = report["entries"][name] = {
                "argv": [os.path.relpath(a, ROOT) if os.path.isabs(a) and a.startswith(ROOT)
                         else a.replace(scratch, "<tmp>") for a in check.argv[1:]],
                "expected_exit_code": check.exit_code, "expected_sha256": check.sha256,
                "expect": check.expect, "under": check.under, "ok": not faults, "faults": faults,
                "wall_s": spread([r["wall_s"] for r in runs]),
                "peak_rss_mb": spread([r["peak_rss_mb"] for r in runs]),
                "runs": runs,
            }
            print(f"{name}: {entry['wall_s']['median']:.2f} s, {entry['peak_rss_mb']['median']:.1f} MB"
                  f"{'' if not faults else ', FAILED'}", file=sys.stderr)
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

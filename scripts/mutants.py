#!/usr/bin/env python3
"""Every planted fault the tests must catch, each in its own copy of the
tree: the one list of mutants, run and written as one JSON report.

``MUTANTS`` is that list.  Each record (``Mutant``) holds a file, an exact
text that occurs once in it, its replacement, the shortcut or proof the
edit breaks, and the tests expected to kill it.  For each record the script
copies the tree (the files git tracks or would track, as they are in the
working tree, with no ``__pycache__``), applies the one edit, and runs the
named tests there with ``-x -p no:cacheprovider``; a failing test kills the
mutant.  First the named tests run once on an unedited copy, where they must
pass, so that each kill is the edit's.  Runs are bytecode-free.

It reports each mutant killed or survived, with the test that killed it and
the time, and exits 1 if a mutant survives, if a record's text does not
occur exactly once, or if a run ends in anything but a pass or a failed
test.  From the repository root:

    python scripts/mutants.py --out MUTANTS.json
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TIMEOUT_S = 600


class Mutant(NamedTuple):
    """One edit: ``text``, which must occur exactly once in ``path``
    (relative to the repository root), becomes ``replacement``; ``breaks``
    says what that breaks, and ``tests`` are the pytest node ids expected
    to kill it."""
    path: str
    text: str
    replacement: str
    breaks: str
    tests: tuple


MUTANTS = {
    "groups/symmetric-order-reversed": Mutant(
        "src/tqdha/groups.py",
        "    perms = list(permutations(range(n)))\n",
        "    perms = list(permutations(range(n)))[::-1]\n",
        "symmetric_group lists S_n in the order of the closure of its generators",
        ("tests/test_groups.py::test_symmetric_group_lists_the_closure_of_its_generators",)),
    "groups/symmetric-generators-swapped": Mutant(
        "src/tqdha/groups.py",
        "for cycle in ((0, 1), tuple(range(n)))[:n - 1]]",
        "for cycle in (tuple(range(n)), (0, 1))[:n - 1]]",
        "symmetric_group records the closure's generators, (0 1) first",
        ("tests/test_groups.py::test_symmetric_group_lists_the_closure_of_its_generators",)),
    "spin/lift-sign": Mutant(
        "src/tqdha/spin.py",
        "    return ((r,), c), ((s,), -c)\n",
        "    return ((r,), c), ((s,), c)\n",
        "the lift of [rs] is e_r - e_s, the sign convention of the cover",
        ("tests/test_spin.py::test_verify_cover_n4_exhaustive",
         "tests/test_spin.py::test_spin_cocycle_table_validates_and_is_nontrivial")),
    "pbw/expansion-sign": Mutant(
        "src/tqdha/pbw.py",
        "                    xg[p] = -total / row[p]\n",
        "                    xg[p] = total / row[p]\n",
        "the expansion along conjugation_walk solves condition (1) for the unknown at g",
        ("tests/test_acceptance.py::test_criterion_5_dual_oracle_equivalence",)),
    "pbw/vvv-dropped": Mutant(
        "src/tqdha/pbw.py",
        "        for i, j, k in combinations(range(n), 3):\n            yield (k, j, i), (\"vvv\"",
        "        for i, j, k in ():\n            yield (k, j, i), (\"vvv\"",
        "the rewriting oracle decides every overlap word of the vvv family",
        ("tests/test_completeness.py::test_overlap_words_give_the_routes_dimension",)),
}


def occurrences(root: str, mutant: Mutant) -> int:
    """How often the record's text occurs in its file under root (0 when
    the file is missing)."""
    try:
        with open(os.path.join(root, mutant.path), encoding="utf-8") as f:
            return f.read().count(mutant.text)
    except FileNotFoundError:
        return 0


def tree_files() -> list:
    """The files of the tree, as ``git archive`` would take them but from the
    working tree: tracked or not ignored, present, outside ``__pycache__``."""
    run = subprocess.run(["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
                         cwd=ROOT, stdout=subprocess.PIPE, check=True)
    return [p for p in run.stdout.decode().split("\0") if p
            and "__pycache__" not in p.split("/") and os.path.isfile(os.path.join(ROOT, p))]


def copy_tree(files, dest: str) -> None:
    for rel in files:
        os.makedirs(os.path.dirname(os.path.join(dest, rel)), exist_ok=True)
        shutil.copy2(os.path.join(ROOT, rel), os.path.join(dest, rel))


def run_tests(tree: str, tests) -> dict:
    """The named tests in the tree: the pytest exit code (None on a time
    out), the first failed or erroring node id, and the seconds taken."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join(filter(None, [os.path.join(tree, "src"),
                                                        os.environ.get("PYTHONPATH")])))
    start = time.perf_counter()
    try:
        run = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                              *tests], cwd=tree, env=env, stdout=subprocess.PIPE,
                             stderr=subprocess.STDOUT, timeout=TIMEOUT_S)
        code, out = run.returncode, run.stdout.decode("utf-8", "replace")
    except subprocess.TimeoutExpired:
        code, out = None, ""
    failed = next((line.split(" ", 1)[1].split(" - ", 1)[0] for line in out.splitlines()
                   if line.startswith(("FAILED ", "ERROR "))), None)
    return {"exit_code": code, "failed": failed, "seconds": round(time.perf_counter() - start, 2)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--out", help="write the JSON report here (default: stdout)")
    args = ap.parse_args(argv)
    files = tree_files()
    report, faults = {"mutants": {}}, []
    with tempfile.TemporaryDirectory() as scratch:
        baseline = os.path.join(scratch, "baseline")
        copy_tree(files, baseline)
        tests = sorted({t for m in MUTANTS.values() for t in m.tests})
        report["baseline"] = run = run_tests(baseline, tests)
        if run["exit_code"] != 0:
            faults.append(f"baseline: the named tests do not pass on the unedited tree ({run})")
        for name, mutant in MUTANTS.items():
            count = occurrences(baseline, mutant)
            entry = report["mutants"][name] = {**mutant._asdict(), "tests": list(mutant.tests),
                                               "occurrences": count}
            if count != 1:
                entry["verdict"] = "stale"
                faults.append(f"{name}: the text occurs {count} times in {mutant.path}, not once")
                continue
            tree = os.path.join(scratch, name.replace("/", "_"))
            copy_tree(files, tree)
            target = os.path.join(tree, mutant.path)
            with open(target, encoding="utf-8") as f:
                source = f.read()
            with open(target, "w", encoding="utf-8") as f:
                f.write(source.replace(mutant.text, mutant.replacement))
            run = run_tests(tree, mutant.tests)
            shutil.rmtree(tree)
            entry.update(run, verdict={0: "survived", 1: "killed"}.get(run["exit_code"], "error"))
            if entry["verdict"] != "killed":
                faults.append(f"{name}: {entry['verdict']} (pytest exit code {run['exit_code']})")
            print(f"{entry['verdict']:8} {name}  {run['failed'] or '-'}  {run['seconds']} s",
                  file=sys.stderr)
    report["ok"] = not faults
    text = json.dumps(report, indent=2) + "\n"
    if args.out:
        with open(args.out, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)
    if faults:
        print("\n".join(faults), file=sys.stderr)
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main())

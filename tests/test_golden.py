"""Golden CLI outputs: stdout and exit code of `run_command`, byte for byte.

The recordings in tests/golden/ were made by the code before the sparse-sum
refactor (the pbw-check ones before the generator-only cocycle and exterior
checks, and the S5 ones, ``parameter-space.s5_twisted`` and
``classify-symmetric.5``, before the solver's union-find pre-pass and its
condition (2) at class representatives, and the ``.cohomology`` ones, which
pin the cohomology route's basis on all six bundled problems and on
``z6z6_zeta12``, before the Reynolds projector became the skew-symmetrized
induced cocycle); a refactor that changes any report shows up here.  Each
pbw-check case runs with --oracle on a kappa file from tests/golden/: ``basis`` is the
last parameter-space basis vector, ``seeded`` three seeded random
coordinates.  The seeded kappa fails on every problem but weyl2, whose
parameter space is all of its kappa space.  ``z6z6_zeta12`` is a seeded
Z/6 x Z/6 diagonal problem over Q(zeta_12) with a bicharacter cocycle, kept
in tests/golden/ with its seeded kappa of proper cyclotomic coordinates; its
reports print values at conductors 3, 4 and 12, so they pin the
serialization of non-rational scalars.  Two problems in tests/golden/ do
not extend, so their reports pin the extension check's witnesses and the
error each route prints: ``z2_swap_zeta4``, Z/2 swapping v_1 and v_2 with
q_12 = zeta_4, fails both checks at the generator, and
``s3_reflection_zeta3``, S3 on its reflection representation in a basis
that is not monomial with q_12 = zeta_3, fails the exterior check only on
squares, with witnesses (g, i, i, k, l).  Outputs too large to commit
(``alpha-table 5``, 201 kB, all 14,400 S5 values, and ``alpha-table 6``,
7.0 MB, all 518,400 S6 values) are kept as the sha256 of
stdout with the exit code, in tests/golden/digests.json; so are a sampled
``verify-cover`` run, whose checked counts pin the sampling rule, and
``constant-cocycles`` on twisted S5, whose 85 kernel vectors pin the d_3*
kernel at a size no golden reaches.  To
re-record after an intended change of output, run from the repository root:

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import io
import json
import os
from contextlib import redirect_stderr, redirect_stdout

import pytest

from tqdha.cli import run_command

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "golden")
PROBLEMS = os.path.join(HERE, os.pardir, "problems")

PROBLEM_COMMANDS = {
    "check-extension": [],
    "parameter-space": ["--method", "both"],
    "constant-cocycles": [],
    "classify-diagonal": ["--crosscheck"],
}
PROBLEM_NAMES = ["weyl2", "z2_negation", "klein_bicharacter_diag", "s3_natural_qminus",
                 "s4_twisted"]
KAPPA_PROBLEMS = ["weyl2", "klein_bicharacter_diag", "s3_natural_qminus", "s4_twisted"]
CYCLOTOMIC = "z6z6_zeta12"
NOT_EXTENDING = ["z2_swap_zeta4", "s3_reflection_zeta3"]


def _cases():
    cases = {}
    for command, extra in PROBLEM_COMMANDS.items():
        for name in PROBLEM_NAMES:
            cases[f"{command}.{name}"] = [command, f"{name}.json", *extra]
    for command in PROBLEM_COMMANDS:
        cases[f"{command}.{CYCLOTOMIC}"] = [command, f"{CYCLOTOMIC}.json",
                                            *PROBLEM_COMMANDS[command]]
    for name in PROBLEM_NAMES + ["s5_twisted", CYCLOTOMIC]:
        cases[f"parameter-space.{name}.cohomology"] = [
            "parameter-space", f"{name}.json", "--method", "cohomology"]
    for name in NOT_EXTENDING:
        cases[f"check-extension.{name}"] = ["check-extension", f"{name}.json"]
        cases[f"constant-cocycles.{name}"] = ["constant-cocycles", f"{name}.json"]
        for method in ("direct", "cohomology"):
            cases[f"parameter-space.{name}.{method}"] = [
                "parameter-space", f"{name}.json", "--method", method]
    cases[f"pbw-check.{CYCLOTOMIC}.seeded"] = [
        "pbw-check", f"{CYCLOTOMIC}.json", "--kappa", f"kappa.{CYCLOTOMIC}.seeded.json", "--oracle"]
    for name in KAPPA_PROBLEMS:
        for kind in ("basis", "seeded"):
            cases[f"pbw-check.{name}.{kind}"] = [
                "pbw-check", f"{name}.json", "--kappa", f"kappa.{name}.{kind}.json", "--oracle"]
    cases["alpha-table.4"] = ["alpha-table", "4"]
    cases["classify-symmetric.4"] = ["classify-symmetric", "--n", "4"]
    cases["classify-symmetric.4.twisted"] = ["classify-symmetric", "--n", "4", "--twisted"]
    cases["verify-cover.4"] = ["verify-cover", "--n", "4"]
    cases["parameter-space.s5_twisted"] = ["parameter-space", "s5_twisted.json", "--method", "both"]
    cases["classify-symmetric.5"] = ["classify-symmetric", "--n", "5"]
    cases["classify-symmetric.5.twisted"] = ["classify-symmetric", "--n", "5", "--twisted"]
    return cases


CASES = _cases()
DIGEST_CASES = {
    "alpha-table.5": ["alpha-table", "5"],
    "alpha-table.6": ["alpha-table", "6"],
    "constant-cocycles.s5_twisted": ["constant-cocycles", "s5_twisted.json"],
    "verify-cover.5.seed3.samples60": ["--seed", "3", "verify-cover", "--n", "5", "--samples", "60"],
}


def _run(argv):
    argv = [os.path.join(GOLDEN if os.path.exists(os.path.join(GOLDEN, a)) else PROBLEMS, a)
            if a.endswith(".json") else a for a in argv]
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = run_command(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name):
    with open(os.path.join(GOLDEN, "exit_codes.json")) as f:
        expected_code = json.load(f)[name]
    with open(os.path.join(GOLDEN, name + ".out"), encoding="utf-8", newline="") as f:
        expected_out = f.read()
    code, out = _run(CASES[name])
    assert code == expected_code
    assert out == expected_out


def _digest(out):
    return hashlib.sha256(out.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", sorted(DIGEST_CASES))
def test_golden_digest(name):
    with open(os.path.join(GOLDEN, "digests.json")) as f:
        expected = json.load(f)[name]
    code, out = _run(DIGEST_CASES[name])
    assert {"exit_code": code, "sha256": _digest(out)} == expected


def record():
    os.makedirs(GOLDEN, exist_ok=True)
    codes = {}
    for name, argv in sorted(CASES.items()):
        codes[name], out = _run(argv)
        with open(os.path.join(GOLDEN, name + ".out"), "w", encoding="utf-8", newline="") as f:
            f.write(out)
    with open(os.path.join(GOLDEN, "exit_codes.json"), "w") as f:
        json.dump(codes, f, indent=2, sort_keys=True)
        f.write("\n")
    digests = {}
    for name, argv in sorted(DIGEST_CASES.items()):
        code, out = _run(argv)
        digests[name] = {"exit_code": code, "sha256": _digest(out)}
    with open(os.path.join(GOLDEN, "digests.json"), "w") as f:
        json.dump(digests, f, indent=2, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    record()

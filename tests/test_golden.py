"""Golden CLI outputs: stdout and exit code of `run_command`, byte for byte.

The recordings in tests/golden/ were made by the code before the sparse-sum
refactor; a refactor that changes any report shows up here.  To re-record
after an intended change of output, run from the repository root:

    PYTHONPATH=src python tests/test_golden.py
"""

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


def _cases():
    cases = {}
    for command, extra in PROBLEM_COMMANDS.items():
        for name in PROBLEM_NAMES:
            cases[f"{command}.{name}"] = [command, f"{name}.json", *extra]
    cases["alpha-table.4"] = ["alpha-table", "4"]
    cases["classify-symmetric.4"] = ["classify-symmetric", "--n", "4"]
    cases["classify-symmetric.4.twisted"] = ["classify-symmetric", "--n", "4", "--twisted"]
    cases["verify-cover.4"] = ["verify-cover", "--n", "4"]
    return cases


CASES = _cases()


def _run(argv):
    argv = [os.path.join(PROBLEMS, a) if a.endswith(".json") else a for a in argv]
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = run_command(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name, monkeypatch):
    monkeypatch.delenv("TQDHA_SAMPLE_SIZE", raising=False)
    with open(os.path.join(GOLDEN, "exit_codes.json")) as f:
        expected_code = json.load(f)[name]
    with open(os.path.join(GOLDEN, name + ".out"), encoding="utf-8", newline="") as f:
        expected_out = f.read()
    code, out = _run(CASES[name])
    assert code == expected_code
    assert out == expected_out


def record():
    os.environ.pop("TQDHA_SAMPLE_SIZE", None)
    os.makedirs(GOLDEN, exist_ok=True)
    codes = {}
    for name, argv in sorted(CASES.items()):
        codes[name], out = _run(argv)
        with open(os.path.join(GOLDEN, name + ".out"), "w", encoding="utf-8", newline="") as f:
            f.write(out)
    with open(os.path.join(GOLDEN, "exit_codes.json"), "w") as f:
        json.dump(codes, f, indent=2, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    record()

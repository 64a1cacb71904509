"""The list of checks in scripts/bench.py, which CI runs, checked without
running any of it: its verdict on fake runs, and every record that carries a
pin, a JSON assertion or a bound against the values those checks had when
they were steps of the CI workflow, so a check loosened or dropped fails
here.  Also the range ``compare_twisted_untwisted.py --max-n`` accepts."""

import importlib.util
import os
import sys

import pytest

SCRIPTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "scripts")


def _script(name):
    """scripts/<name>.py as a module, imported without writing bytecode,
    which bench.py refuses to find in the tree."""
    spec = importlib.util.spec_from_file_location(name, os.path.join(SCRIPTS, name + ".py"))
    module = importlib.util.module_from_spec(spec)
    flag = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = flag
    return module


bench = _script("bench")

PERFBENCH = {"correct": True, "failed": 0}

# entry -> (the argv's tail, paths by base name, sha256 pin, JSON assertions, upper bounds), as
# the CI workflow's steps had them before they became entries of bench.py.
# The workflow ran compare_twisted_untwisted.py --max-n 6; --max-n 7 checks
# n = 4 to 7, a superset.  ``ci/pbw-check.s6_twisted.oracle`` and
# ``ci/alpha-table.7`` came later, as entries, and are the ones that expect
# an exit code other than 0 (``EXIT_CODES``).  The peak_rss_mb bound of
# ``compare_twisted_untwisted.max-n.7`` came later too.
EXIT_CODES = {"ci/pbw-check.s6_twisted.oracle": 3, "ci/alpha-table.7": 3}
WORKFLOW = {
    "ci/classify-symmetric.6": (
        ["classify-symmetric", "--n", "6"],
        "d6474d9f214cd3b4345d37e3e397ba7a8af2318304889c73b70c08601ccb5d8a", {"dimension": 5}, {}),
    "ci/classify-symmetric.6.twisted": (
        ["classify-symmetric", "--n", "6", "--twisted"],
        "f1f4e359e9fb3e3be3fff1c4c3d2a276cfcc516a350e23e0284ce8bbb2b547ac", {"dimension": 2}, {}),
    "ci/classify-symmetric.7": (
        ["classify-symmetric", "--n", "7"],
        "cb67051e2b1d4784a2bc5e37642803384c4a49a2310643e098a960515b2b11d1", {"dimension": 5},
        {"peak_rss_mb": 300}),
    "ci/classify-symmetric.7.twisted": (
        ["classify-symmetric", "--n", "7", "--twisted"],
        "10731a6e8ccc0f0f964151ce0ef00bff798c11ec123bb74b31510924e9aa0163",
        {"dimension": 2, "matches_expected": True}, {"peak_rss_mb": 500}),
    "ci/diagonal_survey": (
        ["diagonal_survey.py"],
        "9cb4d99242374e8dbf2595b7ff12da178a8104e41838a74eb20c98296356f8f1", {}, {}),
    "ci/load_digest": (
        ["load_digest.py"],
        "4fb9e48c3a787f89c0cd70793b6c1b70118efe15be28fbbb66c06ac3e4ed7919", {}, {}),
    "ci/pbw-check.s5_twisted.oracle": (
        ["pbw-check", "s5_twisted.json", "--kappa", "kappa_one_s5.json", "--oracle"], None,
        {"ambiguities_resolvable": True, "ambiguities_checked": 1801210},
        {"wall_s": 8, "peak_rss_mb": 64}),
    "ci/pbw-check.s6_twisted.oracle": (
        ["pbw-check", "s6_twisted.json", "--kappa", "kappa_zero.json", "--oracle"],
        "1730e827032d57c32018fe8fc512051980424ec79b8bedac0cbbe8f231d9abf4",
        {"error": "validation"}, {"wall_s": 2, "peak_rss_mb": 48}),
    "ci/alpha-table.7": (
        ["alpha-table", "7"], "df6113c779ef9f867971a88ae864c0cecb2895eb1248e3207b36ddd8f7e0ddb8",
        {"error": "validation"}, {"wall_s": 1, "peak_rss_mb": 32}),
    "ci/solve.s7": (
        [bench.SOLVER_CHILD], None, {"dimension": 5, "same_space": True},
        {"wall_s": 6, "solve_s": 1, "cohomology_s": 1, "peak_rss_mb": 300}),
    "compare_twisted_untwisted.max-n.7": (["compare_twisted_untwisted.py", "--max-n", "7"],
                                          None, {}, {"peak_rss_mb": 470}),
    "perfbench/s5-twisted-both.1": (
        ["s5-twisted-both", "--seed", "1", "--seconds", "1", "--trace", "0"], None, PERFBENCH, {}),
    "perfbench/cyclotomic-diagonal.1": (
        ["cyclotomic-diagonal", "--seed", "1", "--seconds", "12", "--trace", "0"], None, PERFBENCH,
        {}),
    "perfbench/cyclotomic-diagonal.2": (
        ["cyclotomic-diagonal", "--seed", "2", "--seconds", "12", "--trace", "0"], None, PERFBENCH,
        {}),
    "perfbench/s4-kappa-stream.1": (
        ["s4-kappa-stream", "--seed", "1", "--seconds", "1", "--trace", "0"], None, PERFBENCH, {}),
    "perfbench/s4-kappa-stream.2": (
        ["s4-kappa-stream", "--seed", "2", "--seconds", "1", "--trace", "0"], None, PERFBENCH, {}),
    "selftest": (["selftest"], None, {}, {}),
    "tier1": (["-W", "error", "-p", "no:cacheprovider"], None, {}, {}),
}


@pytest.fixture(scope="module")
def checks(tmp_path_factory):
    return bench.entries(str(tmp_path_factory.mktemp("bench")))


def test_every_workflow_check_is_an_entry_with_its_exact_values(checks):
    for name, (tail, sha256, expect, under) in WORKFLOW.items():
        check = checks[name]
        assert [os.path.basename(a) for a in check.argv[-len(tail):]] == tail, name
        assert (check.exit_code, check.sha256, check.expect, check.under) == (
            EXIT_CODES.get(name, 0), sha256, expect, under), name
    others = {name for name in checks if name not in WORKFLOW}
    assert others and all(name.startswith(("golden/", "digest/")) for name in others)
    assert all(checks[name].sha256 and not checks[name].expect and not checks[name].under
               for name in others)


def test_every_entry_runs_with_warnings_as_errors():
    assert bench.child_env()["PYTHONWARNINGS"] == "error"


def _good(check):
    run = {"exit_code": check.exit_code, "sha256": check.sha256, "wall_s": 0.5, "peak_rss_mb": 20.0}
    run.update(check.expect)
    run.update({k: 0.1 for k in check.under if k not in run})
    return run


@pytest.mark.parametrize("name, change, says", [
    ("ci/classify-symmetric.7.twisted", {"peak_rss_mb": 500.0},
     "peak_rss_mb = 500.0, bound: under 500"),
    ("ci/pbw-check.s5_twisted.oracle", {"wall_s": 8.3}, "wall_s = 8.3, bound: under 8"),
    ("ci/solve.s7", {"solve_s": 1.2}, "solve_s = 1.2, bound: under 1"),
    ("ci/solve.s7", {"cohomology_s": None}, "cohomology_s = None, bound: under 1"),
    ("ci/classify-symmetric.6.twisted", {"dimension": 3}, "dimension = 3, expected 2"),
    ("ci/classify-symmetric.7.twisted", {"matches_expected": 1},
     "matches_expected = 1, expected True"),
    ("perfbench/s4-kappa-stream.2", {"failed": 1}, "failed = 1, expected 0"),
    ("selftest", {"exit_code": 1}, "exit code 1, expected 0"),
    ("ci/pbw-check.s6_twisted.oracle", {"exit_code": 0}, "exit code 0, expected 3"),
    ("ci/pbw-check.s6_twisted.oracle", {"wall_s": 2.0}, "wall_s = 2.0, bound: under 2"),
    ("ci/alpha-table.7", {"exit_code": 0}, "exit code 0, expected 3"),
    ("ci/alpha-table.7", {"wall_s": 1.0}, "wall_s = 1.0, bound: under 1"),
    ("compare_twisted_untwisted.max-n.7", {"peak_rss_mb": 470.0},
     "peak_rss_mb = 470.0, bound: under 470"),
    ("golden/check-extension.weyl2", {"sha256": "0" * 64}, f"stdout sha256 {'0' * 64}, expected"),
    ("ci/load_digest", {"sha256": "0" * 64}, "expected 4fb9e48c3a787f89"),
])
def test_a_crossed_bound_a_wrong_value_code_or_digest_fails_and_names_the_entry(
        checks, name, change, says):
    check = checks[name]
    assert bench.verdict(name, check, _good(check)) == []
    faults = bench.verdict(name, check, {**_good(check), **change})
    assert len(faults) == 1 and faults[0].startswith(f"{name}: ") and says in faults[0], faults


@pytest.mark.parametrize("max_n", ["3", "8"])
def test_compare_refuses_max_n_outside_4_to_7(max_n, capsys):
    compare = _script("compare_twisted_untwisted")
    with pytest.raises(SystemExit) as exit_info:
        compare.main(["--max-n", max_n])
    assert exit_info.value.code == 2
    assert "--max-n must be from 4 to 7" in capsys.readouterr().err


CODE_LINES_SOURCE = '''#!/usr/bin/env python3
"""A module docstring
over two lines."""

import os  # a trailing comment counts as code

# a comment line


class Shape:
    """One line."""

    sides = 4

    def area(self):
        """A docstring,
        on two lines."""
        text = """a string that is not a docstring
        spans two lines"""
        return (self.sides
                * len(text))


def f():
    x = 1
    "a string after the first statement is code"
    return x
'''


def test_code_lines_leave_out_docstrings_comments_and_blanks():
    # import, class, sides, def area, text (two lines), return (two lines),
    # def f, x, the late string, return
    assert bench.code_lines(CODE_LINES_SOURCE) == 12
    assert bench.code_lines('"""Only a docstring."""\n\n# and a comment\n') == 0


def test_the_report_counts_the_package_per_module():
    lines = bench.package_code_lines()
    assert lines["total"] == sum(lines["modules"].values()) > 0
    assert "pbw.py" in lines["modules"] and "__init__.py" in lines["modules"]

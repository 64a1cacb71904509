"""Problem-file parsing, validation diagnostics, and the CLI contract."""

import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tqdha import cli, cohomology, groups, pbw, problems
from tqdha.cli import run_command
from tqdha.groups import symmetric_group
from tqdha.problems import ProblemValidationError, load_problem, parse_problem_file
from tqdha.spin import spin_cocycle

from test_orbit_solver import benchmark_inputs

PROBLEMS = os.path.join(os.path.dirname(__file__), os.pardir, "problems")


def problem_path(name):
    return os.path.join(PROBLEMS, name)


def run(argv):
    out = io.StringIO()
    err = io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run_command(argv)
    return code, out.getvalue(), err.getvalue()


def test_load_weyl_problem():
    prob = parse_problem_file(problem_path("weyl2.json"))
    assert prob.n == 2 and prob.group.size == 1


def test_load_s5_problem_materializes_group():
    prob = parse_problem_file(problem_path("s5_twisted.json"))
    assert prob.group.size == 120
    assert prob.alpha.name == "spin(5)"


def test_trivial_cocycle_is_not_validated_on_load(monkeypatch):
    validated = []
    real = problems.validate_cocycle

    def recording(alpha, *args, **kwargs):
        validated.append(alpha.name)
        return real(alpha, *args, **kwargs)

    monkeypatch.setattr(problems, "validate_cocycle", recording)
    for name in ("weyl2.json", "z2_negation.json", "s3_natural_qminus.json"):
        assert parse_problem_file(problem_path(name)).alpha.name == "trivial"
    assert validated == []
    # a bicharacter table is a cocycle by construction
    parse_problem_file(problem_path("klein_bicharacter_diag.json"))
    assert validated == []
    # the patched name is the one the loader calls for the cocycles it must
    # check, the tables given by value
    load_problem({"n": 1, "q": "all:1", "group": {"cyclic_product": [3]},
                  "action": {"diagonal": [["1/1"], ["1/1"], ["1/1"]]},
                  "cocycle": {"table": [["1/1"] * 3] * 3}})
    assert validated == ["table"]


def test_loaded_bicharacter_tables_are_cocycles():
    """The loader takes a bicharacter table unchecked, as a cocycle by
    construction (``groups.bicharacter_cocycle``); every one it builds from
    the bundled and golden problems and the benchmark's seeded problems
    passes ``validate_cocycle``."""
    folder = os.path.join(os.path.dirname(__file__), "golden")
    data = [json.loads(Path(path).read_text()) for path in (
        problem_path("klein_bicharacter_diag.json"), os.path.join(folder, "z6z6_zeta12.json"))]
    inputs = benchmark_inputs()
    data += [inst["problem"] for seed in range(1, 5)
             for inst in inputs.cyclotomic_instances(seed, 3)]
    for k, problem in enumerate(data):
        alpha = load_problem(problem).alpha
        assert alpha.name.startswith("bicharacter"), k
        report = groups.validate_cocycle(alpha)
        assert report["normalized"] and report["cocycle"], (k, report["failures"])


def test_validation_failure_names_location():
    data = {
        "n": 2,
        "q": "all:1",
        "group": {"cyclic_product": [2]},
        "action": {"diagonal": [["1/1", "1/1"], ["-1/1", "2/1"]]},
        "cocycle": "trivial",
    }
    with pytest.raises(ProblemValidationError) as exc:
        load_problem(data)
    assert exc.value.location == "action"


def test_bad_cocycle_rejected_with_triple():
    data = {
        "n": 1,
        "q": "all:1",
        "group": {"cyclic_product": [3]},
        "action": {"diagonal": [["1/1"], ["1/1"], ["1/1"]]},
        "cocycle": {"table": [["1/1"] * 3, ["1/1"] * 3, ["1/1", "2/1", "1/1"]]},
    }
    with pytest.raises(ProblemValidationError) as exc:
        load_problem(data)
    assert "cocycle" in str(exc.value)


def test_bad_scalar_string_located():
    data = {"n": 2, "q": [["1/1", "oops"], ["1/1", "1/1"]], "group": "trivial",
            "action": {"diagonal": [["1/1", "1/1"]]}, "cocycle": "trivial"}
    with pytest.raises(ProblemValidationError) as exc:
        load_problem(data)
    assert "q[0][1]" in str(exc.value)


def test_spin_requires_matching_group():
    data = {
        "n": 4,
        "q": "all:-1",
        "group": {"cyclic_product": [2, 2]},
        "action": {"diagonal": [["1/1"] * 4] * 4},
        "cocycle": "spin(4)",
    }
    with pytest.raises(ProblemValidationError) as exc:
        load_problem(data)
    assert exc.value.location == "cocycle"


def test_cli_unknown_subcommand_exits_2():
    code, _, _ = run(["frobnicate"])
    assert code == 2


def test_cli_validation_failure_exits_3(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n": 0}))
    code, out, _ = run(["parameter-space", str(bad)])
    assert code == 3
    assert json.loads(out)["error"] == "validation"


def test_cli_parameter_space_weyl():
    code, out, _ = run(["parameter-space", problem_path("weyl2.json")])
    assert code == 0
    rep = json.loads(out)
    assert rep["dimension"] == 1
    assert rep["basis"][0][0] == {"coefficients": {"0": "1/1"}, "i": 1, "j": 2}


def test_cli_method_both_cross_checks():
    code, out, _ = run(
        ["parameter-space", problem_path("klein_bicharacter_diag.json"), "--method", "both"]
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["spans_agree"] is True and rep["dimension"] == 1


def test_cli_reports_deterministic():
    args = ["parameter-space", problem_path("z2_negation.json"), "--method", "both"]
    _, out1, _ = run(args)
    _, out2, _ = run(args)
    assert out1 == out2


def test_cli_emitted_kappa_feeds_back_into_pbw_check(tmp_path):
    code, out, _ = run(["parameter-space", problem_path("s3_natural_qminus.json")])
    assert code == 0
    rep = json.loads(out)
    assert rep["dimension"] >= 1
    for records in rep["basis"]:
        kfile = tmp_path / "kappa.json"
        kfile.write_text(json.dumps({"kappa": records}))
        code2, out2, _ = run(
            ["pbw-check", problem_path("s3_natural_qminus.json"), "--kappa", str(kfile), "--oracle"]
        )
        assert code2 == 0
        rep2 = json.loads(out2)
        assert rep2["passed"] and rep2["ambiguities_resolvable"]


def test_cli_oracle_past_its_word_budget_exits_3_before_any_work(tmp_path, monkeypatch):
    # twisted S6: 376,369,220 overlap words to decide exhaustively, past the
    # budget that twisted S5's 1,801,210 pass; neither route may start
    problem = tmp_path / "s6_twisted.json"
    problem.write_text(json.dumps({
        "n": 6, "q": "all:-1", "action": "natural-permutation", "cocycle": "spin(6)",
        "group": {"permutation_generators": [[2, 1, 3, 4, 5, 6], [2, 3, 4, 5, 6, 1]],
                  "degree": 6}}))
    kappa = tmp_path / "zero.json"
    kappa.write_text("[]")
    for name in ("check_pbw_conditions", "verify_ambiguities"):
        monkeypatch.setattr(cli, name, lambda *args, **kwargs: pytest.fail("work started"))
    code, out, _ = run(["pbw-check", str(problem), "--kappa", str(kappa), "--oracle"])
    assert code == 3
    assert json.loads(out) == {"error": "validation", "reason": (
        "pbw-check --oracle would decide 376369220 overlap words, "
        f"past MAX_ORACLE_WORDS = {pbw.MAX_ORACLE_WORDS}")}
    assert pbw.overlap_word_count(symmetric_group(5), 5, True) == 1801210 <= pbw.MAX_ORACLE_WORDS


def test_generator_matrix_action_in_problem_file(tmp_path):
    # S3 acting through sign characters of its generators: matrices on the
    # two generators extend over the whole group
    prob = {
        "n": 2,
        "q": "all:1",
        "group": {"permutation_generators": [[2, 1, 3], [2, 3, 1]], "degree": 3},
        "action": {"generator_matrices": [
            [["-1/1", "0/1"], ["0/1", "-1/1"]],   # the transposition acts by -1
            [["1/1", "0/1"], ["0/1", "1/1"]],     # the 3-cycle acts trivially
        ]},
        "cocycle": "trivial",
    }
    f = tmp_path / "sign_action.json"
    f.write_text(json.dumps(prob))
    spec = parse_problem_file(str(f))
    assert spec.action.is_diagonal()
    code, out, _ = run(["parameter-space", str(f), "--method", "both"])
    assert code == 0
    rep = json.loads(out)
    assert rep["spans_agree"]


def test_cli_check_extension():
    code, out, _ = run(["check-extension", problem_path("s4_twisted.json")])
    assert code == 0
    rep = json.loads(out)
    assert rep["symmetric"] and rep["exterior"]


# Z/2 swapping v_1 and v_2 with q_12 = zeta_4: the action extends neither to
# S_q(V) nor to Lambda_q(V)
Z2_SWAP_ZETA4 = {"n": 2, "q": [["1/1", "1/1*z4^1"], ["1/1*z4^3", "1/1"]],
                 "group": {"permutation_generators": [[2, 1]]},
                 "action": "natural-permutation", "cocycle": "trivial"}


@pytest.mark.parametrize("argv", [["parameter-space", "--method", "direct"],
                                  ["parameter-space", "--method", "cohomology"],
                                  ["constant-cocycles"]])
def test_cli_extension_failure_exits_3_naming_witnesses(tmp_path, argv):
    f = tmp_path / "problem.json"
    f.write_text(json.dumps(Z2_SWAP_ZETA4))
    code, out, _ = run([argv[0], str(f), *argv[1:]])
    reason = json.loads(out)["reason"]
    assert code == 3
    assert "S_q(V)" in reason and "[(1, 0, 1)]" in reason
    if argv[-1] != "direct":
        # the cohomology route needs both algebras and names both failures
        assert "Lambda_q(V)" in reason and "[(1, 0, 1, 0, 1)]" in reason


def test_cli_constant_cocycles():
    code, out, _ = run(["constant-cocycles", problem_path("z2_negation.json")])
    assert code == 0
    rep = json.loads(out)
    assert rep["dimension"] == 2


def test_cli_classify_diagonal_crosscheck():
    code, out, _ = run(
        ["classify-diagonal", problem_path("klein_bicharacter_diag.json"), "--crosscheck"]
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["dimension"] == 1 and rep["spans_agree"]


def test_cli_classify_diagonal_rejects_permutation_action():
    code, out, _ = run(["classify-diagonal", problem_path("s3_natural_qminus.json")])
    assert code == 3


def test_cli_alpha_table():
    code, out, _ = run(["alpha-table", "--n", "4"])
    assert code == 0
    rep = json.loads(out)
    assert rep["n"] == 4
    assert len(rep["permutations"]) == 24
    assert rep["permutations"][0] == [1, 2, 3, 4]
    assert all(v in ("1/1", "-1/1") for row in rep["values"] for v in row)
    assert all(v == "1/1" for v in rep["values"][0])


def test_cli_verify_cover_n4():
    code, out, _ = run(["verify-cover", "--n", "4"])
    assert code == 0
    rep = json.loads(out)
    assert rep["all_passed"]


@pytest.mark.parametrize("value", ["0", "-5", "abc"])
@pytest.mark.parametrize("command", [["verify-cover", "--n", "5"], ["selftest", "--quick"]])
def test_cli_samples_must_be_a_positive_integer(command, value):
    code, out, err = run([*command, "--samples", value])
    assert code == 2
    assert out == ""
    assert "--samples" in err


def test_cli_classify_symmetric_n4():
    code, out, _ = run(["classify-symmetric", "--n", "4", "--twisted"])
    assert code == 0
    rep = json.loads(out)
    assert rep["dimension"] == 3
    assert rep["matches_expected"] is None
    assert rep["eta_counts"] == {"1": 6, "2": 6, "3": 12, "4": 3, "5": 8}


S2_DIAGONAL = {
    "n": 2,
    "q": "all:1",
    "group": {"cyclic_product": [2]},
    "action": {"diagonal": [["1/1", "1/1"], ["-1/1", "-1/1"]]},
    "cocycle": "trivial",
}


def run_problem(tmp_path, problem, *extra):
    f = tmp_path / "problem.json"
    f.write_text(json.dumps(problem))
    code, out, _ = run(["parameter-space", str(f), *extra])
    return code, json.loads(out)


def test_cli_group_table_not_a_table_exits_3(tmp_path):
    code, rep = run_problem(tmp_path, dict(S2_DIAGONAL, group={"table": 5}))
    assert code == 3 and rep["location"] == "group.table"


def test_empty_group_table_exits_3_at_group(tmp_path):
    """A table with no rows describes no group: the constructor refuses
    order 0 before any action or cocycle is built on it."""
    problem = {"n": 2, "group": {"table": []}, "action": {"diagonal": []}}
    with pytest.raises(ProblemValidationError) as err:
        load_problem(problem)
    assert err.value.location == "group" and "at least one element" in err.value.reason
    for action in ({"diagonal": []}, {"generator_matrices": []}):
        code, rep = run_problem(tmp_path, dict(problem, action=action))
        assert code == 3 and rep["location"] == "group"
    with pytest.raises(groups.GroupConstructionError):
        groups.FiniteGroup([])


KLEIN = json.loads(Path(problem_path("klein_bicharacter_diag.json")).read_text())


@pytest.mark.parametrize("problem, location", [
    ({"n": True, "action": {"generator_matrices": []}}, "n"),
    ({"n": 2, "group": {"permutation_generators": [[2, True]]}}, "group.permutation_generators"),
    ({"n": 2, "group": {"permutation_generators": [[2, 1]], "degree": True}}, "group.degree"),
    ({"n": 1, "group": {"table": [[False]]}}, "group.table"),
    (dict(S2_DIAGONAL, group={"cyclic_product": [True, 2]}), "group.cyclic_product"),
    (dict(KLEIN, cocycle={"bicharacter_exponents": [[0, 0], [True, 0]]}),
     "cocycle.bicharacter_exponents"),
    *[(dict(KLEIN, cocycle={"bicharacter_exponents": [[0, 0], [1, 0]], "root_order": m}),
       "cocycle.root_order") for m in (True, 0, -2, "2")],
], ids=["n", "generator-entry", "degree", "table-entry", "cyclic-order", "exponent",
        "root-order", "root-order-0", "root-order-negative", "root-order-string"])
def test_cli_bad_integer_field_exits_3_at_its_location(tmp_path, problem, location):
    # Python reads JSON true as 1 and false as 0; an integer field refuses both
    code, rep = run_problem(tmp_path, problem)
    assert code == 3 and rep["location"] == location


@pytest.mark.parametrize("i, j", [(2, 1), (1, 9), (0, 2), (2, 2)])
def test_cli_kappa_record_off_the_pairs_exits_3_naming_it(tmp_path, i, j):
    # the record and the 1-based range are named, not a 0-based pair
    record = {"i": i, "j": j, "coefficients": {"0": "1/1"}}
    kfile = tmp_path / "kappa.json"
    kfile.write_text(json.dumps({"kappa": [record]}))
    code, out, _ = run(["pbw-check", problem_path("s3_natural_qminus.json"), "--kappa", str(kfile)])
    rep = json.loads(out)
    assert code == 3 and rep["location"] == "kappa-file"
    assert repr(record) in rep["reason"] and "1 <= i < j <= 3" in rep["reason"]


def test_cli_kappa_record_with_boolean_index_exits_3(tmp_path):
    kfile = tmp_path / "kappa.json"
    kfile.write_text(json.dumps({"kappa": [{"i": True, "j": 2, "coefficients": {"0": "1/1"}}]}))
    code, out, _ = run(["pbw-check", problem_path("s3_natural_qminus.json"), "--kappa", str(kfile)])
    rep = json.loads(out)
    assert code == 3 and rep["location"] == "kappa-file"


def test_cli_diagonal_not_a_table_exits_3(tmp_path):
    code, rep = run_problem(tmp_path, dict(S2_DIAGONAL, action={"diagonal": 7}))
    assert code == 3 and rep["location"] == "action.diagonal"


@pytest.mark.parametrize("rows", [
    [["1/1", "1/1"], ["-1/1", "1/1"], ["-1/1", "1/1"]],  # t^2 acts as t, not t^2
    [["1/1", "2/1"], ["1/1", "1/1"], ["1/1", "1/1"]],  # the identity does not act trivially
], ids=["not-multiplicative", "identity"])
def test_cli_diagonal_not_a_character_exits_3(tmp_path, rows):
    problem = dict(S2_DIAGONAL, group={"cyclic_product": [3]}, action={"diagonal": rows})
    code, rep = run_problem(tmp_path, problem)
    assert code == 3 and rep["location"] == "action"


def test_cli_runs_as_module_without_warnings():
    root = os.path.join(os.path.dirname(__file__), os.pardir)
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "tqdha.cli", "check-extension",
         os.path.join(PROBLEMS, "s4_twisted.json")],
        capture_output=True, text=True, env=env, cwd=root,
    )
    with open(os.path.join(root, "tests", "golden", "check-extension.s4_twisted.out")) as f:
        golden = f.read()
    assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", golden)


def test_cli_closed_stdout_exits_without_traceback():
    # the reader takes a few bytes of the 201 kB report and closes the pipe,
    # as `tqdha alpha-table 5 | head -c 10` does
    root = os.path.join(os.path.dirname(__file__), os.pardir)
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    proc = subprocess.Popen([sys.executable, "-m", "tqdha.cli", "alpha-table", "5"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, cwd=root)
    assert len(proc.stdout.read(10)) == 10
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert (proc.wait(), err) == (1, "")


def test_cli_q_table_of_ints_exits_3(tmp_path):
    code, rep = run_problem(tmp_path, dict(S2_DIAGONAL, q=[[1, 1], [1, 1]]))
    assert code == 3 and rep["location"] == "q[0][0]"


@pytest.mark.parametrize("entry", [
    "1/1*z0^1", "1" * 5000 + "/1", "1/1*z" + "7" * 5000 + "^1", "1/1*z720720^1",
], ids=["order-0", "long-numerator", "long-order", "z720720"])
def test_cli_bad_scalar_exits_3_with_location(tmp_path, entry):
    code, rep = run_problem(tmp_path, dict(S2_DIAGONAL, q=[["1/1", entry], ["1/1", "1/1"]]))
    assert code == 3 and rep["location"] == "q[0][1]"


def test_cli_scalars_past_the_bound_together_exit_3(tmp_path):
    # z97 and z89 are each admitted, but would meet in Q(zeta_8633)
    q = [["1/1", "1/1*z97^1"], ["1/1*z97^96", "1/1"]]
    action = {"diagonal": [["1/1", "1/1"], ["1/1*z89^1", "1/1"]]}
    code, rep = run_problem(tmp_path, dict(S2_DIAGONAL, q=q, action=action))
    assert code == 3 and rep["location"] == "action.diagonal[1][0]"
    assert "MAX_CONDUCTOR" in rep["reason"]


def test_cli_kappa_file_shares_the_problem_conductor_bound(tmp_path):
    # q_12 in mu_89 and a kappa coefficient in mu_97 are each admitted, but
    # together they would need Q(zeta_8633)
    q = [["1/1", "1/1*z89^1", "1/1"], ["1/1*z89^88", "1/1", "1/1"], ["1/1", "1/1", "1/1"]]
    prob = tmp_path / "problem.json"
    prob.write_text(json.dumps({"n": 3, "q": q, "group": "trivial",
                                "action": {"generator_matrices": []}}))
    kfile = tmp_path / "kappa.json"
    kfile.write_text(json.dumps(
        {"kappa": [{"i": 1, "j": 3, "coefficients": {"0": "1/1"}},
                   {"i": 1, "j": 2, "coefficients": {"0": "1/1*z97^1"}}]}))
    code, out, _ = run(["pbw-check", str(prob), "--kappa", str(kfile), "--oracle"])
    rep = json.loads(out)
    assert code == 3 and rep["location"] == "kappa-file"
    assert "i=1, j=2" in rep["reason"] and "Q(zeta_8633)" in rep["reason"]


@pytest.mark.parametrize("records", [
    [{"i": 1, "j": 2, "coefficients": {"0": "1/1"}},
     {"i": 1, "j": 2, "coefficients": {"0": "-1/1"}}],
    [{"i": 1, "j": 2, "coefficients": {"0": "1/1", "00": "-1/1"}}],
], ids=["pair-twice", "element-twice"])
def test_cli_kappa_file_naming_a_value_twice_exits_3(tmp_path, records):
    # kept silently, the last record or key would win and the report would
    # be that of an input the file does not state
    kfile = tmp_path / "kappa.json"
    kfile.write_text(json.dumps({"kappa": records}))
    code, out, _ = run(["pbw-check", problem_path("s3_natural_qminus.json"), "--kappa", str(kfile)])
    rep = json.loads(out)
    assert code == 3 and rep["location"] == "kappa-file"
    assert repr(records[-1]) in rep["reason"]


def test_cli_alpha_table_given_n_twice_is_a_usage_error():
    for argv in (["alpha-table", "4", "--n", "5"], ["alpha-table", "--n", "4", "4"]):
        code, out, err = run(argv)
        assert code == 2 and out == "" and "not allowed" in err


@pytest.mark.parametrize("group", [
    {"permutation_generators": 5},
    {"permutation_generators": [[1, "a"]]},
    {"permutation_generators": [[2, 1]], "size_cap": "x"},
    {"permutation_generators": [[2, 1]], "degree": "2"},
    {"cyclic_product": ["2"]},
    {"cyclic_product": [1000000]},
    {"permutation_generators": [[2, 1, 3, 4, 5, 6, 7, 8], [2, 3, 4, 5, 6, 7, 8, 1]]},
    {"permutation_generators": [[1]], "degree": 10 ** 12},
], ids=["generators-not-a-table", "generator-not-integers", "size-cap-field", "degree-string",
        "order-string", "cyclic-past-bound", "s8-past-bound", "degree-past-generators"])
def test_cli_bad_group_description_exits_3(tmp_path, group):
    code, rep = run_problem(tmp_path, dict(S2_DIAGONAL, group=group))
    assert code == 3 and rep["location"].split(".")[0] == "group"


@pytest.mark.parametrize("degree", [10 ** 6, 10 ** 12])
def test_cli_degree_past_bound_exits_3_before_any_group(tmp_path, monkeypatch, degree):
    def constructing(*args, **kwargs):
        raise AssertionError("a group was built before the degree was checked")

    monkeypatch.setattr(problems, "group_from_permutations", constructing)
    group = {"permutation_generators": [], "degree": degree}
    code, rep = run_problem(tmp_path, dict(S2_DIAGONAL, group=group))
    assert code == 3 and rep["location"] == "group.degree"
    assert "MAX_GROUP_ORDER" in rep["reason"]


def test_degree_bound_holds_in_the_group_constructor():
    from tqdha.groups import MAX_GROUP_ORDER, GroupConstructionError, group_from_permutations

    with pytest.raises(GroupConstructionError, match="degree"):
        group_from_permutations([], degree=10 ** 12)
    assert group_from_permutations([], degree=MAX_GROUP_ORDER).size == 1


@pytest.mark.parametrize("argv, reason", [
    (["alpha-table", "8"], "MAX_GROUP_ORDER"), (["alpha-table", "4000"], "MAX_GROUP_ORDER"),
    (["classify-symmetric", "--n", "4000"], "MAX_GROUP_ORDER"),
    (["classify-symmetric", "--n", "4000", "--twisted"], "MAX_GROUP_ORDER"),
    (["verify-cover", "--n", "4000"], "MAX_GROUP_ORDER"),
    (["alpha-table", str(10 ** 6)], "MAX_GROUP_ORDER"),
    # |S7| = 5,040 is within MAX_GROUP_ORDER, but not its table of 5,040^2 values
    (["alpha-table", "7"], "alpha-table 7 would write 25401600 values, "
                           "past MAX_TABLE_VALUES = 1000000"),
], ids=["alpha-table-8", "alpha-table-4000", "classify-4000", "classify-4000-twisted",
        "verify-cover-4000", "alpha-table-10^6", "alpha-table-7"])
def test_cli_symmetric_n_past_bound_exits_3_before_any_permutation(monkeypatch, argv, reason):
    def constructing(*args, **kwargs):
        raise AssertionError("a permutation group was built before n! was checked")

    monkeypatch.setattr(groups, "group_from_permutations", constructing)
    code, out, _ = run(argv)
    assert code == 3 and reason in json.loads(out)["reason"]


@pytest.mark.parametrize("spec", ["spin(4000)", "spin(0)", "spin(" + "9" * 5000 + ")"])
def test_cli_spin_off_the_declared_group_exits_3_at_cocycle(tmp_path, monkeypatch, spec):
    def constructing(*args, **kwargs):
        raise AssertionError("something was built for a spin(n) that cannot fit")

    monkeypatch.setattr(groups, "group_from_permutations", constructing)
    monkeypatch.setattr(problems, "spin_cocycle", constructing)
    problem = {"n": 1, "group": "trivial", "cocycle": spec, "action": {"generator_matrices": []}}
    code, rep = run_problem(tmp_path, problem)
    assert code == 3 and rep["location"] == "cocycle"
    assert "does not live on the declared group" in rep["reason"]


def test_spin_problem_builds_one_group_and_one_table(monkeypatch):
    built = []
    real = problems.group_from_permutations

    def counting(*args, **kwargs):
        built.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(problems, "group_from_permutations", counting)
    monkeypatch.setattr(groups, "group_from_permutations", counting)
    prob = parse_problem_file(problem_path("s5_twisted.json"))
    assert len(built) == 1 and prob.alpha.group is prob.group


def test_spin_on_adjacent_transpositions_is_spin_cocycle():
    """S5 given by its four adjacent transpositions: the same elements in the
    same order as ``symmetric_group(5)``, other generators, the same table."""
    adjacent = [[k + 1 + (k == i) - (k == i + 1) for k in range(5)] for i in range(4)]
    prob = load_problem({"n": 5, "q": "all:-1", "group": {"permutation_generators": adjacent},
                         "cocycle": "spin(5)"})
    reference = spin_cocycle(symmetric_group(5))
    assert prob.group.generator_indices != reference.group.generator_indices
    assert prob.group.perms == reference.group.perms
    assert prob.alpha.distinct == reference.distinct and prob.alpha.index == reference.index
    assert prob.alpha.name == "spin(5)"


@pytest.mark.parametrize("n", [problems.MAX_DIMENSION + 1, 10 ** 9])
def test_cli_dimension_past_bound_exits_3_before_any_table(tmp_path, monkeypatch, n):
    def building(*args, **kwargs):
        raise AssertionError("a table was built before the dimension was checked")

    monkeypatch.setattr(problems.QMatrix, "uniform", building)
    monkeypatch.setattr(problems, "_build_group", building)
    problem = {"n": n, "q": "all:1", "group": "trivial", "action": {"generator_matrices": []}}
    code, rep = run_problem(tmp_path, problem)
    assert code == 3 and rep["location"] == "n"
    assert "MAX_DIMENSION" in rep["reason"]


def test_dimension_bound_admits_the_bundled_problems_and_s7():
    assert problems.MAX_DIMENSION >= 7
    for name in sorted(os.listdir(PROBLEMS)):
        with open(problem_path(name)) as f:
            assert json.load(f)["n"] <= problems.MAX_DIMENSION
    n = problems.MAX_DIMENSION
    prob = load_problem({"n": n, "q": "all:1", "group": "trivial",
                         "action": {"generator_matrices": []}})
    assert prob.n == n


def test_cli_kappa_coefficients_not_an_object_exits_3(tmp_path):
    prob = tmp_path / "problem.json"
    prob.write_text(json.dumps(S2_DIAGONAL))
    kfile = tmp_path / "kappa.json"
    kfile.write_text(json.dumps({"kappa": [{"i": 1, "j": 2, "coefficients": "1/1"}]}))
    code, out, _ = run(["pbw-check", str(prob), "--kappa", str(kfile)])
    assert code == 3 and json.loads(out)["location"] == "kappa-file"


def test_cli_solver_recheck_failure_exits_4(tmp_path, monkeypatch):
    def unresolvable(*args, **kwargs):
        return {"resolvable": False, "checked": 1, "witnesses": [("vvv", 2, 1, 0)]}

    monkeypatch.setattr(pbw, "verify_ambiguities", unresolvable)
    code, rep = run_problem(tmp_path, S2_DIAGONAL)
    assert code == 4 and rep["error"] == "cross-check"


def test_cli_cohomology_recheck_failure_exits_4(tmp_path, monkeypatch):
    def failing(*args, **kwargs):
        return {"passed": False, "condition1": False, "condition2": True, "violations": []}

    monkeypatch.setattr(cohomology, "check_pbw_conditions", failing)
    code, rep = run_problem(tmp_path, S2_DIAGONAL, "--method", "cohomology")
    assert code == 4 and rep["error"] == "cross-check"


def test_cli_trivial_table_group_without_matrices_acts_by_identity(tmp_path):
    prob = {"n": 2, "group": {"table": [[0]]}, "q": [["1", "1"], ["1", "1"]],
            "action": {"generator_matrices": []}}
    code, rep = run_problem(tmp_path, prob)
    assert code == 0 and rep["dimension"] == 1


def test_cli_nontrivial_table_group_without_matrices_exits_3(tmp_path):
    prob = {"n": 2, "group": {"table": [[0, 1], [1, 0]]}, "q": [["1", "1"], ["1", "1"]],
            "action": {"generator_matrices": []}}
    code, rep = run_problem(tmp_path, prob)
    assert code == 3 and rep["location"] == "action"
    assert "do not generate" in rep["reason"]


@pytest.mark.parametrize("generators, matrices", [
    # [2, 1] listed twice, as the swap and as -I
    ([[2, 1], [2, 1]], [[["0", "1"], ["1", "0"]], [["-1", "0"], ["0", "-1"]]]),
    # the identity given -I
    ([[1, 2]], [[["-1", "0"], ["0", "-1"]]]),
])
def test_cli_conflicting_generator_matrices_exit_3_at_action(tmp_path, generators, matrices):
    prob = {"n": 2, "q": "all:1", "group": {"permutation_generators": generators},
            "action": {"generator_matrices": matrices}, "cocycle": "trivial"}
    f = tmp_path / "problem.json"
    f.write_text(json.dumps(prob))
    code, out, _ = run(["check-extension", str(f)])
    rep = json.loads(out)
    assert code == 3 and rep["location"] == "action"


def test_cli_bicharacter_past_the_conductor_bound_exits_3_before_any_root(tmp_path, monkeypatch):
    real = groups.root_of_unity

    def bounded(n, k):
        raise AssertionError(f"root zeta_{n}^{k} built")

    monkeypatch.setattr(groups, "root_of_unity", bounded)
    prob = {"n": 1, "q": "all:1", "group": {"cyclic_product": [101]},
            "action": {"diagonal": [["1/1"]] * 101},
            "cocycle": {"bicharacter_exponents": [[1]], "root_order": 101}}
    code, rep = run_problem(tmp_path, prob)
    assert code == 3 and rep["location"] == "cocycle.bicharacter_exponents"
    assert "MAX_CONDUCTOR" in rep["reason"]
    # zeta_1000^500 = -1: the values are +-1 and the problem loads
    monkeypatch.setattr(groups, "root_of_unity", real)
    alpha = load_problem({"n": 1, "q": "all:1", "group": {"cyclic_product": [2]},
                          "action": {"diagonal": [["1/1"], ["1/1"]]},
                          "cocycle": {"bicharacter_exponents": [[500]], "root_order": 1000}}).alpha
    assert [x.serialize() for x in alpha.distinct] == ["1/1", "-1/1"]


@pytest.mark.parametrize("content", ["5", "null", '{"kappa": 5}', "{}", '{"kappa": {"i": 1}}',
                                     '"kappa"'],
                         ids=["number", "null", "kappa-number", "no-kappa", "kappa-object",
                              "string"])
def test_cli_kappa_file_not_a_list_of_records_exits_3(tmp_path, content):
    kfile = tmp_path / "kappa.json"
    kfile.write_text(content)
    code, out, _ = run(["pbw-check", problem_path("s3_natural_qminus.json"), "--kappa", str(kfile)])
    assert code == 3 and json.loads(out)["location"] == "kappa-file"


def test_cli_problem_file_naming_a_key_twice_exits_3(tmp_path):
    # json would keep the last value and load the problem with n = 3
    f = tmp_path / "problem.json"
    f.write_text('{"n": 2, "n": 3, "group": "trivial", "action": {"generator_matrices": []}}')
    code, out, _ = run(["check-extension", str(f)])
    rep = json.loads(out)
    assert code == 3 and rep["location"] == "file" and "'n'" in rep["reason"]


def test_cli_json_nested_past_the_recursion_limit_exits_3(tmp_path):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000)
    for argv, location in (
        (["check-extension", str(deep)], "file"),
        (["pbw-check", problem_path("s3_natural_qminus.json"), "--kappa", str(deep)], "kappa-file"),
    ):
        code, out, _ = run(argv)
        assert code == 3 and json.loads(out)["location"] == location


def test_cli_kappa_file_naming_a_key_twice_exits_3(tmp_path):
    kfile = tmp_path / "kappa.json"
    kfile.write_text('{"kappa": [{"i": 1, "j": 2, "coefficients": {"0": "1/1", "0": "-1/1"}}]}')
    code, out, _ = run(["pbw-check", problem_path("s3_natural_qminus.json"), "--kappa", str(kfile)])
    rep = json.loads(out)
    assert code == 3 and rep["location"] == "kappa-file" and "'0'" in rep["reason"]


@pytest.mark.parametrize("key", ["1_0", " 1", "+1", "01", "1 ", "١"])
def test_cli_kappa_element_key_is_the_index_as_written(tmp_path, key):
    # int() reads each of these as an element of S4 (10, 1, 1, 1, 1, 1)
    kfile = tmp_path / "kappa.json"
    records = [{"i": 1, "j": 2, "coefficients": {key: "1/1"}}]
    kfile.write_text(json.dumps({"kappa": records}))
    code, out, _ = run(["pbw-check", problem_path("s4_twisted.json"), "--kappa", str(kfile)])
    rep = json.loads(out)
    assert code == 3 and rep["location"] == "kappa-file" and repr(key) in rep["reason"]
    kfile.write_text(json.dumps({"kappa": [{"i": 1, "j": 2, "coefficients": {"10": "1/1"}}]}))
    assert run(["pbw-check", problem_path("s4_twisted.json"), "--kappa", str(kfile)])[0] == 0


def test_cli_zero_cocycle_table_entry_exits_3_at_cocycle_table(tmp_path):
    cocycle = {"table": [["1/1", "1/1"], ["1/1", "0/1"]]}
    code, rep = run_problem(tmp_path, dict(S2_DIAGONAL, cocycle=cocycle))
    assert code == 3 and rep["location"] == "cocycle.table"
    assert rep["reason"] == "cocycle value at (1, 1) is zero"


def test_bicharacter_programming_error_is_not_reported_as_bad_input(monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("a fault in the program, not in the file")

    monkeypatch.setattr(problems, "bicharacter_cocycle", broken)
    with pytest.raises(RuntimeError):
        load_problem(KLEIN)


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 40) | st.floats(allow_nan=False)
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                               max_size=3),
    max_leaves=8,
)
_ELEMENT_KEY = st.sampled_from(["0", "1", "5", "6", "00", " 1", "-1", "x", ""]) | st.text(max_size=3)
_SCALAR = st.sampled_from(["1/1", "0/1", "-2/3", "1/1*z4^1", "1/0", "z", ""]) | _JSON
_RECORD = st.fixed_dictionaries({
    "i": st.integers(-1, 4) | _JSON,
    "j": st.integers(-1, 4) | _JSON,
    "coefficients": st.dictionaries(_ELEMENT_KEY, _SCALAR, max_size=3) | _JSON,
}) | _JSON
_KAPPA_FILE = (st.lists(_RECORD, max_size=3) | _JSON).flatmap(
    lambda records: st.sampled_from([records, {"kappa": records}]))


@settings(max_examples=100, deadline=None)
@given(kappa=_KAPPA_FILE)
def test_any_json_kappa_file_exits_0_or_3(tmp_path_factory, kappa):
    kfile = tmp_path_factory.getbasetemp() / "any_kappa.json"
    kfile.write_text(json.dumps(kappa))
    code, _, _ = run(["pbw-check", problem_path("s3_natural_qminus.json"), "--kappa", str(kfile)])
    assert code in (0, 3)


@settings(max_examples=150, deadline=None)
@given(field=st.sampled_from(["n", "q", "group", "action", "cocycle"]),
       value=_JSON | st.sampled_from(["all:-1", "trivial", "spin(2)", "natural-permutation"]))
def test_any_json_problem_field_exits_0_or_3(tmp_path_factory, field, value):
    f = tmp_path_factory.getbasetemp() / "any_problem.json"
    f.write_text(json.dumps(dict(KLEIN, **{field: value})))
    code, _, _ = run(["check-extension", str(f)])
    assert code in (0, 3)

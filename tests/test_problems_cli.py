"""Problem-file parsing, validation diagnostics, and the CLI contract."""

import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest

from tqdha import cohomology, groups, pbw, problems
from tqdha.cli import run_command
from tqdha.groups import symmetric_group
from tqdha.problems import ProblemValidationError, load_problem, parse_problem_file
from tqdha.spin import spin_cocycle

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
    # the patched name is the one the loader calls for cocycles it must check
    parse_problem_file(problem_path("klein_bicharacter_diag.json"))
    assert len(validated) == 1


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


@pytest.mark.parametrize("argv", [
    ["alpha-table", "8"], ["alpha-table", "4000"], ["classify-symmetric", "--n", "4000"],
    ["classify-symmetric", "--n", "4000", "--twisted"], ["verify-cover", "--n", "4000"],
    ["alpha-table", str(10 ** 6)],
], ids=["alpha-table-8", "alpha-table-4000", "classify-4000", "classify-4000-twisted",
        "verify-cover-4000", "alpha-table-10^6"])
def test_cli_symmetric_n_past_bound_exits_3_before_any_permutation(monkeypatch, argv):
    def constructing(*args, **kwargs):
        raise AssertionError("a permutation group was built before n! was checked")

    monkeypatch.setattr(groups, "group_from_permutations", constructing)
    code, out, _ = run(argv)
    assert code == 3 and "MAX_GROUP_ORDER" in json.loads(out)["reason"]


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

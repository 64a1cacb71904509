"""Command-line interface: problem-file driven engines with JSON reports.

Exit codes: 0 success, 2 usage error (unknown subcommand or bad flags),
3 validation failure (bad problem file, bad kappa file, failed invariants),
4 mathematical cross-check mismatch (engines disagree, or selftest failure).
Reports go to stdout as JSON and are byte-identical across runs on the same
input; --samples (a positive integer, default 500) bounds the sampled
verification families, and --seed fixes the sampling seed.
"""

from __future__ import annotations

import argparse
import json
import sys

from .classify import (
    DiagonalError,
    diagonal_kappa_basis_labeled,
    symmetric_natural_classify,
)
from .cohomology import cohomological_parameter_space, constant_cocycle_basis
from .groups import symmetric_group
from .pbw import (
    CrossCheckError,
    ExtensionError,
    check_pbw_conditions,
    same_space,
    solve_parameter_space,
    verify_ambiguities,
)
from .problems import ProblemValidationError, load_kappa, parse_problem_file
from .quantum import check_action_extends
from .spin import spin_cocycle, verify_cover


def _positive_int(text: str) -> int:
    """argparse type of --samples: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


def _emit(report) -> None:
    print(json.dumps(report, indent=2, sort_keys=True))


def _kappa_records(kappas) -> list:
    return [k.to_records() for k in kappas]


def _pair_key(i: int, j: int) -> str:
    return f"{i + 1},{j + 1}"


def cmd_check_extension(args) -> int:
    prob = parse_problem_file(args.problem)
    rep = check_action_extends(prob.action, prob.q)
    _emit(
        {
            "symmetric": rep["symmetric"],
            "exterior": rep["exterior"],
            "symmetric_witnesses": rep["symmetric_witnesses"],
            "exterior_witnesses": rep["exterior_witnesses"],
        }
    )
    return 0


def cmd_pbw_check(args) -> int:
    prob = parse_problem_file(args.problem)
    try:
        with open(args.kappa) as f:
            data = json.load(f)
        records = data["kappa"] if isinstance(data, dict) else data
        kappa = load_kappa(prob, records)
    except (OSError, json.JSONDecodeError, KeyError, ValueError) as e:
        raise ProblemValidationError("kappa-file", str(e)) from e
    rep = check_pbw_conditions(kappa, prob.action, prob.q, prob.alpha)
    out = {"condition1": rep["condition1"], "condition2": rep["condition2"],
           "passed": rep["passed"], "violations": rep["violations"]}
    if args.oracle:
        amb = verify_ambiguities(kappa, prob.action, prob.q, prob.alpha)
        out["ambiguities_resolvable"] = amb["resolvable"]
        out["ambiguities_checked"] = amb["checked"]
        if amb["resolvable"] != rep["passed"]:
            _emit(out)
            return 4
    _emit(out)
    return 0


def cmd_parameter_space(args) -> int:
    prob = parse_problem_file(args.problem)
    method = args.method
    report: dict = {"method": method}
    if method in ("direct", "both"):
        direct = solve_parameter_space(prob.action, prob.q, prob.alpha)
        report["direct_dimension"] = len(direct)
    if method in ("cohomology", "both"):
        coh = cohomological_parameter_space(prob.action, prob.q, prob.alpha)
        report["cohomology_dimension"] = len(coh)
    if method == "direct":
        report["dimension"] = len(direct)
        report["basis"] = _kappa_records(direct)
    elif method == "cohomology":
        report["dimension"] = len(coh)
        report["basis"] = _kappa_records(coh)
    else:
        agree = same_space(direct, coh)
        report["spans_agree"] = agree
        report["dimension"] = len(direct)
        report["basis"] = _kappa_records(direct)
        if not agree:
            _emit(report)
            return 4
    _emit(report)
    return 0


def cmd_constant_cocycles(args) -> int:
    prob = parse_problem_file(args.problem)
    basis = constant_cocycle_basis(prob.action, prob.q)
    out = []
    for c in basis:
        vec = {}
        for (gamma, g, beta), coeff in sorted(c.coeffs.items(), key=lambda kv: kv[0][1:]):
            r, s = [t for t in range(prob.n) if beta[t]]
            vec.setdefault(str(g), {})[_pair_key(r, s)] = coeff.serialize()
        out.append(vec)
    _emit({"dimension": len(basis), "kernel_basis": out})
    return 0


def cmd_classify_diagonal(args) -> int:
    prob = parse_problem_file(args.problem)
    labeled = diagonal_kappa_basis_labeled(prob.action, prob.q, prob.alpha)
    basis = []
    for (a, r, s), kappa in labeled:
        basis.append(
            {"class_representative": a, "r": r + 1, "s": s + 1, "kappa": kappa.to_records()}
        )
    report = {"dimension": len(labeled), "basis": basis}
    if args.crosscheck:
        direct = solve_parameter_space(prob.action, prob.q, prob.alpha)
        agree = same_space([k for _, k in labeled], direct)
        report["direct_dimension"] = len(direct)
        report["spans_agree"] = agree
        if not agree:
            _emit(report)
            return 4
    _emit(report)
    return 0


def cmd_classify_symmetric(args) -> int:
    rep = symmetric_natural_classify(args.n, args.twisted)
    image = {}
    for tag, data in rep["lemma_image"].items():
        image[str(tag)] = {
            "defining_indices": [x + 1 for x in data["indices"]],
            "images": {
                _pair_key(i, j): elt.serialize() for (i, j), elt in sorted(data["images"].items())
            },
        }
    report = {
        "n": rep["n"],
        "twisted": rep["twisted"],
        "dimension": rep["dimension"],
        "basis": _kappa_records(rep["kappa_basis"]),
        "lemma_image": image,
        "eta_counts": {str(k): v for k, v in rep["eta_counts"].items()},
        "matches_expected": rep["matches_expected"],
    }
    _emit(report)
    if rep["matches_expected"] is False:
        return 4
    return 0


def cmd_alpha_table(args) -> int:
    n = args.n if args.n is not None else args.n_pos
    if n is None:
        _emit({"error": "validation", "reason": "alpha-table needs n (positional or --n)"})
        return 3
    args.n = n
    alpha = spin_cocycle(symmetric_group(args.n))
    group = alpha.group
    perms = [[x + 1 for x in p] for p in group.perms]
    values = [
        [alpha(g, h).serialize() for h in range(group.size)] for g in range(group.size)
    ]
    _emit({"n": args.n, "permutations": perms, "values": values})
    return 0


def cmd_verify_cover(args) -> int:
    res = verify_cover(args.n, samples=args.samples, seed=args.seed)
    out = {}
    for fam, data in res.items():
        if fam == "all_passed":
            continue
        out[fam] = {
            "passed": data["passed"],
            "checked": data["checked"],
            "witnesses": [repr(w) for w in data["witnesses"]],
        }
    _emit({"n": args.n, "all_passed": res["all_passed"], "families": out})
    return 0 if res["all_passed"] else 4


def cmd_selftest(args) -> int:
    from .acceptance import run_all

    results = run_all(quick=args.quick, seed=args.seed, samples=args.samples)
    for res in results:
        status = "PASS" if res["passed"] else "FAIL"
        print(f"{status} criterion {res['id']}: {res['description']}", file=sys.stderr)
    _emit(
        {
            "criteria": [
                {"id": r["id"], "description": r["description"], "passed": r["passed"],
                 "details": r["details"]}
                for r in results
            ],
            "all_passed": all(r["passed"] for r in results),
        }
    )
    return 0 if all(r["passed"] for r in results) else 4


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="tqdha",
        description="Exact computation with twisted quantum Drinfeld Hecke algebras",
    )
    p.add_argument("--seed", type=int, default=0, help="seed for sampled verifications")
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("check-extension", help="does the action extend to S_q(V) and Lambda_q(V)?")
    s.add_argument("problem")
    s.set_defaults(func=cmd_check_extension)

    s = sub.add_parser("pbw-check", help="check the PBW conditions for a kappa file")
    s.add_argument("problem")
    s.add_argument("--kappa", required=True)
    s.add_argument("--oracle", action="store_true",
                   help="also run the rewriting-ambiguity oracle and compare")
    s.set_defaults(func=cmd_pbw_check)

    s = sub.add_parser("parameter-space", help="basis of all valid kappa maps")
    s.add_argument("problem")
    s.add_argument("--method", choices=("direct", "cohomology", "both"), default="direct")
    s.set_defaults(func=cmd_parameter_space)

    s = sub.add_parser("constant-cocycles", help="kernel bases of d_3* per group element")
    s.add_argument("problem")
    s.set_defaults(func=cmd_constant_cocycles)

    s = sub.add_parser("classify-diagonal", help="closed-form diagonal classification")
    s.add_argument("problem")
    s.add_argument("--crosscheck", action="store_true",
                   help="also solve directly and compare spans")
    s.set_defaults(func=cmd_classify_diagonal)

    s = sub.add_parser("classify-symmetric", help="symmetric group natural representation, q = -1")
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--twisted", action="store_true")
    s.set_defaults(func=cmd_classify_symmetric)

    s = sub.add_parser("alpha-table", help="full spin-cover cocycle table on S_n")
    s.add_argument("n_pos", nargs="?", type=int, metavar="n")
    s.add_argument("--n", type=int, default=None)
    s.set_defaults(func=cmd_alpha_table)

    s = sub.add_parser("verify-cover", help="verify the Schur cover model and its lemmas")
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--samples", type=_positive_int, default=500)
    s.set_defaults(func=cmd_verify_cover)

    s = sub.add_parser("selftest", help="run the bundled acceptance suite")
    s.add_argument("--quick", action="store_true", help="skip the S5-sized checks")
    s.add_argument("--samples", type=_positive_int, default=500)
    s.set_defaults(func=cmd_selftest)

    return p


def run_command(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 2
    try:
        return args.func(args)
    except ProblemValidationError as e:
        _emit({"error": "validation", "location": e.location, "reason": e.reason})
        return 3
    except (DiagonalError, ExtensionError, ValueError) as e:
        _emit({"error": "validation", "reason": str(e)})
        return 3
    except CrossCheckError as e:
        _emit({"error": "cross-check", "reason": str(e)})
        return 4


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()

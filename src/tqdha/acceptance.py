"""The bundled acceptance suite: one callable check per criterion.

Each check returns {"id", "description", "passed", "details"}.  The checks
share their expensive artifacts, so running the whole suite costs little
more than its slowest member.  The S_n instances, cocycles included, come
from the cached ``classify.symmetric_instance``.  ``_classification`` runs
``symmetric_natural_classify`` once per (n, twisted), and its basis is also
the cohomology route of criteria 6 and 9; the direct route is solved once,
in criterion 6.  So each (instance, route) pair is computed once per process.
tests/test_acceptance.py asserts these, and the CLI `selftest` prints one
line per criterion.
"""

from __future__ import annotations

import random
import time
from functools import lru_cache

from .classify import (
    diagonal_kappa_basis,
    eta_family_basis,
    eta_family_counts,
    expected_image_value,
    symmetric_instance,
    symmetric_natural_classify,
)
from .cohomology import (
    Cochain,
    apply_dm_star,
    cohomological_parameter_space,
    constant_cocycle_basis,
)
from .groups import (
    Cocycle2,
    FiniteGroup,
    GroupAlgebraElement,
    bicharacter_cocycle,
    group_from_cyclic_orders,
    trivial_cocycle,
    trivial_group,
    validate_cocycle,
)
from .pbw import KappaMap, check_pbw_conditions, same_space, solve_parameter_space, verify_ambiguities
from .quantum import GroupAction, QMatrix, diagonal_action
from .scalars import MINUS_ONE, ONE, ZERO, rational
from .spin import verify_cover


@lru_cache(maxsize=None)
def _classification(n: int, twisted: bool) -> dict:
    return symmetric_natural_classify(n, twisted)


def _trivial_instance(n: int):
    group = trivial_group()
    ident = [[ONE if i == k else ZERO for k in range(n)] for i in range(n)]
    action = GroupAction(group, [ident], validate=False)
    return group, action, QMatrix.uniform(n, 1), trivial_cocycle(group)


def _klein_diag_instance():
    group = group_from_cyclic_orders([2, 2])
    lam_by_label = {
        (0, 0): [ONE, ONE, ONE],
        (1, 0): [ONE, MINUS_ONE, MINUS_ONE],
        (0, 1): [MINUS_ONE, ONE, MINUS_ONE],
        (1, 1): [MINUS_ONE, MINUS_ONE, ONE],
    }
    lam = [lam_by_label[lab] for lab in group.labels]
    action = diagonal_action(group, lam)
    return group, action, QMatrix.uniform(3, 1)


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def criterion_1() -> dict:
    """Twisted S5 classification: dimension 2, span{kappa_1, kappa_2}."""
    t0 = time.perf_counter()
    rep = _classification(5, True)
    elapsed = time.perf_counter() - t0
    dim_ok = rep["dimension"] == 2
    span_ok = rep["matches_expected"] is True
    runtime_ok = elapsed <= 600
    return {
        "id": 1,
        "description": "classify-symmetric --n 5 --twisted: dimension 2, basis spans {kappa_1, kappa_2}",
        "passed": dim_ok and span_ok and runtime_ok,
        "details": {"dimension": rep["dimension"], "span_matches": span_ok,
                    "runtime_seconds": round(elapsed, 1)},
    }


def criterion_2() -> dict:
    """Induced-cocycle image table at n = 5 equals the closed forms."""
    rep = _classification(5, True)
    mismatches = []
    for tag, data in rep["lemma_image"].items():
        for (i, j), img in data["images"].items():
            if img != expected_image_value(5, tag, i, j):
                mismatches.append((tag, i, j))
    return {
        "id": 2,
        "description": "image table at n=5: (1/20)t_1 for a=1; 0 for a=2,3,4; "
                       "(1/60) sum (2t_(ijk) + t_(ikj)) for a=5",
        "passed": not mismatches,
        "details": {"pairs_checked": sum(len(d["images"]) for d in rep["lemma_image"].values()),
                    "mismatches": mismatches[:5]},
    }


def criterion_3() -> dict:
    """spin(4) is a normalized 2-cocycle on all 24^3 triples with
    beta((1 2),(3 4)) = -1, read as ``conj_ratio`` of the commuting pair.
    The table is checked on a copy of S4 that records no generators, so
    ``validate_cocycle`` tries every first argument."""
    t0 = time.perf_counter()
    alpha = symmetric_instance(4, True)[3]
    group = alpha.group
    bare = FiniteGroup(group.mult, name=group.name, perms=group.perms)
    rep = validate_cocycle(Cocycle2(bare, alpha.distinct, alpha.index))
    g12 = group.perms.index((1, 0, 2, 3))
    g34 = group.perms.index((0, 1, 3, 2))
    beta = alpha.conj_ratio(g12, g34)
    elapsed = time.perf_counter() - t0
    passed = (
        rep["normalized"] and rep["cocycle"] and beta == MINUS_ONE and elapsed <= 30
    )
    return {
        "id": 3,
        "description": "spin(4) cocycle identity on all 24^3 triples; "
                       "beta((1 2),(3 4)) = -1 certifies nontriviality",
        "passed": passed,
        "details": {"normalized": rep["normalized"], "cocycle": rep["cocycle"],
                    "beta": beta.serialize(), "runtime_seconds": round(elapsed, 1)},
    }


def criterion_4(samples: int = 500, seed: int = 0) -> dict:
    """Cover verification: exhaustive at n = 4, sampled at n = 5."""
    res4 = verify_cover(4)
    res5 = verify_cover(5, samples=samples, seed=seed)
    failed = [k for k, v in res4.items() if isinstance(v, dict) and not v["passed"]]
    failed += [f"n5:{k}" for k, v in res5.items() if isinstance(v, dict) and not v["passed"]]
    return {
        "id": 4,
        "description": "verify-cover: all presentation relations and section lemmas, "
                       "exhaustive n=4, sampled n=5",
        "passed": res4["all_passed"] and res5["all_passed"],
        "details": {"n4_families": sum(1 for v in res4.values() if isinstance(v, dict)),
                    "n5_samples_per_family": samples, "failed_families": failed},
    }


def _random_kappa(rng, group, n, q, density=0.35, bound=2):
    values = {}
    for i in range(n):
        for j in range(i + 1, n):
            coeffs = {}
            for g in range(group.size):
                if rng.random() < density:
                    c = rng.randint(-bound, bound)
                    if c:
                        coeffs[g] = rational(c)
            if coeffs:
                values[(i, j)] = GroupAlgebraElement(coeffs)
    return KappaMap(group, n, q, values)


def criterion_5(seed: int = 0, per_instance: int = 35) -> dict:
    """check_pbw_conditions agrees with verify_ambiguities on randomized
    kappa instances over S3 (q = -1) and the Klein four-group (diagonal,
    q = 1, trivial and bicharacter cocycles)."""
    rng = random.Random(seed)
    instances = []
    instances.append(("S3 natural q=-1, trivial", *symmetric_instance(3, False)))
    kg, kact, kq = _klein_diag_instance()
    instances.append(("Klein diagonal q=1, trivial", kg, kact, kq, trivial_cocycle(kg)))
    instances.append(("Klein diagonal q=1, bicharacter", kg, kact, kq,
                      bicharacter_cocycle(kg, [[0, 0], [1, 0]])))
    total = 0
    disagreements = []
    for name, group, action, q, alpha in instances:
        space = solve_parameter_space(action, q, alpha)
        for t in range(per_instance):
            mode = t % 3
            if mode == 0 or not space:
                kappa = _random_kappa(rng, group, action.n, q)
            elif mode == 1:
                kappa = KappaMap.zero(group, action.n, q)
                for b in space:
                    kappa = kappa.add(b.scale(rational(rng.randint(-2, 2))))
            else:
                kappa = space[rng.randrange(len(space))].add(
                    _random_kappa(rng, group, action.n, q, density=0.15, bound=1)
                )
            checker = check_pbw_conditions(kappa, action, q, alpha)["passed"]
            oracle = verify_ambiguities(kappa, action, q, alpha)["resolvable"]
            total += 1
            if checker != oracle:
                disagreements.append((name, t))
    return {
        "id": 5,
        "description": ">= 100 randomized kappas: PBW checker agrees with the "
                       "rewriting-ambiguity oracle in 100% of cases",
        "passed": total >= 100 and not disagreements,
        "details": {"instances_checked": total, "disagreements": disagreements[:5]},
    }


def criterion_6(quick: bool = False) -> dict:
    """Engine cross-check matrix: direct, cohomological, and (diagonal
    instances) closed-form spans all agree."""
    rows = []

    def add_case(name, action, q, alpha, coh=None):
        direct = solve_parameter_space(action, q, alpha)
        if coh is None:
            coh = cohomological_parameter_space(action, q, alpha)
        ok = same_space(direct, coh)
        extra = None
        if action.is_diagonal():
            closed = diagonal_kappa_basis(action, q, alpha)
            extra = len(closed)
            ok = ok and same_space(closed, direct)
        rows.append({"case": name, "direct": len(direct), "cohomology": len(coh),
                     "closed_form": extra, "agree": ok})

    for n in (1, 2, 3):
        _, action, q, alpha = _trivial_instance(n)
        add_case(f"trivial group, q=1, n={n}", action, q, alpha)

    z2 = group_from_cyclic_orders([2])
    lam = [[ONE, ONE], [MINUS_ONE, MINUS_ONE]]
    act = diagonal_action(z2, lam)
    add_case("Z/2 diag(-1,-1), q=1", act, QMatrix.uniform(2, 1), trivial_cocycle(z2))

    kg, kact, kq = _klein_diag_instance()
    add_case("Klein diagonal q=1, trivial cocycle", kact, kq, trivial_cocycle(kg))
    add_case("Klein diagonal q=1, bicharacter", kact, kq,
             bicharacter_cocycle(kg, [[0, 0], [1, 0]]))

    for n in (4,) if quick else (4, 5):
        for twisted in (False, True):
            _, action, q, alpha = symmetric_instance(n, twisted)
            add_case(f"S{n} natural q=-1, {'spin' if twisted else 'trivial'}",
                     action, q, alpha, _classification(n, twisted)["kappa_basis"])

    return {
        "id": 6,
        "description": "span(direct) = span(cohomological) = span(closed form) "
                       "across the whole instance matrix",
        "passed": all(r["agree"] for r in rows),
        "details": {"cases": rows},
    }


def criterion_7() -> dict:
    """d_{m+1}* . d_m* = 0 exhaustively at n = 3 over the test groups,
    basis cochains of polynomial degree <= 2, all wedge degrees."""
    import itertools

    instances = []
    _, act_t, q_t, _ = _trivial_instance(3)
    instances.append(("trivial, q=1", act_t, q_t))
    z2 = group_from_cyclic_orders([2])
    lam = [[ONE, ONE, ONE], [MINUS_ONE, MINUS_ONE, ONE]]
    qz = QMatrix.from_strings([
        ["1/1", "1/1*z4^1", "-1/1"],
        ["-1/1*z4^1", "1/1", "1/1"],
        ["-1/1", "1/1", "1/1"],
    ])
    instances.append(("Z/2 diagonal, mixed q", diagonal_action(z2, lam), qz))
    instances.append(("S3 natural, q=-1", *symmetric_instance(3)[1:]))

    n = 3
    gammas = [g for g in itertools.product(range(3), repeat=n) if sum(g) <= 2]
    checked = 0
    failures = []
    for name, action, q in instances:
        for g in range(action.group.size):
            for m in range(0, n):
                for beta in itertools.product((0, 1), repeat=n):
                    if sum(beta) != m:
                        continue
                    for gamma in gammas:
                        c = Cochain(n, m, {(gamma, g, beta): ONE})
                        dd = apply_dm_star(apply_dm_star(c, action, q), action, q)
                        checked += 1
                        if not dd.is_zero():
                            failures.append((name, g, gamma, beta))
    return {
        "id": 7,
        "description": "d_{m+1}* d_m* = 0 exhaustively at n=3 (all g, all wedge "
                       "degrees, polynomial degree <= 2)",
        "passed": not failures,
        "details": {"cochains_checked": checked, "failures": failures[:5]},
    }


def criterion_8(quick: bool = False) -> dict:
    """Constant-cocycle kernel dimension 35 at n=4 and 85 at n=5, and every
    expanded eta family element lies in the kernel (and the families are
    linearly independent, so they are a basis of it)."""
    from .linalg import RowReducer, rows_rank

    sizes = {}
    membership_failures = []
    for n in (4,) if quick else (4, 5):
        _, action, q = symmetric_instance(n)
        basis = constant_cocycle_basis(action, q)
        sizes[n] = len(basis)
        kernel = RowReducer()
        for kappa in basis:
            kernel.insert(kappa.coordinate_row())
        fams = eta_family_basis(n)
        rows = []
        for elt in fams:
            row = elt.kappa.coordinate_row()
            if kernel.reduce_row(row):
                membership_failures.append((n, elt.tag, elt.indices))
            rows.append(row)
        counts = eta_family_counts(n)
        if len(fams) != sum(counts.values()):
            membership_failures.append((n, "count", len(fams)))
        if rows_rank(rows) != len(fams):
            membership_failures.append((n, "rank", rows_rank(rows)))
    expected = {4: 35} if quick else {4: 35, 5: 85}
    return {
        "id": 8,
        "description": "eta-family consistency: kernel dimension 35 (n=4) and 85 (n=5); "
                       "every family element is a cocycle",
        "passed": sizes == expected and not membership_failures,
        "details": {"kernel_dimensions": sizes, "membership_failures": membership_failures[:5]},
    }


def criterion_9() -> dict:
    """The untwisted S5 parameter space strictly exceeds dimension 2."""
    untwisted_dim = _classification(5, False)["dimension"]
    twisted_dim = _classification(5, True)["dimension"]
    return {
        "id": 9,
        "description": "untwisted S5 (q=-1, trivial cocycle) parameter space "
                       "dimension strictly exceeds the twisted dimension 2",
        "passed": untwisted_dim > 2 and twisted_dim == 2,
        "details": {"untwisted_dimension": untwisted_dim, "twisted_dimension": twisted_dim},
    }


def run_all(quick: bool = False, seed: int = 0, samples: int = 500) -> list[dict]:
    """Run the acceptance criteria in order; quick mode confines the matrix
    to n <= 4 (criteria 1, 2 and 9 are S5 statements and are skipped)."""
    results = []
    if not quick:
        results.append(criterion_1())
        results.append(criterion_2())
    results.append(criterion_3())
    results.append(criterion_4(samples=samples, seed=seed))
    results.append(criterion_5(seed=seed))
    results.append(criterion_6(quick=quick))
    results.append(criterion_7())
    results.append(criterion_8(quick=quick))
    if not quick:
        results.append(criterion_9())
    return results

"""The direct solver's short cuts, each against the exhaustive system.

The solver solves for kappa at class representatives only (condition (1) at
the generators of each centralizer, condition (2) at the representative),
settles the one- and two-term rows by union-find (``linalg.kernel_basis``)
and expands the solutions along conjugation.  Here its output is compared
byte for byte with plain ``RowReducer`` elimination of the exhaustive rows,
the chosen centralizer generators and the conjugation walk with the groups
they describe, and the class-representative verdict of the checker with the
exhaustive verdict, on planted kappas that fail in each possible way.  The
cohomology route's short cuts are here too: the subgroup chains it sums each
centralizer through, and its rank filter at class representatives against
the defining average over G of every kernel vector.
"""

import os
import random
from collections import Counter

import pytest

from test_cohomology import _literal_average
from test_pbw import cyclotomic_diagonal_instance, s3_instance
from tqdha import pbw
from tqdha.classify import symmetric_instance
from tqdha.cohomology import cohomological_parameter_space, constant_cocycle_basis, skew_symmetrize
from tqdha.groups import (
    GroupAlgebraElement,
    _generated,
    centralizer_chains,
    centralizer_generators,
    class_data,
    conjugation_walk,
    group_from_permutations,
    group_from_table,
    symmetric_group,
    trivial_cocycle,
    trivial_group,
)
from tqdha.linalg import RowReducer, kernel_basis
from tqdha.pbw import KappaMap, check_pbw_conditions, condition_system, solve_parameter_space
from tqdha.problems import parse_problem_file
from tqdha.quantum import (
    GroupAction,
    QMatrix,
    action_from_generator_matrices,
    natural_permutation_action,
)
from tqdha.scalars import MINUS_ONE, ONE, ZERO, rational
from tqdha.spin import spin_cocycle

HERE = os.path.dirname(os.path.abspath(__file__))
PROBLEMS = os.path.join(HERE, os.pardir, "problems")


def bundled(name):
    folder = os.path.join(HERE, "golden") if name == "z6z6_zeta12" else PROBLEMS
    prob = parse_problem_file(os.path.join(folder, name + ".json"))
    return prob.action, prob.q, prob.alpha


def reflection_instance(n):
    """S_n on its reflection representation in the basis of simple roots
    a_1..a_(n-1), with q = 1: s_i(a_i) = -a_i, s_i(a_(i+-1)) = a_(i+-1) + a_i,
    and s_i fixes the other roots.  The matrices are not monomial."""
    m = n - 1
    perms, gens = [], []
    for i in range(m):
        p = list(range(n))
        p[i], p[i + 1] = p[i + 1], p[i]
        perms.append(tuple(p))
        mat = [[ONE if r == c else ZERO for c in range(m)] for r in range(m)]
        mat[i][i] = MINUS_ONE
        for r in (i - 1, i + 1):
            if 0 <= r < m:
                mat[r][i] = ONE
        gens.append(mat)
    G = group_from_permutations(perms)
    return action_from_generator_matrices(G, gens, m), QMatrix.uniform(m, 1), trivial_cocycle(G)


def dihedral_instance():
    """D4 on C^2 by its eight signed permutation matrices, q = 1 and the
    trivial cocycle, as a bare table: the group records no generators, and
    its centre holds -1 besides the identity."""
    mats = [((1, 0), (0, 1))]
    mats += sorted(({((a, 0), (0, b)) for a in (1, -1) for b in (1, -1)}
                    | {((0, a), (b, 0)) for a in (1, -1) for b in (1, -1)}) - {mats[0]})
    index = {m: k for k, m in enumerate(mats)}

    def times(x, y):  # the matrix of x y is M[y] M[x]
        a, b = mats[y], mats[x]
        return index[tuple(tuple(sum(a[i][k] * b[k][j] for k in range(2)) for j in range(2))
                           for i in range(2))]

    G = group_from_table([[times(x, y) for y in range(8)] for x in range(8)], name="D4")
    action = GroupAction(G, [[[rational(e) for e in row] for row in m] for m in mats])
    return action, QMatrix.uniform(2, 1), trivial_cocycle(G)


def instance(name):
    if name == "D4 table":
        return dihedral_instance()
    if name == "trivial":
        G = trivial_group()
        return GroupAction(G, [[[ONE, ZERO], [ZERO, ONE]]]), QMatrix.uniform(2, 1), trivial_cocycle(G)
    if name.startswith("S"):
        n, kind = int(name[1]), name[3:]
        if kind == "reflection":
            return reflection_instance(n)
        return symmetric_instance(n, kind == "twisted")[1:]
    return bundled(name)


def kappa_from_vector(vec, action, q):
    n = action.n
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    coords = {(idx // len(pairs), *pairs[idx % len(pairs)]): c
              for idx, c in enumerate(vec) if not c.is_zero()}
    return KappaMap.from_coordinates(action.group, n, q, coords)


def plain_solve(action, q, alpha):
    """The parameter space by RowReducer elimination of every condition row
    (condition (2) at every element), with no pre-pass."""
    system = condition_system(action, q, alpha)
    red = RowReducer()
    for row in system.rows:
        red.insert(row)
    return [kappa_from_vector(vec, action, q) for vec in red.kernel(system.ncols)]


SOLVER_CASES = ["S3 untwisted", "S3 twisted", "S4 untwisted", "S4 twisted", "S5 untwisted",
                "S5 twisted", "S3 reflection", "S4 reflection", "D4 table",
                "klein_bicharacter_diag", "weyl2", "z2_negation", "z6z6_zeta12"]


@pytest.mark.parametrize("name", SOLVER_CASES)
def test_solver_matches_plain_elimination_of_every_row(name):
    action, q, alpha = instance(name)
    ours = solve_parameter_space(action, q, alpha, recheck=False)
    plain = plain_solve(action, q, alpha)
    assert [k.to_records() for k in ours] == [k.to_records() for k in plain]
    assert ours, "the instance should have a nonzero parameter space"


@pytest.mark.parametrize("name", ["S4 untwisted", "S5 untwisted", "S4 twisted", "S4 reflection",
                                  "D4 table"])
def test_centralizer_generators_generate_each_centralizer(name):
    G = instance(name)[0].group
    data = class_data(G)
    gens = centralizer_generators(G)
    assert list(gens) == list(data.centralizer)
    for c, cent in data.centralizer.items():
        assert sorted(_generated(G.mult, gens[c])) == list(cent), c
        if len(cent) == G.size:
            assert gens[c] == (G.generator_indices or tuple(range(G.size)))
    # D4 has a central element besides the identity, and records no generators
    if name == "D4 table":
        central = [c for c, cent in data.centralizer.items() if len(cent) == G.size]
        assert len(central) == 2 and gens[central[1]] == tuple(range(8))


@pytest.mark.parametrize("name", ["S4 untwisted", "S5 untwisted", "S4 reflection", "D4 table",
                                  "z6z6_zeta12", "trivial"])
def test_centralizer_chain_lists_each_centralizer_element_once(name):
    # one element t_i of each step, the last step's leftmost: the products
    # t_k ... t_2 t_1 are the elements of Z(c), each once
    G = instance(name)[0].group
    data = class_data(G)
    chains = centralizer_chains(G)
    assert list(chains) == list(data.centralizer)
    for c, steps in chains.items():
        products = [0]
        for step in steps:
            assert step[0] == 0 and list(step) == sorted(step), (c, step)
            products = [G.mult[t][h] for t in step for h in products]
        assert sorted(products) == list(data.centralizer[c]), c
    if name == "S5 untwisted":
        assert tuple(map(len, chains[0])) == (2, 3, 4, 5)


def reference_parameter_space(action, q, alpha):
    """The Reynolds image of every d_3* kernel vector at the class
    representatives by the defining sum over G, rank-filtered on its
    coordinates at every element."""
    reps = [cls[0] for cls in action.group.conjugacy_classes()]
    red, basis = RowReducer(), []
    for x in constant_cocycle_basis(action, q, reps):
        eta = skew_symmetrize(_literal_average(x, action, alpha), q, action.group, action.n)
        if red.insert(eta.coordinate_row()) is not None:
            basis.append(eta)
    return basis


@pytest.mark.parametrize("name", ["S3 untwisted", "S3 twisted", "S4 untwisted", "S4 twisted",
                                  "S3 reflection", "D4 table", "weyl2", "z6z6_zeta12"])
def test_cohomology_filter_at_representatives_matches_the_whole_filter(name):
    action, q, alpha = instance(name)
    ours = cohomological_parameter_space(action, q, alpha, recheck=False)
    assert ours, "the instance should have a nonzero parameter space"
    assert ([k.to_records() for k in ours]
            == [k.to_records() for k in reference_parameter_space(action, q, alpha)])


@pytest.mark.parametrize("name", ["S4 untwisted", "S4 reflection", "D4 table",
                                  "klein_bicharacter_diag"])
def test_conjugation_walk_reaches_each_non_representative_once(name):
    G = instance(name)[0].group
    data = class_data(G)
    walk = conjugation_walk(G)
    assert sorted(g for _, _, g in walk) == [g for g in range(G.size) if data.rep[g] != g]
    seen = set(data.centralizer)
    for b, s, g in walk:
        assert b in seen and data.rep[b] == data.rep[g]
        assert G.conjugate(s, g) == b and (not G.generator_indices or s in G.generator_indices)
        seen.add(g)


def test_solver_system_is_local_to_the_representatives():
    action, q, alpha = instance("S5 twisted")
    system = pbw.class_local_system(action, q, alpha)
    assert system.ncols == 7 * 10
    assert {tag[1] for tag in system.tags} == set(class_data(action.group).centralizer)
    assert len(system.rows) < len(condition_system(action, q, alpha, True).rows) / 5


def test_reflection_action_gives_rows_of_three_or_more_terms():
    action, q, alpha = reflection_instance(4)
    assert any(len(row) > 1 for rows in action.rows_nz for row in rows)
    assert any(len(r) > 2 for r in condition_system(action, q, alpha, True).rows)


# -- condition (2) at class representatives ----------------------------------


def violated(report, condition):
    return [v for v in report["violations"] if v["condition"] == condition]


def full_report(kappa, action, q, alpha):
    return check_pbw_conditions(kappa, action, q, alpha, max_witnesses=10 ** 6)


def reps_passed(kappa, action, q, alpha):
    return check_pbw_conditions(kappa, action, q, alpha, representatives=True)["passed"]


def rows_of(action, q, alpha, condition):
    system = condition_system(action, q, alpha)
    return [row for row, tag in zip(system.rows, system.tags) if tag[0] == condition]


def random_kappa(action, q, rnd, support, density=0.3):
    values = {}
    for i in range(action.n):
        for j in range(i + 1, action.n):
            coeffs = {g: rational(rnd.choice([-2, -1, 1, 2]))
                      for g in support if rnd.random() < density}
            if coeffs:
                values[(i, j)] = GroupAlgebraElement(coeffs)
    return KappaMap(action.group, action.n, q, values)


LEMMA_CASES = {
    "S3 q=-1": lambda: s3_instance()[1:],
    "S4 twisted": lambda: symmetric_instance(4, True)[1:],
    "S4 reflection": lambda: reflection_instance(4),
    "Klein": lambda: bundled("klein_bicharacter_diag"),
    "z6z6_zeta12": lambda: bundled("z6z6_zeta12"),
    "Z/6xZ/6 cyclotomic": lambda: cyclotomic_diagonal_instance(6),
}


def planted_kappas(action, q, alpha, rnd):
    """Kappas that pass, fail at random, fail condition (1) only, and fail
    condition (2) at a non-representative element."""
    G = action.group
    space = solve_parameter_space(action, q, alpha)
    yield "zero", KappaMap.zero(G, action.n, q)
    for b in space:
        yield "basis", b
    for t in range(6):
        kappa = KappaMap.zero(G, action.n, q)
        for b in space:
            kappa = kappa.add(b.scale(rational(rnd.randint(-2, 2))))
        yield "random", kappa.add(random_kappa(action, q, rnd, range(G.size), 0.2 * (t % 3)))
    ncols = condition_system(action, q, alpha).ncols
    # in the kernel of every condition-(2) row; most fail condition (1)
    for vec in kernel_basis(rows_of(action, q, alpha, 2), ncols)[:4]:
        yield "condition (2) holds", kappa_from_vector(vec, action, q)
    # satisfying condition (1): failures of (2) must fill whole classes
    for vec in kernel_basis(rows_of(action, q, alpha, 1), ncols)[:6]:
        yield "condition (1) holds", kappa_from_vector(vec, action, q)
    # supported at one element that no class lists first
    for cls in G.conjugacy_classes():
        for g in cls[1:2]:
            yield "non-representative", random_kappa(action, q, rnd, [g], 1.0)


@pytest.mark.parametrize("name", sorted(LEMMA_CASES))
def test_class_representative_verdict_equals_the_exhaustive_one(name):
    action, q, alpha = LEMMA_CASES[name]()
    G = action.group
    classes = G.conjugacy_classes()
    class_of = {g: cls for cls in classes for g in cls}
    kinds = Counter()
    non_representative_failures = 0
    for kind, kappa in planted_kappas(action, q, alpha, random.Random(41)):
        full = full_report(kappa, action, q, alpha)
        assert reps_passed(kappa, action, q, alpha) == full["passed"], kind
        kinds[kind, full["passed"]] += 1
        failing = {v["g"] for v in violated(full, 2)}
        if full["condition1"]:
            # the lemma itself: condition (2) fails on whole classes
            assert failing == {x for g in failing for x in class_of[g]}
        if kind == "condition (2) holds":
            assert full["condition2"]
        if kind == "non-representative" and failing:
            # failing at a non-representative is never the only failure
            assert not full["condition1"]
            non_representative_failures += 1
    assert kinds["zero", True] == 1
    assert any(passed is False for (_, passed) in kinds)
    if len(classes) < G.size:
        assert kinds["condition (2) holds", False] > 0
        assert non_representative_failures > 0


def test_non_representative_failure_also_fails_at_the_representative():
    """An invariant kappa that fails condition (2) at a non-representative g
    fails it at g's representative too, so the short system rejects it."""
    action, q, alpha = symmetric_instance(4, True)[1:]
    classes = action.group.conjugacy_classes()
    ncols = condition_system(action, q, alpha).ncols
    seen = 0
    for vec in kernel_basis(rows_of(action, q, alpha, 1), ncols):
        kappa = kappa_from_vector(vec, action, q)
        full = full_report(kappa, action, q, alpha)
        assert full["condition1"]
        failing = {v["g"] for v in violated(full, 2)}
        for cls in classes:
            if failing & set(cls[1:]):
                assert cls[0] in failing
                assert not reps_passed(kappa, action, q, alpha)
                seen += 1
    assert seen


# -- one system per kind ------------------------------------------------------


def count_row_builds(monkeypatch):
    builds = Counter()
    real = pbw.parameter_space_rows

    def counting(action, q, alpha, elements=None, links=None):
        kind = ("exhaustive" if elements is None else "representatives" if links is None
                else "class-local")
        builds[kind] += 1
        return real(action, q, alpha, elements, links)

    monkeypatch.setattr(pbw, "parameter_space_rows", counting)
    return builds


def exercise(action, q, alpha):
    for _ in range(2):
        space = solve_parameter_space(action, q, alpha)
        cohomological_parameter_space(action, q, alpha)
        for kappa in space:
            assert check_pbw_conditions(kappa, action, q, alpha)["passed"]


def test_s4_builds_each_kind_of_rows_once(monkeypatch):
    builds = count_row_builds(monkeypatch)
    action = natural_permutation_action(symmetric_group(4))
    exercise(action, QMatrix.uniform(4, -1), spin_cocycle(symmetric_group(4)))
    assert builds == {"exhaustive": 1, "representatives": 1, "class-local": 1}


def test_abelian_group_shares_one_system(monkeypatch):
    builds = count_row_builds(monkeypatch)
    action, q, alpha = cyclotomic_diagonal_instance(6)
    exercise(action, q, alpha)
    assert builds == {"exhaustive": 1}
    assert condition_system(action, q, alpha, True) is condition_system(action, q, alpha)

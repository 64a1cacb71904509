"""PBW conditions, the parameter-space solver, and the rewriting oracle."""

import itertools
import os
import random

import pytest

from reference import (
    GroupAlgebraElement,
    dense,
    exhaustive_rows,
    normal_form_reduce,
    quantum_minor,
    reduce_terms,
    rewrite_pair,
    value,
    word_letters,
)
from test_cohomology import _difference_basis_action
from test_quantum import seeded_q
from tqdha.classify import symmetric_instance
from tqdha.cohomology import composition_image, reynolds_project
from tqdha.groups import (
    Cocycle2,
    FiniteGroup,
    bicharacter_cocycle,
    group_from_cyclic_orders,
    symmetric_group,
    trivial_cocycle,
    trivial_group,
)
from tqdha.pbw import (
    ExtensionError,
    KappaMap,
    check_pbw_conditions,
    same_space,
    solve_parameter_space,
    verify_ambiguities,
)
from tqdha.quantum import (
    GroupAction,
    QMatrix,
    diagonal_action,
    natural_permutation_action,
)
from tqdha.linalg import bump, rows_rank, same_span
from tqdha.problems import parse_problem_file
from tqdha.scalars import MINUS_ONE, ONE, ZERO, rational, root_of_unity
from tqdha.spin import spin_cocycle


def weyl_instance(n):
    g = trivial_group()
    return g, diagonal_action(g, [[ONE] * n]), QMatrix.uniform(n, 1), trivial_cocycle(g)


def s3_instance():
    g = symmetric_group(3)
    return g, natural_permutation_action(g), QMatrix.uniform(3, -1), trivial_cocycle(g)


def test_zero_kappa_always_passes():
    g, act, q, al = s3_instance()
    rep = check_pbw_conditions(KappaMap(g, 3, q), act, q, al)
    assert rep["passed"]


def test_weyl_antisymmetric_constants_pass():
    g, act, q, al = weyl_instance(3)
    values = {(0, 0, 1): rational(2), (0, 0, 2): rational(-1), (0, 1, 2): rational(7)}
    kappa = KappaMap(g, 3, q, values)
    rep = check_pbw_conditions(kappa, act, q, al)
    assert rep["passed"]


def test_extension_required():
    g = symmetric_group(3)
    act = natural_permutation_action(g)
    i = root_of_unity(4, 1)
    q = QMatrix([
        [ONE, i, MINUS_ONE],
        [i.inverse(), ONE, MINUS_ONE],
        [MINUS_ONE, MINUS_ONE, ONE],
    ])
    with pytest.raises(ExtensionError):
        check_pbw_conditions(KappaMap(g, 3, q), act, q, trivial_cocycle(g))


def test_antisymmetry_reversal_rule():
    g, act, q, al = s3_instance()
    kappa = KappaMap(g, 3, q, {(0, 0, 1): rational(3)})
    # q = -1: kappa(v_j, v_i) = -q_ji kappa(v_i, v_j) = +kappa(v_i, v_j)
    assert value(kappa, 1, 0) == value(kappa, 0, 1)
    assert value(kappa, 1, 0) == GroupAlgebraElement({0: rational(3)})


def test_parameter_space_weyl():
    g, act, q, al = weyl_instance(2)
    basis = solve_parameter_space(act, q, al)
    assert len(basis) == 1
    assert value(basis[0], 0, 1) == GroupAlgebraElement.basis(0)


def test_same_space_compares_lengths_and_spans():
    g, act, q, al = weyl_instance(3)
    basis = solve_parameter_space(act, q, al)
    assert len(basis) == 3
    # a repeated vector spans the same space, but the list is no basis of it
    assert not same_space(basis, basis + [basis[0]])
    other = [basis[0] + basis[1], basis[1].scale(rational(2)), basis[2] + basis[0]]
    assert same_space(basis, other) and same_space(other, basis)
    # same length, smaller span
    assert not same_space(basis, other[:2] + [basis[1]])


def test_parameter_space_z2_negation():
    z2 = group_from_cyclic_orders([2])
    act = diagonal_action(z2, [[ONE, ONE], [MINUS_ONE, MINUS_ONE]])
    q = QMatrix.uniform(2, 1)
    basis = solve_parameter_space(act, q, trivial_cocycle(z2))
    assert len(basis) == 2
    rows = [k.coordinate_row() for k in basis]
    assert rows_rank(rows) == 2


def test_scaling_invariance():
    g, act, q, al = s3_instance()
    space = solve_parameter_space(act, q, al)
    kappa = space[0]
    for c in (2, -3, 7):
        rep = check_pbw_conditions(kappa.scale(rational(c)), act, q, al)
        assert rep["passed"]


def test_outside_span_fails_some_check():
    g, act, q, al = s3_instance()
    space = solve_parameter_space(act, q, al)
    rows = [k.coordinate_row() for k in space]
    rnd = random.Random(13)
    found_outside = 0
    for _ in range(10):
        values = {(g_, i, j): rational(rnd.randint(-2, 2))
                  for (i, j) in [(0, 1), (0, 2), (1, 2)] for g_ in range(6) if rnd.random() < 0.5}
        kappa = KappaMap(g, 3, q, values)
        if kappa.is_zero():
            continue
        inside = same_span(rows, rows + [kappa.coordinate_row()])
        rep = check_pbw_conditions(kappa, act, q, al)
        assert rep["passed"] == inside
        if not inside:
            found_outside += 1
    assert found_outside > 0


def test_reduce_group_letter_past_variable():
    g, act, q, al = s3_instance()
    k0 = KappaMap(g, 3, q)
    out = normal_form_reduce([("t", 2), ("v", 0)], k0, act, q, al)
    image = g.perms[2][0]
    assert out == {(tuple(1 if t == image else 0 for t in range(3)), 2): ONE}


def test_reduce_variable_swap_with_kappa():
    g, act, q, al = s3_instance()
    kappa = KappaMap(g, 3, q, {(0, 0, 1): rational(5)})
    out = normal_form_reduce([("v", 1), ("v", 0)], kappa, act, q, al)
    # v1 v0 -> q10 v0 v1 + kappa(v1, v0); kappa(v1,v0) = +5 t_identity
    assert out == {((1, 1, 0), None): MINUS_ONE, ((0, 0, 0), 0): rational(5)}


def test_reduce_group_letters_associate():
    g, act, q, al = s3_instance()
    k0 = KappaMap(g, 3, q)
    for a, b, c in itertools.product(range(6), repeat=3):
        out = normal_form_reduce([("t", a), ("t", b), ("t", c)], k0, act, q, al)
        assert len(out) == 1
        ((gamma, grp),) = out.keys()
        assert gamma == (0, 0, 0) and grp == g.mult[g.mult[a][b]][c]


def test_empty_word_is_unit():
    g, act, q, al = s3_instance()
    out = normal_form_reduce([], KappaMap(g, 3, q), act, q, al)
    assert out == {((0, 0, 0), None): ONE}


def test_ambiguities_zero_kappa_resolvable():
    g, act, q, al = s3_instance()
    assert len(g.generator_indices) == 2
    rep = verify_ambiguities(KappaMap(g, 3, q), act, q, al)
    assert rep["resolvable"]
    # the last group letter at the two generators only
    assert rep["checked"] == 6 * 6 * 2 + 6 * 2 * 3 + 2 * 3 + 1
    full = verify_ambiguities(KappaMap(g, 3, q), act, q, al, exhaustive=True)
    assert full["resolvable"]
    assert full["checked"] == 6 ** 3 + 6 * 6 * 3 + 6 * 3 + 1


def test_failing_kappa_flagged_by_both_with_witness():
    g, act, q, al = s3_instance()
    # kappa(v_0, v_1) = t_(0 1) with everything else zero violates condition 1
    tr = g.perms.index((1, 0, 2))
    kappa = KappaMap(g, 3, q, {(tr, 0, 1): ONE})
    rep = check_pbw_conditions(kappa, act, q, al)
    amb = verify_ambiguities(kappa, act, q, al)
    assert rep["passed"] == amb["resolvable"]
    if not amb["resolvable"]:
        assert amb["witnesses"]


def test_dual_oracle_agreement_randomized():
    instances = []
    instances.append(s3_instance())
    klein = group_from_cyclic_orders([2, 2])
    lam = {
        (0, 0): [ONE, ONE, ONE],
        (1, 0): [ONE, MINUS_ONE, MINUS_ONE],
        (0, 1): [MINUS_ONE, ONE, MINUS_ONE],
        (1, 1): [MINUS_ONE, MINUS_ONE, ONE],
    }
    act = diagonal_action(klein, [lam[lab] for lab in klein.labels])
    qk = QMatrix.uniform(3, 1)
    instances.append((klein, act, qk, trivial_cocycle(klein)))
    instances.append((klein, act, qk, bicharacter_cocycle(klein, [[0, 0], [1, 0]])))
    rnd = random.Random(17)
    for group, action, q, alpha in instances:
        for _ in range(8):
            values = {
                (g_, i, j): rational(rnd.randint(-1, 1))
                for i in range(3) for j in range(i + 1, 3)
                for g_ in range(group.size)
                if rnd.random() < 0.4
            }
            kappa = KappaMap(group, 3, q, values)
            rep = check_pbw_conditions(kappa, action, q, alpha)
            amb = verify_ambiguities(kappa, action, q, alpha)
            assert rep["passed"] == amb["resolvable"]


def test_confluence_on_valid_kappa_longer_words():
    # reduction result is independent of which redex fires first on words up
    # to length 6, when kappa satisfies the conditions
    g, act, q, al = s3_instance()
    space = solve_parameter_space(act, q, al)
    kappa = space[0] + space[-1]
    rnd = random.Random(23)
    letters = [("v", i) for i in range(3)] + [("t", gg) for gg in range(6)]

    for _ in range(30):
        word = [letters[rnd.randrange(len(letters))] for _ in range(rnd.randint(3, 6))]
        enc = word_letters(word, 3)
        default = reduce_terms([(ONE, enc)], kappa, act, q, al)
        # fire the rightmost redex first instead
        pos = None
        for p in range(len(enc) - 2, -1, -1):
            a, b = enc[p], enc[p + 1]
            if a >= 3 or (b < 3 and a > b):
                pos = p
                break
        if pos is None:
            continue
        alt_start = rewrite_pair(enc, pos, kappa, act, q, al)
        alt = reduce_terms(alt_start, kappa, act, q, al)
        assert default == alt


def test_kappa_serialization_round_trip():
    g, act, q, al = s3_instance()
    space = solve_parameter_space(act, q, al)
    for kappa in space:
        recs = kappa.to_records()
        back = KappaMap.from_records(g, 3, q, recs)
        assert back == kappa


# ---------------------------------------------------------------------------
# condition (1) on generators only, against the rows for every element
# ---------------------------------------------------------------------------


def without_generators(action, alpha):
    """The same problem on a copy of the group that records no generators,
    so that condition (1) gets rows for every element."""
    G = action.group
    bare = FiniteGroup(G.mult, name=G.name, perms=G.perms, labels=G.labels)
    return GroupAction(bare, action.rows_nz), Cocycle2(bare, alpha.distinct, alpha.index)


def klein_diagonal():
    klein = group_from_cyclic_orders([2, 2])
    lam = {
        (0, 0): [ONE, ONE, ONE],
        (1, 0): [ONE, MINUS_ONE, MINUS_ONE],
        (0, 1): [MINUS_ONE, ONE, MINUS_ONE],
        (1, 1): [MINUS_ONE, MINUS_ONE, ONE],
    }
    return klein, diagonal_action(klein, [lam[lab] for lab in klein.labels])


def cyclotomic_diagonal_instance(seed):
    """Z/6 x Z/6 acting diagonally on four variables by characters in mu_6,
    q in mu_12, alpha(a, b) = zeta_6^(a . E . b), with a planted label
    (a, r, s) meeting both closed-form diagonal conditions."""
    rnd = random.Random(seed)
    G = group_from_cyclic_orders([6, 6])
    E = [[0, 0], [1, 0]]
    n, (r, s), a = 4, (0, 2), (1, 2)
    chars = [[rnd.randrange(6) for _ in range(2)] for _ in range(n)]
    # chi_r chi_s = alpha(., a) / alpha(a, .)
    shift = [sum((E[i][j] - E[j][i]) * a[j] for j in range(2)) for i in range(2)]
    chars[s] = [(shift[i] - chars[r][i]) % 6 for i in range(2)]
    qexp = {(i, j): rnd.randrange(12) for i in range(n) for j in range(i + 1, n)}
    for t in (1, 3):  # q_rt q_st = chi_t(a)
        x = rnd.randrange(12)
        qexp[(r, t) if r < t else (t, r)] = x if r < t else -x
        target = 2 * sum(chars[t][i] * a[i] for i in range(2)) - x
        qexp[(s, t) if s < t else (t, s)] = target if s < t else -target
    q = QMatrix([
        [ONE if i == j else root_of_unity(12, qexp[(i, j)] if i < j else -qexp[(j, i)])
         for j in range(n)]
        for i in range(n)
    ])
    lam = [[root_of_unity(6, sum(c[k] * h[k] for k in range(2))) for c in chars]
           for h in G.labels]
    return diagonal_action(G, lam), q, bicharacter_cocycle(G, E, 6)


def generator_row_instances():
    s3 = symmetric_group(3)
    s4 = symmetric_group(4)
    klein, kact = klein_diagonal()
    yield "S3", natural_permutation_action(s3), QMatrix.uniform(3, -1), trivial_cocycle(s3)
    yield "S4", natural_permutation_action(s4), QMatrix.uniform(4, -1), trivial_cocycle(s4)
    yield "S4 spin", natural_permutation_action(s4), QMatrix.uniform(4, -1), spin_cocycle(symmetric_group(4))
    yield ("Klein bicharacter", kact, QMatrix.uniform(3, 1),
           bicharacter_cocycle(klein, [[0, 0], [1, 0]]))
    yield ("Z/6xZ/6 cyclotomic", *cyclotomic_diagonal_instance(6))


@pytest.mark.parametrize("name", ["S3", "S4", "S4 spin", "Klein bicharacter",
                                  "Z/6xZ/6 cyclotomic"])
def test_generator_rows_give_the_full_group_kernel(name):
    action, q, alpha = next(inst for inst in generator_row_instances() if inst[0] == name)[1:]
    full_action, full_alpha = without_generators(action, alpha)
    gen_rows = exhaustive_rows(action, q, alpha)
    full_rows = exhaustive_rows(full_action, q, full_alpha)
    assert len(gen_rows.rows) < len(full_rows.rows)
    ours = solve_parameter_space(action, q, alpha)
    full = solve_parameter_space(full_action, q, full_alpha, recheck=False)
    assert len(ours) == len(full)
    assert same_span([k.coordinate_row() for k in ours], [k.coordinate_row() for k in full])
    if name != "S4":
        assert ours, "the instance should have a nonzero parameter space"


def test_group_without_generators_gets_rows_for_every_element():
    g, act, q, al = s3_instance()
    bare_act, bare_al = without_generators(act, al)
    assert bare_act.group.generator_indices == ()

    def condition1_h(system):
        return {tag[2] for tag in system.tags if tag[0] == 1}

    # the identity fixes every kappa, so it contributes no rows
    assert condition1_h(exhaustive_rows(bare_act, q, bare_al)) == set(range(1, 6))
    assert condition1_h(exhaustive_rows(act, q, al)) == set(g.generator_indices)


HERE = os.path.dirname(os.path.abspath(__file__))


def condition1_instances():
    for name in ("s3_natural_qminus", "s4_twisted", "weyl2"):
        prob = parse_problem_file(os.path.join(HERE, os.pardir, "problems", f"{name}.json"))
        yield name, prob.action, prob.q, prob.alpha
    s4 = symmetric_group(4)
    yield "S4", natural_permutation_action(s4), QMatrix.uniform(4, -1), trivial_cocycle(s4)
    prob = parse_problem_file(os.path.join(HERE, "golden", "z6z6_zeta12.json"))
    yield "z6z6_zeta12", prob.action, prob.q, prob.alpha


@pytest.mark.parametrize("name", ["s3_natural_qminus", "S4", "s4_twisted", "weyl2",
                                  "z6z6_zeta12"])
def test_condition1_rows_are_the_paper_formula(name):
    # alpha(h,g)/alpha(hgh^-1,h) kappa_g(v_j,v_i)
    #     = sum_{k<l} ddet_ijkl(h) kappa_{hgh^-1}(v_l,v_k),
    # with kappa_g(v_j, v_i) = -q_ji x[g, i, j] for i < j; a row is lhs - rhs
    action, q, alpha = next(inst for inst in condition1_instances() if inst[0] == name)[1:]
    G, n = action.group, action.n
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]

    def unknown(g, pair):
        return g * len(pairs) + pairs.index(pair)

    expected = {}
    for h in G.generator_indices or range(G.size):
        for g in range(G.size):
            gc = G.conjugate(h, g)
            for i, j in pairs:
                row = {}
                bump(row, unknown(g, (i, j)), alpha.conj_ratio(h, g) * -q(j, i))
                for k, l in pairs:
                    bump(row, unknown(gc, (k, l)),
                         quantum_minor(h, action, q, i, j, k, l) * q(l, k))
                if row:
                    expected[(1, g, h, i, j)] = row
    system = exhaustive_rows(action, q, alpha)
    got = {tag: row for tag, row in zip(system.tags, system.rows) if tag[0] == 1}
    assert got == expected
    if name != "weyl2":
        assert expected, "the instance should have condition-(1) rows"


def condition2_instances():
    # the difference bases are not monomial, so g's row i need not contain
    # i; the rows are a formula in q and the matrices whether or not the
    # action extends, and a seeded q in mu_12 makes every q product count
    rnd = random.Random(2)
    for n in (3, 4):
        yield (f"S{n} difference", _difference_basis_action(symmetric_group(n)),
               seeded_q(n, rnd, 12), trivial_cocycle(symmetric_group(n)))
    for name, action, q, alpha in condition1_instances():
        if name in ("s4_twisted", "weyl2", "z6z6_zeta12"):
            yield name, action, q, alpha


@pytest.mark.parametrize("name", ["S3 difference", "S4 difference", "s4_twisted", "weyl2",
                                  "z6z6_zeta12"])
def test_condition2_rows_are_the_paper_formula(name):
    # kappa_g(v_k,v_j)(g(v_i) - q_ji q_ki v_i) + kappa_g(v_k,v_i)(q_kj v_j - q_ji g(v_j))
    #   + kappa_g(v_j,v_i)(q_kj q_ki g(v_k) - v_k) = 0 for i < j < k, with
    # kappa_g(v_b, v_a) = -q_ba x[g, a, b] for a < b; the row at t is its v_t
    # coefficient, evaluated densely at every t, and the rows must match in
    # order, tags and key order
    action, q, alpha = next(inst for inst in condition2_instances() if inst[0] == name)[1:]
    G, n = action.group, action.n
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]

    def unknown(g, a, b):
        return g * len(pairs) + pairs.index((a, b))

    def delta(s, t):
        return ONE if s == t else ZERO

    expected = []
    for g in range(G.size):
        m = dense(action, g)
        for i, j, k in itertools.combinations(range(n), 3):
            for t in range(n):
                row = {}
                bump(row, unknown(g, j, k), -q(k, j) * (m[i][t] - q(j, i) * q(k, i) * delta(i, t)))
                bump(row, unknown(g, i, k), -q(k, i) * (q(k, j) * delta(j, t) - q(j, i) * m[j][t]))
                bump(row, unknown(g, i, j),
                     -q(j, i) * (q(k, j) * q(k, i) * m[k][t] - delta(k, t)))
                if row:
                    expected.append(((2, g, i, j, k, t), list(row.items())))
    system = exhaustive_rows(action, q, alpha)
    got = [(tag, list(row.items())) for tag, row in zip(system.tags, system.rows) if tag[0] == 2]
    assert got == expected
    if n >= 3:
        assert expected, "the instance should have condition-(2) rows"


class UnreadableKappa(KappaMap):
    """A zero kappa map that raises on every read the checker or the oracle
    makes: of its coordinates, or of their flat row."""

    __slots__ = ()

    def _unreadable(self, *args):
        raise AssertionError("kappa was read")

    coeffs = property(_unreadable, lambda self, coeffs: None)
    coordinate_row = _unreadable


# overlap words with at most one variable letter: the kappa rule never fires
KAPPA_FREE = ("ttt", "ttv")


def test_kappa_free_families_never_read_kappa():
    g, act, q, al = s3_instance()
    bad = UnreadableKappa(g, 3, q)
    first = verify_ambiguities(bad, act, q, al, families=KAPPA_FREE)
    again = verify_ambiguities(bad, act, q, al, families=KAPPA_FREE)
    with pytest.raises(AssertionError):
        verify_ambiguities(bad, act, q, al, families=("tvv",))
    # new objects share no memo with the ones above
    g2, act2, q2, al2 = s3_instance()
    fresh = verify_ambiguities(KappaMap(g2, 3, q2), act2, q2, al2, families=KAPPA_FREE)
    assert first == again == fresh
    assert fresh == {"resolvable": True, "checked": 6 * 6 * 2 + 6 * 2 * 3, "witnesses": []}
    full = verify_ambiguities(bad, act, q, al, families=KAPPA_FREE, exhaustive=True)
    assert full == {"resolvable": True, "checked": 6 ** 3 + 6 * 6 * 3, "witnesses": []}
    # a whole report with memoized ttt and ttv equals one computed afresh
    kappa = KappaMap(g, 3, q, {(1, 0, 1): ONE})
    kappa2 = KappaMap(g2, 3, q2, {(1, 0, 1): ONE})
    g3, act3, q3, al3 = s3_instance()
    kappa3 = KappaMap(g3, 3, q3, {(1, 0, 1): ONE})
    memoized = verify_ambiguities(kappa, act, q, al)
    assert memoized == verify_ambiguities(kappa2, act2, q2, al2)
    assert memoized == verify_ambiguities(kappa3, act3, q3, al3)
    assert not memoized["resolvable"] and memoized["witnesses"]


# each route that reads a kappa's coordinates against a problem
KAPPA_ROUTES = {
    "checker": lambda kappa, act, q, al: check_pbw_conditions(kappa, act, q, al),
    "oracle": lambda kappa, act, q, al: verify_ambiguities(kappa, act, q, al),
    "induced": lambda kappa, act, q, al: composition_image(kappa, act, al),
    "reynolds": reynolds_project,
}


@pytest.mark.parametrize("route", sorted(KAPPA_ROUTES))
@pytest.mark.parametrize("foreign", ["s3-kappa", "other-n", "copied-group"])
def test_every_route_refuses_a_kappa_of_another_problem(route, foreign):
    # an S3 kappa on the S4 problem reads coordinates laid out for another
    # group and n: the checker passed it, the oracle failed it, and the
    # Reynolds projector raised on a key it built; each now refuses it,
    # as it does a kappa of a copy of S4 (another group object)
    s4, act, q = symmetric_instance(4)
    al = trivial_cocycle(s4)
    if foreign == "s3-kappa":
        g3, _, q3, _ = s3_instance()
        kappa = KappaMap(g3, 3, q3, {(1, 0, 2): ONE})
    elif foreign == "other-n":
        kappa = KappaMap(s4, 3, QMatrix.uniform(3, -1), {(1, 0, 2): ONE})
    else:
        kappa = KappaMap(without_generators(act, al)[0].group, 4, q, {(1, 0, 2): ONE})
    with pytest.raises(ValueError, match=r"^kappa on FiniteGroup\(S\d, size=\d+\) with n = \d "
                                         r"does not belong to the action of "
                                         r"FiniteGroup\(S4, size=24\) with n = 4;"):
        KAPPA_ROUTES[route](kappa, act, q, al)


def test_checker_matches_full_group_rows_on_s4_twisted():
    s4 = symmetric_group(4)
    act, q, al = natural_permutation_action(s4), QMatrix.uniform(4, -1), spin_cocycle(symmetric_group(4))
    full_act, full_al = without_generators(act, al)
    space = solve_parameter_space(act, q, al)
    rnd = random.Random(29)
    verdicts = set()
    for t in range(12):
        kappa = KappaMap(s4, 4, q)
        if t % 3:
            for b in space:
                kappa = kappa + b.scale(rational(rnd.randint(-2, 2)))
        if t % 3 != 1:
            values = {(g_, i, j): rational(rnd.randint(-1, 1))
                      for i in range(4) for j in range(i + 1, 4)
                      for g_ in range(24) if rnd.random() < 0.1}
            kappa = kappa + KappaMap(s4, 4, q, values)
        ours = check_pbw_conditions(kappa, act, q, al, max_witnesses=10 ** 6)
        full = check_pbw_conditions(KappaMap(full_act.group, 4, q, kappa.coeffs), full_act, q,
                                    full_al, max_witnesses=10 ** 6)
        for key in ("passed", "condition1", "condition2"):
            assert ours[key] == full[key]
        assert ([v for v in ours["violations"] if v["condition"] == 2]
                == [v for v in full["violations"] if v["condition"] == 2])
        assert {v["h"] for v in ours["violations"] if v["condition"] == 1} <= set(
            s4.generator_indices)
        verdicts.add(ours["passed"])
    assert verdicts == {True, False}

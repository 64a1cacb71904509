"""Koszul differentials, constant cocycles, Reynolds projection, and the
cohomology-to-kappa pipeline."""

import itertools
import os
import random
from fractions import Fraction

import pytest

from reference import (
    GroupAlgebraElement,
    SkewElement,
    conjugacy_classes,
    constant_two,
    dense,
    normal_form_reduce,
    pair_value,
    qsym_multiply,
    skew_multiply,
    sparse_rows,
    tga_inverse_of_basis,
    tga_multiply,
    value,
)
from test_action_rows import IDS, PROBLEM_FILES
from test_quantum import diagonal_z6z6, seeded_q
from tqdha import cohomology
from tqdha.classify import _family_representatives, eta_family_basis, expected_image, symmetric_instance
from tqdha.cohomology import (
    Cochain,
    apply_dm_star,
    cohomological_parameter_space,
    composition_image,
    constant_cocycle_basis,
    reynolds_project,
    skew_symmetrize,
)
from tqdha.groups import (
    bicharacter_cocycle,
    group_from_cyclic_orders,
    symmetric_group,
    trivial_cocycle,
    trivial_group,
)
from tqdha.linalg import rows_rank, same_span
from tqdha.pbw import (
    CrossCheckError,
    ExtensionError,
    KappaMap,
    extension_report,
    solve_parameter_space,
)
from tqdha.problems import parse_problem_file
from tqdha.quantum import (
    GroupAction,
    QMatrix,
    diagonal_action,
    natural_permutation_action,
)
from tqdha.scalars import MINUS_ONE, ONE, rational, root_of_unity
from tqdha.spin import spin_cocycle


def trivial_instance(n, qval=1):
    g = trivial_group()
    return diagonal_action(g, [[ONE] * n]), QMatrix.uniform(n, qval), trivial_cocycle(g)


def test_d1_star_of_unit_is_zero():
    act, q, _ = trivial_instance(3)
    x = Cochain(3, 0, {((0, 0, 0), 0, (0, 0, 0)): ONE})
    assert apply_dm_star(x, act, q).is_zero()


def test_d3_star_vanishes_for_commutative_case():
    act, q, _ = trivial_instance(3)
    assert apply_dm_star(constant_two(3, 0, 0, 1), act, q).is_zero()


def test_d_squared_zero_exhaustive_n3():
    z2 = group_from_cyclic_orders([2])
    lam = [[ONE, ONE, ONE], [MINUS_ONE, MINUS_ONE, ONE]]
    qmix = QMatrix([
        [ONE, root_of_unity(4, 1), MINUS_ONE],
        [root_of_unity(4, 3), ONE, ONE],
        [MINUS_ONE, ONE, ONE],
    ])
    s3 = symmetric_group(3)
    instances = [
        trivial_instance(3)[:2],
        (diagonal_action(z2, lam), qmix),
        (natural_permutation_action(s3), QMatrix.uniform(3, -1)),
    ]
    gammas = [g for g in itertools.product(range(3), repeat=3) if sum(g) <= 2]
    for action, q in instances:
        for g in range(action.group.size):
            for beta in itertools.product((0, 1), repeat=3):
                for gamma in gammas:
                    c = Cochain(3, sum(beta), {(gamma, g, beta): ONE})
                    dd = apply_dm_star(apply_dm_star(c, action, q), action, q)
                    assert dd.is_zero(), (gamma, g, beta)


def _literal_dm_star(x, action, q):
    """d_m* term by term from its formula: v_i a and a g(v_i) multiplied out
    in S_q(V) with ``qsym_multiply``, g(v_i) = sum_k M[g][i][k] v_k read off
    the dense matrix, and the sign and q products taken as written."""
    n = x.n
    out = Cochain(n, x.degree + 1)
    for (gamma, g, beta), c in x.coeffs.items():
        a = SkewElement.monomial(gamma, 0, c)
        for i in range(n):
            if beta[i]:
                continue
            sign = rational((-1) ** sum(beta[: i + 1]))
            left = right = ONE
            for s in range(n):
                if s <= i:
                    left = left * q(s, i) ** beta[s]
                if s >= i:
                    right = right * q(i, s) ** beta[s]
            g_vi = SkewElement({(tuple(1 if t == k else 0 for t in range(n)), 0): x
                                for k, x in enumerate(dense(action, g)[i])})
            value = (qsym_multiply(SkewElement.variable(i, n), a, q).scale(left)
                     - qsym_multiply(a, g_vi, q).scale(right)).scale(sign)
            newbeta = tuple(b + (t == i) for t, b in enumerate(beta))
            out = out + Cochain(n, x.degree + 1,
                                {(gam, g, newbeta): v for (gam, _), v in value.coeffs.items()})
    return out


@pytest.mark.parametrize("name", ["difference-s4-cyclotomic", "z6z6_zeta12"])
def test_dm_star_is_the_formula(name):
    # non-constant cochains (gamma != 0) of degrees 1 to 3 with seeded
    # coefficients, against the formula; the difference basis is not
    # monomial, and the formula holds for its q in mu_12 whether or not
    # the action extends
    rnd = random.Random(4)
    if name == "z6z6_zeta12":
        action, q, _ = _reference_case(name)
    else:
        action, q = _difference_basis_action(symmetric_group(4)), seeded_q(4, rnd, 12)
    n, G = action.n, action.group
    for degree in (1, 2, 3):
        betas = [b for b in itertools.product((0, 1), repeat=n) if sum(b) == degree]
        coeffs = {}
        while len(coeffs) < 8:
            gamma = tuple(rnd.randrange(3) for _ in range(n))
            if any(gamma):
                coeffs[(gamma, rnd.randrange(G.size), rnd.choice(betas))] = root_of_unity(
                    12, rnd.randrange(12)) * rational(rnd.randrange(1, 4))
        x = Cochain(n, degree, coeffs)
        image = apply_dm_star(x, action, q)
        assert image == _literal_dm_star(x, action, q)
        assert not image.is_zero()


def test_dm_star_cache_keeps_q_matrices_apart():
    # two q matrices on one group and action: every d_3* kernel, computed
    # with the other's terms cached, equals the one computed afresh
    action, q1, _ = _reference_case("z6z6_zeta12")
    q2 = seeded_q(action.n, random.Random(9), 12)
    cached = [constant_cocycle_basis(action, q) for q in (q1, q2, q1)]
    assert cohomology._dm_star_terms.cache_info().hits
    fresh = []
    for q in (q1, q2):
        cohomology._dm_star_terms.cache_clear()
        fresh.append(constant_cocycle_basis(action, q))
    assert cached == [fresh[0], fresh[1], fresh[0]]
    assert fresh[0] != fresh[1]


def wedge(action, q, g, r, s):
    """t_g (x) v_r* ^ v_s*, r < s, as the kappa it pairs to."""
    return KappaMap(action.group, action.n, q, {(g, r, s): ONE})


def test_constant_basis_polynomial_ring():
    for n in (2, 3, 4):
        act, q, _ = trivial_instance(n)
        assert len(constant_cocycle_basis(act, q)) == n * (n - 1) // 2


def test_constant_basis_diagonal_matches_scalar_condition():
    z2 = group_from_cyclic_orders([2])
    lam = [[ONE, ONE, ONE], [MINUS_ONE, MINUS_ONE, ONE]]
    act = diagonal_action(z2, lam)
    q = QMatrix.uniform(3, 1)
    basis = constant_cocycle_basis(act, q)
    found = set()
    for c in basis:
        ((g, r, s),) = c.coeffs.keys()
        found.add((g, r, s))
    expected = set()
    for g in range(2):
        for r in range(3):
            for s in range(r + 1, 3):
                if all(q(r, rp) * q(s, rp) == lam[g][rp] for rp in range(3) if rp not in (r, s)):
                    expected.add((g, r, s))
    assert found == expected


def test_constant_basis_s4_dimension():
    _, act, q = symmetric_instance(4)
    assert len(constant_cocycle_basis(act, q)) == 35


def test_reynolds_idempotent_and_preserves_kernel():
    _, act, q = symmetric_instance(4)
    alpha = spin_cocycle(symmetric_group(4))
    basis = constant_cocycle_basis(act, q)
    kernel = [c.coordinate_row() for c in basis]
    rnd = random.Random(5)
    for c in rnd.sample(basis, 6):
        p1 = reynolds_project(c, act, q, alpha)
        p2 = reynolds_project(p1, act, q, alpha)
        assert p1 == p2
        assert rows_rank(kernel + [p1.coordinate_row()]) == len(kernel)


def test_reynolds_fixes_invariant_input():
    act, q, alpha = trivial_instance(2)
    c = wedge(act, q, 0, 0, 1)
    assert reynolds_project(c, act, q, alpha) == c


def test_reynolds_diagonal_example():
    # Z/2 acting by -1 on both coordinates: lambda^-1 lambda^-1 = 1, so
    # t_g (x) v_0* ^ v_1* is already invariant
    z2 = group_from_cyclic_orders([2])
    act = diagonal_action(z2, [[ONE, ONE], [MINUS_ONE, MINUS_ONE]])
    q = QMatrix.uniform(2, 1)
    alpha = trivial_cocycle(z2)
    for g in range(2):
        c = wedge(act, q, g, 0, 1)
        assert reynolds_project(c, act, q, alpha) == c


def _literal_average(x, action, alpha):
    """(1/|G|) sum_h t_h x(Psi(h^-1 v_i (x) h^-1 v_j)) t_h^-1 at every pair
    i != j, term by term in the twisted group algebra, as the form
    {(g, i, j): c} of ``composition_image``: h^-1 v_i is row i of the matrix
    of h^-1, and Psi keeps the factors v_k (x) v_l with k < l."""
    G = action.group
    n = x.n
    out = {}
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            total = GroupAlgebraElement.zero()
            for h in range(G.size):
                m = dense(action, G.inv[h])
                image = GroupAlgebraElement.zero()
                for (g, k, l), c in x.coeffs.items():
                    image = image + GroupAlgebraElement({g: m[i][k] * m[j][l] * c})
                conj = tga_multiply(GroupAlgebraElement.basis(h), image, alpha)
                total = total + tga_multiply(conj, tga_inverse_of_basis(h, alpha), alpha)
            for g, c in total.scale(rational(Fraction(1, G.size))).coeffs.items():
                out[(g, i, j)] = c
    return out


def _difference_basis_action(group):
    """S_n on C^n in the basis b_k = e_k - e_(k+1) (k < n - 1) and
    b_(n-1) = sum_i e_i.  A transposition (k k+1) sends b_(k-1) to
    b_(k-1) + b_k, so the action is not monomial."""
    n = len(group.perms[0])
    mats = []
    for p in group.perms:
        rows = []
        for k in range(n - 1):
            # g(b_k) = e_p(k) - e_p(k+1) = sum_i beta_i b_i, beta_i its
            # partial sums of e-coordinates
            u = [0] * n
            u[p[k]] += 1
            u[p[k + 1]] -= 1
            rows.append([sum(u[: i + 1]) for i in range(n - 1)] + [0])
        rows.append([0] * (n - 1) + [1])
        mats.append([[rational(x) for x in row] for row in rows])
    return GroupAction(group, sparse_rows(mats))


def _reference_case(name):
    if name == "s4-spin":
        _, action, q, alpha = symmetric_instance(4, True)
        return action, q, alpha
    if name.startswith("difference"):
        # e.g. "difference-s3-spin": S_n, n = 3, on the difference basis
        # with q = 1 and the named cocycle
        _, group_name, cocycle = name.split("-")
        G = symmetric_group(int(group_name[1:]))
        alpha = spin_cocycle(G) if cocycle == "spin" else trivial_cocycle(G)
        return _difference_basis_action(G), QMatrix.uniform(len(G.perms[0]), 1), alpha
    here = os.path.dirname(__file__)
    folder = os.path.join(here, "golden") if name == "z6z6_zeta12" else os.path.join(
        here, os.pardir, "problems")
    spec = parse_problem_file(os.path.join(folder, name + ".json"))
    return spec.action, spec.q, spec.alpha


@pytest.mark.parametrize("name", [
    "s4-spin", "klein_bicharacter_diag", "weyl2", "z6z6_zeta12", "difference-s3-trivial",
    "difference-s3-spin", "difference-s4-trivial", "difference-s4-spin"])
def test_one_pass_average_matches_the_literal_sum(name):
    # composition_image (induction through the centralizer) against the
    # defining sum over G at every pair, and its quantum skew-symmetrization
    # against reynolds_project, on every d_3* kernel vector, and the same
    # sum on its Reynolds image, whose support is a whole class; weyl2 and
    # the difference-basis cases are not monomial, and the latter not abelian
    action, q, alpha = _reference_case(name)
    n = action.n
    classes = conjugacy_classes(action.group)
    nonzero = spread = 0
    for x in constant_cocycle_basis(action, q):
        ref = _literal_average(x, action, alpha)
        assert composition_image(x, action, alpha) == ref
        projected = reynolds_project(x, action, q, alpha)
        for i in range(n):
            for j in range(i + 1, n):
                expected = pair_value(ref, i, j) - pair_value(ref, j, i).scale(q(i, j))
                assert value(projected, i, j) == expected
                nonzero += not expected.is_zero()
        assert composition_image(projected, action, alpha) == _literal_average(
            projected, action, alpha)
        support = {g for g, _, _ in projected.coeffs}
        spread += any(len(cls) > 1 and set(cls) <= support for cls in classes)
    assert nonzero
    assert spread or len(classes) == action.group.size


def test_reynolds_refuses_an_action_that_does_not_extend():
    g = symmetric_group(3)
    i = root_of_unity(4, 1)
    q = QMatrix([[ONE, i, MINUS_ONE], [i.inverse(), ONE, MINUS_ONE], [MINUS_ONE, MINUS_ONE, ONE]])
    action = natural_permutation_action(g)
    with pytest.raises(ExtensionError):
        reynolds_project(wedge(action, q, 0, 0, 1), action, q, trivial_cocycle(g))


def _shortcut_case(name):
    if name == "s3-natural":
        s3 = symmetric_group(3)
        return natural_permutation_action(s3), QMatrix.uniform(3, -1), trivial_cocycle(s3)
    if name in ("s4-trivial", "s4-spin"):
        s4, act, q = symmetric_instance(4)
        return act, q, trivial_cocycle(s4) if name == "s4-trivial" else spin_cocycle(symmetric_group(4))
    if name == "klein-bicharacter":
        path = os.path.join(os.path.dirname(__file__), os.pardir, "problems",
                            "klein_bicharacter_diag.json")
        spec = parse_problem_file(path)
        return spec.action, spec.q, spec.alpha
    # Z/6 x Z/6 on three variables with the bicharacter cocycle
    # zeta_6^(a_1 b_0); seed 5 gives a one-dimensional invariant space, so
    # the spans compared are not zero
    rnd = random.Random(5)
    action = diagonal_z6z6(rnd)
    return action, seeded_q(3, rnd, 12), bicharacter_cocycle(action.group, [[0, 0], [1, 0]], 6)


@pytest.mark.parametrize(
    "name", ["s3-natural", "s4-trivial", "s4-spin", "klein-bicharacter", "z6z6-seeded"]
)
def test_class_representatives_span_every_invariant(name):
    # the pipeline's shortcut against the exhaustive computation: the
    # Reynolds images of the d_3* kernel at class representatives span the
    # images of the kernel at every element
    action, q, alpha = _shortcut_case(name)
    reps = [cls[0] for cls in conjugacy_classes(action.group)]
    full = [reynolds_project(c, action, q, alpha).coordinate_row()
            for c in constant_cocycle_basis(action, q)]
    short = [reynolds_project(c, action, q, alpha).coordinate_row()
             for c in constant_cocycle_basis(action, q, reps)]
    assert same_span(full, short)
    assert len(cohomological_parameter_space(action, q, alpha, recheck=False)) == rows_rank(full)


def test_induced_eval_on_averaged_families():
    # averaging eta_1 then evaluating gives the same (1/(n(n-1))) t_1 value
    # as the raw lemma row; the averages of eta_2 and eta_4 vanish outright
    n = 4
    _, act, q = symmetric_instance(n)
    alpha = spin_cocycle(symmetric_group(n))
    fams = {}
    for e in eta_family_basis(n):
        fams.setdefault(e.tag, e)
    avg1 = reynolds_project(fams[1].kappa, act, q, alpha)
    val = pair_value(composition_image(avg1, act, alpha), 0, 1)
    assert val == GroupAlgebraElement({0: rational(Fraction(1, n * (n - 1)))})
    for tag in (2, 4):
        assert reynolds_project(fams[tag].kappa, act, q, alpha).is_zero()


def test_lemma_rows_raw_at_n4():
    # the a = 1, 2, 4, 5 rows hold already at n = 4 (a = 3 needs n >= 5)
    n = 4
    _, act, q = symmetric_instance(n)
    alpha = spin_cocycle(symmetric_group(n))
    fams = {}
    for e in eta_family_basis(n):
        fams.setdefault(e.tag, e)
    for tag in (1, 2, 4, 5):
        images = composition_image(fams[tag].kappa, act, alpha)
        expected = expected_image(n, tag)
        for (i, j) in [(0, 1), (1, 3), (2, 0)]:
            assert pair_value(images, i, j) == pair_value(expected, i, j), (tag, i, j)


@pytest.mark.parametrize("n", [5, 6])
def test_closed_form_images_are_the_induced_cocycle(n):
    # the raw representative of each family, twisted: its image at every
    # ordered pair is the closed form, as one form
    _, act, _, alpha = symmetric_instance(n, True)
    reps = _family_representatives(n)
    assert sorted(reps) == [1, 2, 3, 4, 5]
    for tag, elt in reps.items():
        assert composition_image(elt.kappa, act, alpha) == expected_image(n, tag), tag


@pytest.mark.parametrize("path", PROBLEM_FILES, ids=IDS)
def test_induced_cocycle_is_a_zero_free_form_off_the_diagonal(path):
    # on each d_3* kernel vector, composition_image keys (g, i, j) with g an
    # element and i != j variables, and holds no zero coefficient
    spec = parse_problem_file(path)
    action, q, alpha = spec.action, spec.q, spec.alpha
    ext = extension_report(action, q)
    if not (ext["symmetric"] and ext["exterior"]):
        # no d_3* kernel is taken where the action does not extend
        with pytest.raises(ExtensionError):
            constant_cocycle_basis(action, q)
        return
    n, keys = action.n, set()
    for x in constant_cocycle_basis(action, q):
        image = composition_image(x, action, alpha)
        for (g, i, j), c in image.items():
            assert g in range(action.group.size) and i in range(n) and j in range(n) and i != j
            assert not c.is_zero()
        keys.update(image)
    assert keys


def test_skew_symmetrize_examples():
    g = trivial_group()
    q1 = QMatrix.uniform(2, 1)
    t1 = GroupAlgebraElement.basis(0)
    mu = {(0, 0, 1): ONE, (0, 1, 0): ONE}
    assert skew_symmetrize(mu, q1, g, 2).is_zero()
    qm = QMatrix.uniform(2, -1)
    kappa = skew_symmetrize(mu, qm, g, 2)
    assert value(kappa, 0, 1) == t1.scale(rational(2))


def test_pipeline_kappa_equals_wedge_pairing():
    # each invariant eta is its own kappa, kappa(v_i, v_j) = eta(v_i ^ v_j),
    # and the Reynolds projector fixes it: cohomological_parameter_space
    # asserts that, so a successful run is the test
    z2 = group_from_cyclic_orders([2])
    act = diagonal_action(z2, [[ONE, ONE], [MINUS_ONE, MINUS_ONE]])
    q = QMatrix.uniform(2, 1)
    basis = cohomological_parameter_space(act, q, trivial_cocycle(z2))
    assert len(basis) == 2


def test_cross_engine_small_instances():
    cases = []
    act, q, al = trivial_instance(2)
    cases.append((act, q, al, 1))
    act, q, al = trivial_instance(3)
    cases.append((act, q, al, 3))
    z2 = group_from_cyclic_orders([2])
    cases.append(
        (diagonal_action(z2, [[ONE, ONE], [MINUS_ONE, MINUS_ONE]]),
         QMatrix.uniform(2, 1), trivial_cocycle(z2), 2)
    )
    for action, q, alpha, dim in cases:
        direct = solve_parameter_space(action, q, alpha)
        coh = cohomological_parameter_space(action, q, alpha)
        assert len(direct) == len(coh) == dim
        assert same_span(
            [k.coordinate_row() for k in direct], [k.coordinate_row() for k in coh]
        )


# -- the first-order deformation term is a Hochschild 2-cocycle ------------


def _mono_word(gamma, g):
    word = []
    for i, e in enumerate(gamma):
        word.extend([("v", i)] * e)
    word.append(("t", g))
    return word


def _mu_k(a: SkewElement, b: SkewElement, k, kappa, action, q, alpha) -> SkewElement:
    """Terms of f(a) f(b) in degree deg(a) + deg(b) - 2k: the coefficient of
    the k-th power of the deformation parameter."""
    out = SkewElement()
    for (ga, gg), ca in a.coeffs.items():
        for (gb, hh), cb in b.coeffs.items():
            target = sum(ga) + sum(gb) - 2 * k
            nf = normal_form_reduce(
                [(ca * cb, _mono_word(ga, gg) + _mono_word(gb, hh))],
                kappa, action, q, alpha,
            )
            for (gamma, grp), c in nf.items():
                if sum(gamma) == target:
                    out = out + SkewElement.monomial(gamma, grp if grp is not None else 0, c)
    return out


def test_first_order_term_satisfies_cocycle_identity():
    g, act, q, al = (symmetric_group(3), None, QMatrix.uniform(3, -1), None)
    act = natural_permutation_action(g)
    al = trivial_cocycle(g)
    space = solve_parameter_space(act, q, al)
    kappa = space[0] + space[1].scale(rational(2))
    monos = [SkewElement.monomial((1, 0, 0), 0), SkewElement.monomial((0, 1, 0), 2),
             SkewElement.monomial((0, 0, 1), 0), SkewElement.monomial((0, 1, 0), 4)]

    def mu0(x, y):
        return skew_multiply(x, y, act, q, al)

    def mu1(x, y):
        return _mu_k(x, y, 1, kappa, act, q, al)

    for a, b, c in itertools.product(monos, repeat=3):
        lhs = mu0(a, mu1(b, c)) + mu1(a, mu0(b, c))
        rhs = mu1(mu0(a, b), c) + mu0(mu1(a, b), c)
        assert lhs == rhs


def test_deformation_degrees_drop_evenly():
    # every normal-form term of a product of monomials sits in degree
    # d1 + d2 - 2k for some k >= 0
    g = symmetric_group(3)
    act = natural_permutation_action(g)
    q = QMatrix.uniform(3, -1)
    al = trivial_cocycle(g)
    space = solve_parameter_space(act, q, al)
    kappa = space[0] + space[-1]
    rnd = random.Random(31)
    for _ in range(20):
        ga = tuple(rnd.randint(0, 2) for _ in range(3))
        gb = tuple(rnd.randint(0, 2) for _ in range(3))
        word = _mono_word(ga, rnd.randrange(6)) + _mono_word(gb, rnd.randrange(6))
        nf = normal_form_reduce([(ONE, tuple(word))], kappa, act, q, al)
        total = sum(ga) + sum(gb)
        for (gamma, _), _c in nf.items():
            drop = total - sum(gamma)
            assert drop >= 0 and drop % 2 == 0


def test_pipeline_refuses_a_projector_that_does_not_fix_its_image(monkeypatch):
    # a skew-symmetrization off by a factor 2 makes R(R(c)) = 2 R(c)
    _, action, q, alpha = symmetric_instance(4, True)
    real = cohomology.skew_symmetrize
    monkeypatch.setattr(cohomology, "skew_symmetrize",
                        lambda *args: real(*args).scale(rational(2)))
    with pytest.raises(CrossCheckError, match="does not fix its own image"):
        cohomological_parameter_space(action, q, alpha, recheck=False)

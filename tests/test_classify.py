"""Closed-form classifications and their cross-checks."""

import gc
import hashlib
import random
import tracemalloc
from itertools import combinations

import pytest

from reference import GroupAlgebraElement, cg_membership, value
from tqdha.classify import (
    _family_representatives,
    diagonal_constant_basis,
    diagonal_kappa_basis,
    diagonal_kappa_basis_labeled,
    eta_family_basis,
    eta_family_counts,
    kappa_one,
    kappa_two,
    symmetric_natural_classify,
    symmetric_instance,
)
from tqdha.cohomology import constant_cocycle_basis
from tqdha.groups import (
    bicharacter_cocycle,
    group_from_cyclic_orders,
    perm_from_cycles,
    symmetric_group,
    trivial_cocycle,
    trivial_group,
)
from tqdha.linalg import rows_rank, same_span
from tqdha.pbw import KappaMap, check_pbw_conditions, solve_parameter_space
from tqdha.quantum import (
    ActionError,
    QMatrix,
    diagonal_action,
    natural_permutation_action,
)
from tqdha.scalars import MINUS_ONE, ONE, ZERO


def z2_123_instance():
    z2 = group_from_cyclic_orders([2])
    lam = [[ONE, ONE, ONE], [MINUS_ONE, MINUS_ONE, ONE]]
    return z2, diagonal_action(z2, lam), QMatrix.uniform(3, 1), lam


def klein_instance():
    klein = group_from_cyclic_orders([2, 2])
    lam = {
        (0, 0): [ONE, ONE],
        (1, 0): [ONE, MINUS_ONE],
        (0, 1): [MINUS_ONE, ONE],
        (1, 1): [MINUS_ONE, MINUS_ONE],
    }
    rows = [lam[lab] for lab in klein.labels]
    return klein, diagonal_action(klein, rows), QMatrix.uniform(2, 1)


def test_cg_membership_examples():
    _, act, q, _ = z2_123_instance()
    assert cg_membership((0, 0, 0), 0, act, q)
    assert cg_membership((-1, -1, 0), 1, act, q)  # exempt coordinates, q=1 and lambda_3=1
    assert not cg_membership((0, 0, 0), 1, act, q)


def test_cg_membership_bridges_to_pair_condition():
    # (r, s) qualifies for the constant basis iff the vector with -1 at r, s
    # and 0 elsewhere lies in C_g
    _, act, q, lam = z2_123_instance()
    for g in range(2):
        for r in range(3):
            for s in range(r + 1, 3):
                gamma = tuple(-1 if t in (r, s) else 0 for t in range(3))
                direct = all(
                    q(r, rp) * q(s, rp) == lam[g][rp] for rp in range(3) if rp not in (r, s)
                )
                assert cg_membership(gamma, g, act, q) == direct


def test_cg_requires_diagonal():
    s3 = symmetric_group(3)
    act = natural_permutation_action(s3)
    with pytest.raises(ActionError, match="action is not diagonal on the chosen basis"):
        cg_membership((0, 0, 0), 0, act, QMatrix.uniform(3, -1))


def test_diagonal_constant_basis_examples():
    _, act, q, _ = z2_123_instance()
    basis = diagonal_constant_basis(act, q)
    assert (0, 0, 1) in basis and (1, 0, 1) in basis
    assert (1, 0, 2) not in basis
    kb = constant_cocycle_basis(act, q)
    found = set()
    for c in kb:
        ((g, r, s),) = c.coeffs.keys()
        found.add((g, r, s))
    assert found == set(basis)


def test_diagonal_constant_basis_n2_all_pairs():
    klein, act, q = klein_instance()
    basis = diagonal_constant_basis(act, q)
    assert basis == [(g, 0, 1) for g in range(4)]


def test_trivial_group_kappa_basis():
    g = trivial_group()
    act = diagonal_action(g, [[ONE] * 3])
    q = QMatrix.uniform(3, 1)
    labeled = diagonal_kappa_basis_labeled(act, q, trivial_cocycle(g))
    assert [(lab[1], lab[2]) for lab, _ in labeled] == [(0, 1), (0, 2), (1, 2)]
    for _, kappa in labeled:
        ((i, j),) = {(i, j) for _, i, j in kappa.coeffs}
        assert value(kappa, i, j) == GroupAlgebraElement.basis(0)


def test_z2_negation_dual_engine():
    z2 = group_from_cyclic_orders([2])
    act = diagonal_action(z2, [[ONE, ONE], [MINUS_ONE, MINUS_ONE]])
    q = QMatrix.uniform(2, 1)
    al = trivial_cocycle(z2)
    closed = diagonal_kappa_basis(act, q, al)
    direct = solve_parameter_space(act, q, al)
    assert len(closed) == len(direct) == 2
    assert same_span(
        [k.coordinate_row() for k in closed], [k.coordinate_row() for k in direct]
    )


def test_klein_trivial_vs_bicharacter():
    klein, act, q = klein_instance()
    trivial = trivial_cocycle(klein)
    twisted = bicharacter_cocycle(klein, [[0, 0], [1, 0]])
    basis_trivial = diagonal_kappa_basis(act, q, trivial)
    basis_twisted = diagonal_kappa_basis(act, q, twisted)
    assert len(basis_trivial) == 0
    assert len(basis_twisted) == 1
    for alpha, closed in ((trivial, basis_trivial), (twisted, basis_twisted)):
        direct = solve_parameter_space(act, q, alpha)
        assert len(direct) == len(closed)
        if closed:
            assert same_span(
                [k.coordinate_row() for k in closed],
                [k.coordinate_row() for k in direct],
            )
    # the surviving basis map passes the PBW checker
    rep = check_pbw_conditions(basis_twisted[0], act, q, twisted)
    assert rep["passed"]


def sign_instance():
    """S3 acting on two variables by the sign character, q = 1: its labeled
    basis has classes whose transversals hold two and three elements."""
    G = symmetric_group(3)
    sign = [MINUS_ONE if (p[0] > p[1]) + (p[0] > p[2]) + (p[1] > p[2]) & 1 else ONE
            for p in G.perms]
    return G, diagonal_action(G, [[s, s] for s in sign]), QMatrix.uniform(2, 1)


def test_representative_independence():
    # recomputing f_{r,s,a} with any other choice of coset representatives,
    # r z for r in the transversal of Z(a) and a random z in Z(a), yields the
    # identical element
    klein, klein_act, klein_q = klein_instance()
    s3, sign_act, sign_q = sign_instance()
    rnd = random.Random(3)
    for G, act, q, twisted in (
        (klein, klein_act, klein_q, bicharacter_cocycle(klein, [[0, 0], [1, 0]])),
        (s3, sign_act, sign_q, trivial_cocycle(s3)),
    ):
        labeled = diagonal_kappa_basis_labeled(act, q, twisted)
        lam = act.eigenvalue_table()
        data = G.class_data
        if G is s3:
            # the non-abelian instance varies the coset representatives
            assert any(len(data.transversal[a]) > 1 for (a, _, _), _ in labeled)
        for (a, r, s), kappa in labeled:
            for _ in range(5):
                coeffs = {}
                for t in data.transversal[a]:
                    g = G.mult[t][rnd.choice(data.centralizer[a])]
                    target = G.conjugate(g, a)
                    val = (
                        twisted(g, a) / twisted(target, g)
                        * lam[g][r].inverse() * lam[g][s].inverse()
                    )
                    coeffs[target] = coeffs.get(target, ZERO) + val
                rebuilt = GroupAlgebraElement(coeffs)
                assert rebuilt == value(kappa, r, s)


def labeled_by_pairs(action, q, alpha):
    """The labeled diagonal basis as the paper states it: per class
    representative a (the least element of its class), per pair r < s, the
    q-lambda and centralizer conditions, then the sum over the least g that
    reaches each conjugate g a g^-1."""
    G, n = action.group, action.n
    lam = action.eigenvalue_table()
    out = []
    for a in sorted({min(G.conjugate(h, c) for h in range(G.size)) for c in range(G.size)}):
        for r, s in combinations(range(n), 2):
            if not all(q(r, rp) * q(s, rp) == lam[a][rp] for rp in range(n) if rp not in (r, s)):
                continue
            if not all(lam[h][r] * lam[h][s] == alpha(h, a) / alpha(a, h)
                       for h in range(G.size) if G.mul(h, a) == G.mul(a, h)):
                continue
            coeffs = {}
            for g in range(G.size):
                b = G.conjugate(g, a)
                if b not in coeffs:
                    coeffs[b] = (alpha(g, a) / alpha(b, g)
                                 * lam[g][r].inverse() * lam[g][s].inverse())
            out.append(((a, r, s), KappaMap(G, n, q, {(b, r, s): c for b, c in coeffs.items()})))
    return out


def test_labeled_basis_matches_the_representatives_by_pairs_loop():
    klein, klein_act, klein_q = klein_instance()
    z2, z2_act, z2_q, _ = z2_123_instance()
    s3, sign_act, sign_q = sign_instance()
    for act, q, alpha in (
        (klein_act, klein_q, trivial_cocycle(klein)),
        (klein_act, klein_q, bicharacter_cocycle(klein, [[0, 0], [1, 0]])),
        (z2_act, z2_q, trivial_cocycle(z2)),
        (sign_act, sign_q, trivial_cocycle(s3)),
    ):
        got = diagonal_kappa_basis_labeled(act, q, alpha)
        expected = labeled_by_pairs(act, q, alpha)
        assert [label for label, _ in got] == [label for label, _ in expected]
        assert [k.to_records() for _, k in got] == [k.to_records() for _, k in expected]
    # in the non-abelian instance some (a, r, s) of the constant basis have a
    # that is no class representative, and the labeled basis leaves them out
    assert any(s3.class_data.rep[a] != a for a, _, _ in diagonal_constant_basis(sign_act, sign_q))


def test_eta_family_counts():
    assert eta_family_counts(4) == {1: 6, 2: 6, 3: 12, 4: 3, 5: 8}
    assert eta_family_counts(5) == {1: 10, 2: 10, 3: 30, 4: 15, 5: 20}
    for n in (4, 5):
        fams = eta_family_basis(n)
        got = {}
        for e in fams:
            got[e.tag] = got.get(e.tag, 0) + 1
        assert got == eta_family_counts(n)


def test_eta_families_independent_and_in_kernel_n4():
    n = 4
    _, act, q = symmetric_instance(n)
    fams = eta_family_basis(n)
    kernel = [c.coordinate_row() for c in constant_cocycle_basis(act, q)]
    for e in fams:
        assert rows_rank(kernel + [e.kappa.coordinate_row()]) == len(kernel)
    assert rows_rank([e.kappa.coordinate_row() for e in fams]) == len(fams) == 35


def test_eta_family_order_is_pinned():
    # sha256 of the (tag, indices) sequence, recorded before the families were
    # generated from one table; the printed lemma table and criterion 8 read
    # this order
    digests = {
        5: "4c88867bb862403cc8e76ffe2342a3c4bacf0c53e121ef94b8fc9919c6ade819",
        6: "6acabf7ffda1bb385d9087bd9d8d93d7bb00adf8db0eec4d3fe6ff16d062bede",
    }
    for n, digest in digests.items():
        seq = repr([(e.tag, e.indices) for e in eta_family_basis(n)])
        assert hashlib.sha256(seq.encode()).hexdigest() == digest


def test_eta_families_need_n_at_least_4():
    with pytest.raises(ValueError):
        eta_family_basis(3)


def test_kappa_one_two_shapes():
    n = 4
    k1, k2 = kappa_one(n), kappa_two(n)
    group = symmetric_group(n)
    assert value(k1, 0, 1) == GroupAlgebraElement.basis(0)
    # q = -1 turns antisymmetry into symmetry
    for i in range(n):
        for j in range(n):
            if i != j:
                assert value(k1, i, j) == value(k1, j, i)
                assert value(k2, i, j) == value(k2, j, i)
    # kappa_2(v_0, v_1) supported on the 3-cycles through 0 and 1
    val = value(k2, 0, 1)
    assert len(val.coeffs) == 2 * (n - 2)
    assert all(c == ONE for c in val.coeffs.values())


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_kappa_one_two_match_the_paper_formulas(n):
    # kappa_1(v_i, v_j) = t_1 and kappa_2(v_i, v_j) = sum_{k != i, j}
    # (t_(ijk) + t_(ikj)), written here from the formulas, not the eta table
    group, _, q = symmetric_instance(n)

    def t(*cycle):
        return group.perms.index(perm_from_cycles(n, [cycle]))

    pairs = list(combinations(range(n), 2))
    one = KappaMap(group, n, q, {(0, *pair): ONE for pair in pairs})
    two = KappaMap(group, n, q, {
        (g, i, j): ONE
        for i, j in pairs for k in range(n) if k not in (i, j) for g in (t(i, j, k), t(i, k, j))
    })
    assert kappa_one(n).to_records() == one.to_records()
    assert kappa_two(n).to_records() == two.to_records()


def test_closed_forms_apply_to_a_fresh_instance():
    """kappa_1 and kappa_2 are built on the one S5 and the one q that every
    instance of S5 shares, so a newly built twisted instance accepts them
    (``pbw.require_kappa_on`` compares the group by identity), and each
    equals its own rebuild (``KappaMap`` equality compares group and q by
    identity too)."""
    group, action, q, alpha = symmetric_instance(5, True)
    for build in (kappa_one, kappa_two):
        kappa = build(5)
        assert kappa.group is group and kappa.q is q
        assert check_pbw_conditions(kappa, action, q, alpha)["passed"]
        assert kappa == build(5)


def retained_by_classification(collect: bool) -> int:
    """The traced bytes a twisted S6 classification leaves once its report
    is deleted, with the cycle collector off during the run; ``collect``
    runs it once after the delete.  What stays by design is settled first
    by one classification that is dropped and collected: S6 and the class
    data it keeps for its life, the value-keyed memos and the free lists.
    So the window holds the problem's own data only, whatever ran before."""
    symmetric_natural_classify(6, True)
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        report = symmetric_natural_classify(6, True)
        assert report["matches_expected"]
        del report
        if collect:
            gc.collect()
        return tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
        gc.enable()


def test_classification_frees_its_problem():
    """What the routes derive from a problem is held by the problem's own
    objects, so a twisted S6 classification that is dropped leaves the
    traced memory within 1 MB of where it started.  With the per-problem data in module caches
    keyed on the action, 6.1 MB stayed."""
    retained = retained_by_classification(collect=True)
    assert retained < 10 ** 6, retained


def test_classification_frees_its_problem_without_the_cycle_collector():
    """No derived table refers back to its action, so reference counting
    alone frees a dropped problem.  With the condition sites and the
    overlap tables holding the action, 5.8 MB stayed until a collection."""
    retained = retained_by_classification(collect=False)
    assert retained < 10 ** 6, retained


@pytest.mark.parametrize("n", [4, 5, 6])
def test_family_representatives_are_the_first_of_each_family(n):
    first = {}
    for elt in eta_family_basis(n):
        first.setdefault(elt.tag, elt)
    reps = _family_representatives(n)
    assert sorted(reps) == sorted(first) == [1, 2, 3, 4, 5]
    for tag, elt in first.items():
        assert (reps[tag].tag, reps[tag].indices) == (elt.tag, elt.indices)
        assert reps[tag].kappa.to_records() == elt.kappa.to_records()


def test_symmetric_classify_n4_regression():
    # no statement pins the twisted n = 4 dimension; both engines agree on 3,
    # frozen here as a regression value
    rep = symmetric_natural_classify(4, True)
    assert rep["dimension"] == 3
    assert rep["matches_expected"] is None
    from tqdha.spin import spin_cocycle

    _, act, q = symmetric_instance(4)
    direct = solve_parameter_space(act, q, spin_cocycle(symmetric_group(4)))
    assert len(direct) == 3
    assert same_span(
        [b.coordinate_row() for b in rep["kappa_basis"]],
        [b.coordinate_row() for b in direct],
    )


def test_symmetric_classify_rejects_small_n():
    with pytest.raises(ValueError):
        symmetric_natural_classify(3, True)


def test_symmetric_classify_n4_untwisted_larger_than_twisted():
    rep_t = symmetric_natural_classify(4, True)
    rep_u = symmetric_natural_classify(4, False)
    assert rep_u["dimension"] > rep_t["dimension"]

"""Groups, cocycles, and the twisted group algebra."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tqdha.groups import (
    Cocycle2,
    CocycleError,
    GroupAlgebraElement,
    GroupConstructionError,
    bicharacter_cocycle,
    group_from_cyclic_orders,
    group_from_permutations,
    group_from_table,
    symmetric_group,
    tga_inverse_of_basis,
    tga_multiply,
    trivial_cocycle,
    twisted_conjugate,
    validate_cocycle,
)
from tqdha.scalars import MINUS_ONE, ONE, rational


def klein_with_bicharacter():
    g = group_from_cyclic_orders([2, 2])
    return g, bicharacter_cocycle(g, [[0, 0], [1, 0]])


def test_build_group_cyclic_two():
    g = group_from_cyclic_orders([2])
    assert g.size == 2 and g.inv[1] == 1


def test_build_group_s5_closure():
    g = group_from_permutations([(1, 0, 2, 3, 4), (1, 2, 3, 4, 0)], degree=5)
    assert g.size == 120
    assert g.perms[0] == (0, 1, 2, 3, 4)


def test_build_group_klein_self_inverse():
    g = group_from_cyclic_orders([2, 2])
    assert g.size == 4
    assert all(g.inv[x] == x for x in range(4))


def test_bad_table_rejected():
    with pytest.raises(GroupConstructionError):
        group_from_table([[0, 1], [1, 1]])
    # associative magma with identity but broken inverses is impossible on
    # permutation rows; break associativity instead
    with pytest.raises(GroupConstructionError):
        group_from_table([[0, 1, 2], [1, 2, 0], [2, 1, 0]])


def test_size_cap():
    with pytest.raises(GroupConstructionError):
        group_from_permutations([(1, 0, 2, 3, 4), (1, 2, 3, 4, 0)], degree=5, size_cap=50)


def test_trivial_cocycle_validates():
    g = symmetric_group(3)
    rep = validate_cocycle(trivial_cocycle(g))
    assert rep["normalized"] and rep["cocycle"]
    assert all(v.is_one() for v in rep["commuting_pair_invariants"].values())


def test_bicharacter_cocycle_klein():
    g, alpha = klein_with_bicharacter()
    rep = validate_cocycle(alpha)
    assert rep["normalized"] and rep["cocycle"]
    u = g.labels.index((1, 0))
    w = g.labels.index((0, 1))
    assert rep["commuting_pair_invariants"][(u, w)] == MINUS_ONE


def test_commuting_invariants_multiply_to_one():
    g, alpha = klein_with_bicharacter()
    rep = validate_cocycle(alpha)
    inv = rep["commuting_pair_invariants"]
    for (a, b), v in inv.items():
        assert (v * inv[(b, a)]).is_one()


def test_broken_cocycle_reported_with_triple():
    g = group_from_cyclic_orders([3])
    vals = [[ONE, ONE, ONE], [ONE, ONE, ONE], [ONE, rational(2), ONE]]
    rep = validate_cocycle(Cocycle2(g, vals))
    assert rep["normalized"]
    assert not rep["cocycle"]
    assert rep["failures"] and rep["failures"][0][0] == "cocycle"


def test_zero_cocycle_value_rejected():
    g = group_from_cyclic_orders([2])
    from tqdha.scalars import ZERO

    with pytest.raises(CocycleError):
        Cocycle2(g, [[ONE, ONE], [ONE, ZERO]])


def test_tga_identity_and_inverse():
    g, alpha = klein_with_bicharacter()
    for x in range(4):
        tx = GroupAlgebraElement.basis(x)
        assert tga_multiply(GroupAlgebraElement.basis(0), tx, alpha) == tx
        prod = tga_multiply(tx, tga_inverse_of_basis(x, alpha), alpha)
        assert prod == GroupAlgebraElement.basis(0)


def test_tga_twist_asymmetry():
    g, alpha = klein_with_bicharacter()
    u = g.labels.index((1, 0))
    w = g.labels.index((0, 1))
    uw = g.mult[u][w]
    tu, tw = GroupAlgebraElement.basis(u), GroupAlgebraElement.basis(w)
    assert tga_multiply(tu, tw, alpha) == GroupAlgebraElement.basis(uw)
    assert tga_multiply(tw, tu, alpha) == GroupAlgebraElement.basis(uw).scale(MINUS_ONE)


def test_tga_associativity_exhaustive_small():
    for group, alpha in [
        klein_with_bicharacter(),
        (symmetric_group(3), trivial_cocycle(symmetric_group(3))),
    ]:
        for a, b, c in itertools.product(range(group.size), repeat=3):
            A, B, C = (GroupAlgebraElement.basis(x) for x in (a, b, c))
            left = tga_multiply(tga_multiply(A, B, alpha), C, alpha)
            right = tga_multiply(A, tga_multiply(B, C, alpha), alpha)
            assert left == right


def test_twisted_conjugate_matches_triple_product():
    g, alpha = klein_with_bicharacter()
    for h, x in itertools.product(range(4), repeat=2):
        tx = GroupAlgebraElement.basis(x)
        direct = twisted_conjugate(h, tx, alpha)
        via_product = tga_multiply(
            tga_multiply(GroupAlgebraElement.basis(h), tx, alpha),
            tga_inverse_of_basis(h, alpha),
            alpha,
        )
        assert direct == via_product


def test_twisted_conjugate_is_group_action_and_automorphism():
    g, alpha = klein_with_bicharacter()
    rnd = random.Random(1)
    elts = [
        GroupAlgebraElement({0: rational(2), 2: MINUS_ONE}),
        GroupAlgebraElement({1: ONE, 3: rational(-3)}),
    ]
    for h1, h2 in itertools.product(range(4), repeat=2):
        for x in elts:
            once = twisted_conjugate(h1, twisted_conjugate(h2, x, alpha), alpha)
            joint = twisted_conjugate(g.mult[h1][h2], x, alpha)
            assert once == joint
    for h in range(4):
        for x, y in itertools.product(elts, repeat=2):
            lhs = twisted_conjugate(h, tga_multiply(x, y, alpha), alpha)
            rhs = tga_multiply(
                twisted_conjugate(h, x, alpha), twisted_conjugate(h, y, alpha), alpha
            )
            assert lhs == rhs


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(st.integers(-3, 3), min_size=2, max_size=2), min_size=2, max_size=2),
       st.sampled_from([2, 4]))
def test_bicharacters_validate_or_are_rejected(exponents, root_order):
    # well-defined exponent data always yields a normalized cocycle;
    # ill-defined data (exponent not killed by the coordinate orders) is
    # rejected at construction
    g = group_from_cyclic_orders([2, 2])
    well_defined = all(
        (e * 2) % root_order == 0 for row in exponents for e in row
    )
    if well_defined:
        rep = validate_cocycle(bicharacter_cocycle(g, exponents, root_order))
        assert rep["normalized"] and rep["cocycle"]
    else:
        with pytest.raises(CocycleError):
            bicharacter_cocycle(g, exponents, root_order)


def test_conjugacy_classes_s4():
    g = symmetric_group(4)
    sizes = sorted(len(c) for c in g.conjugacy_classes())
    assert sizes == [1, 3, 6, 6, 8]


def test_coset_reps_cover_class():
    g = symmetric_group(4)
    for cls in g.conjugacy_classes():
        a = cls[0]
        reps = g.coset_reps_mod_centralizer(a)
        assert len(reps) == len(cls)
        assert sorted(g.conjugate(r, a) for r in reps) == list(cls)

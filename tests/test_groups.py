"""Groups, cocycles, and the twisted group algebra."""

import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tqdha.groups import (
    MAX_GROUP_ORDER,
    Cocycle2,
    CocycleError,
    FiniteGroup,
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
from tqdha.scalars import MINUS_ONE, ONE, rational, root_of_unity
from tqdha.spin import spin_cocycle


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
    # S8 has order 40,320, past MAX_GROUP_ORDER = |S7|
    with pytest.raises(GroupConstructionError, match="MAX_GROUP_ORDER"):
        group_from_permutations([(1, 0, 2, 3, 4, 5, 6, 7), (1, 2, 3, 4, 5, 6, 7, 0)], degree=8)
    assert MAX_GROUP_ORDER == math.factorial(7)
    # a 10^12-element cyclic group is refused from its orders alone
    with pytest.raises(GroupConstructionError, match="MAX_GROUP_ORDER"):
        group_from_cyclic_orders([1000000, 1000000])
    with pytest.raises(GroupConstructionError, match="MAX_GROUP_ORDER"):
        group_from_table([[0]] * (MAX_GROUP_ORDER + 1))


def test_trivial_cocycle_validates():
    for n in (3, 4):
        rep = validate_cocycle(trivial_cocycle(symmetric_group(n)))
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


# ---------------------------------------------------------------------------
# cocycle identity checked on generators, against every first argument
# ---------------------------------------------------------------------------


def every_first_argument(alpha):
    """The same table on a copy of the group that records no generators, so
    that ``validate_cocycle`` checks every triple."""
    G = alpha.group
    bare = FiniteGroup(G.mult, name=G.name, perms=G.perms, labels=G.labels)
    return Cocycle2(bare, alpha.values)


def coboundary_twist(alpha, rnd, order, normalized=True):
    """alpha times d(f) for a seeded f: G -> mu_order,
    d(f)(a, b) = f(a) f(b) / f(ab); f(1) = 1 keeps the table normalized."""
    G = alpha.group
    f = [root_of_unity(order, rnd.randrange(order)) for _ in range(G.size)]
    if normalized:
        f[0] = ONE
    return Cocycle2(G, [[alpha(a, b) * f[a] * f[b] / f[G.mult[a][b]] for b in range(G.size)]
                        for a in range(G.size)])


def planted_break(alpha, rnd):
    """Scale one value alpha(x, y) by -1 or a primitive cube root, with
    x neither the identity nor a generator and y not the identity."""
    G = alpha.group
    x = rnd.choice([g for g in range(1, G.size) if g not in G.generator_indices])
    y = rnd.randrange(1, G.size)
    vals = [list(row) for row in alpha.values]
    vals[x][y] = vals[x][y] * rnd.choice([MINUS_ONE, root_of_unity(3, 1)])
    return Cocycle2(G, vals)


def cocycle_instances():
    """Valid tables with planted breaks; coboundary twists and unnormalized
    variants on the small groups only (an exhaustive Z/6xZ/6 check takes
    over a second)."""
    rnd = random.Random(41)
    klein = group_from_cyclic_orders([2, 2])
    z6z6 = bicharacter_cocycle(
        group_from_cyclic_orders([6, 6]), [[rnd.randrange(6) for _ in range(2)] for _ in range(2)], 6)
    valid = [spin_cocycle(4), z6z6]
    valid += [bicharacter_cocycle(klein, e) for e in ([[0, 0], [1, 0]], [[1, 1], [0, 1]])]
    valid += [coboundary_twist(a, rnd, 4) for a in list(valid) if a.group.size <= 24]
    for alpha in valid:
        yield "valid", alpha
        yield "broken", planted_break(alpha, rnd)
        if alpha.group.size <= 24:
            yield "unnormalized", coboundary_twist(alpha, rnd, 4, normalized=False)
            yield "unnormalized", planted_break(
                coboundary_twist(alpha, rnd, 4, normalized=False), rnd)


def test_cocycle_identity_on_generators_matches_every_triple():
    kinds = set()
    for kind, alpha in cocycle_instances():
        G = alpha.group
        assert G.generator_indices
        ours = validate_cocycle(alpha)
        full = validate_cocycle(every_first_argument(alpha))
        assert (ours["normalized"], ours["cocycle"]) == (full["normalized"], full["cocycle"])
        assert ours["commuting_pair_invariants"] == full["commuting_pair_invariants"]
        firsts = {0, *G.generator_indices}
        assert all(w[1] in firsts for w in ours["failures"] if w[0] == "cocycle")
        if kind == "valid":
            assert ours["normalized"] and ours["cocycle"]
        if kind == "broken":
            assert ours["normalized"] and not ours["cocycle"]
        kinds.add((kind, ours["normalized"], ours["cocycle"]))
    # the twisted-but-unnormalized tables stay cocycles, the broken ones do not
    assert {("unnormalized", False, True), ("unnormalized", False, False)} <= kinds

"""Groups, cocycles, and the twisted group algebra."""

import itertools
import math
import os
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import GroupAlgebraElement, conjugacy_classes, tga_inverse_of_basis, tga_multiply
from tqdha import groups
from tqdha.groups import (
    MAX_GROUP_ORDER,
    Cocycle2,
    CocycleError,
    FiniteGroup,
    GroupConstructionError,
    _walk,
    bicharacter_cocycle,
    cocycle_from_rows,
    cocycle_from_values,
    group_from_cyclic_orders,
    group_from_permutations,
    group_from_table,
    perm_compose,
    perm_sign,
    symmetric_group,
    trivial_cocycle,
    validate_cocycle,
)
from tqdha.problems import parse_problem_file
from tqdha.scalars import MAX_CONDUCTOR, MINUS_ONE, ONE, ZERO, rational, root_of_unity
from tqdha.spin import spin_cocycle


def table(alpha):
    n = alpha.group.size
    return [[alpha(g, h) for h in range(n)] for g in range(n)]


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


def table_cases():
    """Generating lists, each with its degree: S3 to S6 as ``symmetric_group``
    builds them, A5 from 3-cycles, D5, a list with the identity and a
    repeated generator, and the empty list."""
    for n in range(3, 7):
        yield f"S{n}", None, n
    yield "A5", [(1, 2, 0, 3, 4), (0, 1, 3, 4, 2), (0, 2, 3, 1, 4)], 5
    yield "D5", [(1, 2, 3, 4, 0), (0, 4, 3, 2, 1)], 5
    yield "identity-and-repeat", [(0, 1, 2, 3), (1, 0, 2, 3), (1, 0, 2, 3), (1, 2, 3, 0)], 4
    yield "empty", [], 3


@pytest.mark.parametrize("name, gens, degree", list(table_cases()),
                         ids=[c[0] for c in table_cases()])
def test_multiplication_table_is_direct_composition(name, gens, degree):
    G = symmetric_group(degree) if gens is None else group_from_permutations(gens, degree)
    index = {p: i for i, p in enumerate(G.perms)}
    assert G.perms[0] == tuple(range(degree)) and list(G.perms) == sorted(G.perms)
    assert G.mult == tuple(tuple(index[perm_compose(a, b)] for b in G.perms) for a in G.perms)
    assert all(G.mult[g][G.inv[g]] == 0 for g in range(G.size))
    if gens is not None:
        assert G.generator_indices == tuple(index[g] for g in gens)
    assert G.size == {"A5": 60, "D5": 10, "identity-and-repeat": 24, "empty": 1}.get(
        name, math.factorial(degree))


def bicharacter_rows(G, exponents, m):
    """alpha(s, h) = zeta_m^(sum_j E[k][j] h_j) at the unit generator s of
    coordinate k, as exponents mod m."""
    return [[sum(exponents[G.labels[s].index(1)][j] * h[j] for j in range(len(h))) % m
             for h in G.labels] for s in G.generator_indices]


def test_cocycle_fill_reproduces_a_bicharacter():
    G = group_from_cyclic_orders([6, 6])
    exponents = [[1, 2], [3, 5]]
    filled = cocycle_from_rows(G, 6, bicharacter_rows(G, exponents, 6))
    assert table(filled) == table(bicharacter_cocycle(G, exponents, 6))


def test_cocycle_fill_checks_its_rows():
    G = group_from_cyclic_orders([6, 6])
    rows = bicharacter_rows(G, [[1, 2], [3, 5]], 6)
    with pytest.raises(CocycleError, match="one row"):
        cocycle_from_rows(G, 6, rows[:1])
    with pytest.raises(CocycleError, match="one row"):
        cocycle_from_rows(G, 6, [rows[0], rows[1][:-1]])
    rows[1][0] = 1  # alpha(s, 1) != 1
    with pytest.raises(CocycleError, match="row 1"):
        cocycle_from_rows(G, 6, rows)
    bare = FiniteGroup(G.mult)
    with pytest.raises(CocycleError, match="reach"):
        cocycle_from_rows(bare, 6, [])


def walk_tree(G):
    """The (a, k) of the tree edges a -> s_k a of ``cocycle_from_rows``'s walk."""
    return {(a, k) for a, k, _ in _walk([G.mult[s] for s in G.generator_indices])}


def test_flipped_row_entry_off_the_tree_is_rejected():
    """The fill imposes the identity only along its walk's tree, so a wrong
    row value on an edge outside the tree must be caught by the check at
    the walk's other edges: ``cocycle_from_rows`` refuses the rows and
    names an edge (a, s) off the tree, and the plain fill of the same rows
    is a table that ``validate_cocycle`` rejects."""
    alpha = spin_cocycle(symmetric_group(4))
    G = alpha.group
    rows = [[int(alpha(s, h) == MINUS_ONE) for h in range(G.size)] for s in G.generator_indices]
    assert table(cocycle_from_rows(G, 2, rows)) == table(alpha)
    tree = walk_tree(G)
    h, k = next((h, k) for h in range(1, G.size) for k in range(len(rows))
                if (h, k) not in tree)
    rows[k][h] ^= 1
    with pytest.raises(CocycleError, match=r"at edge \(\d+, \d+\)") as err:
        cocycle_from_rows(G, 2, rows)
    a, s = map(int, re.search(r"edge \((\d+), (\d+)\)", str(err.value)).groups())
    assert (a, G.generator_indices.index(s)) not in tree
    rep = validate_cocycle(plain_fill(G, 2, rows))
    assert rep["normalized"] and not rep["cocycle"]


def plain_fill(G, m, rows):
    """The table that the identity alpha(sa, h) = alpha(a, h) alpha(s, ah) /
    alpha(s, a) forces from the generator rows along the walk's tree, in
    exponents mod m, with no check of any kind: each entry is written on
    its own, from the product a h looked up in the group table."""
    gens = G.generator_indices
    filled = {0: [0] * G.size}
    for a, k, sa in _walk([[G.mult[s][a] for a in range(G.size)] for s in gens]):
        e = rows[k]
        filled[sa] = [(filled[a][h] + e[G.mult[a][h]] - e[a]) % m for h in range(G.size)]
    return Cocycle2(G, [root_of_unity(m, e) for e in range(m)],
                    [filled[a] for a in range(G.size)])


def reference_verdict(G, m, rows, every_triple=False):
    """Whether some normalized cocycle has these generator rows, decided
    without ``cocycle_from_rows``'s checks: the identity forces the plain
    fill, so that is the only candidate.  It must be a normalized cocycle
    (``validate_cocycle``, or, with every_triple, the per-triple loop over
    all |G|^3 triples) and keep the given rows."""
    alpha = plain_fill(G, m, rows)
    if every_triple:
        rep = per_triple_validation(every_first_argument(alpha))
    else:
        rep = validate_cocycle(alpha)
    keeps = all(alpha.index[s][h] == rows[k][h] % m
                for k, s in enumerate(G.generator_indices) for h in range(G.size))
    return rep["normalized"] and rep["cocycle"] and keeps, alpha


def exponent_table(alpha, m):
    """alpha(a, b) = zeta_m^e, as the table of exponents e mod m."""
    exps = [next(e for e in range(m) if root_of_unity(m, e) == x) for x in alpha.distinct]
    return [[exps[k] for k in row] for row in alpha.index]


def flipped(rows, m, positions, rnd):
    """A copy of the rows with each (h, k) in positions moved by a seeded
    nonzero amount mod m."""
    out = [list(e) for e in rows]
    for h, k in positions:
        out[k][h] = (out[k][h] + rnd.randrange(1, m)) % m
    return out


def row_instances():
    """Seeded row sets (kind, name, group, m, rows, table): the spin rows of
    S4 and S5, mod 2 and lifted to mod 4, and a Z/6 x Z/6 bicharacter's at
    m = 6, each with the exponent table it must give; their coboundary
    twists by d(f), f: G -> Z/m seeded with f(1) = 0, with the twisted
    table; one- and two-entry moves at positions (h, k) on the walk's tree
    and off it; and a constant added to one whole row, which leaves the
    fill unchanged but makes alpha(s, 1) != 1."""
    rnd = random.Random(30)
    z6z6 = group_from_cyclic_orders([6, 6])
    bases = [(f"S{n} spin mod {m}", spin_cocycle(symmetric_group(n)), m)
             for n in (4, 5) for m in (2, 4)]
    bases.append(("Z/6xZ/6", bicharacter_cocycle(z6z6, [[1, 2], [3, 5]], 6), 6))
    for name, alpha, m in bases:
        G = alpha.group
        exps = exponent_table(alpha, m)
        rows = [list(exps[s]) for s in G.generator_indices]
        if G.labels is not None:
            assert rows == bicharacter_rows(G, [[1, 2], [3, 5]], 6)
        yield "valid", name, G, m, rows, exps
        f = [0] + [rnd.randrange(m) for _ in range(G.size - 1)]
        twisted = [[(e + f[a] + f[b] - f[G.mult[a][b]]) % m for b, e in enumerate(row)]
                   for a, row in enumerate(exps)]
        yield ("twisted", name, G, m, [list(twisted[s]) for s in G.generator_indices], twisted)
        tree = sorted(walk_tree(G))
        off = sorted({(h, k) for h in range(G.size) for k in range(len(rows))} - set(tree))
        for where, pool in (("tree", tree), ("off-tree", off)):
            for count in (1, 2, 2):
                yield (f"move on {where}", f"{name}, {count} at {where}", G, m,
                       flipped(rows, m, rnd.sample(pool, count), rnd), None)
        k, shift = rnd.randrange(len(rows)), rnd.randrange(1, m)
        shifted = [[(e + shift) % m for e in r] if j == k else r for j, r in enumerate(rows)]
        yield "shift", name, G, m, shifted, None


def test_row_fill_verdict_matches_the_full_checks():
    """``cocycle_from_rows`` accepts exactly the row sets whose plain fill
    passes ``validate_cocycle`` and keeps the given rows, and then returns
    that fill.  At S4 the per-triple loop over every (a, b, c) is a second
    reference."""
    verdicts = {}
    for kind, name, G, m, rows, exps in row_instances():
        ref, filled = reference_verdict(G, m, rows)
        if G.size <= 24:
            assert reference_verdict(G, m, rows, every_triple=True)[0] == ref, name
        try:
            ours = cocycle_from_rows(G, m, rows)
        except CocycleError:
            ours = None
        assert (ours is not None) == ref, name
        if ours is not None:
            assert ours.index == filled.index, name
        if exps is not None:
            assert ours is not None and [list(r) for r in ours.index] == exps, name
        verdicts.setdefault(kind, set()).add(ref)
    # the valid and twisted sets are accepted above; each kind of change is
    # refused at least once
    assert all(False in verdicts[kind] for kind in ("move on tree", "move on off-tree", "shift"))


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
        G = symmetric_group(n)
        alpha = trivial_cocycle(G)
        rep = validate_cocycle(alpha)
        assert rep["normalized"] and rep["cocycle"]
        assert all(alpha.conj_ratio(g, h).is_one()
                   for g in range(G.size) for h in range(G.size) if G.mul(g, h) == G.mul(h, g))


def test_bicharacter_cocycle_klein():
    g, alpha = klein_with_bicharacter()
    rep = validate_cocycle(alpha)
    assert rep["normalized"] and rep["cocycle"]
    u = g.labels.index((1, 0))
    w = g.labels.index((0, 1))
    assert alpha.conj_ratio(u, w) == MINUS_ONE


def test_commuting_invariants_multiply_to_one():
    g, alpha = klein_with_bicharacter()
    for a in range(g.size):
        for b in range(g.size):
            assert (alpha.conj_ratio(a, b) * alpha.conj_ratio(b, a)).is_one()


def test_broken_cocycle_reported_with_triple():
    g = group_from_cyclic_orders([3])
    vals = [[ONE, ONE, ONE], [ONE, ONE, ONE], [ONE, rational(2), ONE]]
    rep = validate_cocycle(cocycle_from_values(g, vals))
    assert rep["normalized"]
    assert not rep["cocycle"]
    assert rep["failures"] and rep["failures"][0][0] == "cocycle"


def test_zero_cocycle_value_rejected():
    g = group_from_cyclic_orders([2])
    with pytest.raises(CocycleError):
        cocycle_from_values(g, [[ONE, ONE], [ONE, ZERO]])


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


def _conjugate_by(h, x, alpha):
    # t_h x t_h^-1 term by term: t_g -> conj_ratio(h, g) t_{hgh^-1}
    G = alpha.group
    return x._like({G.conjugate(h, g): c * alpha.conj_ratio(h, g) for g, c in x.coeffs.items()})


def _twisted_cases():
    s4 = symmetric_group(4)
    return [klein_with_bicharacter(), (s4, spin_cocycle(s4))]


def test_conj_ratio_matches_triple_product():
    for g, alpha in _twisted_cases():
        for h, x in itertools.product(range(g.size), repeat=2):
            tx = GroupAlgebraElement.basis(x)
            via_product = tga_multiply(
                tga_multiply(GroupAlgebraElement.basis(h), tx, alpha),
                tga_inverse_of_basis(h, alpha),
                alpha,
            )
            assert GroupAlgebraElement({g.conjugate(h, x): alpha.conj_ratio(h, x)}) == via_product


def test_conj_ratio_is_group_action_and_automorphism():
    for g, alpha in _twisted_cases():
        elts = [
            GroupAlgebraElement({0: rational(2), 2: MINUS_ONE}),
            GroupAlgebraElement({1: ONE, 3: rational(-3)}),
        ]
        for h1, h2 in itertools.product(range(g.size), repeat=2):
            for x in elts:
                once = _conjugate_by(h1, _conjugate_by(h2, x, alpha), alpha)
                joint = _conjugate_by(g.mult[h1][h2], x, alpha)
                assert once == joint
        for h in range(g.size):
            for x, y in itertools.product(elts, repeat=2):
                lhs = _conjugate_by(h, tga_multiply(x, y, alpha), alpha)
                rhs = tga_multiply(_conjugate_by(h, x, alpha), _conjugate_by(h, y, alpha), alpha)
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


def test_perm_sign_is_the_parity_of_the_inversions():
    for p in itertools.permutations(range(5)):
        inversions = sum(p[i] > p[j] for i, j in itertools.combinations(range(5), 2))
        assert perm_sign(p) == inversions % 2


def test_symmetric_group_is_built_once_per_n():
    # the closed forms of classify and every S_n instance must share one
    # group object: pbw.require_kappa_on and KappaMap equality compare groups
    # by identity (test_classify.test_closed_forms_apply_to_a_fresh_instance)
    assert symmetric_group(4) is symmetric_group(4)


def test_conjugacy_classes_s4():
    g = symmetric_group(4)
    sizes = sorted(len(c) for c in conjugacy_classes(g))
    assert sizes == [1, 3, 6, 6, 8]


def test_coset_reps_cover_class():
    g = symmetric_group(4)
    for cls in conjugacy_classes(g):
        a = cls[0]
        reps = g.class_data.transversal[a]
        assert len(reps) == len(cls)
        assert sorted(g.conjugate(r, a) for r in reps) == list(cls)



def _class_data_case(name):
    if name == "klein_bicharacter_diag":
        path = os.path.join(os.path.dirname(__file__), os.pardir, "problems", name + ".json")
        return parse_problem_file(path).action.group
    return symmetric_group(4) if name == "s4" else group_from_cyclic_orders([6, 6])


@pytest.mark.parametrize("name", ["s4", "klein_bicharacter_diag", "z6xz6"])
def test_class_data_matches_the_exhaustive_computation(name):
    # the cached class data against one conjugation pass over G per element
    G = _class_data_case(name)
    data = G.class_data
    classes, seen = [], set()
    for a in range(G.size):
        if a not in seen:
            classes.append(tuple(sorted({G.conjugate(h, a) for h in range(G.size)})))
            seen.update(classes[-1])
    assert conjugacy_classes(G) == classes
    for cls in classes:
        c = cls[0]
        assert data.transporter[c] == 0
        assert len(data.centralizer[c]) * len(data.transversal[c]) == G.size
        assert data.centralizer[c] == tuple(h for h in range(G.size) if G.mul(h, c) == G.mul(c, h))
        first: dict = {}
        for h in range(G.size):
            first.setdefault(G.conjugate(h, c), h)
        assert data.transversal[c] == tuple(first.values())
    for g in range(G.size):
        assert G.conjugate(data.transporter[g], g) == data.rep[g]
        assert data.rep[g] == next(cls[0] for cls in classes if g in cls)


# ---------------------------------------------------------------------------
# cocycle identity checked on generators, against every first argument
# ---------------------------------------------------------------------------


def every_first_argument(alpha):
    """The same table on a copy of the group that records no generators, so
    that ``validate_cocycle`` checks every triple."""
    G = alpha.group
    bare = FiniteGroup(G.mult, name=G.name, perms=G.perms, labels=G.labels)
    return Cocycle2(bare, alpha.distinct, alpha.index)


def coboundary_twist(alpha, rnd, order, normalized=True):
    """alpha times d(f) for a seeded f: G -> mu_order,
    d(f)(a, b) = f(a) f(b) / f(ab); f(1) = 1 keeps the table normalized."""
    G = alpha.group
    f = [root_of_unity(order, rnd.randrange(order)) for _ in range(G.size)]
    if normalized:
        f[0] = ONE
    return cocycle_from_values(G, [[alpha(a, b) * f[a] * f[b] / f[G.mult[a][b]]
                                    for b in range(G.size)] for a in range(G.size)])


def planted_break(alpha, rnd):
    """Scale one value alpha(x, y) by -1 or a primitive cube root, with
    x neither the identity nor a generator and y not the identity."""
    G = alpha.group
    x = rnd.choice([g for g in range(1, G.size) if g not in G.generator_indices])
    y = rnd.randrange(1, G.size)
    vals = table(alpha)
    vals[x][y] = vals[x][y] * rnd.choice([MINUS_ONE, root_of_unity(3, 1)])
    return cocycle_from_values(G, vals)


def cocycle_instances():
    """Valid tables with planted breaks; coboundary twists and unnormalized
    variants on the small groups only (an exhaustive Z/6xZ/6 check takes
    over a second)."""
    rnd = random.Random(41)
    klein = group_from_cyclic_orders([2, 2])
    z6z6 = bicharacter_cocycle(
        group_from_cyclic_orders([6, 6]), [[rnd.randrange(6) for _ in range(2)] for _ in range(2)], 6)
    valid = [spin_cocycle(symmetric_group(4)), z6z6]
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
        firsts = {0, *G.generator_indices}
        assert all(w[1] in firsts for w in ours["failures"] if w[0] == "cocycle")
        if kind == "valid":
            assert ours["normalized"] and ours["cocycle"]
        if kind == "broken":
            assert ours["normalized"] and not ours["cocycle"]
        kinds.add((kind, ours["normalized"], ours["cocycle"]))
    # the twisted-but-unnormalized tables stay cocycles, the broken ones do not
    assert {("unnormalized", False, True), ("unnormalized", False, False)} <= kinds


def test_conj_ratio_is_the_commuting_pair_quotient():
    # beta(g, h) = alpha(g, h) / alpha(h, g) on commuting pairs, on every
    # table, unnormalized and broken ones included
    for _, alpha in cocycle_instances():
        G = alpha.group
        for g in range(G.size):
            for h in range(G.size):
                if G.mul(g, h) == G.mul(h, g):
                    assert alpha.conj_ratio(g, h) == alpha(g, h) / alpha(h, g)


# ---------------------------------------------------------------------------
# memoized products against a per-triple reference
# ---------------------------------------------------------------------------


def per_triple_validation(alpha, max_witnesses=10):
    """``validate_cocycle`` written as a plain loop: every factor read through
    alpha(g, h) and every product computed afresh."""
    G = alpha.group
    n = G.size
    report = {"normalized": True, "cocycle": True, "failures": []}
    for g in range(n):
        if not alpha(g, 0).is_one() or not alpha(0, g).is_one():
            report["normalized"] = False
            if len(report["failures"]) < max_witnesses:
                report["failures"].append(("normalization", g))
    firsts = dict.fromkeys((0, *G.generator_indices)) if G.generator_indices else range(n)
    for a in firsts:
        for b in range(n):
            for c in range(n):
                if alpha(a, b) * alpha(G.mult[a][b], c) != alpha(b, c) * alpha(a, G.mult[b][c]):
                    report["cocycle"] = False
                    if len(report["failures"]) < max_witnesses:
                        report["failures"].append(("cocycle", a, b, c))
    return report


def skipping_the_last(method, at: int):
    """``method`` (``cocycle_failures`` or ``composition_failures``) with a
    planted fault: it drops each failure whose entry ``at`` is the last of
    ``lasts``."""
    def faulty(self, firsts, lasts):
        lasts = tuple(lasts)
        return (t for t in method(self, firsts, lasts) if t[at] != lasts[-1])
    return faulty


def test_the_per_triple_reference_shares_no_evaluator(monkeypatch):
    """``validate_cocycle`` reads the identity through
    ``Cocycle2.cocycle_failures``, and ``per_triple_validation`` evaluates
    it itself.  A break at alpha(x, last element), x off the generators,
    fails only triples (s, b, last) at the identity and the generators s,
    so with the evaluator made to skip the last c the package passes the
    table and the reference still fails it."""
    alpha = spin_cocycle(symmetric_group(4))
    G = alpha.group
    x, last = next(g for g in range(1, G.size) if g not in G.generator_indices), G.size - 1
    vals = table(alpha)
    vals[x][last] = vals[x][last] * MINUS_ONE
    broken = cocycle_from_values(G, vals)
    ref = per_triple_validation(broken)
    assert validate_cocycle(broken) == ref and not ref["cocycle"]
    assert {w[3] for w in ref["failures"]} == {last}
    monkeypatch.setattr(Cocycle2, "cocycle_failures",
                        skipping_the_last(Cocycle2.cocycle_failures, 2))
    assert validate_cocycle(broken) == {"normalized": True, "cocycle": True, "failures": []}
    assert per_triple_validation(broken) == ref


def stored_at_order_12(x):
    """x, a value of Q(zeta_6), stored at order 12 unless it is rational."""
    z = root_of_unity(12, 1)
    return x * z * root_of_unity(12, 11)


def mixed_order_table():
    """A Z/6 x Z/6 bicharacter table in mu_6 where every value on an odd row
    is stored at order 12: equal values at two orders."""
    G = group_from_cyclic_orders([6, 6])
    alpha = bicharacter_cocycle(G, [[1, 2], [0, 5]], 6)
    vals = [[stored_at_order_12(x) if a % 2 else x for x in row]
            for a, row in enumerate(table(alpha))]
    return cocycle_from_values(G, vals)


def distinct_value_table():
    """The rational coboundary f(a) f(b) / f(ab) on S4, f(g) the g-th prime
    (f(1) = 1): every value off the identity row and column is distinct up
    to the symmetry of commuting pairs."""
    G = symmetric_group(4)
    primes = [p for p in range(2, 100) if all(p % d for d in range(2, p))]
    f = [ONE] + [rational(p) for p in primes[:G.size - 1]]
    return cocycle_from_values(G, [[f[a] * f[b] / f[G.mult[a][b]] for b in range(G.size)]
                                   for a in range(G.size)])


def test_stored_at_order_12_keeps_the_value():
    x = root_of_unity(6, 1)
    y = stored_at_order_12(x)
    assert y.order == 12 and x.order == 6 and y == x


def memo_instances():
    rnd = random.Random(7)
    yield from (alpha for _, alpha in cocycle_instances())
    mixed = mixed_order_table()
    assert {x.order for x in mixed.distinct} == {1, 3, 6, 12}
    distinct = distinct_value_table()
    assert len(distinct.distinct) > distinct.group.size ** 2 // 2
    for alpha in (mixed, distinct):
        yield alpha
        yield planted_break(alpha, rnd)


def test_validation_memo_matches_the_per_triple_loop():
    for alpha in memo_instances():
        tables = [alpha] + ([every_first_argument(alpha)] if alpha.group.size <= 24 else [])
        for table in tables:
            ref = per_triple_validation(table)
            for max_witnesses in (3, 10):
                # witnesses are listed in loop order, so a shorter list is a prefix
                ours = validate_cocycle(table, max_witnesses)
                assert ours["normalized"] == ref["normalized"]
                assert ours["cocycle"] == ref["cocycle"]
                assert ours["failures"] == ref["failures"][:max_witnesses]


def test_mixed_order_table_validates():
    rep = validate_cocycle(mixed_order_table())
    assert rep["normalized"] and rep["cocycle"] and not rep["failures"]


def test_cocycle_shares_one_object_per_layout():
    alpha = spin_cocycle(symmetric_group(4))
    assert len(alpha.distinct) == 2
    ones = {id(x) for row in table(alpha) for x in row if x.is_one()}
    assert len(ones) == 1
    # a fresh table of equal but separately built values is shared as well
    G = group_from_cyclic_orders([6])
    beta = cocycle_from_values(G, [[root_of_unity(6, a * b) for b in range(6)] for a in range(6)])
    assert len({id(x) for row in table(beta) for x in row}) == len(beta.distinct) == 6


def test_conj_ratio_matches_the_direct_quotient():
    rnd = random.Random(3)
    z6z6 = group_from_cyclic_orders([6, 6])
    tables = [spin_cocycle(symmetric_group(4)), bicharacter_cocycle(z6z6, [[1, 2], [3, 5]], 6),
              coboundary_twist(spin_cocycle(symmetric_group(4)), rnd, 4), mixed_order_table()]
    for alpha in tables:
        G = alpha.group
        for h in range(G.size):
            for g in range(G.size):
                assert alpha.conj_ratio(h, g) == alpha(h, g) / alpha(G.conjugate(h, g), h)


# ---------------------------------------------------------------------------
# the stored form: distinct values and an integer index table
# ---------------------------------------------------------------------------


def test_each_fill_is_the_table_of_its_own_values():
    """The trivial, bicharacter and row fills, built from integers, store
    what ``cocycle_from_values`` makes of their values: the same distinct
    values in row-major order of first use, and the same index table."""
    s4 = symmetric_group(4)
    z6z6 = group_from_cyclic_orders([6, 6])
    spin4 = spin_cocycle(s4)
    rows = [[int(spin4(s, h) == MINUS_ONE) for h in range(s4.size)]
            for s in s4.generator_indices]
    for alpha in (trivial_cocycle(s4), bicharacter_cocycle(z6z6, [[1, 2], [3, 5]], 6),
                  cocycle_from_rows(s4, 2, rows)):
        ref = cocycle_from_values(alpha.group, table(alpha))
        assert alpha.distinct == ref.distinct and alpha.index == ref.index
        assert all(isinstance(k, int) for row in alpha.index for k in row)


def test_spin5_table_has_two_distinct_values():
    assert len(spin_cocycle(symmetric_group(5)).distinct) == 2


def test_zero_in_distinct_names_the_first_entry_that_holds_it():
    G = group_from_cyclic_orders([3])
    index = [[0, 0, 0], [0, 0, 1], [0, 1, 1]]
    with pytest.raises(CocycleError, match=r"\(1, 2\) is zero"):
        Cocycle2(G, (ONE, ZERO), index)
    # a zero that no entry uses is never read
    assert Cocycle2(G, (ONE, ZERO), [[0] * 3] * 3)(2, 2) == ONE


@pytest.mark.parametrize("index", [[[0] * 3] * 2, [[0] * 3, [0] * 3, [0] * 2]])
def test_wrong_sized_index_table_is_rejected(index):
    with pytest.raises(CocycleError, match="dimensions"):
        Cocycle2(group_from_cyclic_orders([3]), (ONE,), index)


def test_bicharacter_past_the_conductor_bound_builds_no_root(monkeypatch):
    """Z/101 with zeta_101 needs Q(zeta_101): refused from the exponents,
    before any root of unity is built."""
    real = groups.root_of_unity

    def bounded(n, k):
        assert n // math.gcd(n, k) <= MAX_CONDUCTOR, f"root zeta_{n}^{k} built"
        return real(n, k)

    monkeypatch.setattr(groups, "root_of_unity", bounded)
    with pytest.raises(CocycleError, match="MAX_CONDUCTOR"):
        bicharacter_cocycle(group_from_cyclic_orders([101]), [[1]], 101)
    # zeta_1000^500 = -1: a large root order whose values are small roots
    alpha = bicharacter_cocycle(group_from_cyclic_orders([2]), [[500]], 1000)
    assert alpha.distinct == (ONE, MINUS_ONE) and alpha(1, 1) == MINUS_ONE

"""The load path against per-entry references: cyclic-product tables,
bicharacter tables, the sparse composition check, and memoized parsing."""

import itertools
import os
import random
from fractions import Fraction

import pytest

from tqdha.groups import (
    CocycleError,
    GroupConstructionError,
    bicharacter_cocycle,
    group_from_cyclic_orders,
    perm_sign,
    symmetric_group,
)
from tqdha.problems import parse_problem_file
from tqdha.quantum import ActionError, GroupAction, action_from_generator_matrices, diagonal_action
from tqdha.scalars import (
    MINUS_ONE,
    ONE,
    ZERO,
    ScalarParseError,
    parse_scalar,
    rational,
    root_of_unity,
)

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


# ---------------------------------------------------------------------------
# cyclic products
# ---------------------------------------------------------------------------


def mixed_radix_group(orders):
    """(mult, labels, generators, inv) of Z/c1 x ... x Z/ck, from tuple sums."""
    labels = list(itertools.product(*[range(c) for c in orders]))
    index = {lab: i for i, lab in enumerate(labels)}

    def add(a, b):
        return tuple((x + y) % c for x, y, c in zip(a, b, orders))

    mult = tuple(tuple(index[add(a, b)] for b in labels) for a in labels)
    units = [tuple(int(j == i) for j in range(len(orders))) for i in range(len(orders))]
    gens = tuple(index[u] for u, c in zip(units, orders) if c > 1)
    inv = tuple(index[tuple(-x % c for x, c in zip(a, orders))] for a in labels)
    return mult, tuple(labels), gens, inv


@pytest.mark.parametrize("orders", [(), (1,), (2,), (6, 6), (2, 1, 3), (4, 2, 2)])
def test_cyclic_product_table_is_the_mixed_radix_sum(orders):
    G = group_from_cyclic_orders(list(orders))
    mult, labels, gens, inv = mixed_radix_group(orders)
    assert (G.mult, G.labels, G.generator_indices, G.inv) == (mult, labels, gens, inv)
    assert G.size == len(labels)


@pytest.mark.parametrize("orders", [[2.7], [True, 3], [2, False], [6, "6"], [2, None], [2.0]])
def test_cyclic_orders_must_be_ints(orders):
    with pytest.raises(GroupConstructionError, match="must be ints"):
        group_from_cyclic_orders(orders)


def test_cyclic_order_type_is_checked_before_the_size():
    # a float next to an order past MAX_GROUP_ORDER names the float
    with pytest.raises(GroupConstructionError, match="must be ints"):
        group_from_cyclic_orders([10 ** 9, 1.5])


# ---------------------------------------------------------------------------
# bicharacters
# ---------------------------------------------------------------------------


BICHARACTERS = [
    ((2, 2), [[0, 0], [1, 0]], 2),
    ((6,), [[1]], 6),
    ((6, 6), [[1, 2], [3, 5]], 6),
    ((6, 6), [[2, 4], [6, 10]], 12),
    ((2, 1, 3), [[3, 0, 0], [6, 0, 12], [0, 0, 2]], 6),
    ((4, 2, 2), [[1, 2, 0], [0, 2, 2], [2, 0, 0]], 4),
]


@pytest.mark.parametrize("orders, E, m", BICHARACTERS)
def test_bicharacter_table_is_the_triple_sum(orders, E, m):
    G = group_from_cyclic_orders(list(orders))
    k = len(orders)
    pos, index = {}, []
    for a in G.labels:
        row = []
        for b in G.labels:
            e = sum(E[i][j] * a[i] * b[j] for i in range(k) for j in range(k)) % m
            row.append(pos.setdefault(e, len(pos)))
        index.append(tuple(row))
    alpha = bicharacter_cocycle(G, E, m)
    assert alpha.index == tuple(index)
    assert alpha.distinct == tuple(root_of_unity(m, e) for e in pos)


def test_bicharacter_random_exponents_match_the_triple_sum():
    rnd = random.Random(7)
    G = group_from_cyclic_orders([6, 6])
    for _ in range(5):
        E = [[rnd.randrange(6) for _ in range(2)] for _ in range(2)]
        alpha = bicharacter_cocycle(G, E, 6)
        for a, b in itertools.product(range(G.size), repeat=2):
            la, lb = G.labels[a], G.labels[b]
            e = sum(E[i][j] * la[i] * lb[j] for i in range(2) for j in range(2))
            assert alpha(a, b) == root_of_unity(6, e)


@pytest.mark.parametrize("root_order", [0, -2, 2.0, True, "2", None])
def test_root_order_must_be_a_positive_int(root_order):
    G = group_from_cyclic_orders([2, 2])
    with pytest.raises(CocycleError, match="root_order must be a positive int"):
        bicharacter_cocycle(G, [[0, 0], [1, 0]], root_order)


# ---------------------------------------------------------------------------
# the composition check
# ---------------------------------------------------------------------------


def dense_first_failure(group, mats):
    """The first (s, g), generators s outermost, with M[sg] != M[g] . M[s],
    from dense products; None when there is none."""
    n = len(mats[0])
    for s in group.generator_indices or range(group.size):
        for g in range(group.size):
            prod = [[sum((mats[g][i][k] * mats[s][k][l] for k in range(n)), ZERO) for l in range(n)]
                    for i in range(n)]
            if prod != [list(row) for row in mats[group.mult[s][g]]]:
                return s, g
    return None


def diagonal_z6z6():
    G = group_from_cyclic_orders([6, 6])
    chars = [(1, 2), (0, 5), (3, 3), (4, 0)]
    lam = [[root_of_unity(6, sum(c * x for c, x in zip(ch, lab))) for ch in chars] for lab in G.labels]
    return diagonal_action(G, lam)


def monomial_z4z2():
    # v0 -> z4 v1, v1 -> z4 v0 of order 4, and -1 of order 2
    G = group_from_cyclic_orders([4, 2])
    z = root_of_unity(4, 1)
    return action_from_generator_matrices(G, [[[ZERO, z], [z, ZERO]], [[MINUS_ONE, ZERO], [ZERO, MINUS_ONE]]], 2)


def monomial_s4():
    # signed permutation matrices of S4: sigma(v_i) = sign(sigma) v_sigma(i)
    G = symmetric_group(4)
    mats = []
    for p in G.perms:
        sign = MINUS_ONE if perm_sign(p) else ONE
        mats.append([[sign if p[i] == k else ZERO for k in range(4)] for i in range(4)])
    return GroupAction(G, mats)


def reflection_s3():
    return parse_problem_file(os.path.join(GOLDEN, "s3_reflection_zeta3.json")).action


ACTIONS = {"diagonal": diagonal_z6z6, "monomial-z4z2": monomial_z4z2, "monomial-s4": monomial_s4,
           "reflection": reflection_s3}


@pytest.mark.parametrize("make", ACTIONS.values(), ids=ACTIONS.keys())
def test_sparse_composition_check_matches_the_dense_product(make):
    action = make()
    G, mats = action.group, action.mats
    assert dense_first_failure(G, mats) is None
    GroupAction(G, mats)._validate_composition()
    rnd = random.Random(3)
    targets = sorted({*G.generator_indices, *rnd.sample(range(1, G.size), min(6, G.size - 1))})
    for g in targets:
        for i, k in [(0, 0), (0, action.n - 1), (action.n - 1, 0)]:
            x = mats[g][i][k]
            for planted in (x + ONE, ZERO if x is not ZERO else root_of_unity(3, 1)):
                bad = [[list(row) for row in m] for m in mats]
                bad[g][i][k] = planted
                want = dense_first_failure(G, bad)
                assert want is not None
                with pytest.raises(ActionError) as err:
                    GroupAction(G, bad)
                assert str(err.value) == (
                    f"matrices violate the composition law at (s={want[0]}, g={want[1]})")


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def test_a_repeated_string_parses_to_an_equal_value():
    text = "3/5*z12^1 + 1/2 + -2/7*z12^3"
    want = (rational(Fraction(3, 5)) * root_of_unity(12, 1) + rational(Fraction(1, 2))
            + rational(Fraction(-2, 7)) * root_of_unity(12, 3))
    first, second = parse_scalar(text), parse_scalar(text)
    assert first == want and second == want
    assert parse_scalar(" " + text) == want  # another string, the same value
    assert (parse_scalar("0/1"), parse_scalar("1/1"), parse_scalar("-1/1")) == (ZERO, ONE, MINUS_ONE)
    assert parse_scalar("0/1") is ZERO and parse_scalar("1/1") is ONE and parse_scalar("-1/1") is MINUS_ONE


@pytest.mark.parametrize("value", [3, None, b"1/1", ["1/1"], {"1/1": 1}, {"1/1"}, Fraction(1, 2)])
def test_a_non_string_is_refused(value):
    for _ in range(2):
        with pytest.raises(ScalarParseError, match="expected a scalar string"):
            parse_scalar(value)


@pytest.mark.parametrize("text", ["", "1/0", "z", "1/1*z0^1", "1/1 + ", "1/1*z97^1 + 1/1*z89^1"])
def test_a_malformed_string_raises_every_time(text):
    for _ in range(3):
        with pytest.raises(ScalarParseError):
            parse_scalar(text)

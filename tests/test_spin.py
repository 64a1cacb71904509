"""The Clifford model of the Schur cover and its cocycle."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import (
    CliffordElement,
    clifford_multiply,
    section_u,
    section_u_inverse,
    spin_alpha,
    sqrt2,
    transposition_lift,
    transposition_lift_recursive,
)
from tqdha import spin
from tqdha.groups import CocycleError, perm_from_cycles, symmetric_group, validate_cocycle
from tqdha.scalars import MINUS_ONE, ONE, rational
from tqdha.spin import inequality_count, section_factors, spin_cocycle, verify_cover

N = 4


def gen(i):
    return CliffordElement.generator(N, i)


def test_clifford_products():
    e1, e2 = gen(0), gen(1)
    assert clifford_multiply(e1, e2) == CliffordElement(N, {(0, 1): ONE})
    assert clifford_multiply(e2, e1) == CliffordElement(N, {(0, 1): MINUS_ONE})
    d = e1 - e2
    assert clifford_multiply(d, d) == CliffordElement.scalar(N, 2)
    assert clifford_multiply(e1, e1) == CliffordElement.scalar(N, 1)


def test_clifford_associativity_random():
    rnd = random.Random(2)
    blades = [(), (0,), (1,), (2,), (0, 1), (1, 3), (0, 1, 2)]
    elems = [
        CliffordElement(N, {blades[rnd.randrange(len(blades))]: rational(rnd.randint(1, 3))})
        for _ in range(6)
    ]
    for x, y, z in itertools.product(elems, repeat=3):
        assert clifford_multiply(clifford_multiply(x, y), z) == clifford_multiply(
            x, clifford_multiply(y, z)
        )


def test_lift_base_and_reversal():
    t1 = transposition_lift(0, 1, N)
    sq = clifford_multiply(t1, t1)
    assert sq == CliffordElement.scalar(N, 1)
    assert transposition_lift(1, 0, N) == t1.scale(MINUS_ONE)


def test_lift_recursion_matches_closed_form():
    for n in (4, 5):
        for r in range(n):
            for s in range(n):
                if r != s:
                    assert transposition_lift_recursive(r, s, n) == transposition_lift(r, s, n)


def test_lift_rejects_equal_indices():
    with pytest.raises(ValueError):
        transposition_lift(1, 1, N)


def test_section_normal_form():
    assert section_u(tuple(range(N)), N) == CliffordElement.scalar(N, 1)
    # cycle (0 2 1): u = [0 1][0 2]
    sigma = (2, 0, 1, 3)
    assert section_factors(sigma) == [(0, 1), (0, 2)]
    # disjoint transpositions, smallest-first
    assert section_factors((1, 0, 3, 2)) == [(0, 1), (2, 3)]


def test_section_inverse():
    for sigma in itertools.permutations(range(N)):
        prod = clifford_multiply(section_u(sigma, N), section_u_inverse(sigma, N))
        assert prod == CliffordElement.scalar(N, 1)


def test_alpha_examples():
    s12 = perm_from_cycles(N, [(0, 1)])
    s34 = perm_from_cycles(N, [(2, 3)])
    ident = tuple(range(N))
    assert spin_alpha(s12, ident).is_one()
    assert spin_alpha(ident, s34).is_one()
    assert spin_alpha(s12, s12).is_one()
    assert spin_alpha(s12, s34).is_one()
    assert spin_alpha(s34, s12) == MINUS_ONE


def test_spin_cocycle_table_validates_and_is_nontrivial():
    """``spin_cocycle`` proves its own table through the fill's check;
    ``validate_cocycle`` certifies it independently, at n = 4, 5 and 6."""
    for n in (4, 5, 6):
        alpha = spin_cocycle(symmetric_group(n))
        rep = validate_cocycle(alpha)
        assert rep["normalized"] and rep["cocycle"], n
        group = alpha.group
        g12 = group.perms.index(perm_from_cycles(n, [(0, 1)]))
        g34 = group.perms.index(perm_from_cycles(n, [(2, 3)]))
        assert alpha.conj_ratio(g12, g34) == MINUS_ONE, n


@pytest.mark.parametrize("n", [4, 5])
def test_integer_section_is_the_scaled_section(n):
    """The integer product of the lifts e_r - e_s is sqrt(2)^k u_sigma, k the
    number of factors, coefficient by coefficient, against the Q(zeta_8)
    model, for every permutation."""
    for sigma in itertools.permutations(range(n)):
        ints = spin._integer_section(sigma, n)
        assert all(type(c) is int and c for c in ints.values())
        scaled = section_u(sigma, n).scale(sqrt2() ** len(section_factors(sigma)))
        assert {S: rational(c) for S, c in ints.items()} == scaled.coeffs


def test_table_agrees_with_slow_alpha_on_sample():
    """The integer table against the Q(zeta_8) products, on all 576 pairs."""
    alpha = spin_cocycle(symmetric_group(4))
    perms = alpha.group.perms
    for a, b in itertools.product(range(24), repeat=2):
        assert alpha(a, b) == spin_alpha(perms[a], perms[b])


def _least_plus_one(u):
    u[min(u)] += 1


def _negate_last(u):
    u[max(u)] = -u[max(u)]


@pytest.mark.parametrize("corrupt", [_least_plus_one, _negate_last])
def test_corrupted_integer_section_is_caught(corrupt, monkeypatch):
    """One wrong coefficient in one integer section fails the +-ref check
    itself, before the fill's check at the walk's non-tree edges sees the
    rows."""
    real = spin._integer_section
    bad = (2, 0, 1, 3)  # the 3-cycle (0 2 1): U = (e_0 - e_1)(e_0 - e_2)

    def corrupted(sigma, n):
        u = real(sigma, n)
        if sigma == bad:
            corrupt(u)
        return u

    monkeypatch.setattr(spin, "_integer_section", corrupted)
    with pytest.raises(ArithmeticError, match="cover model is broken"):
        spin.spin_cocycle(symmetric_group(4))


def test_rows_that_are_no_cocycle_mean_a_broken_model(monkeypatch):
    """Generator rows that pass the +-ref check but are not a cocycle's are
    refused by the fill, and ``spin_cocycle`` reports a broken model."""
    real = spin.cocycle_from_rows

    def moved(group, m, rows, name):
        rows[0][5] ^= 1
        return real(group, m, rows, name=name)

    monkeypatch.setattr(spin, "cocycle_from_rows", moved)
    with pytest.raises(ArithmeticError, match="cover model is broken") as err:
        spin.spin_cocycle(symmetric_group(4))
    assert isinstance(err.value.__cause__, CocycleError)


def test_table_agrees_with_slow_alpha_n5_sample():
    alpha = spin_cocycle(symmetric_group(5))
    group = alpha.group
    rnd = random.Random(21)
    for _ in range(25):
        a, b = rnd.randrange(120), rnd.randrange(120)
        assert alpha(a, b) == spin_alpha(group.perms[a], group.perms[b])
    # the nontriviality certificate persists at n = 5
    g12 = group.perms.index(perm_from_cycles(5, [(0, 1)]))
    g34 = group.perms.index(perm_from_cycles(5, [(2, 3)]))
    assert alpha(g12, g34) / alpha(g34, g12) == MINUS_ONE


def test_inequality_count_examples():
    assert inequality_count(0, 1, 2, 3) == 0
    assert inequality_count(2, 3, 0, 1) == 1
    with pytest.raises(ValueError):
        inequality_count(1, 1, 2, 3)


@settings(max_examples=80, deadline=None)
@given(st.permutations(list(range(6))))
def test_inequality_count_flip_property(vals):
    r, s, rp, sp = vals[:4]
    d0 = inequality_count(r, s, rp, sp)
    assert abs(d0 - inequality_count(r, s, sp, rp)) == 1
    assert abs(d0 - inequality_count(s, r, rp, sp)) == 1


def test_verify_cover_n4_exhaustive():
    res = verify_cover(4)
    assert res["all_passed"], {
        k: v["witnesses"] for k, v in res.items() if isinstance(v, dict) and not v["passed"]
    }
    # braid relation family is present and checked
    assert res["braid"]["checked"] == 2


def test_verify_cover_rejects_small_n():
    with pytest.raises(ValueError):
        verify_cover(3)


@pytest.mark.parametrize("samples", [0, -5])
def test_verify_cover_rejects_nonpositive_samples(samples):
    with pytest.raises(ValueError, match="samples"):
        verify_cover(5, samples=samples)


def test_planted_lift_sign_fault_fails_the_cover(monkeypatch):
    """With the lifts e_r + e_s in place of e_r - e_s, seven families fail
    as integer identities; (e_r + e_s)^2 = 2 and the anticommutations of
    disjoint lifts still hold."""
    monkeypatch.setattr(spin, "_lift_terms", lambda r, s, c: (((r,), c), ((s,), c)))
    res = verify_cover(4)
    assert not res["all_passed"]
    assert [fam for fam in res if fam != "all_passed" and not res[fam]["passed"]] == [
        "braid", "[rs] recursion", "conjugation of [rs]", "3-cycle relation",
        "section property (a)", "section property (b)", "section property (c)"]


def test_sampled_cover_witnesses_pin_the_draw_order(monkeypatch):
    """With every Clifford product a fresh blade, no comparison holds, so
    each family lists its first cases as witnesses, and these pin the seeded
    draws family by family."""
    monkeypatch.setattr(spin, "_integer_lifts", lambda factors: {object(): 1})
    res = verify_cover(5, samples=60, seed=3)
    first = {fam: res[fam]["witnesses"][0] for fam in res if fam != "all_passed"
             and res[fam]["witnesses"] and res[fam]["checked"] == 60}
    assert first == {
        "conjugation of [rs]": ("lemma-V", (1, 2, 0, 3, 4), 4, 1),
        "3-cycle relation": ("3cycle", 2, 1, 3),
        "commuting relation": ("commute", 4, 2, 0, 1),
        "section property (a)": ("sec-a", (0, 1, 3, 4, 2), 3, 4),
        "section property (b)": ("sec-b", (1, 2, 0, 3, 4), 0, 1, 2, 4),
        "section property (c)": ("sec-c", (1, 4, 0, 2, 3), 0, 2, 4),
    }
    assert not res["all_passed"] and res["inequality-count flips"]["passed"]

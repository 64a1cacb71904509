"""Exact cyclotomic arithmetic: canonical forms, field axioms, serialization."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tqdha.scalars import (
    MAX_CONDUCTOR,
    MINUS_ONE,
    ONE,
    ZERO,
    ScalarParseError,
    cyclotomic_polynomial,
    euler_phi,
    parse_scalar,
    rational,
    root_of_unity,
    sqrt2,
)


def test_root_of_unity_basics():
    assert root_of_unity(1, 0).is_one()
    assert root_of_unity(2, 1) == MINUS_ONE
    i = root_of_unity(4, 1)
    assert i * i == MINUS_ONE
    assert root_of_unity(8, 2) == i


def test_root_of_unity_multiplicative_order():
    from math import gcd

    for n, k in [(1, 0), (2, 1), (4, 1), (8, 3), (12, 8), (6, 2)]:
        expected = n // gcd(n, k) if k % n else 1
        assert root_of_unity(n, k).multiplicative_order() == expected


def test_sqrt2_squares_to_two():
    s = root_of_unity(8, 1) + root_of_unity(8, 7)
    assert s == sqrt2()
    assert (s * s).as_fraction() == 2


def test_field_arithmetic_examples():
    assert rational(Fraction(1, 2)) + rational(Fraction(1, 3)) == rational(Fraction(5, 6))
    i = root_of_unity(4, 1)
    assert i * i == MINUS_ONE
    z3 = root_of_unity(3, 1)
    assert ONE / z3 == z3 * z3
    assert (z3 * (z3 * z3)).is_one()


def test_equality_reads_the_denominator():
    z12 = root_of_unity(12, 1)
    assert rational(Fraction(1, 2)) != rational(Fraction(1, 3))
    assert z12 * rational(Fraction(1, 2)) != z12 * rational(Fraction(1, 3))
    assert z12 * rational(Fraction(1, 2)) != root_of_unity(24, 2) * rational(Fraction(1, 3))


def test_division_by_zero_is_distinct_error():
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO


def test_rationals_always_live_at_order_one():
    x = root_of_unity(8, 4)  # = -1
    assert x.order == 1
    y = root_of_unity(4, 1) ** 2
    assert y.order == 1 and y.as_fraction() == -1


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(8) == (1, 0, 0, 0, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)
    assert euler_phi(24) == 8


def test_serialization_round_trip():
    samples = [
        ZERO,
        ONE,
        rational(Fraction(-7, 3)),
        sqrt2(),
        root_of_unity(4, 1),
        root_of_unity(3, 1) + rational(5),
        (sqrt2() + rational(3)).inverse(),
        root_of_unity(12, 5),
    ]
    for x in samples:
        assert parse_scalar(x.serialize()) == x


def test_serialization_is_canonical_across_fields():
    # zeta_8^2 and zeta_4 print identically (minimal conductor first)
    assert root_of_unity(8, 2).serialize() == root_of_unity(4, 1).serialize() == "1/1*z4^1"
    assert rational(2).serialize() == "2/1"


def test_parse_rejects_garbage():
    for bad in ["", "z8", "1/0", "2x", "1/2*z8^", "* + *"]:
        with pytest.raises(ScalarParseError):
            parse_scalar(bad)


@pytest.mark.parametrize("bad", [
    "1/1*z0^1",
    "1" * 5000 + "/1",
    "1/" + "7" * 5000,
    "1/1*z" + "7" * 5000 + "^1",
    "1/1*z3^" + "1" * 5000,
    "1/1*z720720^1",
    "1/1*z1000003^1",
    f"1/1*z{MAX_CONDUCTOR + 1}^1",
    "1/1*z97^1 + 1/1*z89^1",  # each order is admitted; their lcm is not
], ids=["order-0", "long-numerator", "long-denominator", "long-order", "long-exponent",
        "z720720", "z1000003", "past-bound", "compositum"])
def test_parse_refuses_bad_orders_and_long_numbers_before_building(bad):
    built = cyclotomic_polynomial.cache_info().currsize
    with pytest.raises(ScalarParseError):
        parse_scalar(bad)
    assert cyclotomic_polynomial.cache_info().currsize == built


def test_parse_admits_every_order_up_to_the_bound():
    assert MAX_CONDUCTOR >= 24
    for text in ["1/1*z24^5", f"1/1*z{MAX_CONDUCTOR}^1", "1/1*z97^1", "1/1*z3^1 + 1/1*z8^1"]:
        x = parse_scalar(text)
        assert (x * x.inverse()).is_one()


# Values with Fraction(a, b) coefficients, b <= 6, on sums of roots of orders
# 3, 4, 8 and 12, whose compositum is Q(zeta_24).
_fractions = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))
_terms = st.lists(st.tuples(_fractions, st.sampled_from([3, 4, 8, 12]), st.integers(0, 23)),
                  max_size=3)
_scalar = st.builds(
    lambda c, terms: sum((rational(a) * root_of_unity(n, k) for a, n, k in terms), rational(c)),
    _fractions,
    _terms,
)


def _assert_canonical(x):
    assert x.den > 0
    assert gcd(x.den, *x.coeffs) == 1
    assert len(x.coeffs) == euler_phi(x.order)
    assert x.order == 1 or any(x.coeffs[1:])  # rationals sit at order 1


@settings(max_examples=60, deadline=None)
@given(_scalar, _scalar, _scalar)
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a
    if not a.is_zero():
        assert (a * a.inverse()).is_one()


@settings(max_examples=60, deadline=None)
@given(_scalar)
def test_canonicalization_idempotent(a):
    r = a.reduced()
    assert r == a
    assert r.reduced().order == r.order
    assert (r.reduced().coeffs, r.reduced().den) == (r.coeffs, r.den)


@settings(max_examples=40, deadline=None)
@given(_scalar, _scalar)
def test_hash_consistent_with_equality(a, b):
    if a == b:
        assert hash(a) == hash(b)


@settings(max_examples=80, deadline=None)
@given(_scalar, _scalar, st.sampled_from([1, 5, 7, 11, 13, 17, 19, 23]))
def test_layout_round_trip_and_inverse(a, b, k):
    assert (a == b) == (a - b).is_zero()
    for x in (a, b, a * b, a + b, a.reduced()):
        _assert_canonical(x)
        text = x.serialize()
        y = parse_scalar(text)
        assert y == x and y.serialize() == text
    # the same value computed in Q(zeta_24): equal, with an equal hash
    lifted = a * root_of_unity(24, k) * root_of_unity(24, -k)
    assert lifted.order in (1, 24)
    _assert_canonical(lifted)
    assert lifted == a and hash(lifted) == hash(a)
    if not a.is_zero():
        assert a * a.inverse() == ONE
        _assert_canonical(a.inverse())

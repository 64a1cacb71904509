"""Exact cyclotomic arithmetic: canonical forms, field axioms, serialization."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tqdha.scalars import (
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


_roots = st.sampled_from([(1, 0), (2, 1), (3, 1), (4, 1), (8, 1), (8, 3), (12, 7)])
_scalar = st.builds(
    lambda nk, a, b: root_of_unity(*nk) * rational(a) + rational(b),
    _roots,
    st.integers(-4, 4),
    st.integers(-4, 4),
)


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
    assert r.reduced().coeffs == r.coeffs


@settings(max_examples=40, deadline=None)
@given(_scalar, _scalar)
def test_hash_consistent_with_equality(a, b):
    if a == b:
        assert hash(a) == hash(b)

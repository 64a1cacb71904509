"""Exact cyclotomic arithmetic: canonical forms, shared units, field axioms,
serialization."""

import copy
import operator
import pickle
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reference import sqrt2
from tqdha.scalars import (
    MAX_CONDUCTOR,
    MINUS_ONE,
    ONE,
    ZERO,
    ScalarParseError,
    _embedding_rows,
    _lift,
    _make,
    _mul,
    _product,
    _sum,
    cyclotomic_polynomial,
    euler_phi,
    parse_scalar,
    rational,
    root_of_unity,
)


def test_root_of_unity_basics():
    assert root_of_unity(1, 0).is_one()
    assert root_of_unity(2, 1) == MINUS_ONE
    i = root_of_unity(4, 1)
    assert i * i == MINUS_ONE
    assert root_of_unity(8, 2) == i


def test_root_of_unity_multiplicative_order():
    for n, k in [(1, 0), (2, 1), (4, 1), (8, 3), (12, 8), (6, 2)]:
        z = root_of_unity(n, k)
        expected = n // gcd(n, k)
        assert [d for d in range(1, n + 1) if (z**d).is_one()][0] == expected


def test_arithmetic_takes_only_scalars():
    # the units too, on both sides: x * ONE and x + ZERO return x before
    # reading an operand, and ONE * x returns x only after reading x's fields
    z = root_of_unity(12, 1)
    for x in (z, ZERO, ONE, MINUS_ONE):
        for other in (0, 1, -1, 3, Fraction(1, 2)):
            for op in (operator.add, operator.sub, operator.mul, operator.truediv):
                with pytest.raises(TypeError):
                    op(x, other)
                with pytest.raises(TypeError):
                    op(other, x)
    for bad in (lambda: ONE * 3, lambda: 3 * ONE, lambda: ZERO + 3,
                lambda: MINUS_ONE * Fraction(1, 2), lambda: z * 1, lambda: z + 0):
        with pytest.raises(TypeError):
            bad()
    assert (ONE == 1) is False and (ONE == Fraction(1)) is False
    assert (ZERO == 0) is False and (MINUS_ONE == -1) is False
    assert ONE != 1
    assert rational(1) == ONE and rational(Fraction(1, 2)) * rational(2) == ONE


@pytest.mark.parametrize("bad", [0.1, 1.0, True, False, "1", None, complex(1, 0)],
                         ids=["float", "integral-float", "true", "false", "str", "none", "complex"])
def test_rational_takes_only_an_int_or_a_fraction(bad):
    # 0.1 is 3602879701896397/36028797018963968 in binary; exact arithmetic
    # must not take it in silently, nor a bool as 0 or 1
    with pytest.raises(TypeError):
        rational(bad)
    assert rational(7) == rational(Fraction(14, 2))


@pytest.mark.parametrize("x", [MINUS_ONE, rational(3), rational(Fraction(1, 2)),
                               rational(2) * root_of_unity(12, 1)],
                         ids=["minus-one", "three", "half", "two-zeta12"])
def test_arithmetic_takes_only_scalars_on_the_direct_paths(x):
    # each operand here takes a direct path of __mul__, __add__ or inverse
    # against a scalar, and must still raise against an int or a Fraction
    for other in (1, -1, 3, Fraction(1, 2)):
        for op in (operator.add, operator.sub, operator.mul, operator.truediv):
            with pytest.raises(TypeError):
                op(x, other)
            with pytest.raises(TypeError):
                op(other, x)


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


@settings(max_examples=80, deadline=None)
@given(_scalar, _scalar, st.sampled_from([1, 5, 7, 11, 13, 17, 19, 23]))
def test_layout_round_trip_and_inverse(a, b, k):
    assert (a == b) == (a - b).is_zero()
    for x in (a, b, a * b, a + b, a.reduced()):
        _assert_canonical(x)
        text = x.serialize()
        y = parse_scalar(text)
        assert y == x and y.serialize() == text
    # the same value computed in Q(zeta_24): equal, with an equal printed form
    lifted = a * root_of_unity(24, k) * root_of_unity(24, -k)
    assert lifted.order in (1, 24)
    _assert_canonical(lifted)
    assert lifted == a and lifted.serialize() == a.serialize()
    if not a.is_zero():
        assert a * a.inverse() == ONE
        _assert_canonical(a.inverse())


# Operands for the direct paths of __mul__, __add__ and inverse: 0, +-1,
# large integers, fractions, roots of unity, and integer and fractional
# combinations of roots (the last two over den 1 and over den > 1).
_big = st.integers(-(10**40), 10**40)
_root = st.builds(root_of_unity, st.sampled_from([3, 4, 6, 8, 12]), st.integers(0, 23))
_int_roots = st.lists(st.tuples(st.integers(-9, 9), _root), min_size=1, max_size=3).map(
    lambda terms: sum((rational(c) * z for c, z in terms), ZERO))
_operand = st.one_of(
    st.sampled_from([ZERO, ONE, MINUS_ONE]),
    st.integers(-3, 3).map(rational),
    _big.map(rational),
    st.builds(Fraction, _big, st.integers(1, 10**12)).map(rational),
    _root,
    _int_roots,
    _scalar,
)


def _lifted(x, n):
    # x's numerators at order n, summed over the rows of _embedding_rows
    rows = _embedding_rows(x.order, n)
    return [sum(c * row[i] for c, row in zip(x.coeffs, rows)) for i in range(euler_phi(n))]


def _reference(op, a, b):
    # op(a, b) by the general route, with no memoized kernel: both operands
    # at the lcm order, the schoolbook product or the sum over da * db,
    # normalized by _make
    n = a.order * b.order // gcd(a.order, b.order)
    x, y = _lifted(a, n), _lifted(b, n)
    if op is operator.mul:
        return _make(n, _mul(n, x, y), a.den * b.den)
    return _make(n, [u * b.den + v * a.den for u, v in zip(x, y)], a.den * b.den)


@settings(max_examples=400, deadline=None)
@given(_operand, _operand)
@example(rational(6), rational(Fraction(1, 4)))
@example(rational(Fraction(3, 4)), rational(Fraction(2, 3)))
@example(rational(Fraction(1, 6)), rational(Fraction(1, 3)))
@example(rational(-4), root_of_unity(12, 5) + root_of_unity(3, 1))
@example(rational(2), rational(Fraction(1, 2)) * root_of_unity(8, 1))
@example(root_of_unity(8, 3), ONE)
@example(ZERO, root_of_unity(4, 1))
@example(root_of_unity(12, 1) * root_of_unity(12, 3), root_of_unity(3, 1))
def test_direct_paths_match_the_general_normalizer(a, b):
    cases = [(a * b, _reference(operator.mul, a, b)), (a + b, _reference(operator.add, a, b)),
             (a - b, _reference(operator.add, a, -b))]
    for got, ref in cases:
        assert (got.order, got.coeffs, got.den) == (ref.order, ref.coeffs, ref.den)
        _assert_canonical(got)
    # the memo returns what the kernels compute afresh
    for cache in (_lift, _product, _sum):
        cache.cache_clear()
    for (got, _), again in zip(cases, (a * b, a + b, a - b)):
        assert (got.order, got.coeffs, got.den) == (again.order, again.coeffs, again.den)
    # equality across orders (a value of Q(zeta_3) may be stored at order 12)
    assert (a == b) == (a - b).is_zero() == (b == a)
    # a product by 1 shares the other operand; +-1 is its own inverse
    if b.is_one() and a.order > 1 and a.den == 1:
        assert a * b is a and b * a is a
    if a.order == 1 and not a.is_zero():
        inv = a.inverse()
        ref = _make(1, [a.den], a.coeffs[0])
        assert (inv.order, inv.coeffs, inv.den) == (ref.order, ref.coeffs, ref.den)
        _assert_canonical(inv)
        assert (inv is a) == (a.den == 1 and abs(a.coeffs[0]) == 1)


_UNITS = (ZERO, ONE, MINUS_ONE)


def _assert_shared_unit(r):
    # a result of value 0, 1 or -1 is the shared object, and is_zero is == 0
    for unit in _UNITS:
        assert (r == unit) == (r is unit), (r, unit)
    assert r.is_zero() == (r == ZERO) and r.is_one() == (r == ONE)


_half = rational(Fraction(1, 2))
_z12 = root_of_unity(12, 1) + root_of_unity(3, 1)


@settings(max_examples=300, deadline=None)
@given(_operand, _operand, st.integers(-3, 3))
@example(rational(Fraction(0, 5)), ONE, 2)
@example(parse_scalar("-0/7"), parse_scalar("3/3"), -1)
@example(_half, _half, 0)
@example(root_of_unity(4, 1), root_of_unity(4, 3), 4)
@example(root_of_unity(2, 1), MINUS_ONE, -2)
@example(_z12, _z12, 1)
@example(root_of_unity(12, 1), root_of_unity(12, 11), 3)
def test_units_are_shared(a, b, k):
    # every route to 0, 1 or -1 returns ZERO, ONE or MINUS_ONE; each result
    # is computed twice, so a memoized product or sum of two values of
    # order > 1 (z12 - z12, zeta_12 * zeta_12^11) is checked on a hit too
    for _ in range(2):
        results = [a, b, a + b, a - b, b - a, a * b, b * a, -a, -b, a.reduced(),
                   parse_scalar(a.serialize()), copy.copy(a), copy.deepcopy(b),
                   pickle.loads(pickle.dumps(a))]
        if a != ZERO or k >= 0:
            results.append(a ** k)
        if a != ZERO:
            results += [a.inverse(), b / a]
        if b != ZERO:
            results.append(a / b)
        for r in results:
            _assert_canonical(r)
            _assert_shared_unit(r)


def test_memoized_kernels_are_bounded():
    for cache in (_lift, _product, _sum):
        assert cache.cache_info().maxsize is not None

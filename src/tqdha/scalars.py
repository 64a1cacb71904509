"""Exact arithmetic in cyclotomic fields Q(zeta_N).

Every scalar in this library lives in some cyclotomic field.  An element of
Q(zeta_N) is stored as integer numerators over one denominator, the layout of
ANTIC's ``nf_elem`` (Hart, *ANTIC*, 2015): ``coeffs`` holds the phi(N)
coefficients of 1, zeta_N, ..., zeta_N^(phi(N)-1), reduced modulo the N-th
cyclotomic polynomial Phi_N, and ``den > 0`` with gcd(den, *coeffs) == 1.
Phi_N is monic, so reduction stays in the integers.  ``_make`` normalizes a
general result once; a result canonical as computed is built directly (proofs
at ``__mul__``): a product or sum of two rationals, cut by one gcd and by none
over den 1, and a nonzero integer times a value of order N > 1 over den 1.
Representatives are unique within a fixed ambient order N.  Elements whose
reduced form is rational are always stored at N = 1, as (num,) over den, and
arithmetic between different ambient orders goes through the compositum
Q(zeta_lcm).  Serialization reduces to the minimal conductor first, so the
printed form of a value does not depend on how it was computed.  ``Fraction``
appears only at the edges: ``rational``, ``as_fraction`` and parsing.

Products of two values of order > 1, sums with an operand of order > 1, and
the lift of a value to a larger order are memoized (``_product``, ``_sum``,
``_lift``): ``lru_cache(maxsize=1024)`` each, keyed on the full canonical
triple (order, coeffs, den) of every operand.  This is safe because a triple
fixes its value and every result is an immutable canonical scalar (or, for
a lift, a tuple), so a hit returns exactly what the kernel would compute
again.  It pays because the same pairs recur: the three seeded Z/6 x Z/6
problems in Q(zeta_12) of the benchmark make 4,468 such products over 135
distinct pairs and 4,541 sums over 134, well inside the bound.  A full
cache of order-24 entries holds about 1.3 MB (``_product``), 1.1 MB
(``_sum``) and 0.45 MB (``_lift``), operands included, measured with
``tracemalloc`` on random numerators of up to three digits (Python 3.11).

Parsing is memoized the same way (``_parse``, ``lru_cache(maxsize=1024)``),
keyed on the string itself, after ``parse_scalar`` has refused every value
that is not a str.  A string fixes its value and the result is an
immutable canonical scalar, so a hit returns what parsing would again; a
string that raises is not kept, so it raises on every call.  The three
seeded Z/6 x Z/6 problems of the benchmark parse 480 strings, 10 of them
distinct.  A full memo holds about 0.1 MB (one-term strings at order 12)
to 0.6 MB (three-term strings at order 24) beyond the strings, which it
keeps alive, measured as above.

The values 0, 1 and -1 exist once, as ``ZERO``, ``ONE`` and ``MINUS_ONE``.
Proof: a value has one canonical form within an order, and a rational one
lives at order 1, so 0, 1 and -1 each have exactly one form, (1, (p,), 1).
Only this module calls ``CyclotomicScalar(...)``.  Every call that can build
an order-1 value (the rational branches of ``__add__`` and ``__mul__``,
``__neg__``, ``_make`` and ``rational``) returns the shared object for those
forms instead; the other calls build values of order > 1, which are not
rational.  ``__reduce__`` sends a copy or an unpickled scalar through
``_make``.  So ``x is ZERO`` decides ``x == 0``, and ``is_zero`` and
``linalg.bump`` test exactly that, as ``is_one`` tests ``x is ONE``.
Three exits take no arithmetic at all: ``x * ONE``, ``ONE * x`` and
``x + ZERO`` return ``x``.  Most products and sums of the solver, checker
and oracle on +-1 data have a result of 0 or +-1 (72 % of the products and
98 % of the sums of the benchmark's twisted S4 kappa stream), and they
allocate nothing.

Arithmetic takes scalars only: ``+ - * /`` with an ``int`` or a ``Fraction``
on either side raises TypeError (the operators return ``NotImplemented``),
and ``==`` with one is False.  An int or a Fraction becomes a scalar
through ``rational``, the one constructor from Q, which refuses every other
type (a float, whose binary value is not the decimal it prints, and a bool
among them).

Parsing refuses a string whose terms need a field order above
``MAX_CONDUCTOR``, before any table for that order is built.

The tables of a field order (``euler_phi``, ``divisors``,
``cyclotomic_polynomial``, ``_tail``, ``_embedding_rows``) are memoized
on their int arguments, with no bound: a run meets few field orders, each
entry is an int or a small tuple of ints, and arithmetic at an order reads
them on every reduction or lift.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

# The largest field order parse_scalar admits: the lcm of the root orders of
# one string (problems.load_problem bounds the lcm over a whole problem the
# same way).  Building Phi_N costs time polynomial in N (Phi_720720 alone takes
# over a minute), and inverting a dense element of Q(zeta_N) takes about
# phi(N)^3 / 2 integer products: 2.7 s at N = 251 and 69 s at N = 997 (2-core
# box, Python 3.11).  Every order the library uses is at most 24; at 100,
# parsing any element and inverting it take about 0.1 s.
MAX_CONDUCTOR = 100


class ScalarParseError(ValueError):
    """A scalar string does not match the exchange format."""


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    """phi(n), memoized on n (module docstring)."""
    return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


@lru_cache(maxsize=None)
def divisors(n: int) -> tuple[int, ...]:
    """The divisors of n, ascending, memoized on n (module docstring)."""
    return tuple(d for d in range(1, n + 1) if n % d == 0)


def _int_poly_divmod(num: list[int], den: tuple[int, ...]) -> tuple[list[int], list[int]]:
    # den must be monic
    num = list(num)
    dd = len(den) - 1
    quot = [0] * (len(num) - dd)
    for i in range(len(num) - dd - 1, -1, -1):
        c = num[i + dd]
        if c:
            quot[i] = c
            for j, dj in enumerate(den):
                num[i + j] -= c * dj
    return quot, num[:dd]


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Integer coefficients of Phi_n, constant term first, monic; memoized
    on n (module docstring)."""
    if n == 1:
        return (-1, 1)
    poly = [-1] + [0] * (n - 1) + [1]  # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            poly, rem = _int_poly_divmod(poly, cyclotomic_polynomial(d))
            assert not any(rem)
    return tuple(poly)


@lru_cache(maxsize=None)
def _tail(n: int) -> tuple[tuple[int, int], ...]:
    """x^phi(n) = sum of c * x^i over these (i, c), modulo Phi_n; memoized
    on n (module docstring)."""
    mod = cyclotomic_polynomial(n)
    return tuple((i, -c) for i, c in enumerate(mod[:-1]) if c)


def _reduce(n: int, poly: list[int]) -> list[int]:
    """The integer polynomial poly, of at least phi(n) coefficients, modulo
    Phi_n as phi(n) coefficients.

    Works in place: x^n = 1 folds the terms of degree n and up down first,
    then long division by the monic Phi_n, using only its nonzero terms."""
    phi = euler_phi(n)
    if len(poly) > n:
        for j in range(n, len(poly)):
            poly[j % n] += poly[j]
        del poly[n:]
    tail = _tail(n)
    for j in range(len(poly) - 1, phi - 1, -1):
        c = poly[j]
        if c:
            base = j - phi
            for i, t in tail:
                poly[base + i] += c * t
    del poly[phi:]
    return poly


def _spread(n: int, terms) -> list[int]:
    # the sum of c * zeta_n^e over the (e, c) in terms, as reduced numerators
    poly = [0] * n
    for e, c in terms:
        poly[e % n] += c
    return _reduce(n, poly)


def _mul(n: int, a, b) -> list[int]:
    # the product of two numerator rows at order n
    prod = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                prod[j] += x * y
    return _reduce(n, prod)


def _galois(n: int, a, u: int) -> list[int]:
    # sigma_u: zeta_n -> zeta_n^u on a numerator row, for u prime to n
    return _spread(n, ((k * u, c) for k, c in enumerate(a) if c))


@lru_cache(maxsize=None)
def _embedding_rows(m: int, n: int) -> tuple[tuple[int, ...], ...]:
    """zeta_m^k as numerators in Q(zeta_n) for k < phi(m); requires m | n.
    Memoized on (m, n) (module docstring)."""
    step = n // m
    return tuple(tuple(_spread(n, [(k * step, 1)])) for k in range(euler_phi(m)))


def _solve_int(rows, target):
    """(nums, scale) with sum_k nums[k] * rows[k] == scale * target, or None
    if target is not in the rational span of the rows, which must be linearly
    independent.  Fraction-free Gauss-Jordan: an equation is combined with
    the pivot one by cross-multiplication and divided by its content."""
    m = len(rows)
    eqs = [[row[i] for row in rows] + [t] for i, t in enumerate(target)]
    for c in range(m):
        p = next(i for i in range(c, len(eqs)) if eqs[i][c])
        eqs[c], eqs[p] = eqs[p], eqs[c]
        pv = eqs[c]
        for i, eq in enumerate(eqs):
            f = eq[c]
            if i != c and f:
                new = [pv[c] * x - f * y for x, y in zip(eq, pv)]
                g = gcd(*new)
                eqs[i] = [x // g for x in new] if g > 1 else new
    if any(eq[m] for eq in eqs[m:]):
        return None
    scale = 1
    for k in range(m):
        scale = lcm(scale, abs(eqs[k][k]))
    return [eqs[k][m] * (scale // eqs[k][k]) for k in range(m)], scale


class CyclotomicScalar:
    """An element sum(coeffs[k] * zeta_order^k) / den of Q(zeta_order).

    Instances are immutable and canonical within their order: coeffs are
    reduced modulo Phi_order, den > 0 and gcd(den, *coeffs) == 1.  Rationals
    are always stored at order 1, so the representation of a rational value
    never depends on the field it was computed in.  The denominator does not
    depend on the field either: it is the least d with d * self in
    Z[zeta_order], and Z[zeta_m] is Z[zeta_n] cut down to Q(zeta_m).
    """

    __slots__ = ("order", "coeffs", "den")

    def __init__(self, order: int, coeffs: tuple[int, ...], den: int):
        self.order = order
        self.coeffs = coeffs
        self.den = den

    # -- predicates ----------------------------------------------------

    def is_zero(self) -> bool:
        """self == 0; ZERO is the only scalar of value 0 (module docstring)."""
        return self is ZERO

    def is_one(self) -> bool:
        return self is ONE

    def as_fraction(self) -> Fraction:
        if self.order != 1:
            raise ValueError(f"not a rational scalar: {self.serialize()}")
        return Fraction(self.coeffs[0], self.den)

    def __bool__(self) -> bool:
        return self is not ZERO

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        if other is ZERO:
            return self
        try:
            n, m, da, db = self.order, other.order, self.den, other.den
        except AttributeError:
            return NotImplemented
        if n == 1 == m:
            a, b = self.coeffs[0], other.coeffs[0]
            p, d = (a + b, da) if da == db else (a * db + b * da, da * db)
            if d != 1:
                g = gcd(p, d)
                p, d = p // g, d // g
            if d == 1 and -1 <= p <= 1:
                return _UNITS[p]
            return CyclotomicScalar(1, (p,), d)
        return _sum(n, self.coeffs, da, m, other.coeffs, db)

    def __neg__(self):
        if self.den == 1 and self.order == 1 and -1 <= self.coeffs[0] <= 1:
            return _UNITS[-self.coeffs[0]]
        return CyclotomicScalar(self.order, tuple([-c for c in self.coeffs]), self.den)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        """self * other.  Built directly, without ``_make``, for

        - two rationals: p/d = (a b)/(da db) cut by g = gcd(p, d) > 0 (none
          when d = 1), so d/g > 0 and gcd(p/g, d/g) = 1; ``__add__`` does
          the same for p/d = (a db + b da)/(da db), or (a + b)/da;
        - an integer c != 0 times x of order n > 1 over den 1: c * x.coeffs
          are phi(n) reduced numerators, den 1 is prime to them, and one of
          c * x.coeffs[1:] is nonzero as one of x's is (x is not rational),
          so the value is not rational either.
        A rational result 0 or +-1 is the shared unit (module docstring).
        ``x * ONE`` is x before any field is read; ``ONE * x`` is x once
        x's fields are read, so a non-scalar operand still raises (``ONE *
        3`` too).  So the second case never meets c = 1."""
        if other is ONE:
            return self
        try:
            n, m, da, db = self.order, other.order, self.den, other.den
        except AttributeError:
            return NotImplemented
        if self is ONE:
            return other
        if n == 1 == m:
            p, d = self.coeffs[0] * other.coeffs[0], da * db
            if d != 1:
                g = gcd(p, d)
                p, d = p // g, d // g
            if d == 1 and -1 <= p <= 1:
                return _UNITS[p]
            return CyclotomicScalar(1, (p,), d)
        if n == 1 or m == 1:
            (c,), x = (self.coeffs, other) if n == 1 else (other.coeffs, self)
            if da == db == 1 and c:
                return CyclotomicScalar(x.order, tuple([c * v for v in x.coeffs]), 1)
            return _make(x.order, [c * v for v in x.coeffs], da * db)
        return _product(n, self.coeffs, da, m, other.coeffs, db)

    def inverse(self) -> "CyclotomicScalar":
        """1 / self, in integers: for numerators a, 1/a = conj(a) / (a conj(a)).

        b = a conj(a) is fixed by complex conjugation, so it lies in the real
        subfield, and the product of b's conjugates under the units u with
        1 < u < n/2 (one from each pair +-u) is c with b * c = N(a), a
        nonzero integer.  So 1/a = conj(a) * c / N(a).  A root of unity has
        b = 1 and costs one product.  +-1 is its own inverse, returned as is."""
        if self.is_zero():
            raise ZeroDivisionError("division by zero in Q(zeta_N)")
        n = self.order
        if n == 1:
            a, d = self.coeffs[0], self.den
            return self if d == 1 == abs(a) else _make(1, [d], a)
        a = self.coeffs
        adj = _galois(n, a, -1)
        norm = _mul(n, a, adj)
        if any(norm[1:]):
            rest = [1]
            for u in range(2, (n + 1) // 2):
                if gcd(u, n) == 1:
                    rest = _mul(n, rest, _galois(n, norm, u))
            adj = _mul(n, adj, rest)
            norm = _mul(n, norm, rest)
        return _make(n, [self.den * c for c in adj], norm[0])

    def __truediv__(self, other):
        if not isinstance(other, CyclotomicScalar):
            return NotImplemented
        return self * other.inverse()

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        result = ONE
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    # -- comparison and canonicalization --------------------------------

    def __eq__(self, other):
        if not isinstance(other, CyclotomicScalar):
            return NotImplemented
        if self.den != other.den:
            return False
        if self.order == other.order:
            return self.coeffs == other.coeffs
        if self.order == 1 or other.order == 1:
            return False  # only order 1 holds rationals
        n = lcm(self.order, other.order)
        return _lift(self.order, self.coeffs, n) == _lift(other.order, other.coeffs, n)

    def reduced(self) -> "CyclotomicScalar":
        """Rewrite at the minimal conductor (smallest d with self in Q(zeta_d)).

        Each proper divisor d > 1 is tried in increasing order by solving for
        self in the integer rows of _embedding_rows(d, order); an element
        stored at an order above 1 is never rational, so d = 1 is skipped."""
        for d in divisors(self.order)[1:-1]:
            sol = _solve_int(_embedding_rows(d, self.order), self.coeffs)
            if sol is not None:
                nums, scale = sol
                return _make(d, nums, self.den * scale)
        return self

    # -- serialization ---------------------------------------------------

    def serialize(self) -> str:
        r = self.reduced()
        if r.order == 1:
            return f"{r.coeffs[0]}/{r.den}"
        terms = []
        for k, c in enumerate(r.coeffs):
            if c:
                g = gcd(c, r.den)
                terms.append(f"{c // g}/{r.den // g}*z{r.order}^{k}")
        return " + ".join(terms)

    def __repr__(self):
        return f"<{self.serialize()}>"

    def __reduce__(self):
        # copy, deepcopy and pickle rebuild through _make, which keeps 0, 1
        # and -1 shared
        return _make, (self.order, list(self.coeffs), self.den)


def _make(order: int, coeffs: list[int], den: int) -> CyclotomicScalar:
    """The canonical element sum(coeffs[k] * zeta_order^k) / den, from phi(order)
    reduced numerators and a nonzero den of either sign; 0, 1 and -1 are
    the shared units."""
    if den != 1:
        g = gcd(den, *coeffs)
        if den < 0:
            g = -g
        if g != 1:
            coeffs = [c // g for c in coeffs]
            den //= g
    if order > 1 and any(coeffs[1:]):
        return CyclotomicScalar(order, tuple(coeffs), den)
    p = coeffs[0]
    if den == 1 and -1 <= p <= 1:
        return _UNITS[p]
    return CyclotomicScalar(1, (p,), den)


# The memoized kernels; the module docstring gives their keys and bounds.
@lru_cache(maxsize=1024)
def _lift(order: int, coeffs: tuple[int, ...], n: int) -> tuple[int, ...]:
    """The numerators of sum(coeffs[k] * zeta_order^k) in Q(zeta_n), over
    the same denominator; order | n."""
    if order == n:
        return coeffs
    rows = _embedding_rows(order, n)
    out = [0] * len(rows[0])
    for c, row in zip(coeffs, rows):
        if c:
            for i, r in enumerate(row):
                out[i] += c * r
    return tuple(out)


@lru_cache(maxsize=1024)
def _product(n: int, a: tuple[int, ...], da: int, m: int, b: tuple[int, ...], db: int) -> CyclotomicScalar:
    """(a / da at order n) * (b / db at order m), in Q(zeta_lcm(n, m))."""
    if n != m:
        k = lcm(n, m)
        n, a, b = k, _lift(n, a, k), _lift(m, b, k)
    return _make(n, _mul(n, a, b), da * db)


@lru_cache(maxsize=1024)
def _sum(n: int, a: tuple[int, ...], da: int, m: int, b: tuple[int, ...], db: int) -> CyclotomicScalar:
    """(a / da at order n) + (b / db at order m), in Q(zeta_lcm(n, m))."""
    if n != m:
        k = lcm(n, m)
        n, a, b = k, _lift(n, a, k), _lift(m, b, k)
    if da == db:
        return _make(n, [x + y for x, y in zip(a, b)], da)
    return _make(n, [x * db + y * da for x, y in zip(a, b)], da * db)


def rational(x) -> CyclotomicScalar:
    """The rational number x, an int or a Fraction, as a scalar.

    Any other type raises TypeError: a float, whose exact binary value is
    not the decimal it prints, and a bool, which is not a number here."""
    if isinstance(x, bool) or not isinstance(x, (int, Fraction)):
        raise TypeError(f"rational takes an int or a Fraction, not {type(x).__name__}")
    p, d = x.numerator, x.denominator
    if d == 1 and -1 <= p <= 1:
        return _UNITS[p]
    return CyclotomicScalar(1, (p,), d)


ZERO = CyclotomicScalar(1, (0,), 1)
ONE = CyclotomicScalar(1, (1,), 1)
MINUS_ONE = CyclotomicScalar(1, (-1,), 1)
# the shared unit of value p, for p in (0, 1, -1): _UNITS[-1] is MINUS_ONE
_UNITS = (ZERO, ONE, MINUS_ONE)


def root_of_unity(n: int, k: int) -> CyclotomicScalar:
    """zeta_n^k in canonical form (stored at its exact conductor)."""
    if n < 1:
        raise ValueError("order must be a positive integer")
    k %= n
    m = n // gcd(n, k)
    if m == 1:
        return ONE
    return _make(m, _spread(m, [(k * m // n, 1)]), 1)


_TERM_RE = re.compile(r"^([+-]?\d+)(?:/(\d+))?(?:\*z(\d+)\^(\d+))?$")


def parse_scalar(text: str) -> CyclotomicScalar:
    """Parse the exchange format: 'a/b' or 'a_0/b_0*zN^k0 + a_1/b_1*zN^k1 + ...'.

    Every malformed string raises ScalarParseError: a value that is not a
    str (an unhashable one among them, refused before the memo sees it), a
    bad term, a zero denominator, a root order of 0, a number past Python's
    limit on digits, or terms whose orders have an lcm above MAX_CONDUCTOR.
    The orders are checked before any root is built.  The work is done
    once per distinct string, in the memo ``_parse`` (module docstring):
    equal strings give equal values (one shared object while the string is
    in the memo), and a string that raises raises again."""
    if not isinstance(text, str):
        raise ScalarParseError(f"expected a scalar string, got {text!r}")
    return _parse(text)


@lru_cache(maxsize=1024)
def _parse(text: str) -> CyclotomicScalar:
    """``parse_scalar`` of a str; lru_cache keeps no call that raised."""
    s = text.strip()
    if not s:
        raise ScalarParseError("empty scalar string")
    terms = []
    conductor = 1
    for raw in s.split("+"):
        term = raw.strip()
        if not term:
            raise ScalarParseError(f"malformed scalar {text!r}")
        m = _TERM_RE.match(term)
        if not m:
            raise ScalarParseError(f"malformed scalar term {term!r} in {text!r}")
        try:
            num, den, order, k = (int(g) if g else d for g, d in zip(m.groups(), (0, 1, None, 0)))
        except ValueError as e:
            raise ScalarParseError(f"number too long in scalar term {term[:40]!r}...") from e
        if den == 0:
            raise ScalarParseError(f"zero denominator in {term!r}")
        if order == 0:
            raise ScalarParseError(f"root order 0 in {term!r}")
        conductor = lcm(conductor, order or 1)
        if conductor > MAX_CONDUCTOR:
            raise ScalarParseError(
                f"scalar needs a field order above MAX_CONDUCTOR = {MAX_CONDUCTOR}: {text[:80]!r}")
        terms.append((num, den, order, k))
    total = ZERO
    for num, den, order, k in terms:
        coef = rational(Fraction(num, den))
        if order:
            coef = coef * root_of_unity(order, k)
        total = total + coef
    return total

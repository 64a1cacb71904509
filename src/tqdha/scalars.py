"""Exact arithmetic in cyclotomic fields Q(zeta_N).

Every scalar in this library lives in some cyclotomic field.  An element is
stored as a polynomial in zeta_N with rational coefficients, reduced modulo
the N-th cyclotomic polynomial Phi_N, so representatives are unique within a
fixed ambient order N.  Elements whose reduced form is rational are always
stored at N = 1, and arithmetic between different ambient orders goes through
the compositum Q(zeta_lcm).  Serialization reduces to the minimal conductor
first, so the printed form of a value does not depend on how it was computed.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from math import gcd

_F0 = Fraction(0)
_F1 = Fraction(1)


class ScalarParseError(ValueError):
    """A scalar string does not match the exchange format."""


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


@lru_cache(maxsize=None)
def divisors(n: int) -> tuple[int, ...]:
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
    """Integer coefficients of Phi_n, constant term first, monic."""
    if n == 1:
        return (-1, 1)
    poly = [-1] + [0] * (n - 1) + [1]  # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            poly, rem = _int_poly_divmod(poly, cyclotomic_polynomial(d))
            assert not any(rem)
    return tuple(poly)


@lru_cache(maxsize=None)
def _neg_tail(n: int) -> tuple[Fraction, ...]:
    # x^phi(n) expressed in the basis 1, x, ..., x^(phi-1) modulo Phi_n
    phi = euler_phi(n)
    mod = cyclotomic_polynomial(n)
    return tuple(Fraction(-c) for c in mod[:phi])


@lru_cache(maxsize=None)
def _x_power(n: int, e: int) -> tuple[Fraction, ...]:
    # x^e mod Phi_n as a dense coefficient row of length phi(n)
    phi = euler_phi(n)
    tail = _neg_tail(n)
    vec = [_F1] + [_F0] * (phi - 1)
    for _ in range(e):
        top = vec[phi - 1]
        vec = [_F0] + vec[:-1]
        if top:
            vec = [a + top * b for a, b in zip(vec, tail)]
    return tuple(vec)


def _reduce_mod(n: int, coeffs: list[Fraction]) -> list[Fraction]:
    phi = euler_phi(n)
    if len(coeffs) < phi:
        return list(coeffs) + [_F0] * (phi - len(coeffs))
    out = list(coeffs[:phi])
    for j in range(phi, len(coeffs)):
        c = coeffs[j]
        if c:
            row = _x_power(n, j)
            for k in range(phi):
                if row[k]:
                    out[k] += c * row[k]
    return out


@lru_cache(maxsize=None)
def _embedding_rows(m: int, n: int) -> tuple[tuple[Fraction, ...], ...]:
    # zeta_m^k as elements of Q(zeta_n) for k < phi(m); requires m | n
    step = n // m
    return tuple(_x_power(n, (k * step) % n) for k in range(euler_phi(m)))


def _poly_divmod_frac(num: list[Fraction], den: list[Fraction]):
    num = list(num)
    while num and not num[-1]:
        num.pop()
    dd = len(den) - 1
    lead = den[dd]
    quot = [_F0] * max(0, len(num) - dd)
    for i in range(len(num) - dd - 1, -1, -1):
        c = num[i + dd] / lead
        if c:
            quot[i] = c
            for j, dj in enumerate(den):
                num[i + j] -= c * dj
    rem = num[:dd]
    while rem and not rem[-1]:
        rem.pop()
    return quot, rem


def _solve_exact(columns: list[tuple[Fraction, ...]], target: list[Fraction]):
    """Solve sum_j x_j * columns[j] = target over Q; None if inconsistent."""
    nrows = len(target)
    ncols = len(columns)
    aug = [[columns[j][i] for j in range(ncols)] + [target[i]] for i in range(nrows)]
    piv_cols = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if aug[i][c]), None)
        if pr is None:
            continue
        aug[r], aug[pr] = aug[pr], aug[r]
        pv = aug[r][c]
        aug[r] = [v / pv for v in aug[r]]
        for i in range(nrows):
            if i != r and aug[i][c]:
                f = aug[i][c]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[r])]
        piv_cols.append(c)
        r += 1
        if r == nrows:
            break
    for i in range(r, nrows):
        if aug[i][ncols]:
            return None
    sol = [_F0] * ncols
    for i, c in enumerate(piv_cols):
        sol[c] = aug[i][ncols]
    # free variables (if any) stay zero; verify consistency for them
    for i in range(nrows):
        acc = _F0
        for j in range(ncols):
            if sol[j]:
                acc += sol[j] * columns[j][i]
        if acc != target[i]:
            return None
    return sol


class CyclotomicScalar:
    """An element of Q(zeta_N), canonically reduced modulo Phi_N.

    Instances are immutable.  Rationals are always stored at order 1, so the
    representation of a rational value never depends on the field it was
    computed in.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: tuple[Fraction, ...]):
        self.order = order
        self.coeffs = coeffs

    # -- constructors -------------------------------------------------

    @staticmethod
    def from_rational(x) -> "CyclotomicScalar":
        return CyclotomicScalar(1, (Fraction(x),))

    # -- predicates ----------------------------------------------------

    def is_zero(self) -> bool:
        return self.order == 1 and not self.coeffs[0]

    def is_one(self) -> bool:
        return self.order == 1 and self.coeffs[0] == 1

    def as_fraction(self) -> Fraction:
        if self.order != 1:
            raise ValueError(f"not a rational scalar: {self.serialize()}")
        return self.coeffs[0]

    def __bool__(self) -> bool:
        return not self.is_zero()

    # -- arithmetic ----------------------------------------------------

    def _dense_at(self, n: int) -> list[Fraction]:
        if self.order == n:
            return list(self.coeffs)
        if self.order == 1:
            out = [_F0] * euler_phi(n)
            out[0] = self.coeffs[0]
            return out
        rows = _embedding_rows(self.order, n)
        out = [_F0] * euler_phi(n)
        for k, c in enumerate(self.coeffs):
            if c:
                row = rows[k]
                for i in range(len(out)):
                    if row[i]:
                        out[i] += c * row[i]
        return out

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.order == other.order:
            if self.order == 1:
                return _make_rational(self.coeffs[0] + other.coeffs[0])
            return _make(self.order, [a + b for a, b in zip(self.coeffs, other.coeffs)])
        n = _lcm(self.order, other.order)
        a = self._dense_at(n)
        b = other._dense_at(n)
        return _make(n, [x + y for x, y in zip(a, b)])

    __radd__ = __add__

    def __neg__(self):
        return CyclotomicScalar(self.order, tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.order == 1:
            c = self.coeffs[0]
            if other.order == 1:
                return _make_rational(c * other.coeffs[0])
            if not c:
                return ZERO
            return CyclotomicScalar(other.order, tuple(c * x for x in other.coeffs))
        if other.order == 1:
            c = other.coeffs[0]
            if not c:
                return ZERO
            return CyclotomicScalar(self.order, tuple(c * x for x in self.coeffs))
        if self.order == other.order:
            n = self.order
            a, b = self.coeffs, other.coeffs
            phi = len(a)
            prod = [_F0] * (2 * phi - 1)
            for i, ai in enumerate(a):
                if ai:
                    for j, bj in enumerate(b):
                        if bj:
                            prod[i + j] += ai * bj
            return _make(n, _reduce_mod(n, prod))
        n = _lcm(self.order, other.order)
        return _make(n, _reduce_mod(n, _conv(self._dense_at(n), other._dense_at(n))))

    __rmul__ = __mul__

    def inverse(self) -> "CyclotomicScalar":
        if self.is_zero():
            raise ZeroDivisionError("division by zero in Q(zeta_N)")
        if self.order == 1:
            return _make_rational(1 / self.coeffs[0])
        n = self.order
        mod = [Fraction(c) for c in cyclotomic_polynomial(n)]
        # extended Euclid: find t with t*self == gcd mod Phi_n; Phi_n is
        # irreducible over Q, so the gcd is a nonzero constant
        r_prev, r_cur = mod, [c for c in self.coeffs]
        while r_cur and not r_cur[-1]:
            r_cur.pop()
        t_prev, t_cur = [_F0], [_F1]
        while len(r_cur) > 1:
            q, rem = _poly_divmod_frac(r_prev, r_cur)
            t_next = _poly_sub(t_prev, _poly_mul(q, t_cur))
            r_prev, r_cur = r_cur, rem
            t_prev, t_cur = t_cur, t_next
        if not r_cur:
            raise ArithmeticError("gcd with irreducible modulus collapsed")
        g = r_cur[0]
        inv = [c / g for c in t_cur]
        return _make(n, _reduce_mod(n, inv))

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inverse()

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
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.order == other.order:
            return self.coeffs == other.coeffs
        n = _lcm(self.order, other.order)
        return self._dense_at(n) == other._dense_at(n)

    def __hash__(self):
        r = self.reduced()
        return hash((r.order, r.coeffs))

    def reduced(self) -> "CyclotomicScalar":
        """Rewrite at the minimal conductor (smallest d with self in Q(zeta_d))."""
        if self.order == 1:
            return self
        target = list(self.coeffs)
        for d in divisors(self.order):
            if d == self.order:
                break
            cols = list(_embedding_rows(d, self.order))
            sol = _solve_exact(cols, target)
            if sol is not None:
                return _make(d, sol)
        return self

    def multiplicative_order(self):
        """Order of self in Q(zeta_N)^x, or None if not a root of unity."""
        x = self
        for k in range(1, 2 * self.order + 3):
            if x.is_one():
                return k
            x = x * self
        return None

    # -- serialization ---------------------------------------------------

    def serialize(self) -> str:
        r = self.reduced()
        if r.order == 1:
            c = r.coeffs[0]
            return f"{c.numerator}/{c.denominator}"
        terms = []
        for k, c in enumerate(r.coeffs):
            if c:
                terms.append(f"{c.numerator}/{c.denominator}*z{r.order}^{k}")
        return " + ".join(terms)

    def __repr__(self):
        return f"<{self.serialize()}>"


def _coerce(x):
    if isinstance(x, CyclotomicScalar):
        return x
    if isinstance(x, (int, Fraction)):
        return CyclotomicScalar.from_rational(x)
    return NotImplemented


def _lcm(a: int, b: int) -> int:
    return a * b // gcd(a, b)


def _conv(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    prod = [_F0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    prod[i + j] += ai * bj
    return prod


def _poly_mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    if not a or not b:
        return []
    return _conv(a, b)


def _poly_sub(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    n = max(len(a), len(b))
    a = list(a) + [_F0] * (n - len(a))
    b = list(b) + [_F0] * (n - len(b))
    out = [x - y for x, y in zip(a, b)]
    while out and not out[-1]:
        out.pop()
    return out


def _make_rational(c: Fraction) -> CyclotomicScalar:
    return CyclotomicScalar(1, (c,))


def _make(order: int, coeffs: list[Fraction]) -> CyclotomicScalar:
    phi = euler_phi(order)
    if len(coeffs) != phi:
        coeffs = _reduce_mod(order, list(coeffs))
    if order > 1 and not any(coeffs[1:]):
        return CyclotomicScalar(1, (coeffs[0],))
    return CyclotomicScalar(order, tuple(coeffs))


ZERO = CyclotomicScalar.from_rational(0)
ONE = CyclotomicScalar.from_rational(1)
MINUS_ONE = CyclotomicScalar.from_rational(-1)


def rational(x) -> CyclotomicScalar:
    """The rational number x as a scalar."""
    return CyclotomicScalar.from_rational(x)


def root_of_unity(n: int, k: int) -> CyclotomicScalar:
    """zeta_n^k in canonical form (stored at its exact conductor)."""
    if n < 1:
        raise ValueError("order must be a positive integer")
    k %= n
    m = n // gcd(n, k)
    kk = k * m // n
    if m == 1:
        return ONE
    return _make(m, list(_x_power(m, kk)))


def sqrt2() -> CyclotomicScalar:
    """sqrt(2) = zeta_8 + zeta_8^-1 as an element of Q(zeta_8)."""
    return root_of_unity(8, 1) + root_of_unity(8, 7)


_TERM_RE = re.compile(r"^([+-]?\d+)(?:/(\d+))?(?:\*z(\d+)\^(\d+))?$")


def parse_scalar(text: str) -> CyclotomicScalar:
    """Parse the exchange format: 'a/b' or 'a_0/b_0*zN^k0 + a_1/b_1*zN^k1 + ...'."""
    if not isinstance(text, str):
        raise ScalarParseError(f"expected a scalar string, got {text!r}")
    s = text.strip()
    if not s:
        raise ScalarParseError("empty scalar string")
    total = ZERO
    for raw in s.split("+"):
        term = raw.strip()
        if not term:
            raise ScalarParseError(f"malformed scalar {text!r}")
        m = _TERM_RE.match(term)
        if not m:
            raise ScalarParseError(f"malformed scalar term {term!r} in {text!r}")
        num = int(m.group(1))
        den = int(m.group(2)) if m.group(2) else 1
        if den == 0:
            raise ScalarParseError(f"zero denominator in {term!r}")
        coef = rational(Fraction(num, den))
        if m.group(3):
            coef = coef * root_of_unity(int(m.group(3)), int(m.group(4)))
        total = total + coef
    return total

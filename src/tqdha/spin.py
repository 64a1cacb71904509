"""The Schur covering group T_n of S_n realized inside an exact Clifford
algebra, its distinguished transposition lifts, the cycle-normal-form section
u_sigma, and the resulting nontrivial 2-cocycle on S_n with values +-1.

The concrete model: generators e_1..e_n with e_i^2 = 1 and e_i e_j = -e_j e_i,
coefficients in Q(zeta_8) so that sqrt(2) is available.  The generator t_r of
the cover maps to (e_r - e_{r+1})/sqrt(2) and the central element z to the
scalar -1.  Conjugation by a lifted permutation sends e_i to
(-1)^sign(sigma) e_sigma(i), which is what makes every relation of the cover
mechanically checkable; verify_cover exercises all of them.  spin_cocycle
computes its table from the integer multiples sqrt(2)^k u_sigma instead, and
the Q(zeta_8) model stays as the reference that the tests compare it with.

Indices r, s here are 0-based positions into {0..n-1}; 1-based names
appear only in serialized output.
"""

from __future__ import annotations

import itertools
import random
from functools import lru_cache

from .groups import (
    Cocycle2,
    perm_compose,
    perm_cycles,
    perm_inverse,
    perm_sign,
    symmetric_group,
)
from .linalg import SparseSum, bump
from .scalars import MINUS_ONE, ONE, ZERO, CyclotomicScalar, rational, root_of_unity


class CliffordElement(SparseSum):
    """Finite sum of blades e_S (S a sorted index tuple) with cyclotomic
    coefficients; e_i^2 = 1 and distinct generators anticommute."""

    __slots__ = ("n",)

    def __init__(self, n: int, coeffs=None):
        self.n = n
        super().__init__(coeffs)

    @staticmethod
    def scalar(n: int, value) -> "CliffordElement":
        v = value if isinstance(value, CyclotomicScalar) else rational(value)
        return CliffordElement(n, {(): v})

    @staticmethod
    def generator(n: int, i: int) -> "CliffordElement":
        return CliffordElement(n, {(i,): ONE})

    def scalar_part(self):
        """The scalar c if self == c * 1, else None."""
        if not self.coeffs:
            return ZERO
        if len(self.coeffs) == 1 and () in self.coeffs:
            return self.coeffs[()]
        return None

    def __repr__(self):
        if not self.coeffs:
            return "<0>"
        parts = []
        for S, c in sorted(self.coeffs.items()):
            blade = "e" + "".join(str(i + 1) for i in S) if S else "1"
            parts.append(f"({c.serialize()}){blade}")
        return "<" + " + ".join(parts) + ">"


@lru_cache(maxsize=None)
def _blade_mul(S: tuple, T: tuple):
    """e_S e_T = sign * e_(S xor T); sign counts anticommutations, the pairs
    s in S, t in T with s > t.  Cached: rank n has only 4^n blade pairs."""
    inv = sum(s > t for s in S for t in T)
    return -1 if inv & 1 else 1, tuple(sorted(set(S).symmetric_difference(T)))


def clifford_multiply(x: CliffordElement, y: CliffordElement) -> CliffordElement:
    if x.n != y.n:
        raise ValueError("operands live in Clifford algebras of different rank")
    out: dict = {}
    for S, cs in x.coeffs.items():
        for T, ct in y.coeffs.items():
            sign, blade = _blade_mul(S, T)
            bump(out, blade, cs * ct if sign > 0 else -(cs * ct))
    return x._like(out)


@lru_cache(maxsize=None)
def _inv_sqrt2() -> CyclotomicScalar:
    # 1/sqrt(2) = (zeta_8 - zeta_8^3) / 2
    return (root_of_unity(8, 1) + root_of_unity(8, 7)) * rational(1) / rational(2)


def transposition_lift(r: int, s: int, n: int) -> CliffordElement:
    """The distinguished lift [rs] = (e_r - e_s)/sqrt(2) of the transposition
    (r s); the defining recursion [rs] = t_r [r+1 s] t_r z (r < s-1) and
    [rs] = [sr] z (r > s) collapses to this closed form, which verify_cover
    checks against the recursion itself."""
    return _lift(r, s, n, _inv_sqrt2())


def _lift(r: int, s: int, n: int, c) -> CliffordElement:
    """c (e_r - e_s), the one statement of the lifts' sign convention."""
    if r == s:
        raise ValueError("transposition needs two distinct points")
    if not (0 <= r < n and 0 <= s < n):
        raise ValueError("indices out of range")
    return CliffordElement(n, {(r,): c, (s,): -c})


def transposition_lift_recursive(r: int, s: int, n: int) -> CliffordElement:
    """[rs] computed literally by the defining recursion (test oracle)."""
    if r == s:
        raise ValueError("transposition needs two distinct points")
    if r > s:
        return transposition_lift_recursive(s, r, n).scale(MINUS_ONE)
    if s == r + 1:
        c = _inv_sqrt2()
        return CliffordElement(n, {(r,): c, (r + 1,): -c})
    t_r = transposition_lift_recursive(r, r + 1, n)
    inner = transposition_lift_recursive(r + 1, s, n)
    return clifford_multiply(clifford_multiply(t_r, inner), t_r).scale(MINUS_ONE)


def section_factors(sigma: tuple) -> list[tuple[int, int]]:
    """The transposition factors of u_sigma: cycles ordered by least moved
    point, each cycle (a1 ... ak) with a1 least contributing
    [a1 ak][a1 a(k-1)] ... [a1 a2]."""
    factors = []
    for cyc in perm_cycles(sigma):
        a1 = cyc[0]
        for a in reversed(cyc[1:]):
            factors.append((a1, a))
    return factors


def section_u(sigma: tuple, n: int | None = None) -> CliffordElement:
    """The section u_sigma of the covering projection, as a Clifford element."""
    n = len(sigma) if n is None else n
    out = CliffordElement.scalar(n, ONE)
    for r, s in section_factors(sigma):
        out = clifford_multiply(out, transposition_lift(r, s, n))
    return out


def section_u_inverse(sigma: tuple, n: int | None = None) -> CliffordElement:
    """u_sigma^-1: transposition lifts square to 1, so reverse the factors."""
    n = len(sigma) if n is None else n
    out = CliffordElement.scalar(n, ONE)
    for r, s in reversed(section_factors(sigma)):
        out = clifford_multiply(out, transposition_lift(r, s, n))
    return out


def spin_alpha(sigma: tuple, tau: tuple) -> CyclotomicScalar:
    """alpha(sigma, tau) in {1, -1}: the scalar with
    u_sigma u_tau = alpha(sigma, tau) u_(sigma tau)."""
    n = len(sigma)
    prod = clifford_multiply(section_u(sigma, n), section_u(tau, n))
    target = section_u(perm_compose(sigma, tau), n)
    if prod == target:
        return ONE
    if prod == target.scale(MINUS_ONE):
        return MINUS_ONE
    raise ArithmeticError("u_sigma u_tau is not +-u_(sigma tau); cover model is broken")


def _integer_section(sigma: tuple, n: int) -> dict:
    """sqrt(2)^k u_sigma, k = len(section_factors(sigma)): the product of the
    unnormalized lifts e_r - e_s, as a dict blade -> int."""
    out = CliffordElement.scalar(n, ONE)
    for r, s in section_factors(sigma):
        out = clifford_multiply(out, _lift(r, s, n, ONE))
    return {S: int(c.as_fraction()) for S, c in out.coeffs.items()}


@lru_cache(maxsize=None)
def spin_cocycle(n: int) -> Cocycle2:
    """The full +-1 cocycle table on S_n induced by the Clifford cover,
    computed in exact integer arithmetic.

    Write k(sigma) = len(section_factors(sigma)) = n - #cycles(sigma) and
    U_sigma = sqrt(2)^k(sigma) u_sigma, the product of the lifts e_r - e_s
    (integer coefficients).  From u_sigma u_tau = alpha(sigma, tau)
    u_(sigma tau) follows U_sigma U_tau = alpha(sigma, tau) 2^d U_(sigma tau)
    with d = (k(sigma) + k(tau) - k(sigma tau)) / 2.  This d is a
    nonnegative integer: k is the least number of transpositions with
    product sigma, so k(sigma tau) <= k(sigma) + k(tau), and
    (-1)^k(sigma) is the sign of sigma, so the numerator is even.  Hence one
    coefficient of U_sigma U_tau, at the least blade of U_(sigma tau), must
    be +-(its coefficient there) << d; anything else means the model is
    broken.  The assembled table is checked against normalization and the
    cocycle identity (``validate_cocycle``) before it is returned."""
    from .groups import validate_cocycle

    group = symmetric_group(n)
    sections = [_integer_section(p, n) for p in group.perms]
    lengths = [len(section_factors(p)) for p in group.perms]
    least = [min(u.items()) for u in sections]
    values = []
    for a, ua in enumerate(sections):
        row = []
        for b, ub in enumerate(sections):
            ab = group.mult[a][b]
            blade, ref = least[ab]
            c = 0
            for S, cs in ua.items():
                # e_S e_T lands on e_blade exactly when T = S xor blade
                T = _blade_mul(S, blade)[1]
                if T in ub:
                    c += _blade_mul(S, T)[0] * cs * ub[T]
            ref <<= (lengths[a] + lengths[b] - lengths[ab]) // 2
            if c == ref:
                row.append(ONE)
            elif c == -ref:
                row.append(MINUS_ONE)
            else:
                raise ArithmeticError("u_sigma u_tau is not +-u_(sigma tau); cover model is broken")
        values.append(row)
    alpha = Cocycle2(group, values, name=f"spin({n})")
    report = validate_cocycle(alpha)
    if not (report["normalized"] and report["cocycle"]):
        raise ArithmeticError(
            f"assembled spin({n}) table fails validation: {report['failures'][:3]}"
        )
    return alpha


def inequality_count(r: int, s: int, rp: int, sp: int) -> int:
    """Number of the inequalities min(r,s) > min(rp,sp), r > s, rp > sp that
    hold; all four indices must be distinct."""
    if len({r, s, rp, sp}) != 4:
        raise ValueError("indices must be pairwise distinct")
    return int(min(r, s) > min(rp, sp)) + int(r > s) + int(rp > sp)


def _conjugate(u: CliffordElement, x: CliffordElement, u_inv: CliffordElement) -> CliffordElement:
    return clifford_multiply(clifford_multiply(u, x), u_inv)


def verify_cover(n: int, samples: int = 500, seed: int = 0) -> dict:
    """Check the presentation of the cover under the Clifford lift, the
    transposition-lift recursion, and the conjugation lemmas the symmetric
    group pipeline relies on.  Exhaustive for n <= 4, sampled above."""
    if n < 4:
        raise ValueError("the presentation is stated for n >= 4")
    rng = random.Random(seed)
    exhaustive = n <= 4
    group = symmetric_group(n)
    perms = group.perms
    results: dict[str, dict] = {}

    def record(family, ok, witness=None):
        entry = results.setdefault(family, {"passed": True, "checked": 0, "witnesses": []})
        entry["checked"] += 1
        if not ok:
            entry["passed"] = False
            if len(entry["witnesses"]) < 5:
                entry["witnesses"].append(witness)

    one = CliffordElement.scalar(n, ONE)
    t = [transposition_lift(r, r + 1, n) for r in range(n - 1)]

    # presentation relations (z = -1 scalar, so z-relations are sign checks)
    for r in range(n - 1):
        record("t_r^2 = 1", clifford_multiply(t[r], t[r]) == one, ("square", r))
    for r in range(n - 1):
        for s in range(n - 1):
            if abs(r - s) > 1:
                lhs = clifford_multiply(t[r], t[s])
                rhs = clifford_multiply(t[s], t[r]).scale(MINUS_ONE)
                record("t_r t_s = t_s t_r z (|r-s|>1)", lhs == rhs, ("far-commute", r, s))
    for r in range(n - 2):
        lhs = clifford_multiply(clifford_multiply(t[r], t[r + 1]), t[r])
        rhs = clifford_multiply(clifford_multiply(t[r + 1], t[r]), t[r + 1])
        record("braid", lhs == rhs, ("braid", r))

    # transposition lift recursion agrees with the closed form
    for r in range(n):
        for s in range(n):
            if r != s:
                record(
                    "[rs] recursion",
                    transposition_lift_recursive(r, s, n) == transposition_lift(r, s, n),
                    ("recursion", r, s),
                )

    def sample_perms(k):
        return [perms[rng.randrange(len(perms))] for _ in range(k)]

    def distinct_tuple(k):
        return tuple(rng.sample(range(n), k))

    # Lemma: sigma |> [rs] = [sigma(r) sigma(s)] z^sign(sigma)
    cases = (
        [(p, r, s) for p in perms for r in range(n) for s in range(n) if r != s]
        if exhaustive
        else [(sample_perms(1)[0], *distinct_tuple(2)) for _ in range(samples)]
    )
    sections: dict = {}

    def sec(p, inverse=False):
        """u_p, or u_p^-1, built once per permutation."""
        key = (p, inverse)
        if key not in sections:
            sections[key] = (section_u_inverse if inverse else section_u)(p, n)
        return sections[key]

    for p, r, s in cases:
        u, uinv = sec(p), sec(p, True)
        lhs = _conjugate(u, transposition_lift(r, s, n), uinv)
        rhs = transposition_lift(p[r], p[s], n)
        if perm_sign(p):
            rhs = rhs.scale(MINUS_ONE)
        record("conjugation of [rs]", lhs == rhs, ("lemma-V", p, r, s))

    # 3-cycle relation [rs][sr']z = [rr'][rs] = [r's][rr']z
    cases = (
        [(r, s, rp) for r in range(n) for s in range(n) for rp in range(n) if len({r, s, rp}) == 3]
        if exhaustive
        else [distinct_tuple(3) for _ in range(samples)]
    )
    for r, s, rp in cases:
        a = clifford_multiply(transposition_lift(r, s, n), transposition_lift(s, rp, n)).scale(MINUS_ONE)
        b = clifford_multiply(transposition_lift(r, rp, n), transposition_lift(r, s, n))
        c = clifford_multiply(transposition_lift(rp, s, n), transposition_lift(r, rp, n)).scale(MINUS_ONE)
        record("3-cycle relation", a == b and b == c, ("3cycle", r, s, rp))

    # commuting relation [rs][r's'] = [r's'][rs]z
    cases = (
        list(itertools.permutations(range(n), 4))
        if exhaustive
        else [distinct_tuple(4) for _ in range(samples)]
    )
    for r, s, rp, sp in cases:
        a = clifford_multiply(transposition_lift(r, s, n), transposition_lift(rp, sp, n))
        b = clifford_multiply(transposition_lift(rp, sp, n), transposition_lift(r, s, n)).scale(MINUS_ONE)
        record("commuting relation", a == b, ("commute", r, s, rp, sp))

    # |d(r,s,r',s') - d(r,s,s',r')| = 1 = |d(r,s,r',s') - d(s,r,r',s')|
    for r, s, rp, sp in cases:
        d0 = inequality_count(r, s, rp, sp)
        ok = abs(d0 - inequality_count(r, s, sp, rp)) == 1 and abs(d0 - inequality_count(s, r, rp, sp)) == 1
        record("inequality-count flips", ok, ("dprops", r, s, rp, sp))

    # section properties (a), (b), (c)
    cases_a = (
        [(p, r, s) for p in perms for r in range(n) for s in range(r + 1, n)]
        if exhaustive
        else [(sample_perms(1)[0], *sorted(distinct_tuple(2))) for _ in range(samples)]
    )
    for p, r, s in cases_a:
        u, uinv = sec(p), sec(p, True)
        tr = perm_from_two_cycle(n, r, s)
        lhs = _conjugate(u, sec(tr), uinv)
        rhs = sec(perm_compose(perm_compose(p, tr), perm_inverse(p)))
        e = perm_sign(p) + (0 if p[r] < p[s] else 1)
        if e & 1:
            rhs = rhs.scale(MINUS_ONE)
        record("section property (a)", lhs == rhs, ("sec-a", p, r, s))

    cases_b = []
    if exhaustive:
        for p in perms:
            for r, s, rp, sp in itertools.permutations(range(n), 4):
                if r < s and rp < sp and r < rp:
                    cases_b.append((p, r, s, rp, sp))
    else:
        while len(cases_b) < samples:
            p = sample_perms(1)[0]
            r, s, rp, sp = distinct_tuple(4)
            if r < s and rp < sp and r < rp:
                cases_b.append((p, r, s, rp, sp))
    for p, r, s, rp, sp in cases_b:
        u, uinv = sec(p), sec(p, True)
        dbl = perm_from_cycles_pairs(n, (r, s), (rp, sp))
        lhs = _conjugate(u, sec(dbl), uinv)
        rhs = sec(perm_compose(perm_compose(p, dbl), perm_inverse(p)))
        if inequality_count(p[r], p[s], p[rp], p[sp]) & 1:
            rhs = rhs.scale(MINUS_ONE)
        record("section property (b)", lhs == rhs, ("sec-b", p, r, s, rp, sp))

    cases_c = []
    if exhaustive:
        for p in perms:
            for r, s, rp in itertools.permutations(range(n), 3):
                if r < s and r < rp:
                    cases_c.append((p, r, s, rp))
    else:
        while len(cases_c) < samples:
            p = sample_perms(1)[0]
            r, s, rp = distinct_tuple(3)
            if r < s and r < rp:
                cases_c.append((p, r, s, rp))
    for p, r, s, rp in cases_c:
        u, uinv = sec(p), sec(p, True)
        thr = perm_from_three_cycle(n, r, s, rp)
        lhs = _conjugate(u, sec(thr), uinv)
        rhs = sec(perm_compose(perm_compose(p, thr), perm_inverse(p)))
        record("section property (c)", lhs == rhs, ("sec-c", p, r, s, rp))

    results["all_passed"] = all(
        v["passed"] for k, v in results.items() if isinstance(v, dict)
    )
    return results


def perm_from_two_cycle(n: int, r: int, s: int) -> tuple:
    img = list(range(n))
    img[r], img[s] = s, r
    return tuple(img)


def perm_from_three_cycle(n: int, r: int, s: int, rp: int) -> tuple:
    """The 3-cycle r -> s -> rp -> r."""
    img = list(range(n))
    img[r], img[s], img[rp] = s, rp, r
    return tuple(img)


def perm_from_cycles_pairs(n: int, *pairs) -> tuple:
    img = list(range(n))
    for a, b in pairs:
        img[a], img[b] = b, a
    return tuple(img)

"""The Schur covering group T_n of S_n realized inside an exact Clifford
algebra, its distinguished transposition lifts, the cycle-normal-form section
u_sigma, and the resulting nontrivial 2-cocycle on S_n with values +-1.

The concrete model: generators e_1..e_n with e_i^2 = 1 and e_i e_j = -e_j e_i,
coefficients in Q(zeta_8) so that sqrt(2) is available.  The generator t_r of
the cover maps to (e_r - e_{r+1})/sqrt(2) and the central element z to the
scalar -1.  Conjugation by a lifted permutation sends e_i to
(-1)^sign(sigma) e_sigma(i), which is what makes every relation of the cover
mechanically checkable; verify_cover exercises all of them.  spin_cocycle
reads its table's generator columns from the integer multiples
sqrt(2)^k u_sigma instead, and the Q(zeta_8) model stays as the reference.

Indices r, s here are 0-based positions into {0..n-1}; 1-based names
appear only in serialized output.
"""

from __future__ import annotations

import itertools
import random
from functools import lru_cache

from .groups import (
    Cocycle2,
    FiniteGroup,
    cocycle_from_columns,
    perm_compose,
    perm_cycles,
    perm_from_cycles,
    perm_inverse,
    perm_sign,
    symmetric_group,
    validate_cocycle,
)
from .linalg import SparseSum, bump
from .scalars import MINUS_ONE, ONE, CyclotomicScalar, rational, root_of_unity


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
        return transposition_lift(r, s, n)
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


def _lift_product(factors, n: int, c) -> CliffordElement:
    """The product of the lifts c (e_r - e_s) over the factors (r, s), in order."""
    out = CliffordElement.scalar(n, ONE)
    for r, s in factors:
        out = clifford_multiply(out, _lift(r, s, n, c))
    return out


def section_u(sigma: tuple, n: int | None = None) -> CliffordElement:
    """The section u_sigma of the covering projection, as a Clifford element."""
    n = len(sigma) if n is None else n
    return _lift_product(section_factors(sigma), n, _inv_sqrt2())


def section_u_inverse(sigma: tuple, n: int | None = None) -> CliffordElement:
    """u_sigma^-1: transposition lifts square to 1, so reverse the factors."""
    n = len(sigma) if n is None else n
    return _lift_product(reversed(section_factors(sigma)), n, _inv_sqrt2())


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
    out = _lift_product(section_factors(sigma), n, ONE)
    return {S: int(c.as_fraction()) for S, c in out.coeffs.items()}


def spin_cocycle(group: FiniteGroup) -> Cocycle2:
    """The +-1 cocycle of the Clifford cover on a permutation group of
    degree n (spin(n) on S_n), in exact integer arithmetic.

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
    broken.

    Only the columns alpha(g, s) at the group's generators s are read so
    (2|G| coefficients for S_n); ``cocycle_from_columns`` fills the rest by
    alpha(g, hs) = alpha(g, h) alpha(gh, s) / alpha(h, s).  The table is then
    checked by ``validate_cocycle``, which is not vacuous: the fill makes the
    identity hold only at the triples (g, h, s) along its walk's tree, while
    the check tests every (s, b, c) with s a generator."""
    perms = group.perms
    n = len(perms[0])
    sections = [_integer_section(p, n) for p in perms]
    lengths = [len(section_factors(p)) for p in perms]
    least = [min(u.items()) for u in sections]

    def exponent(g, s):
        """0 or 1 as alpha(g, s) is 1 or -1, read from one coefficient of U_g U_s."""
        us, gs = sections[s], group.mult[g][s]
        blade, ref = least[gs]
        # e_S e_T lands on e_blade exactly when T = S xor blade
        c = sum(_blade_mul(S, T)[0] * cs * us[T] for S, cs in sections[g].items()
                if (T := _blade_mul(S, blade)[1]) in us)
        ref <<= (lengths[g] + lengths[s] - lengths[gs]) // 2
        if c != ref and c != -ref:
            raise ArithmeticError("u_sigma u_tau is not +-u_(sigma tau); cover model is broken")
        return int(c != ref)

    columns = [[exponent(g, s) for g in range(group.size)] for s in group.generator_indices]
    alpha = cocycle_from_columns(group, 2, columns, name=f"spin({n})")
    report = validate_cocycle(alpha)
    if not (report["normalized"] and report["cocycle"]):
        raise ArithmeticError(f"assembled spin({n}) table fails validation: {report['failures'][:3]}")
    return alpha


def inequality_count(r: int, s: int, rp: int, sp: int) -> int:
    """Number of the inequalities min(r,s) > min(rp,sp), r > s, rp > sp that
    hold; all four indices must be distinct."""
    if len({r, s, rp, sp}) != 4:
        raise ValueError("indices must be pairwise distinct")
    return int(min(r, s) > min(rp, sp)) + int(r > s) + int(rp > sp)


def verify_cover(n: int, samples: int = 500, seed: int = 0) -> dict:
    """Check the presentation of the cover under the Clifford lift, the
    transposition-lift recursion, and the conjugation lemmas the symmetric
    group pipeline relies on.

    The presentation and the recursion are checked in full.  Each other
    family ranges over tuples of distinct points, with a permutation p in
    front where the family conjugates, and has an ordering condition on the
    points (none for the relations).  At n <= 4 it takes every such case
    that meets the condition; above, ``samples`` seeded draws that meet it
    (the pair of property (a) is drawn sorted)."""
    if n < 4:
        raise ValueError("the presentation is stated for n >= 4")
    if samples < 1:
        raise ValueError("samples must be a positive integer")
    rng = random.Random(seed)
    perms = symmetric_group(n).perms
    results: dict[str, dict] = {}

    def record(family, ok, witness=None):
        entry = results.setdefault(family, {"passed": True, "checked": 0, "witnesses": []})
        entry["checked"] += 1
        if not ok:
            entry["passed"] = False
            if len(entry["witnesses"]) < 5:
                entry["witnesses"].append(witness)

    def cases(k, with_perm, keep=lambda *pts: True, sort=False):
        """The case rule.  A case is k distinct points, after a permutation
        p if with_perm, and keep(*points) is the ordering condition: every
        such case in lexicographic order at n <= 4, else ``samples`` seeded
        draws (p first, then the points, sorted if sort)."""
        if n <= 4:
            heads = [(p,) for p in perms] if with_perm else [()]
            return [h + t for h in heads for t in itertools.permutations(range(n), k) if keep(*t)]
        out = []
        while len(out) < samples:
            head = (perms[rng.randrange(len(perms))],) if with_perm else ()
            pts = rng.sample(range(n), k)
            pts = tuple(sorted(pts) if sort else pts)
            if keep(*pts):
                out.append(head + pts)
        return out

    def lifts(*pairs):
        return _lift_product(pairs, n, _inv_sqrt2())

    def signed(x, odd):
        return x.scale(MINUS_ONE) if odd else x

    @lru_cache(maxsize=None)
    def sec(p, inverse=False):
        """u_p, or u_p^-1, built once per permutation."""
        return (section_u_inverse if inverse else section_u)(p, n)

    def conj(p, x):
        return clifford_multiply(clifford_multiply(sec(p), x), sec(p, True))

    # presentation relations (z = -1 scalar, so z-relations are sign checks)
    t = [(r, r + 1) for r in range(n - 1)]
    for r in range(n - 1):
        record("t_r^2 = 1", lifts(t[r], t[r]) == CliffordElement.scalar(n, ONE), ("square", r))
    for r, s in itertools.product(range(n - 1), repeat=2):
        if abs(r - s) > 1:
            ok = lifts(t[r], t[s]) == signed(lifts(t[s], t[r]), True)
            record("t_r t_s = t_s t_r z (|r-s|>1)", ok, ("far-commute", r, s))
    for r in range(n - 2):
        ok = lifts(t[r], t[r + 1], t[r]) == lifts(t[r + 1], t[r], t[r + 1])
        record("braid", ok, ("braid", r))

    # transposition lift recursion agrees with the closed form
    for r, s in itertools.permutations(range(n), 2):
        ok = transposition_lift_recursive(r, s, n) == transposition_lift(r, s, n)
        record("[rs] recursion", ok, ("recursion", r, s))

    # Lemma: sigma |> [rs] = [sigma(r) sigma(s)] z^sign(sigma)
    for p, r, s in cases(2, True):
        rhs = signed(transposition_lift(p[r], p[s], n), perm_sign(p))
        ok = conj(p, transposition_lift(r, s, n)) == rhs
        record("conjugation of [rs]", ok, ("lemma-V", p, r, s))

    # 3-cycle relation [rs][sr']z = [rr'][rs] = [r's][rr']z
    for r, s, rp in cases(3, False):
        a = signed(lifts((r, s), (s, rp)), True)
        b = lifts((r, rp), (r, s))
        c = signed(lifts((rp, s), (r, rp)), True)
        record("3-cycle relation", a == b and b == c, ("3cycle", r, s, rp))

    # commuting relation [rs][r's'] = [r's'][rs]z, and
    # |d(r,s,r',s') - d(r,s,s',r')| = 1 = |d(r,s,r',s') - d(s,r,r',s')|
    for r, s, rp, sp in cases(4, False):
        ok = lifts((r, s), (rp, sp)) == signed(lifts((rp, sp), (r, s)), True)
        record("commuting relation", ok, ("commute", r, s, rp, sp))
        d0 = inequality_count(r, s, rp, sp)
        flips = (inequality_count(r, s, sp, rp), inequality_count(s, r, rp, sp))
        ok = all(abs(d0 - d) == 1 for d in flips)
        record("inequality-count flips", ok, ("dprops", r, s, rp, sp))

    # section properties u_p u_x u_p^-1 = +-u_(p x p^-1), for x a
    # transposition (a), two disjoint ones (b) and a 3-cycle (c):
    # (family, tag, points, ordering condition, draws sorted, cycles of x,
    # sign exponent)
    section_properties = (
        ("section property (a)", "sec-a", 2, lambda r, s: r < s, True,
         lambda r, s: [(r, s)], lambda p, r, s: perm_sign(p) + (p[r] > p[s])),
        ("section property (b)", "sec-b", 4, lambda r, s, rp, sp: r < s and rp < sp and r < rp,
         False, lambda r, s, rp, sp: [(r, s), (rp, sp)],
         lambda p, r, s, rp, sp: inequality_count(p[r], p[s], p[rp], p[sp])),
        ("section property (c)", "sec-c", 3, lambda r, s, rp: r < s and r < rp, False,
         lambda r, s, rp: [(r, s, rp)], lambda p, r, s, rp: 0),
    )
    for family, tag, k, keep, sort, cycles, sign in section_properties:
        for p, *pts in cases(k, True, keep, sort):
            x = perm_from_cycles(n, cycles(*pts))
            rhs = sec(perm_compose(perm_compose(p, x), perm_inverse(p)))
            ok = conj(p, sec(x)) == signed(rhs, sign(p, *pts) & 1)
            record(family, ok, (tag, p, *pts))

    results["all_passed"] = all(v["passed"] for v in results.values())
    return results


"""The Schur covering group T_n of S_n realized inside an exact Clifford
algebra, its distinguished transposition lifts, the cycle-normal-form section
u_sigma, and the resulting nontrivial 2-cocycle on S_n with values +-1.

The concrete model: generators e_1..e_n with e_i^2 = 1 and e_i e_j = -e_j e_i.
The generator t_r of the cover maps to (e_r - e_{r+1})/sqrt(2) and the
central element z to the scalar -1.  Conjugation by a lifted permutation
sends e_i to (-1)^sign(sigma) e_sigma(i), which is what makes every relation
of the cover mechanically checkable; verify_cover exercises all of them.

The model is held in one form, with integer coefficients: each lift
[rs] = (e_r - e_s)/sqrt(2) enters as e_r - e_s, so a product of k lifts is
held as sqrt(2)^k times itself, a dict blade -> nonzero int
(``_integer_lifts``).  spin_cocycle reads its table's generator rows from
these products, and verify_cover checks every relation as an identity
between them.  The model over Q(zeta_8), with its 1/sqrt(2) factors, is
kept in the tests as the reference that the integer sections are held to.

Indices r, s here are 0-based positions into {0..n-1}; 1-based names
appear only in serialized output.
"""

from __future__ import annotations

import itertools
import random
from functools import lru_cache

from .groups import (
    Cocycle2,
    CocycleError,
    FiniteGroup,
    cocycle_from_rows,
    perm_compose,
    perm_cycles,
    perm_from_cycles,
    perm_inverse,
    perm_sign,
    symmetric_group,
)


@lru_cache(maxsize=None)
def _blade_mul(S: tuple, T: tuple):
    """e_S e_T = sign * e_(S xor T); sign counts anticommutations, the pairs
    s in S, t in T with s > t.  Cached: rank n has only 4^n blade pairs."""
    inv = sum(s > t for s in S for t in T)
    return -1 if inv & 1 else 1, tuple(sorted(set(S).symmetric_difference(T)))


def _lift_terms(r: int, s: int, c) -> tuple:
    """The (blade, coefficient) terms of c (e_r - e_s), the one statement of
    the lifts' sign convention."""
    return ((r,), c), ((s,), -c)


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


def _integer_lifts(factors) -> dict:
    """The product of the lifts e_r - e_s over the factors (r, s), in order:
    sqrt(2)^k times the product of the k lifts [rs], as a dict blade ->
    nonzero int, multiplied on ints through ``_blade_mul``."""
    out = {(): 1}
    for r, s in factors:
        prod: dict = {}
        for S, c in out.items():
            for T, d in _lift_terms(r, s, c):
                sign, blade = _blade_mul(S, T)
                prod[blade] = prod.get(blade, 0) + sign * d
        out = {S: c for S, c in prod.items() if c}
    return out


def _integer_section(sigma: tuple, n: int) -> dict:
    """sqrt(2)^k u_sigma, k = len(section_factors(sigma)): the integer
    product of the section's lifts e_r - e_s."""
    return _integer_lifts(section_factors(sigma))


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

    Only the rows alpha(s, h) at the group's generators s are read so
    (2|G| coefficients for S_n); ``cocycle_from_rows`` fills the rest by
    alpha(sa, h) = alpha(a, h) alpha(s, ah) / alpha(s, a) along its walk's
    tree, and checks the same expression at the walk's other edges.  That
    proves the table a normalized cocycle (the proof is in its docstring),
    so the table is not checked again here.  Rows that are not a cocycle's
    raise ``CocycleError`` there, which is re-raised as the
    ``ArithmeticError`` of a broken model.  ``validate_cocycle`` stays the
    independent reference that the tests hold the table to."""
    perms = group.perms
    n = len(perms[0])
    sections = [_integer_section(p, n) for p in perms]
    lengths = [len(section_factors(p)) for p in perms]
    least = [min(u.items()) for u in sections]

    def exponent(g, h):
        """0 or 1 as alpha(g, h) is 1 or -1, read from one coefficient of U_g U_h."""
        uh, gh = sections[h], group.mult[g][h]
        blade, ref = least[gh]
        # e_S e_T lands on e_blade exactly when T = S xor blade
        c = sum(_blade_mul(S, T)[0] * cs * uh[T] for S, cs in sections[g].items()
                if (T := _blade_mul(S, blade)[1]) in uh)
        ref <<= (lengths[g] + lengths[h] - lengths[gh]) // 2
        if c != ref and c != -ref:
            raise ArithmeticError("u_sigma u_tau is not +-u_(sigma tau); cover model is broken")
        return int(c != ref)

    rows = [[exponent(s, h) for h in range(group.size)] for s in group.generator_indices]
    try:
        return cocycle_from_rows(group, 2, rows, name=f"spin({n})")
    except CocycleError as e:
        raise ArithmeticError(f"assembled spin({n}) table: {e}; cover model is broken") from e


def inequality_count(r: int, s: int, rp: int, sp: int) -> int:
    """Number of the inequalities min(r,s) > min(rp,sp), r > s, rp > sp that
    hold; all four indices must be distinct."""
    if len({r, s, rp, sp}) != 4:
        raise ValueError("indices must be pairwise distinct")
    return int(min(r, s) > min(rp, sp)) + int(r > s) + int(rp > sp)


def verify_cover(n: int, samples: int = 500, seed: int = 0) -> dict:
    """Check the presentation of the cover under the Clifford lift, the
    transposition-lift recursion, and the conjugation lemmas the symmetric
    group pipeline relies on, each as an identity between integer products
    of the lifts e_r - e_s, with no inverse.  A product of k lifts is
    sqrt(2)^k times the product of the [rs], so t_r^2 = 1 reads
    (e_r - e_(r+1))^2 = 2, and the recursion's 2m+1 lifts for [rs] read
    2^m (e_r - e_s).  A conjugation u_p X u_p^-1 = +-Y, moved across as
    u_p X = +-Y u_p, reads U_p X = +-Y U_p on the integer products: X and Y
    are conjugate, so they have the same number of section factors, and the
    two sides the same power of sqrt(2).

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

    def lifts(*factors):
        return _integer_lifts(factors)

    def signed(x, odd):
        return {S: -c for S, c in x.items()} if odd else x

    def sec(*ps):
        """U_p1 U_p2 ...: the integer product of the permutations' section
        factors, in order."""
        return _integer_lifts([f for p in ps for f in section_factors(p)])

    # presentation relations (z = -1 scalar, so z-relations are sign checks)
    t = [(r, r + 1) for r in range(n - 1)]
    for r in range(n - 1):
        record("t_r^2 = 1", lifts(t[r], t[r]) == {(): 2}, ("square", r))
    for r, s in itertools.product(range(n - 1), repeat=2):
        if abs(r - s) > 1:
            ok = lifts(t[r], t[s]) == signed(lifts(t[s], t[r]), True)
            record("t_r t_s = t_s t_r z (|r-s|>1)", ok, ("far-commute", r, s))
    for r in range(n - 2):
        ok = lifts(t[r], t[r + 1], t[r]) == lifts(t[r + 1], t[r], t[r + 1])
        record("braid", ok, ("braid", r))

    def recursion(r, s):
        """The factors of [rs] by its defining recursion, [rs] = [sr] z
        (r > s) and [rs] = t_r [r+1 s] t_r z (r < s-1), with the power of z."""
        if r > s:
            factors, odd = recursion(s, r)
            return factors, odd + 1
        if s == r + 1:
            return [t[r]], 0
        factors, odd = recursion(r + 1, s)
        return [t[r], *factors, t[r]], odd + 1

    # transposition lift recursion agrees with the closed form
    for r, s in itertools.permutations(range(n), 2):
        factors, odd = recursion(r, s)
        closed = dict(_lift_terms(r, s, 1 << len(factors) // 2))
        record("[rs] recursion", signed(lifts(*factors), odd & 1) == closed, ("recursion", r, s))

    # Lemma: sigma |> [rs] = [sigma(r) sigma(s)] z^sign(sigma)
    for p, r, s in cases(2, True):
        fp = section_factors(p)
        ok = lifts(*fp, (r, s)) == signed(lifts((p[r], p[s]), *fp), perm_sign(p))
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
            y = perm_compose(perm_compose(p, x), perm_inverse(p))
            ok = sec(p, x) == signed(sec(y, p), sign(p, *pts) & 1)
            record(family, ok, (tag, p, *pts))

    results["all_passed"] = all(v["passed"] for v in results.values())
    return results

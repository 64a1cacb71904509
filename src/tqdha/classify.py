"""Closed-form classifications, each cross-checkable against the general
engines: the diagonal-action parameter space (conjugacy classes, centralizer
conditions, coset-averaged basis maps) and the symmetric-group natural
representation with q = -1, twisted by the spin-cover cocycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from .cohomology import (
    Cochain,
    cohomological_parameter_space,
    composition_image,
)
from .groups import (
    Cocycle2,
    FiniteGroup,
    GroupAlgebraElement,
    perm_from_cycles,
    symmetric_group,
    trivial_cocycle,
)
from .linalg import bump
from .pbw import KappaMap, same_space
from .quantum import GroupAction, QMatrix, natural_permutation_action
from .scalars import ONE, rational
from .spin import spin_cocycle


class DiagonalError(ValueError):
    """The operation needs an action that is diagonal on the chosen basis."""


def _eigenvalues(action: GroupAction):
    if not action.is_diagonal():
        raise DiagonalError("action is not diagonal on the chosen basis")
    return action.eigenvalue_table()


def cg_membership(gamma, g: int, action: GroupAction, q: QMatrix) -> bool:
    """Whether gamma (entries in N union {-1}) lies in C_g: for every i,
    either gamma_i = -1 or prod_s q_is^gamma_s = lambda_{g,i}."""
    lam = _eigenvalues(action)
    n = action.n
    for i in range(n):
        if gamma[i] == -1:
            continue
        prod = ONE
        for s in range(n):
            if gamma[s]:
                prod = prod * q(i, s) ** gamma[s]
        if prod != lam[g][i]:
            return False
    return True


def _q_lambda_holds(q: QMatrix, lam_g, n: int, r: int, s: int) -> bool:
    """q_rr' q_sr' = lambda_{g,r'} for every r' outside {r, s}."""
    return all(q(r, rp) * q(s, rp) == lam_g[rp] for rp in range(n) if rp not in (r, s))


def diagonal_constant_basis(action: GroupAction, q: QMatrix) -> list[tuple[int, int, int]]:
    """All (g, r, s) with r < s and q_rr' q_sr' = lambda_{g,r'} for every
    r' outside {r, s}; these index the constant 2-cocycle basis t_g (x)
    v_r* ^ v_s* of the diagonal theory."""
    lam = _eigenvalues(action)
    n = action.n
    out = []
    for g in range(action.group.size):
        for r in range(n):
            for s in range(r + 1, n):
                if _q_lambda_holds(q, lam[g], n, r, s):
                    out.append((g, r, s))
    return out


def diagonal_kappa_basis_labeled(action: GroupAction, q: QMatrix, alpha: Cocycle2):
    """The closed-form basis maps f_{r,s,a} with their labels (a, r, s):

        f_{r,s,a}(v_i,v_j) = (delta_ir delta_js - q_sr delta_is delta_jr)
            sum_{g in [G/C_G(a)]} alpha(g,a)/alpha(gag^-1,g)
                                  lambda_{g,r}^-1 lambda_{g,s}^-1 t_{gag^-1}

    over class representatives a and pairs r < s satisfying both the q-lambda
    condition and the centralizer condition
    lambda_{h,r} lambda_{h,s} = alpha(h,a)/alpha(a,h) for all h in C_G(a)."""
    lam = _eigenvalues(action)
    n = action.n
    G = action.group
    out = []
    for cls in G.conjugacy_classes():
        a = cls[0]
        for r in range(n):
            for s in range(r + 1, n):
                if not _q_lambda_holds(q, lam[a], n, r, s):
                    continue
                if not all(
                    lam[h][r] * lam[h][s] == alpha(h, a) / alpha(a, h)
                    for h in G.centralizer(a)
                ):
                    continue
                coeffs: dict = {}
                for g in G.coset_reps_mod_centralizer(a):
                    target = G.conjugate(g, a)
                    val = (
                        alpha(g, a)
                        / alpha(target, g)
                        * lam[g][r].inverse()
                        * lam[g][s].inverse()
                    )
                    bump(coeffs, target, val)
                kappa = KappaMap(G, n, q, {(r, s): GroupAlgebraElement(coeffs)})
                out.append(((a, r, s), kappa))
    return out


def diagonal_kappa_basis(action: GroupAction, q: QMatrix, alpha: Cocycle2) -> list[KappaMap]:
    return [kappa for _, kappa in diagonal_kappa_basis_labeled(action, q, alpha)]


# ---------------------------------------------------------------------------
# symmetric groups, natural representation, q = -1
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EtaFamilyElement:
    """One expanded basis element of the constant 2-cocycle space for the
    natural S_n action with q = -1; tag is the family number 1..5 and indices
    are the defining 0-based tuple."""

    tag: int
    indices: tuple
    cochain: Cochain


@lru_cache(maxsize=None)
def symmetric_instance(n: int, twisted: bool | None = None):
    """S_n on its natural representation with q = -1: (group, action, q), and
    given ``twisted`` also the cocycle, spin(n) if twisted, else trivial.
    Cached, so callers share one cocycle object and the identity-keyed caches
    of ``pbw`` hit across them; the cocycle is built only when asked for."""
    if twisted is None:
        group = symmetric_group(n)
        return group, natural_permutation_action(group), QMatrix.uniform(n, -1)
    group, action, q = symmetric_instance(n)
    return group, action, q, spin_cocycle(group) if twisted else trivial_cocycle(group)


def _wedge_sum(n: int, group: FiniteGroup, perm, pairs) -> Cochain:
    g = group.perms.index(perm)
    c = Cochain(n, 2)
    for a, b in pairs:
        c = c + Cochain.constant_two(n, g, min(a, b), max(a, b))
    return c


def _eta_family_table(n: int) -> list:
    """(tag, indices, cycles of the group element, wedge pairs) for each
    element of the five families, in basis order."""
    pairs = list(combinations(range(n), 2))
    return (
        [(1, (r, s), [], [(r, s)]) for r, s in pairs]
        + [(2, (r, s), [(r, s)], [(r, s)]) for r, s in pairs]
        + [(3, (r, s, t), [(r, s)], [(r, t), (s, t)])
           for r, s in pairs for t in range(n) if t not in (r, s)]
        + [(4, (r, s, t, u), [(r, s), (t, u)], [(r, t), (r, u), (s, t), (s, u)])
           for r, s in pairs for t, u in pairs if r < t and s not in (t, u)]
        + [(5, (r, s, t), [(r, s, t)], [(r, s), (s, t), (r, t)])
           for r, s in pairs for t in range(r + 1, n) if t != s]
    )


def eta_family_basis(n: int) -> list[EtaFamilyElement]:
    """All five families, expanded; counts are C(n,2), C(n,2), (n-2) C(n,2),
    3 C(n,4), 2 C(n,3).  Requires n >= 4 (the classification hypothesis)."""
    if n < 4:
        raise ValueError("the eta families are defined for n >= 4")
    group, _, _ = symmetric_instance(n)
    return [
        EtaFamilyElement(tag, indices, _wedge_sum(n, group, perm_from_cycles(n, cycles), pairs))
        for tag, indices, cycles, pairs in _eta_family_table(n)
    ]


def eta_family_counts(n: int) -> dict[int, int]:
    c2 = n * (n - 1) // 2
    c3 = n * (n - 1) * (n - 2) // 6
    c4 = n * (n - 1) * (n - 2) * (n - 3) // 24
    return {1: c2, 2: c2, 3: (n - 2) * c2, 4: 3 * c4, 5: 2 * c3}


def kappa_one(n: int) -> KappaMap:
    """kappa_1(v_i, v_j) = t_1 for all i != j."""
    group, _, q = symmetric_instance(n)
    values = {
        (i, j): GroupAlgebraElement.basis(0)
        for i in range(n)
        for j in range(i + 1, n)
    }
    return KappaMap(group, n, q, values)


def kappa_two(n: int) -> KappaMap:
    """kappa_2(v_i, v_j) = sum_{k != i,j} (t_(ijk) + t_(ikj))."""
    group, _, q = symmetric_instance(n)
    values = {}
    for i in range(n):
        for j in range(i + 1, n):
            coeffs: dict = {}
            for k in range(n):
                if k in (i, j):
                    continue
                for perm in (
                    perm_from_cycles(n, [(i, j, k)]),
                    perm_from_cycles(n, [(i, k, j)]),
                ):
                    g = group.perms.index(perm)
                    bump(coeffs, g, ONE)
            values[(i, j)] = GroupAlgebraElement(coeffs)
    return KappaMap(group, n, q, values)


def _family_representatives(n: int) -> dict[int, EtaFamilyElement]:
    reps = {}
    for elt in eta_family_basis(n):
        if elt.tag not in reps:
            reps[elt.tag] = elt
    return reps


def symmetric_natural_classify(n: int, twisted: bool) -> dict:
    """Classification report for (S_n, natural action, q = -1) with the
    spin-cover cocycle (twisted) or the trivial one.

    Runs the full cohomological pipeline, evaluates the induced-cocycle image
    table on one representative per eta family (the raw, unaveraged elements),
    and, for the twisted case with n >= 5, compares the computed basis span
    against span{kappa_1, kappa_2} exactly.
    """
    if n < 4:
        raise ValueError("the symmetric-group pipeline needs n >= 4")
    _, action, q, alpha = symmetric_instance(n, twisted)
    basis = cohomological_parameter_space(action, q, alpha)

    image_table = {}
    for tag, elt in sorted(_family_representatives(n).items()):
        per_pair = {}
        for i in range(n):
            for j in range(n):
                if i != j:
                    per_pair[(i, j)] = composition_image(elt.cochain, i, j, action, q, alpha)
        image_table[tag] = {"indices": elt.indices, "images": per_pair}

    report = {
        "n": n,
        "twisted": twisted,
        "dimension": len(basis),
        "kappa_basis": basis,
        "lemma_image": image_table,
        "eta_counts": eta_family_counts(n),
    }
    if twisted and n >= 5:
        report["matches_expected"] = same_space(basis, [kappa_one(n), kappa_two(n)])
    else:
        report["matches_expected"] = None
    return report


def expected_image_value(n: int, a: int, i: int, j: int) -> GroupAlgebraElement:
    """The closed-form induced-cocycle image for family a at the pair (i, j),
    in the twisted setting with n >= 5: (1/(n(n-1))) t_1 for a = 1, zero for
    a in {2, 3, 4}, and (1/(n(n-1)(n-2))) sum_k (2 t_(ijk) + t_(ikj)) for
    a = 5."""
    group, _, _ = symmetric_instance(n)
    if a == 1:
        return GroupAlgebraElement({0: rational(Fraction(1, n * (n - 1)))})
    if a in (2, 3, 4):
        return GroupAlgebraElement.zero()
    if a == 5:
        f = rational(Fraction(1, n * (n - 1) * (n - 2)))
        coeffs: dict = {}
        for k in range(n):
            if k in (i, j):
                continue
            g1 = group.perms.index(perm_from_cycles(n, [(i, j, k)]))
            g2 = group.perms.index(perm_from_cycles(n, [(i, k, j)]))
            bump(coeffs, g1, f * rational(2))
            bump(coeffs, g2, f)
        return GroupAlgebraElement(coeffs)
    raise ValueError("family tag must be 1..5")

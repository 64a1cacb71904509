"""Closed-form classifications, each cross-checkable against the general
engines: the diagonal-action parameter space (conjugacy classes, centralizer
conditions, coset-averaged basis maps) and the symmetric-group natural
representation with q = -1, twisted by the spin-cover cocycle.

The S_n maps all come from one table, ``_eta_family_table``: each eta family
element is the map of one row, and kappa_1 and kappa_2 are the sums of the
rows of families 1 and 5.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from .cohomology import cohomological_parameter_space, composition_image
from .groups import Cocycle2, perm_from_cycles, symmetric_group, trivial_cocycle
from .linalg import bump
from .pbw import KappaMap, same_space
from .quantum import GroupAction, QMatrix, natural_permutation_action
from .scalars import ONE, rational
from .spin import spin_cocycle


def diagonal_constant_basis(action: GroupAction, q: QMatrix) -> list[tuple[int, int, int]]:
    """All (g, r, s) with r < s and q_rr' q_sr' = lambda_{g,r'} for every
    r' outside {r, s}; these index the constant 2-cocycle basis t_g (x)
    v_r* ^ v_s* of the diagonal theory."""
    lam = action.eigenvalue_table()
    n = action.n
    out = []
    for g in range(action.group.size):
        for r in range(n):
            for s in range(r + 1, n):
                if all(q(r, rp) * q(s, rp) == lam[g][rp]
                       for rp in range(n) if rp not in (r, s)):
                    out.append((g, r, s))
    return out


def diagonal_kappa_basis_labeled(action: GroupAction, q: QMatrix, alpha: Cocycle2):
    """The closed-form basis maps f_{r,s,a} with their labels (a, r, s):

        f_{r,s,a}(v_i,v_j) = (delta_ir delta_js - q_sr delta_is delta_jr)
            sum_{g in [G/C_G(a)]} alpha(g,a)/alpha(gag^-1,g)
                                  lambda_{g,r}^-1 lambda_{g,s}^-1 t_{gag^-1}

    over the (a, r, s) of ``diagonal_constant_basis`` (the q-lambda
    condition) with a a class representative that satisfy the centralizer
    condition lambda_{h,r} lambda_{h,s} = alpha(h,a)/alpha(a,h) for all h in
    C_G(a).
    The representatives a, their centralizers and the coset
    representatives [G/C_G(a)], the least element of each coset g C_G(a),
    are read from the group's ``class_data``, all ascending."""
    lam = action.eigenvalue_table()
    G = action.group
    data = G.class_data
    out = []
    for a, r, s in diagonal_constant_basis(action, q):
        if data.rep[a] != a:
            continue
        # alpha(h, a) / alpha(a, h) is conj_ratio(h, a) for h in C_G(a)
        if not all(
            lam[h][r] * lam[h][s] == alpha.conj_ratio(h, a)
            for h in data.centralizer[a]
        ):
            continue
        coeffs: dict = {}
        for g in data.transversal[a]:
            val = alpha.conj_ratio(g, a) * lam[g][r].inverse() * lam[g][s].inverse()
            bump(coeffs, (G.conjugate(g, a), r, s), val)
        kappa = KappaMap(G, action.n, q, coeffs)
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
    natural S_n action with q = -1, as the kappa it pairs to; tag is the
    family number 1..5 and indices are the defining 0-based tuple."""

    tag: int
    indices: tuple
    kappa: KappaMap


@lru_cache(maxsize=None)
def _symmetric_lookup(n: int):
    """S_n, its index of each permutation, and q = -1: what the closed forms
    read, with no action built.  Memoized on n, and it holds no action or
    cocycle: the closed forms and ``symmetric_instance`` must share one S_n
    and one q, as ``pbw.require_kappa_on`` and ``KappaMap`` equality compare
    them by identity."""
    group = symmetric_group(n)
    return group, {p: g for g, p in enumerate(group.perms)}, QMatrix.uniform(n, -1)


def symmetric_instance(n: int, twisted: bool | None = None):
    """S_n on its natural representation with q = -1: (group, action, q), and
    given ``twisted`` also the cocycle, spin(n) if twisted, else trivial.
    Each call builds a new action and, when asked for, a new cocycle, so
    what the routes derive from them is freed with them; a caller that
    reuses an instance holds it.  The group and q are those of the closed
    forms (``_symmetric_lookup``), so the closed forms apply to every
    instance."""
    group, _, q = _symmetric_lookup(n)
    action = natural_permutation_action(group)
    if twisted is None:
        return group, action, q
    return group, action, q, spin_cocycle(group) if twisted else trivial_cocycle(group)


def _wedge_sum(n: int, rows) -> KappaMap:
    """The sum over the given ``_eta_family_table`` rows of t_g (x) the sum
    of the wedges v_a* ^ v_b* over the row's (distinct) pairs, g the
    element with the row's cycles."""
    group, index, q = _symmetric_lookup(n)
    coeffs: dict = {}
    for _, _, cycles, pairs in rows:
        g = index[perm_from_cycles(n, cycles)]
        for a, b in pairs:
            bump(coeffs, (g, min(a, b), max(a, b)), ONE)
    return KappaMap(group, n, q, coeffs)


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
    return [
        EtaFamilyElement(row[0], row[1], _wedge_sum(n, [row]))
        for row in _eta_family_table(n)
    ]


def eta_family_counts(n: int) -> dict[int, int]:
    c2 = n * (n - 1) // 2
    c3 = n * (n - 1) * (n - 2) // 6
    c4 = n * (n - 1) * (n - 2) * (n - 3) // 24
    return {1: c2, 2: c2, 3: (n - 2) * c2, 4: 3 * c4, 5: 2 * c3}


def kappa_one(n: int) -> KappaMap:
    """kappa_1(v_i, v_j) = t_1 for all i != j: the sum of eta family 1."""
    return _wedge_sum(n, [row for row in _eta_family_table(n) if row[0] == 1])


def kappa_two(n: int) -> KappaMap:
    """kappa_2(v_i, v_j) = sum_{k != i,j} (t_(ijk) + t_(ikj)): the sum of eta
    family 5, whose rows are the 3-cycles, each with all three of its pairs."""
    return _wedge_sum(n, [row for row in _eta_family_table(n) if row[0] == 5])


def _family_representatives(n: int) -> dict[int, EtaFamilyElement]:
    """The first element of each eta family, built from its row alone."""
    reps = {}
    for row in _eta_family_table(n):
        if row[0] not in reps:
            reps[row[0]] = EtaFamilyElement(row[0], row[1], _wedge_sum(n, [row]))
    return reps


def symmetric_natural_classify(n: int, twisted: bool) -> dict:
    """Classification report for (S_n, natural action, q = -1) with the
    spin-cover cocycle (twisted) or the trivial one.

    Runs the full cohomological pipeline, evaluates the induced-cocycle image
    on one representative per eta family (the raw, unaveraged elements), as
    the form {(g, i, j): c} of ``composition_image``,
    and, for the twisted case with n >= 5, compares the computed basis span
    against span{kappa_1, kappa_2} exactly.
    """
    if n < 4:
        raise ValueError("the symmetric-group pipeline needs n >= 4")
    _, action, q, alpha = symmetric_instance(n, twisted)
    basis = cohomological_parameter_space(action, q, alpha)

    image_table = {
        tag: {"indices": elt.indices,
              "images": composition_image(elt.kappa, action, alpha)}
        for tag, elt in sorted(_family_representatives(n).items())
    }

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


def expected_image(n: int, a: int) -> dict:
    """The closed-form induced-cocycle image of family a at every ordered
    pair, in the twisted setting with n >= 5, as ``composition_image``
    gives it, {(g, i, j): c}: (1/(n(n-1))) t_1 at each (i, j) for a = 1,
    zero for a in {2, 3, 4}, and (1/(n(n-1)(n-2))) sum_k (2 t_(ijk) +
    t_(ikj)) at each (i, j) for a = 5."""
    if a not in range(1, 6):
        raise ValueError("family tag must be 1..5")
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    if a == 1:
        return {(0, i, j): rational(Fraction(1, n * (n - 1))) for i, j in pairs}
    image: dict = {}
    if a == 5:
        _, index, _ = _symmetric_lookup(n)
        f = rational(Fraction(1, n * (n - 1) * (n - 2)))
        for i, j in pairs:
            for k in range(n):
                if k not in (i, j):
                    bump(image, (index[perm_from_cycles(n, [(i, j, k)])], i, j), f * rational(2))
                    bump(image, (index[perm_from_cycles(n, [(i, k, j)])], i, j), f)
    return image

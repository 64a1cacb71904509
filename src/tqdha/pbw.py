"""PBW condition checker, exact parameter-space solver, and an independent
Diamond-Lemma rewriting oracle for the filtered quotients H_{q,kappa,alpha}.

The two PBW conditions are linear in kappa, so the space of all valid maps is
the kernel of an explicit sparse system over the unknowns kappa_g(v_i, v_j),
g in G, i < j.  ``parameter_space_rows`` is the only place the conditions are
written down.  It is built at most twice per problem: with condition (2) at
every element, whose rows ``pbw-check`` and its witness lists use, and with
condition (2) at one representative per conjugacy class, for the solver and
for verdict-only rechecks.  The solver takes the kernel of the second with
``linalg.kernel_basis``, whose union-find pre-pass settles the one- and
two-term rows of condition (1) (for a monomial action, all of them): a
solution is a scalar multiple of one value along each G-orbit of unknowns.
The checker multiplies the rows with a kappa's coordinates.  The rewriting
oracle never looks at the conditions: it reduces the four families of
overlap words both ways and compares normal forms.

* Generators suffice for condition (1).  Condition (1) for h says that kappa
  is fixed by kappa -> t_h kappa(h^-1 ., h^-1 .) t_h^-1.  Conjugation by t_h
  is an automorphism of C^alpha G, and the alpha scalars cancel in
  t_h t_k (.) t_k^-1 t_h^-1, so acting by k and then h is acting by hk.  The
  h that fix kappa thus form a subgroup, and the rows for the generators of
  G cut out the same space as the rows for all of G.  A group that records
  no generators gets rows for every element.
* Once condition (1) holds, condition (2) at g is condition (2) at every
  conjugate hgh^-1, so one element per class suffices.  Let P in V (x) V be
  spanned by p_ab = v_a v_b - q_ab v_b v_a, and K: V (x) V -> C^alpha G the
  bilinear map v_a (x) v_b -> kappa(v_a, v_b), so K(p_ab) = 2 kappa(v_a, v_b).
  For k > j > i the tensor
      w_kji = p_kj (x) v_i - q_ji p_ki (x) v_j + q_kj q_ki p_ji (x) v_k
            = v_k (x) p_ji - q_kj v_j (x) p_ki + q_ji q_ki v_i (x) p_kj
  lies in W = (P (x) V) n (V (x) P), and Phi = K (x) 1 - 1 (x) K, with its
  products taken in T(V) # C^alpha G (where t_g v = g(v) t_g), sends it to
  twice sum_g E_g t_g, E_g in V the left side of condition (2) at (g, i, j,
  k).  The w_kji span W: a tensor x in W has x_abc = -q_ba x_bac and
  x_abc = -q_cb x_acb, and vanishes on words with a letter twice (x_aab = 0,
  x_aba = -q_ab x_aab), so its C(n, 3) coefficients on strictly decreasing
  words fix it.  The extension check makes every h preserve P, so h acts
  on W (diagonally, bijectively).  Condition (1) says
  K(h u (x) h v) = t_h K(u (x) v) t_h^-1, so Phi(h w) = t_h Phi(w) t_h^-1,
  and t_h (v t_g) t_h^-1 = h(v) t_h t_g t_h^-1 is a nonzero multiple of
  h(v) t_(hgh^-1).  Hence the t_(hgh^-1) components of Phi(W) are h applied
  to the t_g components up to a scalar: they all vanish, or none does.  So
  with condition (1) for every h (its generator rows suffice, above), the
  rows of condition (2) at class representatives cut out the same kernel,
  and a kappa passes both conditions exactly when it passes condition (1)
  and condition (2) at the representatives.
* The ttt and ttv overlap families never read kappa: their words contain at
  most one variable letter, so v_j v_i -> q_ji v_i v_j + kappa(v_j, v_i)
  never fires.  Their reports are computed once per problem.
* The solver's recheck is independent.  The checker evaluates the solver's
  own rows, so the solver re-verifies its basis with the oracle families
  ttv, tvv and vvv instead; ttt is the cocycle identity, which
  ``validate_cocycle`` checks when a problem is loaded.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from itertools import combinations, product
from operator import add
from typing import NamedTuple

from .groups import Cocycle2, FiniteGroup, GroupAlgebraElement
from .linalg import bump, kernel_basis, same_span
from .quantum import GroupAction, QMatrix, check_action_extends
from .scalars import ONE, ZERO, CyclotomicScalar, parse_scalar


class ExtensionError(ValueError):
    """The group action does not extend to S_q(V), so the PBW machinery
    does not apply."""


class CrossCheckError(ArithmeticError):
    """Two independent engines disagree on the same problem."""


class KappaMap:
    """A bilinear map kappa: V x V -> C^alpha G with the quantum antisymmetry
    kappa(v_i, v_j) = -q_ij kappa(v_j, v_i), stored on pairs i < j."""

    def __init__(self, group: FiniteGroup, n: int, q: QMatrix, values=None):
        self.group = group
        self.n = n
        self.q = q
        vals = {}
        for (i, j), elt in (values or {}).items():
            if not (0 <= i < j < n):
                raise ValueError(f"kappa values must be keyed on pairs i < j, got ({i}, {j})")
            if not elt.is_zero():
                vals[(i, j)] = elt
        self.values = vals
        self._oriented = None  # both orientations, built on the first lookup

    @staticmethod
    def zero(group: FiniteGroup, n: int, q: QMatrix) -> "KappaMap":
        return KappaMap(group, n, q)

    def value(self, i: int, j: int) -> GroupAlgebraElement:
        """kappa(v_i, v_j) for any i, j (the reversal rule fills in j < i)."""
        if self._oriented is None:
            self._oriented = dict(self.values)
            for (a, b), elt in self.values.items():
                self._oriented[(b, a)] = elt.scale(-self.q(b, a))
        elt = self._oriented.get((i, j))
        return GroupAlgebraElement.zero() if elt is None else elt

    def component(self, g: int, i: int, j: int) -> CyclotomicScalar:
        """kappa_g(v_i, v_j)."""
        return self.value(i, j).coefficient(g)

    def is_zero(self) -> bool:
        return not self.values

    def coordinates(self) -> dict:
        """Sparse coordinates {(g, i, j): scalar} over pairs i < j."""
        out = {}
        for (i, j), elt in self.values.items():
            for g, c in elt.coeffs.items():
                out[(g, i, j)] = c
        return out

    def coordinate_row(self) -> dict:
        """Same data keyed by a flat integer index (for rank computations)."""
        npairs = self.n * (self.n - 1) // 2
        out = {}
        for (g, i, j), c in self.coordinates().items():
            out[g * npairs + _pair_index(i, j, self.n)] = c
        return out

    @staticmethod
    def from_coordinates(group, n, q, coords) -> "KappaMap":
        values: dict = {}
        for (g, i, j), c in coords.items():
            if c.is_zero():
                continue
            values.setdefault((i, j), {})[g] = c
        return KappaMap(
            group, n, q, {k: GroupAlgebraElement(v) for k, v in values.items()}
        )

    def add(self, other: "KappaMap") -> "KappaMap":
        vals = dict(self.values)
        for k, elt in other.values.items():
            vals[k] = vals[k] + elt if k in vals else elt
        return KappaMap(self.group, self.n, self.q, vals)

    def scale(self, s) -> "KappaMap":
        return KappaMap(self.group, self.n, self.q, {k: v.scale(s) for k, v in self.values.items()})

    def __eq__(self, other):
        if not isinstance(other, KappaMap):
            return NotImplemented
        keys = set(self.values) | set(other.values)
        return all(self.value(i, j) == other.value(i, j) for (i, j) in keys)

    def to_records(self) -> list:
        """Serialization: one record per stored pair, 1-based indices."""
        recs = []
        for (i, j) in sorted(self.values):
            recs.append(
                {"i": i + 1, "j": j + 1, "coefficients": self.values[(i, j)].serialize()}
            )
        return recs

    @staticmethod
    def from_records(group, n, q, records) -> "KappaMap":
        values = {}
        for rec in records:
            if not (isinstance(rec, dict) and isinstance(rec.get("coefficients"), dict)
                    and isinstance(rec.get("i"), int) and isinstance(rec.get("j"), int)):
                raise ValueError(f"kappa record {rec!r} needs integer i, j and coefficients")
            i, j = rec["i"] - 1, rec["j"] - 1
            coeffs = {int(g): parse_scalar(s) for g, s in rec["coefficients"].items()}
            for g in coeffs:
                if not (0 <= g < group.size):
                    raise ValueError(f"group element index {g} out of range")
            values[(i, j)] = GroupAlgebraElement(coeffs)
        return KappaMap(group, n, q, values)


def same_space(a, b) -> bool:
    """Whether two lists of kappa maps, each meant as a basis, span the same
    space.  The lengths are compared as well, since a list with a dependent
    member can span the same space as a basis."""
    return len(a) == len(b) and same_span(
        [k.coordinate_row() for k in a], [k.coordinate_row() for k in b]
    )


def _pair_index(i: int, j: int, n: int) -> int:
    # lexicographic rank of the pair (i, j), i < j
    return i * n - i * (i + 1) // 2 + (j - i - 1)


# ---------------------------------------------------------------------------
# the condition system, built once per problem
# ---------------------------------------------------------------------------

# The per-problem caches below key on the objects themselves (QMatrix,
# GroupAction and Cocycle2 define no equality, so that is their identity),
# keep the last few problems, and hand every caller the same result, which
# no caller modifies.


@lru_cache(maxsize=8)
def extension_report(action: GroupAction, q: QMatrix) -> dict:
    """``check_action_extends(action, q)``, computed once per (action, q)."""
    return check_action_extends(action, q)


class ConditionSystem(NamedTuple):
    """Sparse rows over the unknowns x[(g, i, j)] = kappa_g(v_i, v_j), i < j,
    and one tag per row naming its equation: (1, g, h, i, j) for condition
    (1), (2, g, i, j, k, t) for the coefficient of v_t in condition (2)."""

    rows: tuple
    ncols: int
    tags: tuple


def parameter_space_rows(
    action: GroupAction, q: QMatrix, alpha: Cocycle2, elements=None
) -> ConditionSystem:
    """The homogeneous linear system whose kernel is the parameter space.

    Condition (1), for g in G, h a generator of G (see the module docstring)
    and i < j:
        alpha(h,g)/alpha(hgh^-1,h) kappa_g(v_j,v_i)
            = sum_{k<l} ddet_ijkl(h) kappa_{hgh^-1}(v_l,v_k).
    Condition (2), for g in elements (default every element, in order; one
    per conjugacy class suffices, see the module docstring) and i < j < k,
    as an equation in V:
        kappa_g(v_k,v_j)(g(v_i) - q_ji q_ki v_i)
      + kappa_g(v_k,v_i)(q_kj v_j - q_ji g(v_j))
      + kappa_g(v_j,v_i)(q_kj q_ki g(v_k) - v_k) = 0.
    A row's product with kappa's coordinates is lhs - rhs of its equation.
    Equations that hold for every kappa give no row.
    """
    G = action.group
    n = action.n
    npairs = n * (n - 1) // 2

    def unknown(g, i, j):
        return g * npairs + _pair_index(i, j, n)

    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    rows, tags = [], []
    # condition (1), with kappa_g(v_j, v_i) = -q_ji x[g, i, j]
    for h in G.generator_indices or range(G.size):
        hrows = action.rows_nz[h]
        # per pair (i, j): -q_ji and the right-hand side as (pair index of
        # (k, l), coefficient), the same for every g
        images = []
        for i, j in pairs:
            qji = q(j, i)
            image: dict = {}
            for k, hik in hrows[i]:
                for l, hjl in hrows[j]:
                    if k < l:
                        bump(image, _pair_index(k, l, n), hjl * hik * q(l, k))
            for l, hil in hrows[i]:
                for k, hjk in hrows[j]:
                    if k < l:
                        bump(image, _pair_index(k, l, n), -qji * hil * hjk * q(l, k))
            images.append((-qji, tuple(image.items())))
        for g in range(G.size):
            at_g, at_gc = g * npairs, G.conjugate(h, g) * npairs
            ratio = alpha.conj_ratio(h, g)
            for p, (minus_qji, image) in enumerate(images):
                row: dict = {at_g + p: ratio * minus_qji}
                for kl, c in image:
                    bump(row, at_gc + kl, c)
                if row:
                    rows.append(row)
                    tags.append((1, g, h, *pairs[p]))
    # condition (2): n coefficient equations per (g, i<j<k)
    for g in range(G.size) if elements is None else elements:
        m = action.mats[g]
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(j + 1, n):
                    qji, qki, qkj = q(j, i), q(k, i), q(k, j)
                    for t in range(n):
                        row = {}
                        bump(row, unknown(g, j, k),
                             (-qkj) * (m[i][t] - (qji * qki if t == i else ZERO)))
                        bump(row, unknown(g, i, k),
                             (-qki) * ((qkj if t == j else ZERO) - qji * m[j][t]))
                        bump(row, unknown(g, i, j),
                             (-qji) * (qkj * qki * m[k][t] - (ONE if t == k else ZERO)))
                        if row:
                            rows.append(row)
                            tags.append((2, g, i, j, k, t))
    return ConditionSystem(tuple(rows), G.size * npairs, tuple(tags))


def condition_system(
    action: GroupAction, q: QMatrix, alpha: Cocycle2, representatives: bool = False
) -> ConditionSystem:
    """``parameter_space_rows`` of the problem, built once per kind and
    shared by the solver, the checker and repeated calls.  With
    ``representatives`` condition (2) is written at one element of each
    conjugacy class only (its least), which cuts out the same kernel (see
    the module docstring); when every class is a single element that is the
    exhaustive system, and the same object is returned.  Raises
    ExtensionError when the action does not extend to S_q(V)."""
    classes = action.group.conjugacy_classes()
    elements = None
    if representatives and len(classes) < action.group.size:
        elements = tuple(cls[0] for cls in classes)
    return _condition_system(action, q, alpha, elements)


@lru_cache(maxsize=8)
def _condition_system(action, q, alpha, elements) -> ConditionSystem:
    rep = extension_report(action, q)
    if not rep["symmetric"]:
        raise ExtensionError(
            f"action does not extend to S_q(V); witnesses {rep['symmetric_witnesses']}"
        )
    return parameter_space_rows(action, q, alpha, elements)


# the violation fields named by a row tag, by condition
_TAG_FIELDS = {
    1: ("condition", "g", "h", "i", "j"),
    2: ("condition", "g", "i", "j", "k", "coefficient_of"),
}


def check_pbw_conditions(
    kappa: KappaMap,
    action: GroupAction,
    q: QMatrix,
    alpha: Cocycle2,
    max_witnesses: int = 10,
    representatives: bool = False,
) -> dict:
    """Evaluate both PBW conditions exactly: the product of every row of the
    condition system (``parameter_space_rows``) with kappa's coordinates.
    A nonzero product is a violation, named by the row's tag, with the
    product as its defect.  Condition-(1) violations name generators h only.

    With ``representatives`` the rows of condition (2) are those at class
    representatives only.  Then ``passed`` is still the exhaustive verdict
    (a kappa that fails condition (1) fails both ways, and one that satisfies
    it fails condition (2) at g exactly when it fails at g's class
    representative), but ``condition2`` and the violations may differ.
    """
    system = condition_system(action, q, alpha, representatives)
    x = kappa.coordinate_row()
    report = {"condition1": True, "condition2": True, "violations": []}
    for row, tag in zip(system.rows, system.tags):
        terms = [c * x[col] for col, c in row.items() if col in x]
        if not terms:
            continue
        defect = reduce(add, terms)
        if defect.is_zero():
            continue
        report[f"condition{tag[0]}"] = False
        if len(report["violations"]) < max_witnesses:
            violation = dict(zip(_TAG_FIELDS[tag[0]], tag), defect=defect.serialize())
            report["violations"].append(violation)
    report["passed"] = report["condition1"] and report["condition2"]
    return report


def solve_parameter_space(
    action: GroupAction, q: QMatrix, alpha: Cocycle2, recheck: bool = True
) -> list[KappaMap]:
    """Kernel basis of the PBW condition system, as KappaMaps.  Unless
    disabled, every basis element is re-verified by the rewriting oracle's
    families ttv, tvv and vvv, which do not use the rows."""
    system = condition_system(action, q, alpha, representatives=True)
    G = action.group
    n = action.n
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    basis = []
    for vec in kernel_basis(system.rows, system.ncols):
        coords = {}
        for idx, c in enumerate(vec):
            if not c.is_zero():
                g, rem = divmod(idx, len(pairs))
                coords[(g, *pairs[rem])] = c
        basis.append(KappaMap.from_coordinates(G, n, q, coords))
    if recheck:
        for kappa in basis:
            rep = verify_ambiguities(kappa, action, q, alpha, families=RECHECK_FAMILIES)
            if not rep["resolvable"]:
                raise CrossCheckError(
                    "solver produced a kappa with unresolvable overlaps; "
                    f"witnesses {rep['witnesses'][:3]}"
                )
    return basis


# ---------------------------------------------------------------------------
# Diamond-Lemma rewriting oracle
# ---------------------------------------------------------------------------
#
# Words live in the free algebra on {v_0..v_{n-1}} u {t_g | g in G}; a letter
# is an int: 0 <= x < n is the variable v_x, and n + g is t_g.  The three
# reduction families are
#     t_g v_i  ->  g(v_i) t_g
#     t_g t_h  ->  alpha(g, h) t_{gh}
#     v_j v_i  ->  q_ji v_i v_j + kappa(v_j, v_i)      (j > i)
# applied leftmost-outermost.  Irreducible words are ascending variable runs
# followed by at most one group letter; words that never contained a group
# letter normalize with group component None.


def word_letters(word, n: int):
    """Public word format: sequence of ('v', i) / ('t', g) pairs -> ints."""
    out = []
    for kind, idx in word:
        if kind == "v":
            if not (0 <= idx < n):
                raise ValueError(f"variable index {idx} out of range")
            out.append(idx)
        elif kind == "t":
            out.append(n + idx)
        else:
            raise ValueError(f"unknown letter kind {kind!r}")
    return tuple(out)


def _first_redex(letters, n: int):
    for p in range(len(letters) - 1):
        a, b = letters[p], letters[p + 1]
        if a >= n:
            return p  # t v or t t
        if b < n and a > b:
            return p  # v_j v_i with j > i
    return None


def _apply_rule(letters, p: int, n: int, kappa, action, q, alpha):
    """Rewrite the pair at position p; returns a list of (coeff, letters)."""
    a, b = letters[p], letters[p + 1]
    head, tail = letters[:p], letters[p + 2 :]
    out = []
    if a >= n and b >= n:
        g, h = a - n, b - n
        out.append((alpha(g, h), head + (n + action.group.mult[g][h],) + tail))
    elif a >= n:
        g, i = a - n, b
        for k, c in action.rows_nz[g][i]:
            out.append((c, head + (k, a) + tail))
    else:
        j, i = a, b
        out.append((q(j, i), head + (i, j) + tail))
        if kappa is not None:
            for g, c in kappa.value(j, i).coeffs.items():
                out.append((c, head + (n + g,) + tail))
    return out


def normal_form_reduce(word, kappa, action: GroupAction, q: QMatrix, alpha: Cocycle2):
    """Reduce a word (or list of (coeff, word) pairs) to its normal form.

    Returns a dict {(gamma, g_or_None): scalar}: gamma is the exponent tuple
    of the ascending variable run and g the trailing group letter, or None if
    the word carries no group letter.  Each kappa-rule application drops the
    variable degree by two, so the implicit deformation-parameter exponent of
    a term is (input degree - |gamma|) / 2.
    """
    n = action.n
    if not word or isinstance(word[0][0], str):
        word = [(ONE, word)]
    terms = [(c, word_letters(w, n)) for c, w in word]
    out = {}
    # an irreducible word is fixed by its variable exponents and group letter
    for letters, c in _reduce_letter_terms(terms, n, kappa, action, q, alpha).items():
        gpart = letters[-1] - n if letters and letters[-1] >= n else None
        out[(tuple(letters.count(x) for x in range(n)), gpart)] = c
    return out


def _reduce_letter_terms(terms, n, kappa, action, q, alpha):
    out: dict = {}
    work = list(terms)
    while work:
        coeff, letters = work.pop()
        p = _first_redex(letters, n)
        if p is None:
            bump(out, letters, coeff)
            continue
        for c, w in _apply_rule(letters, p, n, kappa, action, q, alpha):
            v = coeff * c
            if not v.is_zero():
                work.append((v, w))
    return out


FAMILIES = ("ttt", "ttv", "tvv", "vvv")
# overlap words with at most one variable letter: the kappa rule never fires
KAPPA_FREE = ("ttt", "ttv")
RECHECK_FAMILIES = ("ttv", "tvv", "vvv")


def _overlap_words(family: str, G: FiniteGroup, n: int):
    """The overlap words of one family, as (letters, witness tag)."""
    if family == "ttt":
        for g, h, k in product(range(G.size), repeat=3):
            yield (n + g, n + h, n + k), ("ttt", g, h, k)
    elif family == "ttv":
        for g, h, i in product(range(G.size), range(G.size), range(n)):
            yield (n + g, n + h, i), ("ttv", g, h, i)
    elif family == "tvv":
        for h, (i, j) in product(range(G.size), combinations(range(n), 2)):
            yield (n + h, j, i), ("tvv", h, j, i)
    elif family == "vvv":
        for i, j, k in combinations(range(n), 3):
            yield (k, j, i), ("vvv", k, j, i)


def _family_report(family, kappa, action, q, alpha, max_witnesses) -> dict:
    n = action.n
    report = {"resolvable": True, "checked": 0, "witnesses": []}
    for letters, tag in _overlap_words(family, action.group, n):
        left, right = (
            _reduce_letter_terms(
                _apply_rule(letters, p, n, kappa, action, q, alpha), n, kappa, action, q, alpha
            )
            for p in (0, 1)
        )
        report["checked"] += 1
        if left != right:
            report["resolvable"] = False
            if len(report["witnesses"]) < max_witnesses:
                report["witnesses"].append(tag)
    return report


@lru_cache(maxsize=32)
def _kappa_free_report(family, action, q, alpha, max_witnesses) -> dict:
    return _family_report(family, None, action, q, alpha, max_witnesses)


def verify_ambiguities(
    kappa, action: GroupAction, q: QMatrix, alpha: Cocycle2, families=None, max_witnesses: int = 5
) -> dict:
    """Resolve every overlap ambiguity of the reduction system both ways and
    compare normal forms.  The overlap words are t_g t_h t_k, t_g t_h v_i,
    t_h v_j v_i (j > i) and v_k v_j v_i (k > j > i), each reduced once
    starting at the left overlap and once at the right.  The families run
    in that order whatever the order of ``families``; the kappa-free ttt and
    ttv reports are computed once per problem (see the module docstring).
    """
    families = families or FAMILIES
    parts = [
        _kappa_free_report(family, action, q, alpha, max_witnesses)
        if family in KAPPA_FREE
        else _family_report(family, kappa, action, q, alpha, max_witnesses)
        for family in FAMILIES
        if family in families
    ]
    return {
        "resolvable": all(p["resolvable"] for p in parts),
        "checked": sum(p["checked"] for p in parts),
        "witnesses": [w for p in parts for w in p["witnesses"]][:max_witnesses],
    }

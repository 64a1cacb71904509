"""Second paths that the tests compare the package against.

The package ships the routes that decide the PBW property (the condition
checker with the direct solver, the rewriting oracle, the cohomology
pipeline) and nothing the routes do not call.  What the tests need beyond
that lives here: an action's matrices in dense form and back (``dense``,
``sparse_rows``), the twisted group algebra C^alpha G
(``GroupAlgebraElement``, ``tga_multiply``), a kappa's value at any pair of
variables (``value``) and a bilinear form {(g, i, j): c}'s value at one
pair (``pair_value``), the skew group algebra S_q(V) #_a G multiplied term
by term, the quantum minors of the paper's condition (1), the
exhaustive condition system, the word reducer with kappa
(``rewrite_pair``, ``reduce_terms``, ``normal_form_reduce``), the diagonal
theory's C_g membership and the spin cocycle read off one Clifford product
at a time.  The exhaustive system is written with the package's own
per-site writers, which ``test_pbw`` checks against the paper's formulas;
the others are written from their definitions, so the word reducer shares
no code with the package's rewriting engine.
"""

from operator import add

from tqdha.cohomology import Cochain
from tqdha.groups import FiniteGroup, perm_compose
from tqdha.linalg import SparseSum, bump
from tqdha.pbw import ConditionSystem, _ConditionSites, _require_extension
from tqdha.quantum import GroupAction, QMatrix, reorder_factor
from tqdha.scalars import MINUS_ONE, ONE, ZERO, CyclotomicScalar
from tqdha.spin import clifford_multiply, section_u

# ---------------------------------------------------------------------------
# an action's matrices, dense
# ---------------------------------------------------------------------------


def dense(action: GroupAction, g: int) -> list:
    """The n x n matrix of g, read from its sparse rows: the form the dense
    references index as m[i][k]."""
    m = [[ZERO] * action.n for _ in range(action.n)]
    for i, row in enumerate(action.rows_nz[g]):
        for k, x in row:
            m[i][k] = x
    return m


def sparse_rows(mats) -> tuple:
    """The rows ``GroupAction`` takes, from one dense matrix per element: row
    i of a matrix as the (k, entry) pairs of its nonzero entries."""
    return tuple(tuple(tuple((k, x) for k, x in enumerate(row) if not x.is_zero()) for row in m)
                 for m in mats)


# ---------------------------------------------------------------------------
# elements of the twisted group algebra C^alpha G, and a kappa's values
# ---------------------------------------------------------------------------


class GroupAlgebraElement(SparseSum):
    """Finite scalar combination sum_g c_g t_g; zero coefficients are pruned."""

    __slots__ = ()

    @staticmethod
    def basis(g: int) -> "GroupAlgebraElement":
        return GroupAlgebraElement({g: ONE})

    @staticmethod
    def zero() -> "GroupAlgebraElement":
        return GroupAlgebraElement({})

    def __repr__(self):
        if not self.coeffs:
            return "<0>"
        parts = [f"({c.serialize()})t{g}" for g, c in sorted(self.coeffs.items())]
        return "<" + " + ".join(parts) + ">"

    def serialize(self) -> dict:
        return {str(g): c.serialize() for g, c in sorted(self.coeffs.items())}


def value(kappa, i: int, j: int) -> GroupAlgebraElement:
    """kappa(v_i, v_j) for any i, j, read from the coordinates at i < j:
    the quantum antisymmetry kappa(v_i, v_j) = -q_ij kappa(v_j, v_i) fills
    in j < i, and gives kappa(v_i, v_i) = 0."""
    if i > j:
        return value(kappa, j, i).scale(-kappa.q(i, j))
    return pair_value(kappa.coeffs, i, j)


def pair_value(form: dict, i: int, j: int) -> GroupAlgebraElement:
    """The value at (v_i, v_j) of a bilinear form held as {(g, i, j): c},
    the coefficient of t_g at each ordered pair (the layout of
    ``KappaMap.coeffs`` and of ``cohomology.composition_image``)."""
    return GroupAlgebraElement({g: c for (g, a, b), c in form.items() if (a, b) == (i, j)})


# ---------------------------------------------------------------------------
# the skew group algebra S_q(V) #_a G
# ---------------------------------------------------------------------------


class SkewElement(SparseSum):
    """Element of S_q(V) #_a G: finite sum of normally ordered monomials
    v^gamma t_g with scalar coefficients."""

    __slots__ = ()

    @staticmethod
    def monomial(gamma, g: int, coeff=ONE) -> "SkewElement":
        return SkewElement({(tuple(gamma), g): coeff})

    @staticmethod
    def variable(i: int, n: int, g: int = 0) -> "SkewElement":
        gamma = tuple(1 if j == i else 0 for j in range(n))
        return SkewElement({(gamma, g): ONE})

    @staticmethod
    def group_unit(g: int, n: int) -> "SkewElement":
        return SkewElement({((0,) * n, g): ONE})

    def __repr__(self):
        if not self.coeffs:
            return "<0>"
        parts = []
        for (gamma, g), c in sorted(self.coeffs.items()):
            mono = "".join(f"v{i}^{e}" for i, e in enumerate(gamma) if e)
            parts.append(f"({c.serialize()}){mono or '1'}t{g}")
        return "<" + " + ".join(parts) + ">"


def qsym_multiply(a: SkewElement, b: SkewElement, q: QMatrix) -> SkewElement:
    """Product in S_q(V); both operands must have trivial group part."""
    out: dict = {}
    for (ga, gca), ca in a.coeffs.items():
        if gca != 0:
            raise ValueError("qsym_multiply expects elements of S_q(V) (group part t_1)")
        for (gb, gcb), cb in b.coeffs.items():
            if gcb != 0:
                raise ValueError("qsym_multiply expects elements of S_q(V) (group part t_1)")
            key = (tuple(x + y for x, y in zip(ga, gb)), 0)
            bump(out, key, ca * cb * reorder_factor(ga, gb, q))
    return a._like(out)


def act_monomial(action: GroupAction, q: QMatrix, g: int, gamma) -> dict:
    """g(v^gamma) expanded and normally ordered in S_q(V); returns a dict
    mapping exponent tuples to scalars."""
    n = action.n
    units = [tuple(int(t == k) for t in range(n)) for k in range(n)]
    acc: dict = {(0,) * n: ONE}
    for i, e in enumerate(gamma):
        for _ in range(e):
            nxt: dict = {}
            for gam, c in acc.items():
                for k, m in action.rows_nz[g][i]:
                    e_k = units[k]
                    bump(nxt, tuple(map(add, gam, e_k)), c * m * reorder_factor(gam, e_k, q))
            acc = nxt
    return acc


def skew_multiply(a: SkewElement, b: SkewElement, action: GroupAction, q: QMatrix, alpha) -> SkewElement:
    """(x t_g)(y t_h) = alpha(g, h) x . g(y) t_{gh}, normally ordered."""
    G = action.group
    out: dict = {}
    for (ga, g), ca in a.coeffs.items():
        for (gb, h), cb in b.coeffs.items():
            scale = ca * cb * alpha(g, h)
            gh = G.mult[g][h]
            acted = act_monomial(action, q, g, gb)
            for gam, c in acted.items():
                key = (tuple(x + y for x, y in zip(ga, gam)), gh)
                bump(out, key, scale * c * reorder_factor(ga, gam, q))
    return a._like(out)


def quantum_minor(g: int, action: GroupAction, q: QMatrix, i: int, j: int, k: int, l: int) -> CyclotomicScalar:
    """ddet_ijkl(g) = g^j_l g^i_k - q(j, i) g^i_l g^j_k (0-based indices)."""
    m = dense(action, g)
    return m[j][l] * m[i][k] - q(j, i) * m[i][l] * m[j][k]


# ---------------------------------------------------------------------------
# the twisted group algebra C^alpha G and the classes of G
# ---------------------------------------------------------------------------


def tga_multiply(x: GroupAlgebraElement, y: GroupAlgebraElement, alpha) -> GroupAlgebraElement:
    """Bilinear extension of t_g t_h = alpha(g, h) t_{gh}."""
    mult = alpha.group.mult
    out: dict = {}
    for g, cg in x.coeffs.items():
        for h, ch in y.coeffs.items():
            bump(out, mult[g][h], cg * ch * alpha(g, h))
    return x._like(out)


def tga_inverse_of_basis(g: int, alpha) -> GroupAlgebraElement:
    """(t_g)^-1 = alpha(g, g^-1)^-1 t_{g^-1}."""
    inv = alpha.group.inv[g]
    return GroupAlgebraElement({inv: alpha(g, inv).inverse()})


def conjugacy_classes(group: FiniteGroup) -> list:
    """Classes as sorted tuples, ordered by least element (read from
    ``class_data``)."""
    members: dict = {}
    for g, c in enumerate(group.class_data.rep):
        members.setdefault(c, []).append(g)
    return [tuple(m) for m in members.values()]


def constant_two(n: int, g: int, r: int, s: int, coeff=ONE) -> Cochain:
    """The cochain t_g (x) v_r* ^ v_s* with r < s."""
    beta = tuple(1 if t in (r, s) else 0 for t in range(n))
    return Cochain(n, 2, {((0,) * n, g, beta): coeff})


# ---------------------------------------------------------------------------
# the PBW conditions and the rewriting system
# ---------------------------------------------------------------------------


def exhaustive_rows(action: GroupAction, q: QMatrix, alpha) -> ConditionSystem:
    """The exhaustive condition system, whether or not the action extends:
    condition (1) at (h, g) for each generator h of G (every element when
    the group records none) and every g, then condition (2) at every g, each
    site as ``pbw._ConditionSites`` writes it, g's unknowns at column
    g * npairs.  The solver's system keeps the unknowns at class
    representatives only; this one is what the checker's rows come from."""
    G = action.group
    sites = _ConditionSites(action, q, alpha)
    order = [(1, h, g) for h in G.generator_indices or range(G.size) for g in range(G.size)]
    order += [(2, g) for g in range(G.size)]
    entries = [entry for site in order for entry in sites.rows(site)]
    return ConditionSystem(tuple(row for row, _ in entries), G.size * sites.npairs,
                           tuple(tag for _, tag in entries))


def condition_system(action: GroupAction, q: QMatrix, alpha) -> ConditionSystem:
    """``exhaustive_rows``; raises ExtensionError when the action does not
    extend to S_q(V)."""
    _require_extension(action, q)
    return exhaustive_rows(action, q, alpha)


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


def rewrite_pair(letters, p: int, kappa, action: GroupAction, q: QMatrix, alpha) -> list:
    """The word (ints: v_i is i, t_g is n + g) with its letters p and p + 1
    rewritten by their rule, as (coefficient, letters) pairs:
        t_g t_h  ->  alpha(g, h) t_(gh)
        t_g v_i  ->  sum_k g^i_k v_k t_g           (row i of g's dense matrix)
        v_j v_i  ->  q_ji v_i v_j + kappa(v_j, v_i)   (j > i)."""
    n, G = action.n, action.group
    a, b = letters[p], letters[p + 1]
    head, tail = letters[:p], letters[p + 2:]
    if a >= n and b >= n:
        return [(alpha(a - n, b - n), head + (n + G.mult[a - n][b - n],) + tail)]
    if a >= n:
        row = dense(action, a - n)[b]
        return [(row[k], head + (k, a) + tail) for k in range(n) if not row[k].is_zero()]
    return [(q(a, b), head + (b, a) + tail)] + [
        (c, head + (n + g,) + tail) for g, c in value(kappa, a, b).coeffs.items()]


def reduce_terms(terms, kappa, action: GroupAction, q: QMatrix, alpha) -> dict:
    """The sum of the normal forms of (coefficient, letters) terms, as
    {letters: scalar}: each term is rewritten at its leftmost pair t x or
    v_j v_i (j > i) by ``rewrite_pair`` until it has none."""
    n, out, work = action.n, {}, list(terms)
    while work:
        coeff, letters = work.pop()
        p = next((p for p in range(len(letters) - 1)
                  if letters[p] >= n or letters[p + 1] < letters[p]), None)
        if p is None:
            bump(out, letters, coeff)
        else:
            work += [(coeff * c, w) for c, w in rewrite_pair(letters, p, kappa, action, q, alpha)]
    return out


def normal_form_reduce(word, kappa, action: GroupAction, q: QMatrix, alpha):
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
    for letters, c in reduce_terms(terms, kappa, action, q, alpha).items():
        gpart = letters[-1] - n if letters and letters[-1] >= n else None
        out[(tuple(letters.count(x) for x in range(n)), gpart)] = c
    return out


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


def cg_membership(gamma, g: int, action: GroupAction, q: QMatrix) -> bool:
    """Whether gamma (entries in N union {-1}) lies in C_g: for every i,
    either gamma_i = -1 or prod_s q_is^gamma_s = lambda_{g,i}."""
    lam = action.eigenvalue_table()
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

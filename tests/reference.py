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
exhaustive condition system, the overlap words of every family in the
oracle's order (``overlap_words``; the oracle writes no word of ttt and
ttv), the word reducer with kappa
(``rewrite_pair``, ``reduce_terms``, ``normal_form_reduce``), the
Diamond-Lemma system of the overlap words (``rewriting_rows``) and the
kernel dimension of a system mod a prime (``nullity_mod``), the diagonal
theory's C_g membership, and the Clifford model of the spin cover over
Q(zeta_8) (``CliffordElement``, ``section_u``) with the spin cocycle read
off one of its products at a time.  The exhaustive system is written with the package's own
per-site writers, which ``test_pbw`` checks against the paper's formulas;
the others are written from their definitions, so the word reducer shares
no code with the package's rewriting engine, and the dimension mod p runs
no scalar arithmetic and no ``linalg``.
"""

from functools import lru_cache
from itertools import combinations, product
from math import isqrt, lcm
from operator import add

from tqdha.cohomology import Cochain
from tqdha.groups import FiniteGroup, perm_compose
from tqdha.linalg import SparseSum, bump
from tqdha.pbw import ConditionSystem, _ConditionSites, _OverlapTable, _overlap_words, _require_extension
from tqdha.quantum import GroupAction, QMatrix, reorder_factor
from tqdha.scalars import MINUS_ONE, ONE, ZERO, CyclotomicScalar, rational, root_of_unity
from tqdha.spin import section_factors

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


def rewriting_rows(action: GroupAction, q: QMatrix, alpha) -> ConditionSystem:
    """The Diamond-Lemma system: per overlap word of the tvv and vvv families
    at generators (``pbw._OverlapTable``, whose columns reduce the words'
    kappa terms) and per monomial of its normal forms, the row of that
    monomial's coefficient in left minus right, linear in the unknowns
    x[g, i, j] at ``condition_system``'s columns g * npairs + (rank of (i, j)).
    Tags are (family, word number, monomial).  The words of ttt and ttv read
    no kappa.  A word that fails at kappa = 0 fails for every kappa, and then
    there is no homogeneous system: that raises ValueError.

    When ttt and ttv resolve, the kernel is the parameter space: a kappa
    gives a PBW algebra exactly when every overlap resolves (the Diamond
    Lemma), and the words at generators decide that (``pbw``'s module
    docstring)."""
    G, n = action.group, action.n
    pairs = list(combinations(range(n), 2))
    rows: dict = {}  # (family, word number, monomial) -> {column: scalar}
    for family in ("tvv", "vvv"):
        table = action.derived(_OverlapTable, q, alpha, family, False)
        if table.fixed:
            raise ValueError(f"{family} words fail for every kappa: {table.tags[min(table.fixed)]}")
        for g in range(G.size):
            for p, (i, j) in enumerate(pairs):
                for w, entries in table.column(action, g, i, j):
                    for letters, c in entries:
                        rows.setdefault((family, w, letters), {})[g * len(pairs) + p] = c
    return ConditionSystem(tuple(rows.values()), G.size * len(pairs), tuple(rows))


# ---------------------------------------------------------------------------
# the kernel dimension mod a prime
# ---------------------------------------------------------------------------
#
# Let N be a multiple of every entry's order, p a prime with p = 1 mod N and
# D the product of the entries' denominators, prime to p.  Sending zeta_N to
# a primitive N-th root w mod p is a ring map Z[zeta_N][1/D] -> F_p: as N
# divides p - 1, x^N - 1 has N distinct roots in F_p, the primitive ones
# being the roots of Phi_N, and zeta_d = zeta_N^(N/d) goes to w^(N/d), a
# root of Phi_d, whatever representative mod Phi_d a scalar holds.  A minor
# of a matrix over that ring that is nonzero mod p is nonzero, so the rank
# mod p is at most the rank over Q(zeta_N), and ncols - rank mod p is at
# least the kernel's dimension.  When it equals the number of independent
# vectors known to lie in the kernel, they span it.  A larger value is
# inconclusive: a kernel vector is missing, or p is one of the finitely many
# primes where the rank drops.


def _is_prime(p: int) -> bool:
    return p > 1 and all(p % d for d in range(2, isqrt(p) + 1))


def prime_for(N: int, dens) -> int:
    """The first prime p = 1 mod N above 2^31 that divides none of dens."""
    p = 2 ** 31 + 1 + (-2 ** 31) % N
    while not (_is_prime(p) and all(d % p for d in dens)):
        p += N
    return p


@lru_cache(maxsize=None)
def _root_mod(p: int, N: int) -> int:
    """The first a^((p-1)/N), a = 1, 2, ..., of multiplicative order N mod p."""
    primes = [l for l in range(2, N + 1) if N % l == 0 and _is_prime(l)]
    for a in range(1, p):
        w = pow(a, (p - 1) // N, p)
        if all(pow(w, N // l, p) != 1 for l in primes):
            return w
    raise ValueError(f"no element of order {N} mod {p}")


def reduce_mod(x: CyclotomicScalar, p: int, N: int) -> int:
    """x's image in F_p, zeta_N sent to ``_root_mod(p, N)``, read from its
    ``order``, ``coeffs`` and ``den`` alone.  Refuses a p that is not 1 mod
    N, an x whose order does not divide N, and a p that divides x's
    denominator, where x has no image."""
    if (p - 1) % N or N % x.order:
        raise ValueError(f"zeta_{x.order} has no image mod {p} through zeta_{N}")
    if x.den % p == 0:
        raise ValueError(f"the prime {p} divides the denominator {x.den}")
    w = pow(_root_mod(p, N), N // x.order, p)
    return sum(c * pow(w, k, p) for k, c in enumerate(x.coeffs)) * pow(x.den, -1, p) % p


def rank_mod(rows, p: int) -> int:
    """The rank over F_p of sparse rows {column: int}.  Each row is reduced
    at its least column by the pivot row there, until it is zero or meets a
    column with no pivot; then it becomes that column's pivot row, scaled to
    1 there.  A pivot row is zero before its column, so each step clears the
    row's least column and writes none before it."""
    pivots: dict = {}  # column -> its pivot row
    for row in rows:
        r = {c: v % p for c, v in row.items() if v % p}
        while r:
            c = min(r)
            pivot = pivots.get(c)
            if pivot is None:
                inverse = pow(r[c], -1, p)
                pivots[c] = {k: v * inverse % p for k, v in r.items()}
                break
            f = r[c]
            for k, v in pivot.items():
                x = (r.get(k, 0) - f * v) % p
                if x:
                    r[k] = x
                else:
                    r.pop(k, None)
    return len(pivots)


def nullity_mod(system: ConditionSystem, p: int | None = None) -> int:
    """ncols - rank mod p of the system's rows, N the lcm of the entries'
    orders and p the given prime, or else ``prime_for`` N and the entries'
    denominators: at least the dimension of the kernel (above)."""
    entries = [x for row in system.rows for x in row.values()]
    N = lcm(1, *{x.order for x in entries})
    if p is None:
        p = prime_for(N, {x.den for x in entries})
    return system.ncols - rank_mod(
        [{c: reduce_mod(x, p, N) for c, x in row.items()} for row in system.rows], p)


def overlap_words(family: str, G: FiniteGroup, n: int, letters):
    """The overlap words of one family, as (letters, witness tag), in the
    oracle's word order.  The last group letter of a word (t_k, t_h and t_h
    in t_g t_h t_k, t_g t_h v_i and t_h v_j v_i) ranges over ``letters``,
    every other group letter over all of G.  The oracle decides ttt and ttv
    in closed form without writing a word, so they are written here; tvv
    and vvv are ``pbw._overlap_words``'."""
    elements = range(G.size)
    if family == "ttt":
        return (((n + g, n + h, n + k), ("ttt", g, h, k))
                for g, h, k in product(elements, elements, letters))
    if family == "ttv":
        return (((n + g, n + h, i), ("ttv", g, h, i))
                for g, h, i in product(elements, letters, range(n)))
    return _overlap_words(family, n, letters)


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


# ---------------------------------------------------------------------------
# the Clifford model of the spin cover over Q(zeta_8)
# ---------------------------------------------------------------------------


def sqrt2() -> CyclotomicScalar:
    """sqrt(2) = zeta_8 + zeta_8^-1 as an element of Q(zeta_8)."""
    return root_of_unity(8, 1) + root_of_unity(8, 7)


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


def _blade_product(S: tuple, T: tuple):
    """e_S e_T as (sign, blade), by the relations themselves: sort the word
    S + T by adjacent swaps of distinct generators, each a factor -1, and
    cancel each adjacent pair e_i e_i = 1."""
    word, sign, i = list(S + T), 1, 0
    while i < len(word) - 1:
        if word[i] == word[i + 1]:
            del word[i:i + 2]
            i = max(i - 1, 0)
        elif word[i] > word[i + 1]:
            word[i], word[i + 1] = word[i + 1], word[i]
            sign, i = -sign, max(i - 1, 0)
        else:
            i += 1
    return sign, tuple(word)


def clifford_multiply(x: CliffordElement, y: CliffordElement) -> CliffordElement:
    if x.n != y.n:
        raise ValueError("operands live in Clifford algebras of different rank")
    out: dict = {}
    for S, cs in x.coeffs.items():
        for T, ct in y.coeffs.items():
            sign, blade = _blade_product(S, T)
            bump(out, blade, cs * ct if sign > 0 else -(cs * ct))
    return x._like(out)


@lru_cache(maxsize=None)
def _inv_sqrt2() -> CyclotomicScalar:
    """1/sqrt(2), built once: a constant, read by every lift."""
    return sqrt2() / rational(2)


def transposition_lift(r: int, s: int, n: int) -> CliffordElement:
    """The distinguished lift [rs] = (e_r - e_s)/sqrt(2) of the transposition
    (r s); the defining recursion [rs] = t_r [r+1 s] t_r z (r < s-1) and
    [rs] = [sr] z (r > s) collapses to this closed form."""
    if r == s:
        raise ValueError("transposition needs two distinct points")
    if not (0 <= r < n and 0 <= s < n):
        raise ValueError("indices out of range")
    c = _inv_sqrt2()
    return CliffordElement(n, {(r,): c, (s,): -c})


def transposition_lift_recursive(r: int, s: int, n: int) -> CliffordElement:
    """[rs] computed literally by the defining recursion."""
    if r == s:
        raise ValueError("transposition needs two distinct points")
    if r > s:
        return transposition_lift_recursive(s, r, n).scale(MINUS_ONE)
    if s == r + 1:
        return transposition_lift(r, s, n)
    t_r = transposition_lift_recursive(r, r + 1, n)
    inner = transposition_lift_recursive(r + 1, s, n)
    return clifford_multiply(clifford_multiply(t_r, inner), t_r).scale(MINUS_ONE)


def _lift_product(factors, n: int) -> CliffordElement:
    """The product of the lifts [rs] over the factors (r, s), in order."""
    out = CliffordElement.scalar(n, ONE)
    for r, s in factors:
        out = clifford_multiply(out, transposition_lift(r, s, n))
    return out


def section_u(sigma: tuple, n: int | None = None) -> CliffordElement:
    """The section u_sigma of the covering projection, as a Clifford element."""
    n = len(sigma) if n is None else n
    return _lift_product(section_factors(sigma), n)


def section_u_inverse(sigma: tuple, n: int | None = None) -> CliffordElement:
    """u_sigma^-1: transposition lifts square to 1, so reverse the factors."""
    n = len(sigma) if n is None else n
    return _lift_product(reversed(section_factors(sigma)), n)


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

"""The quantum symmetric algebra S_q(V), the twisted skew group algebra
S_q(V) #_a G, linear group actions on them, and quantum minor determinants.

Conventions.  Variables are 0-based.  A monomial exponent is a tuple gamma of
n nonnegative integers standing for v_0^g0 ... v_{n-1}^g(n-1); normally
ordered monomials v^gamma t_g form the canonical basis of the skew algebra.
Action matrices follow the row convention g(v_i) = sum_k M[g][i][k] v_k, so
matrices compose as M[gh] = M[h] . M[g].
"""

from __future__ import annotations

from itertools import combinations, combinations_with_replacement
from operator import add

from .groups import Cocycle2, FiniteGroup, _walk
from .linalg import SparseSum, bump
from .scalars import ONE, ZERO, CyclotomicScalar, parse_scalar, rational


class ActionError(ValueError):
    """A group action table is inconsistent or does not extend."""


class QMatrixError(ValueError):
    """A quantum parameter matrix violates q_ii = 1 or q_ji = q_ij^-1."""


class QMatrix:
    """Tuple of nonzero scalars q_ij with q_ii = 1 and q_ji = q_ij^-1."""

    def __init__(self, entries):
        self.n = len(entries)
        self.q = tuple(tuple(row) for row in entries)
        for i in range(self.n):
            if len(self.q[i]) != self.n:
                raise QMatrixError("q matrix must be square")
            if not self.q[i][i].is_one():
                raise QMatrixError(f"q[{i}][{i}] must be 1")
            for j in range(self.n):
                if self.q[i][j].is_zero():
                    raise QMatrixError(f"q[{i}][{j}] is zero")
                if not (self.q[i][j] * self.q[j][i]).is_one():
                    raise QMatrixError(f"q[{j}][{i}] is not the inverse of q[{i}][{j}]")

    def __call__(self, i: int, j: int) -> CyclotomicScalar:
        return self.q[i][j]

    @staticmethod
    def uniform(n: int, value) -> "QMatrix":
        """All off-diagonal entries equal to value (which must be +-1 to keep
        q_ji = q_ij^-1 automatic; other constants are rejected by validation
        unless self-inverse)."""
        v = value if isinstance(value, CyclotomicScalar) else rational(value)
        rows = [[ONE if i == j else v for j in range(n)] for i in range(n)]
        return QMatrix(rows)

    @staticmethod
    def from_strings(rows) -> "QMatrix":
        return QMatrix([[parse_scalar(s) for s in row] for row in rows])

    def serialize(self):
        return [[self.q[i][j].serialize() for j in range(self.n)] for i in range(self.n)]


class GroupAction:
    """A linear action of a finite group on V, one n x n matrix per element."""

    def __init__(self, group: FiniteGroup, matrices, validate: bool = True):
        self.group = group
        self.n = len(matrices[0])
        self.mats = tuple(tuple(tuple(row) for row in m) for m in matrices)
        if len(self.mats) != group.size:
            raise ActionError("need one matrix per group element")
        if validate and any(self.mats[0][i][k] != (ONE if i == k else ZERO)
                            for i in range(self.n) for k in range(self.n)):
            raise ActionError("identity element must act as the identity matrix")
        # sparse access caches
        self.rows_nz = tuple(
            tuple(
                tuple((k, m[i][k]) for k in range(self.n) if not m[i][k].is_zero())
                for i in range(self.n)
            )
            for m in self.mats
        )
        self.cols_nz = tuple(
            tuple(
                tuple((i, m[i][k]) for i in range(self.n) if not m[i][k].is_zero())
                for k in range(self.n)
            )
            for m in self.mats
        )
        if validate:
            self._validate_composition()
        self._eigenvalues = None  # built by the first eigenvalue_table call

    def _validate_composition(self):
        """M[sg] = M[g] . M[s] for every generator s (every element when the
        group records no generators) and every g.  That suffices: if x and
        y satisfy it for all g, then M[xyg] = M[yg] M[x] = M[g] M[y] M[x]
        = M[g] M[xy], so the x that satisfy it are closed under products,
        hence a subgroup, and it is all of G once it holds the generators.

        Row i of M[g] . M[s] is the sum of M[g][i][k] times row k of M[s],
        so it is summed from the sparse rows ``rows_nz`` with
        ``linalg.bump``, which keeps no zero, and compared with row i of
        M[sg] as a dict of its nonzero entries: a product of two nonzero
        scalars is nonzero, and only products the dense sum has are added.
        The (s, g) are checked in the same order, so the first failure and
        its message are those of the dense product."""
        G, rows = self.group, self.rows_nz
        for s in G.generator_indices or range(G.size):
            rs = rows[s]
            for g, rg in enumerate(rows):
                for row, target in zip(rg, rows[G.mult[s][g]]):
                    acc: dict = {}
                    for k, x in row:
                        for l, y in rs[k]:
                            bump(acc, l, x * y)
                    if acc != dict(target):
                        raise ActionError(
                            f"matrices violate the composition law at (s={s}, g={g})"
                        )

    def is_diagonal(self) -> bool:
        return all(
            self.mats[g][i][k].is_zero()
            for g in range(self.group.size)
            for i in range(self.n)
            for k in range(self.n)
            if i != k
        )

    def eigenvalue_table(self):
        """lambda[g][i] with g(v_i) = lambda[g][i] v_i, for diagonal actions."""
        if self._eigenvalues is None:
            if not self.is_diagonal():
                raise ActionError("action is not diagonal on the chosen basis")
            self._eigenvalues = tuple(tuple(m[i][i] for i in range(self.n)) for m in self.mats)
        return self._eigenvalues


def natural_permutation_action(group: FiniteGroup) -> GroupAction:
    """sigma(v_i) = v_sigma(i) for a permutation group."""
    if group.perms is None:
        raise ActionError("group carries no permutation labels")
    n = len(group.perms[0])
    mats = []
    for p in group.perms:
        m = [[ZERO] * n for _ in range(n)]
        for i in range(n):
            m[i][p[i]] = ONE
        mats.append(m)
    return GroupAction(group, mats, validate=False)


def diagonal_action(group: FiniteGroup, lam) -> GroupAction:
    """Action with common eigenvectors: g(v_i) = lam[g][i] v_i.  For
    diagonal matrices the composition law that ``GroupAction`` checks on
    generators is the character property lam[sg][i] = lam[s][i] lam[g][i];
    each sparse row holds the one entry lam[g][i], so the check takes one
    product per (s, g, i)."""
    n = len(lam[0])
    mats = []
    for row in lam:
        m = [[ZERO] * n for _ in range(n)]
        for i in range(n):
            m[i][i] = row[i]
        mats.append(m)
    return GroupAction(group, mats)


def action_from_generator_matrices(group: FiniteGroup, gen_matrices, n: int) -> GroupAction:
    """Extend n x n matrices given on the group's generators to all elements
    by M[sg] = M[g] . M[s] along the walk from the identity, check that each
    generator (also one listed twice, or the identity) got the matrix given
    for it, and validate the composition law."""
    gens = group.generator_indices
    if len(gens) != len(gen_matrices):
        raise ActionError(
            f"group has {len(gens)} generators but {len(gen_matrices)} matrices were given"
        )
    mats: list = [None] * group.size
    mats[0] = [[ONE if i == k else ZERO for k in range(n)] for i in range(n)]
    for g, k, sg in _walk([group.mult[s] for s in gens]):
        mg, ms = mats[g], gen_matrices[k]
        mats[sg] = [[sum((mg[i][j] * ms[j][l] for j in range(n)), ZERO) for l in range(n)]
                    for i in range(n)]
    if any(m is None for m in mats):
        raise ActionError("generators do not generate the whole group")
    for k, (s, m) in enumerate(zip(gens, gen_matrices)):
        if mats[s] != [list(row) for row in m]:
            raise ActionError(f"element {s} (generator {k}) is given conflicting matrices")
    return GroupAction(group, mats, validate=True)


# ---------------------------------------------------------------------------
# the skew group algebra
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


def reorder_factor(gamma, delta, q: QMatrix) -> CyclotomicScalar:
    """Scalar picked up normal-ordering v^gamma . v^delta in S_q(V):
    prod over j > i of q(j, i)^(gamma_j * delta_i).  The one q-commutation
    rule: every product of monomials takes its factor here, a product with
    one variable v_k as delta (or gamma) = e_k."""
    f = ONE
    for j, gj in enumerate(gamma):
        if gj:
            for i in range(j):
                di = delta[i]
                if di:
                    f = f * q(j, i) ** (gj * di)
    return f


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


def skew_multiply(
    a: SkewElement, b: SkewElement, action: GroupAction, q: QMatrix, alpha: Cocycle2
) -> SkewElement:
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
    m = action.mats[g]
    return m[j][l] * m[i][k] - q(j, i) * m[i][l] * m[j][k]


def check_action_extends(action: GroupAction, q: QMatrix, max_witnesses: int = 5) -> dict:
    """Whether the linear action extends to S_q(V) and to the quantum
    exterior algebra Lambda_q(V) by automorphisms.

    One identity decides both.  The braiding c(v_a (x) v_b) = q_ab v_b (x) v_a
    on V (x) V squares to 1, as q_ab q_ba = 1.  For e = -1 and e = +1 the
    tensors r^e_ij = v_i (x) v_j + e q_ij v_j (x) v_i span its e-eigenspace
    E_e (r^+_ii = 2 v_i (x) v_i gives the squares), and S_q(V) and
    Lambda_q(V) are the tensor algebra modulo the ideals generated by E_-
    and E_+.  The ideal meets degree 2 in E_e alone and g (x) g keeps
    degrees, so g extends to the e-algebra iff g (x) g maps E_e into E_e,
    that is iff every g(v_i) g(v_j) + e q_ij g(v_j) g(v_i) is zero modulo the
    relations.  There v_l v_k = -e q_lk v_k v_l, and its v_k v_l coefficient
    is, with g(v_i) = sum_k g^i_k v_k,

        F_e(i, j, k, l) = (1 - q_ij q_lk) g^i_k g^j_l + e (q_ij - q_lk) g^i_l g^j_k.

    The e = -1 (S_q(V)) check reads it at k <= l, where k = l gives twice
    the v_k^2 coefficient; the e = +1 (Lambda_q(V)) check reads it at k < l,
    and at i = j it is the v_k v_l coefficient of 2 g(v_i)^2.  Since
    r^e_ji = e q_ji r^e_ij, F_e(j, i, k, l) = e q_ji F_e(i, j, k, l), so
    i <= j suffices; r^-_ii = 0, so F_-1 vanishes at i = j.  Witnesses read
    (g, i, j) for S_q(V) and (g, i, j, k, l) for Lambda_q(V).

    Both checks run on the generators of G only (every element when the
    group records no generators), so their witnesses name generators.
    That suffices: each check tests that the linear map of g, extended
    multiplicatively to the tensor algebra of V, maps every defining
    relation of S_q(V) (resp. Lambda_q(V)), hence the ideal they generate,
    into that ideal.  If the maps of g and h both do, so does their
    composite, the map of gh.  The g that pass are thus closed under
    products, hence a subgroup of the finite group G, and it is all of G
    once it holds the generators.

    Write F_e = x + e y with x = (1 - q_ij q_lk) g^i_k g^j_l and
    y = (q_ij - q_lk) g^i_l g^j_k, so F_e vanishes iff x = -e y.  The two q
    factors depend on neither g nor e: with g innermost they are taken once
    per (i, j, k, l) met, and each (i, j) keeps them only while it is
    checked at every generator.  x and y are zero unless k and l lie in the
    supports of rows i and j, so only those (k, l) are visited, and a
    (k, l) where neither product is present is skipped.  Each generator
    keeps at most ``max_witnesses`` of each kind, in the order of
    (i, j, k, l), and the lists are joined in the order of the generators,
    so the reports are those of checking one generator after another.
    """
    n = action.n
    gens = action.group.generator_indices or range(action.group.size)
    report = {"symmetric": True, "exterior": True}
    grows = [[dict(r) for r in action.rows_nz[g]] for g in gens]
    symmetric, exterior = [[] for _ in gens], [[] for _ in gens]
    for i in range(n):
        for j in range(i, n):
            pairs = combinations_with_replacement if i < j else combinations
            factors: dict = {}
            for g, grow, sym, ext in zip(gens, grows, symmetric, exterior):
                ri, rj = grow[i], grow[j]
                symmetric_done = i == j
                for k, l in pairs(sorted(ri.keys() | rj.keys()), 2):
                    has_x, has_y = k in ri and l in rj, l in ri and k in rj
                    if not (has_x or has_y):
                        continue
                    if (k, l) not in factors:
                        factors[(k, l)] = (ONE - q(i, j) * q(l, k), q(i, j) - q(l, k))
                    one_minus, diff = factors[(k, l)]
                    x = one_minus * ri[k] * rj[l] if has_x else ZERO
                    y = diff * ri[l] * rj[k] if has_y else ZERO
                    if not symmetric_done and x != y:
                        symmetric_done, report["symmetric"] = True, False
                        if len(sym) < max_witnesses:
                            sym.append((g, i, j))
                    if k < l and x != -y:
                        report["exterior"] = False
                        if len(ext) < max_witnesses:
                            ext.append((g, i, j, k, l))
    report["symmetric_witnesses"] = [w for ws in symmetric for w in ws][:max_witnesses]
    report["exterior_witnesses"] = [w for ws in exterior for w in ws][:max_witnesses]
    return report

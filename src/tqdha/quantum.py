"""The quantum symmetric algebra S_q(V) and linear group actions on it: the
parameter matrix q, the actions, each held as the sparse rows of its
matrices, and the check that an action extends to S_q(V) and to
Lambda_q(V).  The twisted skew group algebra
S_q(V) #_a G itself is multiplied only in the tests (``tests/reference.py``).

Conventions.  Variables are 0-based.  A monomial exponent is a tuple gamma of
n nonnegative integers standing for v_0^g0 ... v_{n-1}^g(n-1); normally
ordered monomials v^gamma t_g form the canonical basis of the skew algebra.
Action matrices follow the row convention g(v_i) = sum_k M[g][i][k] v_k, so
matrices compose as M[gh] = M[h] . M[g].  ``GroupAction`` holds row i of
M[g] as the pairs (k, M[g][i][k]) of its nonzero entries, and every reader
takes the action from these rows.  The composition law is evaluated in one
place, ``GroupAction.composition_failures``: the action's construction
check reads it with the first argument at the generators, and the rewriting
oracle's ``ttv`` family with the second at its letters.
"""

from __future__ import annotations

from itertools import combinations, combinations_with_replacement

from .groups import FiniteGroup, _walk
from .linalg import bump
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


def _nonzero(entries) -> tuple:
    """The (position, entry) pairs of the nonzero entries of a matrix row or
    column."""
    return tuple((k, x) for k, x in enumerate(entries) if not x.is_zero())


def _row_times(row, rows) -> dict:
    """Row i of M . N as {l: entry}, from row i of M and the sparse rows of
    N: the sum of M[i][k] times row k of N, with no zero kept
    (``linalg.bump``).  A product of two nonzero scalars is nonzero, and the
    terms of each entry are added in the order of k, as in the dense sum."""
    acc: dict = {}
    for k, x in row:
        for l, y in rows[k]:
            bump(acc, l, x * y)
    return acc


class GroupAction:
    """A linear action of a finite group on V, held as the sparse rows of
    each element's matrix: ``rows_nz[g][i]`` lists the (k, M[g][i][k]) with
    M[g][i][k] != 0, k ascending, so g(v_i) = sum of M[g][i][k] v_k.  That is
    the only form held; a reader that wants columns builds them from rows.
    The rows are checked on construction: their shapes and entry types,
    that the identity acts as the identity matrix, and the composition law
    M[sg] = M[g] . M[s] for every generator s (every element when the group
    records no generators) and every g; the first failing (s, g) is named.
    That suffices: if x and y satisfy it for all g, then M[xyg] = M[yg] M[x]
    = M[g] M[y] M[x] = M[g] M[xy], so the x that satisfy it are closed
    under products, hence a subgroup, and it is all of G once it holds the
    generators.

    What the routes derive from the action and a problem's q (and alpha, ...)
    is held here too, by ``derived``, so it is freed with the action."""

    def __init__(self, group: FiniteGroup, rows):
        self.group = group
        self._derived: dict = {}
        self.rows_nz = tuple(tuple(map(tuple, table)) for table in rows)
        if len(self.rows_nz) != group.size:
            raise ActionError("need one matrix per group element")
        self.n = n = len(self.rows_nz[0])
        for g, table in enumerate(self.rows_nz):
            if len(table) != n or any(not 0 <= k < n for row in table for k, _ in row):
                raise ActionError(f"matrix of element {g} is not {n} x {n}")
            if not all(isinstance(x, CyclotomicScalar) for row in table for _, x in row):
                raise ActionError(f"matrix of element {g} has an entry that is not a scalar")
        if self.rows_nz[0] != tuple(((i, ONE),) for i in range(n)):
            raise ActionError("identity element must act as the identity matrix")
        for s, g, _ in self.composition_failures(group.generators, range(group.size)):
            raise ActionError(f"matrices violate the composition law at (s={s}, g={g})")

    def composition_failures(self, firsts, lasts):
        """The (a, b, i) with a in ``firsts``, b in ``lasts`` and i a row, in
        that order, at which row i of M[ab] differs from row i of
        M[b] . M[a].  Row i of M[b] . M[a] is summed by ``_row_times`` and
        compared with row i of M[ab] as a dict of its nonzero entries, so a
        zero entry held in a row fails.  Each product ab is taken once."""
        rows, times = self.rows_nz, self.group.mul
        lasts = tuple(lasts)
        for a in firsts:
            ra = rows[a]
            for b in lasts:
                for i, (row, target) in enumerate(zip(rows[b], rows[times(a, b)])):
                    if _row_times(row, ra) != dict(target):
                        yield a, b, i

    def derived(self, build, *rest):
        """``build(self, *rest)``, computed on the first call with these
        arguments and kept in a dict the action owns, keyed by
        ``(build, *rest)``.  ``QMatrix`` and ``Cocycle2`` define no equality,
        so the key compares them by identity.  What is held must not refer
        to the action, so a dropped action is freed by reference counting,
        with no cycle to collect: ``pbw._ConditionSites`` keeps the action's
        group and rows, and ``pbw._OverlapTable`` is handed the action where
        it reduces.  A held result is not modified, apart from the caches
        the sites and the overlap tables fill on first use of a row or a
        column."""
        key = (build, *rest)
        if key not in self._derived:
            self._derived[key] = build(self, *rest)
        return self._derived[key]

    def is_diagonal(self) -> bool:
        return all(k == i for rows in self.rows_nz for i, row in enumerate(rows) for k, _ in row)

    def eigenvalue_table(self):
        """lambda[g][i] with g(v_i) = lambda[g][i] v_i, for diagonal actions:
        the one entry of each row (an action's matrices are invertible, so
        no row is empty)."""
        if not self.is_diagonal():
            raise ActionError("action is not diagonal on the chosen basis")
        return tuple(tuple(x for ((_, x),) in rows) for rows in self.rows_nz)


def natural_permutation_action(group: FiniteGroup) -> GroupAction:
    """sigma(v_i) = v_sigma(i) for a permutation group: row i of sigma is
    the one entry (sigma(i), 1), and the n rows (k, 1) are shared by every
    element."""
    if group.perms is None:
        raise ActionError("group carries no permutation labels")
    units = [((k, ONE),) for k in range(len(group.perms[0]))]
    return GroupAction(group, [tuple(map(units.__getitem__, p)) for p in group.perms])


def diagonal_action(group: FiniteGroup, lam) -> GroupAction:
    """Action with common eigenvectors: g(v_i) = lam[g][i] v_i, row i of g
    the one entry (i, lam[g][i]), or none where lam[g][i] = 0.  For diagonal
    matrices the composition law that ``GroupAction`` checks on generators
    is the character property lam[sg][i] = lam[s][i] lam[g][i], one product
    per (s, g, i); a zero eigenvalue fails it."""
    return GroupAction(group, [[((i, x),) if x is not ZERO else () for i, x in enumerate(row)]
                               for row in lam])


def action_from_generator_matrices(group: FiniteGroup, gen_matrices, n: int) -> GroupAction:
    """Extend n x n matrices given on the group's generators to all elements
    by M[sg] = M[g] . M[s] along the walk from the identity, check that each
    generator (also one listed twice, or the identity) got the matrix given
    for it, and validate the composition law.  Each matrix is first checked
    to be n x n with scalar entries, then read into sparse rows once, and
    each product is taken on rows (``_row_times``)."""
    gens = group.generator_indices
    if len(gens) != len(gen_matrices):
        raise ActionError(
            f"group has {len(gens)} generators but {len(gen_matrices)} matrices were given"
        )
    for k, (s, m) in enumerate(zip(gens, gen_matrices)):
        if len(m) != n or any(len(row) != n for row in m):
            raise ActionError(f"matrix of element {s} (generator {k}) is not {n} x {n}")
        if not all(isinstance(x, CyclotomicScalar) for row in m for x in row):
            raise ActionError(
                f"matrix of element {s} (generator {k}) has an entry that is not a scalar")
    given = [tuple(map(_nonzero, m)) for m in gen_matrices]
    rows: list = [None] * group.size
    rows[0] = tuple(((i, ONE),) for i in range(n))
    for g, k, sg in _walk([[group.mul(s, a) for a in range(group.size)] for s in gens]):
        rows[sg] = tuple(tuple(sorted(_row_times(row, given[k]).items())) for row in rows[g])
    if any(r is None for r in rows):
        raise ActionError("generators do not generate the whole group")
    for k, (s, r) in enumerate(zip(gens, given)):
        if rows[s] != r:
            raise ActionError(f"element {s} (generator {k}) is given conflicting matrices")
    return GroupAction(group, rows)


# ---------------------------------------------------------------------------
# normal ordering in S_q(V)
# ---------------------------------------------------------------------------


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
    gens = action.group.generators
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

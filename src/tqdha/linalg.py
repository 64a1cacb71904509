"""Exact sparse linear algebra over cyclotomic scalars, and the one
accumulator for sparse sums.

Every sparse sum in the package (group algebra elements, skew elements,
Koszul cochains, Clifford elements, linear rows) is a dict from keys to
scalars that never stores a zero coefficient.  ``bump`` is the only place a
term is added to such a dict: it adds, and drops the key when the sum
cancels.  ``SparseSum`` is the common base of the element classes and keeps
the same invariant for their arithmetic.

Rows are dicts mapping an ordered column key to a nonzero scalar.  The
workhorse is an incremental row-echelon accumulator with deterministic
pivoting (least column key, rows normalized monic at the pivot), from which
ranks, kernels and row-space comparisons are derived.  Pivot division costs
nothing on the plus/minus-one dominated systems this library produces, and
their sums and products mostly come out 0 or +-1: the shared ``ZERO``,
``ONE`` and ``MINUS_ONE`` of ``scalars``, so they allocate nothing, and
``bump`` finds a cancelled sum with ``is ZERO``.
``kernel_basis`` settles the rows with one or two entries by a weighted
union-find first and eliminates only the longer ones.
"""

from __future__ import annotations

from .scalars import ONE, ZERO, CyclotomicScalar


Row = dict  # ordered column key -> nonzero CyclotomicScalar


def bump(d: dict, key, val) -> None:
    """d[key] += val, keeping no zero coefficient in d.  The sum is tested
    with ``is ZERO``: ZERO is the only scalar of value 0 (``scalars``)."""
    acc = d.get(key)
    acc = val if acc is None else acc + val
    if acc is ZERO:
        d.pop(key, None)
    else:
        d[key] = acc


class SparseSum:
    """A finite sum of keyed terms with scalar coefficients; ``coeffs`` holds
    no zero.  A subclass's own ``__slots__`` name its shape (such as ``n``
    and ``degree``), which arithmetic copies from the left operand."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        self.coeffs = {k: c for k, c in (coeffs or {}).items() if not c.is_zero()}

    def _like(self, coeffs: dict):
        """A sum of self's class and shape with the given zero-free coeffs."""
        cls = type(self)
        res = object.__new__(cls)
        for name in cls.__slots__:
            setattr(res, name, getattr(self, name))
        res.coeffs = coeffs
        return res

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other):
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            bump(out, k, c)
        return self._like(out)

    def __sub__(self, other):
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            bump(out, k, -c)
        return self._like(out)

    def scale(self, s: CyclotomicScalar):
        if s.is_zero():
            return self._like({})
        return self._like({k: s * c for k, c in self.coeffs.items()})

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.coeffs == other.coeffs


class RowReducer:
    """Incremental sparse row-echelon form with monic pivots."""

    def __init__(self):
        self.pivots: dict[int, Row] = {}

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def reduce_row(self, row: Row) -> Row:
        """Return a copy of row reduced against the current pivot rows."""
        row = dict(row)
        while row:
            c = min(row)
            piv = self.pivots.get(c)
            if piv is None:
                break
            f = -row.pop(c)
            for k, v in piv.items():
                if k != c:
                    bump(row, k, f * v)
        return row

    def insert(self, row: Row):
        """Reduce row and adopt it as a new pivot row; returns the pivot
        column, or None if the row was dependent."""
        row = self.reduce_row(row)
        if not row:
            return None
        c = min(row)
        inv = row[c].inverse()
        self.pivots[c] = {k: v * inv for k, v in row.items()}
        return c

    def rref(self) -> dict[int, Row]:
        """Fully back-substituted pivot rows (reduced row-echelon form)."""
        cols = sorted(self.pivots, reverse=True)
        out: dict[int, Row] = {}
        for c in cols:
            row = dict(self.pivots[c])
            for k in [k for k in row if k != c and k in out]:
                f = -row.pop(k)
                for kk, vv in out[k].items():
                    if kk != k:
                        bump(row, kk, f * vv)
            out[c] = row
        return out

    def kernel(self, ncols: int) -> list[list[CyclotomicScalar]]:
        """Basis of the solution space of (all inserted rows) . x = 0; the
        column keys must be the integers 0..ncols-1."""
        rref = self.rref()
        free_cols = [c for c in range(ncols) if c not in rref]
        basis = []
        for f in free_cols:
            vec = [ZERO] * ncols
            vec[f] = ONE
            for p, row in rref.items():
                coef = row.get(f)
                if coef is not None:
                    vec[p] = -coef
            basis.append(vec)
        return basis


def _reduced(rows) -> RowReducer:
    red = RowReducer()
    for row in rows:
        if row:
            red.insert(row)
    return red


def kernel_basis(rows, ncols: int) -> list[list[CyclotomicScalar]]:
    """Basis of the right null space of the sparse rows over the columns
    0..ncols-1: the unique basis that is the identity on the free columns of
    the least-column RREF of the rows, as ``RowReducer.kernel`` gives it.

    Rows with one or two entries never reach elimination.  A weighted
    union-find over them writes every column as x_u = w_u x_r, r the largest
    column of u's class.  A one-term row forces its class to zero, and so
    does a two-term row whose columns already share a root unless
    c_a w_a + c_b w_b = 0 (a cycle of weights with product other than 1).
    The longer rows are rewritten over the surviving roots, and their kernel
    there is expanded back to every column.  That expansion is the canonical
    basis: the vector of free root f is 1 at column f, 0 at the other free
    roots and nonzero elsewhere only in classes of roots p < f, all of whose
    columns are at most p.  So it is monic with its last nonzero entry at f
    and zero at the other such columns, and the null space has exactly one
    basis of that shape, the canonical one.

    The shape depends on the order of the columns.  The direct solver of
    ``pbw`` takes the kernel over the unknowns at class representatives only,
    expands it to every unknown, and brings it back to this shape over all
    of them with ``echelon_basis``.
    """
    parent = list(range(ncols))
    weight = [ONE] * ncols  # x_u = weight[u] * x_parent[u]
    dead = [False] * ncols  # read at roots: the class is forced to zero

    def find(u):
        path = []
        while parent[u] != u:
            path.append(u)
            u = parent[u]
        for v in reversed(path):
            p = parent[v]
            if p != u:
                weight[v] = weight[v] * weight[p]
                parent[v] = u
        return u

    longer = []
    for row in rows:
        if len(row) > 2:
            longer.append(row)
            continue
        terms = [(find(col), c * weight[col]) for col, c in row.items()]
        if len(terms) == 1:
            dead[terms[0][0]] = True
        elif len(terms) == 2:
            (ra, ca), (rb, cb) = sorted(terms, key=lambda t: t[0])
            if ra == rb:
                if not (ca + cb).is_zero():
                    dead[ra] = True
                continue
            # ca x_ra + cb x_rb = 0: the smaller root hangs below the larger
            parent[ra] = rb
            weight[ra] = -(cb / ca)
            dead[rb] = dead[rb] or dead[ra]

    root = [find(u) for u in range(ncols)]
    index = {}  # surviving roots, in increasing order
    for u in range(ncols):
        if root[u] == u and not dead[u]:
            index[u] = len(index)
    red = RowReducer()
    for row in longer:
        rewritten: Row = {}
        for col, c in row.items():
            r = index.get(root[col])
            if r is not None:
                bump(rewritten, r, c * weight[col])
        if rewritten:
            red.insert(rewritten)
    basis = []
    for vec in red.kernel(len(index)):
        expanded = [ZERO] * ncols
        for u in range(ncols):
            r = index.get(root[u])
            if r is not None and not vec[r].is_zero():
                expanded[u] = weight[u] * vec[r]
        basis.append(expanded)
    return basis


def echelon_basis(vectors) -> list[Row]:
    """The basis of the span of the sparse vectors in ``kernel_basis``'s
    shape: each monic at its last nonzero column and zero at the last
    nonzero columns of the others, ordered by that column.  A subspace has
    exactly one basis of that shape, so for a kernel this is the basis
    ``kernel_basis`` gives.  The vectors are row-reduced with the column
    order reversed (pivots at the largest column) and back-substituted."""
    red = _reduced({-c: x for c, x in vec.items()} for vec in vectors)
    rref = red.rref()
    return [{-c: x for c, x in rref[p].items()} for p in sorted(rref, reverse=True)]


def rows_rank(rows) -> int:
    return _reduced(rows).rank


def same_span(rows_a, rows_b) -> bool:
    """Whether two families of sparse rows span the same subspace, exactly."""
    rows_a = list(rows_a)
    rows_b = list(rows_b)
    ra = rows_rank(rows_a)
    rb = rows_rank(rows_b)
    if ra != rb:
        return False
    return rows_rank(rows_a + rows_b) == ra

"""Exact sparse linear algebra over cyclotomic scalars, and the one
accumulator for sparse sums.

Every sparse sum in the package (group algebra elements, skew elements,
Koszul cochains, Clifford elements, linear rows) is a dict from keys to
scalars that never stores a zero coefficient.  ``bump`` is the only place a
term is added to such a dict: it adds, and drops the key when the sum
cancels.  ``SparseSum`` is the common base of the element classes and keeps
the same invariant for their arithmetic.

Rows are dicts mapping column index to a nonzero scalar.  The workhorse is an
incremental row-echelon accumulator with deterministic pivoting (smallest
column index, rows normalized monic at the pivot), from which ranks, kernels
and row-space comparisons are derived.  Pivot division costs nothing on the
plus/minus-one dominated systems this library produces.
"""

from __future__ import annotations

from .scalars import MINUS_ONE, ONE, ZERO, CyclotomicScalar


Row = dict  # column index -> nonzero CyclotomicScalar


def bump(d: dict, key, val) -> None:
    """d[key] += val, keeping no zero coefficient in d."""
    acc = d.get(key)
    acc = val if acc is None else acc + val
    if acc.is_zero():
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
        return self + other.scale(MINUS_ONE)

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
        """Basis of the solution space of (all inserted rows) . x = 0."""
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
    """Basis of the right null space of the sparse rows over ncols columns."""
    return _reduced(rows).kernel(ncols)


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

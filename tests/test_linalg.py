"""Exact sparse kernels and rank: the null-space contract M.v = 0."""

import random

import pytest

from reference import CliffordElement, GroupAlgebraElement, SkewElement, constant_two
from tqdha.cohomology import Cochain
from tqdha.linalg import RowReducer, bump, echelon_basis, kernel_basis, rows_rank, same_span
from tqdha.scalars import MINUS_ONE, ONE, ZERO, rational, root_of_unity


def dense(rows):
    """Sparse row dicts of a dense table of ints or scalars."""
    rows = [[rational(x) if isinstance(x, int) else x for x in r] for r in rows]
    return [{j: v for j, v in enumerate(r) if not v.is_zero()} for r in rows]


def annihilates(rows, vec):
    return all(sum((v * vec[j] for j, v in row.items()), ZERO).is_zero() for row in rows)


def test_kernel_all_ones():
    m = dense([[1, 1], [1, 1]])
    basis = kernel_basis(m, 2)
    assert len(basis) == 1
    v = basis[0]
    # proportional to (1, -1)
    assert v[0] * MINUS_ONE == v[1]
    assert annihilates(m, v)


def test_kernel_identity_empty():
    assert kernel_basis(dense([[1, 0], [0, 1]]), 2) == []


def test_kernel_with_cyclotomic_entry():
    i = root_of_unity(4, 1)
    m = dense([[i, ONE]])
    basis = kernel_basis(m, 2)
    assert len(basis) == 1
    v = basis[0]
    assert annihilates(m, v)
    # proportional to (1, -zeta_4)
    assert (v[1] / v[0]) == MINUS_ONE * i


def test_kernel_vectors_annihilate_and_are_independent():
    rnd = random.Random(3)
    for trial in range(10):
        m = dense([[rnd.randint(-2, 2) for _ in range(6)] for _ in range(4)])
        basis = kernel_basis(m, 6)
        assert len(basis) == 6 - rows_rank(m)
        for v in basis:
            assert annihilates(m, v)
        vecs = [{j: x for j, x in enumerate(v) if not x.is_zero()} for v in basis]
        assert rows_rank(vecs) == len(basis)


def test_same_span():
    a = [{0: ONE, 1: ONE}, {1: ONE}]
    b = [{0: ONE}, {0: ONE, 1: rational(2)}]
    c = [{0: ONE}]
    assert same_span(a, b)
    assert not same_span(a, c)


def test_rref_is_fully_reduced():
    red = RowReducer()
    red.insert({0: ONE, 1: ONE, 2: ONE})
    red.insert({1: ONE, 2: rational(2)})
    rref = red.rref()
    assert set(rref) == {0, 1}
    assert 1 not in rref[0]  # pivot columns eliminated everywhere else


def test_bump_stores_no_zero():
    d = {}
    bump(d, "a", ONE)
    bump(d, "b", ONE)
    bump(d, "a", MINUS_ONE)
    bump(d, "c", ZERO)
    assert d == {"b": ONE}


def test_sparse_sums_keep_their_shape_and_no_zero():
    x = constant_two(3, 1, 0, 2)
    y = x.scale(rational(2)) - x - x
    assert y.is_zero() and y.coeffs == {} and (y.n, y.degree) == (3, 2)
    e = CliffordElement.generator(3, 0)
    assert (e + e).n == 3 and (e - e).is_zero() and e.scale(ZERO).n == 3
    assert GroupAlgebraElement({0: ONE, 1: ZERO}).coeffs == {0: ONE}
    assert GroupAlgebraElement({0: ONE}) != SkewElement({0: ONE})
    assert GroupAlgebraElement({0: ONE}) == GroupAlgebraElement.basis(0)


def test_sparse_sums_combine_only_with_their_class_and_shape():
    x = constant_two(3, 1, 0, 2)
    with pytest.raises(ValueError, match="degree differs"):
        x + Cochain(3, 1)
    with pytest.raises(ValueError, match="n differs"):
        CliffordElement.generator(3, 0) - CliffordElement.generator(4, 0)
    with pytest.raises(TypeError):
        GroupAlgebraElement({0: ONE}) + SkewElement({0: ONE})


def plain_kernel(rows, ncols):
    """The kernel by elimination of every row, with no union-find pre-pass."""
    red = RowReducer()
    for row in rows:
        red.insert(row)
    return red.kernel(ncols)


def test_one_term_row_forces_its_class_to_zero():
    # x0 = x1 = -x2 (two-term rows), and x1 = 0 (one term): only x3 is free
    rows = [{0: ONE, 1: MINUS_ONE}, {1: ONE, 2: ONE}, {1: rational(3)}]
    basis = kernel_basis(rows, 4)
    assert basis == [[ZERO, ZERO, ZERO, ONE]] == plain_kernel(rows, 4)


def test_inconsistent_cycle_forces_its_class_to_zero():
    i = root_of_unity(4, 1)
    # x1 = i x0, x2 = i x1, x0 = x2 would need i^2 = 1
    cycle = [{0: i, 1: MINUS_ONE}, {1: i, 2: MINUS_ONE}, {0: ONE, 2: MINUS_ONE}]
    assert kernel_basis(cycle, 3) == [] == plain_kernel(cycle, 3)
    # x0 = -x2 closes the cycle consistently: one free value
    consistent = cycle[:2] + [{0: ONE, 2: ONE}]
    basis = kernel_basis(consistent, 3)
    assert len(basis) == 1 and basis == plain_kernel(consistent, 3)
    assert annihilates(consistent, basis[0])


def test_mixed_two_and_three_term_rows():
    rnd = random.Random(7)
    values = [ONE, MINUS_ONE, rational(2), root_of_unity(3, 1), root_of_unity(6, 5)]
    for trial in range(200):
        ncols = rnd.randint(3, 8)
        rows = []
        for _ in range(rnd.randint(1, 7)):
            cols = rnd.sample(range(ncols), rnd.choice([2, 2, 3]))
            rows.append({c: rnd.choice(values) for c in cols})
        basis = kernel_basis(rows, ncols)
        assert basis == plain_kernel(rows, ncols)
        for v in basis:
            assert annihilates(rows, v)
        # any other basis of the kernel, reversed and mixed by a unit
        # triangular matrix, has this one as its echelon basis
        sparse = [{c: x for c, x in enumerate(v) if not x.is_zero()} for v in basis]
        mixed = []
        for k, v in enumerate(sparse):
            w = dict(v)
            for u in sparse[k + 1:]:
                f = rational(rnd.randint(-2, 2))
                for c, x in u.items():
                    bump(w, c, f * x)
            mixed.append(w)
        assert echelon_basis(mixed[::-1]) == sparse


def test_column_no_row_mentions_is_free():
    rows = [{0: ONE, 2: ONE}, {0: ONE, 2: ONE, 3: ONE}]
    basis = kernel_basis(rows, 4)
    assert basis == plain_kernel(rows, 4)
    # x3 = 0 and x2 = -x0; columns 1 and 2 are free
    assert basis == [[ZERO, ONE, ZERO, ZERO], [MINUS_ONE, ZERO, ONE, ZERO]]

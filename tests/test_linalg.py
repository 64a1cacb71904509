"""Exact sparse kernels and rank: the null-space contract M.v = 0."""

import random

from tqdha.cohomology import Cochain
from tqdha.groups import GroupAlgebraElement
from tqdha.linalg import RowReducer, bump, kernel_basis, rows_rank, same_span
from tqdha.quantum import SkewElement
from tqdha.spin import CliffordElement
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
    x = Cochain.constant_two(3, 1, 0, 2)
    y = x.scale(rational(2)) - x - x
    assert y.is_zero() and y.coeffs == {} and (y.n, y.degree) == (3, 2)
    e = CliffordElement.generator(3, 0)
    assert (e + e).n == 3 and (e - e).is_zero() and e.scale(ZERO).n == 3
    assert GroupAlgebraElement({0: ONE, 1: ZERO}).coeffs == {0: ONE}
    assert GroupAlgebraElement({0: ONE}) != SkewElement({0: ONE})
    assert GroupAlgebraElement({0: ONE}) == GroupAlgebraElement.basis(0)

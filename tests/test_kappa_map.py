"""``KappaMap``, held by its coordinates (g, i, j) only: the keys it refuses,
and on every bundled problem (``problems/*.json`` and the three golden
problems) the round trips and arithmetic of the kappas met there: both
routes' bases, the golden kappa files and a seeded random kappa.  The two
golden problems whose action does not extend to S_q(V) have no basis; their
random kappa stands in."""

import glob
import os
import random
from itertools import combinations

import pytest

from reference import GroupAlgebraElement
from test_action_rows import IDS, PROBLEM_FILES
from tqdha.cohomology import cohomological_parameter_space
from tqdha.groups import symmetric_group
from tqdha.linalg import SparseSum
from tqdha.pbw import ExtensionError, KappaMap, check_pbw_conditions, solve_parameter_space
from tqdha.problems import parse_kappa_file, parse_problem_file
from tqdha.quantum import QMatrix
from tqdha.scalars import MINUS_ONE, ONE, ZERO, rational

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


@pytest.mark.parametrize("key", [
    (-1, 0, 1), (6, 0, 1), (99, 0, 1), (0, 1, 0), (0, 1, 1), (0, -1, 1), (0, 1, 3), (0, 1),
    (0, 0, 1, 2), ((0, 1), 0, 1), 0,
])
def test_constructor_refuses_keys_outside_the_coordinates(key):
    # S3 on n = 3: the keys are range(6) x {0 <= i < j < 3}.  A group index
    # of -1 used to be stored and reported by the checker at g = -1; one of
    # 99 made the checker and the oracle raise IndexError
    group, q = symmetric_group(3), QMatrix.uniform(3, -1)
    for c in (ONE, ZERO):
        with pytest.raises(ValueError, match="kappa coordinates must be keyed"):
            KappaMap(group, 3, q, {key: c})


def test_kappa_is_a_sparse_sum_held_by_its_coordinates_alone():
    group, q = symmetric_group(3), QMatrix.uniform(3, -1)
    with pytest.raises(ValueError):
        KappaMap(group, 3, q, {(0, 0, 1): ONE, (-1, 0, 1): ONE})
    kappa = KappaMap(group, 3, q, {(5, 1, 2): MINUS_ONE})
    assert isinstance(kappa, SparseSum) and kappa.coeffs == {(5, 1, 2): MINUS_ONE}
    assert not hasattr(kappa, "values") and not hasattr(kappa, "__dict__")


def test_sums_refuse_another_class_or_shape():
    # a sum takes no coordinates the left operand would refuse: of S4 into
    # an S3 kappa, or a group algebra element's bare keys
    group, q = symmetric_group(3), QMatrix.uniform(3, -1)
    kappa = KappaMap(group, 3, q, {(0, 0, 1): ONE})
    with pytest.raises(TypeError):
        kappa + GroupAlgebraElement({5: ONE})
    s4 = KappaMap(symmetric_group(4), 4, QMatrix.uniform(4, -1), {(23, 2, 3): ONE})
    for other, differs in ((s4, "group"), (KappaMap(group, 4, QMatrix.uniform(4, -1)), "n"),
                           (KappaMap(group, 3, QMatrix.uniform(3, 1)), "q")):
        with pytest.raises(ValueError, match=f"; {differs} differs"):
            kappa + other
        with pytest.raises(ValueError, match=f"; {differs} differs"):
            other - kappa


def test_equality_needs_the_same_class_and_shape():
    # equal only where a sum is taken: the same coordinates on another
    # group, n or q object are another kappa
    group, q = symmetric_group(3), QMatrix.uniform(3, -1)
    kappa = KappaMap(group, 3, q, {(0, 0, 1): ONE})
    assert kappa == KappaMap(group, 3, q, {(0, 0, 1): ONE})
    for other in (KappaMap(symmetric_group(4), 4, QMatrix.uniform(4, -1), {(0, 0, 1): ONE}),
                  KappaMap(group, 4, QMatrix.uniform(4, -1), {(0, 0, 1): ONE}),
                  KappaMap(group, 3, QMatrix.uniform(3, -1), {(0, 0, 1): ONE})):
        assert kappa != other and other != kappa
    assert kappa != GroupAlgebraElement({0: ONE})


def _random_kappa(prob, rnd):
    coeffs = {(g, i, j): rational(rnd.choice([-2, -1, 1, 3]))
              for i, j in combinations(range(prob.n), 2)
              for g in range(prob.group.size) if rnd.random() < 0.3}
    return KappaMap(prob.group, prob.n, prob.q, coeffs)


def _kappas(path):
    """The kappas met on one problem, each with its origin."""
    prob = parse_problem_file(path)
    name = os.path.basename(path)[:-5]
    out = [("random", _random_kappa(prob, random.Random(name)))]
    for route in (solve_parameter_space, cohomological_parameter_space):
        try:
            out += [(route.__name__, k) for k in route(prob.action, prob.q, prob.alpha)]
        except ExtensionError:
            pass
    for kappa_file in sorted(glob.glob(os.path.join(GOLDEN, f"kappa.{name}.*.json"))):
        out.append((os.path.basename(kappa_file), parse_kappa_file(prob, kappa_file)))
    return prob, out


@pytest.mark.parametrize("path", PROBLEM_FILES, ids=IDS)
def test_round_trips_and_arithmetic_keep_the_one_form(path):
    prob, kappas = _kappas(path)
    pairs = list(combinations(range(prob.n), 2))
    for origin, k in kappas:
        shape = (k.group, k.n, k.q)
        assert shape == (prob.group, prob.n, prob.q), origin
        assert KappaMap.from_records(*shape, k.to_records()) == k, origin
        # the flat row decodes back to the coordinates
        row = k.coordinate_row()
        assert {(col // len(pairs), *pairs[col % len(pairs)]): c for col, c in row.items()} \
            == k.coeffs and len(row) == len(k.coeffs), origin
        assert (k + k.scale(MINUS_ONE)).is_zero() and (k - k).is_zero(), origin
        for result in (k + k, k - k, k.scale(rational(2)), k.scale(ZERO)):
            assert type(result) is KappaMap and (result.group, result.n, result.q) == shape
            assert all(type(key) is tuple and len(key) == 3 for key in result.coeffs)
        # equality reads the coordinates, not the order they were inserted in
        items = list(k.coeffs.items())
        random.Random(origin).shuffle(items)
        assert KappaMap(*shape, dict(reversed(items))) == KappaMap(*shape, dict(items)) == k
        assert (k != k.scale(rational(2))) == (not k.is_zero()), origin


def test_sums_keep_the_left_operand_shape_and_check_the_same():
    # a sum is one kappa whose coordinates add, as the checker reads them
    prob = parse_problem_file(PROBLEM_FILES[IDS.index("s4_twisted")])
    a, b = solve_parameter_space(prob.action, prob.q, prob.alpha)[:2]
    total = a + b.scale(rational(-3))
    assert (total.group, total.n, total.q) == (a.group, a.n, a.q)
    for key in {*a.coeffs, *b.coeffs}:
        expected = a.coeffs.get(key, ZERO) - rational(3) * b.coeffs.get(key, ZERO)
        assert total.coeffs.get(key, ZERO) == expected
    assert ZERO not in total.coeffs.values()
    assert check_pbw_conditions(total, prob.action, prob.q, prob.alpha)["passed"]

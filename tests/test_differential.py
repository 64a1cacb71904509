"""Randomized differential test of the three routes on diagonal problems.

Each draw is a diagonal action of Z/2 x Z/2, Z/4, Z/6 or Z/3 x Z/4 on two
or three variables, with characters and q_ij in mu_12 and a trivial or a
bicharacter cocycle.  In half the draws a closed-form label (a, r, s) is
planted, so that the parameter space is not zero.  The direct solver, the
cohomology pipeline and the closed form must span the same space, and the
checker and the rewriting oracle must agree on a seeded kappa: a random
element of that space, moved off it in one random coordinate in half the
draws.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from tqdha.classify import diagonal_kappa_basis
from tqdha.cohomology import cohomological_parameter_space
from tqdha.groups import bicharacter_cocycle, group_from_cyclic_orders, trivial_cocycle
from tqdha.linalg import same_span
from tqdha.pbw import KappaMap, check_pbw_conditions, solve_parameter_space, verify_ambiguities
from tqdha.quantum import QMatrix, diagonal_action
from tqdha.scalars import rational, root_of_unity

# cyclic orders -> (bicharacter exponents, root order) of a cocycle to draw
GROUPS = {
    (2, 2): ([[0, 0], [1, 0]], 2),
    (4,): ([[1]], 4),
    (6,): ([[1]], 6),
    (3, 4): ([[1, 0], [0, 0]], 3),
}


def _z12(e):
    return root_of_unity(12, e)


def _set_q(qexp, i, j, e):
    # q_ij = zeta_12^e, stored on i < j
    if i < j:
        qexp[(i, j)] = e % 12
    else:
        qexp[(j, i)] = -e % 12


def draw_problem(rng):
    """(action, q, alpha, planted) for one draw.  A character is a vector x
    of zeta_12 exponents, chi(h) = zeta_12^(x . h), with o_k x_k = 0 mod 12."""
    orders = rng.choice(sorted(GROUPS))
    n = rng.choice([2, 3])
    group = group_from_cyclic_orders(list(orders))
    chars = [[12 // o * rng.randrange(o) for o in orders] for _ in range(n)]
    qexp = {(i, j): rng.randrange(12) for i in range(n) for j in range(i + 1, n)}
    exponents, root = GROUPS[orders]
    twisted = rng.random() < 0.5
    planted = None
    if rng.random() < 0.5:
        # chi_r chi_s = alpha(., a) / alpha(a, .) and q_rt q_st = chi_t(a)
        a = rng.randrange(1, group.size)
        r, s = sorted(rng.sample(range(n), 2))
        label = group.labels[a]
        e = exponents if twisted else [[0] * len(orders)] * len(orders)
        shift = [12 // root * sum((e[i][j] - e[j][i]) * label[j] for j in range(len(orders)))
                 for i in range(len(orders))]
        chars[s] = [(x - y) % 12 for x, y in zip(shift, chars[r])]
        for t in set(range(n)) - {r, s}:
            x = rng.randrange(12)
            _set_q(qexp, r, t, x)
            _set_q(qexp, s, t, sum(c * h for c, h in zip(chars[t], label)) - x)
        planted = (a, r, s)
    lam = [[_z12(sum(x * h for x, h in zip(ch, label))) for ch in chars] for label in group.labels]
    q = QMatrix([[_z12(qexp[(i, j)] if i < j else -qexp[(j, i)] if i > j else 0)
                  for j in range(n)] for i in range(n)])
    alpha = bicharacter_cocycle(group, exponents, root) if twisted else trivial_cocycle(group)
    return diagonal_action(group, lam), q, alpha, planted


def _rows(kappas):
    return [k.coordinate_row() for k in kappas]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_routes_agree_on_random_diagonal_problems(seed):
    rng = random.Random(seed)
    action, q, alpha, planted = draw_problem(rng)
    direct = solve_parameter_space(action, q, alpha)
    coh = cohomological_parameter_space(action, q, alpha)
    closed = diagonal_kappa_basis(action, q, alpha)
    assert len(direct) == len(coh) == len(closed)
    assert same_span(_rows(direct), _rows(coh)) and same_span(_rows(direct), _rows(closed))
    if planted is not None:
        assert direct

    group, n = action.group, action.n
    kappa = KappaMap(group, n, q)
    for b in direct:
        kappa = kappa + b.scale(rational(rng.randint(-3, 3)))
    moved = rng.random() < 0.5
    if moved:
        i, j = sorted(rng.sample(range(n), 2))
        coord = {(rng.randrange(group.size), i, j): _z12(rng.randrange(12))}
        kappa = kappa + KappaMap(group, n, q, coord)
    passed = check_pbw_conditions(kappa, action, q, alpha)["passed"]
    assert passed == verify_ambiguities(kappa, action, q, alpha)["resolvable"]
    if not moved:
        assert passed

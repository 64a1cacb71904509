"""Metamorphic test: a coboundary twist of the cocycle gives an isomorphic
algebra, so it must move the parameter space in a known way.

For beta: G -> mu_4 with beta(1) = 1, replace alpha by alpha * d(beta),
d(beta)(a, b) = beta(a) beta(b) / beta(ab).  Then t'_g -> beta(g) t_g is an
isomorphism of the twisted group algebras that fixes V and the action, so
kappa' is a parameter of the new algebra exactly when kappa_g =
beta(g) kappa'_g is one of the old: each g-coordinate of the space is scaled
by beta(g)^-1.  The twisted tables carry many distinct values, so they also
exercise ``validate_cocycle``'s products where its memo hits least.

A Galois conjugation zeta_12 -> zeta_12^u of q, the action and alpha must
likewise map the condition rows entrywise and the parameter space
coordinatewise, by the direct and the cohomology route.
"""

import os
import random
from fractions import Fraction

import pytest

from reference import exhaustive_rows
from test_pbw import cyclotomic_diagonal_instance
from tqdha.classify import symmetric_instance
from tqdha.cohomology import cohomological_parameter_space
from tqdha.groups import (
    Cocycle2,
    bicharacter_cocycle,
    cocycle_from_values,
    group_from_cyclic_orders,
    validate_cocycle,
)
from tqdha.pbw import KappaMap, same_space, solve_parameter_space
from tqdha.problems import parse_problem_file
from tqdha.quantum import GroupAction, QMatrix, diagonal_action
from tqdha.scalars import ONE, ZERO, rational, root_of_unity


def coboundary_twisted(alpha, beta):
    G = alpha.group
    return cocycle_from_values(G, [[alpha(a, b) * beta[a] * beta[b] / beta[G.mult[a][b]]
                                    for b in range(G.size)] for a in range(G.size)])


def z6_diagonal():
    """Z/6 on three variables with characters zeta_6^h, zeta_6^-h, zeta_3^h,
    q in mu_4, and a bicharacter cocycle: a parameter space of dimension 2."""
    G = group_from_cyclic_orders([6])
    lam = [[root_of_unity(12, e * h) for e in (2, -2, 4)] for (h,) in G.labels]
    qexp = {(0, 1): 3, (0, 2): 3, (1, 2): 9}
    q = QMatrix([[root_of_unity(12, qexp[(i, j)] if i < j else -qexp[(j, i)] if i > j else 0)
                  for j in range(3)] for i in range(3)])
    return G, diagonal_action(G, lam), q, bicharacter_cocycle(G, [[1]], 6)


INSTANCES = {
    "s3-natural-qminus": lambda: symmetric_instance(3, twisted=False),
    "s4-twisted": lambda: symmetric_instance(4, twisted=True),
    "z6-diagonal": z6_diagonal,
}


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_coboundary_twist_rescales_the_parameter_space(name):
    G, action, q, alpha = INSTANCES[name]()
    rnd = random.Random(sorted(INSTANCES).index(name) + 11)
    beta = [ONE] + [root_of_unity(4, rnd.randrange(4)) for _ in range(G.size - 1)]
    twisted = coboundary_twisted(alpha, beta)
    rep = validate_cocycle(twisted)
    assert rep["normalized"] and rep["cocycle"]
    assert len(twisted.distinct) > len(alpha.distinct)

    direct = solve_parameter_space(action, q, alpha)
    coh = cohomological_parameter_space(action, q, alpha)
    direct_tw = solve_parameter_space(action, q, twisted)
    coh_tw = cohomological_parameter_space(action, q, twisted)
    assert direct, "a zero space would make the span comparison empty"
    assert len(direct_tw) == len(coh_tw) == len(direct) == len(coh)

    n = action.n
    moved = [KappaMap(G, n, q, {(g, i, j): c / beta[g] for (g, i, j), c in k.coeffs.items()})
             for k in direct]
    assert same_space(moved, direct_tw) and same_space(moved, coh_tw)
    if name != "z6-diagonal":
        # the rescaling is seen: the unscaled space is not the twisted one.  A
        # diagonal problem's space is spanned by single coordinates, which any
        # rescaling keeps, so there only the dimensions and the route agree.
        assert not same_space(direct, direct_tw)


def galois(s, u):
    """sigma_u: zeta_N -> zeta_N^u on a scalar stored in Q(zeta_N), u prime
    to N: each numerator c_k of zeta_N^k goes to zeta_N^(k u)."""
    total = ZERO
    for k, c in enumerate(s.coeffs):
        if c:
            total = total + rational(c) * root_of_unity(s.order, k * u)
    return total * rational(Fraction(1, s.den))


def galois_problem(action, q, alpha, u):
    G, n = action.group, action.n
    rows = [[tuple((k, galois(x, u)) for k, x in row) for row in table] for table in action.rows_nz]
    return (GroupAction(G, rows),
            QMatrix([[galois(q(i, j), u) for j in range(n)] for i in range(n)]),
            Cocycle2(G, [galois(x, u) for x in alpha.distinct], alpha.index, name=alpha.name))


def galois_kappas(kappas, u, q_u):
    """sigma_u of each kappa's coordinates, as a kappa of the conjugate
    problem, whose q is q_u."""
    return [KappaMap(k.group, k.n, q_u, {key: galois(c, u) for key, c in k.coeffs.items()})
            for k in kappas]


def cyclotomic_problems():
    spec = parse_problem_file(os.path.join(os.path.dirname(__file__), "golden", "z6z6_zeta12.json"))
    yield "z6z6_zeta12", (spec.action, spec.q, spec.alpha)
    for seed in (3, 8):
        yield f"seeded-{seed}", cyclotomic_diagonal_instance(seed)


@pytest.mark.parametrize("name", ["z6z6_zeta12", "seeded-3", "seeded-8"])
def test_galois_conjugation_maps_the_parameter_space(name):
    # sigma_u for u in (Z/12)^x is a field automorphism fixing Q, so it maps
    # the condition rows of a problem entrywise to those of its conjugate,
    # and its parameter space coordinatewise onto the conjugate's, by either
    # route.  These spaces are spanned by unit coordinates, which sigma_u
    # fixes; the rows, whose q products are genuinely cyclotomic, move.
    problem = dict(cyclotomic_problems())[name]
    system = exhaustive_rows(*problem)
    direct = solve_parameter_space(*problem)
    coh = cohomological_parameter_space(*problem)
    assert direct and len(coh) == len(direct)
    moved = False
    for u in (5, 7, 11):
        conjugate = galois_problem(*problem, u)
        system_u = exhaustive_rows(*conjugate)
        assert system_u.tags == system.tags
        assert [list(row.items()) for row in system_u.rows] == [
            [(key, galois(c, u)) for key, c in row.items()] for row in system.rows]
        moved |= system_u.rows != system.rows
        for basis, route in ((direct, solve_parameter_space),
                             (coh, cohomological_parameter_space)):
            mapped, got = galois_kappas(basis, u, conjugate[1]), route(*conjugate)
            assert mapped == got and same_space(mapped, got)
    assert moved

"""Metamorphic test: a coboundary twist of the cocycle gives an isomorphic
algebra, so it must move the parameter space in a known way.

For beta: G -> mu_4 with beta(1) = 1, replace alpha by alpha * d(beta),
d(beta)(a, b) = beta(a) beta(b) / beta(ab).  Then t'_g -> beta(g) t_g is an
isomorphism of the twisted group algebras that fixes V and the action, so
kappa' is a parameter of the new algebra exactly when kappa_g =
beta(g) kappa'_g is one of the old: each g-coordinate of the space is scaled
by beta(g)^-1.  The twisted tables carry many distinct values, so they also
exercise ``validate_cocycle``'s products where its memo hits least.
"""

import random

import pytest

from tqdha.classify import symmetric_instance
from tqdha.cohomology import cohomological_parameter_space
from tqdha.groups import bicharacter_cocycle, cocycle_from_values, group_from_cyclic_orders, validate_cocycle
from tqdha.pbw import KappaMap, same_space, solve_parameter_space
from tqdha.quantum import QMatrix, diagonal_action
from tqdha.scalars import ONE, root_of_unity


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
    moved = [KappaMap.from_coordinates(G, n, q, {(g, i, j): c / beta[g]
                                                 for (g, i, j), c in k.coordinates().items()})
             for k in direct]
    assert same_space(moved, direct_tw) and same_space(moved, coh_tw)
    if name != "z6-diagonal":
        # the rescaling is seen: the unscaled space is not the twisted one.  A
        # diagonal problem's space is spanned by single coordinates, which any
        # rescaling keeps, so there only the dimensions and the route agree.
        assert not same_space(direct, direct_tw)

#!/usr/bin/env python3
"""Survey parameter-space dimensions for small diagonal actions, comparing
the closed-form classification against the direct solver.

Instances: sign actions of Z/2 and the Klein four-group, and a Z/4 action
through i, with and without a twisting bicharacter where one exists.  Exits 1
if the two disagree on any instance:

    PYTHONPATH=src python scripts/diagonal_survey.py
"""

import sys

from tqdha.classify import diagonal_kappa_basis_labeled
from tqdha.groups import bicharacter_cocycle, group_from_cyclic_orders, trivial_cocycle
from tqdha.linalg import same_span
from tqdha.pbw import solve_parameter_space
from tqdha.quantum import QMatrix, diagonal_action
from tqdha.scalars import MINUS_ONE, ONE, root_of_unity


def instance_z2_sign(n):
    g = group_from_cyclic_orders([2])
    lam = [[ONE] * n, [MINUS_ONE] * n]
    return f"Z/2 sign, n={n}", g, diagonal_action(g, lam), QMatrix.uniform(n, 1), [trivial_cocycle(g)]


def instance_klein(n=2):
    g = group_from_cyclic_orders([2, 2])
    lam = {
        (0, 0): [ONE, ONE],
        (1, 0): [ONE, MINUS_ONE],
        (0, 1): [MINUS_ONE, ONE],
        (1, 1): [MINUS_ONE, MINUS_ONE],
    }
    act = diagonal_action(g, [lam[lab] for lab in g.labels])
    cocycles = [trivial_cocycle(g), bicharacter_cocycle(g, [[0, 0], [1, 0]])]
    return "Klein mixed signs, n=2", g, act, QMatrix.uniform(2, 1), cocycles


def instance_z4():
    g = group_from_cyclic_orders([4])
    i = root_of_unity(4, 1)
    lam = [[ONE, ONE], [i, i.inverse()], [MINUS_ONE, MINUS_ONE], [i.inverse(), i]]
    return "Z/4 via (i, -i), n=2", g, diagonal_action(g, lam), QMatrix.uniform(2, 1), [trivial_cocycle(g)]


def main() -> int:
    disagreements = 0
    rows = [instance_z2_sign(2), instance_z2_sign(3), instance_klein(), instance_z4()]
    for name, group, action, q, cocycles in rows:
        for alpha in cocycles:
            labeled = diagonal_kappa_basis_labeled(action, q, alpha)
            direct = solve_parameter_space(action, q, alpha)
            ok = len(labeled) == len(direct) and (
                not labeled
                or same_span(
                    [k.coordinate_row() for _, k in labeled],
                    [k.coordinate_row() for k in direct],
                )
            )
            disagreements += not ok
            tags = ", ".join(f"(a={a}, r={r + 1}, s={s + 1})" for (a, r, s), _ in labeled) or "-"
            print(f"{name:26} alpha={alpha.name:16} dim={len(labeled)}  agree={ok}  basis: {tags}")
    return 1 if disagreements else 0


if __name__ == "__main__":
    sys.exit(main())

"""Exact computation with twisted quantum Drinfeld Hecke algebras.

Given a finite group action, a quantum parameter matrix and a group
2-cocycle, the package decides the PBW condition for a deformation map
kappa of the twisted skew group algebra S_q(V) #_a G, computes the space of
all valid kappa both by direct linear solving and through degree-2
Hochschild cohomology of the quantum Koszul complex, and reproduces
closed-form classifications for diagonal actions and for symmetric groups
twisted by the spin-cover 2-cocycle.  All arithmetic is exact, over
cyclotomic fields.  The package holds these routes only; the skew group
algebra's product, the twisted group algebra's elements
(``GroupAlgebraElement``) and the other second paths the tests compare
against live in ``tests/reference.py``.
"""

from .scalars import (
    CyclotomicScalar,
    ScalarParseError,
    parse_scalar,
    rational,
    root_of_unity,
)
from .linalg import kernel_basis, same_span
from .groups import (
    Cocycle2,
    FiniteGroup,
    bicharacter_cocycle,
    cocycle_from_rows,
    cocycle_from_values,
    group_from_cyclic_orders,
    group_from_permutations,
    group_from_table,
    symmetric_group,
    trivial_cocycle,
    trivial_group,
    validate_cocycle,
)
from .quantum import (
    GroupAction,
    QMatrix,
    check_action_extends,
    diagonal_action,
    natural_permutation_action,
)
from .spin import (
    CliffordElement,
    clifford_multiply,
    inequality_count,
    section_u,
    spin_cocycle,
    transposition_lift,
    verify_cover,
)
from .pbw import (
    KappaMap,
    check_pbw_conditions,
    solve_parameter_space,
    verify_ambiguities,
)
from .cohomology import (
    Cochain,
    apply_dm_star,
    cohomological_parameter_space,
    composition_image,
    constant_cocycle_basis,
    reynolds_project,
    skew_symmetrize,
)
from .classify import (
    diagonal_constant_basis,
    diagonal_kappa_basis,
    eta_family_basis,
    symmetric_natural_classify,
)
from .problems import ProblemSpec, ProblemValidationError, load_problem, parse_problem_file

__version__ = "0.1.0"

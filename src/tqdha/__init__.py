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

Each name is imported from its module (``from tqdha.pbw import
solve_parameter_space``); this file re-exports nothing, so importing a
module loads only the modules it imports itself: ``tqdha.scalars`` loads
no other, and the foundation modules (``scalars``, ``linalg``, ``groups``,
``quantum``) load no route.
"""

__version__ = "0.1.0"

"""Completeness of the routes' parameter space, from the Diamond Lemma and
integer arithmetic alone.

The routes' basis is rechecked word by word by the rewriting oracle, so each
of its vectors is a PBW kappa, and it is independent.  That leaves whether a
kappa is missing.  Here the kernel dimension of two systems is computed mod
a prime (``reference.nullity_mod``, ints mod p, no ``linalg`` and no scalar
arithmetic): the overlap words' own rows (``reference.rewriting_rows``) and
the exhaustive condition rows (``reference.condition_system``).  A dimension
mod p is at least the true one, and the basis lies in the kernel, so
equality with the basis's length proves that it spans the space.  No golden
output is read.
"""

from fractions import Fraction

import pytest

from reference import condition_system, nullity_mod, prime_for, reduce_mod, rewriting_rows
from test_golden import NOT_EXTENDING
from test_orbit_solver import BUNDLED, GOLDEN_PROBLEMS, benchmark_inputs, bundled
from tqdha.classify import symmetric_instance
from tqdha.linalg import kernel_basis
from tqdha.pbw import ConditionSystem, ExtensionError, solve_parameter_space
from tqdha.problems import load_problem
from tqdha.scalars import rational, root_of_unity

SYMMETRIC = [f"S{n} {kind}" for n in (3, 4, 5) for kind in ("untwisted", "twisted")]
CYCLOTOMIC = [f"cyclotomic seed {seed} #{k}" for seed in (1, 2, 3) for k in range(3)]


def problem(name):
    if name.startswith("S"):
        return symmetric_instance(int(name[1]), name.endswith(" twisted"))[1:]
    if name.startswith("cyclotomic"):
        seed, k = int(name.split()[2]), int(name[-1])
        prob = load_problem(benchmark_inputs().cyclotomic_instances(seed, 3)[k]["problem"])
        return prob.action, prob.q, prob.alpha
    return bundled(name)


def routes_dimension(name):
    """The problem and the length of the solver's basis, which its oracle
    recheck holds to the overlap words; None for an action that does not
    extend to S_q(V), which the routes refuse."""
    action, q, alpha = problem(name)
    try:
        return (action, q, alpha), len(solve_parameter_space(action, q, alpha))
    except ExtensionError:
        return (action, q, alpha), None


PROBLEMS = BUNDLED + GOLDEN_PROBLEMS + CYCLOTOMIC + SYMMETRIC


@pytest.mark.parametrize("name", PROBLEMS)
def test_overlap_words_give_the_routes_dimension(name):
    """ncols - rank mod p of the Diamond-Lemma rows is the routes' dimension;
    an action that does not extend has a word that fails for every kappa."""
    instance, dimension = routes_dimension(name)
    if dimension is None:
        with pytest.raises(ValueError, match="fail for every kappa"):
            rewriting_rows(*instance)
    else:
        assert nullity_mod(rewriting_rows(*instance)) == dimension


@pytest.mark.parametrize("name", [name for name in PROBLEMS if name not in NOT_EXTENDING])
def test_condition_rows_give_the_routes_dimension(name):
    """The same for the exhaustive rows of conditions (1) and (2), which
    cut out the same space as the overlap words."""
    instance, dimension = routes_dimension(name)
    assert nullity_mod(condition_system(*instance)) == dimension


def test_a_prime_that_divides_a_denominator_is_refused():
    """1/p has no image mod p, and the prime rule passes over such a p; a
    prime that is not 1 mod N has no primitive N-th root, and is refused."""
    p = prime_for(3, ())
    assert p > 2 ** 31 and p % 3 == 1
    with pytest.raises(ValueError, match="divides the denominator"):
        reduce_mod(rational(Fraction(1, 2 * p)), p, 3)
    assert prime_for(3, {2 * p}) > p
    w = reduce_mod(root_of_unity(3, 1), p, 3)
    assert w != 1 and pow(w, 3, p) == 1
    assert reduce_mod(rational(Fraction(1, 2)), p, 3) * 2 % p == 1
    with pytest.raises(ValueError, match="no image"):
        reduce_mod(root_of_unity(3, 1), 5, 3)


def test_a_rank_drop_mod_p_reads_as_a_larger_kernel():
    """The one-entry row (p), p the prime the rule picks, has no kernel over
    Q but vanishes mod p, so the test would fail there, not pass: an unlucky
    prime is inconclusive, never wrong.  The next prime decides it."""
    p = prime_for(1, ())
    system = ConditionSystem(({0: rational(p)},), 1, ((),))
    assert kernel_basis(system.rows, 1) == []
    assert nullity_mod(system) == 1 and nullity_mod(system, prime_for(1, {p})) == 0

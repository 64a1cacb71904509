"""The rewriting oracle at generators, against the exhaustive oracle.

By default ``verify_ambiguities`` writes the last group letter of each
overlap word (t_g t_h t_s, t_g t_s v_i, t_s v_j v_i) at generators s only;
the proof is in the ``pbw`` module docstring.  Here each family's default
verdict is compared with its ``exhaustive=True`` verdict on kappas that pass
and fail, and on a cocycle and an action planted wrong away from the
generators, which both ways must reject.
"""

import random
from collections import Counter

import pytest

from test_orbit_solver import LEMMA_CASES, bundled, random_kappa
from tqdha.groups import GroupAlgebraElement, cocycle_from_values
from tqdha.pbw import FAMILIES, KappaMap, solve_parameter_space, verify_ambiguities
from tqdha.quantum import GroupAction
from tqdha.scalars import MINUS_ONE, rational

CASES = {
    **{name: LEMMA_CASES[name] for name in
       ("S3 q=-1", "S4 twisted", "Klein", "z6z6_zeta12", "Z/6xZ/6 cyclotomic")},
    "z2_negation": lambda: bundled("z2_negation"),
    "weyl2": lambda: bundled("weyl2"),
}

# two variables, and an action by scalars of determinant 1: both PBW
# conditions hold for every kappa
EVERY_KAPPA_PASSES = ("weyl2", "z2_negation")


def verdicts(kappa, action, q, alpha, exhaustive):
    return {f: verify_ambiguities(kappa, action, q, alpha, families=(f,),
                                  exhaustive=exhaustive)["resolvable"]
            for f in FAMILIES}


def sample_kappas(action, q, alpha, rnd):
    """Random kappas, kappas in the parameter space, and basis vectors moved
    off it in one coordinate."""
    G, n = action.group, action.n
    space = solve_parameter_space(action, q, alpha)
    for density in (0.2, 0.5):
        yield "random", random_kappa(action, q, rnd, range(G.size), density)
    for _ in range(2):
        kappa = KappaMap.zero(G, n, q)
        for b in space:
            kappa = kappa.add(b.scale(rational(rnd.choice([-2, -1, 1, 2]))))
        yield "in span", kappa
    for b in space[:3]:
        i, j = sorted(rnd.sample(range(n), 2))
        moved = {(i, j): GroupAlgebraElement({rnd.randrange(G.size): rational(1)})}
        yield "basis moved", b.add(KappaMap(G, n, q, moved))


@pytest.mark.parametrize("name", sorted(CASES))
def test_each_family_at_generators_equals_the_exhaustive_verdict(name):
    action, q, alpha = CASES[name]()
    failing = Counter()
    for kind, kappa in sample_kappas(action, q, alpha, random.Random(53)):
        ours = verdicts(kappa, action, q, alpha, exhaustive=False)
        assert ours == verdicts(kappa, action, q, alpha, exhaustive=True), kind
        if kind == "in span":
            assert all(ours.values())
        failing.update(f for f, ok in ours.items() if not ok)
    if name in EVERY_KAPPA_PASSES:
        assert not failing
    else:
        # the random kappas must put the tvv family to the test
        assert failing["tvv"] > 0


def non_generators(G):
    return [g for g in range(1, G.size) if g not in G.generator_indices]


def planted_cocycle(alpha):
    """alpha with its value at one pair of non-generators negated, built
    without the load-time check."""
    G = alpha.group
    g = non_generators(G)[0]
    values = [[alpha(a, b) for b in range(G.size)] for a in range(G.size)]
    values[g][g] = values[g][g] * MINUS_ONE
    return cocycle_from_values(G, values)


def planted_action(action):
    """The action with the matrix of one non-generator negated, built
    without the load-time check."""
    g = non_generators(action.group)[0]
    mats = [[[-x for x in row] for row in m] if h == g else m
            for h, m in enumerate(action.mats)]
    return GroupAction(action.group, mats, validate=False)


@pytest.mark.parametrize("name", ["S3 q=-1", "S4 twisted", "Klein"])
def test_planted_faults_off_the_generators_fail_both_ways(name):
    action, q, alpha = CASES[name]()
    zero = KappaMap.zero(action.group, action.n, q)
    for family, (act, al) in (("ttt", (action, planted_cocycle(alpha))),
                              ("ttv", (planted_action(action), alpha))):
        for exhaustive in (False, True):
            rep = verify_ambiguities(zero, act, q, al, exhaustive=exhaustive)
            assert not rep["resolvable"]
            assert rep["witnesses"][0][0] == family
            assert not verdicts(zero, act, q, al, exhaustive)[family]


def test_unknown_family_names_are_refused():
    action, q, alpha = bundled("s3_natural_qminus")
    zero = KappaMap.zero(action.group, action.n, q)
    with pytest.raises(ValueError, match="'tv'"):
        verify_ambiguities(zero, action, q, alpha, families=("tv",))
    with pytest.raises(ValueError, match="'tvv'"):
        verify_ambiguities(zero, action, q, alpha, families="tvv")

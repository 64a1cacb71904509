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

from reference import overlap_words
from test_orbit_solver import BUNDLED, LEMMA_CASES, bundled, random_kappa
from test_pbw import without_generators
from tqdha.groups import cocycle_from_values
from tqdha.pbw import (
    FAMILIES,
    KappaMap,
    overlap_word_count,
    solve_parameter_space,
    verify_ambiguities,
)
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
        kappa = KappaMap(G, n, q)
        for b in space:
            kappa = kappa + b.scale(rational(rnd.choice([-2, -1, 1, 2])))
        yield "in span", kappa
    for b in space[:3]:
        i, j = sorted(rnd.sample(range(n), 2))
        moved = {(rnd.randrange(G.size), i, j): rational(1)}
        yield "basis moved", b + KappaMap(G, n, q, moved)


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
    """A copy of the action with the matrix of one non-generator negated:
    its row tuple swapped in after the load-time check.  The copy is a new
    action, so it starts with none of the data derived from the valid one
    (a shallow copy would share its overlap tables and extension report)."""
    g = non_generators(action.group)[0]
    rows = list(action.rows_nz)
    rows[g] = tuple(tuple((k, -x) for k, x in row) for row in rows[g])
    bad = GroupAction(action.group, action.rows_nz)
    bad.rows_nz = tuple(rows)
    return bad


@pytest.mark.parametrize("name", ["S3 q=-1", "S4 twisted", "Klein"])
def test_planted_faults_off_the_generators_fail_both_ways(name):
    action, q, alpha = CASES[name]()
    zero = KappaMap(action.group, action.n, q)
    for exhaustive in (False, True):
        # the valid problem resolves, with its tables built before the planting
        assert verify_ambiguities(zero, action, q, alpha, exhaustive=exhaustive)["resolvable"]
        assert all(verdicts(zero, action, q, alpha, exhaustive).values())
    for family, (act, al) in (("ttt", (action, planted_cocycle(alpha))),
                              ("ttv", (planted_action(action), alpha))):
        for exhaustive in (False, True):
            rep = verify_ambiguities(zero, act, q, al, exhaustive=exhaustive)
            assert not rep["resolvable"]
            assert rep["witnesses"][0][0] == family
            assert not verdicts(zero, act, q, al, exhaustive)[family]


def test_unknown_family_names_are_refused():
    action, q, alpha = bundled("s3_natural_qminus")
    zero = KappaMap(action.group, action.n, q)
    with pytest.raises(ValueError, match="'tv'"):
        verify_ambiguities(zero, action, q, alpha, families=("tv",))
    with pytest.raises(ValueError, match="'tvv'"):
        verify_ambiguities(zero, action, q, alpha, families="tvv")
    # only None means every family: an empty selection is refused
    for empty in ((), [], set(), iter(())):
        with pytest.raises(ValueError, match="at least one family"):
            verify_ambiguities(zero, action, q, alpha, families=empty)
    # a one-pass iterable is read once: its family runs
    once = verify_ambiguities(zero, action, q, alpha, families=iter(["vvv"]))
    assert once == verify_ambiguities(zero, action, q, alpha, families=("vvv",))
    assert once["checked"] > 0
    assert verify_ambiguities(zero, action, q, alpha, families=None) == verify_ambiguities(
        zero, action, q, alpha, families=FAMILIES)


@pytest.mark.parametrize("name", BUNDLED + ["S3 without generators"])
def test_overlap_word_count_is_the_number_of_words_written(name):
    """The closed form ``pbw-check --oracle`` checks its budget with, against
    counting the words of every family, at generators and exhaustively; a
    group that records no generators writes every element both ways."""
    if name == "S3 without generators":
        action, _ = without_generators(*CASES["S3 q=-1"]()[::2])
    else:
        action = bundled(name)[0]
    G, n = action.group, action.n
    counts = []
    for exhaustive in (False, True):
        letters = range(G.size) if exhaustive else G.generator_indices or range(G.size)
        words = sum(1 for family in FAMILIES for _ in overlap_words(family, G, n, letters))
        assert overlap_word_count(G, n, exhaustive) == words, exhaustive
        counts.append(words)
    assert (counts[0] == counts[1]) == (not G.generator_indices), counts

"""The checker and the rewriting oracle by sparse products, against dense
references written here.

``check_pbw_conditions`` evaluates the rows at the sites that meet kappa's
support, each site written on its first use, and ``verify_ambiguities``
groups precomputed columns of each overlap family by word (the normal forms
are affine in kappa; see the ``pbw`` module docstring).  Both evaluate in row or
word order and stop once the report is settled: the witness list is full and
each flag has a failing row (the checker), or they hold max(limit, 1)
witnesses (the oracle).  The references evaluate every row of the
exhaustive ``reference.condition_system``, and reduce both sides of every
overlap word with ``reference.reduce_terms``, which shares no code with the
package's rewriting engine, and must give the same
reports: verdicts, counts, and witnesses and violations in the same order.  The kappas are dense, sparse and single-coordinate, in and off
the parameter space, and ones that fail only condition (1) or only condition
(2), so that one condition is settled by a failing row while the other must
read all of its rows; each report is compared at four witness limits,
including 0, where a report lists nothing but must still say whether kappa
fails.
"""

import inspect
import random
from itertools import combinations, product

import pytest

import reference
from reference import GroupAlgebraElement, condition_system, reduce_terms, rewrite_pair, word_letters
from test_groups import skipping_the_last
from test_oracle_generators import planted_action, planted_cocycle
from test_orbit_solver import BUNDLED, bundled, instance, random_kappa
from test_pbw import cyclotomic_diagonal_instance, s3_instance
from tqdha import pbw
from tqdha.classify import kappa_one, symmetric_instance
from tqdha.cohomology import constant_cocycle_basis, reynolds_project
from tqdha.groups import Cocycle2, group_from_permutations, symmetric_group, trivial_cocycle
from tqdha.linalg import bump
from tqdha.pbw import (
    FAMILIES,
    KappaMap,
    check_pbw_conditions,
    solve_parameter_space,
    verify_ambiguities,
)
from tqdha.quantum import GroupAction, QMatrix, natural_permutation_action
from tqdha.scalars import rational
from tqdha.spin import spin_cocycle

CASES = {
    "S3 q=-1": lambda: s3_instance()[1:],
    "S4 twisted": lambda: symmetric_instance(4, True)[1:],
    "Z/6xZ/6 cyclotomic": lambda: cyclotomic_diagonal_instance(6),
}

# every witness, cuts inside the list, and none: a report that lists no
# witness must still give the verdict
WITNESS_LIMITS = (10 ** 6, 3, 1, 0)

# the checker's flags (condition1, condition2) on the kappas that fail one
# condition only
ONE_CONDITION_FLAGS = {"fails condition (1) only": (False, True),
                       "fails condition (2) only": (True, False)}


def kappas(action, q, alpha, rnd):
    G, n = action.group, action.n
    space = solve_parameter_space(action, q, alpha)
    yield "zero", KappaMap(G, n, q)
    yield "dense", random_kappa(action, q, rnd, range(G.size), 0.7)
    yield "sparse", random_kappa(action, q, rnd, range(G.size), 0.1)
    for _ in range(2):
        i, j = sorted(rnd.sample(range(n), 2))
        one = {(rnd.randrange(G.size), i, j): rational(rnd.choice([-1, 2]))}
        yield "single coordinate", KappaMap(G, n, q, one)
    if space:
        combo = KappaMap(G, n, q)
        for b in space:
            combo = combo + b.scale(rational(rnd.choice([-2, -1, 1, 2])))
        yield "in the space", combo
        i, j = sorted(rnd.sample(range(n), 2))
        moved = {(rnd.randrange(G.size), i, j): rational(1)}
        yield "moved off the space", combo + KappaMap(G, n, q, moved)
    # a d_3* kernel vector at one element g satisfies condition (2) there (and
    # trivially elsewhere); conjugation moves it off g when g is not central
    noncentral = [g for g in range(G.size) if any(G.conjugate(h, g) != g for h in range(G.size))]
    if noncentral:
        yield "fails condition (1) only", constant_cocycle_basis(action, q, noncentral[:1])[0]
    # an invariant satisfies condition (1); at n = 3 there is one triple, and
    # every invariant satisfies condition (2) too
    if n > 3:
        dense = random_kappa(action, q, rnd, range(G.size), 0.7)
        yield "fails condition (2) only", reynolds_project(dense, action, q, alpha)


# -- the oracle ---------------------------------------------------------------


def overlap_words(family, G, n, letters):
    """(word in the public format, witness tag), in the oracle's order."""
    elements = range(G.size)
    if family == "ttt":
        for g, h, k in product(elements, elements, letters):
            yield [("t", g), ("t", h), ("t", k)], ("ttt", g, h, k)
    elif family == "ttv":
        for g, h, i in product(elements, letters, range(n)):
            yield [("t", g), ("t", h), ("v", i)], ("ttv", g, h, i)
    elif family == "tvv":
        for h, (i, j) in product(letters, combinations(range(n), 2)):
            yield [("t", h), ("v", j), ("v", i)], ("tvv", h, j, i)
    elif family == "vvv":
        for i, j, k in combinations(range(n), 3):
            yield [("v", k), ("v", j), ("v", i)], ("vvv", k, j, i)


def reference_oracle(kappa, action, q, alpha, families, exhaustive):
    G, n = action.group, action.n
    letters = range(G.size) if exhaustive else G.generator_indices or range(G.size)
    checked, witnesses = 0, []
    for family in FAMILIES:
        if family not in families:
            continue
        for word, tag in overlap_words(family, G, n, letters):
            checked += 1
            left, right = (
                reduce_terms(rewrite_pair(word_letters(word, n), p, kappa, action, q, alpha),
                             kappa, action, q, alpha)
                for p in (0, 1))
            if left != right:
                witnesses.append(tag)
    return {"resolvable": not witnesses, "checked": checked, "witnesses": witnesses}


@pytest.mark.parametrize("name", sorted(CASES))
def test_oracle_equals_reducing_every_overlap_word(name):
    action, q, alpha = CASES[name]()
    rnd = random.Random(41)
    cut = 0
    for kind, kappa in kappas(action, q, alpha, rnd):
        runs = [(FAMILIES, False), (("tvv", "vvv"), True)]
        # every family exhaustively for one kappa: ttt and ttv never meet the
        # kappa rule (46,656 ttt words at Z/6 x Z/6, so not there)
        if kind == "dense" and name != "Z/6xZ/6 cyclotomic":
            runs.append((FAMILIES, True))
        for families, exhaustive in runs:
            want = reference_oracle(kappa, action, q, alpha, families, exhaustive)
            cut += len(want["witnesses"]) > WITNESS_LIMITS[1]
            for limit in WITNESS_LIMITS:
                got = verify_ambiguities(kappa, action, q, alpha, families=families,
                                         max_witnesses=limit, exhaustive=exhaustive)
                assert got == dict(want, witnesses=want["witnesses"][:limit]), (
                    kind, families, exhaustive, limit)
    assert cut, "some report should be cut by the small limit"


@pytest.mark.parametrize("name", ["S3 q=-1", "S4 twisted"])
def test_oracle_equals_the_reference_on_planted_faults(name):
    """Words that fail whatever kappa is, beside words that fail by kappa:
    a cocycle and an action planted wrong away from the generators."""
    action, q, alpha = CASES[name]()
    rnd = random.Random(47)
    dense = random_kappa(action, q, rnd, range(action.group.size), 0.7)
    for act, al in ((action, planted_cocycle(alpha)), (planted_action(action), alpha)):
        for exhaustive in (False, True):
            want = reference_oracle(dense, act, q, al, FAMILIES, exhaustive)
            assert {w[0] for w in want["witnesses"]} > {"tvv"}
            got = verify_ambiguities(dense, act, q, al, max_witnesses=10 ** 6,
                                     exhaustive=exhaustive)
            assert got == want, exhaustive


def s3_listing_a_generator_twice():
    """S3 from the generators (0 1), (0 1 2), (0 1), as a problem file may
    list them: ``G.generators`` repeats one, and the words at generators are
    numbered by position in that list."""
    G = group_from_permutations([(1, 0, 2), (1, 2, 0), (1, 0, 2)])
    assert len(set(G.generators)) == 2 and len(G.generators) == 3
    return natural_permutation_action(G), QMatrix.uniform(3, -1), trivial_cocycle(G)


CLOSED_FORM_CASES = {
    "S3 q=-1": lambda: s3_instance()[1:],
    "S3 with (0 1) twice": s3_listing_a_generator_twice,
    "S4 twisted": lambda: symmetric_instance(4, True)[1:],
    "Klein": lambda: bundled("klein_bicharacter_diag"),
    "Z/6xZ/6 seed 1": lambda: cyclotomic_diagonal_instance(1),
}


def reduced_table(family, action, q, alpha, exhaustive):
    """The failing words of ttt or ttv, {word number: tag} in word order, and
    the number of words, from reducing every word both ways with
    ``pbw._rewrite_at``; the kappa rule must never fire."""
    G, n = action.group, action.n
    letters = range(G.size) if exhaustive else G.generator_indices or range(G.size)
    failures, events, checked = {}, [], 0
    for w, (word, tag) in enumerate(reference.overlap_words(family, G, n, letters)):
        checked += 1
        if (pbw._rewrite_at(word, 0, n, action, q, alpha, events)
                != pbw._rewrite_at(word, 1, n, action, q, alpha, events)):
            failures[w] = tag
    assert not events, family
    return failures, checked


@pytest.mark.parametrize("name", sorted(CLOSED_FORM_CASES))
def test_closed_form_tables_equal_reducing_every_word(name):
    """ttt and ttv are decided from their normal forms written out (the
    ``pbw`` module docstring); the tables must be those of the reducer:
    ``checked``, the failing words with their numbers, tags and order, and
    nothing deferred.  The planted cocycle and action fail at some words."""
    action, q, alpha = CLOSED_FORM_CASES[name]()
    problems = {"as loaded": (action, alpha), "planted cocycle": (action, planted_cocycle(alpha)),
                "planted action": (planted_action(action), alpha)}
    for (kind, (act, al)), family, exhaustive in product(problems.items(), ("ttt", "ttv"),
                                                         (False, True)):
        failures, checked = reduced_table(family, act, q, al, exhaustive)
        table = pbw._OverlapTable(act, q, al, family, exhaustive)
        assert (table.checked, list(table.tags.items()), table.fixed, table.deferred) == (
            checked, list(failures.items()), set(failures), {}), (kind, family, exhaustive)
        planted = {"planted cocycle": "ttt", "planted action": "ttv"}.get(kind)
        assert bool(failures) == (family == planted), (kind, family, exhaustive)


def test_the_reduced_table_shares_no_evaluator(monkeypatch):
    """The ttt and ttv tables read ``Cocycle2.cocycle_failures`` and
    ``GroupAction.composition_failures``, and ``reduced_table`` reduces the
    words itself.  With each evaluator made to skip its last letter (k in
    t_g t_h t_k, h in t_g t_h v_i), the planted problems' tables lose words
    that the reference still fails."""
    action, q, alpha = CLOSED_FORM_CASES["S4 twisted"]()
    problems = {"ttt": (action, planted_cocycle(alpha)), "ttv": (planted_action(action), alpha)}
    monkeypatch.setattr(Cocycle2, "cocycle_failures",
                        skipping_the_last(Cocycle2.cocycle_failures, 2))
    monkeypatch.setattr(GroupAction, "composition_failures",
                        skipping_the_last(GroupAction.composition_failures, 1))
    for (family, (act, al)), exhaustive in product(problems.items(), (False, True)):
        failures, checked = reduced_table(family, act, q, al, exhaustive)
        table = pbw._OverlapTable(act, q, al, family, exhaustive)
        assert table.checked == checked and set(failures) > table.fixed, (family, exhaustive)


ENGINE = ("_first_redex", "_apply_rule", "_reduce_letter_terms", "_rewrite_at")


def test_the_engine_takes_no_kappa_and_the_reference_reducer_none_of_it():
    """The package's rewriting engine fires the kappa-free rules only; the
    kappa rule the tests reduce with is ``reference.rewrite_pair``'s."""
    assert [f for f in ENGINE if "kappa" in inspect.signature(getattr(pbw, f)).parameters] == []
    assert [f for f in ENGINE if hasattr(reference, f)] == []
    action, q, _ = bundled("s3_natural_qminus")
    kappa = KappaMap(action.group, 3, q, {(1, 0, 1): rational(2)})
    # q = -1: kappa(v_1, v_0) = -q_10 kappa(v_0, v_1), read from the stored pair
    assert (reference.value(kappa, 1, 0) == reference.value(kappa, 0, 1)
            == GroupAlgebraElement({1: rational(2)}))
    assert not hasattr(KappaMap, "component") and not hasattr(kappa, "_oriented")


@pytest.mark.parametrize("name", BUNDLED + [f"cyclotomic seed 1 #{k}" for k in range(3)])
def test_no_kappa_firing_on_a_column_form(name, monkeypatch):
    """A column entry reduces a form head t_g tail, which has at most one
    variable letter (the ``pbw`` module docstring), so the engine records no
    v_j v_i firing on it: every events list ``column`` passes stays empty.
    The exhaustive tables are read up to |G| = 36: at S5 the 28,800 forms
    t_h t_g of exhaustive tvv take 1.5 s, and have the shapes of the forms
    at generators."""
    action, q, alpha = instance(name)
    passed = []
    real = pbw._reduce_letter_terms

    def recording(terms, n, action, q, alpha, events):
        out = real(terms, n, action, q, alpha, events)
        passed.append(list(events))
        return out

    kinds = (False, True) if action.group.size <= 36 else (False,)
    for family, exhaustive in product(("tvv", "vvv"), kinds):
        table = pbw._OverlapTable(action, q, alpha, family, exhaustive)
        monkeypatch.setattr(pbw, "_reduce_letter_terms", recording)
        del passed[:]
        for (i, j) in table.deferred:
            for g in range(action.group.size):
                table.column(action, g, i, j)
        monkeypatch.undo()
        assert len(passed) == len(table.forms), (family, exhaustive)
        assert not any(passed), (family, exhaustive)
        assert table.forms or family == "vvv" and action.n < 3, (family, exhaustive)


# -- the checker --------------------------------------------------------------


def reference_checker(kappa, action, q, alpha, max_witnesses):
    system = condition_system(action, q, alpha)
    x = kappa.coordinate_row()
    report = {"condition1": True, "condition2": True, "violations": []}
    fields = {1: ("condition", "g", "h", "i", "j"),
              2: ("condition", "g", "i", "j", "k", "coefficient_of")}
    for row, tag in zip(system.rows, system.tags):
        defect = {}
        for col, c in row.items():
            if col in x:
                bump(defect, 0, c * x[col])
        if not defect:
            continue
        report[f"condition{tag[0]}"] = False
        if len(report["violations"]) < max_witnesses:
            report["violations"].append(
                dict(zip(fields[tag[0]], tag), defect=defect[0].serialize()))
    report["passed"] = report["condition1"] and report["condition2"]
    return report


@pytest.mark.parametrize("name", sorted(CASES))
def test_checker_equals_row_by_row_evaluation(name):
    action, q, alpha = CASES[name]()
    rnd = random.Random(43)
    cut = 0
    for kind, kappa in kappas(action, q, alpha, rnd):
        if kind in ONE_CONDITION_FLAGS:
            want = reference_checker(kappa, action, q, alpha, 10 ** 6)
            assert (want["condition1"], want["condition2"]) == ONE_CONDITION_FLAGS[kind], kind
        for limit in WITNESS_LIMITS:
            got = check_pbw_conditions(kappa, action, q, alpha, max_witnesses=limit)
            want = reference_checker(kappa, action, q, alpha, limit)
            assert got == want, (kind, limit)
            cut += limit == WITNESS_LIMITS[1] == len(want["violations"])
    assert cut, "some report should be cut by the small limit"


def test_checker_writes_the_sites_that_meet_kappa_only(monkeypatch):
    """Condition (1) at (s, g) reads kappa_g and kappa_(sgs^-1), condition (2)
    at g reads kappa_g: the checker writes those sites only, once each."""
    written = []
    real_one, real_two = pbw._ConditionSites.condition_one, pbw._ConditionSites.condition_two

    def one(self, h, g, at_g, at_gc):
        written.append((1, h, g))
        return real_one(self, h, g, at_g, at_gc)

    def two(self, g, at):
        written.append((2, g))
        return real_two(self, g, at)

    monkeypatch.setattr(pbw._ConditionSites, "condition_one", one)
    monkeypatch.setattr(pbw._ConditionSites, "condition_two", two)
    G = symmetric_group(5)
    action, q, alpha = natural_permutation_action(G), QMatrix.uniform(5, -1), spin_cocycle(G)
    gens = G.generator_indices
    assert check_pbw_conditions(KappaMap(G, 5, q), action, q, alpha)["passed"]
    assert written == []
    # kappa_1 lives at the identity, 0
    kappa = KappaMap.from_records(G, 5, q, kappa_one(5).to_records())
    assert check_pbw_conditions(kappa, action, q, alpha)["passed"]
    assert written == [(1, s, 0) for s in gens] + [(2, 0)]
    assert check_pbw_conditions(kappa, action, q, alpha)["passed"]
    assert len(written) == len(gens) + 1
    # one coordinate at a 3-cycle g: condition (1) at (s, g) and (s, s^-1 g s)
    g = next(x for x in range(1, G.size) if G.mult[G.mult[x][x]][x] == 0)
    del written[:]
    single = KappaMap(G, 5, q, {(g, 0, 1): rational(1)})
    assert not check_pbw_conditions(single, action, q, alpha, max_witnesses=10 ** 6)["passed"]
    assert written == [(1, s, x) for s in gens
                       for x in sorted({g, G.conjugate(G.inv[s], g)})] + [(2, g)]

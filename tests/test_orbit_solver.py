"""The direct solver's short cuts, each against the exhaustive system.

The solver solves for kappa at class representatives only (condition (1) at
the generators of each centralizer, condition (2) at the representative),
settles the one- and two-term rows by union-find (``linalg.kernel_basis``)
and expands the solutions along conjugation.  Here its output is compared
byte for byte with plain ``RowReducer`` elimination of the exhaustive rows,
the chosen centralizer generators and the conjugation walk with the groups
they describe, and the verdict at class representatives (condition (1), and
condition (2) at one element per class), read from the checker's exhaustive
report, with the exhaustive verdict, on planted kappas that fail in each
possible way: the lemma that the solver's condition (2) at representatives
rests on.  The
cohomology route's short cuts are here too: the subgroup chains it sums each
centralizer through, and its rank filter at class representatives against
the defining average over G of every kernel vector, and its d_3* kernels,
written from per-problem templates, against the per-(g, pair) cochain
assembly they replaced.
"""

import gc
import hashlib
import importlib.util
import inspect
import os
import random
import sys
import weakref
from collections import Counter

import pytest

from reference import condition_system, conjugacy_classes, constant_two, exhaustive_rows, sparse_rows
from test_cohomology import _literal_average
from test_pbw import cyclotomic_diagonal_instance, s3_instance
import tqdha
from tqdha import cohomology, pbw
from tqdha.classify import symmetric_instance
from tqdha.cohomology import (
    Cochain,
    apply_dm_star,
    cohomological_parameter_space,
    constant_cocycle_basis,
    skew_symmetrize,
)
from tqdha.groups import (
    FiniteGroup,
    _generated,
    group_from_cyclic_orders,
    group_from_permutations,
    group_from_table,
    symmetric_group,
    trivial_cocycle,
    trivial_group,
)
from tqdha.linalg import RowReducer, kernel_basis
from tqdha.pbw import (
    ExtensionError,
    KappaMap,
    check_pbw_conditions,
    extension_report,
    solve_parameter_space,
    verify_ambiguities,
)
from tqdha.problems import load_problem, parse_problem_file
from tqdha.quantum import (
    GroupAction,
    QMatrix,
    action_from_generator_matrices,
    diagonal_action,
    natural_permutation_action,
)
from tqdha.scalars import MINUS_ONE, ONE, ZERO, rational, root_of_unity
from tqdha.spin import spin_cocycle

HERE = os.path.dirname(os.path.abspath(__file__))
PROBLEMS = os.path.join(HERE, os.pardir, "problems")
GOLDEN = os.path.join(HERE, "golden")
# every problem file: the bundled ones and those the goldens add
BUNDLED = sorted(f[:-5] for f in os.listdir(PROBLEMS) if f.endswith(".json"))
GOLDEN_PROBLEMS = ["s3_reflection_zeta3", "z2_swap_zeta4", "z6z6_zeta12"]


def bundled(name):
    folder = GOLDEN if name in GOLDEN_PROBLEMS else PROBLEMS
    prob = parse_problem_file(os.path.join(folder, name + ".json"))
    return prob.action, prob.q, prob.alpha


def benchmark_inputs():
    """The benchmark's input generator ``perfbench/inputs.py``, imported
    without writing bytecode."""
    path = os.path.join(HERE, os.pardir, "perfbench", "inputs.py")
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    module = importlib.util.module_from_spec(spec)
    flag = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = flag
    return module


def seeded_cyclotomic(k):
    """The k-th of the benchmark's three seed-1 Z/6 x Z/6 problems in
    Q(zeta_12)."""
    prob = load_problem(benchmark_inputs().cyclotomic_instances(1, 3)[k]["problem"])
    return prob.action, prob.q, prob.alpha


def planted_instance():
    """Z/4 = <h> on C^3 by h = diag(i, -i, -1), q = 1, the trivial cocycle.
    At h, condition (1) (at the generator h) keeps x[h, 0, 1] alone, as
    i * -i = 1 while i * -1 and -i * -1 are not 1, and condition (2) at h,
    t = 2, reads (1 - (-1)) x[h, 0, 1]: it kills the one unknown that
    condition (1) leaves.  The parameter space lives at 1 and h^2."""
    G = group_from_cyclic_orders([4])
    chars = [root_of_unity(4, 1), root_of_unity(4, 3), MINUS_ONE]
    lam = [[c ** a for c in chars] for (a,) in G.labels]
    return diagonal_action(G, lam), QMatrix.uniform(3, 1), trivial_cocycle(G)


def reflection_instance(n):
    """S_n on its reflection representation in the basis of simple roots
    a_1..a_(n-1), with q = 1: s_i(a_i) = -a_i, s_i(a_(i+-1)) = a_(i+-1) + a_i,
    and s_i fixes the other roots.  The matrices are not monomial."""
    m = n - 1
    perms, gens = [], []
    for i in range(m):
        p = list(range(n))
        p[i], p[i + 1] = p[i + 1], p[i]
        perms.append(tuple(p))
        mat = [[ONE if r == c else ZERO for c in range(m)] for r in range(m)]
        mat[i][i] = MINUS_ONE
        for r in (i - 1, i + 1):
            if 0 <= r < m:
                mat[r][i] = ONE
        gens.append(mat)
    G = group_from_permutations(perms)
    return action_from_generator_matrices(G, gens, m), QMatrix.uniform(m, 1), trivial_cocycle(G)


def dihedral_instance():
    """D4 on C^2 by its eight signed permutation matrices, q = 1 and the
    trivial cocycle, as a bare table: the group records no generators, and
    its centre holds -1 besides the identity."""
    mats = [((1, 0), (0, 1))]
    mats += sorted(({((a, 0), (0, b)) for a in (1, -1) for b in (1, -1)}
                    | {((0, a), (b, 0)) for a in (1, -1) for b in (1, -1)}) - {mats[0]})
    index = {m: k for k, m in enumerate(mats)}

    def times(x, y):  # the matrix of x y is M[y] M[x]
        a, b = mats[y], mats[x]
        return index[tuple(tuple(sum(a[i][k] * b[k][j] for k in range(2)) for j in range(2))
                           for i in range(2))]

    G = group_from_table([[times(x, y) for y in range(8)] for x in range(8)], name="D4")
    action = GroupAction(G, sparse_rows([[[rational(e) for e in row] for row in m] for m in mats]))
    return action, QMatrix.uniform(2, 1), trivial_cocycle(G)


def instance(name):
    if name == "D4 table":
        return dihedral_instance()
    if name == "Z/4 planted":
        return planted_instance()
    if name.startswith("cyclotomic seed 1 #"):
        return seeded_cyclotomic(int(name[-1]))
    if name == "trivial":
        G = trivial_group()
        return diagonal_action(G, [[ONE, ONE]]), QMatrix.uniform(2, 1), trivial_cocycle(G)
    if name.startswith("S"):
        n, kind = int(name[1]), name[3:]
        if kind == "reflection":
            return reflection_instance(n)
        return symmetric_instance(n, kind == "twisted")[1:]
    return bundled(name)


def kappa_from_vector(vec, action, q):
    n = action.n
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    coords = {(idx // len(pairs), *pairs[idx % len(pairs)]): c
              for idx, c in enumerate(vec) if not c.is_zero()}
    return KappaMap(action.group, n, q, coords)


def plain_solve(action, q, alpha):
    """The parameter space by RowReducer elimination of every condition row
    (condition (2) at every element), with no pre-pass."""
    system = condition_system(action, q, alpha)
    red = RowReducer()
    for row in system.rows:
        red.insert(row)
    return [kappa_from_vector(vec, action, q) for vec in red.kernel(system.ncols)]


# every problem file whose action extends (the other two are refused below),
# the benchmark's seed-1 cyclotomic problems (#0 is z6z6_zeta12) and an
# instance where condition (2) decides the one unknown that condition (1)
# leaves at its element; the solver skips condition (2) wherever condition
# (1) forces kappa to zero
SOLVER_CASES = ["S3 untwisted", "S3 twisted", "S4 untwisted", "S4 twisted", "S5 untwisted",
                "S5 twisted", "S3 reflection", "S4 reflection", "D4 table", "Z/4 planted",
                "cyclotomic seed 1 #1", "cyclotomic seed 1 #2"] + [
    name for name in BUNDLED + GOLDEN_PROBLEMS if name not in ("s3_reflection_zeta3",
                                                               "z2_swap_zeta4")]


@pytest.mark.parametrize("name", SOLVER_CASES)
def test_solver_matches_plain_elimination_of_every_row(name):
    action, q, alpha = instance(name)
    ours = solve_parameter_space(action, q, alpha, recheck=False)
    plain = plain_solve(action, q, alpha)
    assert [k.to_records() for k in ours] == [k.to_records() for k in plain]
    assert ours, "the instance should have a nonzero parameter space"


@pytest.mark.parametrize("name", ["s3_reflection_zeta3", "z2_swap_zeta4"])
def test_solver_refuses_what_the_exhaustive_system_refuses(name):
    action, q, alpha = instance(name)
    for route in (solve_parameter_space, condition_system):
        with pytest.raises(ExtensionError):
            route(action, q, alpha)


# sha256 of the exhaustive system (``system_digest``) as the package built it
# while it still held that mode, with whether the action extends and the
# number of rows: every problem file, the benchmark's seed-1 cyclotomic
# problems and S3 and S4 both ways
EXHAUSTIVE_DIGESTS = {
    "klein_bicharacter_diag": ("4442f87b12581c33e747290be09401df8dd68905c1048555a3520a688176e3fc", True, 4),
    "s3_natural_qminus": ("4c8d47e15a59e32cc2e33f66be8f7297a811c293226d8116a9401e55ab7b5dfa", True, 46),
    "s4_twisted": ("bcd381c3ce98bd02f052c1c3cceaa506f5a81236cb85c44f080128c844e6c369", True, 572),
    "s5_twisted": ("4f9e95b4306d47d5a1a5feb93ee1c10377acf66fe7479200a9dd8b784ce1039d", True, 6696),
    "weyl2": ("6b5a775e79bd4df176e82432725b940db5dd244a1afdfb5e1e584527a06e14f4", True, 0),
    "z2_negation": ("d92a718ec7ae1e82f280116c6f1d17ca7ec99e24d4badc3d1315e42e1ae7c160", True, 0),
    "s3_reflection_zeta3": ("500aac1adf80ed1fdb3397a387ef427bc4768f3cc828711cd12fd99533e82069", False, 12),
    "z2_swap_zeta4": ("acaacde101529e204644ca7a6ae4d21356cd14c12f96f0caf5140bd8fae63e26", False, 2),
    "z6z6_zeta12": ("cc4546ac8380bba9c9046c1c088c7db6591e77e868e7c07a781b78fa44a9feb4", True, 738),
    "cyclotomic seed 1 #0": ("cc4546ac8380bba9c9046c1c088c7db6591e77e868e7c07a781b78fa44a9feb4", True, 738),
    "cyclotomic seed 1 #1": ("46ea7b93d021a64c9062bf9057cfa69b4c5177594df7849525adff1443fe42e0", True, 720),
    "cyclotomic seed 1 #2": ("282d315b22587912d65ae8d9bbac14cda6699057fc9ded87ce54f2660a3ffc02", True, 708),
    "S3 untwisted": ("4c8d47e15a59e32cc2e33f66be8f7297a811c293226d8116a9401e55ab7b5dfa", True, 46),
    "S3 twisted": ("7e0962dc4866b0dad2aa64ed9f9ff58040c077c27a481d9cbb00ae500ff97cfd", True, 46),
    "S4 untwisted": ("c7baaac39c09c4c36ef8c039f935711998a3aed00d6293a9f52269348b792f1a", True, 568),
    "S4 twisted": ("bcd381c3ce98bd02f052c1c3cceaa506f5a81236cb85c44f080128c844e6c369", True, 572),
}


def system_digest(system):
    """sha256 over ncols, the row and tag counts, and each tag with its
    row's entries in key order, each scalar as its stored (order, coeffs,
    den)."""
    h = hashlib.sha256(repr((system.ncols, len(system.rows), len(system.tags))).encode())
    for row, tag in zip(system.rows, system.tags):
        h.update(repr((tag, [(col, c.order, c.coeffs, c.den) for col, c in row.items()])).encode())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(EXHAUSTIVE_DIGESTS))
def test_reference_system_is_the_exhaustive_system_the_package_built(name):
    digest, extends, nrows = EXHAUSTIVE_DIGESTS[name]
    action, q, alpha = instance(name)
    system = exhaustive_rows(action, q, alpha)
    assert (system_digest(system), len(system.rows)) == (digest, nrows)
    if extends:
        assert condition_system(action, q, alpha) == system
    else:
        with pytest.raises(ExtensionError):
            condition_system(action, q, alpha)


# the names that only tests call, now in ``tests/reference.py``
MOVED = ("SkewElement", "qsym_multiply", "act_monomial", "skew_multiply", "quantum_minor",
         "tga_multiply", "tga_inverse_of_basis", "conjugacy_classes", "constant_two",
         "condition_system", "normal_form_reduce", "word_letters", "cg_membership", "spin_alpha",
         "CliffordElement", "clifford_multiply", "_inv_sqrt2", "transposition_lift",
         "transposition_lift_recursive", "_lift_product", "section_u", "section_u_inverse",
         "sqrt2")


def test_package_holds_none_of_the_test_references():
    namespaces = [tqdha, FiniteGroup, Cochain] + [getattr(tqdha, m) for m in (
        "classify", "cohomology", "groups", "pbw", "quantum", "scalars", "spin")]
    assert [(ns.__name__, name) for ns in namespaces for name in MOVED if hasattr(ns, name)] == []
    # the Q(zeta_8) model's ``_lift`` left spin too; ``scalars._lift`` is
    # another function, the lift of a cyclotomic scalar to a higher order
    assert not hasattr(tqdha.spin, "_lift")
    # the solver's system is the only one the package builds: no default mode
    params = inspect.signature(pbw.parameter_space_rows).parameters.values()
    assert [p.name for p in params if p.default is not p.empty] == []


@pytest.mark.parametrize("name", ["Z/4 planted", "z6z6_zeta12", "cyclotomic seed 1 #2",
                                  "S4 twisted", "D4 table"])
def test_condition_two_is_skipped_only_where_condition_one_kills_every_unknown(name):
    # the solver's condition-(2) rows are the exhaustive ones at the
    # representatives where a one-term condition-(1) row leaves some unknown
    # alive; the kernels agree (test above) though the others are skipped
    action, q, alpha = instance(name)
    G, npairs = action.group, action.n * (action.n - 1) // 2
    system = pbw.class_local_system(action, q, alpha)
    dead = {col for row, tag in zip(system.rows, system.tags) if tag[0] == 1 and len(row) == 1
            for col in row}
    alive = [c for k, c in enumerate(G.class_data.centralizer)
             if not dead.issuperset(range(k * npairs, (k + 1) * npairs))]
    assert [tag for tag in system.tags if tag[0] == 2] == [
        tag for c in alive for tag in condition_system(action, q, alpha).tags
        if tag[0] == 2 and tag[1] == c]
    if name == "Z/4 planted":
        # at h one unknown is alive, and condition (2) kills it
        h = G.generator_indices[0]
        assert h in alive and any(tag[:2] == (2, h) for tag in system.tags)
        space = solve_parameter_space(action, q, alpha)
        assert {g for kappa in space for g, _, _ in kappa.coeffs} == {0, G.mult[h][h]}
    if name.startswith(("z6z6", "cyclotomic")):
        assert len(alive) < G.size / 2


def cochain_d3_kernels(action, q, elements):
    """The d_3* kernels as ``constant_cocycle_basis`` assembled them before
    its templates: per (g, pair) the cochain t_g (x) v_j* ^ v_k* and its
    ``apply_dm_star`` image, the keys of all images sorted into rows, and
    ``kernel_basis`` of those."""
    n, G = action.n, action.group
    pairs = [(j, k) for j in range(n) for k in range(j + 1, n)]
    basis = []
    for g in elements:
        images = [apply_dm_star(constant_two(n, g, j, k), action, q) for (j, k) in pairs]
        rows = {key: {} for key in sorted({key for img in images for key in img.coeffs})}
        for col, img in enumerate(images):
            for key, c in img.coeffs.items():
                rows[key][col] = c
        for vec in kernel_basis(rows.values(), len(pairs)):
            basis.append(KappaMap(G, n, q, {(g, *pair): c for pair, c in zip(pairs, vec)}))
    return basis


@pytest.mark.parametrize("name", BUNDLED + GOLDEN_PROBLEMS + ["S4 reflection"])
def test_d3_kernels_from_templates_match_the_cochain_assembly(name, monkeypatch):
    # at every element.  Where g moves v_i off its line (the permutation
    # actions of S3 to S5, the reflection instance) a row holds terms of
    # several pair columns; where g keeps it (the diagonal z6z6_zeta12, the
    # reflection instance), a column's left and right terms land on one
    # key.  On two variables there is no d_3* row, and the kernels are
    # compared there too, also where the action does not extend
    # (z2_swap_zeta4, s3_reflection_zeta3), with the refusal lifted
    action, q, alpha = instance(name)
    report = extension_report(action, q)
    if not (report["symmetric"] and report["exterior"]):
        monkeypatch.setattr(cohomology, "_require_extension", lambda action, q: None)
    ours = constant_cocycle_basis(action, q)
    reference = cochain_d3_kernels(action, q, range(action.group.size))
    assert [k.to_records() for k in ours] == [k.to_records() for k in reference]
    assert ours


@pytest.mark.parametrize("name", ["S4 untwisted", "S5 untwisted", "S4 twisted", "S4 reflection",
                                  "D4 table"])
def test_centralizer_generators_generate_each_centralizer(name):
    G = instance(name)[0].group
    data = G.class_data
    gens = G.centralizer_generators
    assert list(gens) == list(data.centralizer)
    for c, cent in data.centralizer.items():
        assert sorted(_generated(G.mult, gens[c])) == list(cent), c
        if len(cent) == G.size:
            assert gens[c] == (G.generator_indices or tuple(range(G.size)))
    # D4 has a central element besides the identity, and records no generators
    if name == "D4 table":
        central = [c for c, cent in data.centralizer.items() if len(cent) == G.size]
        assert len(central) == 2 and gens[central[1]] == tuple(range(8))


@pytest.mark.parametrize("name", ["S4 untwisted", "S5 untwisted", "S4 reflection", "D4 table",
                                  "z6z6_zeta12", "trivial"])
def test_centralizer_chain_lists_each_centralizer_element_once(name):
    # one element t_i of each step, the last step's leftmost: the products
    # t_k ... t_2 t_1 are the elements of Z(c), each once
    G = instance(name)[0].group
    data = G.class_data
    chains = G.centralizer_chains
    assert list(chains) == list(data.centralizer)
    for c, steps in chains.items():
        products = [0]
        for step in steps:
            assert step[0] == 0 and list(step) == sorted(step), (c, step)
            products = [G.mult[t][h] for t in step for h in products]
        assert sorted(products) == list(data.centralizer[c]), c
    if name == "S5 untwisted":
        assert tuple(map(len, chains[0])) == (2, 3, 4, 5)


def reference_parameter_space(action, q, alpha):
    """The Reynolds image of every d_3* kernel vector at the class
    representatives by the defining sum over G, rank-filtered on its
    coordinates at every element."""
    reps = [cls[0] for cls in conjugacy_classes(action.group)]
    red, basis = RowReducer(), []
    for x in constant_cocycle_basis(action, q, reps):
        eta = skew_symmetrize(_literal_average(x, action, alpha), q, action.group, action.n)
        if red.insert(eta.coordinate_row()) is not None:
            basis.append(eta)
    return basis


@pytest.mark.parametrize("name", ["S3 untwisted", "S3 twisted", "S4 untwisted", "S4 twisted",
                                  "S3 reflection", "D4 table", "weyl2", "z6z6_zeta12"])
def test_cohomology_filter_at_representatives_matches_the_whole_filter(name):
    action, q, alpha = instance(name)
    ours = cohomological_parameter_space(action, q, alpha, recheck=False)
    assert ours, "the instance should have a nonzero parameter space"
    assert ([k.to_records() for k in ours]
            == [k.to_records() for k in reference_parameter_space(action, q, alpha)])


@pytest.mark.parametrize("name", ["S4 untwisted", "S4 reflection", "D4 table",
                                  "klein_bicharacter_diag"])
def test_conjugation_walk_reaches_each_non_representative_once(name):
    G = instance(name)[0].group
    data = G.class_data
    walk = G.conjugation_walk
    assert sorted(g for _, _, g in walk) == [g for g in range(G.size) if data.rep[g] != g]
    seen = set(data.centralizer)
    for b, s, g in walk:
        assert b in seen and data.rep[b] == data.rep[g]
        assert G.conjugate(s, g) == b and (not G.generator_indices or s in G.generator_indices)
        seen.add(g)


def test_solver_system_is_local_to_the_representatives():
    action, q, alpha = instance("S5 twisted")
    system = pbw.class_local_system(action, q, alpha)
    assert system.ncols == 7 * 10
    assert {tag[1] for tag in system.tags} == set(action.group.class_data.centralizer)
    assert len(system.rows) < len(condition_system(action, q, alpha).rows) / 5


def test_reflection_action_gives_rows_of_three_or_more_terms():
    action, q, alpha = reflection_instance(4)
    assert any(len(row) > 1 for rows in action.rows_nz for row in rows)
    assert any(len(r) > 2 for r in condition_system(action, q, alpha).rows)


# -- condition (2) at class representatives ----------------------------------


def violated(report, condition):
    return [v for v in report["violations"] if v["condition"] == condition]


def full_report(kappa, action, q, alpha):
    return check_pbw_conditions(kappa, action, q, alpha, max_witnesses=10 ** 6)


def reps_passed(full, group):
    """The verdict at class representatives, read from a full report:
    condition (1), and no condition-(2) violation at a representative."""
    reps = set(group.class_data.centralizer)
    return full["condition1"] and not any(v["g"] in reps for v in violated(full, 2))


def rows_of(action, q, alpha, condition):
    system = condition_system(action, q, alpha)
    return [row for row, tag in zip(system.rows, system.tags) if tag[0] == condition]


def random_kappa(action, q, rnd, support, density=0.3):
    coeffs = {(g, i, j): rational(rnd.choice([-2, -1, 1, 2]))
              for i in range(action.n) for j in range(i + 1, action.n)
              for g in support if rnd.random() < density}
    return KappaMap(action.group, action.n, q, coeffs)


LEMMA_CASES = {
    "S3 q=-1": lambda: s3_instance()[1:],
    "S4 twisted": lambda: symmetric_instance(4, True)[1:],
    "S4 reflection": lambda: reflection_instance(4),
    "Klein": lambda: bundled("klein_bicharacter_diag"),
    "z6z6_zeta12": lambda: bundled("z6z6_zeta12"),
    "Z/6xZ/6 cyclotomic": lambda: cyclotomic_diagonal_instance(6),
}


def planted_kappas(action, q, alpha, rnd):
    """Kappas that pass, fail at random, fail condition (1) only, and fail
    condition (2) at a non-representative element."""
    G = action.group
    space = solve_parameter_space(action, q, alpha)
    yield "zero", KappaMap(G, action.n, q)
    for b in space:
        yield "basis", b
    for t in range(6):
        kappa = KappaMap(G, action.n, q)
        for b in space:
            kappa = kappa + b.scale(rational(rnd.randint(-2, 2)))
        yield "random", kappa + random_kappa(action, q, rnd, range(G.size), 0.2 * (t % 3))
    ncols = condition_system(action, q, alpha).ncols
    # in the kernel of every condition-(2) row; most fail condition (1)
    for vec in kernel_basis(rows_of(action, q, alpha, 2), ncols)[:4]:
        yield "condition (2) holds", kappa_from_vector(vec, action, q)
    # satisfying condition (1): failures of (2) must fill whole classes
    for vec in kernel_basis(rows_of(action, q, alpha, 1), ncols)[:6]:
        yield "condition (1) holds", kappa_from_vector(vec, action, q)
    # supported at one element that no class lists first
    for cls in conjugacy_classes(G):
        for g in cls[1:2]:
            yield "non-representative", random_kappa(action, q, rnd, [g], 1.0)


@pytest.mark.parametrize("name", sorted(LEMMA_CASES))
def test_class_representative_verdict_equals_the_exhaustive_one(name):
    action, q, alpha = LEMMA_CASES[name]()
    G = action.group
    classes = conjugacy_classes(G)
    class_of = {g: cls for cls in classes for g in cls}
    kinds = Counter()
    non_representative_failures = 0
    for kind, kappa in planted_kappas(action, q, alpha, random.Random(41)):
        full = full_report(kappa, action, q, alpha)
        assert reps_passed(full, G) == full["passed"], kind
        kinds[kind, full["passed"]] += 1
        failing = {v["g"] for v in violated(full, 2)}
        if full["condition1"]:
            # the lemma itself: condition (2) fails on whole classes
            assert failing == {x for g in failing for x in class_of[g]}
        if kind == "condition (2) holds":
            assert full["condition2"]
        if kind == "non-representative" and failing:
            # failing at a non-representative is never the only failure
            assert not full["condition1"]
            non_representative_failures += 1
    assert kinds["zero", True] == 1
    assert any(passed is False for (_, passed) in kinds)
    if len(classes) < G.size:
        assert kinds["condition (2) holds", False] > 0
        assert non_representative_failures > 0


def test_non_representative_failure_also_fails_at_the_representative():
    """An invariant kappa that fails condition (2) at a non-representative g
    fails it at g's representative too, so the verdict at representatives
    rejects it."""
    action, q, alpha = symmetric_instance(4, True)[1:]
    classes = conjugacy_classes(action.group)
    ncols = condition_system(action, q, alpha).ncols
    seen = 0
    for vec in kernel_basis(rows_of(action, q, alpha, 1), ncols):
        kappa = kappa_from_vector(vec, action, q)
        full = full_report(kappa, action, q, alpha)
        assert full["condition1"]
        failing = {v["g"] for v in violated(full, 2)}
        for cls in classes:
            if failing & set(cls[1:]):
                assert cls[0] in failing
                assert not reps_passed(full, action.group)
                seen += 1
    assert seen


# -- each system built once ---------------------------------------------------


def count_row_builds(monkeypatch):
    """The ``elements`` of each ``parameter_space_rows`` call, in order."""
    builds = []
    real = pbw.parameter_space_rows

    def counting(action, q, alpha, elements, links):
        builds.append(tuple(elements))
        return real(action, q, alpha, elements, links)

    monkeypatch.setattr(pbw, "parameter_space_rows", counting)
    return builds


def exercise(action, q, alpha):
    for _ in range(2):
        space = solve_parameter_space(action, q, alpha)
        cohomological_parameter_space(action, q, alpha)
        for kappa in space:
            assert check_pbw_conditions(kappa, action, q, alpha)["passed"]


def test_s4_builds_each_kind_of_rows_once(monkeypatch):
    builds = count_row_builds(monkeypatch)
    action = natural_permutation_action(symmetric_group(4))
    exercise(action, QMatrix.uniform(4, -1), spin_cocycle(symmetric_group(4)))
    # the checker writes its rows per site, so the one system built is the
    # solver's, over the class representatives
    assert builds == [tuple(action.group.class_data.centralizer)]


def test_abelian_group_shares_one_system(monkeypatch):
    # solving, cohomology and checking twice build one system between them,
    # the solver's: on an abelian group it is not the exhaustive one, since
    # it skips condition (2) where condition (1) forces kappa to zero
    builds = count_row_builds(monkeypatch)
    action, q, alpha = cyclotomic_diagonal_instance(6)
    exercise(action, q, alpha)
    assert builds == [tuple(action.group.class_data.centralizer)]


def test_each_condition_one_image_is_written_once(monkeypatch):
    """Condition (1)'s images at h are written once per problem: the
    solver's system, its class expansion and the checker all write through
    the action's one ``_ConditionSites``."""
    built = []
    real = pbw._ConditionSites._condition_one_images

    def recording(self, h):
        built.append(h)
        return real(self, h)

    monkeypatch.setattr(pbw._ConditionSites, "_condition_one_images", recording)
    _, action, q, alpha = symmetric_instance(5, True)
    for kappa in solve_parameter_space(action, q, alpha):
        assert check_pbw_conditions(kappa, action, q, alpha)["passed"]
    cohomological_parameter_space(action, q, alpha)
    assert set(action.group.generators) <= set(built)
    assert len(built) == len(set(built)), Counter(built)


def test_a_dropped_problem_is_freed_without_the_cycle_collector():
    """What the action holds refers to nothing that holds the action, so
    dropping a problem the routes ran on frees it by reference counting."""
    _, action, q, alpha = symmetric_instance(5, True)
    space = solve_parameter_space(action, q, alpha)
    other = cohomological_parameter_space(action, q, alpha)
    for kappa in space:
        assert check_pbw_conditions(kappa, action, q, alpha)["passed"]
        assert verify_ambiguities(kappa, action, q, alpha)["resolvable"]
    ref = weakref.ref(action)
    gc.disable()
    try:
        del action, q, alpha, space, other
        assert ref() is None
    finally:
        gc.enable()

"""S_q(V), the skew group algebra, action extension, quantum minors."""

import itertools
import random
from math import comb

import pytest

from tqdha.groups import (
    FiniteGroup,
    group_from_cyclic_orders,
    group_from_permutations,
    symmetric_group,
    trivial_cocycle,
)
from tqdha.quantum import (
    ActionError,
    GroupAction,
    QMatrix,
    QMatrixError,
    SkewElement,
    action_from_generator_matrices,
    check_action_extends,
    diagonal_action,
    natural_permutation_action,
    qsym_multiply,
    quantum_minor,
    skew_multiply,
)
from tqdha.scalars import MINUS_ONE, ONE, rational, root_of_unity


def generic_q2():
    z = root_of_unity(8, 1)
    return QMatrix([[ONE, z], [z.inverse(), ONE]])


def test_qmatrix_validation():
    with pytest.raises(QMatrixError):
        QMatrix([[ONE, rational(2)], [rational(3), ONE]])
    with pytest.raises(QMatrixError):
        QMatrix([[rational(2), ONE], [ONE, ONE]])


def test_single_swap():
    q = QMatrix.uniform(2, -1)
    v1, v2 = SkewElement.variable(0, 2), SkewElement.variable(1, 2)
    assert qsym_multiply(v2, v1, q) == SkewElement.monomial((1, 1), 0, MINUS_ONE)
    assert qsym_multiply(v1, v1, q) == SkewElement.monomial((2, 0), 0, ONE)


def test_reordering_power():
    # v2 v1 v1 normalizes to q21^2 v1^2 v2
    q = generic_q2()
    v1, v2 = SkewElement.variable(0, 2), SkewElement.variable(1, 2)
    out = qsym_multiply(qsym_multiply(v2, v1, q), v1, q)
    q21 = q(1, 0)
    assert out == SkewElement.monomial((2, 1), 0, q21 * q21)


def test_monomial_basis_count_per_degree():
    # products of d generators span C(n + d - 1, d) monomials, no collisions
    n, q = 3, QMatrix.uniform(3, -1)
    for d in range(1, 5):
        seen = set()
        for word in itertools.product(range(n), repeat=d):
            acc = SkewElement.variable(word[0], n)
            for i in word[1:]:
                acc = qsym_multiply(acc, SkewElement.variable(i, n), q)
            ((gamma, _),) = acc.coeffs.keys()
            seen.add(gamma)
        assert len(seen) == comb(n + d - 1, d)


def test_qsym_associativity_random():
    q = generic_q2()
    rnd = random.Random(5)
    mons = [SkewElement.monomial((a, b), 0, rational(rnd.randint(1, 3)))
            for a in range(2) for b in range(2)]
    for x, y, z in itertools.product(mons, repeat=3):
        assert qsym_multiply(qsym_multiply(x, y, q), z, q) == qsym_multiply(
            x, qsym_multiply(y, z, q), q
        )


def test_skew_identity_and_group_action_rule():
    s3 = symmetric_group(3)
    act = natural_permutation_action(s3)
    q = QMatrix.uniform(3, -1)
    alpha = trivial_cocycle(s3)
    v1 = SkewElement.variable(0, 3)
    v2 = SkewElement.variable(1, 3)
    assert skew_multiply(v1, v2, act, q, alpha) == SkewElement.monomial((1, 1, 0), 0)
    for g in range(6):
        tg = SkewElement.group_unit(g, 3)
        out = skew_multiply(tg, v1, act, q, alpha)
        image = s3.perms[g][0]
        expect = SkewElement.monomial(tuple(1 if t == image else 0 for t in range(3)), g)
        assert out == expect


def test_skew_associativity_exhaustive_basis():
    s3 = symmetric_group(3)
    act = natural_permutation_action(s3)
    q = QMatrix.uniform(3, -1)
    alpha = trivial_cocycle(s3)
    gens = [SkewElement.variable(i, 3) for i in range(3)] + [
        SkewElement.group_unit(g, 3) for g in range(6)
    ]
    rnd = random.Random(11)
    for _ in range(150):
        x, y, z = (gens[rnd.randrange(len(gens))] for _ in range(3))
        assert skew_multiply(skew_multiply(x, y, act, q, alpha), z, act, q, alpha) == \
            skew_multiply(x, skew_multiply(y, z, act, q, alpha), act, q, alpha)


def test_diagonal_action_always_extends():
    z2 = __import__("tqdha.groups", fromlist=["x"]).group_from_cyclic_orders([2])
    lam = [[ONE, ONE], [MINUS_ONE, MINUS_ONE]]
    act = diagonal_action(z2, lam)
    rep = check_action_extends(act, generic_q2())
    assert rep["symmetric"] and rep["exterior"]


def test_sn_extends_iff_q_uniform_pm1():
    s3 = symmetric_group(3)
    act = natural_permutation_action(s3)
    for val in (1, -1):
        rep = check_action_extends(act, QMatrix.uniform(3, val))
        assert rep["symmetric"] and rep["exterior"]
    i = root_of_unity(4, 1)
    q = QMatrix([
        [ONE, i, MINUS_ONE],
        [i.inverse(), ONE, MINUS_ONE],
        [MINUS_ONE, MINUS_ONE, ONE],
    ])
    rep = check_action_extends(act, q)
    assert not rep["symmetric"]
    assert rep["symmetric_witnesses"]


def test_quantum_minor_examples():
    s2 = symmetric_group(2)
    act = natural_permutation_action(s2)
    q = QMatrix.uniform(2, -1)
    assert quantum_minor(0, act, q, 0, 1, 0, 1).is_one()
    swap = 1
    assert quantum_minor(swap, act, q, 0, 1, 0, 1) == MINUS_ONE * q(1, 0)


def test_minor_antisymmetry_identity_when_extending():
    # q_lk ddet_ijkl(g) = -ddet_ijlk(g)
    s3 = symmetric_group(3)
    act = natural_permutation_action(s3)
    q = QMatrix.uniform(3, -1)
    for g in range(6):
        for i, j, k, l in itertools.product(range(3), repeat=4):
            lhs = q(l, k) * quantum_minor(g, act, q, i, j, k, l)
            rhs = quantum_minor(g, act, q, i, j, l, k)
            assert (lhs + rhs).is_zero()


def test_two_action_scalar_consequence():
    # when both extensions hold and g^i_l g^j_k != 0 (i<j, k<l), q_lk = q_ij;
    # when g^i_k g^j_l != 0, q_lk = q_ij^-1
    s4 = symmetric_group(4)
    act = natural_permutation_action(s4)
    q = QMatrix.uniform(4, -1)
    rep = check_action_extends(act, q)
    assert rep["symmetric"] and rep["exterior"]
    for g in range(s4.size):
        m = act.mats[g]
        for i in range(4):
            for j in range(i + 1, 4):
                for k in range(4):
                    for l in range(k + 1, 4):
                        if not (m[i][l] * m[j][k]).is_zero():
                            assert q(l, k) == q(i, j)
                        if not (m[i][k] * m[j][l]).is_zero():
                            assert q(l, k) == q(i, j).inverse()


def test_generator_matrix_extension_consistency():
    s3 = symmetric_group(3)
    nat = natural_permutation_action(s3)
    gen_mats = [nat.mats[g] for g in s3.generator_indices]
    rebuilt = action_from_generator_matrices(s3, gen_mats, 3)
    assert rebuilt.mats == nat.mats
    # inconsistent generator matrices are rejected
    bad = [list(map(list, m)) for m in gen_mats]
    bad[0][0][0] = rational(2)
    with pytest.raises(ActionError):
        action_from_generator_matrices(s3, bad, 3)


# ---------------------------------------------------------------------------
# extension checked on generators only, against every element
# ---------------------------------------------------------------------------


def seeded_q(n, rnd, order):
    exps = {(i, j): rnd.randrange(order) for i in range(n) for j in range(i + 1, n)}
    return QMatrix([
        [ONE if i == j else root_of_unity(order, exps[(i, j)] if i < j else -exps[(j, i)])
         for j in range(n)]
        for i in range(n)
    ])


def planted_q(G, rnd, order):
    """Seeded q fixed by the first generator s of a permutation group
    (q_s(i)s(j) = q_ij), so that s extends and the others need not."""
    s = G.perms[G.generator_indices[0]]
    n = len(s)
    exps = {}
    for i in range(n):
        for j in range(n):
            if i == j or (i, j) in exps:
                continue
            orbit = [(i, j)]
            while (s[orbit[-1][0]], s[orbit[-1][1]]) != (i, j):
                orbit.append((s[orbit[-1][0]], s[orbit[-1][1]]))
            e = rnd.choice([0, order // 2]) if (j, i) in orbit else rnd.randrange(order)
            for a, b in orbit:
                exps[(a, b)], exps[(b, a)] = e, -e
    return QMatrix([[ONE if i == j else root_of_unity(order, exps[(i, j)]) for j in range(n)]
                    for i in range(n)])


def diagonal_z6z6(rnd):
    """Z/6 x Z/6 acting on three variables by seeded characters in mu_6."""
    G = group_from_cyclic_orders([6, 6])
    chars = [[rnd.randrange(6) for _ in range(2)] for _ in range(3)]
    lam = [[root_of_unity(6, sum(c[k] * h[k] for k in range(2))) for c in chars]
           for h in G.labels]
    return diagonal_action(G, lam)


def s3_reflection(q01):
    """S3 on its reflection representation: the generators (1 2) and (2 3)
    act by [[1, 1], [0, -1]] and [[-1, 0], [1, 1]]."""
    G = group_from_permutations([(1, 0, 2), (0, 2, 1)])
    gens = [[[ONE, ONE], [rational(0), MINUS_ONE]], [[MINUS_ONE, rational(0)], [ONE, ONE]]]
    return action_from_generator_matrices(G, gens, 2), QMatrix([[ONE, q01], [q01.inverse(), ONE]])


def extension_instances():
    yield s3_reflection(root_of_unity(3, 1))
    yield s3_reflection(MINUS_ONE)
    rnd = random.Random(20)
    klein = group_from_permutations([(1, 0, 3, 2), (2, 3, 0, 1)])
    for G in (symmetric_group(3), symmetric_group(4), klein):
        act = natural_permutation_action(G)
        for order in (2, 4, 6):
            for _ in range(3):
                yield act, seeded_q(act.n, rnd, order)
                yield act, planted_q(G, rnd, order)
        yield act, QMatrix.uniform(act.n, -1)
    for _ in range(3):
        yield diagonal_z6z6(rnd), seeded_q(3, rnd, 12)


def test_extension_on_generators_matches_every_element():
    verdicts = set()
    for act, q in extension_instances():
        G = act.group
        bare = FiniteGroup(G.mult, name=G.name, perms=G.perms, labels=G.labels)
        full = check_action_extends(GroupAction(bare, act.mats, validate=False), q)
        ours = check_action_extends(act, q)
        assert (ours["symmetric"], ours["exterior"]) == (full["symmetric"], full["exterior"])
        witnesses = ours["symmetric_witnesses"] + ours["exterior_witnesses"]
        assert all(w[0] in G.generator_indices for w in witnesses)
        # "mixed": the first generator extends, a later one does not
        mixed = witnesses and all(w[0] != G.generator_indices[0] for w in witnesses)
        verdicts.add((full["symmetric"], full["exterior"], bool(mixed)))
    assert {(True, True, False), (False, False, False), (False, False, True)} <= verdicts


@pytest.mark.parametrize("q01", [root_of_unity(3, 1), MINUS_ONE], ids=["zeta3", "minus1"])
def test_exterior_check_tests_squares(q01):
    # the generators map v_0, resp. v_1, to v_0 + v_1, whose square is
    # (1 - q_10) v_0 v_1 != 0; the exterior identity without its i == j
    # terms passes both generators, and with q = -1 every element
    act, q = s3_reflection(q01)
    s, t = act.group.generator_indices
    rep = check_action_extends(act, q, max_witnesses=100)
    assert not rep["exterior"]
    squares = {w for w in rep["exterior_witnesses"] if w[1] == w[2]}
    assert squares == {(s, 0, 0, 0, 1), (t, 1, 1, 0, 1)}
    if q01 == MINUS_ONE:
        assert rep["exterior_witnesses"] == [(2, 0, 0, 0, 1), (1, 1, 1, 0, 1)]


def test_exterior_relation_listed_once():
    # E(j, i, k, l) = q_ji E(i, j, k, l): each relation is evaluated once, so
    # no witness appears both as (g, i, j, k, l) and as (g, j, i, k, l)
    act = natural_permutation_action(symmetric_group(3))
    q = seeded_q(3, random.Random(1), 6)
    m = act.mats[2]

    def E(i, j, k, l):
        return (ONE - q(i, j) * q(l, k)) * m[i][k] * m[j][l] + (q(i, j) - q(l, k)) * m[i][l] * m[j][k]

    for i, j, k, l in itertools.product(range(3), repeat=4):
        assert E(j, i, k, l) == q(j, i) * E(i, j, k, l)
    rep = check_action_extends(act, q, max_witnesses=1000)
    wits = rep["exterior_witnesses"]
    assert not rep["exterior"] and wits
    assert not {(g, j, i, k, l) for (g, i, j, k, l) in wits if i != j} & set(wits)

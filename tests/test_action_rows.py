"""The sparse rows a ``GroupAction`` holds, against the matrices its problem
describes, and the rows ``GroupAction`` refuses.

The expected matrices are written from each problem file's own action, with
no package builder: the permutation matrices of the group's permutations,
the diagonal of the file's eigenvalue table, or the file's generator
matrices multiplied densely along a walk over the group.  The action holds
the nonzero entries of each row, in the order of their columns, and nothing
else.  A fault planted in the rows is refused with the message of the
first failure that the dense composition check (``test_loading``) finds.
"""

import glob
import json
import os

import pytest

from reference import dense, sparse_rows
from test_loading import dense_first_failure
from tqdha.groups import FiniteGroup, symmetric_group
from tqdha.problems import parse_problem_file
from tqdha.quantum import ActionError, GroupAction, natural_permutation_action
from tqdha.scalars import ONE, ZERO, parse_scalar, rational

HERE = os.path.dirname(os.path.abspath(__file__))
PROBLEM_FILES = sorted(glob.glob(os.path.join(HERE, "..", "problems", "*.json"))) + [
    os.path.join(HERE, "golden", name + ".json")
    for name in ("s3_reflection_zeta3", "z2_swap_zeta4", "z6z6_zeta12")]
IDS = [os.path.basename(path)[:-5] for path in PROBLEM_FILES]


def permutation_matrices(group):
    n = len(group.perms[0])
    return [[[ONE if p[i] == k else ZERO for k in range(n)] for i in range(n)] for p in group.perms]


def described_matrices(path, prob):
    """One dense matrix per group element, from the file's action."""
    G, n = prob.group, prob.n
    with open(path) as f:
        spec = json.load(f).get("action", "natural-permutation")
    if spec == "natural-permutation":
        return permutation_matrices(G)
    if "diagonal" in spec:
        return [[[parse_scalar(row[i]) if i == k else ZERO for k in range(n)] for i in range(n)]
                for row in spec["diagonal"]]
    gens = [[[parse_scalar(x) for x in row] for row in m] for m in spec["generator_matrices"]]
    mats = {0: [[ONE if i == k else ZERO for k in range(n)] for i in range(n)]}
    frontier = [0]
    while frontier:  # M[sg] = M[g] . M[s]
        g = frontier.pop()
        for s, ms in zip(G.generator_indices, gens):
            if G.mult[s][g] not in mats:
                mats[G.mult[s][g]] = [[sum((mats[g][i][j] * ms[j][l] for j in range(n)), ZERO)
                                       for l in range(n)] for i in range(n)]
                frontier.append(G.mult[s][g])
    return [mats[g] for g in range(G.size)]


@pytest.mark.parametrize("path", PROBLEM_FILES, ids=IDS)
def test_loaded_rows_are_the_described_matrices(path):
    prob = parse_problem_file(path)
    mats = described_matrices(path, prob)
    assert prob.action.rows_nz == sparse_rows(mats)
    assert [dense(prob.action, g) for g in range(prob.group.size)] == mats


@pytest.mark.parametrize("n", [4, 5, 6])
def test_natural_rows_are_the_permutations(n):
    G = symmetric_group(n)
    action = natural_permutation_action(G)
    assert action.rows_nz == sparse_rows(permutation_matrices(G))
    assert action.rows_nz == tuple(tuple(((image, ONE),) for image in p) for p in G.perms)


@pytest.mark.parametrize("path", PROBLEM_FILES, ids=IDS)
def test_rows_that_move_the_identity_are_refused(path):
    action = parse_problem_file(path).action
    G, rows = action.group, list(action.rows_nz)
    rows[0] = tuple(tuple((k, -x) for k, x in row) for row in rows[0])
    with pytest.raises(ActionError, match="^identity element must act as the identity matrix$"):
        GroupAction(G, rows)


@pytest.mark.parametrize("path", [p for p in PROBLEM_FILES if "weyl2" not in p],
                         ids=[i for i in IDS if i != "weyl2"])
def test_rows_that_break_the_composition_law_are_refused(path):
    # the last element's matrix doubled: its determinant is no root of
    # unity, so no action of a finite group has that matrix
    action = parse_problem_file(path).action
    G, rows, two = action.group, list(action.rows_nz), rational(2)
    rows[-1] = tuple(tuple((k, two * x) for k, x in row) for row in rows[-1])
    mats = [dense(action, g) for g in range(G.size)]
    mats[-1] = [[two * x for x in row] for row in mats[-1]]
    want = dense_first_failure(G, mats)
    assert want is not None and want[0] in (G.generator_indices or range(G.size))
    with pytest.raises(ActionError) as err:
        GroupAction(G, rows)
    assert str(err.value) == f"matrices violate the composition law at (s={want[0]}, g={want[1]})"


def test_the_natural_action_is_checked():
    # S4's table with the permutations of elements 1 and 2 exchanged: the
    # labels no longer follow the table, and the natural action says where
    G = symmetric_group(4)
    perms = list(G.perms)
    perms[1], perms[2] = perms[2], perms[1]
    relabelled = FiniteGroup(G.mult, perms=perms, generator_indices=G.generator_indices)
    want = dense_first_failure(relabelled, permutation_matrices(relabelled))
    assert want is not None
    with pytest.raises(ActionError) as err:
        natural_permutation_action(relabelled)
    assert str(err.value) == f"matrices violate the composition law at (s={want[0]}, g={want[1]})"

"""Problem files: JSON descriptions of the quadruple (G, V, q, alpha).

A problem file fixes the dimension n, the quantum matrix q (dense table of
scalar strings or the shorthands "all:1" / "all:-1"), the group (trivial,
cyclic product, permutation generators as 1-based image arrays, or an explicit
multiplication table), the action ("natural-permutation", a diagonal
eigenvalue table with one row per group element, or per-generator matrices),
and the 2-cocycle ("trivial", "spin(n)", a dense table, or a bicharacter
exponent matrix for cyclic products).  Everything is validated on load; the
first failed invariant is reported with its location.  The problem's scalars
together may need no cyclotomic field past ``scalars.MAX_CONDUCTOR``.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from math import lcm

from .groups import (
    Cocycle2,
    FiniteGroup,
    GroupConstructionError,
    bicharacter_cocycle,
    group_from_cyclic_orders,
    group_from_permutations,
    group_from_table,
    trivial_cocycle,
    trivial_group,
    validate_cocycle,
)
from .quantum import (
    ActionError,
    GroupAction,
    QMatrix,
    QMatrixError,
    action_from_generator_matrices,
    diagonal_action,
    natural_permutation_action,
)
from .scalars import MAX_CONDUCTOR, ScalarParseError, parse_scalar
from .spin import spin_cocycle


class ProblemValidationError(ValueError):
    def __init__(self, location: str, message: str):
        super().__init__(f"{location}: {message}")
        self.location = location
        self.reason = message


@dataclass
class ProblemSpec:
    n: int
    q: QMatrix
    group: FiniteGroup
    action: GroupAction
    alpha: Cocycle2


class _ScalarReader:
    """Parses the problem's scalars, each located, and keeps the lcm of their
    orders within MAX_CONDUCTOR.  Each table is read whole before any
    arithmetic on it, so two entries that are admitted alone (z97 and z89,
    say) never meet in a compositum past the bound (Q(zeta_8633))."""

    def __init__(self):
        self.conductor = 1

    def __call__(self, loc, s):
        try:
            x = parse_scalar(s)
        except ScalarParseError as e:
            raise ProblemValidationError(loc, str(e)) from e
        self.admit(loc, x)
        return x

    def admit(self, loc, x) -> None:
        conductor = lcm(self.conductor, x.order)
        if conductor > MAX_CONDUCTOR:
            raise ProblemValidationError(
                loc, f"the problem's scalars need Q(zeta_{conductor}), past "
                f"MAX_CONDUCTOR = {MAX_CONDUCTOR}")
        self.conductor = conductor


def _require_table(loc, value, nrows=None, ncols=None) -> None:
    """value must be a list of lists, nrows x ncols when given."""
    if not (isinstance(value, list) and all(isinstance(r, list) for r in value)) or (
        nrows is not None and (len(value) != nrows or any(len(r) != ncols for r in value))
    ):
        raise ProblemValidationError(loc, f"need a {nrows}x{ncols} table" if nrows else "need a table")


def _build_q(data, n: int, read: _ScalarReader) -> QMatrix:
    spec = data.get("q", "all:1")
    try:
        if isinstance(spec, str):
            m = re.fullmatch(r"all:(-?1)", spec.strip())
            if not m:
                raise ProblemValidationError("q", f"unknown shorthand {spec!r}")
            return QMatrix.uniform(n, int(m.group(1)))
        _require_table("q", spec, n, n)
        return QMatrix(
            [[read(f"q[{i}][{j}]", spec[i][j]) for j in range(n)] for i in range(n)]
        )
    except QMatrixError as e:
        raise ProblemValidationError("q", str(e)) from e


def _build_group(data) -> FiniteGroup:
    spec = data.get("group", "trivial")
    try:
        if spec == "trivial":
            return trivial_group()
        if isinstance(spec, dict):
            if "table" in spec:
                table = spec["table"]
                _require_table("group.table", table)
                if any(not isinstance(x, int) for row in table for x in row):
                    raise ProblemValidationError("group.table", "entries must be integers")
                return group_from_table(table)
            if "permutation_generators" in spec:
                gens = [tuple(x - 1 for x in g) for g in spec["permutation_generators"]]
                return group_from_permutations(
                    gens,
                    degree=spec.get("degree"),
                    size_cap=spec.get("size_cap", 20000),
                )
            if "cyclic_product" in spec:
                return group_from_cyclic_orders(spec["cyclic_product"])
        raise ProblemValidationError("group", f"unrecognized description {spec!r}")
    except GroupConstructionError as e:
        raise ProblemValidationError("group", str(e)) from e


def _build_action(data, group: FiniteGroup, n: int, read: _ScalarReader) -> GroupAction:
    spec = data.get("action", "natural-permutation")
    try:
        if spec == "natural-permutation":
            action = natural_permutation_action(group)
            if action.n != n:
                raise ProblemValidationError(
                    "action", f"natural action has dimension {action.n}, problem says n={n}"
                )
            return action
        if isinstance(spec, dict):
            if "diagonal" in spec:
                rows = spec["diagonal"]
                _require_table("action.diagonal", rows, group.size, n)
                lam = [
                    [read(f"action.diagonal[{g}][{i}]", rows[g][i]) for i in range(n)]
                    for g in range(group.size)
                ]
                return diagonal_action(group, lam)
            if "generator_matrices" in spec:
                given = spec["generator_matrices"]
                _require_table("action.generator_matrices", given)
                for k, m in enumerate(given):
                    _require_table(f"action.generator_matrices[{k}]", m, n, n)
                mats = [
                    [[read(f"action.generator_matrices[{k}]", x) for x in row] for row in m]
                    for k, m in enumerate(given)
                ]
                return action_from_generator_matrices(group, mats, n)
        raise ProblemValidationError("action", f"unrecognized description {spec!r}")
    except ActionError as e:
        raise ProblemValidationError("action", str(e)) from e


def _validated(alpha: Cocycle2) -> Cocycle2:
    rep = validate_cocycle(alpha)
    if not rep["normalized"] or not rep["cocycle"]:
        raise ProblemValidationError(
            "cocycle", f"identity fails; first witnesses {rep['failures'][:3]}"
        )
    return alpha


def _build_cocycle(data, group: FiniteGroup, read: _ScalarReader) -> Cocycle2:
    """The problem's cocycle, validated where that can fail.  The trivial
    cocycle is not validated: it is the program's constant table of ONE, so
    normalization and the identity 1 * 1 = 1 * 1 hold on any group.  A
    spin(n) table is not validated again: ``spin_cocycle`` checks the table
    it builds."""
    spec = data.get("cocycle", "trivial")
    if spec == "trivial":
        return trivial_cocycle(group)
    if isinstance(spec, str):
        m = re.fullmatch(r"spin\((\d+)\)", spec.strip())
        if m:
            n = int(m.group(1))
            alpha = spin_cocycle(n)
            if alpha.group.size != group.size or alpha.group.perms != group.perms:
                raise ProblemValidationError(
                    "cocycle", f"spin({n}) does not live on the declared group"
                )
            return Cocycle2(group, alpha.values, name=alpha.name)
        raise ProblemValidationError("cocycle", f"unknown shorthand {spec!r}")
    if isinstance(spec, dict):
        if "table" in spec:
            rows = spec["table"]
            _require_table("cocycle.table", rows, group.size, group.size)
            vals = [
                [read(f"cocycle.table[{g}][{h}]", rows[g][h]) for h in range(group.size)]
                for g in range(group.size)
            ]
            return _validated(Cocycle2(group, vals, name="table"))
        if "bicharacter_exponents" in spec:
            try:
                alpha = bicharacter_cocycle(
                    group, spec["bicharacter_exponents"], spec.get("root_order", 2)
                )
            except Exception as e:
                raise ProblemValidationError("cocycle.bicharacter_exponents", str(e)) from e
            for row in alpha.values:
                for x in row:
                    read.admit("cocycle.bicharacter_exponents", x)
            return _validated(alpha)
    raise ProblemValidationError("cocycle", f"unrecognized description {spec!r}")


def load_problem(data: dict) -> ProblemSpec:
    """Validate and build a problem from parsed JSON data."""
    if "n" not in data or not isinstance(data["n"], int) or data["n"] < 1:
        raise ProblemValidationError("n", "need a positive integer dimension")
    n = data["n"]
    read = _ScalarReader()
    q = _build_q(data, n, read)
    group = _build_group(data)
    action = _build_action(data, group, n, read)
    alpha = _build_cocycle(data, group, read)
    return ProblemSpec(n=n, q=q, group=group, action=action, alpha=alpha)


def parse_problem_file(path: str) -> ProblemSpec:
    try:
        with open(path) as f:
            data = json.load(f)
    except OSError as e:
        raise ProblemValidationError("file", str(e)) from e
    except json.JSONDecodeError as e:
        raise ProblemValidationError("file", f"not valid JSON: {e}") from e
    if not isinstance(data, dict):
        raise ProblemValidationError("file", "top level must be a JSON object")
    return load_problem(data)

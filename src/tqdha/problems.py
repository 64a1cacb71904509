"""Problem files: JSON descriptions of the quadruple (G, V, q, alpha).

A problem file fixes the dimension n (at most ``MAX_DIMENSION``), the quantum
matrix q (dense table of scalar strings or the shorthands "all:1" /
"all:-1"), the group (trivial, cyclic product, permutation generators as
1-based image arrays, or an explicit multiplication table; of order, and of
permutation degree, at most ``groups.MAX_GROUP_ORDER``), the
action ("natural-permutation", a diagonal eigenvalue table with one row per
group element, or per-generator matrices), and the 2-cocycle ("trivial",
"spin(n)", a dense table, or a bicharacter exponent matrix for cyclic
products).  Everything is validated on load; the first failed invariant is
reported with its location.  The problem's scalars together, and with those
of a kappa file checked against it, may need no cyclotomic field past
``scalars.MAX_CONDUCTOR``.  Where a field needs an integer, JSON's ``true``
and ``false`` are refused: Python reads them as ints, so the checks are on
``type(x) is int``.  Problem and kappa files are read by one JSON reader,
which refuses a key named twice in one object.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from math import factorial, lcm

from .groups import (
    MAX_GROUP_ORDER,
    Cocycle2,
    CocycleError,
    FiniteGroup,
    GroupConstructionError,
    bicharacter_cocycle,
    cocycle_from_values,
    group_from_cyclic_orders,
    group_from_permutations,
    group_from_table,
    trivial_cocycle,
    trivial_group,
    validate_cocycle,
)
from .pbw import KappaMap
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


# The largest dimension n a problem may declare.  The work of every command
# grows as a power of n before the group enters: for a dense action the
# extension check tests about n^4 / 4 relations per generator, and the
# solver has n(n-1)/2 unknowns and about n^4 / 6 condition-(2) equations
# per group element.  At n = 32 (2-core box, Python 3.11) `check-extension`
# takes 11 s for Z/2 acting by a dense reflection, and `parameter-space
# --method direct` takes 59 s on the trivial group.  The paper's examples
# need n <= 7 (S7 on its natural representation).
MAX_DIMENSION = 32


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
    conductor: int = 1  # the lcm of the orders of the problem's scalars


class _ScalarReader:
    """Parses the problem's scalars, each located, and keeps the lcm of their
    orders within MAX_CONDUCTOR.  Each table is read whole before any
    arithmetic on it, so two entries that are admitted alone (z97 and z89,
    say) never meet in a compositum past the bound (Q(zeta_8633))."""

    def __init__(self, conductor: int = 1):
        self.conductor = conductor

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


def _require_int_table(loc, value) -> None:
    _require_table(loc, value)
    if any(type(x) is not int for row in value for x in row):
        raise ProblemValidationError(loc, "entries must be integers")


# each group form with the fields it may carry
_GROUP_FIELDS = {"table": {"table"}, "permutation_generators": {"permutation_generators", "degree"},
                 "cyclic_product": {"cyclic_product"}}


def _build_group(data) -> FiniteGroup:
    """The problem's group.  Each form is checked for its types here, and
    against ``MAX_GROUP_ORDER`` by its constructor before any table."""
    spec = data.get("group", "trivial")
    if spec == "trivial":
        return trivial_group()
    form = next((f for f in _GROUP_FIELDS if isinstance(spec, dict) and f in spec), None)
    if form is None:
        raise ProblemValidationError("group", f"unrecognized description {spec!r}")
    unknown = sorted(set(spec) - _GROUP_FIELDS[form])
    if unknown:
        raise ProblemValidationError("group", f"unknown fields {unknown} in a {form} group")
    try:
        if form == "table":
            _require_int_table("group.table", spec["table"])
            return group_from_table(spec["table"])
        if form == "permutation_generators":
            gens = spec["permutation_generators"]
            _require_int_table("group.permutation_generators", gens)
            degree = spec.get("degree")
            if degree is not None and not (
                    type(degree) is int and 1 <= degree <= MAX_GROUP_ORDER):
                raise ProblemValidationError(
                    "group.degree",
                    f"need an integer from 1 to MAX_GROUP_ORDER = {MAX_GROUP_ORDER}")
            return group_from_permutations([tuple(x - 1 for x in g) for g in gens], degree)
        orders = spec["cyclic_product"]
        if not (isinstance(orders, list) and all(type(c) is int for c in orders)):
            raise ProblemValidationError("group.cyclic_product", "need a list of integers")
        return group_from_cyclic_orders(orders)
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


def _build_cocycle(data, group: FiniteGroup, read: _ScalarReader) -> Cocycle2:
    """The problem's cocycle, validated where that can fail: a table given
    by value.  The trivial cocycle is not validated: it is the program's
    constant table of ONE, so normalization and the identity 1 * 1 = 1 * 1
    hold on any group.  A spin(n) table is built on the declared group, once
    that is seen to be S_n (degree n, then order n!, so no n past the
    group's bounds is ever built on), and is not validated again:
    ``spin_cocycle`` checks the table it builds.  Nor is a bicharacter
    table, a cocycle by construction (``bicharacter_cocycle``)."""
    spec = data.get("cocycle", "trivial")
    if spec == "trivial":
        return trivial_cocycle(group)
    if isinstance(spec, str):
        # n without leading zeros is compared with the degree as text, so no
        # int is made of however many digits the file gives
        m = re.fullmatch(r"spin\(0*(\d+)\)", spec.strip())
        if m:
            if (group.perms is None or m.group(1) != str(len(group.perms[0]))
                    or group.size != factorial(len(group.perms[0]))):
                raise ProblemValidationError(
                    "cocycle", f"spin({m.group(1)}) does not live on the declared group"
                )
            return spin_cocycle(group)
        raise ProblemValidationError("cocycle", f"unknown shorthand {spec!r}")
    if isinstance(spec, dict):
        if "table" in spec:
            rows = spec["table"]
            _require_table("cocycle.table", rows, group.size, group.size)
            vals = [
                [read(f"cocycle.table[{g}][{h}]", rows[g][h]) for h in range(group.size)]
                for g in range(group.size)
            ]
            try:
                alpha = cocycle_from_values(group, vals, name="table")
            except CocycleError as e:
                raise ProblemValidationError("cocycle.table", str(e)) from e
            rep = validate_cocycle(alpha)
            if not rep["normalized"] or not rep["cocycle"]:
                raise ProblemValidationError(
                    "cocycle", f"identity fails; first witnesses {rep['failures'][:3]}"
                )
            return alpha
        if "bicharacter_exponents" in spec:
            exponents, root_order = spec["bicharacter_exponents"], spec.get("root_order", 2)
            _require_int_table("cocycle.bicharacter_exponents", exponents)
            if type(root_order) is not int or root_order < 1:
                raise ProblemValidationError("cocycle.root_order", "need a positive integer")
            try:
                alpha = bicharacter_cocycle(group, exponents, root_order)
            except CocycleError as e:
                raise ProblemValidationError("cocycle.bicharacter_exponents", str(e)) from e
            for x in alpha.distinct:
                read.admit("cocycle.bicharacter_exponents", x)
            return alpha
    raise ProblemValidationError("cocycle", f"unrecognized description {spec!r}")


def load_problem(data: dict) -> ProblemSpec:
    """Validate and build a problem from parsed JSON data."""
    if type(data.get("n")) is not int or data["n"] < 1:
        raise ProblemValidationError("n", "need a positive integer dimension")
    n = data["n"]
    if n > MAX_DIMENSION:
        raise ProblemValidationError("n", f"dimension {n} past MAX_DIMENSION = {MAX_DIMENSION}")
    read = _ScalarReader()
    q = _build_q(data, n, read)
    group = _build_group(data)
    action = _build_action(data, group, n, read)
    alpha = _build_cocycle(data, group, read)
    return ProblemSpec(n, q, group, action, alpha, read.conductor)


def _unique_keys(pairs) -> dict:
    """object_pairs_hook of the JSON reader: a key named twice in one object
    is refused, where json would keep the last value silently."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"key {key!r} appears twice in one object")
        obj[key] = value
    return obj


def _read_json(path: str, location: str):
    try:
        with open(path) as f:
            return json.load(f, object_pairs_hook=_unique_keys)
    except OSError as e:
        raise ProblemValidationError(location, str(e)) from e
    except (ValueError, RecursionError) as e:
        # malformed JSON, a repeated key, undecodable bytes, or nesting past
        # the interpreter's recursion limit
        raise ProblemValidationError(location, f"not valid JSON: {e}") from e


def parse_problem_file(path: str) -> ProblemSpec:
    data = _read_json(path, "file")
    if not isinstance(data, dict):
        raise ProblemValidationError("file", "top level must be a JSON object")
    return load_problem(data)


def parse_kappa_file(prob: ProblemSpec, path: str) -> KappaMap:
    """A kappa file on the problem: a list of records, or an object holding
    that list under "kappa".  Each coefficient is admitted into the
    problem's conductor bound before any arithmetic: a kappa in Q(zeta_97)
    against q in Q(zeta_89) would need Q(zeta_8633)."""
    data = _read_json(path, "kappa-file")
    records = data.get("kappa") if isinstance(data, dict) else data
    try:
        if not isinstance(records, list):
            raise ValueError('need a list of records, or an object with one under "kappa"')
        kappa = KappaMap.from_records(prob.group, prob.n, prob.q, records)
        read = _ScalarReader(prob.conductor)
        for (g, i, j), c in kappa.coeffs.items():
            read.admit(f"kappa record i={i + 1}, j={j + 1}, element {g}", c)
    except ValueError as e:
        raise ProblemValidationError("kappa-file", str(e)) from e
    return kappa

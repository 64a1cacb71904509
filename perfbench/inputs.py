"""Seeded input generators.

Everything here is plain Python on the standard library: the program under
test receives only the problem dicts and kappa records built here, and the
same seed always yields byte-identical inputs (compare with ``canonical``).
The reference answers (``cyclotomic_labels``, ``kappa_verdicts``) are
separate functions, so that a run can compute them outside its timed parts.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from math import gcd
from pathlib import Path

HERE = Path(__file__).resolve().parent
S4_BASIS_FIXTURE = HERE / "fixtures" / "s4_twisted_basis.json"

# cyclotomic-diagonal: Z/6 x Z/6 acting diagonally on n = 4 variables, with
# characters in mu_6, q_ij in mu_12 and alpha(a, b) = zeta_6^(a . E . b)
CYCLIC_ORDERS = (6, 6)
DIAG_N = 4
CHAR_ROOT = 6
Q_ROOT = 12
BASE_EXPONENTS = ((0, 0), (1, 0))  # not symmetric, so alpha is not a coboundary
# Every q_ij (i < j) is a primitive 12th root, so each instance computes in
# Q(zeta_12) proper; rational or order-3 q entries make one instance cost
# half as much as another.
_UNITS = tuple(k for k in range(Q_ROOT) if gcd(k, Q_ROOT) == 1)


def canonical(obj) -> str:
    """The byte form two runs must share for their inputs to count as equal."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _root(order: int, k: int) -> str:
    k %= order
    return "1/1" if k == 0 else f"1/1*z{order}^{k}"


# the element order of group_from_cyclic_orders: mixed radix, identity first
GROUP_LABELS = tuple((x, y) for x in range(CYCLIC_ORDERS[0]) for y in range(CYCLIC_ORDERS[1]))


def _antisymmetric_shift(a, exponents) -> tuple:
    """Exponent vector c with alpha(h, a) / alpha(a, h) = zeta_6^(c . h)."""
    e = exponents
    return tuple(
        sum((e[i][j] - e[j][i]) * a[j] for j in range(2)) % CHAR_ROOT for i in range(2)
    )


def _draw_diagonal(rng: random.Random) -> dict:
    """Exponent data of one diagonal problem with a planted label (a, r, s).

    Characters chi_i(h) = zeta_6^(c_i . h) give the eigenvalues.  The draw
    picks the label, then sets chi_s so that chi_r chi_s = alpha(., a) /
    alpha(a, .) on the (abelian) centralizer, and q_rt q_st = chi_t(a) for
    every other t.  Those are the two closed-form conditions, so the planted
    label always spans part of the parameter space.
    """
    n = DIAG_N
    a = GROUP_LABELS[rng.randrange(1, len(GROUP_LABELS))]
    r, s = sorted(rng.sample(range(n), 2))
    chars = [[rng.randrange(CHAR_ROOT) for _ in range(2)] for _ in range(n)]
    shift = _antisymmetric_shift(a, BASE_EXPONENTS)
    chars[s] = [(shift[i] - chars[r][i]) % CHAR_ROOT for i in range(2)]
    q = {(i, j): rng.choice(_UNITS) for i in range(n) for j in range(i + 1, n)}
    for t in range(n):
        if t in (r, s):
            continue
        target = 2 * sum(chars[t][i] * a[i] for i in range(2))  # zeta_12^2 = zeta_6
        x = rng.choice([u for u in _UNITS if (target - u) % Q_ROOT in _UNITS])
        _set_q(q, r, t, x)
        _set_q(q, s, t, target - x)
    return {"chars": chars, "q": q, "exponents": BASE_EXPONENTS, "planted": (a, r, s)}


def _set_q(q, i, j, e):
    if i < j:
        q[(i, j)] = e % Q_ROOT
    else:
        q[(j, i)] = -e % Q_ROOT


def _q_exp(q, i, j) -> int:
    if i == j:
        return 0
    return q[(i, j)] if i < j else -q[(j, i)] % Q_ROOT


def _twist(data: dict, rng: random.Random) -> dict:
    """A Galois conjugate (zeta_12 -> zeta_12^u) of the problem with its
    variables reordered.  Both maps carry the parameter space onto that of
    the twisted problem, so dimension and cost stay put while the input
    differs."""
    n = DIAG_N
    u = rng.choice(_UNITS)
    perm = list(range(n))
    rng.shuffle(perm)
    chars = [None] * n
    for i in range(n):
        chars[perm[i]] = [c * u % CHAR_ROOT for c in data["chars"][i]]
    q = {}
    for i in range(n):
        for j in range(i + 1, n):
            _set_q(q, perm[i], perm[j], data["q"][(i, j)] * u)
    exponents = tuple(tuple(e * u % CHAR_ROOT for e in row) for row in data["exponents"])
    a, r, s = data["planted"]
    return {"chars": chars, "q": q, "exponents": exponents,
            "planted": (a, *sorted((perm[r], perm[s])))}


def _problem_dict(data: dict) -> dict:
    n = DIAG_N
    return {
        "n": n,
        "q": [[_root(Q_ROOT, _q_exp(data["q"], i, j)) for j in range(n)] for i in range(n)],
        "group": {"cyclic_product": list(CYCLIC_ORDERS)},
        "action": {
            "diagonal": [
                [_root(CHAR_ROOT, sum(c[i] * h[i] for i in range(2))) for c in data["chars"]]
                for h in GROUP_LABELS
            ]
        },
        "cocycle": {
            "bicharacter_exponents": [list(row) for row in data["exponents"]],
            "root_order": CHAR_ROOT,
        },
    }


def valid_labels(data: dict) -> list:
    """Every (a, r, s) that meets both closed-form conditions, decided in
    exponent arithmetic: an independent reference for the labelled basis."""
    n = DIAG_N
    chars, q = data["chars"], data["q"]
    out = []
    for a_index, a in enumerate(GROUP_LABELS):
        shift = _antisymmetric_shift(a, data["exponents"])
        for r in range(n):
            for s in range(r + 1, n):
                if any((chars[r][i] + chars[s][i] - shift[i]) % CHAR_ROOT for i in range(2)):
                    continue
                if all(
                    (_q_exp(q, r, t) + _q_exp(q, s, t)
                     - 2 * sum(chars[t][i] * a[i] for i in range(2))) % Q_ROOT == 0
                    for t in range(n)
                    if t not in (r, s)
                ):
                    out.append((a_index, r, s))
    return out


def _cyclotomic_data(seed: int, count: int) -> list[dict]:
    """Exponent data of ``count`` problems: a seeded twist of each of the
    first ``count`` members of a fixed base family.  The base family fixes
    the mix of dimensions and field orders, so runs with different seeds do
    work of the same shape; the seed still changes every input byte-wise."""
    rng = random.Random(seed)
    return [_twist(_draw_diagonal(random.Random(f"cyclotomic-diagonal/{k}")), rng)
            for k in range(count)]


def cyclotomic_instances(seed: int, count: int) -> list[dict]:
    """``count`` problem dicts, each with its planted label."""
    out = []
    for data in _cyclotomic_data(seed, count):
        a, r, s = data["planted"]
        out.append({"problem": _problem_dict(data), "planted": [GROUP_LABELS.index(a), r, s]})
    return out


def cyclotomic_labels(seed: int, count: int) -> list[list]:
    """The reference labels of ``cyclotomic_instances(seed, count)``."""
    return [[list(x) for x in valid_labels(data)] for data in _cyclotomic_data(seed, count)]


# ---------------------------------------------------------------------------
# s4-kappa-stream
# ---------------------------------------------------------------------------

S4_GROUP_SIZE = 24
S4_N = 4


def load_s4_basis() -> list[list[dict]]:
    """The stored S4-twisted parameter-space basis, as kappa records."""
    with open(S4_BASIS_FIXTURE) as f:
        return json.load(f)["basis"]


def _to_coords(records) -> dict:
    return {(int(g), r["i"], r["j"]): Fraction(c)
            for r in records for g, c in r["coefficients"].items()}


def _to_records(coords: dict) -> list[dict]:
    pairs: dict = {}
    for (g, i, j), c in sorted(coords.items()):
        if c:
            pairs.setdefault((i, j), {})[str(g)] = f"{c.numerator}/{c.denominator}"
    return [{"i": i, "j": j, "coefficients": co} for (i, j), co in sorted(pairs.items())]


def _random_coords(rng: random.Random, density: float, bound: int) -> dict:
    out = {}
    for i in range(1, S4_N + 1):
        for j in range(i + 1, S4_N + 1):
            for g in range(S4_GROUP_SIZE):
                if rng.random() < density:
                    c = rng.randint(-bound, bound)
                    if c:
                        out[(g, i, j)] = Fraction(c)
    return out


def _add(a: dict, b: dict, scale=1) -> dict:
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, 0) + scale * v
    return {k: v for k, v in out.items() if v}


def in_span(vec: dict, basis: list[dict]) -> bool:
    """Exact membership test over Q by elimination on Fractions, written
    independently of the program's linear algebra."""
    pivots: list[tuple[object, dict]] = []

    def reduce(v):
        v = dict(v)
        for key, row in pivots:
            f = v.get(key)
            if f:
                v = _add(v, row, -f)
        return v

    for b in basis:
        r = reduce(b)
        if r:
            key = min(r)
            inv = 1 / r[key]
            pivots.append((key, {k: c * inv for k, c in r.items()}))
    return not reduce(vec)


def kappa_stream(seed: int, count: int) -> list[dict]:
    """``count`` kappas in the mix of acceptance criterion 5: in turn a dense
    random kappa, a random combination of the basis, and a basis vector plus
    a sparse perturbation."""
    rng = random.Random(seed)
    basis = [_to_coords(b) for b in load_s4_basis()]
    out = []
    for t in range(count):
        kind = ("dense", "combination", "perturbed")[t % 3]
        if kind == "dense":
            coords = _random_coords(rng, 0.35, 2)
        elif kind == "combination":
            coords = {}
            while not coords:
                for b in basis:
                    coords = _add(coords, b, rng.randint(-2, 2))
        else:
            coords = _add(rng.choice(basis), _random_coords(rng, 0.15, 1))
        out.append({"kind": kind, "records": _to_records(coords)})
    return out


def kappa_verdicts(stream: list[dict]) -> list[bool]:
    """The reference verdicts: a kappa is PBW exactly when it lies in the
    span of the stored basis."""
    basis = [_to_coords(b) for b in load_s4_basis()]
    return [in_span(_to_coords(rec["records"]), basis) for rec in stream]

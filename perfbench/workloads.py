"""The three workloads: set-up, one timed operation, and its check.

``prepare`` does everything a user pays before the first solve: parsing and
validating problems (groups, cocycles, actions) and building the kappa maps.
``run`` performs one operation and checks that the routes agree with each
other; ``check`` then compares its ``value`` with the workload's reference,
which does not come from the program and is computed after the timed part
(``Context.reference``).  Calls go through module
attributes (``pbw.check_pbw_conditions``), so a traced pass sees the
wrapped functions.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import inputs
from tqdha import classify, cohomology, linalg, pbw, problems

ROOT = Path(__file__).resolve().parents[1]

# Nominal cost of one operation on the reference box; a run's work is
# ``--seconds`` of it, fixed by the arguments alone so that the plain, traced
# and counting passes of one run do identical work.
CYCLOTOMIC_OP_S = 4.0
KAPPA_OP_S = 0.6
# p80 of the check and oracle latencies keeps at least ten samples above it
MIN_KAPPAS = 50


@dataclass
class Outcome:
    ok: bool
    detail: str = ""
    oracle_s: list = field(default_factory=list)
    value: object = None  # what ``Workload.check`` compares with the reference


@dataclass
class Context:
    items: list
    spec: object = None
    reference: object = None  # () -> one expected value per item


def _rows(kappas):
    return [k.coordinate_row() for k in kappas]


def _load_bundled(name: str):
    with open(ROOT / "problems" / name) as f:
        return problems.load_problem(json.load(f))


# -- s5-twisted-both ---------------------------------------------------------


def prepare_s5(seed: int, seconds: int) -> Context:
    return Context(items=[None], spec=_load_bundled("s5_twisted.json"))


def run_s5(ctx: Context, item, tracer) -> Outcome:
    p = ctx.spec
    direct = pbw.solve_parameter_space(p.action, p.q, p.alpha, recheck=False)
    coh = cohomology.cohomological_parameter_space(p.action, p.q, p.alpha, recheck=False)
    if len(direct) != len(coh) or not linalg.same_span(_rows(direct), _rows(coh)):
        return Outcome(False, f"direct ({len(direct)}) and cohomology ({len(coh)}) spans differ")
    expected = [classify.kappa_one(5), classify.kappa_two(5)]
    if len(direct) != 2 or not linalg.same_span(_rows(direct), _rows(expected)):
        return Outcome(False, f"dimension {len(direct)}, span is not <kappa_1, kappa_2>")
    return Outcome(True)


# -- cyclotomic-diagonal -----------------------------------------------------


def prepare_cyclotomic(seed: int, seconds: int) -> Context:
    count = max(1, round(seconds / CYCLOTOMIC_OP_S))
    items = [problems.load_problem(inst["problem"])
             for inst in inputs.cyclotomic_instances(seed, count)]
    return Context(items=items, reference=lambda: inputs.cyclotomic_labels(seed, count))


def run_cyclotomic(ctx: Context, item, tracer) -> Outcome:
    p = item
    labeled = classify.diagonal_kappa_basis_labeled(p.action, p.q, p.alpha)
    direct = pbw.solve_parameter_space(p.action, p.q, p.alpha)
    coh = cohomology.cohomological_parameter_space(p.action, p.q, p.alpha)
    labels = [list(label) for label, _ in labeled]
    closed = [k for _, k in labeled]
    dims = (len(closed), len(direct), len(coh))
    if len(set(dims)) != 1:
        return Outcome(False, f"dimensions closed/direct/cohomology = {dims}")
    if not (linalg.same_span(_rows(closed), _rows(direct))
            and linalg.same_span(_rows(coh), _rows(direct))):
        return Outcome(False, "spans of the three routes differ")
    return Outcome(True, value=labels)


def check_cyclotomic(labels, expected) -> str:
    """The closed-form labels as a set: their order is the program's own."""
    if sorted(map(tuple, labels)) != sorted(map(tuple, expected)):
        return f"closed-form labels {labels}, expected {expected}"
    return ""


# -- s4-kappa-stream ---------------------------------------------------------

FAMILIES = ("ttt", "ttv", "tvv", "vvv")


def prepare_stream(seed: int, seconds: int) -> Context:
    spec = _load_bundled("s4_twisted.json")
    count = max(MIN_KAPPAS, round(seconds / KAPPA_OP_S))
    stream = inputs.kappa_stream(seed, count)
    items = [
        (pbw.KappaMap.from_records(spec.group, spec.n, spec.q, rec["records"]), rec["kind"])
        for rec in stream
    ]
    return Context(items=items, spec=spec, reference=lambda: inputs.kappa_verdicts(stream))


def run_stream(ctx: Context, item, tracer) -> Outcome:
    """One client, closed loop: the next kappa goes out only after both
    verdicts on this one are in."""
    p = ctx.spec
    kappa, kind = item
    checker = pbw.check_pbw_conditions(kappa, p.action, p.q, p.alpha)["passed"]
    start = time.perf_counter()
    if tracer is None:
        oracle = pbw.verify_ambiguities(kappa, p.action, p.q, p.alpha)["resolvable"]
    else:
        # one call per overlap family, so each family gets its own span
        oracle = all([
            pbw.verify_ambiguities(kappa, p.action, p.q, p.alpha, families=(fam,))["resolvable"]
            for fam in FAMILIES
        ])
    oracle_s = [time.perf_counter() - start]
    if checker != oracle:
        return Outcome(False, f"{kind} kappa: checker {checker}, oracle {oracle}", oracle_s)
    return Outcome(True, oracle_s=oracle_s, value=(kind, checker))


def check_stream(value, expected) -> str:
    kind, verdict = value
    if verdict != expected:
        return f"{kind} kappa: checker and oracle {verdict}, expected {expected}"
    return ""


@dataclass(frozen=True)
class Workload:
    name: str
    prepare: object
    run: object
    check: object = None  # (value, expected) -> "" or what is wrong


WORKLOADS = {
    w.name: w
    for w in (
        Workload("s5-twisted-both", prepare_s5, run_s5),
        Workload("cyclotomic-diagonal", prepare_cyclotomic, run_cyclotomic, check_cyclotomic),
        Workload("s4-kappa-stream", prepare_stream, run_stream, check_stream),
    )
}

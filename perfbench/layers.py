"""Which functions of each tqdha layer are traced, and the per-layer
metrics derived from their spans and counters.

Every ``<layer>_s`` metric is a self time: the time inside the layer's
spans not covered by a nested traced call.  ``pbw.solve_self_s`` is then the
solver's own de-duplication and serialization, and
``cohomology.pipeline_self_s`` the pipeline's rank filter, skew
symmetrization and wedge checks.
"""

from __future__ import annotations

import functools
import statistics
from collections import Counter

from tqdha import classify, cohomology, groups, linalg, pbw, problems, quantum, spin
from workloads import FAMILIES


def _count(key):
    def after(counters, result, args, kwargs):
        counters[key] += 1
    return after


def _insert_after(counters, result, args, kwargs):
    counters["linalg.insert.calls"] += 1
    counters["linalg.insert.pivots"] += result is not None


def _kernel_after(counters, result, args, kwargs):
    counters["linalg.kernel.dim"] += len(result)


def _rows_after(counters, result, args, kwargs):
    counters["pbw.rows.count"] += len(result[0])


def _oracle_name(args, kwargs):
    fams = kwargs.get("families")
    return f"pbw.oracle.{fams[0]}" if fams and len(fams) == 1 else "pbw.oracle"


def _oracle_after(counters, result, args, kwargs):
    counters["pbw.oracle.words"] += result["checked"]


def _d3_after(counters, result, args, kwargs):
    counters["cohomology.d3_kernel.dim"] += len(result)


def _pipeline_after(counters, result, args, kwargs):
    counters["cohomology.invariants_kept"] += len(result)


# (owner, attribute, span name, counter update)
TRACED = (
    (problems, "load_problem", "problems.load", None),
    (spin, "spin_cocycle", "spin.cocycle", None),
    (groups, "validate_cocycle", "groups.validate_cocycle",
     _count("groups.validate_cocycle.calls")),
    (quantum, "check_action_extends", "quantum.check_extends",
     _count("quantum.check_extends.calls")),
    (pbw, "parameter_space_rows", "pbw.rows", _rows_after),
    (pbw, "solve_parameter_space", "pbw.solve", None),
    (pbw, "check_pbw_conditions", "pbw.check", _count("pbw.check.calls")),
    (pbw, "verify_ambiguities", _oracle_name, _oracle_after),
    (linalg.RowReducer, "insert", "linalg.insert", _insert_after),
    (linalg.RowReducer, "kernel", "linalg.kernel", _kernel_after),
    (linalg, "kernel_basis", "linalg.kernel_basis", None),
    (linalg, "same_span", "linalg.same_span", None),
    (cohomology, "constant_cocycle_basis", "cohomology.d3_kernel", _d3_after),
    (cohomology, "reynolds_project", "cohomology.reynolds", _count("cohomology.reynolds.calls")),
    (cohomology, "composition_image", "cohomology.induced", None),
    (cohomology, "cohomological_parameter_space", "cohomology.pipeline", _pipeline_after),
    (classify, "diagonal_kappa_basis_labeled", "classify.diagonal", None),
    (classify, "kappa_one", "classify.closed_form", None),
    (classify, "kappa_two", "classify.closed_form", None),
)

TIME_METRICS = {
    "problems.load_s": ["problems.load"],
    "spin.cocycle_s": ["spin.cocycle"],
    "groups.validate_cocycle_s": ["groups.validate_cocycle"],
    "quantum.check_extends_s": ["quantum.check_extends"],
    "pbw.rows_s": ["pbw.rows"],
    "pbw.solve_self_s": ["pbw.solve"],
    "pbw.check_s": ["pbw.check"],
    "pbw.oracle_s": ["pbw.oracle"] + [f"pbw.oracle.{f}" for f in FAMILIES],
    **{f"pbw.oracle.{f}_s": [f"pbw.oracle.{f}"] for f in FAMILIES},
    "linalg.insert_s": ["linalg.insert"],
    "linalg.kernel_s": ["linalg.kernel"],
    "linalg.kernel_basis_s": ["linalg.kernel_basis"],
    "linalg.same_span_s": ["linalg.same_span"],
    "cohomology.d3_kernel_s": ["cohomology.d3_kernel"],
    "cohomology.reynolds_s": ["cohomology.reynolds"],
    "cohomology.induced_s": ["cohomology.induced"],
    "cohomology.pipeline_self_s": ["cohomology.pipeline"],
    "classify.diagonal_s": ["classify.diagonal"],
    "classify.closed_form_s": ["classify.closed_form"],
}

COUNT_METRICS = (
    "groups.validate_cocycle.calls",
    "quantum.check_extends.calls",
    "pbw.rows.count",
    "linalg.insert.calls",
    "linalg.insert.pivots",
    "linalg.kernel.dim",
    "pbw.check.calls",
    "pbw.oracle.words",
    "cohomology.d3_kernel.dim",
    "cohomology.reynolds.calls",
)


def install(tracer, patcher):
    for owner, attr, name, after in TRACED:
        patcher.replace(owner, attr, lambda fn, name=name, after=after: tracer.wrap(name, fn, after))


ALPHA_EVALS = "groups.validate_cocycle.alpha_evals"


def count_cocycle_evals(patcher) -> Counter:
    """Count the cocycle values that ``validate_cocycle`` reads
    (``Cocycle2.__call__``), for the counting pass.

    On the general path that is three reads per triple checked, so a check
    of fewer triples reads fewer.  The +-1 path reads the table once (|G|^2
    values) into a sign table and checks the triples on that table, which is
    not visible from here; only its time is.
    """
    counts = Counter({ALPHA_EVALS: 0})
    depth = [0]

    def wrap_validate(fn):
        @functools.wraps(fn)
        def validating(*args, **kwargs):
            depth[0] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                depth[0] -= 1
        return validating

    def wrap_call(fn):
        def counting(self, g, h):
            if depth[0]:
                counts[ALPHA_EVALS] += 1
            return fn(self, g, h)
        return counting

    patcher.replace(groups, "validate_cocycle", wrap_validate)
    patcher.replace(groups.Cocycle2, "__call__", wrap_call)
    return counts


def _quantile_ms(values, q):
    """Percentile of ``values`` in milliseconds (0 when there are none)."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0] * 1e3
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] * 1e3


def per_layer(tracer, oracle_s) -> dict:
    """Metrics of a traced pass; ``oracle_s`` holds one oracle latency per
    kappa (all four families)."""
    self_s = tracer.self_times()
    c = tracer.counters
    out = {m: sum(self_s.get(n, 0.0) for n in names) for m, names in TIME_METRICS.items()}
    out.update({m: c[m] for m in COUNT_METRICS})
    out["linalg.pivot_yield"] = c["linalg.insert.pivots"] / max(1, c["linalg.insert.calls"])
    out["cohomology.invariant_yield"] = (
        c["cohomology.invariants_kept"] / max(1, c["cohomology.reynolds.calls"]))
    checks = tracer.durations("pbw.check")
    out["pbw.check_p50_ms"] = _quantile_ms(checks, 50)
    out["pbw.check_p80_ms"] = _quantile_ms(checks, 80)
    out["pbw.oracle_p50_ms"] = _quantile_ms(oracle_s, 50)
    out["pbw.oracle_p80_ms"] = _quantile_ms(oracle_s, 80)
    return out

"""The correctness gate catches planted wrong answers."""

import time

import workloads
import worker
from speed import SpeedProbe
from tqdha import pbw


def _run(name, seconds, ops=None):
    return worker.run_pass(SpeedProbe(), name, 2, seconds, "plain", time.monotonic(), ops=ops)


def test_clean_stream_passes():
    out = _run("s4-kappa-stream", 1, ops=3)
    assert (out["attempted"], out["failed"]) == (3, 0)


def test_flipped_oracle_verdict_is_an_error(monkeypatch):
    real = pbw.verify_ambiguities

    def flipped(*args, **kwargs):
        rep = dict(real(*args, **kwargs))
        rep["resolvable"] = not rep["resolvable"]
        return rep

    monkeypatch.setattr(pbw, "verify_ambiguities", flipped)
    out = _run("s4-kappa-stream", 1, ops=3)
    assert out["failed"] / out["attempted"] == 1


def test_dropped_basis_vector_is_an_error(monkeypatch):
    real = pbw.solve_parameter_space
    monkeypatch.setattr(pbw, "solve_parameter_space", lambda *a, **k: real(*a, **k)[:-1])
    out = _run("cyclotomic-diagonal", 1)
    assert out["attempted"] == 1
    assert out["failed"] / out["attempted"] > 0
    assert "dimensions" in out["failures"][0]


def test_a_crash_is_an_error_not_a_lost_run(monkeypatch):
    def boom(*args, **kwargs):
        raise ArithmeticError("planted")

    monkeypatch.setattr(pbw, "check_pbw_conditions", boom)
    out = _run("s4-kappa-stream", 1, ops=2)
    assert out["failed"] == 2 and "planted" in out["failures"][0]


def test_rejected_in_span_kappa_is_an_error(monkeypatch):
    real = pbw.check_pbw_conditions

    def reject(*args, **kwargs):
        rep = dict(real(*args, **kwargs))
        rep["passed"] = False
        return rep

    monkeypatch.setattr(pbw, "check_pbw_conditions", reject)
    out = _run("s4-kappa-stream", 1, ops=3)
    # ops are dense, combination, perturbed: only the in-span one is wrong
    assert out["failed"] == 1 and "combination" in out["failures"][0]


def test_closed_form_labels_compare_as_a_set():
    check = workloads.check_cyclotomic
    assert check([[3, 0, 1], [5, 2, 3]], [[5, 2, 3], [3, 0, 1]]) == ""
    assert check([[3, 0, 1]], [[5, 2, 3], [3, 0, 1]]) != ""

"""Spans, self times and patching."""

import time

import pytest

import tracer as tracing
import worker
from speed import SpeedProbe
from tqdha import acceptance, cohomology, linalg, pbw


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def test_self_time_subtracts_direct_children():
    clock = FakeClock()
    tr = tracing.Tracer(clock)
    with tr.span("root"):
        clock.t = 1.0
        with tr.span("child"):
            clock.t = 3.0
            with tr.span("leaf"):
                clock.t = 3.5
        with tr.span("child"):
            clock.t = 4.0
        clock.t = 10.0
    assert tr.spans[1][3] == 0 and tr.spans[2][3] == 1
    assert tr.self_times() == {"root": 7.0, "child": 2.5, "leaf": 0.5}


def test_patch_reaches_every_binding_and_restores():
    original = pbw.check_pbw_conditions
    tr = tracing.Tracer()
    patcher = tracing.Patcher()
    patcher.replace(pbw, "check_pbw_conditions", lambda fn: tr.wrap("pbw.check", fn))
    patcher.replace(linalg.RowReducer, "insert", lambda fn: tr.wrap("linalg.insert", fn))
    try:
        for mod in (pbw, cohomology, acceptance):
            assert mod.check_pbw_conditions is not original
        linalg.RowReducer().insert({0: pbw.ONE})
        assert [s[0] for s in tr.spans] == ["linalg.insert"]
    finally:
        patcher.restore()
    for mod in (pbw, cohomology, acceptance):
        assert mod.check_pbw_conditions is original
    assert "insert" in vars(linalg.RowReducer) and linalg.RowReducer.insert.__name__ == "insert"
    assert not hasattr(linalg.RowReducer.insert, "__wrapped__")


def test_self_times_sum_to_the_traced_wall_time(tmp_path):
    spans = tmp_path / "spans.json"
    out = worker.run_pass(SpeedProbe(), "s4-kappa-stream", 5, 1, "trace", time.monotonic(),
                          ops=2, spans_path=str(spans))
    assert out["failed"] == 0 and out["attempted"] == 2
    # the spans cover set-up and every operation; only loop glue is outside
    assert out["span_self_total_s"] == pytest.approx(out["span_wall_s"], rel=0.02, abs=0.005)
    assert out["per_layer"]["pbw.check.calls"] == 2
    assert out["per_layer"]["pbw.oracle.ttt_s"] > 0
    assert spans.stat().st_size > 0
    # every patched name is back after the pass
    assert pbw.verify_ambiguities.__module__ == "tqdha.pbw"
    assert not hasattr(pbw.verify_ambiguities, "__wrapped__")

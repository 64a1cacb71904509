"""Acceptance suite: every criterion at its stated tolerance (all exact).

Each test prints one PASS/FAIL line; run with -s (or read the captured
output) to see them.  The S5-sized criteria share one classification per
(n, twisted) through tqdha.acceptance, so the suite costs little more than
its slowest member.  Criterion 6 solves the direct route on S4 and S5
instances that it builds afresh.
"""

from tqdha import acceptance


def _report(res):
    status = "PASS" if res["passed"] else "FAIL"
    print(f"{status} criterion {res['id']}: {res['description']}")
    return res


def test_criterion_1_twisted_s5_classification():
    res = _report(acceptance.criterion_1())
    assert res["passed"], res["details"]


def test_criterion_2_lemma_image_table_n5():
    res = _report(acceptance.criterion_2())
    assert res["passed"], res["details"]


def test_criterion_3_spin4_cocycle_validity():
    res = _report(acceptance.criterion_3())
    assert res["passed"], res["details"]


def test_criterion_4_cover_verification():
    res = _report(acceptance.criterion_4(samples=500, seed=0))
    assert res["passed"], res["details"]


def test_criterion_5_dual_oracle_equivalence():
    res = _report(acceptance.criterion_5(seed=0))
    assert res["details"]["instances_checked"] >= 100
    assert res["passed"], res["details"]


def test_criterion_6_engine_cross_check():
    res = _report(acceptance.criterion_6())
    assert res["passed"], res["details"]


def test_criterion_7_complex_property():
    res = _report(acceptance.criterion_7())
    assert res["passed"], res["details"]


def test_criterion_8_eta_family_consistency():
    res = _report(acceptance.criterion_8())
    assert res["passed"], res["details"]


def test_criterion_9_twisted_smaller_than_untwisted():
    res = _report(acceptance.criterion_9())
    assert res["passed"], res["details"]

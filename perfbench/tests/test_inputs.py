"""The generators: seeded, byte-stable, and valid input for the program."""

import inputs
from tqdha import classify, problems


def test_same_seed_gives_byte_identical_inputs():
    assert inputs.canonical(inputs.cyclotomic_instances(7, 4)) == inputs.canonical(
        inputs.cyclotomic_instances(7, 4))
    assert inputs.canonical(inputs.kappa_stream(7, 12)) == inputs.canonical(
        inputs.kappa_stream(7, 12))


def test_other_seed_gives_other_inputs():
    assert inputs.canonical(inputs.cyclotomic_instances(7, 4)) != inputs.canonical(
        inputs.cyclotomic_instances(8, 4))
    assert inputs.canonical(inputs.kappa_stream(7, 12)) != inputs.canonical(
        inputs.kappa_stream(8, 12))


def test_cyclotomic_problems_load_and_mostly_have_a_nonzero_space():
    nonzero = 0
    insts = inputs.cyclotomic_instances(11, 6)
    for inst, expected in zip(insts, inputs.cyclotomic_labels(11, 6)):
        spec = problems.load_problem(inst["problem"])
        labeled = classify.diagonal_kappa_basis_labeled(spec.action, spec.q, spec.alpha)
        assert sorted(label for label, _ in labeled) == sorted(map(tuple, expected))
        assert inst["planted"] in expected
        nonzero += bool(labeled)
    assert nonzero > len(insts) / 2


def test_stream_mix_and_reference_verdicts():
    stream = inputs.kappa_stream(3, 30)
    verdicts = inputs.kappa_verdicts(stream)
    kinds = [rec["kind"] for rec in stream]
    assert kinds == ["dense", "combination", "perturbed"] * 10
    assert all(v for v, kind in zip(verdicts, kinds) if kind == "combination")
    assert not all(verdicts)


def test_in_span_is_exact():
    basis = [{(0, 1, 2): 1}, {(1, 1, 2): 1, (2, 1, 3): 2}]
    assert inputs.in_span({(0, 1, 2): 3, (1, 1, 2): -1, (2, 1, 3): -2}, basis)
    assert not inputs.in_span({(1, 1, 2): 1, (2, 1, 3): 1}, basis)

"""The stored S4-twisted basis is the parameter space by both solver routes."""

import json

import inputs
from tqdha import cohomology, linalg, pbw, problems


def test_s4_fixture_matches_both_routes():
    spec = problems.parse_problem_file(str(inputs.HERE.parent / "problems" / "s4_twisted.json"))
    with open(inputs.S4_BASIS_FIXTURE) as f:
        fixture = json.load(f)
    stored = [pbw.KappaMap.from_records(spec.group, spec.n, spec.q, recs)
              for recs in fixture["basis"]]
    rows = [k.coordinate_row() for k in stored]
    assert fixture["dimension"] == len(stored) == 3
    direct = pbw.solve_parameter_space(spec.action, spec.q, spec.alpha, recheck=False)
    coh = cohomology.cohomological_parameter_space(spec.action, spec.q, spec.alpha, recheck=False)
    for route in (direct, coh):
        assert len(route) == 3
        assert linalg.same_span(rows, [k.coordinate_row() for k in route])

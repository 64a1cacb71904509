#!/usr/bin/env python3
"""The sha256 of the structures each problem loads to, one line a problem.

Instances: every bundled problem (``problems/*.json``) and the seeded
Z/6 x Z/6 problems of ``perfbench/inputs.cyclotomic_instances`` at seeds 1
to 4, three a seed.  Each line digests the loaded group (its table, labels,
generators and inverses), q, the cocycle (its ``index`` and ``distinct``
values) and the action (``mats``, ``rows_nz`` and ``cols_nz``), with every
scalar written as its canonical triple (order, coeffs, den).  So the sha256
of stdout pins the loader's output exactly, however it computes it:

    PYTHONPATH=src python scripts/load_digest.py
"""

import glob
import hashlib
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench.inputs import cyclotomic_instances  # noqa: E402
from tqdha.problems import load_problem, parse_problem_file  # noqa: E402


def _plain(x):
    """x with every scalar replaced by its canonical triple."""
    if isinstance(x, (tuple, list)):
        return tuple(map(_plain, x))
    if hasattr(x, "coeffs"):
        return (x.order, x.coeffs, x.den)
    return x


def digest(prob) -> str:
    G, alpha, action = prob.group, prob.alpha, prob.action
    parts = (G.mult, G.labels, G.generator_indices, G.inv, prob.q.q, alpha.index, alpha.distinct,
             action.mats, action.rows_nz, action.cols_nz)
    return hashlib.sha256(repr(_plain(parts)).encode()).hexdigest()


def main() -> None:
    for path in sorted(glob.glob(os.path.join(ROOT, "problems", "*.json"))):
        print(os.path.basename(path), digest(parse_problem_file(path)))
    for seed in (1, 2, 3, 4):
        for k, inst in enumerate(cyclotomic_instances(seed, 3)):
            print(f"cyclotomic seed {seed} #{k}", digest(load_problem(inst["problem"])))


if __name__ == "__main__":
    main()

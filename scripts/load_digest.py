#!/usr/bin/env python3
"""The sha256 of the structures each problem loads to, one line a problem.

Instances: every bundled problem (``problems/*.json``) and the seeded
Z/6 x Z/6 problems of ``perfbench/inputs.cyclotomic_instances`` at seeds 1
to 4, three a seed.  Each line digests the loaded group (its table, labels,
generators and inverses), q, the cocycle (its ``index`` and ``distinct``
values) and the action, with every scalar written as its canonical triple
(order, coeffs, den).  The action is held as its sparse rows ``rows_nz``
alone, and those rows are what is pinned: the digest reads them with the
dense matrices and the sparse columns that this script rebuilds from them,
in the layout the digest has always had.  So the sha256 of stdout pins the
loader's output exactly, however it computes it:

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
from tqdha.quantum import _nonzero  # noqa: E402
from tqdha.scalars import ZERO  # noqa: E402


def _plain(x):
    """x with every scalar replaced by its canonical triple."""
    if isinstance(x, (tuple, list)):
        return tuple(map(_plain, x))
    if hasattr(x, "coeffs"):
        return (x.order, x.coeffs, x.den)
    return x


def _dense(rows, n) -> tuple:
    """The n x n matrix whose sparse rows are rows, zeros as ZERO."""
    m = [[ZERO] * n for _ in range(n)]
    for i, row in enumerate(rows):
        for k, x in row:
            m[i][k] = x
    return tuple(map(tuple, m))


def digest(prob) -> str:
    G, alpha, action = prob.group, prob.alpha, prob.action
    mats = tuple(_dense(rows, action.n) for rows in action.rows_nz)
    parts = (G.mult, G.labels, G.generator_indices, G.inv, prob.q.q, alpha.index, alpha.distinct,
             mats, action.rows_nz, tuple(tuple(map(_nonzero, zip(*m))) for m in mats))
    return hashlib.sha256(repr(_plain(parts)).encode()).hexdigest()


def main() -> None:
    for path in sorted(glob.glob(os.path.join(ROOT, "problems", "*.json"))):
        print(os.path.basename(path), digest(parse_problem_file(path)))
    for seed in (1, 2, 3, 4):
        for k, inst in enumerate(cyclotomic_instances(seed, 3)):
            print(f"cyclotomic seed {seed} #{k}", digest(load_problem(inst["problem"])))


if __name__ == "__main__":
    main()

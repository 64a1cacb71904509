#!/usr/bin/env python3
"""Compare twisted and untwisted parameter-space dimensions for the natural
S_n representation with q = -1.

The twisted column uses the spin-cover 2-cocycle; the untwisted column the
trivial one.  Both are computed through the cohomological pipeline and
cross-checked against the direct linear solver before printing.  The script
exits 1 if the two disagree, or if a twisted dimension is not strictly below
the untwisted one:

    PYTHONPATH=src python scripts/compare_twisted_untwisted.py --max-n 5
"""

import argparse
import sys
import time

from tqdha.classify import symmetric_instance
from tqdha.cohomology import cohomological_parameter_space
from tqdha.pbw import same_space, solve_parameter_space


def dimensions(n: int, twisted: bool):
    _, action, q, alpha = symmetric_instance(n, twisted)
    t0 = time.time()
    basis = cohomological_parameter_space(action, q, alpha)
    elapsed = time.time() - t0
    if not same_space(solve_parameter_space(action, q, alpha), basis):
        sys.exit(f"engine disagreement at n={n}, twisted={twisted}")
    return len(basis), elapsed


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-n", type=int, default=5)
    args = ap.parse_args()

    print(f"{'n':>3} {'untwisted':>10} {'twisted':>8}  (cohomological pipeline)")
    not_smaller = []
    for n in range(4, args.max_n + 1):
        du, tu = dimensions(n, False)
        dt, tt = dimensions(n, True)
        print(f"{n:>3} {du:>10} {dt:>8}   [{tu + tt:.1f}s]")
        if dt >= du:
            not_smaller.append(n)
    if not_smaller:
        sys.exit(f"the twisted space is not strictly smaller at n = {not_smaller}")
    print("\nThe twisted space is strictly smaller at every n.")


if __name__ == "__main__":
    main()

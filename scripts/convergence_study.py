#!/usr/bin/env python3
"""Mesh refinement study: observed convergence orders.

Box: error of sigma_1 against the separable alpha = 0 value 2 on (0,pi)^2.
Cap: hemisphere equality errors |p1 - 4| and |q1 - 2| under radial
refinement (the conforming elements converge at fourth order until the
double-precision floor of the fourth-order pencil).

    python3 scripts/convergence_study.py --box 8,16,32,64 --cap 16,32,64
"""

import argparse
import math
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from elastica.assembly import ElasticityProblem  # noqa: E402
from elastica.cap1d import CapProblem, solve_cap  # noqa: E402
from elastica.harness import solve_problem  # noqa: E402

PI = math.pi


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--box", default="8,16,32,64")
    ap.add_argument("--cap", default="16,32,64")
    ap.add_argument("--alpha", type=float, default=0.0)
    args = ap.parse_args()

    print("box (0,pi)^2, alpha=0, sigma_1 -> 2:")
    prev = None
    for cells in (int(c) for c in args.box.split(",")):
        spec, _ = solve_problem(ElasticityProblem((PI, PI), 0.0,
                                                  (cells, cells)),
                                4, 1e-9, seed=1)
        err = abs(spec.values[0] - 2.0)
        rate = "" if prev is None else f"  order {math.log2(prev / err):.2f}"
        print(f"  {cells:4d}^2  error {err:.3e}{rate}")
        prev = err

    print("hemisphere equalities:")
    prev_p = prev_q = None
    for cells in (int(c) for c in args.cap.split(",")):
        ep = abs(solve_cap(CapProblem(PI / 2, "p_problem", 4, cells)).value
                 - 4.0)
        eq = abs(solve_cap(CapProblem(PI / 2, "q_problem", 4, cells)).value
                 - 2.0)
        rp = "" if prev_p is None else f" order {math.log2(prev_p / ep):.2f}"
        rq = "" if prev_q is None else f" order {math.log2(prev_q / eq):.2f}"
        print(f"  {cells:4d} cells  |p-4| {ep:.3e}{rp}   |q-2| {eq:.3e}{rq}")
        prev_p, prev_q = ep, eq
    return 0


if __name__ == "__main__":
    sys.exit(main())

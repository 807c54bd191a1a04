#!/usr/bin/env python3
"""Stress check of the box eigensolver on random small boxes.

Each box is drawn from one generator seed by the test suite's
``random_small_box`` (tests/conftest.py): 2D or 3D, edges in [0.3, 3.5],
2-13 cells per axis, alpha in {0, 0.5, 2, 10, 100}, m from 1 to
min(order/4, 16) and a solver seed, redrawn until its 2N order is at most
1600 so every solve has a dense oracle.  Its edges come from a continuous
distribution, so no box has equal axes; each box therefore also has a
symmetric twin, axis 0's edge and cells copied onto every axis (a square
or a cube, whose solve runs on one parity class per orbit of the axis
permutations), with m cut to its order/4, skipped if its 2N order exceeds
1600.  Both Richardson meshes, N and 2N, of box and twin are solved with
``solve_problem`` and checked:

* miss: an eigenvalue off the m smallest dense eigenvalues of the
  assembled CSR pencil (the suite's ``dense_generalized_eigs``) by more
  than 1e-7 relative;
* residual: a pair whose residual, recomputed on the CSR pencil from its
  nodal vector (the suite's ``nodal_vectors``), exceeds the solver
  tolerance;
* breakdown: the solver raised (breakdown or no convergence).

Every failure is printed with its box, and the counts per group (boxes,
symmetric twins) close the run; the exit status is 1 if any failure
occurred, else 0.

    python3 scripts/stress_small_boxes.py --boxes 1500 --seed 1
"""

import argparse
import os
import sys

import numpy as np

ROOT = os.path.join(os.path.dirname(__file__), "..")
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "tests"))

from conftest import (BOX_MAX_ORDER, dense_generalized_eigs,  # noqa: E402
                      nodal_vectors, random_small_box)
from elastica.assembly import ElasticityProblem, assemble  # noqa: E402
from elastica.eigensolve import BreakdownError, ConvergenceError  # noqa: E402
from elastica.harness import solve_problem  # noqa: E402

MAX_CELLS = 13
TOL = 1e-8
#: relative eigenvalue error that counts as a miss
REL = 1e-7


def check(problem, m, seed):
    """The failures of one solve: a list of (kind, detail)."""
    try:
        _, result = solve_problem(problem, m, TOL, seed)
    except (BreakdownError, ConvergenceError) as err:
        return [("breakdown", f"{type(err).__name__}: {err}")]
    K, M, _ = assemble(problem)
    ref = dense_generalized_eigs(K, M)[:m]
    failures = []
    off = np.abs(result.values - ref) / ref
    if np.any(off > REL):
        i = int(np.argmax(off))
        failures.append(("miss", f"index {i}: {result.values[i]:.12g} "
                                 f"against {ref[i]:.12g}"))
    X = nodal_vectors(problem, result)
    R = K.matvec(X) - M.matvec(X) * result.values
    res = np.linalg.norm(R, axis=0) / np.abs(result.values)
    if np.any(res > TOL):
        failures.append(("residual", f"max CSR residual {res.max():.3e}"))
    return failures


def symmetric_twin(problem, m):
    """(twin, m) of a box: axis 0's edge and cells on every axis, m cut to
    the twin's order/4; None if that leaves m = 0 or the 2N order exceeds
    BOX_MAX_ORDER."""
    dim, cells = problem.dim, problem.cells[0]
    m = min(m, dim * (cells - 1) ** dim // 4)
    if m < 1 or dim * (2 * cells - 1) ** dim > BOX_MAX_ORDER:
        return None
    return ElasticityProblem((problem.edges[0],) * dim, problem.alpha,
                             (cells,) * dim), m


def main():
    ap = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=__doc__.split("\n\n", 1)[1])
    ap.add_argument("--boxes", type=int, default=1500)
    ap.add_argument("--seed", type=int, default=1,
                    help="generator seed of the boxes")
    args = ap.parse_args()

    rng = np.random.default_rng(args.seed)
    counts = {group: {"miss": 0, "residual": 0, "breakdown": 0}
              for group in ("boxes", "symmetric twins")}
    solved = dict.fromkeys(counts, 0)
    for box in range(args.boxes):
        problem, m, seed = random_small_box(rng, MAX_CELLS)
        runs = [("boxes", problem, m)]
        twin = symmetric_twin(problem, m)
        if twin is not None:
            runs.append(("symmetric twins", *twin))
        for group, base, k in runs:
            solved[group] += 1
            for mesh in (base, base.refined()):
                for kind, detail in check(mesh, k, seed):
                    counts[group][kind] += 1
                    print(f"box {box}: {kind} edges={mesh.edges} "
                          f"alpha={mesh.alpha:g} cells={mesh.cells} m={k} "
                          f"seed={seed}: {detail}", flush=True)
    for group, n in solved.items():
        print(f"{n} {group}, {2 * n} solves: " + ", ".join(
            f"{c} {kind}" for kind, c in counts[group].items()))
    return 1 if any(any(c.values()) for c in counts.values()) else 0


if __name__ == "__main__":
    sys.exit(main())

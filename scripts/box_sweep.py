#!/usr/bin/env python3
"""Alpha sweep on a box: solve, verify every bound, render reports.

Runs one Richardson verify per alpha, in order, and writes its JSON report
to ``report_alpha<a>.json``.  The merged ``sweep.csv``, the ``sweep.txt``
table and, with --svg, the per-inequality charts are rendered by
``elastica report``; the exit status is that command's.

    python3 scripts/box_sweep.py --out out/sweep --alphas 0,0.5,1,2,10 \
        --cells 64 --k-max 15
"""

import argparse
import os
import sys
from dataclasses import replace

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from elastica import cli  # noqa: E402
from elastica.harness import RunConfig, parse_floats, run_verify  # noqa: E402
from elastica.report import save_report  # noqa: E402


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="out/sweep")
    ap.add_argument("--alphas", default="0,0.5,1,2,10")
    ap.add_argument("--cells", type=int, default=64,
                    help="coarse mesh per direction (fine mesh is 2x)")
    ap.add_argument("--edges", default="pi,pi")
    ap.add_argument("--k-max", type=int, default=15)
    ap.add_argument("--m", type=int, default=0,
                    help="eigenvalue count (default k_max + 1)")
    ap.add_argument("--tol", type=float, default=1e-8)
    ap.add_argument("--seed", type=int, default=2024)
    ap.add_argument("--svg", action="store_true")
    args = ap.parse_args()

    edges = parse_floats(args.edges)
    os.makedirs(args.out, exist_ok=True)
    paths = []
    for alpha in (float(a) for a in args.alphas.split(",")):
        report = run_verify(replace(
            RunConfig(mode="verify"), edges=edges, alpha=alpha,
            cells=(args.cells,) * len(edges), m=args.m or args.k_max + 1,
            k_max=args.k_max, tol=args.tol, seed=args.seed,
            policy="richardson"))
        paths.append(os.path.join(args.out, f"report_alpha{alpha:g}.json"))
        save_report(report, paths[-1])
        print(f"alpha={alpha:<5g} pass={report.summary['pass']:<4d} "
              f"marginal={report.summary['marginal']:<3d} "
              f"fail={report.summary['fail']:<3d} "
              f"skip={report.summary['skip']}")
    return cli.main(["report", *paths,
                     "--csv", os.path.join(args.out, "sweep.csv"),
                     "--table", os.path.join(args.out, "sweep.txt")]
                    + (["--svg-dir", args.out] if args.svg else []))


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Spherical-cap suite over a range of half-angles.

For each theta0 run the five first-eigenvalue problems at two radial
resolutions, extrapolate and print the first eigenvalues; then print the
inequality checks of all angles as one table, the one ``elastica report``
renders (including the hemisphere equality cases and the hypothesis
gating beyond it).

    python3 scripts/cap_suite.py --thetas pi/4,pi/3,pi/2,2pi/3 --cells 256
"""

import argparse
import os
import sys
from dataclasses import replace

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from elastica.harness import RunConfig, parse_angle, run_cap  # noqa: E402
from elastica.report import exit_code, render_table, save_report  # noqa: E402


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--thetas", default="pi/4,pi/3,pi/2,2pi/3")
    ap.add_argument("--cells", type=int, default=256)
    ap.add_argument("--mode-max", type=int, default=8)
    ap.add_argument("--out", default=None, help="directory for JSON reports")
    args = ap.parse_args()

    reports = []
    for token in args.thetas.split(","):
        theta0 = parse_angle(token)
        cfg = replace(RunConfig(mode="cap"), theta0=theta0,
                      radial_cells=args.cells, mode_max=args.mode_max)
        report = run_cap(cfg)
        values = report.provenance["values"]
        print(f"theta0 = {token.strip():>6s} ({theta0:.4f} rad)")
        print("   " + "  ".join(f"{k}={v:.6f}" for k, v in values.items()))
        if args.out:
            os.makedirs(args.out, exist_ok=True)
            save_report(report, os.path.join(
                args.out, f"cap_{theta0:.4f}.json"))
        reports.append(report)
    sys.stdout.write(render_table(reports))
    return exit_code(reports)


if __name__ == "__main__":
    sys.exit(main())

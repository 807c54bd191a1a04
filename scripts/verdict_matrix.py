#!/usr/bin/env python3
"""The full verdict matrix: every record of 59 box and cap runs.

The 34 box runs are ``run_verify`` solves with m = 16 and k_max = 15:

* the (pi, pi) square at 32x32 cells, alpha in {0, 0.5, 1, 2, 10}, and at
  64x64 cells, alpha = 2, each at seeds 1, 7 and 11 (Richardson);
* the square at 12x12 cells, alpha in {0, 0.5, 2, 10}, under each of the
  policies richardson, fixed and fixed:1e-6 (seed 7);
* the (pi, pi, pi) cube at 10^3 cells, alpha = 0, and at 6^3, alpha = 10;
* the (pi, 0.3 pi) strip at 64x8 cells, alpha = 0;
* the square at 32x32 cells, alpha = 100.

The 25 cap runs are ``run_cap`` at theta0 in {pi/4, 1, pi/2, 2.2}: with
cap.kind set to all and to each of the five kinds (256 radial cells, modes
0-8), but dirichlet_laplacian at pi/2 only: elsewhere it judges nothing,
and the config is refused; then with cap.kind = all at 32 radial cells.
Every box run but the first group's uses seed 7.  The 12x12 box runs and
the 32-cell cap runs are the slice that tests/test_verdicts.py solves.

For each run the matrix holds every record's [name, kind, k, verdict,
note] (:func:`record_row`), and per record name the smallest
slack/|bound| over its non-skip records with a nonzero bound (the k = 1
quadratic forms read 0 <= 0; null if no record is left).  Without options
the script prints a one-line summary per run; ``--output FILE`` writes the
matrix, and ``--compare FILE`` prints every changed verdict or note and
every slack/|bound| that moved by more than 1e-6 against a matrix written
before, exiting 1 on a verdict change (a record added or lost counts as
one).  tests/data/verdicts.json is the matrix that the tests check; the
written file is byte-stable at a fixed BLAS thread count only, as the
thread count moves the last digits of some slack/|bound| values.

    python3 scripts/verdict_matrix.py --output tests/data/verdicts.json
    python3 scripts/verdict_matrix.py --compare tests/data/verdicts.json
"""

import argparse
import json
import math
import os
import sys
from dataclasses import replace

ROOT = os.path.join(os.path.dirname(__file__), "..")
sys.path.insert(0, os.path.join(ROOT, "src"))

from elastica.bounds import VERDICTS  # noqa: E402
from elastica.harness import (CAP_RUN_KINDS, RunConfig,  # noqa: E402
                              run_cap, run_verify)

PI = math.pi
BOXES = {"square": (PI, PI), "cube": (PI, PI, PI), "strip": (PI, 0.3 * PI)}
VERIFY_ALPHAS = (0.0, 0.5, 2.0, 10.0)
VERIFY_POLICIES = ("richardson", "fixed", "fixed:1e-6")
CAP_ANGLES = {"pi/4": PI / 4, "1": 1.0, "pi/2": PI / 2, "2.2": 2.2}
#: a slack/|bound| that moves by more than this is reported by --compare
SLACK_MOVE = 1e-6


def matrix_runs():
    """Run label -> the config of that run, in file order."""
    runs = {}

    def box(shape, cells, alpha, policy="richardson", seed=7):
        label = (f"verify {shape} {'x'.join(map(str, cells))} "
                 f"alpha={alpha:g} {policy} seed={seed}")
        runs[label] = replace(
            RunConfig(mode="verify"), edges=BOXES[shape], cells=cells,
            alpha=alpha, policy=policy, m=16, k_max=15, seed=seed)

    for cells, alphas in (((32, 32), (0.0, 0.5, 1.0, 2.0, 10.0)),
                          ((64, 64), (2.0,))):
        for alpha in alphas:
            for seed in (1, 7, 11):
                box("square", cells, alpha, seed=seed)
    for alpha in VERIFY_ALPHAS:
        for policy in VERIFY_POLICIES:
            box("square", (12, 12), alpha, policy)
    box("cube", (10, 10, 10), 0.0)
    box("cube", (6, 6, 6), 10.0)
    box("strip", (64, 8), 0.0)
    box("square", (32, 32), 100.0)
    for angle, theta0 in CAP_ANGLES.items():
        for kind in CAP_RUN_KINDS:
            if kind == "dirichlet_laplacian" and angle != "pi/2":
                continue
            runs[f"cap theta0={angle} kind={kind}"] = replace(
                RunConfig(mode="cap"), theta0=theta0, cap_kind=kind)
    for angle, theta0 in CAP_ANGLES.items():
        runs[f"cap theta0={angle} kind=all cells=32"] = replace(
            RunConfig(mode="cap"), theta0=theta0, radial_cells=32)
    return runs


def record_row(r):
    """[name, kind, k, verdict, note] of one record: its row in the
    matrix."""
    return [r.name, r.kind, r.k, r.verdict, r.note]


def matrix_entry(records):
    """One run's entry: its record rows, and per record name the smallest
    slack/|bound| over the non-skip records with a nonzero bound."""
    slack = {}
    for r in records:
        slack.setdefault(r.name, None)
        if r.verdict != "skip" and r.bound_value != 0:
            rel = r.slack / abs(r.bound_value)
            slack[r.name] = rel if slack[r.name] is None \
                else min(slack[r.name], rel)
    return {"records": [record_row(r) for r in records],
            "min_slack_rel": slack}


def run_matrix(runs):
    """Label -> :func:`matrix_entry` of each run."""
    return {label: matrix_entry(
        (run_cap if cfg.mode == "cap" else run_verify)(cfg).records)
        for label, cfg in runs.items()}


def dumps(matrix):
    """The matrix as JSON text, one record a line."""
    runs = []
    for label, entry in matrix.items():
        rows = ",\n".join(f"   {json.dumps(row)}"
                          for row in entry["records"])
        runs.append(f" {json.dumps(label)}: {{\n  \"records\": [\n{rows}\n"
                    f"  ],\n  \"min_slack_rel\": "
                    f"{json.dumps(entry['min_slack_rel'])}\n }}")
    return "{\n" + ",\n".join(runs) + "\n}\n"


def compare(old, new):
    """(lines, verdict_changed): every changed verdict or note and every
    slack/|bound| that moved by more than SLACK_MOVE, from ``old`` to
    ``new``; a run or record on one side only is a verdict change."""
    lines, changed = [], False
    for label in dict.fromkeys([*old, *new]):
        if label not in old or label not in new:
            lines.append(f"{label}: only in the "
                         f"{'new' if label in new else 'old'} matrix")
            changed = True
            continue
        was = {tuple(row[:3]): row[3:] for row in old[label]["records"]}
        now = {tuple(row[:3]): row[3:] for row in new[label]["records"]}
        for key in dict.fromkeys([*was, *now]):
            name, kind, k = key
            where = f"{label}: {name} ({kind}) k={k}"
            if key not in was or key not in now:
                lines.append(f"{where}: only in the "
                             f"{'new' if key in now else 'old'} matrix")
                changed = True
                continue
            (verdict, note), (verdict2, note2) = was[key], now[key]
            if verdict != verdict2:
                lines.append(f"{where}: verdict {verdict} -> {verdict2}")
                changed = True
            if note != note2:
                lines.append(f"{where}: note {note!r} -> {note2!r}")
        before = old[label]["min_slack_rel"]
        after = new[label]["min_slack_rel"]
        for name in dict.fromkeys([*before, *after]):
            a, b = before.get(name), after.get(name)
            if (a is None) != (b is None) or (
                    a is not None and abs(b - a) > SLACK_MOVE):
                lines.append(f"{label}: {name} min slack/|bound| "
                             f"{a} -> {b}")
    return lines, changed


def main(argv=None, runs=None):
    """Run the matrix (``runs``: label -> config, default all 59);
    the exit status is 1 on a verdict change against ``--compare``."""
    ap = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=__doc__.split("\n\n", 1)[1])
    ap.add_argument("--output", help="write the matrix here")
    ap.add_argument("--compare", metavar="FILE",
                    help="compare with a matrix written before")
    args = ap.parse_args(argv)

    matrix = run_matrix(matrix_runs() if runs is None else runs)
    if args.output:
        with open(args.output, "w", encoding="ascii") as fh:
            fh.write(dumps(matrix))
    if args.compare:
        with open(args.compare, encoding="ascii") as fh:
            old = json.load(fh)
        lines, changed = compare(old, matrix)
        for line in lines:
            print(line)
        print(f"{len(matrix)} runs against {args.compare}: "
              f"{len(lines)} differences, verdicts "
              f"{'changed' if changed else 'unchanged'}")
        return 1 if changed else 0
    for label, entry in matrix.items():
        counts = [row[3] for row in entry["records"]]
        print(f"{label}: {len(counts)} records, " + ", ".join(
            f"{counts.count(v)} {v}" for v in VERDICTS))
    return 0


if __name__ == "__main__":
    sys.exit(main())

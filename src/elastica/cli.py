"""Command line interface.

One subcommand per job: ``solve`` writes a spectrum file (to stdout
without ``output.path``), ``verify`` (of a solve, or of ``spectrum.path``)
and ``cap`` save JSON reports, and ``report`` renders them as a table, CSV
and SVG charts.

    elastica solve   --config cfg [--set k=v ...] [--dump-matrices DIR]
    elastica verify  --config cfg [--set k=v ...]
    elastica cap     --config cfg [--set k=v ...]
    elastica report  R1.json [R2.json ...] [--csv F] [--table F] [--svg-dir D]

Exit status: 0 all records pass or skip, 2 any marginal, 1 any fail, a
runtime error or a usage error.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections import Counter
from dataclasses import replace

from .eigensolve import BreakdownError, ConvergenceError
from .harness import (ConfigError, RunConfig, SpectrumFileError,
                      apply_overrides, format_spectrum, load_config, run_cap,
                      run_solve, run_verify)
from .report import (ReportFormatError, exit_code, load_report, render_csv,
                     render_svg, render_table, svg_series_for)
from .sparse import MatrixFormatError


def _add_common(parser):
    parser.add_argument("--config", help="path to a key = value config file")
    parser.add_argument("--set", dest="overrides", action="append",
                        default=[], metavar="KEY=VALUE",
                        help="override one config key (repeatable)")
    parser.add_argument("--output", help="override output.path")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="elastica",
        description="verify universal eigenvalue bounds against computed "
                    "spectra of the vector elasticity operator and of "
                    "spherical-cap biharmonic problems")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (
            ("solve", "compute a spectrum and write a spectrum file"),
            ("verify", "verify a solve, or spectrum.path, by every bound"),
            ("cap", "first-eigenvalue suite on a spherical cap")):
        p = sub.add_parser(name, help=helptext)
        _add_common(p)
        if name == "solve":
            p.add_argument("--dump-matrices", metavar="DIR",
                           help="write K.mtx/M.mtx (Matrix Market, "
                                "round-trip checked)")
    rep = sub.add_parser("report", help="render saved reports")
    rep.add_argument("reports", nargs="+", help="report JSON files")
    rep.add_argument("--csv", help="write merged CSV here (with a leading "
                                   "run column when several reports merge)")
    rep.add_argument("--table", help="write the aligned table here "
                                     "(default: stdout)")
    rep.add_argument("--svg-dir", help="write per-inequality SVG charts here")
    return parser


def _config_from_args(args, mode):
    cfg = RunConfig(mode=mode)
    if args.config:
        cfg = load_config(args.config, base=cfg)
    cfg = apply_overrides(cfg, args.overrides)
    return replace(cfg, output_path=args.output or cfg.output_path).validate()


def _file_part(text):
    """``text`` with its path separators made ``_``, so that a label or a
    record name read from a report cannot place a chart outside its
    directory."""
    return text.replace("/", "_").replace("\\", "_")


def _chart_stems(reports):
    """File-name stem of each report's charts: its label, and where several
    reports share a label, that label with the report's number among them
    (``-1``, ``-2``, ...), so no report overwrites another's charts."""
    labels = [_file_part(rep.label().replace(" ", "_").replace("=", ""))
              for rep in reports]
    total, seen, stems = Counter(labels), Counter(), []
    for label in labels:
        seen[label] += 1
        stems.append(f"{label}-{seen[label]}" if total[label] > 1 else label)
    return stems


def _run_report(args):
    reports = [load_report(p) for p in args.reports]
    if args.csv:
        with open(args.csv, "w", encoding="ascii") as fh:
            fh.write(render_csv(reports))
    table = render_table(reports)
    if args.table:
        with open(args.table, "w", encoding="ascii") as fh:
            fh.write(table)
    else:
        sys.stdout.write(table)
    if args.svg_dir:
        os.makedirs(args.svg_dir, exist_ok=True)
        for rep, stem in zip(reports, _chart_stems(reports)):
            for name in dict.fromkeys(r.name for r in rep.records):
                series = svg_series_for(rep, name)
                path = os.path.join(args.svg_dir,
                                    f"{stem}_{_file_part(name)}.svg")
                with open(path, "w", encoding="ascii") as fh:
                    fh.write(render_svg(f"{name} ({rep.label()})", series))
    return exit_code(reports)


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as stop:  # 0 after --help, else a usage error
        return 1 if stop.code else 0
    try:
        if args.command == "report":
            return _run_report(args)
        cfg = _config_from_args(args, args.command)
        if args.command == "solve":
            spectrum, result = run_solve(cfg, args.dump_matrices)
            dest = cfg.output_path or "<stdout>"
            if not cfg.output_path:
                sys.stdout.write(format_spectrum(spectrum))
            print(f"solved: {len(spectrum)} eigenvalues "
                  f"(mesh {spectrum.mesh}, {result.iterations} iterations) "
                  f"-> {dest}", file=sys.stderr)
            return 0
        runner = run_cap if args.command == "cap" else run_verify
        report = runner(cfg)
        counts = report.summary
        print(f"{args.command}: pass={counts['pass']} "
              f"marginal={counts['marginal']} fail={counts['fail']} "
              f"skip={counts['skip']}"
              + (f" -> {cfg.output_path}" if cfg.output_path else ""))
        return report.exit_code()
    except (ConfigError, SpectrumFileError, ReportFormatError,
            MatrixFormatError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except (ConvergenceError, BreakdownError) as err:
        print(f"solver error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

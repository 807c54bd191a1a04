"""Harness tests: configs, spectrum files, verification flows, CLI, reports."""

import copy
import csv
import json
import math
import os
from dataclasses import astuple, replace
from pathlib import Path
from xml.etree import ElementTree

import numpy as np
import pytest

from elastica import cap1d, cli, harness
from elastica.assembly import reference_spectrum_alpha0
from elastica.bounds import BoundRecord, Spectrum
from elastica.harness import (CONFIG_KEYS, ConfigError, RunConfig,
                              SpectrumFileError, apply_overrides, load_config,
                              parse_config_text, read_spectrum, run_cap,
                              run_solve, run_verify, write_spectrum)
from elastica.report import (VerificationReport, load_report, render_csv,
                             render_svg, render_table, save_report,
                             svg_series_for)
from oracles import to_dense

PI = math.pi


def tiny_verify_config(**kw):
    base = replace(RunConfig(mode="verify"), cells=(10, 10), m=5, k_max=4,
                   seed=7, tol=1e-8)
    return replace(base, **kw)


class TestConfigParsing:
    def test_full_file(self, tmp_path):
        text = """
        # box sweep case
        domain.edges = 3.141592653589793, 3.141592653589793
        domain.alpha = 0.5
        mesh.cells = 16, 16
        solver.m = 8
        solver.tol = 1e-9
        solver.seed = 99
        verify.k_max = 6
        verify.policy = richardson
        """
        path = tmp_path / "run.cfg"
        path.write_text(text)
        cfg = load_config(path, base=RunConfig(mode="verify")).validate()
        assert cfg.alpha == 0.5
        assert cfg.cells == (16, 16)
        assert cfg.seed == 99

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config_text("solver.mm = 3")

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError, match="bad value"):
            parse_config_text("solver.m = lots")

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="not found"):
            load_config("/nonexistent/thing.cfg")

    def test_overrides(self):
        cfg = apply_overrides(RunConfig(), ["solver.m=9", "domain.alpha=2"])
        assert cfg.m == 9 and cfg.alpha == 2.0
        with pytest.raises(ConfigError):
            apply_overrides(RunConfig(), ["solver.m"])

    def test_set_value_is_read_whole(self):
        # a `--set` value keeps its `#` and its line breaks: one pair sets
        # one key, while a config-file line still ends at its comment
        cfg = apply_overrides(RunConfig(),
                              ["output.path=a\ndomain.alpha=3"])
        assert cfg.output_path == "a\ndomain.alpha=3" and cfg.alpha == 0.0
        assert parse_config_text("output.path = run#1.json").output_path \
            == "run"

    def test_angle_forms(self):
        cfg = apply_overrides(RunConfig(), ["cap.theta0=pi/2"])
        assert cfg.theta0 == pytest.approx(PI / 2, rel=1e-15)
        cfg = apply_overrides(RunConfig(), ["cap.theta0=2pi/3"])
        assert cfg.theta0 == pytest.approx(2 * PI / 3, rel=1e-15)
        cfg = apply_overrides(RunConfig(), ["cap.theta0=1.25"])
        assert cfg.theta0 == 1.25

    def test_cap_cell_angle_floor(self):
        # Richardson's 2·cells mesh must clear the floor as well
        floor = cap1d.MIN_CELL_ANGLE
        for cfg in (RunConfig(mode="cap"),
                    apply_overrides(RunConfig(mode="cap"), [
                        "cap.theta0=pi/2", "cap.cells=256", "cap.mode_max=8"]),
                    replace(RunConfig(mode="cap"), theta0=32 * floor,
                            radial_cells=16)):
            assert cfg.validate() is cfg
        with pytest.raises(ConfigError, match="below 1e-30"):
            replace(RunConfig(mode="cap"), theta0=31 * floor,
                    radial_cells=16).validate()
        # runs that solve no cap only echo the angle
        replace(RunConfig(mode="verify"), theta0=1e-77).validate()

    def test_edges_take_angle_forms(self):
        cfg = apply_overrides(RunConfig(), ["domain.edges=pi,pi/2"])
        assert cfg.edges == (PI, PI / 2)
        cfg = apply_overrides(RunConfig(), ["domain.edges=3.25, 0.1"])
        assert cfg.echo()["domain.edges"] == [3.25, 0.1]

    def test_policy_forms(self):
        assert tiny_verify_config(policy="fixed:1e-7").validate() \
            .fixed_tolerance() == 1e-7
        assert tiny_verify_config(policy="fixed").validate() \
            .fixed_tolerance() == 1e-9
        assert tiny_verify_config(policy="fixed:0").validate() \
            .fixed_tolerance() == 0.0
        with pytest.raises(ConfigError):
            tiny_verify_config(policy="adaptive").validate()

    def test_degenerate_mesh_rejected_at_load(self):
        with pytest.raises(ValueError):
            tiny_verify_config(cells=(1, 10)).validate()

    def test_alpha_capped_before_any_solve(self):
        # past the cap a run spends ~0.88·√α K applies per preconditioner
        # apply; at 1e300 the step count never ended
        top = harness.ALPHA_MAX
        assert tiny_verify_config(alpha=top).validate().alpha == top
        for alpha in (math.nextafter(top, math.inf), 1e300):
            with pytest.raises(ConfigError, match="domain.alpha out of range"):
                tiny_verify_config(alpha=alpha).validate()
        # runs that solve no box only echo it
        replace(RunConfig(mode="cap"), alpha=1e300).validate()

    @pytest.mark.parametrize("end", ["EDGE_MIN", "EDGE_MAX"])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_edges_in_range_at_each_end(self, end, dim):
        edge = getattr(harness, end)
        outside = math.nextafter(edge, 0.0 if end == "EDGE_MIN" else math.inf)
        cells = (6,) * dim
        cfg = tiny_verify_config(edges=(edge,) * dim, cells=cells)
        # at the ends the solve converges and no bound sum overflows
        summary = run_verify(cfg).summary
        assert summary["fail"] == summary["marginal"] == 0
        with pytest.raises(ConfigError, match="domain.edges out of range"):
            tiny_verify_config(edges=(1.0,) * (dim - 1) + (outside,),
                               cells=cells).validate()


def config_text(cfg):
    """A config's echo as ``key = value`` lines; unset paths are left out."""
    lines = []
    for key, value in cfg.echo().items():
        if key == "mode" or value is None:
            continue
        if isinstance(value, list):
            value = ", ".join(str(v) for v in value)
        lines.append(f"{key} = {value}")
    return "\n".join(lines)


class TestConfigTable:
    def test_echo_round_trips_through_the_parser(self):
        default = RunConfig()
        changed = replace(
            default, edges=(2.0, 3.0, 1.5), alpha=0.75, cells=(6, 8, 4),
            m=20, tol=1e-9, seed=7, k_max=12, policy="fixed:1e-6",
            theta0=1.0, cap_kind="clamped", mode_max=3, radial_cells=48,
            spectrum_path="run.spec", output_path="out.json")
        for name, _ in CONFIG_KEYS.values():
            assert getattr(changed, name) != getattr(default, name), name
        for cfg in (default, changed):
            assert list(cfg.echo()) == ["mode", *CONFIG_KEYS]
            assert parse_config_text(config_text(cfg)) == cfg

    def test_readme_lists_the_keys_in_table_order(self):
        readme = Path(__file__).resolve().parents[1] / "README.md"
        blocks = readme.read_text(encoding="utf-8").split("```")[1::2]
        block = next(b for b in blocks if b.lstrip().startswith("domain."))
        keys = [line.split("=", 1)[0].strip()
                for line in block.splitlines() if "=" in line]
        assert keys == list(CONFIG_KEYS)


class TestSpectrumFiles:
    def test_round_trip(self, tmp_path):
        spec = Spectrum(2, 0.5, np.array([1.0, 2.5, 2.5, 7.0]),
                        source="computed",
                        residuals=np.array([1e-10] * 4), solver_tol=1e-8)
        path = tmp_path / "s.spec"
        write_spectrum(path, spec)
        back = read_spectrum(path)
        assert back.dim == 2 and back.alpha == 0.5
        assert np.array_equal(back.values, spec.values)
        assert np.array_equal(back.residuals, spec.residuals)
        assert back.source == "computed"

    def test_round_trip_without_residuals(self, tmp_path):
        spec = Spectrum(3, 0.0, np.array([1.0, 2.0]))
        path = tmp_path / "s.spec"
        write_spectrum(path, spec)
        back = read_spectrum(path)
        assert back.source == "synthetic"
        assert back.residuals is None

    @pytest.mark.parametrize("content,msg", [
        ("2 0.0\n", "header"),
        ("2 0.0 2\n1 1.0\n1 2.0\n", "index"),
        ("2 0.0 2\n1 2.0\n2 1.0\n", "non-decreasing"),
        ("2 0.0 2\n1 -1.0\n2 1.0\n", "positive"),
        ("2 0.0 1\n1 1.0 2.0 3.0 4.0\n", "expected"),
        ("2 0.0 2\n1 1.0\n2 abc\n", "line 3: could not convert"),
        ("2 0.0 2\n1.5 1.0\n2 2.0\n", "line 2: invalid literal"),
        ("2 0.0 -1\n", "count must be >= 1"),
        ("2 0 2\n1 1.0\n2 2.0\n3 0.5\n",
         "line 4: data past the declared count 2"),
        ("2 0 1000000000000\n1 1.0\n", "line 3: expected"),
        ("2 0 2\n1 inf\n2 inf\n", "positive and finite"),
        ("2 0 2\n1 1.0\n2 nan\n", "positive and finite"),
        ("2 nan 1\n1 1.0\n", "alpha must be finite"),
        ("2 0 1\n1 1.0 nan\n", "residuals must be finite"),
        ("2 0 1\n1 1.0 -1e-12\n", "residuals must be finite"),
        # the square's first 8 values times 1e153: their bound sums
        # overflow, and the report held inf
        ("2 0 8\n" + "".join(f"{i} {v}e153\n" for i, v in enumerate(
            (2, 2, 5, 5, 5, 5, 8, 8), 1)), "bound sums would overflow"),
    ])
    def test_malformed_rejected(self, tmp_path, content, msg):
        path = tmp_path / "bad.spec"
        path.write_text(content)
        with pytest.raises(SpectrumFileError, match=msg):
            read_spectrum(path)

    @pytest.mark.parametrize("content,line", [
        ("2 0 3\n1 2.0 1e-9\n2 2.0\n3 5.0 1e-9\n", 3),
        ("2 0 3\n1 2.0\n2 2.0\n3 5.0 1e-9\n", 4),
    ], ids=["missing_residual", "extra_residual"])
    def test_mixed_residual_columns_rejected(self, tmp_path, content, line):
        path = tmp_path / "s.spec"
        path.write_text(content)
        with pytest.raises(SpectrumFileError,
                           match=f"line {line}: column count differs"):
            read_spectrum(path)

    def test_trailing_blank_lines_accepted(self, tmp_path):
        path = tmp_path / "s.spec"
        path.write_text("2 0 2\n1 1.0\n2 2.0\n\n  \n")
        assert np.array_equal(read_spectrum(path).values, [1.0, 2.0])


class TestVerifyFlows:
    @pytest.mark.parametrize("edges,cells", [
        ((PI, PI), (16, 16)), ((PI, PI), (32, 32)),
        ((PI, 0.3 * PI), (32, 8)), ((PI, 2.0), (24, 16)),
        ((PI, PI, PI), (8, 8, 8)), ((PI, 2.0, 1.5), (8, 6, 6)),
    ], ids=["square16", "square32", "strip", "pi_by_2", "cube", "box3d"])
    def test_alpha0_extrapolation_within_its_budget(self, edges, cells):
        # each extrapolated σ_i against the closed form, within its
        # Richardson budget |σ_2N − σ_N|; the largest error/budget read
        # 0.0036, 0.0009, 0.0061, 0.0036, 0.0060 and 0.0103 on these boxes
        # in this order, so here each budget is 100–1000 times the error
        cfg = replace(RunConfig(mode="verify"), edges=edges, alpha=0.0,
                      cells=cells, m=16, k_max=15, tol=1e-10, seed=7)
        spectrum, rel = harness._richardson(cfg)
        exact = reference_spectrum_alpha0(edges, 16)
        assert np.all(np.abs(spectrum.values - exact)
                      <= rel * spectrum.values)

    def test_string_spectrum_all_pass(self, tmp_path):
        # sigma_i = i^2 is the 1D string spectrum (operator (1+a) d^2/dx^2),
        # scale-invariant under the bounds: every record must pass
        path = tmp_path / "string.spec"
        vals = [float(i * i) for i in range(1, 11)]
        write_spectrum(path, Spectrum(1, 0.5, np.array(vals)))
        cfg = replace(RunConfig(mode="verify"), spectrum_path=str(path),
                      k_max=8, policy="fixed")
        report = run_verify(cfg)
        assert report.summary["fail"] == 0
        assert report.summary["marginal"] == 0
        # brute-force cross-check of the quadratic inequality on this data
        for k in range(1, 9):
            d = np.array(vals)[k] - np.array(vals)[:k]
            lhs = np.sum(d ** 2)
            rhs = 4.0 * np.sum(d * np.array(vals)[:k])  # C(1, 0.5) = 4
            assert lhs <= rhs

    def test_file_spectrum_has_no_domain_record(self, tmp_path):
        # a spectrum file carries no domain: the run from it leaves out
        # levine_protter_sum, which the same spectrum computed on its box
        # gets, though both reports echo domain.edges
        cfg = replace(RunConfig(mode="verify"), cells=(8, 8), m=5, k_max=4,
                      policy="fixed")
        computed = run_verify(cfg)
        path = tmp_path / "box.spec"
        write_spectrum(path, Spectrum(2, 0.0, np.array(
            computed.spectrum["values"])))
        loaded = run_verify(replace(cfg, spectrum_path=str(path)))
        assert loaded.config["domain.edges"] == \
            computed.config["domain.edges"]
        names = {r.name for r in computed.records}
        assert "levine_protter_sum" in names
        assert {r.name for r in loaded.records} == \
            names - {"levine_protter_sum"}

    def test_corrupted_spectrum_fails_and_exits_nonzero(self, tmp_path):
        path = tmp_path / "bad.spec"
        write_spectrum(path, Spectrum(2, 0.0, np.array([1.0, 10.0])))
        cfg = replace(RunConfig(mode="verify"), spectrum_path=str(path),
                      k_max=1, policy="fixed")
        report = run_verify(cfg)
        failing = {r.name for r in report.records if r.verdict == "fail"}
        assert "next_upper" in failing
        assert report.exit_code() == 1

    def test_richardson_verify_end_to_end(self):
        report = run_verify(tiny_verify_config())
        assert report.summary["fail"] == 0
        assert report.spectrum["source"] == "computed"
        assert "richardson" in report.provenance["mesh"]

    def test_richardson_closer_than_fine(self):
        # extrapolated values beat the fine-mesh values against the oracle
        cfg = tiny_verify_config(cells=(12, 12), m=6)
        from elastica.assembly import ElasticityProblem
        from elastica.harness import solve_problem
        prob = ElasticityProblem(cfg.edges, 0.0, cfg.cells)
        coarse, _ = solve_problem(prob, cfg.m, cfg.tol, cfg.seed)
        fine, _ = solve_problem(prob.refined(), cfg.m, cfg.tol, cfg.seed)
        extrap = (4 * fine.values - coarse.values) / 3
        exact = reference_spectrum_alpha0(cfg.edges, cfg.m)
        assert np.all(np.abs(extrap - exact)
                      <= np.abs(fine.values - exact) + 1e-12)

    def test_fixed_policy_single_mesh(self):
        report = run_verify(tiny_verify_config(policy="fixed:1e-6"))
        assert report.summary["fail"] == 0

    def test_byte_identical_reports(self):
        a = run_verify(tiny_verify_config())
        b = run_verify(tiny_verify_config())
        assert render_csv([a]) == render_csv([b])
        assert a.to_json() == b.to_json()


class TestCapRuns:
    def test_hemisphere_values_within_their_budgets(self):
        # λ₁ = 2, p₁ = 4 and q₁ = 2 on the hemisphere; at 32 cells the
        # errors are 1e-4 to 1e-2 of their budgets
        report = run_cap(replace(RunConfig(mode="cap"), radial_cells=32))
        values = report.provenance["values"]
        budgets = report.provenance["budgets"]
        for kind, exact in (("dirichlet_laplacian", 2.0), ("p_problem", 4.0),
                            ("q_problem", 2.0)):
            assert abs(values[kind] - exact) <= budgets[kind], kind

    def test_hemisphere_records(self):
        cfg = replace(RunConfig(mode="cap"), radial_cells=48, mode_max=3)
        report = run_cap(cfg)
        names = {r.name: r for r in report.records}
        assert names["clamped_vs_n_lambda1"].verdict == "pass"
        assert names["buckling_vs_n"].verdict == "pass"
        assert names["p1_hemisphere"].verdict == "pass"
        assert names["q1_hemisphere"].verdict == "pass"
        assert names["lambda1_hemisphere"].verdict == "pass"
        assert names["p1_vs_n_lambda1"].verdict in ("pass", "marginal")
        assert report.summary["fail"] == 0

    def test_beyond_hemisphere_gating(self):
        cfg = replace(RunConfig(mode="cap"), radial_cells=48, mode_max=2,
                      theta0=2.2)
        report = run_cap(cfg)
        names = {r.name: r for r in report.records}
        assert names["p1_vs_n_lambda1"].verdict == "skip"
        assert "hypothesis" in names["p1_vs_n_lambda1"].note
        assert "exploratory" in names["clamped_vs_n_lambda1"].note
        assert not any(r.name.endswith("hemisphere") for r in report.records)

    def test_box_policy_leaves_cap_budgets(self):
        reports = [run_cap(replace(RunConfig(mode="cap"), radial_cells=16,
                                   mode_max=1, policy=policy))
                   for policy in ("richardson", "fixed", "fixed:1e-2")]
        for report in reports[1:]:
            assert report.records == reports[0].records
            assert report.provenance["budgets"] \
                == reports[0].provenance["budgets"]

    def test_single_kind_run(self):
        cfg = replace(RunConfig(mode="cap"), radial_cells=48, mode_max=2,
                      cap_kind="buckling")
        report = run_cap(cfg)
        names = [r.name for r in report.records]
        assert "buckling_vs_n" in names
        assert "clamped_vs_n_lambda1" not in names


# (cap kind, record, record kind) of the lower bounds, in report order,
# then (cap kind, record) of the hemisphere equalities
CAP_LOWER_LAYOUT = [
    ("clamped", "clamped_vs_n_lambda1", "cap_strict_lower"),
    ("buckling", "buckling_vs_n", "cap_strict_lower"),
    ("p_problem", "p1_vs_n_lambda1", "cap_lower"),
    ("q_problem", "q1_vs_n", "cap_lower"),
]
CAP_EQUALITY_LAYOUT = [
    ("dirichlet_laplacian", "lambda1_hemisphere"),
    ("p_problem", "p1_hemisphere"),
    ("q_problem", "q1_hemisphere"),
]


def expected_cap_layout(theta0, cap_kind):
    """(name, kind, note, skipped) of each record run_cap should write."""
    ran = {k for k, _, _ in CAP_LOWER_LAYOUT} if cap_kind == "all" \
        else {cap_kind}
    ran.add("dirichlet_laplacian")
    rows = []
    for kind, name, rec_kind in CAP_LOWER_LAYOUT:
        if kind not in ran:
            continue
        if theta0 <= PI / 2:
            rows.append((name, rec_kind, "", False))
        elif rec_kind == "cap_strict_lower":
            rows.append((name, rec_kind, "exploratory (no claim here)", False))
        else:
            rows.append((name, rec_kind, "hypothesis not satisfied: "
                         "boundary mean curvature < 0", True))
    if theta0 == PI / 2:
        rows += [(name, "cap_equality", "equality within slack", False)
                 for kind, name in CAP_EQUALITY_LAYOUT if kind in ran]
    return rows


class TestCapRecordLayout:
    @pytest.mark.parametrize("cap_kind", ["all", "dirichlet_laplacian",
                                          "clamped", "buckling", "p_problem",
                                          "q_problem"])
    @pytest.mark.parametrize("theta0", [1.0, PI / 2, 2.2],
                             ids=["1", "pi_2", "2.2"])
    def test_names_kinds_order_and_notes(self, theta0, cap_kind):
        cfg = replace(RunConfig(mode="cap"), theta0=theta0,
                      cap_kind=cap_kind, radial_cells=16, mode_max=1)
        if cap_kind == "dirichlet_laplacian" and theta0 != PI / 2:
            # λ₁ alone feeds only the hemisphere equality: a run that
            # would judge nothing is refused, naming both keys
            with pytest.raises(ConfigError, match=r"cap\.kind = dirichlet_"
                               r"laplacian judges nothing at cap\.theta0"):
                run_cap(cfg)
            return
        records = run_cap(cfg).records
        want = expected_cap_layout(theta0, cap_kind)
        assert [(r.name, r.kind, r.k, r.verdict == "skip") for r in records] \
            == [(name, kind, 1, skip) for name, kind, _, skip in want]
        for rec, (_, _, note, _) in zip(records, want):
            # an equality note goes on to print its band
            assert rec.note.startswith(note) if rec.kind == "cap_equality" \
                else rec.note == note


class TestReports:
    def test_json_round_trip(self, tmp_path):
        report = run_verify(tiny_verify_config())
        path = tmp_path / "r.json"
        save_report(report, path)
        back = load_report(path)
        assert render_csv([back]) == render_csv([report])
        assert back.summary == report.summary

    def test_skip_records_written_as_strict_json(self, tmp_path):
        # α = 0 has double eigenvalues, so some ratio records are skips
        report = run_verify(tiny_verify_config())
        skips = [r for r in report.records if r.verdict == "skip"]
        assert skips and all(np.isnan(r.slack) for r in skips)

        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        payload = json.loads(report.to_json(), parse_constant=reject)
        written = [r for r in payload["records"] if r["verdict"] == "skip"]
        assert all(r["bound_value"] is r["measured_value"] is r["slack"]
                   is None for r in written)
        path = tmp_path / "r.json"
        save_report(report, path)
        back = load_report(path)
        assert all(np.isnan(r.slack) for r in back.records
                   if r.verdict == "skip")
        assert render_table([back]) == render_table([report])

    def test_records_hold_no_dict(self, tmp_path):
        # records are slotted, and serialising them reads their fields by
        # name, so no record of a kept report carries a dict of its own
        report = run_verify(tiny_verify_config())
        text = report.to_json()
        save_report(report, tmp_path / "r.json")
        assert not any(hasattr(r, "__dict__") for r in report.records)
        rec = report.records[0]
        assert replace(rec, verdict="fail") == BoundRecord(
            *astuple(rec)[:6], "fail", rec.note)
        assert copy.deepcopy(rec) == rec
        back = VerificationReport.from_json(text)
        # astuple: a skip record's NaNs compare equal only by value
        np.testing.assert_equal([astuple(r) for r in back.records],
                                [astuple(r) for r in report.records])
        assert back.to_json() == text

    def test_summary_tamper_detected(self, tmp_path):
        report = run_verify(tiny_verify_config())
        payload = json.loads(report.to_json())
        payload["summary"]["pass"] += 1
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        from elastica.report import ReportFormatError
        with pytest.raises(ReportFormatError, match="tally"):
            load_report(path)

    def test_schema_mismatch_named(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text(json.dumps({"config": {}, "records": [
            {"name": "x", "unexpected_field": 1}], "summary": {},
            "provenance": {}}))
        from elastica.report import ReportFormatError
        with pytest.raises(ReportFormatError, match="record"):
            load_report(path)

    @pytest.mark.parametrize("change", [
        None, {"verdict": "bogus"}, {"name": 3}, {"kind": None},
        {"note": ["x"]}, {"k": 1.5}, {"k": True}, {"slack": "abc"},
        {"measured_value": False}, {"bound_value": [1.0]},
    ], ids=["not_an_object", "unknown_verdict", "numeric_name", "null_kind",
            "list_note", "float_k", "bool_k", "string_slack", "bool_value",
            "list_value"])
    def test_malformed_record_exits_one(self, change, capsys, tmp_path):
        record = {"name": "x", "kind": "gap", "k": 1, "bound_value": 2.0,
                  "measured_value": 1, "slack": 1.0, "verdict": "pass",
                  "note": ""}
        payload = {"config": {}, "records": [record], "provenance": {},
                   "summary": {"pass": 1, "marginal": 0, "fail": 0,
                               "skip": 0}}
        path = tmp_path / "r.json"
        path.write_text(json.dumps(payload))
        assert cli.main(["report", str(path)]) == 0  # well formed as written
        payload["records"] = [1, 2] if change is None else [{**record,
                                                             **change}]
        path.write_text(json.dumps(payload))
        capsys.readouterr()
        assert cli.main(["report", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("payload", [
        1, "config records summary provenance",
        {"config": {}, "records": 5, "summary": {}, "provenance": {}},
    ], ids=["number", "string_naming_the_fields", "numeric_records"])
    def test_malformed_top_level_exits_one(self, payload, capsys, tmp_path):
        path = tmp_path / "r.json"
        path.write_text(json.dumps(payload))
        assert cli.main(["report", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error: report ")

    @pytest.mark.parametrize("section,change", [
        ("spectrum", {"alpha": "abc"}), ("provenance", {"theta0": [1.0]}),
        ("provenance", {"mesh": 32}), ("provenance", None),
        ("spectrum", [1.0])], ids=["string_alpha", "list_theta0",
                                   "numeric_mesh", "null_provenance",
                                   "list_spectrum"])
    def test_malformed_label_field_exits_one(self, section, change, capsys,
                                             tmp_path):
        # the table labels each report by these fields; a loaded report
        # that cannot be labelled is refused before anything is rendered
        good, bad = tmp_path / "good.json", tmp_path / "bad.json"
        save_report(VerificationReport(
            {}, [], spectrum={"alpha": 2.0},
            provenance={"theta0": 1.0, "mesh": "32x32"}), good)
        payload = json.loads(good.read_text())
        payload[section] = change if not isinstance(change, dict) \
            else {**payload[section], **change}
        bad.write_text(json.dumps(payload))
        table = ["--table", str(tmp_path / "t.txt")]
        assert cli.main(["report", str(good), str(good), *table]) == 0
        capsys.readouterr()
        assert cli.main(["report", str(bad), str(good), *table]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_csv_shape(self):
        report = run_verify(tiny_verify_config())
        csv = render_csv([report])
        lines = csv.strip().splitlines()
        assert lines[0] == "name,k,bound,measured,slack,verdict"
        assert len(lines) == len(report.records) + 1

    def test_empty_records_csv(self):
        assert render_csv([]) == "name,k,bound,measured,slack,verdict\n"
        assert render_csv([VerificationReport({}, [])]) == render_csv([])

    def test_table_merges_runs(self):
        a = run_verify(tiny_verify_config(alpha=0.0))
        b = run_verify(tiny_verify_config(alpha=0.5))
        table = render_table([a, b])
        assert "alpha=0.5" in table
        assert table.count("next_upper") >= 8

    def test_svg_output(self):
        report = run_verify(tiny_verify_config())
        svg = render_svg("next_upper", svg_series_for(report, "next_upper"))
        assert svg.startswith("<svg")
        assert "polyline" in svg

    def test_exit_code_ladder(self):

        def rec(verdict):
            return BoundRecord("x", "gap", 1, 1.0, 1.0, 0.0, verdict)

        assert VerificationReport({}, [rec("pass"), rec("skip")]) \
            .exit_code() == 0
        assert VerificationReport({}, [rec("pass"), rec("marginal")]) \
            .exit_code() == 2
        assert VerificationReport({}, [rec("marginal"), rec("fail")]) \
            .exit_code() == 1

    def test_label_names_the_spectrum_alpha(self, tmp_path):
        # a run from an α = 2 file echoes the default domain.alpha = 0
        path = tmp_path / "string.spec"
        write_spectrum(path, Spectrum(1, 2.0, np.arange(1.0, 8.0) ** 2))
        report = run_verify(replace(RunConfig(mode="verify"),
                                    spectrum_path=str(path), k_max=4,
                                    policy="fixed"))
        assert report.config["domain.alpha"] == 0.0
        assert report.label() == "alpha=2 file:string.spec"
        save_report(report, tmp_path / "r.json")
        assert load_report(tmp_path / "r.json").label() == report.label()


class TestCLI:
    def test_solve_bounds_pipeline(self, tmp_path):
        spec_path = tmp_path / "run.spec"
        code = cli.main(["solve", "--set", "mesh.cells=10,10",
                         "--set", "solver.m=5", "--set", "solver.seed=4",
                         "--output", str(spec_path)])
        assert code == 0 and spec_path.exists()
        code = cli.main(["verify", "--set", f"spectrum.path={spec_path}",
                         "--set", "verify.k_max=4",
                         "--set", "verify.policy=fixed:1e-4"])
        assert code == 0

    def test_verify_writes_report(self, tmp_path):
        out = tmp_path / "rep.json"
        code = cli.main(["verify", "--set", "mesh.cells=10,10",
                         "--set", "solver.m=5", "--set", "verify.k_max=4",
                         "--output", str(out)])
        assert code == 0
        report = load_report(out)
        assert report.summary["fail"] == 0

    def test_cap_writes_report(self, tmp_path):
        # the saved report reads back equal to the one run_cap returns for
        # the same config (saving it again leaves the file's bytes as they
        # were), and `elastica report` exits with the cap run's code
        out = tmp_path / "cap.json"
        code = cli.main(["cap", "--set", "cap.cells=16", "--set",
                         "cap.mode_max=1", "--output", str(out)])
        text = out.read_text(encoding="ascii")
        report = run_cap(replace(RunConfig(mode="cap"), radial_cells=16,
                                 mode_max=1, output_path=str(out)))
        assert out.read_text(encoding="ascii") == text
        assert load_report(out) == report
        assert code == report.exit_code()
        assert cli.main(["report", str(out), "--table",
                         str(tmp_path / "t.txt")]) == code

    def test_solve_without_output_prints_the_spectrum(self, tmp_path,
                                                      capsys):
        # stdout carries, byte for byte, the spectrum file that --output
        # writes for the same config, and `verify` reads it back
        argv = ["solve", "--set", "mesh.cells=6,6", "--set", "solver.m=5",
                "--set", "domain.alpha=2"]
        assert cli.main(argv) == 0
        printed = capsys.readouterr()
        assert printed.err.rstrip().endswith("-> <stdout>")
        path = tmp_path / "s.spec"
        assert cli.main(argv + ["--output", str(path)]) == 0
        assert capsys.readouterr().out == ""
        assert printed.out == path.read_text(encoding="ascii")
        piped = tmp_path / "piped.spec"
        piped.write_text(printed.out, encoding="ascii")
        assert cli.main(["verify", "--set", f"spectrum.path={piped}",
                         "--set", "verify.k_max=4"]) == 0
        assert capsys.readouterr().out.startswith("verify: pass=")

    def test_chart_of_a_record_skipped_at_every_k(self, tmp_path):
        # past the equator (θ₀ = 2.2) the boundary's mean curvature is
        # negative, so the cap's lower-sense records are skipped: a chart
        # with no finite point still parses and names its record
        out = tmp_path / "cap.json"
        cli.main(["cap", "--set", "cap.theta0=2.2", "--set", "cap.cells=16",
                  "--set", "cap.mode_max=1", "--output", str(out)])
        records = load_report(out).records
        skipped = {r.name for r in records} - {
            r.name for r in records if r.verdict != "skip"}
        assert skipped
        svg_dir = tmp_path / "plots"
        assert cli.main(["report", str(out), "--table",
                         str(tmp_path / "t.txt"), "--svg-dir",
                         str(svg_dir)]) == load_report(out).exit_code()
        for name in skipped:
            chart, = svg_dir.glob(f"*_{name}.svg")
            root = ElementTree.parse(chart).getroot()
            text = " ".join(root.itertext())
            assert name in text and "no finite data" in text

    def test_report_rendering(self, tmp_path):
        rep_path = tmp_path / "rep.json"
        cli.main(["verify", "--set", "mesh.cells=10,10", "--set",
                  "solver.m=5", "--set", "verify.k_max=4", "--output",
                  str(rep_path)])
        csv_path = tmp_path / "out.csv"
        table_path = tmp_path / "table.txt"
        svg_dir = tmp_path / "plots"
        code = cli.main(["report", str(rep_path), "--csv", str(csv_path),
                         "--table", str(table_path), "--svg-dir",
                         str(svg_dir)])
        assert code == 0
        assert csv_path.read_text().startswith("name,k,bound")
        assert "verdict" in table_path.read_text()
        assert any(p.suffix == ".svg" for p in svg_dir.iterdir())

    def test_report_exit_code_over_reports(self, tmp_path):
        # one fail outranks any number of marginals, in either order
        paths = []
        for verdict in ("fail", "marginal", "pass"):
            paths.append(str(tmp_path / f"{verdict}.json"))
            save_report(VerificationReport({}, [BoundRecord(
                "x", "gap", 1, 1.0, 1.0, 0.0, verdict)]), paths[-1])
        table = ["--table", str(tmp_path / "t.txt")]
        assert cli.main(["report", *paths, *table]) == 1
        assert cli.main(["report", *paths[::-1], *table]) == 1
        assert cli.main(["report", *paths[1:], *table]) == 2
        assert cli.main(["report", paths[2], *table]) == 0

    def test_report_charts_each_cap_angle(self, tmp_path):
        paths = []
        for theta0 in (PI / 3, PI / 2):
            paths.append(str(tmp_path / f"cap{len(paths)}.json"))
            save_report(run_cap(replace(RunConfig(mode="cap"), theta0=theta0,
                                        radial_cells=16, mode_max=1)),
                        paths[-1])
        reports = [load_report(p) for p in paths]
        assert [r.label() for r in reports] == [
            "theta0=1.0472 radial(16,32)", "theta0=1.5708 radial(16,32)"]
        svg_dir = tmp_path / "plots"
        cli.main(["report", *paths, "--table", str(tmp_path / "t.txt"),
                  "--svg-dir", str(svg_dir)])
        # 4 records at pi/3, 7 on the hemisphere: one chart each
        assert sum(len(r.records) for r in reports) == 11
        assert len(list(svg_dir.glob("*.svg"))) == 11

    def test_report_charts_each_report_sharing_a_label(self, tmp_path):
        # two 8×8 α = 2 runs that differ only in their seed share a label:
        # each gets its own charts, numbered in argument order, while a
        # label of its own keeps the plain <label>_<record>.svg name
        paths = []
        for seed in (1, 2, 3):
            paths.append(str(tmp_path / f"seed{seed}.json"))
            alpha = 0.5 if seed == 3 else 2.0
            save_report(run_verify(tiny_verify_config(
                cells=(8, 8), alpha=alpha, seed=seed)), paths[-1])
        reports = [load_report(p) for p in paths]
        names = [sorted({r.name for r in rep.records}) for rep in reports]
        svg_dir = tmp_path / "plots"
        cli.main(["report", *paths, "--table", str(tmp_path / "t.txt"),
                  "--svg-dir", str(svg_dir)])
        stems = ["alpha2_richardson(8x8,16x16)-1",
                 "alpha2_richardson(8x8,16x16)-2",
                 "alpha0.5_richardson(8x8,16x16)"]
        assert sorted(p.name for p in svg_dir.glob("*.svg")) == sorted(
            f"{stem}_{name}.svg" for stem, run in zip(stems, names)
            for name in run)
        chart = (svg_dir / f"{stems[1]}_{names[1][0]}.svg").read_text()
        assert chart == render_svg(
            f"{names[1][0]} ({reports[1].label()})",
            svg_series_for(reports[1], names[1][0]))

    def test_merged_csv_names_each_run(self, tmp_path):
        # a merged CSV leads with the report's label, quoted where it holds
        # a comma; the CSV of one report has no run column
        one = run_verify(tiny_verify_config(cells=(8, 8), policy="fixed"))
        two = run_verify(tiny_verify_config(cells=(8, 8), alpha=2.0))
        paths = [str(tmp_path / "one.json"), str(tmp_path / "two.json")]
        save_report(one, paths[0])
        save_report(two, paths[1])
        table = ["--table", str(tmp_path / "t.txt")]
        single, merged = tmp_path / "single.csv", tmp_path / "merged.csv"
        cli.main(["report", paths[0], "--csv", str(single), *table])
        assert single.read_text() == render_csv([one])
        cli.main(["report", *paths, "--csv", str(merged), *table])
        lines = merged.read_text().splitlines()
        assert lines[0] == "run,name,k,bound,measured,slack,verdict"
        assert two.label() == "alpha=2 richardson(8x8,16x16)"
        body = (render_csv([one]).splitlines()[1:]
                + render_csv([two]).splitlines()[1:])
        runs = (["alpha=0 8x8"] * len(one.records)
                + ['"alpha=2 richardson(8x8,16x16)"'] * len(two.records))
        assert lines[1:] == [f"{run},{row}" for run, row in zip(runs, body)]

    def test_report_charts_stay_in_svg_dir(self, tmp_path):
        # label and record names come from the report file: their path
        # separators must not lead a chart out of --svg-dir
        rep_path = tmp_path / "rep.json"
        save_report(VerificationReport({}, [BoundRecord(
            "../up", "gap", 1, 1.0, 1.0, 0.0, "pass")],
            provenance={"mesh": "../../outside"}), rep_path)
        svg_dir = tmp_path / "a" / "b" / "plots"
        assert cli.main(["report", str(rep_path), "--table",
                         str(tmp_path / "t.txt"), "--svg-dir",
                         str(svg_dir)]) == 0
        charts = list(tmp_path.rglob("*.svg"))
        assert [p.parent for p in charts] == [svg_dir]
        assert charts[0].name == ".._.._outside_.._up.svg"

    def test_report_quotes_and_escapes_names(self, tmp_path):
        # a comma in a name stays one CSV field; < and & stay SVG text
        rep_path = tmp_path / "rep.json"
        save_report(VerificationReport({}, [BoundRecord(
            "x,y", "gap", 1, 1.0, 1.0, 0.0, "pass"), BoundRecord(
            "a<b&c", "gap", 1, 1.0, 1.0, 0.0, "pass")],
            provenance={"mesh": "m<1&2"}), rep_path)
        csv_path, svg_dir = tmp_path / "out.csv", tmp_path / "plots"
        assert cli.main(["report", str(rep_path), "--csv", str(csv_path),
                         "--table", str(tmp_path / "t.txt"), "--svg-dir",
                         str(svg_dir)]) == 0
        with open(csv_path, newline="", encoding="ascii") as fh:
            rows = list(csv.reader(fh))
        assert [row[0] for row in rows] == ["name", "x,y", "a<b&c"]
        assert {len(row) for row in rows} == {6}
        titles = {ElementTree.fromstring(p.read_text()).find(
            "{http://www.w3.org/2000/svg}text").text
            for p in svg_dir.glob("*.svg")}
        assert titles == {"x,y (m<1&2)", "a<b&c (m<1&2)"}
        legend = ElementTree.fromstring(render_svg(
            "t", {"<bound> & co": ([1, 2], [1.0, 2.0])}))
        assert legend[-1].text == "<bound> & co"

    def test_negative_richardson_value_is_a_config_error(self, capsys):
        # Q1 locking on a 6×6 mesh at α = 1000 drives (4·fine − coarse)/3
        # below zero; α = 300 on the same mesh still extrapolates
        argv = ["verify", "--set", "mesh.cells=6,6", "--set", "solver.m=4",
                "--set", "verify.k_max=3"]
        assert cli.main([*argv, "--set", "domain.alpha=1000"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: Richardson extrapolation of sigma_4 "
                              "from the 6x6,12x12 meshes at alpha = 1000")
        assert cli.main([*argv, "--set", "domain.alpha=300"]) == 0
        assert capsys.readouterr().out.startswith("verify: pass=27 ")

    @pytest.mark.parametrize("argv,message", [
        (["verify", "--bogus"], "unrecognized arguments: --bogus"),
        (["nope"], "invalid choice: 'nope'"),
        (["report"], "the following arguments are required: reports"),
        # spectrum files are read by `verify --set spectrum.path=…`
        (["bounds", "--set", "spectrum.path=run.spec"],
         "invalid choice: 'bounds'"),
    ], ids=["unknown_flag", "unknown_subcommand", "report_without_file",
            "bounds_subcommand"])
    def test_usage_error_exits_one(self, argv, message, capsys):
        # 2 is the exit status of a marginal record, not of a typo
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: elastica") and message in err

    def test_help_exits_zero(self, capsys):
        assert cli.main(["--help"]) == 0
        assert "{solve,verify,cap,report}" in capsys.readouterr().out

    def test_set_output_path_keeps_a_hash(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert cli.main(["verify", "--set", "mesh.cells=6,6", "--set",
                         "solver.m=4", "--set", "verify.k_max=3", "--set",
                         "output.path=run#1.json"]) == 0
        assert [p.name for p in tmp_path.iterdir()] == ["run#1.json"]

    @pytest.mark.parametrize("content,argv,message", [
        (b"2 0 2\n1 1.0\n2 2.0 \xc3\xa9\n",
         ["verify", "--set", "spectrum.path={path}", "--set",
          "verify.k_max=1"], "not ASCII text"),
        (b'{"config": {"caf\xc3\xa9": 1}}', ["report", "{path}"],
         "not ASCII text"),
        (b"solver.m = 5\xff\n", ["verify", "--config", "{path}"],
         "not UTF-8 text"),
        # JSON escapes make the file ASCII, the record name is not
        (VerificationReport({}, [BoundRecord(
            "\u03c3", "gap", 1, 1.0, 1.0, 0.0, "pass")]).to_json().encode(),
         ["report", "{path}", "--csv", "{out}"], "bad name in record"),
    ], ids=["spectrum_file", "report_file", "config_file", "record_name"])
    def test_non_ascii_input_exits_one(self, tmp_path, capsys, content, argv,
                                       message):
        path, out = tmp_path / "input", tmp_path / "out.csv"
        path.write_bytes(content)
        assert cli.main([a.format(path=path, out=out) for a in argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not out.exists()

    def test_report_escapes_a_non_ascii_spectrum_file_name(self, tmp_path):
        # the file's name reaches the label through the mesh; the merged
        # CSV, the table and the charts stay ASCII
        spec, rep = tmp_path / "\u03c3.spec", str(tmp_path / "r.json")
        write_spectrum(spec, Spectrum(2, 0.0, np.array([2.0, 5.0, 5.0])))
        assert cli.main(["verify", "--set", f"spectrum.path={spec}", "--set",
                         "verify.k_max=2", "--output", rep]) == 0
        assert load_report(rep).label() == "alpha=0 file:\\u03c3.spec"
        assert cli.main(["report", rep, rep, "--csv", str(tmp_path / "m.csv"),
                         "--table", str(tmp_path / "t.txt"), "--svg-dir",
                         str(tmp_path / "plots")]) == 0
        assert len(list((tmp_path / "plots").glob("*.svg"))) == 2 * len(
            {r.name for r in load_report(rep).records})

    def test_unknown_key_exits_one(self, capsys):
        assert cli.main(["verify", "--set", "solver.bogus=1"]) == 1
        assert "unknown key" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,message", [
        (["verify", "--set", "mesh.cells=1,1"], "at least 2 cells"),
        (["cap", "--set", "cap.cells=8"], "16 radial cells"),
        # sizes past the limits are refused before anything is allocated
        (["cap", "--set", "cap.mode_max=1000000000000", "--set",
          "cap.cells=16"], "cap.mode_max out of range: at most 1024"),
        (["cap", "--set", "cap.mode_max=1025"], "cap.mode_max out of range"),
        (["cap", "--set", "cap.cells=100000000000"],
         "cap.cells out of range: at most 4096"),
        (["cap", "--set", "cap.cells=4097"], "cap.cells out of range"),
        (["solve", "--set", "mesh.cells=4,100000000000", "--set",
          "solver.m=2"], "mesh.cells out of range"),
        (["verify", "--set", "mesh.cells=1025,2"],
         "at most 1024 per axis"),
        (["solve", "--set", "domain.edges=1,1,1", "--set",
          "mesh.cells=129,129,129"],
         "and 2097152 unknowns, got 129x129x129"),
        (["solve", "--set", "solver.seed=-1"], "solver.seed"),
        (["verify", "--set", "solver.m=4", "--set", "verify.k_max=10"],
         "solver.m >= 11"),
        # no output.format: a run saves JSON, `elastica report` renders it
        (["verify", "--set", "output.format=spectrum"],
         "unknown key 'output.format'"),
        (["solve", "--set", "mesh.cells=4,4", "--set", "solver.m=8",
          "--set", "verify.k_max=4"], "exceeds order/4 = 4 of the 4x4"),
        (["verify", "--set", "mesh.cells=4,4", "--set", "solver.m=8",
          "--set", "verify.k_max=4"], "exceeds order/4 = 4 of the 4x4"),
        (["verify", "--set", "domain.alpha=nan", "--set", "mesh.cells=6,6",
          "--set", "solver.m=5", "--set", "verify.k_max=4"],
         "alpha must be finite"),
        (["solve", "--set", "domain.edges=inf,1"], "positive and finite"),
        (["solve", "--set", "domain.edges=nan,1"], "positive and finite"),
        (["cap", "--set", "cap.theta0=pi/0"], "zero denominator"),
        # thinner cells overflow the cap pencils and their round-off budget
        *[(["cap", "--set", f"cap.theta0={theta0}", "--set", "cap.cells=16",
            "--set", "cap.mode_max=1"], "is below 1e-30")
          for theta0 in ("1e-77", "1e-60", "1e-40")],
        # runs from a spectrum file solve nothing but still echo the domain
        (["verify", "--set", "spectrum.path={spec}", "--set",
          "verify.k_max=2", "--set", "domain.alpha=nan", "--output",
          "{out}"], "domain.alpha must be finite"),
        (["verify", "--set", "spectrum.path={spec}", "--set",
          "verify.k_max=2", "--set", "domain.edges=-1,0", "--output",
          "{out}"], "domain.edges must be positive and finite"),
        (["verify", "--set", "spectrum.path={spec}", "--set",
          "verify.k_max=2", "--set", "domain.alpha=-3", "--output",
          "{out}"], "domain.alpha must be finite"),
        (["verify", "--set", "spectrum.path={spec}", "--set",
          "verify.k_max=2", "--set", "cap.theta0=inf", "--output",
          "{out}"], "cap.theta0 must be finite"),
        # every report echoes the policy, so its eps is checked in every
        # mode: it must parse, be finite and be non-negative
        (["verify", "--set", "mesh.cells=6,6", "--set", "solver.m=5",
          "--set", "verify.k_max=4", "--set", "verify.policy=fixed:1e"],
         "verify.policy"),
        (["verify", "--set", "spectrum.path={spec}", "--set",
          "verify.k_max=2", "--set", "verify.policy=fixed:1e400",
          "--output", "{out}"], "verify.policy"),
        (["verify", "--set", "spectrum.path={spec}", "--set",
          "verify.k_max=2", "--set", "verify.policy=fixed:-1", "--output",
          "{out}"], "verify.policy"),
        (["cap", "--set", "cap.kind=navier"], "cap.kind must be one of"),
        (["verify", "--set", "verify.k_max=0"],
         "verify.k_max out of range [1, 10000]"),
        (["verify", "--set", "verify.k_max=10001"],
         "verify.k_max out of range [1, 10000]"),
        (["solve", "--set", "solver.m=0"], "solver.m out of range [1, 10000]"),
        (["solve", "--set", "solver.tol=0"], "solver.tol out of range"),
        (["solve", "--set", "solver.tol=0.1"], "solver.tol out of range"),
        (["verify", "--set", "spectrum.path={spec}.missing", "--set",
          "verify.k_max=2", "--output", "{out}"], "spectrum file not found"),
        (["solve", "--set", "mesh.cells=4,4,4"],
         "mesh.cells must list one resolution per direction of "
         "domain.edges: 3 for 2"),
    ], ids=["mesh_cells", "cap_cells", "cap_mode_max_huge",
            "cap_mode_max_limit", "cap_cells_huge", "cap_cells_limit",
            "mesh_cells_huge", "mesh_axis_limit", "mesh_order_limit",
            "negative_seed", "m_below_k_max",
            "spectrum_format", "solve_m_above_order", "verify_m_above_order",
            "nan_alpha", "infinite_edge", "nan_edge", "angle_over_zero",
            "cap_angle_1e-77", "cap_angle_1e-60", "cap_angle_1e-40",
            "bounds_nan_alpha", "bounds_bad_edges",
            "verify_file_negative_alpha", "bounds_infinite_theta0",
            "policy_eps_not_a_number", "policy_eps_infinite",
            "policy_eps_negative", "unknown_cap_kind", "k_max_zero",
            "k_max_limit", "m_zero", "tol_zero", "tol_above_limit",
            "missing_spectrum_file", "cells_per_edge"])
    def test_bad_config_exits_one(self, argv, message, capsys, tmp_path):
        spec, out = tmp_path / "ok.spec", tmp_path / "r.json"
        write_spectrum(spec, Spectrum(2, 0.0, np.array([2.0, 5.0, 8.0])))
        argv = [a.format(spec=spec, out=out) for a in argv]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert len(err.splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("scale,message", [
        (0.0, "subspace collapsed"),
        (np.inf, "Rayleigh-Ritz projection failed"),
    ], ids=["collapsed_subspace", "non_finite_projection"])
    def test_solver_breakdown_exits_one(self, scale, message, capsys,
                                        monkeypatch):
        # a zero or non-finite mass matrix breaks the radial pencils down
        # inside the banded solver; the breakdown is reported like an
        # unconverged solve, naming the first pencil with W as its metric
        elements = cap1d._element_matrices

        def scaled(*args):
            forms = elements(*args)
            return {**forms, "W": forms["W"] * scale}

        monkeypatch.setattr(cap1d, "_element_matrices", scaled)
        with np.errstate(over="ignore", invalid="ignore"):
            code = cli.main(["cap", "--set", "cap.cells=16",
                             "--set", "cap.mode_max=1"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("solver error: cap dirichlet_laplacian, "
                              "mode 0, 16 cells: ") and message in err

    def test_factorization_error_names_the_kinds_sharing_the_factor(
            self, capsys):
        # at θ₀ = 1e-10 the 512-cell clamped S of mode 0 rounds to an
        # indefinite matrix; its one factor serves clamped and buckling
        code = cli.main(["cap", "--set", "cap.theta0=1e-10",
                         "--set", "cap.cells=256", "--set", "cap.mode_max=0"])
        assert code == 1
        assert capsys.readouterr().err == (
            "solver error: cap clamped/buckling, mode 0, 512 cells: "
            "non-positive pivot -5.341e+02 at index 650\n")

    @pytest.mark.parametrize("content,k_max,message", [
        ("2 0 2\n1 1.0\n2 abc\n", 1, "line 3"),
        ("2 0 3\n1 1.0\n2 2.0\n3 3.0\n", 5, "verify.k_max = 5"),
        ("2 0 2\n1 1.0\n2 2.0\n3 0.5\n", 1, "line 4"),
        ("2 0 1000000000000\n1 1.0\n", 1, "line 3"),
        ("2 0 2\n1 inf\n2 inf\n", 1, "positive and finite"),
        ("2 0 3\n1 2.0 1e-9\n2 2.0\n3 5.0 1e-9\n", 2, "line 3"),
    ], ids=["non_numeric_value", "k_max_beyond_file", "data_past_count",
            "huge_count", "infinite_values", "mixed_residual_columns"])
    def test_bad_spectrum_file_exits_one(self, tmp_path, capsys, content,
                                         k_max, message):
        path = tmp_path / "in.spec"
        path.write_text(content)
        assert cli.main(["verify", "--set", f"spectrum.path={path}",
                         "--set", f"verify.k_max={k_max}"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

    def test_corrupt_spectrum_exit_code(self, tmp_path):
        path = tmp_path / "bad.spec"
        write_spectrum(path, Spectrum(2, 0.0, np.array([1.0, 10.0])))
        code = cli.main(["verify", "--set", f"spectrum.path={path}",
                         "--set", "verify.k_max=1"])
        assert code == 1

    def test_solve_at_the_m_limit_of_a_symmetric_box(self, tmp_path):
        # solver.m = 4 is order/4 of the 4x4-cell square (order 18), which
        # the solve reduces to order 13 on one class of each orbit
        from elastica.assembly import ElasticityProblem, assemble
        from conftest import dense_generalized_eigs
        path = tmp_path / "s.spec"
        code = cli.main(["solve", "--set", "mesh.cells=4,4", "--set",
                         "solver.m=4", "--set", "domain.alpha=1",
                         "--output", str(path)])
        assert code == 0
        K, M, _ = assemble(ElasticityProblem((PI, PI), 1.0, (4, 4)))
        ref = dense_generalized_eigs(K, M)[:4]
        values = read_spectrum(path).values
        assert np.all(np.abs(values - ref) <= 1e-10 * ref)

    def test_dump_matrices_round_trip(self, tmp_path):
        dump = tmp_path / "mats"
        code = cli.main(["solve", "--set", "mesh.cells=8,8",
                         "--set", "solver.m=4",
                         "--set", "domain.alpha=1.0",
                         "--output", str(tmp_path / "s.spec"),
                         "--dump-matrices", str(dump)])
        assert code == 0
        from elastica.sparse import read_matrix_market
        K = read_matrix_market(dump / "K.mtx")
        assert K.order == 2 * 49
        dense = to_dense(K)
        assert np.array_equal(dense, dense.T)

    def test_dump_round_trip_mismatch_exits_one(self, tmp_path,
                                                monkeypatch, capsys):
        # a read-back with the assembled values but two column indices of
        # row 0 swapped is a failed round-trip, reported in one line
        read = harness.read_matrix_market

        def permuted(path):
            mat = read(path)
            indices = mat.indices.copy()
            indices[:2] = indices[1::-1]
            return replace(mat, indices=indices)

        monkeypatch.setattr(harness, "read_matrix_market", permuted)
        out = tmp_path / "s.spec"
        assert cli.main(["solve", "--set", "mesh.cells=6,6", "--set",
                         "solver.m=5", "--output", str(out),
                         "--dump-matrices", str(tmp_path / "mats")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: matrix dump round-trip failed: ")
        assert err.rstrip().endswith("other than the assembled K")
        assert len(err.splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("dump,calls", [(True, 1), (False, 0)],
                             ids=["dump", "no_dump"])
    def test_solve_assembles_only_for_the_dump(self, tmp_path, monkeypatch,
                                               dump, calls):
        seen = []
        original = harness.assemble

        def counting(problem):
            seen.append(problem)
            return original(problem)

        monkeypatch.setattr(harness, "assemble", counting)
        argv = ["solve", "--set", "mesh.cells=6,6", "--set", "solver.m=5",
                "--output", str(tmp_path / "s.spec")]
        if dump:
            argv += ["--dump-matrices", str(tmp_path / "mats")]
        assert cli.main(argv) == 0
        assert len(seen) == calls

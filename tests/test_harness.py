"""Harness tests: configs, spectrum files, verification flows, CLI, reports."""

import json
import math
import os
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from elastica import cli, harness
from elastica.assembly import reference_spectrum_alpha0
from elastica.bounds import Spectrum
from elastica.harness import (CONFIG_KEYS, ConfigError, RunConfig,
                              SpectrumFileError, apply_overrides, load_config,
                              parse_config_text, read_spectrum, run_cap,
                              run_solve, run_verify, run_verify_sweep,
                              worker_count, write_spectrum)
from elastica.report import (VerificationReport, load_report, render_csv,
                             render_svg, render_table, save_report,
                             svg_series_for)

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
        output.format = json
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

    def test_angle_forms(self):
        cfg = apply_overrides(RunConfig(), ["cap.theta0=pi/2"])
        assert cfg.theta0 == pytest.approx(PI / 2, rel=1e-15)
        cfg = apply_overrides(RunConfig(), ["cap.theta0=2pi/3"])
        assert cfg.theta0 == pytest.approx(2 * PI / 3, rel=1e-15)
        cfg = apply_overrides(RunConfig(), ["cap.theta0=1.25"])
        assert cfg.theta0 == 1.25

    def test_policy_forms(self):
        assert tiny_verify_config(policy="fixed:1e-7").validate() \
            .fixed_tolerance() == 1e-7
        assert tiny_verify_config(policy="fixed").validate() \
            .fixed_tolerance() == 1e-9
        with pytest.raises(ConfigError):
            tiny_verify_config(policy="adaptive").validate()

    def test_degenerate_mesh_rejected_at_load(self):
        with pytest.raises(ValueError):
            tiny_verify_config(cells=(1, 10)).validate()


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
            theta0=1.0, cap_kind="clamped", mode_max=3, radial_cells=64,
            spectrum_path="run.spec", output_path="out.csv",
            output_format="csv")
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
    ])
    def test_malformed_rejected(self, tmp_path, content, msg):
        path = tmp_path / "bad.spec"
        path.write_text(content)
        with pytest.raises(SpectrumFileError, match=msg):
            read_spectrum(path)


class TestVerifyFlows:
    def test_string_spectrum_all_pass(self, tmp_path):
        # sigma_i = i^2 is the 1D string spectrum (operator (1+a) d^2/dx^2),
        # scale-invariant under the bounds: every record must pass
        path = tmp_path / "string.spec"
        vals = [float(i * i) for i in range(1, 11)]
        write_spectrum(path, Spectrum(1, 0.5, np.array(vals)))
        cfg = replace(RunConfig(mode="bounds"), spectrum_path=str(path),
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

    def test_corrupted_spectrum_fails_and_exits_nonzero(self, tmp_path):
        path = tmp_path / "bad.spec"
        write_spectrum(path, Spectrum(2, 0.0, np.array([1.0, 10.0])))
        cfg = replace(RunConfig(mode="bounds"), spectrum_path=str(path),
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
        assert render_csv(a.records) == render_csv(b.records)
        assert a.to_json() == b.to_json()

    def test_sweep_matches_sequential(self, monkeypatch):
        configs = [tiny_verify_config(alpha=a) for a in (0.0, 0.5)]
        monkeypatch.setenv("ELASTICA_THREADS", "1")
        seq = run_verify_sweep(configs)
        monkeypatch.setenv("ELASTICA_THREADS", "2")
        par = run_verify_sweep(configs)
        for r1, r2 in zip(seq, par):
            assert render_csv(r1.records) == render_csv(r2.records)

    def test_worker_count_parsing(self, monkeypatch):
        monkeypatch.delenv("ELASTICA_THREADS", raising=False)
        assert worker_count() == 1
        monkeypatch.setenv("ELASTICA_THREADS", "0")
        assert worker_count() >= 1
        monkeypatch.setenv("ELASTICA_THREADS", "3")
        assert worker_count() == 3
        monkeypatch.setenv("ELASTICA_THREADS", "many")
        with pytest.raises(ConfigError):
            worker_count()


class TestCapRuns:
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

    def test_single_kind_run(self):
        cfg = replace(RunConfig(mode="cap"), radial_cells=48, mode_max=2,
                      cap_kind="buckling")
        report = run_cap(cfg)
        names = [r.name for r in report.records]
        assert "buckling_vs_n" in names
        assert "clamped_vs_n_lambda1" not in names


class TestReports:
    def test_json_round_trip(self, tmp_path):
        report = run_verify(tiny_verify_config())
        path = tmp_path / "r.json"
        save_report(report, path)
        back = load_report(path)
        assert render_csv(back.records) == render_csv(report.records)
        assert back.summary == report.summary

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

    def test_csv_shape(self):
        report = run_verify(tiny_verify_config())
        csv = render_csv(report.records)
        lines = csv.strip().splitlines()
        assert lines[0] == "name,k,bound,measured,slack,verdict"
        assert len(lines) == len(report.records) + 1

    def test_empty_records_csv(self):
        assert render_csv([]) == "name,k,bound,measured,slack,verdict\n"

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
        from elastica.bounds import BoundRecord

        def rec(verdict):
            return BoundRecord("x", "gap", 1, 1.0, 1.0, 0.0, verdict)

        assert VerificationReport({}, [rec("pass"), rec("skip")]) \
            .exit_code() == 0
        assert VerificationReport({}, [rec("pass"), rec("marginal")]) \
            .exit_code() == 2
        assert VerificationReport({}, [rec("marginal"), rec("fail")]) \
            .exit_code() == 1


class TestCLI:
    def test_solve_bounds_pipeline(self, tmp_path):
        spec_path = tmp_path / "run.spec"
        code = cli.main(["solve", "--set", "mesh.cells=10,10",
                         "--set", "solver.m=5", "--set", "solver.seed=4",
                         "--output", str(spec_path)])
        assert code == 0 and spec_path.exists()
        code = cli.main(["bounds", "--set", f"spectrum.path={spec_path}",
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

    def test_unknown_key_exits_one(self, capsys):
        assert cli.main(["verify", "--set", "solver.bogus=1"]) == 1
        assert "unknown key" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,message", [
        (["verify", "--set", "mesh.cells=1,1"], "at least 2 cells"),
        (["cap", "--set", "cap.cells=8"], "16 radial cells"),
        (["solve", "--set", "solver.seed=-1"], "solver.seed"),
        (["verify", "--set", "solver.m=4", "--set", "verify.k_max=10"],
         "solver.m >= 11"),
        (["verify", "--set", "output.format=spectrum"], "output.format"),
        (["solve", "--set", "mesh.cells=4,4", "--set", "solver.m=8",
          "--set", "verify.k_max=4"], "exceeds order/4 = 4 of the 4x4"),
        (["verify", "--set", "mesh.cells=4,4", "--set", "solver.m=8",
          "--set", "verify.k_max=4"], "exceeds order/4 = 4 of the 4x4"),
    ], ids=["mesh_cells", "cap_cells", "negative_seed", "m_below_k_max",
            "spectrum_format", "solve_m_above_order", "verify_m_above_order"])
    def test_bad_config_exits_one(self, argv, message, capsys):
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

    @pytest.mark.parametrize("content,k_max,message", [
        ("2 0 2\n1 1.0\n2 abc\n", 1, "line 3"),
        ("2 0 3\n1 1.0\n2 2.0\n3 3.0\n", 5, "verify.k_max = 5"),
    ], ids=["non_numeric_value", "k_max_beyond_file"])
    def test_bad_spectrum_file_exits_one(self, tmp_path, capsys, content,
                                         k_max, message):
        path = tmp_path / "in.spec"
        path.write_text(content)
        assert cli.main(["bounds", "--set", f"spectrum.path={path}",
                         "--set", f"verify.k_max={k_max}"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

    def test_corrupt_spectrum_exit_code(self, tmp_path):
        path = tmp_path / "bad.spec"
        write_spectrum(path, Spectrum(2, 0.0, np.array([1.0, 10.0])))
        code = cli.main(["bounds", "--set", f"spectrum.path={path}",
                         "--set", "verify.k_max=1"])
        assert code == 1

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
        dense = K.to_dense()
        assert np.array_equal(dense, dense.T)

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

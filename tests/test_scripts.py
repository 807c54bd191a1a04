"""Smoke tests of the experiment scripts: each parses --help, and the box
sweep, the cap suite and the convergence study run end to end on tiny
meshes."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from elastica.report import exit_code, load_report

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


def _run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name),
                           *args], env=env, capture_output=True, text=True,
                          timeout=120)


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.name)
def test_help_exits_zero(script):
    proc = _run_script(script.name, "--help")
    assert proc.returncode == 0, proc.stderr


def test_box_sweep_runs(tmp_path):
    # α = 10 takes the Chebyshev-accelerated preconditioner (3 steps)
    proc = _run_script("box_sweep.py", "--cells", "6", "--alphas", "0,10",
                       "--k-max", "3", "--out", str(tmp_path), "--svg")
    assert proc.returncode == 0, proc.stderr
    reports = sorted(p.name for p in tmp_path.glob("report_alpha*.json"))
    assert reports == ["report_alpha0.json", "report_alpha10.json"]
    for alpha in ("0", "10"):
        report = json.loads(
            (tmp_path / f"report_alpha{alpha}.json").read_text())
        assert report["summary"]["fail"] == 0
        # `elastica report` names charts <label>_<record>.svg
        assert any(tmp_path.glob(f"alpha{alpha}_*.svg"))
    # merged from two reports, so each row leads with its report's label
    csv = (tmp_path / "sweep.csv").read_text().splitlines()
    assert csv[0] == "run,name,k,bound,measured,slack,verdict"
    assert {row.split('",')[0] for row in csv[1:]} == {
        '"alpha=0 richardson(6x6,12x12)', '"alpha=10 richardson(6x6,12x12)'}
    assert "verdict" in (tmp_path / "sweep.txt").read_text()


def test_cap_suite_runs(tmp_path):
    proc = _run_script("cap_suite.py", "--thetas", "pi/3,pi/2", "--cells",
                       "16", "--mode-max", "1", "--out", str(tmp_path))
    reports = [load_report(p) for p in sorted(tmp_path.glob("cap_*.json"))]
    assert len(reports) == 2
    assert proc.returncode == exit_code(reports), proc.stderr


def test_stress_small_boxes_runs():
    proc = _run_script("stress_small_boxes.py", "--boxes", "3", "--seed", "1")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "3 boxes, 6 solves: 0 miss, 0 residual, 0 breakdown" in proc.stdout


def test_convergence_study_runs():
    # 32 radial cells give cap pencils of order 63 and 64: one padded and
    # one whole 64-row Cholesky block
    proc = _run_script("convergence_study.py", "--box", "4,8", "--cap",
                       "16,32")
    assert proc.returncode == 0, proc.stderr
    box, cap = proc.stdout.split("hemisphere equalities:")
    box_orders = [float(o) for o in re.findall(r"order (\S+)", box)]
    cap_orders = [float(o) for o in re.findall(r"order (\S+)", cap)]
    assert len(box_orders) == 1 and 1.9 <= box_orders[0] <= 2.1
    assert len(cap_orders) == 2
    assert all(3.8 <= o <= 4.2 for o in cap_orders)

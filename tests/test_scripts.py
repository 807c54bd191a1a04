"""Smoke tests of the experiment scripts: each parses --help, and the box
sweep runs end to end on a tiny mesh."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.name)
def test_help_exits_zero(script):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(script), "--help"], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_box_sweep_runs(tmp_path):
    # α = 10 takes the Chebyshev-accelerated preconditioner (3 steps)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "box_sweep.py"), "--cells",
         "6", "--alphas", "0,10", "--k-max", "3", "--out", str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    reports = sorted(p.name for p in tmp_path.glob("report_alpha*.json"))
    assert reports == ["report_alpha0.json", "report_alpha10.json"]
    for name in reports:
        report = json.loads((tmp_path / name).read_text())
        assert report["summary"]["fail"] == 0

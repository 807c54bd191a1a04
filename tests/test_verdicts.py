"""Golden verdicts: the (name, kind, k, verdict, note) of every record of a
fixed set of box and cap runs, compared with ``data/verdicts_tier1.json``.

The box runs are 12² ``run_verify`` solves at α ∈ {0, 0.5, 2, 10} under
each policy (m = 16, k_max = 15, seed 7); the cap runs are ``run_cap`` at
θ₀ ∈ {π/4, 1, π/2, 2.2}, all kinds, 32 radial cells.  A change that moves
a verdict or a note regenerates the file with

    PYTHONPATH=src python tests/test_verdicts.py

and says in CHANGES.md which records moved and why.  The full matrix,
these runs among them, is scripts/verdict_matrix.py's; its rows are
:func:`record_row`'s, and one test here checks its ``--compare`` on the
12² runs against ``data/verdicts.json``.
"""

import copy
import importlib.util
import json
import math
from dataclasses import replace
from pathlib import Path

import pytest

from elastica.harness import RunConfig, run_cap, run_verify

GOLDEN = Path(__file__).parent / "data" / "verdicts_tier1.json"
#: the full matrix of scripts/verdict_matrix.py
MATRIX = Path(__file__).parent / "data" / "verdicts.json"

VERIFY_ALPHAS = (0.0, 0.5, 2.0, 10.0)
VERIFY_POLICIES = ("richardson", "fixed", "fixed:1e-6")
CAP_ANGLES = {"pi/4": math.pi / 4, "1": 1.0, "pi/2": math.pi / 2,
              "2.2": 2.2}


def golden_runs():
    """Run label -> the config of that run, in file order."""
    runs = {}
    for alpha in VERIFY_ALPHAS:
        for policy in VERIFY_POLICIES:
            runs[f"verify alpha={alpha:g} {policy}"] = replace(
                RunConfig(mode="verify"), cells=(12, 12), alpha=alpha,
                policy=policy, m=16, k_max=15, seed=7)
    for label, theta0 in CAP_ANGLES.items():
        runs[f"cap theta0={label}"] = replace(
            RunConfig(mode="cap"), theta0=theta0, radial_cells=32)
    return runs


def record_row(r):
    """[name, kind, k, verdict, note] of one record: the row of a golden
    file here and of scripts/verdict_matrix.py's matrix."""
    return [r.name, r.kind, r.k, r.verdict, r.note]


def verdicts(cfg):
    """The :func:`record_row` of each record of one run."""
    runner = run_cap if cfg.mode == "cap" else run_verify
    return [record_row(r) for r in runner(cfg).records]


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="ascii"))


def test_golden_lists_every_run(golden):
    assert list(golden) == list(golden_runs())


@pytest.mark.parametrize("label,cfg", list(golden_runs().items()),
                         ids=list(golden_runs()))
def test_verdicts_match_golden(golden, label, cfg):
    assert verdicts(cfg) == golden[label]


@pytest.fixture(scope="module")
def verdict_matrix():
    """scripts/verdict_matrix.py, imported as a module."""
    path = Path(__file__).parents[1] / "scripts" / "verdict_matrix.py"
    spec = importlib.util.spec_from_file_location("verdict_matrix", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_matrix_compare_exits_1_on_a_flipped_verdict(verdict_matrix,
                                                     tmp_path, capsys):
    # the 12² runs of the full matrix, recomputed against their part of
    # the checked-in file, then against a copy with one verdict flipped
    runs = {label: cfg for label, cfg in verdict_matrix.matrix_runs().items()
            if " 12x12 " in label}
    assert len(runs) == 12
    part = {label: entry for label, entry
            in json.loads(MATRIX.read_text(encoding="ascii")).items()
            if label in runs}
    assert list(part) == list(runs)
    same = tmp_path / "same.json"
    same.write_text(json.dumps(part), encoding="ascii")
    assert verdict_matrix.main(["--compare", str(same)], runs=runs) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"12 runs against {same}: 0 differences, verdicts unchanged"]

    flipped = copy.deepcopy(part)
    label = next(iter(flipped))
    row = flipped[label]["records"][3]
    assert row[3] == "pass"
    row[3] = "fail"
    changed = tmp_path / "flipped.json"
    changed.write_text(json.dumps(flipped), encoding="ascii")
    assert verdict_matrix.main(["--compare", str(changed)], runs=runs) == 1
    name, kind, k = row[:3]
    assert capsys.readouterr().out.splitlines() == [
        f"{label}: {name} ({kind}) k={k}: verdict fail -> pass",
        f"12 runs against {changed}: 1 differences, verdicts changed"]


if __name__ == "__main__":
    table = {label: verdicts(cfg) for label, cfg in golden_runs().items()}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(table, indent=1) + "\n", encoding="ascii")
    print(f"wrote {GOLDEN}: {sum(map(len, table.values()))} records in "
          f"{len(table)} runs")

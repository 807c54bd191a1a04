"""Golden verdicts: the (name, kind, k, verdict, note) of every record of
tier-1's slice of the verdict matrix, compared with ``data/verdicts.json``.

scripts/verdict_matrix.py labels every run of the matrix and is the one
writer of that file.  Tier-1 solves 16 of its runs: the 12² ``run_verify``
solves at α ∈ {0, 0.5, 2, 10} under each policy (m = 16, k_max = 15,
seed 7), and ``run_cap`` at θ₀ ∈ {π/4, 1, π/2, 2.2}, all kinds, 32 radial
cells.  A change that moves a verdict or a note regenerates the file with

    python3 scripts/verdict_matrix.py --output tests/data/verdicts.json

and says in CHANGES.md which records moved and why.  One test here checks
the script's ``--compare`` on the 12² runs.
"""

import copy
import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MATRIX = ROOT / "tests" / "data" / "verdicts.json"


def _load_script():
    """scripts/verdict_matrix.py, imported as a module."""
    path = ROOT / "scripts" / "verdict_matrix.py"
    spec = importlib.util.spec_from_file_location("verdict_matrix", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


verdict_matrix = _load_script()
#: label -> config of each run tier-1 solves
TIER1 = {label: cfg for label, cfg in verdict_matrix.matrix_runs().items()
         if " 12x12 " in label or label.endswith(" cells=32")}


def short_id(label):
    """A tier-1 run's test id: its label without what every run of its
    group shares."""
    for shared in (" square 12x12", " seed=7", " kind=all cells=32"):
        label = label.replace(shared, "")
    return label


@pytest.fixture(scope="module")
def golden():
    return json.loads(MATRIX.read_text(encoding="ascii"))


def test_golden_lists_every_run(golden):
    assert list(golden) == list(verdict_matrix.matrix_runs())
    assert len(TIER1) == 16


@pytest.mark.parametrize("label", list(TIER1), ids=map(short_id, TIER1))
def test_verdicts_match_golden(golden, label):
    entry = verdict_matrix.run_matrix({label: TIER1[label]})[label]
    assert entry["records"] == golden[label]["records"]


def test_matrix_compare_exits_1_on_a_flipped_verdict(golden, tmp_path,
                                                     capsys):
    # the 12² runs of the full matrix, recomputed against their part of
    # the checked-in file, then against a copy with one verdict flipped
    runs = {label: cfg for label, cfg in TIER1.items() if " 12x12 " in label}
    assert len(runs) == 12
    part = {label: golden[label] for label in runs}
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

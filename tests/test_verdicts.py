"""Golden verdicts: the (name, kind, k, verdict, note) of every record of a
fixed set of box and cap runs, compared with ``data/verdicts_tier1.json``.

The box runs are 12² ``run_verify`` solves at α ∈ {0, 0.5, 2, 10} under
each policy (m = 16, k_max = 15, seed 7); the cap runs are ``run_cap`` at
θ₀ ∈ {π/4, 1, π/2, 2.2}, all kinds, 32 radial cells.  A change that moves
a verdict or a note regenerates the file with

    PYTHONPATH=src python tests/test_verdicts.py

and says in CHANGES.md which records moved and why.
"""

import json
import math
from dataclasses import replace
from pathlib import Path

import pytest

from elastica.harness import RunConfig, run_cap, run_verify

GOLDEN = Path(__file__).parent / "data" / "verdicts_tier1.json"

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


def verdicts(cfg):
    """[name, kind, k, verdict, note] of each record of one run."""
    runner = run_cap if cfg.mode == "cap" else run_verify
    return [[r.name, r.kind, r.k, r.verdict, r.note]
            for r in runner(cfg).records]


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="ascii"))


def test_golden_lists_every_run(golden):
    assert list(golden) == list(golden_runs())


@pytest.mark.parametrize("label,cfg", list(golden_runs().items()),
                         ids=list(golden_runs()))
def test_verdicts_match_golden(golden, label, cfg):
    assert verdicts(cfg) == golden[label]


if __name__ == "__main__":
    table = {label: verdicts(cfg) for label, cfg in golden_runs().items()}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(table, indent=1) + "\n", encoding="ascii")
    print(f"wrote {GOLDEN}: {sum(map(len, table.values()))} records in "
          f"{len(table)} runs")

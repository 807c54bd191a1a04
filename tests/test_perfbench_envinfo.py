"""The benchmark's record of each run calls into elastica; keep it working.

After every timed pass ``perfbench/run.py`` writes ``envinfo.environment``
and ``envinfo.working_set``, and the latter unpacks three values from
``assembly.assemble``.  ``perfbench/`` has its own test suite outside
``testpaths``, so without this check a change to what ``assemble`` returns
would pass tier-1 and break ``perfbench/run.py``.
"""

import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def test_working_set_and_environment_records(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    envinfo = importlib.import_module("envinfo")
    workloads = importlib.import_module("workloads")
    box = workloads.WORKLOADS["box_sweep"]
    sizes = envinfo.working_set(box)
    assert sizes["computed"] is True
    meshes = [f"{c}x{c}" for c in (box.cells, 2 * box.cells)]
    assert list(sizes["meshes"]) == meshes
    for label in meshes:
        entry = sizes["meshes"][label]
        cells = int(label.split("x")[0])
        assert entry["order"] == 2 * (cells - 1) ** 2
        assert entry["K_nnz"] > entry["M_nnz"] > 0
    assert envinfo.working_set(workloads.WORKLOADS["cap_hemisphere"]) is None
    env = envinfo.environment(str(ROOT))
    assert env["numpy"] and env["python"] and env["nproc"] >= 1
    assert env["git_commit"]

"""The benchmark's tracer patches elastica callables by name; keep them.

``perfbench/`` has its own test suite outside ``testpaths``; this check
keeps a rename or removal of a traced callable from passing tier-1 while
it breaks ``perfbench/run.py --trace 1``.
"""

import importlib
from pathlib import Path

from elastica import cap1d, eigensolve, harness
from elastica.cap1d import CapProblem
from elastica.sparse import BandedSymMatrix

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _hooks():
    return {
        "build_mode_operator": vars(cap1d)["build_mode_operator"],
        "banded_smallest": vars(cap1d)["banded_smallest"],
        "cholesky_banded": vars(eigensolve)["cholesky_banded"],
        "from_dense": vars(BandedSymMatrix)["from_dense"],
        "solve_problem": vars(harness)["solve_problem"],
        "smallest_eigenpairs": vars(harness)["smallest_eigenpairs"],
    }


def test_instrument_wraps_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    before = _hooks()
    with tracer.instrument(tracer.Tracer()) as trace:
        inside = _hooks()
        cap1d.solve_cap(CapProblem(1.0, "q_problem", mode_max=1,
                                   radial_cells=16))
    assert all(inside[name] is not before[name] for name in before)
    after = _hooks()
    assert all(after[name] is before[name] for name in before)
    names = {span.name for span in trace.spans}
    assert {"cap1d.build_mode_operator", "eigensolve.banded_smallest",
            "eigensolve.cholesky_banded",
            "eigensolve.banded_solve"} <= names
    # the cap pencils are scattered into bands, never built dense
    assert "sparse.from_dense" not in names

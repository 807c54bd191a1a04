"""The benchmark's tracer patches elastica callables by name; keep them.

``perfbench/`` has its own test suite outside ``testpaths``; this check
keeps a rename or removal of a traced callable from passing tier-1 while
it breaks ``perfbench/run.py --trace 1``.
"""

import importlib
from pathlib import Path

from dataclasses import replace

from elastica import cap1d, eigensolve, harness
from elastica.assembly import ElasticityProblem
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
        "laplacian_inverse": vars(harness)["laplacian_inverse"],
        "assemble": vars(harness)["assemble"],
        "evaluate_all": vars(harness)["evaluate_all"],
        "save_report": vars(harness)["save_report"],
    }


def test_instrument_wraps_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    before = _hooks()
    with tracer.instrument(tracer.Tracer()) as trace:
        inside = _hooks()
        cap1d.solve_cap(CapProblem(1.0, "q_problem", mode_max=1,
                                   radial_cells=16))
        harness.solve_problem(ElasticityProblem((1.0, 1.0), 1.0, (8, 8)),
                              4, 1e-8, 7)
    assert all(inside[name] is not before[name] for name in before)
    after = _hooks()
    assert all(after[name] is before[name] for name in before)
    names = {span.name for span in trace.spans}
    assert {"cap1d.build_mode_operator", "eigensolve.banded_smallest",
            "eigensolve.cholesky_banded",
            "eigensolve.banded_solve", "dst.laplacian_inverse",
            "dst.precond_apply", "eigensolve.K_apply",
            "eigensolve.M_apply"} <= names
    # the cap pencils are scattered into bands, never built dense
    assert "sparse.from_dense" not in names


def test_traced_richardson_report_unchanged(monkeypatch):
    # the fine solve's start block passes through the tracer's
    # solve_problem and smallest_eigenpairs wrappers as a keyword
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    cfg = replace(harness.RunConfig(mode="verify"), alpha=2.0, cells=(10, 10),
                  m=6, k_max=5, seed=7, policy="richardson")
    plain = harness.run_verify(cfg).to_json()
    with tracer.instrument(tracer.Tracer()) as trace:
        traced = harness.run_verify(cfg).to_json()
    assert traced == plain
    solves = [s for s in trace.spans
              if s.name == "eigensolve.smallest_eigenpairs"]
    assert [s.case for s in solves] == ["10x10.alpha2", "20x20.alpha2"]


def test_traced_cap_report_unchanged(monkeypatch):
    # each fine mode solve's start column passes through the tracer's
    # banded_smallest wrapper as a keyword
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    cfg = replace(harness.RunConfig(mode="cap"), radial_cells=16, mode_max=2)
    plain = harness.run_cap(cfg).to_json()
    with tracer.instrument(tracer.Tracer()) as trace:
        traced = harness.run_cap(cfg).to_json()
    assert traced == plain
    solves = [s for s in trace.spans
              if s.name == "eigensolve.banded_smallest"]
    assert len(solves) == len(cap1d.CAP_KINDS) * 2 * 3

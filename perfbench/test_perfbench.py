"""Checks of the benchmark's own code on small cases.

    python3 -m pytest perfbench -q
"""

import copy
import json
import math
import os
from dataclasses import replace

import numpy as np
import pytest

from elastica import harness
from elastica.assembly import ElasticityProblem
from layers import ITERATION_METRICS, LAYER_UNITS, layer_metrics
from tracer import Tracer, instrument
from workloads import WORKLOADS, Workload, q1_alpha0_values, run_pass

SMALL_BOX = Workload("small_box", "box", 8, (0.0, 2.0))
SMALL_CAP = Workload("small_cap", "cap", 32)
BENCHMARK_JSON = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "BENCHMARK.json")


def _run(workload, out_dir, traced, seed=7):
    configs = workload.configs(seed, str(out_dir))
    if not traced:
        return run_pass(workload, configs), None
    tracer = Tracer()
    with instrument(tracer):
        result = run_pass(workload, configs)
    return result, tracer


def _saved(result):
    texts = []
    for outcome in result.outcomes:
        with open(outcome.config.output_path, encoding="ascii") as fh:
            texts.append(fh.read())
    return texts


@pytest.mark.parametrize("cells", [8, 16])
def test_traced_box_solve_is_bit_identical(cells):
    problem = ElasticityProblem((math.pi, math.pi), 2.0, (cells, cells))
    plain_spec, plain = harness.solve_problem(problem, 16, 1e-8, 11)
    tracer = Tracer()
    with instrument(tracer):
        spec, result = harness.solve_problem(problem, 16, 1e-8, 11)
    assert np.array_equal(spec.values, plain_spec.values)
    assert np.array_equal(result.vectors, plain.vectors)
    assert result.iterations == plain.iterations
    solves = [s for s in tracer.spans
              if s.name == "eigensolve.smallest_eigenpairs"]
    assert [s.info["iterations"] for s in solves] == [plain.iterations]
    assert harness.smallest_eigenpairs.__module__ == "elastica.eigensolve"


@pytest.mark.parametrize("workload", [SMALL_BOX, SMALL_CAP],
                         ids=lambda w: w.name)
def test_traced_pass_gives_identical_reports(workload, tmp_path):
    # same output paths, since the report echoes them
    plain, _ = _run(workload, tmp_path, traced=False)
    saved_plain = _saved(plain)
    traced, tracer = _run(workload, tmp_path, traced=True)
    assert plain.failed == traced.failed == 0
    assert _saved(traced) == saved_plain
    for a, b in zip(plain.outcomes, traced.outcomes):
        assert a.report.to_json() == b.report.to_json()
    assert tracer.spans and all(s.end >= s.start for s in tracer.spans)


def test_layer_times_add_up_per_box_solve(tmp_path):
    traced, tracer = _run(SMALL_BOX, tmp_path, traced=True)
    metrics = layer_metrics(tracer, SMALL_BOX, traced, traced.wall_s)
    parts = sum(metrics[k] for k in (
        "eigensolve.K_apply_s", "eigensolve.M_apply_s",
        "dst.precond_apply_s", "eigensolve.lobpcg_self_s"))
    assert parts == pytest.approx(metrics["eigensolve.lobpcg_s"], rel=1e-9)
    assert metrics["eigensolve.lobpcg_iterations"] > 0
    assert metrics["eigensolve.banded_calls"] == 0
    assert metrics["report.bytes_written"] == sum(
        os.path.getsize(o.config.output_path) for o in traced.outcomes)
    assert set(LAYER_UNITS) <= set(metrics)
    assert metrics["eigensolve.iterations.16x16.alpha2"] > 0


def test_cap_trace_counts_modes_and_solves(tmp_path):
    traced, tracer = _run(SMALL_CAP, tmp_path, traced=True)
    metrics = layer_metrics(tracer, SMALL_CAP, traced, traced.wall_s)
    # five kinds, two resolutions, modes 0..8
    assert metrics["cap1d.build_mode_operator_calls"] == 5 * 2 * 9
    assert metrics["eigensolve.banded_calls"] >= 5 * 2 * 9
    assert metrics["eigensolve.banded_solve_cols"] > 0
    assert metrics["eigensolve.K_apply_cols"] == 0
    assert all(metrics[name] == 0 for name in ITERATION_METRICS)


def test_closed_form_alpha0_matches_solver():
    problem = ElasticityProblem((math.pi, math.pi), 0.0, (8, 8))
    spec, _ = harness.solve_problem(problem, 16, 1e-10, 3)
    exact = q1_alpha0_values(problem.edges, problem.cells, 16)
    assert np.allclose(spec.values, exact, rtol=1e-8)


def _doctored(outcome, edit):
    report = copy.deepcopy(outcome.report)
    edit(report)
    return report


def test_gate_rejects_perturbed_alpha0_eigenvalue(tmp_path):
    result, _ = _run(SMALL_BOX, tmp_path, traced=False)
    alpha0 = result.outcomes[0]
    assert alpha0.config.alpha == 0.0 and alpha0.problems == []

    def perturb(report):
        report.spectrum["values"][0] *= 1.0 + 2e-2
    report = _doctored(alpha0, perturb)
    problems = SMALL_BOX.check(alpha0.config, report)
    assert any("eigenvalue 1:" in p for p in problems)


def test_gate_rejects_flipped_verdict(tmp_path):
    result, _ = _run(SMALL_BOX, tmp_path, traced=False)
    outcome = result.outcomes[1]

    def flip(report):
        report.records[0] = replace(report.records[0], verdict="fail")
    problems = SMALL_BOX.check(outcome.config, _doctored(outcome, flip))
    assert problems and problems[0].startswith("fail record")


def test_gate_rejects_cap_value_outside_equality_band(tmp_path):
    result, _ = _run(SMALL_CAP, tmp_path, traced=False)
    outcome = result.outcomes[0]
    assert outcome.problems == []

    def shift(report):
        report.provenance["values"]["p_problem"] += 0.1
    problems = SMALL_CAP.check(outcome.config, _doctored(outcome, shift))
    assert any("p1_hemisphere" in p for p in problems)


def test_failing_case_counts_and_pass_goes_on(tmp_path, monkeypatch):
    def broken(cfg):
        raise harness.ConfigError("broken case")
    configs = SMALL_BOX.configs(1, str(tmp_path))
    monkeypatch.setattr(harness, "run_verify", broken)
    result = run_pass(SMALL_BOX, configs)
    assert result.failed == len(configs)


def test_benchmark_json_lists_the_emitted_metrics():
    with open(BENCHMARK_JSON) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == \
        ["setup_s", "wall_s", "peak_rss_mb"]
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == LAYER_UNITS

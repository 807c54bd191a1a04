"""Benchmark workloads: inputs from a seed, one timed pass, correctness gate.

Each workload is a list of run configs driven through the public entry
points (``harness.run_verify`` for the box, ``harness.run_cap`` for the
cap).  With ``ELASTICA_THREADS`` unset, ``run_verify_sweep`` is a plain loop
over ``run_verify``; calling ``run_verify`` per case does the same work and
lets a case that raises count as one failed case instead of ending the pass.
"""

from __future__ import annotations

import math
import os
import sys
import time
import traceback
from dataclasses import dataclass, field, replace

import numpy as np

from elastica import harness
from elastica.assembly import reference_spectrum_alpha0
from elastica.harness import RunConfig
from tracer import case_id

SQUARE = (math.pi, math.pi)
# solver settings of the acceptance sweep (tests/test_acceptance.py)
M, K_MAX, TOL = 16, 15, 1e-8
HEMISPHERE = math.pi / 2
MODE_MAX = 8
# equality cases on the hemisphere of S²: record -> (cap kind, exact value)
HEMISPHERE_EQUALITIES = {
    "lambda1_hemisphere": ("dirichlet_laplacian", 2.0),
    "p1_hemisphere": ("p_problem", 4.0),
    "q1_hemisphere": ("q_problem", 2.0),
}
# run_cap's floor on the equality bands, as a share of the exact value
EQUALITY_BAND_FLOOR = 0.005


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``cells`` is the coarse resolution (per direction on the box, radial on
    the cap); every case also solves at twice that for Richardson.
    """

    name: str
    kind: str
    cells: int
    alphas: tuple[float, ...] = ()

    def configs(self, seed, out_dir):
        """Validated run configs; the seed only reaches the box solver."""
        os.makedirs(out_dir, exist_ok=True)
        if self.kind == "box":
            cfgs = [replace(RunConfig(mode="verify"), edges=SQUARE, alpha=a,
                            cells=(self.cells, self.cells), m=M, k_max=K_MAX,
                            tol=TOL, seed=seed, policy="richardson",
                            output_path=os.path.join(
                                out_dir, f"{self.name}_alpha{a:g}.json"))
                    for a in self.alphas]
        else:
            cfgs = [replace(RunConfig(mode="cap"), theta0=HEMISPHERE,
                            cap_kind="all", mode_max=MODE_MAX,
                            radial_cells=self.cells,
                            output_path=os.path.join(out_dir,
                                                     f"{self.name}.json"))]
        return [cfg.validate() for cfg in cfgs]

    def box_case_ids(self):
        return [case_id(f"{c}x{c}", a) for a in self.alphas
                for c in (self.cells, 2 * self.cells)]

    def run_case(self, cfg):
        if self.kind == "box":
            return harness.run_verify(cfg)
        return harness.run_cap(cfg)

    def check(self, cfg, report):
        """Correctness gate for one case; returns the problems found."""
        problems = [f"fail record {r.name} k={r.k} slack={r.slack:.3e}"
                    for r in report.records if r.verdict == "fail"]
        if self.kind == "box":
            values = np.asarray(report.spectrum["values"], dtype=float)
            if values.size != cfg.m:
                problems.append(f"{values.size} eigenvalues, {cfg.m} asked")
            elif cfg.alpha == 0.0:
                problems.extend(alpha0_problems(cfg, values))
        else:
            problems.extend(hemisphere_problems(report))
        return problems

    def reference_error(self, cfg, report):
        """Largest relative error against an exact value, or None."""
        if self.kind == "box":
            if cfg.alpha != 0.0:
                return None
            values = np.asarray(report.spectrum["values"], dtype=float)
            ref = reference_spectrum_alpha0(cfg.edges, values.size)
            return float(np.max(np.abs(values - ref) / ref))
        values = report.provenance["values"]
        return max(abs(values[kind] - exact) / exact
                   for kind, exact in HEMISPHERE_EQUALITIES.values())


WORKLOADS = {
    "box_sweep": Workload("box_sweep", "box", 32, (0.0, 0.5, 1.0, 2.0, 10.0)),
    "box_fine": Workload("box_fine", "box", 64, (2.0,)),
    "cap_hemisphere": Workload("cap_hemisphere", "cap", 256),
}


def q1_alpha0_values(edges, cells, count):
    """Smallest ``count`` discrete eigenvalues of the α = 0 box pencil.

    Closed form, independent of the solver: multilinear elements give
    K = Σ_d K₁⊗M₁ (stiffness in direction d) and M = ⊗M₁, and the 1D
    tridiagonals share sine eigenvectors, so each scalar eigenvalue is
    Σ_d κ_d/μ_d.  Each one repeats once per vector component.
    """
    scalar = np.zeros(1)
    for e, c in zip(edges, cells):
        n, h = c - 1, e / c
        cos = np.cos(np.arange(1, n + 1) * np.pi / (n + 1))
        ratio = ((2.0 - 2.0 * cos) / h) / (h * (4.0 + 2.0 * cos) / 6.0)
        scalar = np.add.outer(scalar, ratio).ravel()
    return np.sort(np.repeat(scalar, len(edges)))[:count]


def alpha0_problems(cfg, values):
    """Extrapolated α = 0 spectrum against the exact one, within the
    Richardson budget |σ_2N − σ_N| of the two discrete spectra."""
    coarse = q1_alpha0_values(cfg.edges, cfg.cells, values.size)
    fine = q1_alpha0_values(cfg.edges, tuple(2 * c for c in cfg.cells),
                            values.size)
    budget = np.abs(fine - coarse)
    ref = reference_spectrum_alpha0(cfg.edges, values.size)
    err = np.abs(values - ref)
    return [f"alpha=0 eigenvalue {i + 1}: error {err[i]:.3e} over budget "
            f"{budget[i]:.3e}" for i in np.flatnonzero(err > budget)]


def hemisphere_problems(report):
    """λ₁, p₁ and q₁ must sit within their equality bands."""
    problems = []
    records = {r.name: r for r in report.records}
    values = report.provenance["values"]
    budgets = report.provenance["budgets"]
    for name, (kind, exact) in HEMISPHERE_EQUALITIES.items():
        rec = records.get(name)
        if rec is None:
            problems.append(f"missing record {name}")
            continue
        band = max(budgets[kind], EQUALITY_BAND_FLOOR * exact)
        if rec.measured_value != values[kind]:
            problems.append(f"{name} measured {rec.measured_value!r} is not "
                            f"the computed {kind} value {values[kind]!r}")
        if not abs(values[kind] - exact) <= band:
            problems.append(f"{name}: {values[kind]:.9g} outside "
                            f"{exact:g} ± {band:.3g}")
    return problems


@dataclass
class CaseOutcome:
    config: RunConfig
    report: object = None
    problems: list[str] = field(default_factory=list)


@dataclass
class PassResult:
    wall_s: float
    outcomes: list[CaseOutcome]

    @property
    def failed(self):
        return sum(1 for o in self.outcomes if o.problems)

    @property
    def marginal(self):
        return sum(o.report.summary["marginal"] for o in self.outcomes
                   if o.report is not None)


def run_pass(workload, configs):
    """Run every case once, timing up to the last verdict, then gate."""
    outcomes = []
    start = time.perf_counter()
    for cfg in configs:
        try:
            outcomes.append(CaseOutcome(cfg, workload.run_case(cfg)))
        except Exception as err:  # one broken case must not end the pass
            traceback.print_exc(file=sys.stderr)
            outcomes.append(CaseOutcome(
                cfg, None, [f"raised {type(err).__name__}: {err}"]))
    wall = time.perf_counter() - start
    for outcome in outcomes:
        if outcome.report is not None:
            outcome.problems = workload.check(outcome.config, outcome.report)
    return PassResult(wall, outcomes)

"""Run orchestration: configs, spectrum files, Richardson verification.

A run config is a flat key = value text file (or CLI overrides); unknown
keys are errors so typos cannot silently fall back to defaults.  The
``verify`` flow solves the box problem at the configured mesh and at double
resolution, extrapolates eigenvalues by (4 σ_2N − σ_N)/3 and uses
|σ_2N − σ_N| as the per-eigenvalue error budget when judging strict
inequalities on approximate spectra.
"""

from __future__ import annotations

import math
import os
import re
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from . import __version__
from .assembly import (ElasticityProblem, assemble, box_operators,
                       laplacian_inverse)
from .bounds import (BoundRecord, DomainGeometry, Spectrum, VerifyTolerance,
                     _verdict, evaluate_all)
from .cap1d import CAP_KINDS, CapProblem, solve_cap
from .eigensolve import smallest_eigenpairs
from .report import VerificationReport, render_csv, save_report
from .sparse import read_matrix_market, write_matrix_market

THREADS_ENV = "ELASTICA_THREADS"


class ConfigError(ValueError):
    """Bad configuration key, value or referenced path."""


class SpectrumFileError(ValueError):
    """Malformed or inconsistent spectrum file."""


def parse_floats(text):
    return tuple(float(t) for t in re.split(r"[,\s]+", text.strip()) if t)


def parse_ints(text):
    return tuple(int(t) for t in re.split(r"[,\s]+", text.strip()) if t)


def parse_angle(text):
    """Plain float, or small multiples of pi like 'pi/2' or '2pi/3'."""
    text = text.strip().lower()
    m = re.fullmatch(r"(\d+(?:\.\d+)?)?\s*pi\s*(?:/\s*(\d+(?:\.\d+)?))?", text)
    if m:
        num = float(m.group(1)) if m.group(1) else 1.0
        den = float(m.group(2)) if m.group(2) else 1.0
        return num * math.pi / den
    return float(text)


# config key -> (RunConfig field, value parser), in report echo order
CONFIG_KEYS = {
    "domain.edges": ("edges", parse_floats),
    "domain.alpha": ("alpha", float),
    "mesh.cells": ("cells", parse_ints),
    "solver.m": ("m", int),
    "solver.tol": ("tol", float),
    "solver.seed": ("seed", int),
    "verify.k_max": ("k_max", int),
    "verify.policy": ("policy", str),
    "cap.theta0": ("theta0", parse_angle),
    "cap.kind": ("cap_kind", str),
    "cap.mode_max": ("mode_max", int),
    "cap.cells": ("radial_cells", int),
    "spectrum.path": ("spectrum_path", str),
    "output.path": ("output_path", str),
    "output.format": ("output_format", str),
}

_POLICY_RE = re.compile(r"fixed(?::([0-9.eE+-]+))?$|richardson$")
#: relative verdict band of the fixed policy when it names no eps
FIXED_EPS = 1e-9
OUTPUT_FORMATS = ("json", "csv")
CAP_RUN_KINDS = ("all",) + CAP_KINDS


@dataclass(frozen=True)
class RunConfig:
    """Validated run parameters; one instance drives one run."""

    mode: str = "verify"
    edges: tuple[float, ...] = (math.pi, math.pi)
    alpha: float = 0.0
    cells: tuple[int, ...] = (32, 32)
    m: int = 12
    tol: float = 1e-8
    seed: int = 2024
    k_max: int = 10
    policy: str = "richardson"
    theta0: float = math.pi / 2
    cap_kind: str = "all"
    mode_max: int = 8
    radial_cells: int = 256
    spectrum_path: str | None = None
    output_path: str | None = None
    output_format: str = "json"
    dump_matrices: str | None = None

    def validate(self):
        if self.mode not in ("solve", "bounds", "verify", "cap", "report"):
            raise ConfigError(f"unknown mode {self.mode!r}")
        if not _POLICY_RE.fullmatch(self.policy):
            raise ConfigError(
                f"verify.policy must be 'richardson' or 'fixed[:eps]', "
                f"got {self.policy!r}")
        if self.output_format not in OUTPUT_FORMATS:
            raise ConfigError(f"output.format must be one of {OUTPUT_FORMATS}")
        if self.cap_kind not in CAP_RUN_KINDS:
            raise ConfigError(f"cap.kind must be one of {CAP_RUN_KINDS}")
        if not 1 <= self.k_max <= 10_000:
            raise ConfigError("verify.k_max out of range")
        if not 1 <= self.m <= 10_000:
            raise ConfigError("solver.m out of range")
        if not 0 < self.tol <= 1e-2:
            raise ConfigError("solver.tol out of range (0, 1e-2]")
        if self.seed < 0:
            raise ConfigError("solver.seed must be >= 0")
        if self.mode in ("verify", "bounds") and self.spectrum_path is None \
                and self.m < self.k_max + 1:
            raise ConfigError(
                f"solver.m = {self.m} cannot cover verify.k_max = "
                f"{self.k_max}; need solver.m >= {self.k_max + 1}")
        solves = self.mode == "solve" or (
            self.mode in ("verify", "bounds") and self.spectrum_path is None)
        try:
            # the problem constructors re-validate edges, cells and angles
            if solves:
                box = ElasticityProblem(self.edges, self.alpha, self.cells)
            if self.mode == "cap":
                CapProblem(self.theta0, "dirichlet_laplacian", self.mode_max,
                           self.radial_cells)
        except ValueError as err:
            raise ConfigError(str(err)) from None
        if solves:
            # LOBPCG needs m <= order/4; Richardson's coarse mesh is the limit
            order = box.dim * math.prod(c - 1 for c in box.cells)
            if self.m > order // 4:
                raise ConfigError(
                    f"solver.m = {self.m} exceeds order/4 = {order // 4} "
                    f"of the {box.mesh_label()} mesh")
        if self.spectrum_path is not None \
                and not os.path.exists(self.spectrum_path):
            raise ConfigError(f"spectrum file not found: {self.spectrum_path}")
        return self

    def fixed_tolerance(self):
        m = _POLICY_RE.fullmatch(self.policy)
        if m and m.group(1):
            return float(m.group(1))
        return FIXED_EPS

    def echo(self):
        out = {"mode": self.mode}
        for key, (name, _) in CONFIG_KEYS.items():
            value = getattr(self, name)
            out[key] = list(value) if isinstance(value, tuple) else value
        return out


def parse_config_text(text, base=None, source="<config>"):
    cfg = base or RunConfig()
    updates = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected key = value")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in CONFIG_KEYS:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        name, parse = CONFIG_KEYS[key]
        try:
            updates[name] = parse(value)
        except ValueError as err:
            raise ConfigError(
                f"{source}:{lineno}: bad value for {key}: {err}") from None
    return replace(cfg, **updates)


def load_config(path, base=None):
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read(), base=base, source=path)


def apply_overrides(cfg, pairs):
    """Apply repeatable ``--set key=value`` overrides."""
    lines = []
    for pair in pairs:
        if "=" not in pair:
            raise ConfigError(f"override must be key=value, got {pair!r}")
        lines.append(pair)
    return parse_config_text("\n".join(lines), base=cfg, source="--set")


# ---------------------------------------------------------------------------
# spectrum files: header "n alpha count", then "index value [residual]"

def write_spectrum(path, spectrum):
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{spectrum.dim} {spectrum.alpha:.17g} {len(spectrum)}\n")
        for i, v in enumerate(spectrum.values, 1):
            if spectrum.residuals is not None:
                fh.write(f"{i} {v:.17g} {spectrum.residuals[i - 1]:.17g}\n")
            else:
                fh.write(f"{i} {v:.17g}\n")


def read_spectrum(path):
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().split()
        if len(header) != 3:
            raise SpectrumFileError("header must be 'n alpha count'")
        try:
            dim, alpha, count = int(header[0]), float(header[1]), int(header[2])
        except ValueError as err:
            raise SpectrumFileError(f"bad header: {err}") from None
        if count < 1:
            raise SpectrumFileError("header count must be >= 1")
        values = np.empty(count)
        residuals = None
        for i in range(count):
            parts = fh.readline().split()
            if len(parts) not in (2, 3):
                raise SpectrumFileError(
                    f"line {i + 2}: expected 'index value [residual]'")
            try:
                index = int(parts[0])
                numbers = [float(p) for p in parts[1:]]
            except ValueError as err:
                raise SpectrumFileError(f"line {i + 2}: {err}") from None
            if index != i + 1:
                raise SpectrumFileError(f"line {i + 2}: index out of order")
            values[i] = numbers[0]
            if len(numbers) == 2:
                if residuals is None:
                    residuals = np.zeros(count)
                residuals[i] = numbers[1]
    source = "computed" if residuals is not None else "synthetic"
    try:
        return Spectrum(dim, alpha, values, source=source,
                        residuals=residuals)
    except ValueError as err:
        raise SpectrumFileError(str(err)) from None


# ---------------------------------------------------------------------------
# runs

def solve_problem(problem, m, tol, seed):
    """Solve the box pencil; returns (Spectrum, EigenResult).

    K(α) and M are applied matrix-free as tensor-product stencils
    (:func:`box_operators`) and preconditioned by the exact DST inverse of
    the α = 0 stiffness; no CSR matrix is assembled.
    """
    K, M = box_operators(problem)
    precond = laplacian_inverse(problem)
    result = smallest_eigenpairs(K, M, m, tol=tol, seed=seed, precond=precond)
    spectrum = Spectrum(problem.dim, problem.alpha, result.values,
                        source="computed", mesh=problem.mesh_label(),
                        residuals=result.residuals, solver_tol=tol)
    return spectrum, result


def run_solve(cfg):
    cfg.validate()
    problem = ElasticityProblem(cfg.edges, cfg.alpha, cfg.cells)
    spectrum, result = solve_problem(problem, cfg.m, cfg.tol, cfg.seed)
    if cfg.dump_matrices:
        # the solve is matrix-free; CSR is built here for the export only
        K, M, _ = assemble(problem)
        os.makedirs(cfg.dump_matrices, exist_ok=True)
        for name, mat in (("K", K), ("M", M)):
            dump = os.path.join(cfg.dump_matrices, f"{name}.mtx")
            write_matrix_market(dump, mat, comment=f" {name} "
                                f"{problem.mesh_label()} alpha={cfg.alpha:g}")
            back = read_matrix_market(dump)
            if not np.array_equal(back.data, mat.data):
                raise RuntimeError(f"matrix dump round-trip failed for {name}")
    if cfg.output_path:
        write_spectrum(cfg.output_path, spectrum)
    return spectrum, result


def _richardson(cfg):
    """Solve at N and 2N, extrapolate, and derive per-index budgets."""
    problem = ElasticityProblem(cfg.edges, cfg.alpha, cfg.cells)
    coarse, _ = solve_problem(problem, cfg.m, cfg.tol, cfg.seed)
    fine, _ = solve_problem(problem.refined(), cfg.m, cfg.tol, cfg.seed)
    extrap = (4.0 * fine.values - coarse.values) / 3.0
    order = np.argsort(extrap, kind="stable")
    extrap = extrap[order]
    budget = np.abs(fine.values - coarse.values)[order]
    spectrum = Spectrum(problem.dim, cfg.alpha, extrap, source="computed",
                        mesh=f"richardson({problem.mesh_label()},"
                             f"{problem.refined().mesh_label()})")
    rel = budget / np.maximum(np.abs(extrap), 1e-300)
    return spectrum, rel


def run_verify(cfg):
    """Evaluate every bound on a computed or file-loaded spectrum."""
    cfg.validate()
    eps = cfg.fixed_tolerance()
    geometry = None
    if cfg.spectrum_path is not None:
        spectrum = read_spectrum(cfg.spectrum_path)
        if len(spectrum) < cfg.k_max + 1:
            raise ConfigError(
                f"verify.k_max = {cfg.k_max} needs {cfg.k_max + 1} "
                f"eigenvalues; {cfg.spectrum_path} has {len(spectrum)}")
        tolerance = VerifyTolerance(rel=eps)
        mesh = f"file:{os.path.basename(cfg.spectrum_path)}"
    elif cfg.policy == "richardson":
        spectrum, budget_rel = _richardson(cfg)
        tolerance = VerifyTolerance(rel=eps, per_index_rel=budget_rel)
        geometry = DomainGeometry(len(cfg.edges), cfg.edges)
        mesh = spectrum.mesh
    else:
        problem = ElasticityProblem(cfg.edges, cfg.alpha, cfg.cells)
        spectrum, _ = solve_problem(problem, cfg.m, cfg.tol, cfg.seed)
        tolerance = VerifyTolerance(rel=eps)
        geometry = DomainGeometry(problem.dim, cfg.edges)
        mesh = spectrum.mesh
    records = evaluate_all(spectrum, cfg.k_max, geometry=geometry,
                           tolerance=tolerance)
    report = VerificationReport(
        cfg.echo(), records,
        spectrum={
            "n": spectrum.dim,
            "alpha": spectrum.alpha,
            "source": spectrum.source,
            "mesh": spectrum.mesh,
            "values": [float(v) for v in spectrum.values],
            "residuals": None if spectrum.residuals is None
            else [float(r) for r in spectrum.residuals],
        },
        provenance={"version": __version__, "seed": cfg.seed, "mesh": mesh,
                    "solver_tol": cfg.tol})
    _emit(report, cfg)
    return report


def _cap_equality_record(name, target, value, band):
    slack = band - abs(value - target)
    return BoundRecord(name, "cap_equality", 1, target, value, slack,
                       _verdict(slack, band),
                       f"equality within slack {band:.3g}")


def _cap_lower_record(name, bound, value, band, strict, note=""):
    slack = value - bound
    # a strict inequality passes only with slack beyond the error band
    verdict = "marginal" if strict and 0 <= slack <= band \
        else _verdict(slack, band)
    return BoundRecord(name, "cap_strict_lower" if strict else "cap_lower",
                       1, bound, value, slack, verdict, note)


def _cap_roundoff(theta0, cells, scale):
    """Double-precision floor of the h^(-4)-conditioned biharmonic pencils.

    Richardson differences cannot see this error (it does not shrink under
    refinement), so it enters the verdict band separately.
    """
    return 64.0 * np.finfo(float).eps * (cells / theta0) ** 4 \
        * max(1.0, abs(scale))


def run_cap(cfg):
    """First-eigenvalue suite on a spherical cap, Richardson-extrapolated."""
    cfg.validate()
    eps = cfg.fixed_tolerance()
    kinds = CAP_KINDS if cfg.cap_kind == "all" else \
        ("dirichlet_laplacian", cfg.cap_kind)
    kinds = tuple(dict.fromkeys(kinds))  # keep order, drop duplicates
    values, bands = {}, {}
    for kind in kinds:
        coarse = solve_cap(CapProblem(cfg.theta0, kind, cfg.mode_max,
                                      cfg.radial_cells)).value
        fine = solve_cap(CapProblem(cfg.theta0, kind, cfg.mode_max,
                                    2 * cfg.radial_cells)).value
        values[kind] = (4.0 * fine - coarse) / 3.0
        floor = eps if kind == "dirichlet_laplacian" else \
            _cap_roundoff(cfg.theta0, 2 * cfg.radial_cells, values[kind])
        bands[kind] = max(eps, abs(fine - coarse), floor)

    n = 2  # caps live in the round 2-sphere
    cap = CapProblem(cfg.theta0, "dirichlet_laplacian", cfg.mode_max,
                     cfg.radial_cells)
    hypothesis_ok = cap.boundary_mean_curvature_nonneg
    exploratory = "" if hypothesis_ok else "exploratory (no claim here)"
    records = []
    lam = values.get("dirichlet_laplacian")
    if "clamped" in values:
        records.append(_cap_lower_record(
            "clamped_vs_n_lambda1", n * lam, values["clamped"],
            bands["clamped"] + n * bands["dirichlet_laplacian"],
            strict=True, note=exploratory))
    if "buckling" in values:
        records.append(_cap_lower_record(
            "buckling_vs_n", float(n), values["buckling"],
            bands["buckling"], strict=True, note=exploratory))
    for kind, name, bound, band_extra in (
            ("p_problem", "p1_vs_n_lambda1", None, "dirichlet_laplacian"),
            ("q_problem", "q1_vs_n", float(n), None)):
        if kind not in values:
            continue
        bound_val = n * lam if bound is None else bound
        band = bands[kind] + (n * bands[band_extra] if band_extra else 0.0)
        if hypothesis_ok:
            records.append(_cap_lower_record(name, bound_val, values[kind],
                                             band, strict=False))
        else:
            records.append(BoundRecord(
                name, "cap_lower", 1, bound_val, values[kind],
                values[kind] - bound_val, "skip",
                "hypothesis not satisfied: boundary mean curvature < 0"))
    if cap.hemisphere:
        records.append(_cap_equality_record(
            "lambda1_hemisphere", float(n), lam,
            max(bands["dirichlet_laplacian"], 0.005 * n)))
        if "p_problem" in values:
            records.append(_cap_equality_record(
                "p1_hemisphere", float(n * n), values["p_problem"],
                max(bands["p_problem"], 0.005 * n * n)))
        if "q_problem" in values:
            records.append(_cap_equality_record(
                "q1_hemisphere", float(n), values["q_problem"],
                max(bands["q_problem"], 0.005 * n)))

    report = VerificationReport(
        cfg.echo(), records,
        provenance={"version": __version__,
                    "mesh": f"radial({cfg.radial_cells},{2 * cfg.radial_cells})",
                    "theta0": cfg.theta0,
                    "values": {k: values[k] for k in values},
                    "budgets": {k: bands[k] for k in bands}})
    _emit(report, cfg)
    return report


def _emit(report, cfg):
    if not cfg.output_path:
        return
    if cfg.output_format == "csv":
        with open(cfg.output_path, "w", encoding="ascii") as fh:
            fh.write(render_csv(report.records))
    else:
        save_report(report, cfg.output_path)


def worker_count():
    """Worker cap from ELASTICA_THREADS; 0 means auto, unset means 1."""
    raw = os.environ.get(THREADS_ENV, "1")
    try:
        n = int(raw)
    except ValueError:
        raise ConfigError(f"{THREADS_ENV} must be an integer, got {raw!r}")
    if n < 0:
        raise ConfigError(f"{THREADS_ENV} must be >= 0")
    return n or (os.cpu_count() or 1)


def run_verify_sweep(configs):
    """Run independent verify cases, in parallel when allowed.

    Results come back in input order regardless of scheduling, so sweep
    output is deterministic.
    """
    configs = list(configs)
    workers = min(worker_count(), max(len(configs), 1))
    if workers <= 1 or len(configs) <= 1:
        return [run_verify(c) for c in configs]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(run_verify, configs))

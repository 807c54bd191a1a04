"""Run orchestration: configs, spectrum files, Richardson verification.

A run config is a flat key = value text file (or CLI overrides); unknown
keys are errors so typos cannot silently fall back to defaults.  The
``verify`` flow solves the box problem at the configured mesh and at double
resolution, extrapolates eigenvalues by (4 σ_2N − σ_N)/3 and uses
|σ_2N − σ_N| as the per-eigenvalue error budget when judging strict
inequalities on approximate spectra; the ``cap`` flow extrapolates its
first eigenvalues the same way (:func:`_extrapolate`).  Both take their
base relative band from ``VerifyTolerance.rel``; only box runs read
``verify.policy``.
"""

from __future__ import annotations

import math
import os
import re
from dataclasses import dataclass, replace

import numpy as np

from .assembly import (ElasticityProblem, assemble, box_operators,
                       chebyshev, class_orbits, galerkin_start,
                       laplacian_inverse)
from .bounds import (DomainGeometry, Spectrum, VerifyTolerance, evaluate_all,
                     make_record)
from .cap1d import CAP_KINDS, CapProblem, solve_cap
from .eigensolve import smallest_eigenpairs
from .report import VerificationReport, render_csv, save_report
from .sparse import read_matrix_market, write_matrix_market


class ConfigError(ValueError):
    """Bad configuration key, value or referenced path."""


class SpectrumFileError(ValueError):
    """Malformed or inconsistent spectrum file."""


def parse_floats(text):
    """Comma/space separated numbers, each taking :func:`parse_angle` forms."""
    return tuple(parse_angle(t) for t in re.split(r"[,\s]+", text.strip())
                 if t)


def parse_ints(text):
    return tuple(int(t) for t in re.split(r"[,\s]+", text.strip()) if t)


def parse_angle(text):
    """Plain float, or small multiples of pi like 'pi/2' or '2pi/3'."""
    text = text.strip().lower()
    m = re.fullmatch(r"(\d+(?:\.\d+)?)?\s*pi\s*(?:/\s*(\d+(?:\.\d+)?))?", text)
    if m:
        num = float(m.group(1)) if m.group(1) else 1.0
        den = float(m.group(2)) if m.group(2) else 1.0
        if den == 0:
            raise ValueError(f"zero denominator in {text!r}")
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

#: ``fixed:eps`` takes an unsigned decimal eps: only overflow makes it inf
_POLICY_RE = re.compile(
    r"fixed(?::((?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?))?$|richardson$")
OUTPUT_FORMATS = ("json", "csv")
#: largest box mesh: cells per axis, and unknowns dim·Π(cells − 1)
MESH_MAX_CELLS, MESH_MAX_ORDER = 1024, 2 ** 21
#: largest α of a box solve: each preconditioner apply takes about
#: 0.88·√α K applies (:func:`~elastica.assembly.chebyshev`), 89 at 1e4
ALPHA_MAX = 1e4
#: box edges of a solve: below about 1e-75 the bound sums of σ ~ edge⁻²
#: overflow, and from 1e6 in 3D (1e8 in 2D) LOBPCG stalls at solver.tol
#: 1e-8, its residual floor growing like ε·edge^(n/2)
EDGE_MIN, EDGE_MAX = 1e-60, 1e4
#: largest cap run: radial cells (the coarse mesh) and azimuthal mode
CAP_MAX_CELLS, CAP_MAX_MODE = 4096, 1024
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
        if self.mode not in ("solve", "bounds", "verify", "cap"):
            raise ConfigError(f"unknown mode {self.mode!r}")
        if not _POLICY_RE.fullmatch(self.policy) \
                or self.fixed_tolerance() == math.inf:
            raise ConfigError(
                f"verify.policy must be 'richardson' or 'fixed[:eps]' with "
                f"a finite eps >= 0, got {self.policy!r}")
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
        # every report echoes these, whether or not the run uses them
        if not all(0 < e < math.inf for e in self.edges):
            raise ConfigError("domain.edges must be positive and finite")
        if not 0 <= self.alpha < math.inf:
            raise ConfigError("domain.alpha must be finite and non-negative")
        if not math.isfinite(self.theta0):
            raise ConfigError("cap.theta0 must be finite")
        if self.mode in ("verify", "bounds") and self.spectrum_path is None \
                and self.m < self.k_max + 1:
            raise ConfigError(
                f"solver.m = {self.m} cannot cover verify.k_max = "
                f"{self.k_max}; need solver.m >= {self.k_max + 1}")
        solves = self.mode == "solve" or (
            self.mode in ("verify", "bounds") and self.spectrum_path is None)
        # upper limits, checked before any array is sized from them
        for key, value, top in (
                ("cap.mode_max", self.mode_max, CAP_MAX_MODE),
                ("cap.cells", self.radial_cells, CAP_MAX_CELLS)):
            if self.mode == "cap" and value > top:
                raise ConfigError(f"{key} out of range: at most {top}")
        try:
            # the problem constructors re-validate edges, cells and angles
            if solves:
                box = ElasticityProblem(self.edges, self.alpha, self.cells)
            if self.mode == "cap":  # Richardson solves at cells and 2·cells
                for cells in (self.radial_cells, 2 * self.radial_cells):
                    CapProblem(self.theta0, "dirichlet_laplacian",
                               self.mode_max, cells)
        except ValueError as err:
            raise ConfigError(str(err)) from None
        if solves:
            # LOBPCG needs m <= order/4; Richardson's coarse mesh is the limit
            order = box.order
            if max(box.cells) > MESH_MAX_CELLS or order > MESH_MAX_ORDER:
                raise ConfigError(
                    f"mesh.cells out of range: at most {MESH_MAX_CELLS} "
                    f"per axis and {MESH_MAX_ORDER} unknowns, got "
                    f"{box.mesh_label()}")
            if self.m > order // 4:
                raise ConfigError(
                    f"solver.m = {self.m} exceeds order/4 = {order // 4} "
                    f"of the {box.mesh_label()} mesh")
            if box.alpha > ALPHA_MAX:
                raise ConfigError(f"domain.alpha out of range: at most "
                                  f"{ALPHA_MAX:g}, got {box.alpha:g}")
            if not EDGE_MIN <= min(box.edges) <= max(box.edges) <= EDGE_MAX:
                raise ConfigError(f"domain.edges out of range: each in "
                                  f"[{EDGE_MIN:g}, {EDGE_MAX:g}]")
        if self.spectrum_path is not None \
                and not os.path.exists(self.spectrum_path):
            raise ConfigError(f"spectrum file not found: {self.spectrum_path}")
        return self

    def fixed_tolerance(self):
        """The eps of ``fixed:eps``, else the default base band."""
        m = _POLICY_RE.fullmatch(self.policy)
        return float(m.group(1)) if m and m.group(1) else VerifyTolerance.rel

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
    for pair in pairs:
        if "=" not in pair:
            raise ConfigError(f"override must be key=value, got {pair!r}")
    return parse_config_text("\n".join(pairs), base=cfg, source="--set")


# ---------------------------------------------------------------------------
# spectrum files: header "n alpha count", then "index value [residual]"

def write_spectrum(path, spectrum):
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{spectrum.dim} {spectrum.alpha:.17g} {len(spectrum)}\n")
        for i, v in enumerate(spectrum.values, 1):
            residual = "" if spectrum.residuals is None \
                else f" {spectrum.residuals[i - 1]:.17g}"
            fh.write(f"{i} {v:.17g}{residual}\n")


def read_spectrum(path):
    rows = []
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
        for i in range(count):
            parts = fh.readline().split()
            if len(parts) not in (2, 3):
                raise SpectrumFileError(
                    f"line {i + 2}: expected 'index value [residual]'")
            if rows and len(parts) != len(rows[0]) + 1:
                raise SpectrumFileError(
                    f"line {i + 2}: column count differs from line 2")
            try:
                index = int(parts[0])
                rows.append([float(p) for p in parts[1:]])
            except ValueError as err:
                raise SpectrumFileError(f"line {i + 2}: {err}") from None
            if index != i + 1:
                raise SpectrumFileError(f"line {i + 2}: index out of order")
        for lineno, line in enumerate(fh, count + 2):
            if line.strip():
                raise SpectrumFileError(
                    f"line {lineno}: data past the declared count {count}")
    columns = np.array(rows).T
    residuals = columns[1] if len(columns) == 2 else None
    source = "computed" if residuals is not None else "synthetic"
    try:
        return Spectrum(dim, alpha, columns[0], source=source,
                        residuals=residuals)
    except ValueError as err:
        raise SpectrumFileError(str(err)) from None


# ---------------------------------------------------------------------------
# runs

def solve_problem(problem, m, tol, seed):
    """Solve the box pencil; returns (Spectrum, EigenResult).

    LOBPCG runs in class-major sine coordinates (:func:`box_operators`: M
    and K(0) diagonal, K(α)'s grad-div couplings dense), one block per
    reflection-parity class, preconditioned by Chebyshev steps on
    [1, 1+α] around K(0)⁻¹, a division by its symbol; no CSR matrix is
    assembled.  Of each orbit of classes under the box's axis
    permutations (:func:`class_orbits`) only the representative is
    solved, its images counted as its copies: :func:`box_operators` builds
    K̂, M̂ and K̂₀ = K(0) on the representatives' coordinates alone, from
    one table of 1D sine factors, so K(0)⁻¹, the Chebyshev steps and the
    start live there too.  The first m columns of the starting block
    are the per-class Ritz vectors of :func:`galerkin_start`, the rest
    random from ``seed`` (see :func:`smallest_eigenpairs`).  The vectors
    stay in these reduced coordinates, column i a vector of its class's
    representative; ``EigenResult.classes`` gives each pair's parity class
    by number, and :meth:`ClassOrbits.expand` and the inverse sine
    transform carry them to nodal values.  The blocks make the path differ
    from a nodal solve's, not the eigenpairs it converges to.  Residuals
    are explicit in sine coordinates; the transform is orthogonal, so they
    equal the nodal ones up to its rounding.
    """
    K, M, K0 = box_operators(problem)
    precond = chebyshev(K, laplacian_inverse(K0), problem.alpha)
    result = smallest_eigenpairs(
        K, M, m, tol=tol, seed=seed, precond=precond,
        start=galerkin_start(K, M, m), blocks=K.blocks,
        classes=class_orbits(problem).classes)
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


def _extrapolate(coarse, fine):
    """Order-h² Richardson value (4·fine − coarse)/3, budget |fine − coarse|."""
    return (4.0 * fine - coarse) / 3.0, abs(fine - coarse)


def _richardson(cfg):
    """Solve at N and 2N, extrapolate, and derive per-index budgets."""
    problem = ElasticityProblem(cfg.edges, cfg.alpha, cfg.cells)
    coarse, _ = solve_problem(problem, cfg.m, cfg.tol, cfg.seed)
    fine, _ = solve_problem(problem.refined(), cfg.m, cfg.tol, cfg.seed)
    extrap, budget = _extrapolate(coarse.values, fine.values)
    order = np.argsort(extrap, kind="stable")
    extrap, budget = extrap[order], budget[order]
    spectrum = Spectrum(problem.dim, cfg.alpha, extrap, source="computed",
                        mesh=f"richardson({problem.mesh_label()},"
                             f"{problem.refined().mesh_label()})")
    rel = budget / np.maximum(np.abs(extrap), 1e-300)
    return spectrum, rel


def run_verify(cfg):
    """Evaluate every bound on a computed or file-loaded spectrum."""
    cfg.validate()
    geometry = budget_rel = None
    if cfg.spectrum_path is not None:
        spectrum = read_spectrum(cfg.spectrum_path)
        if len(spectrum) < cfg.k_max + 1:
            raise ConfigError(
                f"verify.k_max = {cfg.k_max} needs {cfg.k_max + 1} "
                f"eigenvalues; {cfg.spectrum_path} has {len(spectrum)}")
        mesh = f"file:{os.path.basename(cfg.spectrum_path)}"
    else:
        if cfg.policy == "richardson":
            spectrum, budget_rel = _richardson(cfg)
        else:
            problem = ElasticityProblem(cfg.edges, cfg.alpha, cfg.cells)
            spectrum, _ = solve_problem(problem, cfg.m, cfg.tol, cfg.seed)
        geometry = DomainGeometry(len(cfg.edges), math.prod(cfg.edges))
        mesh = spectrum.mesh
    tolerance = VerifyTolerance(rel=cfg.fixed_tolerance(),
                                per_index_rel=budget_rel)
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
        provenance={"seed": cfg.seed, "mesh": mesh, "solver_tol": cfg.tol})
    _emit(report, cfg)
    return report


CAP_DIM = 2  # caps live in the round 2-sphere
#: smallest hemisphere equality band, relative to the exact value
CAP_EQUALITY_FLOOR = 0.005
#: kind -> (lower record, bound n·λ₁ or n, strict, hemisphere record, exact)
CAP_RECORDS = {
    "dirichlet_laplacian": (None, False, False, "lambda1_hemisphere", 2.0),
    "clamped": ("clamped_vs_n_lambda1", True, True, None, None),
    "buckling": ("buckling_vs_n", False, True, None, None),
    "p_problem": ("p1_vs_n_lambda1", True, False, "p1_hemisphere", 4.0),
    "q_problem": ("q1_vs_n", False, False, "q1_hemisphere", 2.0),
}


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
    eps = VerifyTolerance.rel
    kinds = CAP_KINDS if cfg.cap_kind == "all" else \
        ("dirichlet_laplacian", cfg.cap_kind)
    kinds = tuple(dict.fromkeys(kinds))  # keep order, drop duplicates
    values, bands = {}, {}
    for kind in kinds:
        coarse = solve_cap(CapProblem(cfg.theta0, kind, cfg.mode_max,
                                      cfg.radial_cells))
        # each fine mode solve starts from its coarse eigenvector
        fine = solve_cap(replace(coarse.problem,
                                 radial_cells=2 * cfg.radial_cells),
                         start=coarse)
        values[kind], budget = _extrapolate(coarse.value, fine.value)
        floor = eps if kind == "dirichlet_laplacian" else \
            _cap_roundoff(cfg.theta0, 2 * cfg.radial_cells, values[kind])
        bands[kind] = max(eps, budget, floor)

    cap = CapProblem(cfg.theta0, "dirichlet_laplacian", cfg.mode_max,
                     cfg.radial_cells)
    hypothesis_ok = cap.boundary_mean_curvature_nonneg
    lam, lam_band = values["dirichlet_laplacian"], bands["dirichlet_laplacian"]
    records = []
    for kind in values:
        name, times_lambda1, strict = CAP_RECORDS[kind][:3]
        if name is None:
            continue
        bound = CAP_DIM * lam if times_lambda1 else float(CAP_DIM)
        band = bands[kind] + (CAP_DIM * lam_band if times_lambda1 else 0.0)
        record_kind, sense = (("cap_strict_lower", "strict lower") if strict
                              else ("cap_lower", "lower"))
        record = make_record(name, record_kind, 1, bound, values[kind], band,
                             sense)
        # the paper claims nothing where the rim's mean curvature is < 0
        if not hypothesis_ok and strict:
            record = replace(record, note="exploratory (no claim here)")
        elif not hypothesis_ok:
            record = replace(record, verdict="skip", note=(
                "hypothesis not satisfied: boundary mean curvature < 0"))
        records.append(record)
    for kind in values:
        name, exact = CAP_RECORDS[kind][3:]
        if cap.hemisphere and name is not None:
            band = max(bands[kind], CAP_EQUALITY_FLOOR * exact)
            records.append(make_record(name, "cap_equality", 1, exact,
                                       values[kind], band, "equality",
                                       f"equality within slack {band:.3g}"))

    report = VerificationReport(
        cfg.echo(), records,
        provenance={"mesh": f"radial({cfg.radial_cells},"
                            f"{2 * cfg.radial_cells})",
                    "theta0": cfg.theta0, "values": values, "budgets": bands})
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

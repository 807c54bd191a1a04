"""Run orchestration: configs, spectrum files, Richardson verification.

A run config is a flat key = value text file (or CLI overrides); unknown
keys are errors so typos cannot silently fall back to defaults.  The
``verify`` flow solves the box problem at the configured mesh and at double
resolution, extrapolates eigenvalues by (4 σ_2N − σ_N)/3 and uses
|σ_2N − σ_N| as the per-eigenvalue error budget when judging strict
inequalities on approximate spectra.  The ``cap`` flow solves at two radial
resolutions too, but reports its fine first eigenvalues unextrapolated,
each a conforming upper bound, with |fine − coarse| as their budgets.
Both take their base relative band from ``VerifyTolerance.rel``; only box
runs read ``verify.policy``.  The records they judge are rows of
:mod:`.bounds`.
"""

from __future__ import annotations

import math
import os
import re
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .assembly import (ElasticityProblem, assemble, box_operators,
                       chebyshev, galerkin_start, laplacian_inverse)
from .bounds import (DomainGeometry, Spectrum, VerifyTolerance, evaluate_all,
                     evaluate_cap)
from .cap1d import CAP_KINDS, CapProblem, solve_cap
from .eigensolve import smallest_eigenpairs
from .report import VerificationReport, read_text, save_report
from .sparse import (MatrixFormatError, read_matrix_market,
                     write_matrix_market)


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


#: ``fixed:eps`` takes an unsigned decimal eps: only overflow makes it inf
_POLICY_RE = re.compile(
    r"fixed(?::((?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?))?$|richardson$")
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


def _key(key, parse, default):
    """A RunConfig field that config key ``key`` sets from ``parse(text)``."""
    return field(default=default, metadata={"key": key, "parse": parse})


@dataclass(frozen=True)
class RunConfig:
    """Validated run parameters; one instance drives one run.

    Every field but ``mode`` is one config key, declared here with its
    value parser, in report echo order (:data:`CONFIG_KEYS`).
    """

    mode: str = "verify"
    edges: tuple[float, ...] = _key("domain.edges", parse_floats,
                                    (math.pi, math.pi))
    alpha: float = _key("domain.alpha", float, 0.0)
    cells: tuple[int, ...] = _key("mesh.cells", parse_ints, (32, 32))
    m: int = _key("solver.m", int, 12)
    tol: float = _key("solver.tol", float, 1e-8)
    seed: int = _key("solver.seed", int, 2024)
    k_max: int = _key("verify.k_max", int, 10)
    policy: str = _key("verify.policy", str, "richardson")
    theta0: float = _key("cap.theta0", parse_angle, math.pi / 2)
    cap_kind: str = _key("cap.kind", str, "all")
    mode_max: int = _key("cap.mode_max", int, 8)
    radial_cells: int = _key("cap.cells", int, 64)
    spectrum_path: str | None = _key("spectrum.path", str, None)
    output_path: str | None = _key("output.path", str, None)

    def validate(self):
        if self.mode not in ("solve", "verify", "cap"):
            raise ConfigError(f"unknown mode {self.mode!r}")
        if not _POLICY_RE.fullmatch(self.policy) \
                or self.fixed_tolerance() == math.inf:
            raise ConfigError(
                f"verify.policy must be 'richardson' or 'fixed[:eps]' with "
                f"a finite eps >= 0, got {self.policy!r}")
        if self.cap_kind not in CAP_RUN_KINDS:
            raise ConfigError(f"cap.kind must be one of {CAP_RUN_KINDS}")
        if not 1 <= self.k_max <= 10_000:
            raise ConfigError("verify.k_max out of range [1, 10000]")
        if not 1 <= self.m <= 10_000:
            raise ConfigError("solver.m out of range [1, 10000]")
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
        if self.mode == "verify" and self.spectrum_path is None \
                and self.m < self.k_max + 1:
            raise ConfigError(
                f"solver.m = {self.m} cannot cover verify.k_max = "
                f"{self.k_max}; need solver.m >= {self.k_max + 1}")
        solves = self.mode == "solve" or (
            self.mode == "verify" and self.spectrum_path is None)
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
            if self.mode == "cap":  # a cap run solves at cells and 2·cells
                cap = CapProblem(self.theta0, self.mode_max,
                                 self.radial_cells).refined()
        except ValueError as err:
            raise ConfigError(str(err)) from None
        # λ₁ alone is judged only by the hemisphere equality
        if self.mode == "cap" and self.cap_kind == "dirichlet_laplacian" \
                and not cap.hemisphere:
            raise ConfigError(
                f"cap.kind = dirichlet_laplacian judges nothing at "
                f"cap.theta0 = {self.theta0:g}: its one record is the "
                f"hemisphere equality, at cap.theta0 = pi/2")
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


#: config key -> (RunConfig field, value parser), in report echo order
CONFIG_KEYS = {f.metadata["key"]: (f.name, f.metadata["parse"])
               for f in fields(RunConfig) if f.metadata}


def _configured(cfg, entries):
    """``cfg`` with each (where, "key = value") entry set, its value all
    after the first ``=``; ``where`` names the entry in errors."""
    updates = {}
    for where, entry in entries:
        if "=" not in entry:
            raise ConfigError(f"{where}: expected key = value, got {entry!r}")
        key, value = (part.strip() for part in entry.split("=", 1))
        if key not in CONFIG_KEYS:
            raise ConfigError(f"{where}: unknown key {key!r}")
        name, parse = CONFIG_KEYS[key]
        try:
            updates[name] = parse(value)
        except ValueError as err:
            raise ConfigError(
                f"{where}: bad value for {key}: {err}") from None
    return replace(cfg, **updates)


def parse_config_text(text, base=None, source="<config>"):
    """Config-file text: one ``key = value`` a line, ``#`` comments."""
    lines = ((f"{source}:{lineno}", raw.split("#", 1)[0].strip())
             for lineno, raw in enumerate(text.splitlines(), 1))
    return _configured(base or RunConfig(),
                       [(where, line) for where, line in lines if line])


def load_config(path, base=None):
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    return parse_config_text(read_text(path, "utf-8", ConfigError),
                             base=base, source=path)


def apply_overrides(cfg, pairs):
    """Apply ``--set key=value`` overrides, each one key: no comments."""
    return _configured(cfg, [("--set", pair) for pair in pairs])


# ---------------------------------------------------------------------------
# spectrum files: header "n alpha count", then "index value [residual]"

def format_spectrum(spectrum):
    """The text of a spectrum file, as ``solve`` writes it to a file or to
    stdout."""
    lines = [f"{spectrum.dim} {spectrum.alpha:.17g} {len(spectrum)}"]
    for i, v in enumerate(spectrum.values, 1):
        residual = "" if spectrum.residuals is None \
            else f" {spectrum.residuals[i - 1]:.17g}"
        lines.append(f"{i} {v:.17g}{residual}")
    return "\n".join(lines) + "\n"


def write_spectrum(path, spectrum):
    with open(path, "w", encoding="ascii") as fh:
        fh.write(format_spectrum(spectrum))


def read_spectrum(path):
    rows = []
    lines = iter(read_text(path, "ascii", SpectrumFileError).split("\n"))
    header = next(lines, "").split()
    if len(header) != 3:
        raise SpectrumFileError("header must be 'n alpha count'")
    try:
        dim, alpha, count = int(header[0]), float(header[1]), int(header[2])
    except ValueError as err:
        raise SpectrumFileError(f"bad header: {err}") from None
    if count < 1:
        raise SpectrumFileError("header count must be >= 1")
    for i in range(count):
        parts = next(lines, "").split()
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
    for lineno, line in enumerate(lines, count + 2):
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
    reflection-parity class, preconditioned by Chebyshev steps on [1, 1+α]
    around K(0)⁻¹, a division by its symbol; no CSR matrix is assembled.
    Of each orbit of classes under the box's axis permutations
    (:func:`~elastica.assembly.class_orbits`) only the representative is
    solved, its images counted as its copies: :func:`box_operators` builds
    K̂, M̂ and K̂₀ = K(0) on the representatives' coordinates alone, from
    one table of 1D sine factors, so K(0)⁻¹, the Chebyshev steps and the
    start live there too, and K̂ carries the layout LOBPCG solves
    (``K̂.blocks``, ``K̂.classes``).  The first m columns of the starting
    block are the per-class Ritz vectors of :func:`galerkin_start`, the
    rest random from ``seed`` (see :func:`smallest_eigenpairs`).  The
    vectors stay in these reduced coordinates, column i a vector of its
    class's representative; ``EigenResult.classes`` gives each pair's
    parity class by number.  No run reads the vectors; carried onto that
    class by its axis permutation, then through Qᵀ (Q as in
    :func:`box_operators`), they are nodal eigenvectors.  The blocks make
    the path differ from a nodal solve's, not the eigenpairs it converges
    to.  Residuals are explicit in sine coordinates; the transform is
    orthogonal, so they equal the nodal ones up to its rounding.
    """
    K, M, K0 = box_operators(problem)
    precond = chebyshev(K, laplacian_inverse(K0), problem.alpha)
    result = smallest_eigenpairs(K, M, m, tol=tol, seed=seed,
                                 precond=precond,
                                 start=galerkin_start(K, M, m))
    spectrum = Spectrum(problem.dim, problem.alpha, result.values,
                        source="computed", mesh=problem.mesh_label(),
                        residuals=result.residuals, solver_tol=tol)
    return spectrum, result


def run_solve(cfg, dump=None):
    """Solve the configured box; ``dump`` names a directory that gets its
    assembled K.mtx and M.mtx, round-trip checked."""
    cfg.validate()
    problem = ElasticityProblem(cfg.edges, cfg.alpha, cfg.cells)
    spectrum, result = solve_problem(problem, cfg.m, cfg.tol, cfg.seed)
    if dump:
        # the solve is matrix-free; CSR is built here for the export only
        K, M, _ = assemble(problem)
        os.makedirs(dump, exist_ok=True)
        for name, mat in (("K", K), ("M", M)):
            path = os.path.join(dump, f"{name}.mtx")
            write_matrix_market(path, mat, comment=f" {name} "
                                f"{problem.mesh_label()} alpha={cfg.alpha:g}")
            back = read_matrix_market(path)
            if back.order != mat.order or not all(
                    np.array_equal(getattr(back, part), getattr(mat, part))
                    for part in ("indptr", "indices", "data")):
                raise MatrixFormatError(
                    f"matrix dump round-trip failed: {path} reads back "
                    f"other than the assembled {name}")
    if cfg.output_path:
        write_spectrum(cfg.output_path, spectrum)
    return spectrum, result


def _richardson(cfg):
    """Solve at N and 2N, extrapolate by the order-h² step
    (4·fine − coarse)/3, and take |fine − coarse| as per-index budgets."""
    problem = ElasticityProblem(cfg.edges, cfg.alpha, cfg.cells)
    # only the spectra are kept: the coarse eigenvectors are freed before
    # the fine solve
    coarse = solve_problem(problem, cfg.m, cfg.tol, cfg.seed)[0]
    fine = solve_problem(problem.refined(), cfg.m, cfg.tol, cfg.seed)[0]
    extrap = (4.0 * fine.values - coarse.values) / 3.0
    budget = np.abs(fine.values - coarse.values)
    meshes = f"{problem.mesh_label()},{problem.refined().mesh_label()}"
    if np.any(extrap <= 0):  # Q1 locking: the coarse mesh is too coarse
        i = int(np.argmax(extrap <= 0))
        raise ConfigError(
            f"Richardson extrapolation of sigma_{i + 1} from the {meshes} "
            f"meshes at alpha = {cfg.alpha:g} is {extrap[i]:.3g} <= 0; "
            f"raise mesh.cells")
    order = np.argsort(extrap, kind="stable")
    extrap, budget = extrap[order], budget[order]
    spectrum = Spectrum(problem.dim, cfg.alpha, extrap, source="computed",
                        mesh=f"richardson({meshes})")
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
            spectrum = solve_problem(problem, cfg.m, cfg.tol, cfg.seed)[0]
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
    if cfg.output_path:
        save_report(report, cfg.output_path)
    return report


def _cap_roundoff(theta0, cells, scale):
    """Double-precision floor of the h^(-4)-conditioned biharmonic pencils.

    The fine − coarse difference cannot see this error (it does not shrink
    under refinement), so it enters the verdict band separately.
    """
    return 64.0 * np.finfo(float).eps * (cells / theta0) ** 4 \
        * max(1.0, abs(scale))


def run_cap(cfg):
    """First-eigenvalue suite on a spherical cap.

    The requested kinds are solved together at ``cap.cells`` and at twice
    that (:func:`~elastica.cap1d.solve_cap`), so they share each mode's
    bands and each stiffness's factor.  Each kind reports its fine value,
    the Gram quotient of a function meeting its constraints and so an upper
    bound up to quadrature, with |fine − coarse| as its budget: the h²
    Richardson step would put values that converge like h⁴ below the exact
    ones.
    """
    cfg.validate()
    eps = VerifyTolerance.rel
    kinds = CAP_KINDS if cfg.cap_kind == "all" else \
        dict.fromkeys(("dirichlet_laplacian", cfg.cap_kind))  # λ₁ once
    problem = CapProblem(cfg.theta0, cfg.mode_max, cfg.radial_cells)
    coarse = solve_cap(problem, kinds)
    # each fine mode solve starts from its coarse eigenvector
    fine = solve_cap(problem.refined(), kinds, coarse)
    values, bands = {}, {}
    for kind in kinds:
        values[kind] = fine[kind].value
        floor = eps if kind == "dirichlet_laplacian" else \
            _cap_roundoff(cfg.theta0, 2 * cfg.radial_cells, values[kind])
        bands[kind] = max(eps, abs(values[kind] - coarse[kind].value), floor)

    records = evaluate_cap(values, bands,
                           problem.boundary_mean_curvature_nonneg,
                           problem.hemisphere)
    report = VerificationReport(
        cfg.echo(), records,
        provenance={"mesh": f"radial({cfg.radial_cells},"
                            f"{2 * cfg.radial_cells})",
                    "theta0": cfg.theta0, "values": values, "budgets": bands})
    if cfg.output_path:
        save_report(report, cfg.output_path)
    return report


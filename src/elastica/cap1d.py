"""First eigenvalues of Laplacian and biharmonic problems on spherical caps.

On the geodesic cap {θ <= θ₀} of the round unit 2-sphere, separation in the
azimuthal angle reduces every problem to radial pencils built from

    L_m u = u'' + cotθ u' − (m²/sin²θ) u,

self-adjoint in the weight sinθ dθ.  Per azimuthal mode m we assemble, with
C¹ Hermite cubic elements and Gauss quadrature (no quadrature point ever
touches the pole),

    W  = ∫ u v sinθ dθ                         (mass),
    A  = ∫ (u'v' + m² uv/sin²θ) sinθ dθ        (Dirichlet energy),
    S  = ∫ (L_m u)(L_m v) sinθ dθ              (squared-Laplacian energy),

and minimise Rayleigh quotients over the conforming subspace, so every
computed value bounds its continuous counterpart from above:

    dirichlet_laplacian  A/W  with u(θ₀)=0
    clamped              S/W  with u(θ₀)=u'(θ₀)=0
    buckling             S/A  with u(θ₀)=u'(θ₀)=0
    p_problem            (S − cosθ₀·u'(θ₀)²)/W  with u(θ₀)=0
    q_problem            (S − cosθ₀·u'(θ₀)²)/A  with u(θ₀)=0

The boundary-corrected form makes u''(θ₀)=0 the natural condition of the
p/q problems (the correction is cosθ₀ = sinθ₀ times the geodesic curvature
of the boundary circle), and u'(θ₀) is an explicit Hermite degree of
freedom.  Pole regularity is essential per mode: u'(0)=0 for m=0, u(0)=0
for m=1, both for m>=2, matching the θ^m behaviour of regular solutions.

Reported first eigenvalues are minima over modes m = 0..mode_max.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .eigensolve import FactorizationError, banded_smallest
from .sparse import BandedSymMatrix

# kind -> (numerator, metric, rim slope clamped, rim correction); numerator
# and metric name the W, A, S matrices of the module docstring
_KIND_TABLE = {
    "dirichlet_laplacian": ("A", "W", False, False),
    "clamped": ("S", "W", True, False),
    "buckling": ("S", "A", True, False),
    "p_problem": ("S", "W", False, True),
    "q_problem": ("S", "A", False, True),
}
CAP_KINDS = tuple(_KIND_TABLE)

_GAUSS_X = np.array([-0.9061798459386640, -0.5384693101056831, 0.0,
                     0.5384693101056831, 0.9061798459386640])
_GAUSS_W = np.array([0.2369268850561891, 0.4786286704993665,
                     0.5688888888888889, 0.4786286704993665,
                     0.2369268850561891])


@dataclass(frozen=True)
class CapProblem:
    """Cap half-angle, problem kind, azimuthal cutoff, radial resolution."""

    theta0: float
    kind: str
    mode_max: int = 8
    radial_cells: int = 256

    def __post_init__(self):
        if not 0.0 < self.theta0 < np.pi:
            raise ValueError("theta0 must lie in (0, pi)")
        if self.kind not in CAP_KINDS:
            raise ValueError(f"unknown cap problem kind {self.kind!r}")
        if self.mode_max < 0:
            raise ValueError("mode_max must be >= 0")
        if self.radial_cells < 16:
            raise ValueError("need at least 16 radial cells")

    @property
    def hemisphere(self):
        return abs(self.theta0 - np.pi / 2) <= 1e-12

    @property
    def boundary_mean_curvature_nonneg(self):
        return self.theta0 <= np.pi / 2 + 1e-12


@dataclass(frozen=True)
class ModeOperator:
    """Radial matrices of one azimuthal mode, constrained per problem kind."""

    m: int
    kind: str
    numerator: BandedSymMatrix
    metric: BandedSymMatrix
    removed: tuple[int, ...]
    ndof_full: int


def _hermite_tables(h):
    """Value/first/second derivative of the four shapes at the Gauss points.

    Shapes carry the physical scaling: slope DOFs multiply h so the DOF is
    du/dθ at the node.
    """
    t = 0.5 * (1.0 + _GAUSS_X)
    val = np.stack([
        1 - 3 * t ** 2 + 2 * t ** 3,
        h * (t - 2 * t ** 2 + t ** 3),
        3 * t ** 2 - 2 * t ** 3,
        h * (-t ** 2 + t ** 3),
    ])
    d1 = np.stack([
        (-6 * t + 6 * t ** 2) / h,
        1 - 4 * t + 3 * t ** 2,
        (6 * t - 6 * t ** 2) / h,
        -2 * t + 3 * t ** 2,
    ])
    d2 = np.stack([
        (-6 + 12 * t) / h ** 2,
        (-4 + 6 * t) / h,
        (6 - 12 * t) / h ** 2,
        (-2 + 6 * t) / h,
    ])
    return val, d1, d2


def _element_matrices(theta0, cells, m):
    """Per-element (cells, 4, 4) W, A, S; element e couples DOFs 2e..2e+3."""
    h = theta0 / cells
    val, d1, d2 = _hermite_tables(h)
    left = h * np.arange(cells)
    theta = left[:, None] + h * 0.5 * (1.0 + _GAUSS_X)[None, :]
    s = np.sin(theta)
    cot = np.cos(theta) / s
    inv2 = 1.0 / s ** 2
    wq = (0.5 * h) * _GAUSS_W[None, :] * s        # quadrature * weight sinθ

    lphi = d2[None, :, :] + cot[:, None, :] * d1[None, :, :] \
        - (m * m) * inv2[:, None, :] * val[None, :, :]
    mass_e = np.einsum("ag,bg,eg->eab", val, val, wq)
    grad_e = np.einsum("ag,bg,eg->eab", d1, d1, wq) \
        + (m * m) * np.einsum("ag,bg,eg->eab", val, val, wq * inv2)
    bilap_e = np.einsum("eag,ebg,eg->eab", lphi, lphi, wq)
    return {"W": mass_e, "A": grad_e, "S": bilap_e}


def _scatter_bands(elem, index, order):
    """Sum element matrices, in element order, into lower band storage.

    ``index`` maps each full DOF to its kept position, −1 if constrained.
    """
    dofs = index[2 * np.arange(len(elem))[:, None] + np.arange(4)[None, :]]
    rows, cols = np.broadcast_arrays(dofs[:, :, None], dofs[:, None, :])
    lower = (cols >= 0) & (rows >= cols)
    bands = np.zeros((4, order))
    np.add.at(bands, ((rows - cols)[lower], cols[lower]), elem[lower])
    return BandedSymMatrix(order, 3, bands)


def _pole_constraints(m):
    if m == 0:
        return (1,)          # u'(0) = 0, value at pole free
    if m == 1:
        return (0,)          # u(0) = 0, slope at pole free
    return (0, 1)


def build_mode_operator(theta0, cells, m, kind):
    """Constrained banded pencil (numerator, metric) for one mode."""
    if kind not in CAP_KINDS:
        raise ValueError(f"unknown cap problem kind {kind!r}")
    numerator, metric, slope_clamped, rim_corrected = _KIND_TABLE[kind]
    elem = _element_matrices(theta0, cells, m)
    ndof = 2 * (cells + 1)
    last_val, last_slope = ndof - 2, ndof - 1

    removed = list(_pole_constraints(m)) + [last_val]
    if slope_clamped:
        removed.append(last_slope)
    if rim_corrected:
        # boundary correction −cosθ₀ u'(θ₀)² makes u''(θ₀)=0 natural; the
        # rim slope is local DOF 3 of the last element only
        elem["S"][-1, 3, 3] -= np.cos(theta0)
    removed = tuple(sorted(removed))

    keep = np.setdiff1d(np.arange(ndof), removed)
    index = np.full(ndof, -1)
    index[keep] = np.arange(keep.size)
    return ModeOperator(m, kind,
                        _scatter_bands(elem[numerator], index, keep.size),
                        _scatter_bands(elem[metric], index, keep.size),
                        removed, ndof)


def _first_pair(op, tol=1e-13, seed=0):
    """Smallest eigenpair of the mode pencil; shifts on rare breakdowns."""
    shift = 0.0
    scale = float(np.max(np.abs(op.numerator.bands[0])))
    last_err = None
    for _ in range(6):
        try:
            res = banded_smallest(op.numerator, op.metric, m=1, tol=tol,
                                  seed=seed, shift=shift)
            return float(res.values[0]), res.vectors[:, 0]
        except FactorizationError as err:
            last_err = err
            shift = 1e-8 * scale if shift == 0.0 else shift * 100.0
    raise last_err


def mode_eigenfunction(theta0, cells, m, kind):
    """(eigenvalue, full DOF vector) with constrained entries re-inserted."""
    op = build_mode_operator(theta0, cells, m, kind)
    value, vec = _first_pair(op)
    full = np.zeros(op.ndof_full)
    keep = np.setdiff1d(np.arange(op.ndof_full), op.removed)
    full[keep] = vec
    return value, full


@dataclass(frozen=True)
class CapResult:
    """Minimum over azimuthal modes of the first per-mode eigenvalue."""

    problem: CapProblem
    value: float
    minimizing_mode: int
    per_mode: np.ndarray


def solve_cap(problem):
    per_mode = np.empty(problem.mode_max + 1)
    for m in range(problem.mode_max + 1):
        op = build_mode_operator(problem.theta0, problem.radial_cells, m,
                                 problem.kind)
        per_mode[m], _ = _first_pair(op)
    best = int(np.argmin(per_mode))
    return CapResult(problem, float(per_mode[best]), best, per_mode)

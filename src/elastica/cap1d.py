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

Each mode's pencil is solved by banded inverse iteration
(:func:`~elastica.eigensolve.banded_smallest`), and its value is the
quotient of the computed vector evaluated as sums of squares at the Gauss
points (:func:`rayleigh_quotient`), not the Ritz value xᵀS x / xᵀW x,
whose h⁻⁴ cancellation puts it up to ~1e-7 below the exact value at 512
cells.  A solve at 2·cells can start from the eigenvectors at cells
(``solve_cap(…, start=…)``): the Hermite cubics are nested, so
:func:`prolongate` carries each vector over exactly.  The cubic and its
derivatives are written once, in :func:`_hermite_tables`; the element
matrices, the quotients and the prolongation all read that table.

Reported first eigenvalues are minima over modes m = 0..mode_max.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .eigensolve import banded_smallest
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
#: the Gauss points on the unit cell [0, 1]
_GAUSS_T = 0.5 * (1.0 + _GAUSS_X)

#: residual tolerance and starting seed of every mode's first-pair solve
FIRST_PAIR_TOL, FIRST_PAIR_SEED = 1e-13, 0
#: floor on the cell angle θ₀/cells: the stiffest pencil entries grow
#: like (cells/θ₀)⁴ and the cap round-off budget like the eighth power,
#: and both overflow double precision near θ₀/cells = 1e-40
MIN_CELL_ANGLE = 1e-30


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
        cell = self.theta0 / self.radial_cells
        if cell < MIN_CELL_ANGLE:
            raise ValueError(f"theta0/cells = {cell:.3g} is below "
                             f"{MIN_CELL_ANGLE:g}; the cap pencils would "
                             f"overflow")

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

    @property
    def keep(self):
        """Full DOF index of each row of the constrained pencil."""
        return np.setdiff1d(np.arange(self.ndof_full), self.removed)


def _hermite_tables(h, t=_GAUSS_T):
    """Value/first/second derivative of the four shapes at the points t of
    the unit cell, each (4, len(t)); the only place the cubic is written.

    Shapes carry the physical scaling: slope DOFs multiply h so the DOF is
    du/dθ at the node.
    """
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


def _gauss_points(theta0, cells):
    """Cell width h and, per cell and Gauss point, cotθ, 1/sin²θ and the
    quadrature weight times sinθ, each (cells, 5)."""
    h = theta0 / cells
    left = h * np.arange(cells)
    theta = left[:, None] + h * 0.5 * (1.0 + _GAUSS_X)[None, :]
    s = np.sin(theta)
    return h, np.cos(theta) / s, 1.0 / s ** 2, \
        (0.5 * h) * _GAUSS_W[None, :] * s


#: the ten DOF pairs a <= b of a 4×4 element matrix, and the pair of each
#: entry (a, b), so (a, b) and (b, a) read one value
_PAIRS = np.triu_indices(4)
_PAIR_OF = np.zeros((4, 4), dtype=int)
_PAIR_OF[_PAIRS] = _PAIR_OF[_PAIRS[::-1]] = np.arange(len(_PAIRS[0]))


def _pair_table(x, y):
    """(5, pairs) table of x_a y_b + y_a x_b (x_a x_b if x is y) at the
    Gauss points, for shape tables x, y."""
    a, b = _PAIRS
    table = x[a] * y[b] if x is y else x[a] * y[b] + y[a] * x[b]
    return table.T


def _element_matrices(theta0, cells, m):
    """Per-element (cells, 4, 4) W, A, S; element e couples DOFs 2e..2e+3.

    Each form is one matmul of per-element Gauss weights with pair tables
    (:func:`_pair_table`); S expands (L_m φ_a)(L_m φ_b) with
    L_m φ = φ'' + cotθ φ' − μ φ, μ = m²/sin²θ, into its six products.
    Every element matrix is symmetric bit for bit.
    """
    h, cot, inv2, wq = _gauss_points(theta0, cells)
    val, d1, d2 = _hermite_tables(h)
    mu = (m * m) * inv2
    vv, gg = _pair_table(val, val), _pair_table(d1, d1)

    def form(weights, tables):
        return (np.concatenate(weights, axis=1)
                @ np.concatenate(tables))[:, _PAIR_OF]

    return {
        "W": form([wq], [vv]),
        "A": form([wq, wq * mu], [gg, vv]),
        "S": form([wq, wq * cot, wq * cot ** 2, -wq * mu, -wq * cot * mu,
                   wq * mu ** 2],
                  [_pair_table(d2, d2), _pair_table(d2, d1), gg,
                   _pair_table(d2, val), _pair_table(d1, val), vv]),
    }


def _scatter_bands(elem, keep):
    """Sum element matrices into lower band storage over the DOFs ``keep``.

    A full band entry gets at most two element terms, from the elements
    sharing a node, so its sum does not depend on their order.  Band d of
    the kept pencil at column j is the full entry (keep[j + d], keep[j]),
    zero where those DOFs lie more than the bandwidth apart.
    """
    cells = len(elem)
    full = np.zeros((4, 2 * cells + 2))
    for a, b in zip(*np.tril_indices(4)):
        full[a - b, b:b + 2 * cells:2] += elem[:, a, b]
    order = keep.size
    bands = np.zeros((4, order))
    for d in range(4):
        col = keep[:order - d]
        off = keep[d:] - col
        near = off <= 3
        bands[d, :order - d][near] = full[off[near], col[near]]
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
    return ModeOperator(m, kind, _scatter_bands(elem[numerator], keep),
                        _scatter_bands(elem[metric], keep), removed, ndof)


def _cell_values(full, h, t=_GAUSS_T):
    """u, u' and u'' of a full DOF vector at the points t of every cell of
    width h, each (cells, len(t)): the :func:`_hermite_tables` applied to
    each cell's (u₀, u'₀, u₁ − u₀, u'₁).

    So the u₀ row becomes the sum of the u₀ and u₁ rows, exactly 0 for u'
    and u'': u'' rounds like ε/h, not like the ε/h² of nodal shape sums.
    """
    u0 = full[0:-2:2]
    coef = np.stack([u0, full[1:-2:2], full[2::2] - u0, full[3::2]], axis=1)
    tables = _hermite_tables(h, t)
    for table in tables:
        table[0] += table[2]
    return [coef @ table for table in tables]


def rayleigh_quotient(theta0, cells, m, kind, full):
    """The kind's quotient of one mode's forms at a full DOF vector.

    u, u' and L_m u are evaluated at the Gauss points (:func:`_cell_values`),
    so W, A and S are sums of squares, free of the h⁻⁴ cancellation in
    xᵀ S x; the p/q numerators then lose cosθ₀·u'(θ₀)².  For a vector
    meeting the kind's constraints the value is a conforming upper bound on
    the mode's first eigenvalue, whatever solve produced the vector.
    """
    numerator, metric, _, rim_corrected = _KIND_TABLE[kind]
    h, cot, inv2, wq = _gauss_points(theta0, cells)
    u, du, d2u = _cell_values(full, h)
    mu = (m * m) * inv2
    forms = {"W": np.sum(wq * u ** 2),
             "A": np.sum(wq * (du ** 2 + mu * u ** 2)),
             "S": np.sum(wq * (d2u + cot * du - mu * u) ** 2)}
    top = forms[numerator]
    if rim_corrected:
        top -= np.cos(theta0) * full[-1] ** 2
    return float(top / forms[metric])


def prolongate(full, theta0):
    """A full DOF vector on the cells of [0, θ₀], carried to cells half as
    wide.

    Hermite cubics on the halved cells contain those on the whole ones, so
    the carried vector is the same function: old nodes keep their (u, u'),
    and each midpoint takes the value and slope of its cell's cubic there
    (:func:`_cell_values` at t = ½).  The pole and the rim stay old nodes,
    so their constraints still hold.
    """
    cells = full.size // 2 - 1
    u, du, _ = _cell_values(full, theta0 / cells, np.array([0.5]))
    fine = np.empty(4 * cells + 2)
    fine[0::4], fine[1::4] = full[0::2], full[1::2]
    fine[2::4], fine[3::4] = u[:, 0], du[:, 0]
    return fine


def mode_eigenfunction(theta0, cells, m, kind, start=None):
    """(eigenvalue, full DOF vector) of one mode's first pair.

    The vector has its constrained entries re-inserted as zeros, and the
    eigenvalue is its :func:`rayleigh_quotient`.  ``start``, a full DOF
    vector on the same cells, replaces the first random column of the
    banded solve.
    """
    op = build_mode_operator(theta0, cells, m, kind)
    keep = op.keep
    res = banded_smallest(op.numerator, op.metric, m=1, tol=FIRST_PAIR_TOL,
                          seed=FIRST_PAIR_SEED,
                          start=None if start is None else start[keep, None])
    full = np.zeros(op.ndof_full)
    full[keep] = res.vectors[:, 0]
    return rayleigh_quotient(theta0, cells, m, kind, full), full


@dataclass(frozen=True)
class CapResult:
    """Minimum over azimuthal modes of the first per-mode eigenvalue.

    ``vectors[m]`` is mode m's full DOF vector (:func:`mode_eigenfunction`).
    """

    problem: CapProblem
    value: float
    minimizing_mode: int
    per_mode: np.ndarray
    vectors: np.ndarray


def solve_cap(problem, start=None):
    """First eigenvalue of every mode 0..mode_max, and their minimum.

    ``start``, the CapResult of the same problem at half the radial cells,
    starts each mode's solve from its eigenvector there, prolongated to
    these cells (:func:`prolongate`).
    """
    if start is not None and replace(
            start.problem,
            radial_cells=2 * start.problem.radial_cells) != problem:
        raise ValueError("start must solve the same cap problem at half "
                         "the radial cells")
    modes = problem.mode_max + 1
    per_mode = np.empty(modes)
    vectors = np.empty((modes, 2 * (problem.radial_cells + 1)))
    for m in range(modes):
        warm = None if start is None else prolongate(start.vectors[m],
                                                     problem.theta0)
        per_mode[m], vectors[m] = mode_eigenfunction(
            problem.theta0, problem.radial_cells, m, problem.kind, warm)
    best = int(np.argmin(per_mode))
    return CapResult(problem, float(per_mode[best]), best, per_mode, vectors)

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
(``solve_cap(problem.refined(), kinds, start)``): the Hermite cubics are
nested, so :func:`prolongate` carries each vector over exactly.  The cubic
and its derivatives are written once, in :func:`_hermite_tables`; the
element matrices, the quotients and the prolongation all read that table.

One :func:`solve_cap` call solves one :class:`CapProblem` (θ₀, modes,
cells) for the kinds asked of it, and those kinds share their work; it
runs mode by mode:

* per resolution, the Gauss geometry and the Hermite tables at the Gauss
  points are computed once (:func:`_gauss_points`);
* per mode, the W, A and S element forms (:func:`_element_matrices`) and
  the kept DOFs with the rim slope free and clamped (:func:`_kept_dofs`)
  are computed once; :func:`build_mode_operator` reads them from one-entry
  caches of read-only arrays, so it still builds one kind's pencil per call;
* per stiffness, one Cholesky factor serves every kind whose numerator it
  is: A for dirichlet_laplacian, the clamped S for clamped and buckling,
  the rim-corrected S for p_problem and q_problem.  Those kinds run back
  to back, so one factor is alive at a time.

No pencil's arithmetic depends on which kinds are solved together.

Reported first eigenvalues are minima over modes m = 0..mode_max.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, replace
from functools import lru_cache
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from . import eigensolve
from .eigensolve import BreakdownError, ConvergenceError, banded_smallest
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

#: floor on the cell angle θ₀/cells: the stiffest pencil entries grow
#: like (cells/θ₀)⁴ and the cap round-off budget like the eighth power,
#: and both overflow double precision near θ₀/cells = 1e-40
MIN_CELL_ANGLE = 1e-30


@dataclass(frozen=True)
class CapProblem:
    """Cap half-angle, azimuthal cutoff, radial resolution: what the kinds
    of :data:`CAP_KINDS` share."""

    theta0: float
    mode_max: int
    radial_cells: int

    def __post_init__(self):
        if not 0.0 < self.theta0 < np.pi:
            raise ValueError("theta0 must lie in (0, pi)")
        if self.mode_max < 0:
            raise ValueError("mode_max must be >= 0")
        if self.radial_cells < 16:
            raise ValueError("need at least 16 radial cells")
        cell = self.theta0 / self.radial_cells
        if cell < MIN_CELL_ANGLE:
            raise ValueError(f"theta0/cells = {cell:.3g} is below "
                             f"{MIN_CELL_ANGLE:g}; the cap pencils would "
                             f"overflow")

    def refined(self):
        """The same cap at twice the radial cells."""
        return replace(self, radial_cells=2 * self.radial_cells)

    @property
    def hemisphere(self):
        return abs(self.theta0 - np.pi / 2) <= 1e-12

    @property
    def boundary_mean_curvature_nonneg(self):
        return self.theta0 <= np.pi / 2 + 1e-12


@dataclass(frozen=True)
class ModeOperator:
    """Radial pencil of one azimuthal mode, constrained per problem kind.

    ``keep`` holds the full DOF index of each row of the constrained
    pencil; the DOFs it lacks are constrained to zero.
    """

    numerator: BandedSymMatrix
    metric: BandedSymMatrix
    keep: np.ndarray


def _read_only(*arrays):
    """Mark cached arrays read-only, so no caller can change them for the
    next."""
    for array in arrays:
        array.flags.writeable = False


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


def _cell_tables(h, t):
    """The :func:`_hermite_tables` at the points t as :func:`_cell_values`
    applies them, to each cell's (u₀, u'₀, u₁ − u₀, u'₁).

    So the u₀ row becomes the sum of the u₀ and u₁ rows, exactly 0 for u'
    and u'': u'' rounds like ε/h, not like the ε/h² of nodal shape sums.
    """
    tables = _hermite_tables(h, t)
    for table in tables:
        table[0] += table[2]
    return tables


class _Gauss(NamedTuple):
    """One resolution's quadrature: per cell and Gauss point cotθ, 1/sin²θ
    and the quadrature weight times sinθ, each (cells, 5); and the Hermite
    tables at the Gauss points, as the element forms (``shapes``) and as
    :func:`_cell_values` (``cell_shapes``) read them."""

    cot: np.ndarray
    inv2: np.ndarray
    wq: np.ndarray
    shapes: tuple
    cell_shapes: tuple


@lru_cache(maxsize=1)
def _gauss_points(theta0, cells):
    """The :class:`_Gauss` quadrature of [0, θ₀] in ``cells`` cells; computed
    once per resolution for every mode and kind, and read-only."""
    h = theta0 / cells
    left = h * np.arange(cells)
    theta = left[:, None] + h * 0.5 * (1.0 + _GAUSS_X)[None, :]
    s = np.sin(theta)
    gauss = _Gauss(np.cos(theta) / s, 1.0 / s ** 2,
                   (0.5 * h) * _GAUSS_W[None, :] * s, _hermite_tables(h),
                   _cell_tables(h, _GAUSS_T))
    _read_only(gauss.cot, gauss.inv2, gauss.wq, *gauss.shapes,
               *gauss.cell_shapes)
    return gauss


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


@lru_cache(maxsize=1)
def _element_matrices(theta0, cells, m):
    """Per-element (cells, 4, 4) W, A, S; element e couples DOFs 2e..2e+3.

    Each form is one matmul of per-element Gauss weights with pair tables
    (:func:`_pair_table`); S expands (L_m φ_a)(L_m φ_b) with
    L_m φ = φ'' + cotθ φ' − μ φ, μ = m²/sin²θ, into its six products.
    Every element matrix is symmetric bit for bit.  The forms are computed
    once per mode for all kinds, in a read-only mapping of read-only
    arrays.
    """
    gauss = _gauss_points(theta0, cells)
    wq, cot = gauss.wq, gauss.cot
    val, d1, d2 = gauss.shapes
    mu = (m * m) * gauss.inv2
    vv, gg = _pair_table(val, val), _pair_table(d1, d1)

    def form(weights, tables):
        return (np.concatenate(weights, axis=1)
                @ np.concatenate(tables))[:, _PAIR_OF]

    forms = MappingProxyType({
        "W": form([wq], [vv]),
        "A": form([wq, wq * mu], [gg, vv]),
        "S": form([wq, wq * cot, wq * cot ** 2, -wq * mu, -wq * cot * mu,
                   wq * mu ** 2],
                  [_pair_table(d2, d2), _pair_table(d2, d1), gg,
                   _pair_table(d2, val), _pair_table(d1, val), vv]),
    })
    _read_only(*forms.values())
    return forms


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


@lru_cache(maxsize=1)
def _kept_dofs(cells, m):
    """The kept DOFs of one mode with the rim slope free and clamped, in
    that order, so ``slope_clamped`` indexes them.  The rim value u(θ₀)
    always goes, and so do the pole constraints: u'(0) for m = 0, u(0) for
    m = 1, both for m >= 2.  Built once per mode for all kinds; read-only.
    """
    ndof = 2 * (cells + 1)
    pole = [1] if m == 0 else [0] if m == 1 else [0, 1]
    out = []
    for rim in ([ndof - 2], [ndof - 2, ndof - 1]):
        kept = np.ones(ndof, dtype=bool)
        kept[pole + rim] = False
        keep = np.flatnonzero(kept)
        _read_only(keep)
        out.append(keep)
    return tuple(out)


def build_mode_operator(theta0, cells, m, kind):
    """Constrained banded pencil (numerator, metric) for one mode.

    The element forms and the kept DOFs come from the one-entry caches the
    mode's kinds share (:func:`_element_matrices`, :func:`_kept_dofs`).
    """
    if kind not in CAP_KINDS:
        raise ValueError(f"unknown cap problem kind {kind!r}")
    numerator, metric, slope_clamped, rim_corrected = _KIND_TABLE[kind]
    elem = _element_matrices(theta0, cells, m)
    keep = _kept_dofs(cells, m)[slope_clamped]
    top = _scatter_bands(elem[numerator], keep)
    if rim_corrected:
        # boundary correction −cosθ₀ u'(θ₀)² makes u''(θ₀)=0 natural; the
        # rim slope is the last kept DOF, and only the last element's local
        # DOF 3 adds to its diagonal entry
        top.bands[0, -1] -= np.cos(theta0)
    return ModeOperator(top, _scatter_bands(elem[metric], keep), keep)


def _cell_values(full, tables):
    """u, u' and u'' of a full DOF vector at the points of every cell, each
    (cells, points), from the :func:`_cell_tables` at those points."""
    u0 = full[0:-2:2]
    coef = np.stack([u0, full[1:-2:2], full[2::2] - u0, full[3::2]], axis=1)
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
    gauss = _gauss_points(theta0, cells)
    wq, cot = gauss.wq, gauss.cot
    u, du, d2u = _cell_values(full, gauss.cell_shapes)
    mu = (m * m) * gauss.inv2
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
    u, du, _ = _cell_values(full, _cell_tables(theta0 / cells,
                                               np.array([0.5])))
    fine = np.empty(4 * cells + 2)
    fine[0::4], fine[1::4] = full[0::2], full[1::2]
    fine[2::4], fine[3::4] = u[:, 0], du[:, 0]
    return fine


@dataclass(frozen=True)
class CapResult:
    """Minimum over azimuthal modes of the first per-mode eigenvalue.

    ``vectors[m]`` is mode m's full DOF vector, its constrained entries
    zero; ``per_mode[m]`` is that vector's :func:`rayleigh_quotient`.
    """

    problem: CapProblem
    value: float
    minimizing_mode: int
    per_mode: np.ndarray
    vectors: np.ndarray


@contextmanager
def _named(kinds, m, cells):
    """Prefix a solver error's message with the pencils it comes from."""
    try:
        yield
    except (BreakdownError, ConvergenceError) as err:
        err.args = (f"cap {'/'.join(kinds)}, mode {m}, {cells} cells: "
                    f"{err}",)
        raise


def solve_cap(problem, kinds, start=None):
    """First eigenvalue of every mode 0..mode_max, and their minimum, of
    each of ``kinds`` on ``problem``: a dict from kind to CapResult.

    ``start``, the same call's result at half the radial cells, starts each
    mode's solve from its eigenvector there, prolongated to these cells
    (:func:`prolongate`).

    The solve runs mode by mode; within a mode, the kinds that share a
    stiffness (the numerator of their pencils) run back to back on one
    factor of it, made by ``eigensolve.cholesky_banded`` and passed to
    :func:`~elastica.eigensolve.banded_smallest` for each of them.  Every
    kind still builds its own pencil (:func:`build_mode_operator`), so each
    result is bit for bit the one its kind gets alone.  A solver error
    names the kinds, the mode and the radial cells of the failed pencil.
    """
    by_stiffness = {}
    for kind in kinds:
        if kind not in CAP_KINDS:
            raise ValueError(f"unknown cap problem kind {kind!r}")
        numerator, _, slope_clamped, rim_corrected = _KIND_TABLE[kind]
        by_stiffness.setdefault((numerator, slope_clamped, rim_corrected),
                                []).append(kind)
    if start is not None and any(
            kind not in start or start[kind].problem.refined() != problem
            for kind in kinds):
        raise ValueError("start must solve the same cap problem and kinds "
                         "at half the radial cells")
    theta0, cells = problem.theta0, problem.radial_cells
    modes = problem.mode_max + 1
    per_mode = {kind: np.empty(modes) for kind in kinds}
    vectors = {kind: np.zeros((modes, 2 * (cells + 1))) for kind in kinds}
    for m in range(modes):
        for group in by_stiffness.values():
            factor = None  # frees the previous stiffness's factor first
            for kind in group:
                op = build_mode_operator(theta0, cells, m, kind)
                if factor is None:
                    with _named(group, m, cells):
                        factor = eigensolve.cholesky_banded(op.numerator)
                warm = None if start is None else prolongate(
                    start[kind].vectors[m], theta0)[op.keep, None]
                with _named([kind], m, cells):
                    res = banded_smallest(op.numerator, op.metric, factor,
                                          start=warm)
                vectors[kind][m, op.keep] = res.vectors[:, 0]
                per_mode[kind][m] = rayleigh_quotient(theta0, cells, m, kind,
                                                      vectors[kind][m])
    return {kind: CapResult(problem, float(per_mode[kind].min()),
                            int(np.argmin(per_mode[kind])), per_mode[kind],
                            vectors[kind]) for kind in kinds}

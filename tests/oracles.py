"""Test oracles: code that no run of the program executes.

Each function here checks the package from outside it, so it cannot
change together with the code it checks:

* :func:`sine_transform` is Q, the orthogonal map from nodal values to the
  class-major sine coordinates the box solver works in;
  :func:`divergence_stiffness` is K_div alone as CSR;
  :func:`interpolate_field` samples analytic fields at the interior nodes;
* :func:`expand` carries a reduced solve's vectors onto the classes of
  their orbits, with the axis permutations worked out from the box's equal
  axes (:func:`orbit_images`), not read from ``class_orbits``;
* :func:`to_dense` is the dense copy of a CSR or banded matrix;
* :func:`chebyshev_sum_check` is the Chebyshev-type product inequality of
  acceptance criterion 6;
* :func:`s2_cap_first_eigenvalue` is the exact first eigenvalue of the
  Dirichlet, buckling and clamped problems on a cap of S², from Legendre
  functions of non-integer degree (mpmath, 30 digits).
"""

import itertools
import math

import numpy as np

from elastica.assembly import (ElasticityProblem, _csr, _gather,
                               _parity_classes, _sine_matrix, _terms,
                               class_orbits)
from elastica.sparse import BandedSymMatrix


def sine_transform(problem, x, inverse=False):
    """Q·x, or Qᵀ·x if ``inverse``, for an (n,) vector or (n, b) block.

    Q = P·T: T applies the orthonormal sine matrix along every axis of each
    component, one batched matmul per axis, and is symmetric and its own
    inverse; P orders the coefficients class-major
    (:func:`_parity_classes`).  Q maps nodal values to class-major sine
    coordinates, and Qᵀ = T·Pᵀ maps them back.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape[0] != problem.order:
        raise ValueError(f"need {problem.order} rows, got shape {x.shape}")
    index = _gather(np.arange(problem.order).reshape(
        (problem.dim,) + problem.interior), _parity_classes(problem))
    if inverse:
        y = np.empty_like(x)
        y[index] = x
    else:
        y = x
    shape = problem.interior
    for axis, n in enumerate(shape):
        batch = problem.dim * math.prod(shape[:axis])
        y = _sine_matrix(n) @ y.reshape(batch, n, -1)
    y = y.reshape(x.shape)
    return y if inverse else y[index]


def divergence_stiffness(problem):
    """The divergence Gram matrix K_div alone (alpha-independent)."""
    unit = ElasticityProblem(problem.edges, 1.0, problem.cells)
    _, div_terms, _ = _terms(unit)
    return _csr(unit, div_terms)


def interpolate_field(problem, components):
    """Interior-node interpolant of analytic vector fields, component-major.

    ``components`` is a sequence of callables taking the dim coordinate
    arrays (broadcast on the interior grid) and returning node values.
    """
    axes = [h * np.arange(1, n + 1)
            for n, h in zip(problem.interior, problem.spacings)]
    grids = np.meshgrid(*axes, indexing="ij")
    parts = [np.asarray(comp(*grids), dtype=np.float64).ravel()
             for comp in components]
    if len(parts) != problem.dim:
        raise ValueError("need one component callable per dimension")
    return np.concatenate(parts)


def orbit_images(problem, pieces):
    """Class number g -> (rows, perm) of every non-empty class of the box.

    The permutations π of the axes that keep every (edge, cells) pair carry
    class q onto q′, q′_π(d) = q_d.  g's representative is the lowest class
    of its orbit, ``rows`` its coordinates in the reduced layout ``pieces``
    (``class_orbits(problem).pieces``), and ``perm`` the first such π, in
    ``itertools.permutations`` order, that carries it onto g.
    """
    dim = problem.dim
    axes = tuple(zip(problem.edges, problem.cells))
    perms = [p for p in itertools.permutations(range(dim))
             if all(axes[p[d]] == axes[d] for d in range(dim))]

    def image(q, p):
        return tuple(q[p.index(e)] for e in range(dim))

    rows = {}
    for q, _, _, start, size in pieces:
        rows[q] = slice(rows[q].start if q in rows else start, start + size)
    out = {}
    for q, *_ in _parity_classes(problem):
        rep = min(image(q, p) for p in perms)
        perm = next(p for p in perms if image(rep, p) == q)
        out[int("".join(map(str, q)), 2)] = (rows[rep], perm)
    return out


def _positions(problem, pieces, rows, perm):
    """Class-major positions of the representative coordinates
    ``rows`` moved by the axis permutation ``perm``: component c's grid
    goes to component perm[c]'s, its axis d to axis perm[d]."""
    full = {(q, c): start
            for q, c, _, start, _ in _parity_classes(problem)}
    out = []
    for q, c, par, start, size in pieces:
        if not rows.start <= start < rows.stop:
            continue
        image = tuple(q[perm.index(e)] for e in range(len(q)))
        grid = tuple((n + 1 - par[perm.index(e)]) // 2
                     for e, n in enumerate(problem.interior))
        out.append(full[image, perm[c]] + np.arange(size).reshape(
            grid).transpose(perm).ravel())
    return np.concatenate(out)


def expand(problem, x, classes):
    """Class-major sine coordinates of the reduced (n, b) block x, its
    column i, a vector of class classes[i]'s representative, carried
    onto class classes[i]."""
    if len(x) == problem.order:
        return x
    pieces = class_orbits(problem).pieces
    images = orbit_images(problem, pieces)
    y = np.zeros((problem.order,) + x.shape[1:])
    for g in np.unique(classes):
        cols = np.flatnonzero(classes == g)
        rows, perm = images[g]
        y[np.ix_(_positions(problem, pieces, rows, perm), cols)] = \
            x[rows, cols]
    return y


def to_dense(matrix):
    """The dense copy of a SparseSymMatrix or a BandedSymMatrix."""
    dense = np.zeros((matrix.order, matrix.order))
    if isinstance(matrix, BandedSymMatrix):
        for d in range(matrix.bandwidth + 1):
            idx = np.arange(matrix.order - d)
            dense[idx + d, idx] = matrix.bands[d, :matrix.order - d]
            dense[idx, idx + d] = matrix.bands[d, :matrix.order - d]
        return dense
    rows = np.repeat(np.arange(matrix.order), np.diff(matrix.indptr))
    dense[rows, matrix.indices] = matrix.data
    return dense


def chebyshev_sum_check(a, b, s):
    """(lhs, rhs) of the Chebyshev-type product bound.

    For non-negative a non-increasing, b non-decreasing, s >= 1:
    (Σ aᵢ^s)(Σ aᵢ² bᵢ) <= (Σ aᵢ^{s+1})(Σ aᵢ bᵢ); equality at k = 1 and for
    constant a.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1 or a.size < 1:
        raise ValueError("a and b must be 1D arrays of equal positive length")
    if np.any(a < 0) or np.any(b < 0):
        raise ValueError("sequences must be non-negative")
    if np.any(np.diff(a) > 0):
        raise ValueError("a must be non-increasing")
    if np.any(np.diff(b) < 0):
        raise ValueError("b must be non-decreasing")
    if s < 1:
        raise ValueError("s must be >= 1")
    lhs = float(np.sum(a ** s)) * float(np.sum(a ** 2 * b))
    rhs = float(np.sum(a ** (s + 1))) * float(np.sum(a * b))
    return lhs, rhs


def s2_cap_first_eigenvalue(theta0, kind):
    """Exact first eigenvalue of ``kind`` on the cap {θ <= θ₀} of S².

    The azimuthal mode 0 of these kinds reduces to the Legendre function
    P_ν(x), x = cos θ, of non-integer degree ν > 0, with ν(ν+1) the value
    (its square for ``clamped``):

    * ``dirichlet_laplacian``: ΔP_ν = −ν(ν+1)P_ν, so u = P_ν with
      P_ν(cos θ₀) = 0;
    * ``buckling``: Δ(Δ + Λ)u = 0 with u = A·P_ν + B, ν(ν+1) = Λ; the
      clamped rim u = u′ = 0 needs dP_ν/dx(cos θ₀) = 0, from
      (1 − x²)·P_ν′ = ν·(P_{ν−1} − x·P_ν);
    * ``clamped``: Δ²u = Γu is (Δ + √Γ)(Δ − √Γ)u = 0, so u = A·P_ν + B·P_β
      with ν(ν+1) = √Γ and β(β+1) = −√Γ, β = −½ + i·√(√Γ − ¼) (P_β is a
      conical function, real on (−1, 1)); u = u′ = 0 at the rim needs
      det[[P_ν, P_β], [P_ν′, P_β′]] = 0 at cos θ₀, the derivatives from the
      same recurrence (its factor 1 − x² drops out of the determinant).

    ν is the smallest root, bracketed by a scan in steps of 0.05 from 0.05
    and refined by mpmath at 30 digits.
    """
    import mpmath

    with mpmath.workdps(30):
        x = mpmath.cos(mpmath.mpf(theta0))

        def legendre(nu):
            return mpmath.legenp(nu, 0, x, type=2)

        def slope(nu):
            """(1 − x²)·P_ν′(x)."""
            return nu * (legendre(nu - 1) - x * legendre(nu))

        if kind == "dirichlet_laplacian":
            def rim(nu):
                return legendre(nu)
        elif kind == "buckling":
            def rim(nu):
                return slope(nu)
        elif kind == "clamped":
            def rim(nu):
                beta = -0.5 + 1j * mpmath.sqrt(nu * (nu + 1) - 0.25)
                return mpmath.re(legendre(nu) * slope(beta)
                                 - legendre(beta) * slope(nu))
        else:
            raise ValueError(f"no exact S² value for cap kind {kind!r}")
        lo = mpmath.mpf("0.05")
        while rim(lo) * rim(lo + mpmath.mpf("0.05")) > 0:
            lo += mpmath.mpf("0.05")
        nu = mpmath.findroot(rim, (lo, lo + mpmath.mpf("0.05")),
                             solver="anderson")
        value = nu * (nu + 1)
        return value ** 2 if kind == "clamped" else value

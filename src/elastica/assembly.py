"""Discretisation of Δu + α grad(div u) on axis-aligned boxes.

Multilinear (tensor-product first-order) elements on a uniform grid, with
the Dirichlet boundary eliminated, give the generalized pencil

    K(α) x = σ M x,   K(α) = K_lap + α K_div,

where K_lap is the componentwise stiffness of ∫∇u:∇v, K_div the Gram matrix
of ∫(div u)(div v), and M the consistent vector mass.  K_div couples the
components through skew convection factors, so everything is assembled from
Kronecker products of three exact 1D tridiagonal matrices: the quadratic
form is discretised, never the strong operator, which keeps K(α) exactly
symmetric.  Degrees of freedom are component-major; within a component,
nodes are lexicographic with the last coordinate fastest.

The eigensolver applies these Kronecker sums matrix-free, as 1D three-point
stencils along each axis (:func:`box_operators`); :func:`assemble` builds
the same terms as CSR for the Matrix Market export and the tests.  Its
preconditioner has two layers: the exact inverse of K(0)
(:func:`laplacian_inverse`), which takes the eigenvalues of the same 1D
factors in the sine basis and transforms with dense sine matrices, and
Chebyshev steps for K(α) on [1, 1+α] around it (:func:`chebyshev`).  One
term table (:func:`_terms`, :func:`_stencils_1d`) feeds all of them.
:func:`prolongate` carries a block of nodal vectors to the refined mesh,
which gives the Richardson fine solve its starting block.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .sparse import SparseSymMatrix


@dataclass(frozen=True)
class ElasticityProblem:
    """Box domain, coupling constant and mesh resolution."""

    edges: tuple[float, ...]
    alpha: float
    cells: tuple[int, ...]

    def __post_init__(self):
        edges = tuple(float(e) for e in self.edges)
        cells = tuple(int(c) for c in self.cells)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "cells", cells)
        if self.dim not in (2, 3):
            raise ValueError("only 2D and 3D boxes are supported")
        if len(cells) != self.dim:
            raise ValueError("cells must list one resolution per direction")
        if not all(0 < e < math.inf for e in edges):
            raise ValueError("edges must be positive and finite")
        if any(c < 2 for c in cells):
            raise ValueError("need at least 2 cells per direction "
                             "(one interior node)")
        if not 0 <= self.alpha < math.inf:
            raise ValueError("alpha must be finite and non-negative")

    @property
    def dim(self):
        return len(self.edges)

    def refined(self):
        return ElasticityProblem(self.edges, self.alpha,
                                 tuple(2 * c for c in self.cells))

    def mesh_label(self):
        return "x".join(str(c) for c in self.cells)


@dataclass(frozen=True)
class DofMap:
    """Layout of the eliminated-boundary degrees of freedom."""

    dim: int
    interior: tuple[int, ...]   # interior nodes per direction
    spacings: tuple[float, ...]

    @property
    def nodes(self):
        return int(np.prod(self.interior))

    @property
    def order(self):
        return self.dim * self.nodes


def _stencils_1d(h):
    """(lower, diag, upper) of the interior P1 tridiagonals on a uniform grid.

    K is the stiffness, M the mass, C the convection ∫φ'ψ and Ct its
    transpose; every one is constant along its diagonals.
    """
    return {"K": (-1.0 / h, 2.0 / h, -1.0 / h),
            "M": (h / 6.0, 4.0 * h / 6.0, h / 6.0),
            "C": (0.5, 0.0, -0.5),
            "Ct": (-0.5, 0.0, 0.5)}


def _terms(problem):
    """Kronecker terms (row comp, col comp, scale, kinds) of K_lap, α·K_div, M.

    ``kinds`` names the 1D factor on each axis (a key of
    :func:`_stencils_1d`).  K(α) is the Laplacian terms followed by the
    divergence terms, which are absent when α = 0.
    """
    dim, alpha = problem.dim, problem.alpha

    def kinds(*on_axes):
        out = ["M"] * dim
        for axis, kind in on_axes:
            out[axis] = kind
        return tuple(out)

    lap_terms = [(c, c, 1.0, kinds((d, "K")))
                 for c in range(dim) for d in range(dim)]
    div_terms = []
    if alpha > 0:
        div_terms += [(c, c, alpha, kinds((c, "K"))) for c in range(dim)]
        for ca in range(dim):
            for cb in range(ca + 1, dim):
                # block (ca, cb) of the divergence Gram:
                # ∫ (d phi/dx_ca)(d psi/dx_cb) = C_ca ⊗ Ct_cb ⊗ masses
                div_terms.append((ca, cb, alpha,
                                  kinds((ca, "C"), (cb, "Ct"))))
                div_terms.append((cb, ca, alpha,
                                  kinds((ca, "Ct"), (cb, "C"))))
    mass_terms = [(c, c, 1.0, ("M",) * dim) for c in range(dim)]
    return lap_terms, div_terms, mass_terms


def _dof_map(problem):
    interior = tuple(c - 1 for c in problem.cells)
    spacings = tuple(e / c for e, c in zip(problem.edges, problem.cells))
    return DofMap(problem.dim, interior, spacings)


def _coo_1d(n, lower, diag, upper):
    """COO triplets of an n x n tridiagonal with constant diagonals."""
    idx = np.arange(n)
    rows = np.concatenate([idx, idx[1:], idx[:-1]])
    cols = np.concatenate([idx, idx[:-1], idx[1:]])
    vals = np.concatenate([np.full(n, diag),
                           np.full(n - 1, lower),
                           np.full(n - 1, upper)])
    return rows, cols, vals


def _kron(a, b, nb):
    """Kronecker product of COO triplets; b indexes the faster axis."""
    ra, ca, va = a
    rb, cb, vb = b
    rows = (ra[:, None] * nb + rb[None, :]).ravel()
    cols = (ca[:, None] * nb + cb[None, :]).ravel()
    vals = (va[:, None] * vb[None, :]).ravel()
    return rows, cols, vals


def _csr(dof_map, terms):
    """Sum of Kronecker terms as a SparseSymMatrix."""
    stencils = [_stencils_1d(h) for h in dof_map.spacings]
    rows, cols, vals = [], [], []
    for row, col, scale, kinds in terms:
        factors = [_coo_1d(n, *stencils[d][kind]) for d, (n, kind)
                   in enumerate(zip(dof_map.interior, kinds))]
        r, c, v = factors[0]
        for fac, n in zip(factors[1:], dof_map.interior[1:]):
            r, c, v = _kron((r, c, v), fac, n)
        rows.append(r + row * dof_map.nodes)
        cols.append(c + col * dof_map.nodes)
        vals.append(v * scale)
    return SparseSymMatrix.from_coo(dof_map.order, np.concatenate(rows),
                                    np.concatenate(cols),
                                    np.concatenate(vals))


def assemble(problem):
    """Assemble (K, M, dof_map) for the generalized eigenproblem as CSR.

    K = K_lap + alpha*K_div and M are exactly symmetric; the generalized
    eigenvalues approximate the continuous ones at O(h²) for smooth
    eigenfunctions.  The solver applies the same terms matrix-free (see
    :func:`box_operators`); the CSR form serves the Matrix Market export
    and the tests.
    """
    dof_map = _dof_map(problem)
    lap_terms, div_terms, mass_terms = _terms(problem)
    return (_csr(dof_map, lap_terms + div_terms), _csr(dof_map, mass_terms),
            dof_map)


def _stencil(x, axis, lower, diag, upper):
    """Apply the constant tridiagonal (lower, diag, upper) along ``axis``."""
    lead = (slice(None),) * axis
    head, tail = lead + (slice(None, -1),), lead + (slice(1, None),)
    y = x * diag
    y[tail] += lower * x[head]
    y[head] += upper * x[tail]
    return y


class TensorProductOperator:
    """Matrix-free sum of Kronecker products of 1D three-point stencils.

    Operands are component-major stacks of ``dim`` scalar fields on the
    ``shape`` grid (last axis fastest).  Each term is (row component,
    column component, scale, (lower, diag, upper) per axis); ``matvec``
    runs the stencils axis by axis and accumulates into the row component.
    """

    def __init__(self, dim, shape, terms):
        self.dim = dim
        self.shape = tuple(shape)
        self.terms = tuple(terms)
        self.order = dim * int(np.prod(self.shape))

    def matvec(self, x):
        """A @ x for a vector (n,) or a block of vectors (n, b)."""
        x = np.asarray(x, dtype=np.float64)
        single = x.ndim == 1
        xb = x[:, None] if single else x
        if xb.shape[0] != self.order:
            raise ValueError("operand has wrong leading dimension")
        work = xb.reshape((self.dim,) + self.shape + (xb.shape[1],))
        out = np.zeros_like(work)
        for row, col, scale, stencils in self.terms:
            y = work[col]
            for axis, coeffs in enumerate(stencils):
                if axis == 0:
                    coeffs = tuple(scale * c for c in coeffs)
                y = _stencil(y, axis, *coeffs)
            out[row] += y
        out = out.reshape(xb.shape)
        return out[:, 0] if single else out


def _operator(dof_map, terms):
    """TensorProductOperator of Kronecker terms, merging equal factors."""
    stencils = [_stencils_1d(h) for h in dof_map.spacings]
    merged = {}
    for row, col, scale, kinds in terms:
        key = (row, col, kinds)
        merged[key] = merged.get(key, 0.0) + scale
    return TensorProductOperator(
        dof_map.dim, dof_map.interior,
        [(row, col, scale, tuple(stencils[d][kind]
                                 for d, kind in enumerate(kinds)))
         for (row, col, kinds), scale in merged.items()])


def box_operators(problem):
    """Matrix-free (K, M) with the terms of :func:`assemble`.

    K's Laplacian and α-diagonal terms share their factors and are applied
    once, scaled by 1 + α.
    """
    dof_map = _dof_map(problem)
    lap_terms, div_terms, mass_terms = _terms(problem)
    return (_operator(dof_map, lap_terms + div_terms),
            _operator(dof_map, mass_terms))


def divergence_stiffness(problem):
    """The divergence Gram matrix K_div alone (alpha-independent)."""
    unit = ElasticityProblem(problem.edges, 1.0, problem.cells)
    _, div_terms, _ = _terms(unit)
    return _csr(_dof_map(unit), div_terms)


def _sine_matrix(n):
    """Orthonormal type-I sine matrix √(2/(n+1))·sin(π i j/(n+1)), i, j = 1..n.

    It is symmetric and its own inverse.
    """
    j = np.arange(1, n + 1)
    return math.sqrt(2.0 / (n + 1)) * np.sin(np.outer(j, j) * np.pi / (n + 1))


def laplacian_inverse(problem):
    """Exact inverse of the α = 0 stiffness K(0), the inner preconditioner.

    The sine vectors diagonalise every symmetric constant tridiagonal
    (lower, diag, lower), with eigenvalue diag + 2 lower cos(jπ/(n+1)) at
    frequency j (Lynch, Rice & Thomas, Numer. Math. 6, 1964).  Each
    Laplacian term is component-diagonal with symmetric factors, so its
    symbol is the product of those eigenvalues over the axes, and the
    inverse is a sine transform, a division by the summed symbols of the
    component, and the transform back.  Each transform multiplies by one
    dense orthonormal sine matrix per axis (a BLAS matmul on a reshaped
    view of the block, with no padded copy as an FFT would need).  Returns
    the apply callable, which takes a vector (n,) or a block (n, b).
    """
    dof_map = _dof_map(problem)
    shape = dof_map.interior
    symbols = np.zeros((dof_map.dim,) + shape)
    lap = _operator(dof_map, _terms(problem)[0])
    for row, _, scale, stencils in lap.terms:
        factors = np.ix_(*[
            diag + 2.0 * lower * np.cos(np.arange(1, n + 1) * np.pi / (n + 1))
            for n, (lower, diag, _) in zip(shape, stencils)])
        symbols[row] += scale * math.prod(factors)
    sines = [_sine_matrix(n) for n in shape]
    # the component axis leads every transform as a batch axis
    batches = [dof_map.dim * math.prod(shape[:a]) for a in range(len(shape))]

    def transform(y):
        for S, batch in zip(sines, batches):
            y = S @ y.reshape(batch, S.shape[0], -1)
        return y

    def apply(x):
        x = np.asarray(x, dtype=np.float64)
        y = transform(x).reshape(symbols.shape + (-1,)) / symbols[..., None]
        return transform(y).reshape(x.shape)

    return apply


def _chebyshev_steps(alpha):
    """Smallest k >= 1 with T_k((2+α)/α) >= 3; 1 at α = 0.

    k steps on [1, 1+α] leave a residual polynomial bounded by 1/T_k, so
    the preconditioned spectrum lies in [2/3, 4/3].
    """
    if alpha == 0:
        return 1
    sigma = (2.0 + alpha) / alpha
    k, t_prev, t = 1, 1.0, sigma
    while t < 3.0:
        k, t_prev, t = k + 1, t, 2.0 * sigma * t - t_prev
    return k


def chebyshev(K, inner, alpha):
    """Chebyshev-accelerated preconditioner for K(α) around K(0)⁻¹.

    For u in H¹₀, ∫|∇u|² = ∫|div u|² + ∫|curl u|², so the conforming fields
    give K(0) <= K(α) <= (1+α) K(0) and spec(K(0)⁻¹K(α)) ⊂ [1, 1+α].  The
    apply runs k steps of Chebyshev iteration for K z = r from z = 0 on that
    interval, with ``inner`` (K(0)⁻¹) as the preconditioner (Saad,
    *Iterative Methods for Sparse Linear Systems*, Alg. 12.1).  It is a
    fixed polynomial in K(0)⁻¹K times K(0)⁻¹: symmetric, positive definite
    and deterministic.  k comes from α alone (:func:`_chebyshev_steps`);
    with k = 1 ``inner`` itself is returned.
    """
    steps = _chebyshev_steps(alpha)
    if steps == 1:
        return inner
    delta = 0.5 * alpha
    theta = 1.0 + delta
    sigma = theta / delta

    def apply(r):
        rho = 1.0 / sigma
        d = inner(r) / theta
        z = d
        for _ in range(steps - 1):
            r = r - K.matvec(d)
            rho_next = 1.0 / (2.0 * sigma - rho)
            d = (rho_next * rho) * d + (2.0 * rho_next / delta) * inner(r)
            rho = rho_next
            z = z + d
        return z

    return apply


def prolongate(problem, x):
    """Interpolate an (n, b) block from ``problem``'s mesh to its refinement.

    Per component this is the Kronecker product of the 1D linear
    interpolations onto the halved grid: fine node 2i+1 takes coarse node
    i, and each midpoint takes the mean of its two neighbours, with the
    zero Dirichlet value beyond the ends.  It runs axis by axis on the
    ``(dim, n₁, …, n_d, b)`` view, so no matrix is built.  Returns the
    (n_fine, b) block on ``problem.refined()``'s interior nodes.
    """
    dof_map = _dof_map(problem)
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] != dof_map.order:
        raise ValueError(f"need an ({dof_map.order}, b) block, "
                         f"got shape {x.shape}")
    y = x.reshape((dof_map.dim,) + dof_map.interior + (x.shape[1],))
    for axis in range(1, dof_map.dim + 1):
        coarse = np.moveaxis(y, axis, 0)
        fine = np.zeros((2 * len(coarse) + 1,) + coarse.shape[1:])
        fine[1::2] = coarse
        fine[:-1:2] += 0.5 * coarse
        fine[2::2] += 0.5 * coarse
        y = np.moveaxis(fine, 0, axis)
    return y.reshape(-1, x.shape[1])


def interpolate_field(problem, components):
    """Interior-node interpolant of analytic vector fields, component-major.

    ``components`` is a sequence of callables taking the dim coordinate
    arrays (broadcast on the interior grid) and returning node values.
    """
    dof_map = _dof_map(problem)
    axes = [h * np.arange(1, n + 1)
            for n, h in zip(dof_map.interior, dof_map.spacings)]
    grids = np.meshgrid(*axes, indexing="ij")
    parts = [np.asarray(comp(*grids), dtype=np.float64).ravel()
             for comp in components]
    if len(parts) != problem.dim:
        raise ValueError("need one component callable per dimension")
    return np.concatenate(parts)


def reference_spectrum_alpha0(edges, count):
    """First ``count`` eigenvalues of the decoupled α = 0 problem.

    They are the Dirichlet Laplacian values Σ_j (m_j π / L_j)², m_j >= 1,
    each repeated dim times (one per vector component), sorted ascending.
    """
    edges = tuple(float(e) for e in edges)
    if count < 1:
        raise ValueError("count must be >= 1")
    dim = len(edges)
    base = [(np.pi / e) ** 2 for e in edges]
    # lazy enumeration of lattice sums via a heap over index tuples
    start = tuple([1] * dim)
    heap = [(sum(base), start)]
    seen = {start}
    values = []
    while len(values) < count:
        val, idx = heapq.heappop(heap)
        values.extend([val] * dim)
        for d in range(dim):
            nxt = list(idx)
            nxt[d] += 1
            nxt = tuple(nxt)
            if nxt not in seen:
                seen.add(nxt)
                heapq.heappush(heap, (sum(b * m * m
                                          for b, m in zip(base, nxt)), nxt))
    return np.array(values[:count])

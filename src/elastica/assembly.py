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
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .dst import BlockLaplacianInverse
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
        if any(e <= 0 for e in edges):
            raise ValueError("edges must be positive")
        if any(c < 2 for c in cells):
            raise ValueError("need at least 2 cells per direction "
                             "(one interior node)")
        if self.alpha < 0:
            raise ValueError("alpha must be non-negative")

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


def _coo_1d(n, lower, diag, upper):
    """COO triplets of an n x n tridiagonal with constant diagonals."""
    idx = np.arange(n)
    rows = np.concatenate([idx, idx[1:], idx[:-1]])
    cols = np.concatenate([idx, idx[:-1], idx[1:]])
    vals = np.concatenate([np.full(n, diag),
                           np.full(n - 1, lower),
                           np.full(n - 1, upper)])
    return rows, cols, vals


def _one_d_matrices(n, h):
    """Interior P1 stiffness, mass and convection ∫φ'ψ on a uniform grid."""
    stiff = _coo_1d(n, -1.0 / h, 2.0 / h, -1.0 / h)
    mass = _coo_1d(n, h / 6.0, 4.0 * h / 6.0, h / 6.0)
    conv = _coo_1d(n, 0.5, 0.0, -0.5)
    return stiff, mass, conv


def _kron(a, b, nb):
    """Kronecker product of COO triplets; b indexes the faster axis."""
    ra, ca, va = a
    rb, cb, vb = b
    rows = (ra[:, None] * nb + rb[None, :]).ravel()
    cols = (ca[:, None] * nb + cb[None, :]).ravel()
    vals = (va[:, None] * vb[None, :]).ravel()
    return rows, cols, vals


def _kron_chain(factors, sizes):
    out = factors[0]
    size = sizes[0]
    for fac, n in zip(factors[1:], sizes[1:]):
        out = _kron(out, fac, n)
        size *= n
    return out


def assemble(problem):
    """Assemble (K, M, dof_map) for the generalized eigenproblem.

    K = K_lap + alpha*K_div and M are exactly symmetric; the generalized
    eigenvalues approximate the continuous ones at O(h²) for smooth
    eigenfunctions.
    """
    dim = problem.dim
    interior = tuple(c - 1 for c in problem.cells)
    spacings = tuple(e / c for e, c in zip(problem.edges, problem.cells))
    dof_map = DofMap(dim, interior, spacings)
    nodes = dof_map.nodes

    stiff, mass, conv = zip(*(_one_d_matrices(n, h)
                              for n, h in zip(interior, spacings)))
    conv_t = tuple((c[1], c[0], c[2]) for c in conv)

    def tensor(kind_per_axis):
        table = {"K": stiff, "M": mass, "C": conv, "Ct": conv_t}
        return _kron_chain([table[t][d] for d, t in enumerate(kind_per_axis)],
                           list(interior))

    def scalar_stiffness():
        blocks = []
        for d in range(dim):
            kinds = ["M"] * dim
            kinds[d] = "K"
            blocks.append(tensor(kinds))
        return blocks

    rows_k, cols_k, vals_k = [], [], []
    rows_m, cols_m, vals_m = [], [], []

    def push(target, block, comp_row, comp_col, scale=1.0):
        r, c, v = block
        target[0].append(r + comp_row * nodes)
        target[1].append(c + comp_col * nodes)
        target[2].append(v * scale)

    mass_block = tensor(["M"] * dim)
    lap_blocks = scalar_stiffness()
    for comp in range(dim):
        for blk in lap_blocks:
            push((rows_k, cols_k, vals_k), blk, comp, comp)
        push((rows_m, cols_m, vals_m), mass_block, comp, comp)

    alpha = problem.alpha
    if alpha > 0:
        for comp in range(dim):
            kinds = ["M"] * dim
            kinds[comp] = "K"
            push((rows_k, cols_k, vals_k), tensor(kinds), comp, comp, alpha)
        for ca in range(dim):
            for cb in range(ca + 1, dim):
                # block (ca, cb) of the divergence Gram:
                # ∫ (d phi/dx_ca)(d psi/dx_cb) = C_ca ⊗ Ct_cb ⊗ masses
                kinds = ["M"] * dim
                kinds[ca] = "C"
                kinds[cb] = "Ct"
                blk = tensor(kinds)
                push((rows_k, cols_k, vals_k), blk, ca, cb, alpha)
                push((rows_k, cols_k, vals_k),
                     (blk[1], blk[0], blk[2]), cb, ca, alpha)

    order = dof_map.order
    K = SparseSymMatrix.from_coo(order, np.concatenate(rows_k),
                                 np.concatenate(cols_k),
                                 np.concatenate(vals_k))
    M = SparseSymMatrix.from_coo(order, np.concatenate(rows_m),
                                 np.concatenate(cols_m),
                                 np.concatenate(vals_m))
    return K, M, dof_map


def divergence_stiffness(problem):
    """The divergence Gram matrix K_div alone (alpha-independent)."""
    base = ElasticityProblem(problem.edges, 0.0, problem.cells)
    k0, _, _ = assemble(base)
    unit = ElasticityProblem(problem.edges, 1.0, problem.cells)
    k1, _, _ = assemble(unit)
    return k1.add_scaled(k0, -1.0)


def laplacian_inverse(problem):
    """Exact inverse of the α = 0 stiffness, the eigensolver preconditioner."""
    interior = tuple(c - 1 for c in problem.cells)
    spacings = tuple(e / c for e, c in zip(problem.edges, problem.cells))
    return BlockLaplacianInverse(list(zip(interior, spacings)), problem.dim)


def interpolate_field(problem, components):
    """Interior-node interpolant of analytic vector fields, component-major.

    ``components`` is a sequence of callables taking the dim coordinate
    arrays (broadcast on the interior grid) and returning node values.
    """
    interior = tuple(c - 1 for c in problem.cells)
    spacings = tuple(e / c for e, c in zip(problem.edges, problem.cells))
    axes = [h * np.arange(1, n + 1) for n, h in zip(interior, spacings)]
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

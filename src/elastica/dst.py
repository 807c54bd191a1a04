"""Fast sine transforms and exact inverses of tensor-product operators.

The 1D first-order stiffness, mass and convection matrices on a uniform
interior grid are all symmetric tridiagonal Toeplitz, so the discrete sine
vectors diagonalise stiffness and mass simultaneously.  That yields an exact
O(N log N) inverse of the multilinear vector-Laplacian stiffness, used as the
preconditioner for the sparse eigensolver on boxes.
"""

from __future__ import annotations

import numpy as np


def dst1(a, axis=0):
    """Type-I discrete sine transform along ``axis``.

    Returns ``X[j] = sum_i a[i] * sin(pi (i+1)(j+1) / (n+1))``; applying it
    twice multiplies by (n+1)/2.
    """
    a = np.asarray(a, dtype=np.float64)
    a = np.moveaxis(a, axis, 0)
    n = a.shape[0]
    shape = (2 * n + 2,) + a.shape[1:]
    w = np.zeros(shape)
    w[1:n + 1] = a
    w[n + 2:] = -a[::-1]
    spec = np.fft.rfft(w, axis=0)
    out = -0.5 * spec.imag[1:n + 1]
    return np.moveaxis(out, 0, axis)


def stiffness_eigenvalues_1d(n, h):
    """Eigenvalues of the interior P1 stiffness tridiag(-1, 2, -1)/h."""
    j = np.arange(1, n + 1)
    return (2.0 - 2.0 * np.cos(j * np.pi / (n + 1))) / h


def mass_eigenvalues_1d(n, h):
    """Eigenvalues of the interior P1 mass tridiag(1, 4, 1)*h/6."""
    j = np.arange(1, n + 1)
    return h * (4.0 + 2.0 * np.cos(j * np.pi / (n + 1))) / 6.0


class ScalarLaplacianInverse:
    """Exact inverse of the tensor-product P1 Laplacian stiffness.

    ``grid`` lists (interior_points, mesh_size) per direction, slowest axis
    first; vectors are flattened row-major (last direction fastest).
    """

    def __init__(self, grid):
        self.grid = tuple(grid)
        self.shape = tuple(n for n, _ in self.grid)
        kappas = [stiffness_eigenvalues_1d(n, h) for n, h in self.grid]
        masses = [mass_eigenvalues_1d(n, h) for n, h in self.grid]
        dim = len(self.grid)
        self.eig = np.zeros(self.shape)
        for d in range(dim):
            term = np.ones(self.shape)
            for e in range(dim):
                vec = kappas[e] if e == d else masses[e]
                sl = [None] * dim
                sl[e] = slice(None)
                term = term * vec[tuple(sl)]
            self.eig += term
        self.scale = np.prod([2.0 / (n + 1) for n, _ in self.grid])

    def apply(self, x):
        """Solve K_lap y = x for one vector or a column block."""
        x = np.asarray(x, dtype=np.float64)
        single = x.ndim == 1
        xb = x[:, None] if single else x
        work = xb.reshape(self.shape + (xb.shape[1],))
        for axis in range(len(self.shape)):
            work = dst1(work, axis=axis)
        work = work / self.eig[..., None]
        for axis in range(len(self.shape)):
            work = dst1(work, axis=axis)
        work = work * self.scale
        out = work.reshape(xb.shape)
        return out[:, 0] if single else out


class BlockLaplacianInverse:
    """Per-component application of :class:`ScalarLaplacianInverse`.

    Acts on component-major vectors of ``ncomp`` stacked scalar fields; the
    divergence coupling is ignored, which keeps the preconditioned spectrum
    within a factor ~(1 + alpha) of unity.
    """

    def __init__(self, grid, ncomp):
        self.scalar = ScalarLaplacianInverse(grid)
        self.ncomp = ncomp
        self.block = int(np.prod(self.scalar.shape))

    def __call__(self, x):
        x = np.asarray(x, dtype=np.float64)
        single = x.ndim == 1
        xb = x[:, None] if single else x
        out = np.empty_like(xb)
        for c in range(self.ncomp):
            sl = slice(c * self.block, (c + 1) * self.block)
            out[sl] = self.scalar.apply(xb[sl])
        return out[:, 0] if single else out

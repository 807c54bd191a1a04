"""Symmetric sparse (CSR) and banded matrix containers.

Assembly produces ``SparseSymMatrix`` for the Matrix Market export, which
the tests also read as the nodal pencil that the sine-coordinate box
operators must reproduce; the radial cap problems work with
``BandedSymMatrix``.  Matrix Market export/import is provided for
external cross-checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class MatrixFormatError(ValueError):
    """Structurally invalid matrix input (asymmetry, bad shapes, bad files)."""


def _csr_from_coo(order, rows, cols, vals):
    """Build canonical CSR triplets (duplicates summed, columns sorted)."""
    rows = np.asarray(rows, dtype=np.int64).ravel()
    cols = np.asarray(cols, dtype=np.int64).ravel()
    vals = np.asarray(vals, dtype=np.float64).ravel()
    if not (rows.shape == cols.shape == vals.shape):
        raise MatrixFormatError("COO arrays must have identical length")
    if rows.size and (rows.min() < 0 or rows.max() >= order
                      or cols.min() < 0 or cols.max() >= order):
        raise MatrixFormatError("COO index out of range")
    key = rows * order + cols
    uniq, inverse = np.unique(key, return_inverse=True)
    data = np.bincount(inverse, weights=vals, minlength=uniq.size)
    urows = uniq // order
    ucols = uniq - urows * order
    indptr = np.zeros(order + 1, dtype=np.int64)
    np.add.at(indptr, urows + 1, 1)
    np.cumsum(indptr, out=indptr)
    return indptr, ucols, data


@dataclass(frozen=True)
class SparseSymMatrix:
    """Symmetric sparse matrix in CSR layout (both triangles stored).

    Construction through :meth:`from_coo` verifies exact numerical symmetry;
    assembly guarantees it by accumulating symmetric element contributions,
    so the check costs one canonicalisation of the transpose.
    """

    order: int
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray

    @classmethod
    def from_coo(cls, order, rows, cols, vals):
        mat = cls(order, *_csr_from_coo(order, rows, cols, vals))
        if not mat._is_symmetric():
            raise MatrixFormatError("matrix is not numerically symmetric")
        return mat

    def _is_symmetric(self):
        rows = np.repeat(np.arange(self.order), np.diff(self.indptr))
        t_indptr, t_indices, t_data = _csr_from_coo(
            self.order, self.indices, rows, self.data)
        return (np.array_equal(t_indptr, self.indptr)
                and np.array_equal(t_indices, self.indices)
                and np.array_equal(t_data, self.data))

    @property
    def nnz(self):
        return int(self.data.size)

    def matvec(self, x):
        """A @ x for a vector (n,) or a block of vectors (n, b)."""
        x = np.asarray(x, dtype=np.float64)
        single = x.ndim == 1
        xb = x[:, None] if single else x
        if xb.shape[0] != self.order:
            raise MatrixFormatError("operand has wrong leading dimension")
        # the (nnz, b) gather scratch is fine at the oracle sizes CSR serves;
        # empty rows are left out of reduceat, which cannot express them
        prod = self.data[:, None] * xb[self.indices, :]
        out = np.zeros((self.order, xb.shape[1]))
        rows = np.flatnonzero(np.diff(self.indptr))
        if rows.size:
            out[rows] = np.add.reduceat(prod, self.indptr[rows], axis=0)
        return out[:, 0] if single else out


@dataclass(frozen=True)
class BandedSymMatrix:
    """Symmetric banded matrix in lower-band storage.

    ``bands[d, i] = A[i + d, i]`` for ``0 <= d <= bandwidth``; entries past
    the matrix edge are zero padding.
    """

    order: int
    bandwidth: int
    bands: np.ndarray

    def __post_init__(self):
        if self.bands.shape != (self.bandwidth + 1, self.order):
            raise MatrixFormatError("band storage has wrong shape")

    @classmethod
    def from_dense(cls, dense):
        """Bands of a dense symmetric matrix; a test-side constructor.

        The bandwidth is the farthest nonzero from the diagonal.
        """
        dense = np.asarray(dense, dtype=np.float64)
        n = dense.shape[0]
        if dense.shape != (n, n):
            raise MatrixFormatError("dense input must be square")
        if not np.array_equal(dense, dense.T):
            raise MatrixFormatError("dense input must be symmetric")
        rows, cols = np.nonzero(dense)
        bandwidth = int(np.max(np.abs(rows - cols), initial=0))
        bands = np.zeros((bandwidth + 1, n))
        for d in range(bandwidth + 1):
            bands[d, :n - d] = np.diagonal(dense, -d)
        return cls(n, bandwidth, bands)

    def matvec(self, x):
        x = np.asarray(x, dtype=np.float64)
        single = x.ndim == 1
        xb = x[:, None] if single else x
        out = self.bands[0][:, None] * xb
        for d in range(1, self.bandwidth + 1):
            band = self.bands[d][:self.order - d][:, None]
            out[d:] += band * xb[:-d]
            out[:-d] += band * xb[d:]
        return out[:, 0] if single else out

    def norm1(self):
        """Maximum absolute column sum."""
        sums = np.abs(self.bands).sum(axis=0)
        for d in range(1, self.bandwidth + 1):
            sums[d:] += np.abs(self.bands[d, :self.order - d])
        return float(sums.max()) if self.order else 0.0


def write_matrix_market(path, matrix, comment=None):
    """Write a SparseSymMatrix in coordinate format (real symmetric).

    Only the lower triangle is emitted, values with 17 significant digits so
    float64 entries round-trip exactly.
    """
    rows = np.repeat(np.arange(matrix.order), np.diff(matrix.indptr))
    cols = matrix.indices
    keep = rows >= cols
    with open(path, "w", encoding="ascii") as fh:
        fh.write("%%MatrixMarket matrix coordinate real symmetric\n")
        if comment:
            for line in comment.splitlines():
                fh.write(f"%{line}\n")
        fh.write(f"{matrix.order} {matrix.order} {int(keep.sum())}\n")
        for i, j, v in zip(rows[keep], cols[keep], matrix.data[keep]):
            fh.write(f"{i + 1} {j + 1} {v:.17g}\n")


def read_matrix_market(path):
    """Read a real symmetric coordinate Matrix Market file.

    The stored triangle is mirrored, so the matrix is symmetric by
    construction and skips the check in :meth:`SparseSymMatrix.from_coo`.
    """
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().strip().lower().split()
        if header[:4] != ["%%matrixmarket", "matrix", "coordinate", "real"]:
            raise MatrixFormatError(f"unsupported Matrix Market header: {header}")
        if "symmetric" not in header:
            raise MatrixFormatError("only symmetric matrices are supported")
        line = fh.readline()
        while line.startswith("%"):
            line = fh.readline()
        nrow, ncol, nnz = (int(t) for t in line.split())
        if nrow != ncol:
            raise MatrixFormatError("matrix must be square")
        rows = np.empty(nnz, dtype=np.int64)
        cols = np.empty(nnz, dtype=np.int64)
        vals = np.empty(nnz)
        for t in range(nnz):
            parts = fh.readline().split()
            rows[t] = int(parts[0]) - 1
            cols[t] = int(parts[1]) - 1
            vals[t] = float(parts[2])
    off = rows != cols
    rows_full = np.concatenate([rows, cols[off]])
    cols_full = np.concatenate([cols, rows[off]])
    vals_full = np.concatenate([vals, vals[off]])
    return SparseSymMatrix(nrow, *_csr_from_coo(nrow, rows_full, cols_full,
                                                vals_full))

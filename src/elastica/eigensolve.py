"""Self-contained symmetric generalized eigensolvers.

Two paths, both free of third-party eigensolver libraries (numpy supplies
array arithmetic, the dense Rayleigh-Ritz projections and the LAPACK
factorisations of dense blocks):

* :func:`smallest_eigenpairs`: preconditioned blocked LOBPCG iteration for
  large pencils (K, M) given as sparse or matrix-free operators,
  deterministic for a fixed seed.  The block is sized past the requested
  count so clustered eigenvalues are recovered.
* :func:`banded_smallest`: banded Cholesky factorisation plus block inverse
  iteration for small banded pencils (orders up to ~1e4).  The factor is
  built and applied on dense 64×64 diagonal blocks with numpy's LAPACK
  (``np.linalg.cholesky`` and ``inv``), coupled through bandwidth² corners.

Both carry every block of b columns together with its pencil images as one
``(3, n, b)`` stack (Y, K·Y, M·Y), or (Y, A·Y, B·Y) for the banded pencil.
A change of basis ``S @ C``, a concatenation along the last axis or a column
scaling then moves all three at once, and :func:`_rayleigh_ritz` reads both
Gram matrices from the stack without applying the pencil again.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: whitening drops Gram eigenvalues below DROP_REL times the largest
DROP_REL = 1e-13


class BreakdownError(RuntimeError):
    """A solver step broke down and left no result to report."""


class IndefiniteMassError(BreakdownError):
    """The mass/metric matrix is not positive definite."""


class FactorizationError(BreakdownError):
    """A direct factorisation broke down (non-positive pivot)."""

    def __init__(self, pivot, value):
        self.pivot = pivot
        self.value = value
        super().__init__(f"non-positive pivot {value:.3e} at index {pivot}")


class ConvergenceError(RuntimeError):
    """Iteration budget exhausted; carries the partial result."""

    def __init__(self, result, message):
        self.result = result
        super().__init__(message)


@dataclass(frozen=True)
class EigenResult:
    """Smallest eigenpairs with per-pair convergence evidence.

    ``residuals`` are relative: ||K x − σ M x||₂ / (σ ||x||_M); eigenvectors
    are M-orthonormal.
    """

    values: np.ndarray
    vectors: np.ndarray
    residuals: np.ndarray
    iterations: int
    converged: np.ndarray


def _stack(K, M, Y):
    """The (3, n, b) stack (Y, K·Y, M·Y) of a column block."""
    return np.stack((Y, K.matvec(Y), M.matvec(Y)))


def _whiten(gram):
    """Return V with Vᵀ G V = I on the numerically independent subspace.

    Callers pass column-normalised bases so the Gram is well scaled; tiny
    negative eigenvalues are dependent directions and get dropped, while a
    clearly negative one witnesses an indefinite metric.
    """
    gram = 0.5 * (gram + gram.T)
    evals, evecs = np.linalg.eigh(gram)
    top = max(evals[-1], 0.0)
    if evals[0] < -1e-10 * max(top, 1.0):
        raise IndefiniteMassError(
            f"metric Gram matrix has negative eigenvalue {evals[0]:.3e}")
    keep = evals > DROP_REL * max(top, 1e-300)
    if not np.any(keep):
        raise BreakdownError("iteration subspace collapsed")
    return evecs[:, keep] / np.sqrt(evals[keep])


def _rayleigh_ritz(S):
    """Ritz values θ (ascending) and coefficients C of a stacked block.

    With S = (Y, K·Y, M·Y): Cᵀ(YᵀMY)C = I and Cᵀ(YᵀKY)C = diag θ on the
    numerically independent part of span Y, so ``S @ C`` is the stack of
    the Ritz vectors.
    """
    Y, KY, MY = S
    try:
        V = _whiten(Y.T @ MY)
        H = V.T @ (Y.T @ KY) @ V
        theta, Q = np.linalg.eigh(0.5 * (H + H.T))
    except np.linalg.LinAlgError as err:
        raise BreakdownError(f"Rayleigh-Ritz projection failed: {err}") \
            from None
    return theta, V @ Q


def _residuals(KX, MX, theta):
    """Residual block K X − M X θ and its relative column norms."""
    R = KX - MX * theta
    norms = np.linalg.norm(R, axis=0)
    return R, norms / np.maximum(np.abs(theta), 1e-300)


def smallest_eigenpairs(K, M, m, tol=1e-8, seed=0, maxiter=500,
                        precond=None, start=None):
    """m algebraically smallest eigenpairs of K x = σ M x by blocked LOBPCG.

    K and M need only ``order`` and ``matvec`` (on (n,) and (n, b)
    operands): a CSR matrix or a matrix-free operator.  K must be
    symmetric, M symmetric positive definite, m <= order/4.  The
    starting block of m + 8 columns is pseudo-random from ``seed``, and the
    whole iteration is deterministic.  An (n, k) ``start`` block with
    k <= m, such as eigenvector approximations from a coarser mesh,
    replaces its first k columns; ``seed`` still draws the others, so the
    guard columns past m stay random and can find an eigenvector that
    ``start`` misses.  Eigenvalues within a cluster are reported
    individually.

    Residuals are decided implicitly and reported explicitly: each
    iteration takes its residual norms from the K X and M X blocks it
    already holds, and once those pass ``tol`` the block is polished and
    the residuals are recomputed with K and M.  Convergence is declared on
    the recomputed ones, and every exit reports them.  Non-convergence
    within ``maxiter`` raises :class:`ConvergenceError` carrying the
    partial result with per-pair flags; a collapsed subspace raises
    :class:`BreakdownError`.
    """
    n = K.order
    if m < 1:
        raise ValueError("m must be >= 1")
    if m > n // 4:
        raise ValueError(f"m={m} exceeds order/4 = {n // 4}")
    bs = min(m + 8, n)

    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, bs))
    if start is not None:
        start = np.asarray(start, dtype=np.float64)
        if start.ndim != 2 or start.shape[0] != n or start.shape[1] > m:
            raise ValueError(f"start must be an ({n}, k) block with k <= "
                             f"m = {m}, got shape {start.shape}")
        X[:, :start.shape[1]] = start
    X = _stack(K, M, X / np.linalg.norm(X, axis=0))
    theta, C = _rayleigh_ritz(X)
    X = X @ C

    P = None
    it = 0
    certified = False
    R, res = _residuals(X[1], X[2], theta)
    while it < maxiter:
        if np.all(res[:m] <= tol):
            # rotations inside an eigenvalue cluster redistribute residual
            # norms, so convergence is decided on the re-projected block
            theta, C = _rayleigh_ritz(X)
            X = X @ C
            _, res = _residuals(K.matvec(X[0]), M.matvec(X[0]), theta)
            if np.all(res[:m] <= tol):
                certified = True
                break
            R = X[1] - X[2] * theta
        conv = res <= tol
        it += 1
        active = ~conv
        if not np.any(active):
            active = np.zeros_like(conv)
            active[:m] = True
        W = R[:, active]
        if precond is not None:
            W = precond(W)
        W = _stack(K, M, W)
        W *= 1.0 / np.sqrt(np.maximum(np.einsum("ij,ij->j", W[0], W[2]),
                                      1e-300))

        S = np.concatenate([X, W] if P is None else [X, W, P], axis=2)
        theta, C = _rayleigh_ritz(S)
        theta, C = theta[:bs], C[:, :bs]

        # momentum block: the Ritz directions' W/P part alone, kept
        # M-normalised column by column; the new X adds the X part to it
        nx = X.shape[2]
        P = S[:, :, nx:] @ C[nx:]
        X = X @ C[:nx] + P
        pnorm = np.sqrt(np.maximum(np.einsum("ij,ij->j", P[0], P[2]), 0.0))
        keep = pnorm > 1e-12
        P = P[:, :, keep] * (1.0 / pnorm[keep]) if np.any(keep) else None
        # the basis stack is dead now; freeing it before the next
        # iteration's applies and concatenation lowers the peak memory
        del S
        R, res = _residuals(X[1], X[2], theta)

    # every exit but the certified break (the budget running out, even just
    # after the implicit norms passed) re-projects and recomputes the
    # residuals explicitly, so the partial result is M-orthonormal and its
    # residuals are true ones
    if not certified:
        theta, C = _rayleigh_ritz(X)
        X = X @ C
        _, res = _residuals(K.matvec(X[0]), M.matvec(X[0]), theta)
    if theta.size < m:
        raise BreakdownError(
            f"iteration subspace degenerated to {theta.size} directions, "
            f"fewer than the {m} requested")
    theta = theta[:m]
    X = X[0, :, :m].copy()
    res = res[:m]
    converged = res <= tol
    result = EigenResult(theta.copy(), X, res, it, converged)
    if not np.all(converged):
        bad = np.flatnonzero(~converged)
        raise ConvergenceError(result,
                               f"unconverged eigenpairs at indices {bad.tolist()} "
                               f"after {it} iterations (tol {tol:g})")
    return result


_BLOCK = 64


@dataclass
class BandedCholesky:
    """Lower Cholesky factor of a banded SPD matrix in dense diagonal blocks.

    The order is padded with identity rows to whole blocks.  ``inv_diag[j]``
    is L_jj⁻¹; ``coupling[j]`` is the bandwidth² corner (first rows, last
    columns) of L_{j,j−1}, its only nonzero part.
    """

    order: int
    bandwidth: int
    inv_diag: np.ndarray
    coupling: np.ndarray

    def solve(self, b):
        """Solve L Lᵀ x = b for a vector or column block."""
        b = np.asarray(b, dtype=np.float64)
        if b.shape[0] != self.order:
            raise ValueError(f"factor of order {self.order} cannot solve an "
                             f"operand of length {b.shape[0]}")
        single = b.ndim == 1
        b = b[:, None] if single else b
        inv, C, bw = self.inv_diag, self.coupling, self.bandwidth
        nblk, size, _ = inv.shape
        y = np.zeros((nblk * size, b.shape[1]))
        y[:self.order] = b
        y = y.reshape(nblk, size, -1)
        for j in range(nblk):
            if j and bw:
                y[j, :bw] -= C[j] @ y[j - 1, -bw:]
            y[j] = inv[j] @ y[j]
        for j in range(nblk - 1, -1, -1):
            y[j] = inv[j].T @ y[j]
            if j and bw:
                y[j - 1, -bw:] -= C[j].T @ y[j, :bw]
        x = y.reshape(nblk * size, -1)[:self.order]
        return x[:, 0] if single else x


def _first_bad_pivot(block):
    """(index, value) of the first pivot ≤ 0 in the column loop on a dense
    block; the smallest pivot if round-off lets every one pass."""
    a = np.tril(block)
    pivots = np.empty(len(a))
    for k in range(len(a)):
        pivots[k] = a[k, k]
        if not pivots[k] > 0.0:
            return k, pivots[k]
        a[k:, k] /= np.sqrt(pivots[k])
        a[k + 1:, k + 1:] -= np.outer(a[k + 1:, k], a[k + 1:, k])
    k = int(np.argmin(pivots))
    return k, pivots[k]


def cholesky_banded(A):
    """Banded Cholesky of a BandedSymMatrix; fails loudly on bad pivots.

    Factors dense diagonal blocks in order; block j's top-left corner first
    loses c cᵀ, where c = A_{j,j−1} corner · (trailing corner of L_{j−1})⁻ᵀ.
    """
    n, bw = A.order, A.bandwidth
    size = max(_BLOCK, bw)
    nblk = -(-n // size)
    diag = np.zeros((nblk, size, size))  # cholesky reads the lower triangle
    corner = np.zeros((nblk, bw, bw))
    for d in range(bw + 1):
        col = np.arange(n - d)
        blk, c = np.divmod(col, size)
        row_blk, r = np.divmod(col + d, size)
        vals = A.bands[d, :n - d]
        same = row_blk == blk
        diag[blk[same], r[same], c[same]] = vals[same]
        cross = ~same
        corner[row_blk[cross], r[cross], c[cross] - (size - bw)] = vals[cross]
    pad = np.arange(n, nblk * size) - (nblk - 1) * size
    diag[-1, pad, pad] = 1.0
    for j in range(nblk):  # diag[:j] already holds the factors L_ii
        if j and bw:
            coupling = np.linalg.solve(diag[j - 1, -bw:, -bw:], corner[j].T).T
            diag[j, :bw, :bw] -= coupling @ coupling.T
            corner[j] = coupling
        try:
            diag[j] = np.linalg.cholesky(diag[j])
        except np.linalg.LinAlgError:
            k, value = _first_bad_pivot(diag[j])
            raise FactorizationError(j * size + k, value) from None
    return BandedCholesky(n, bw, np.linalg.inv(diag), corner)


def banded_smallest(A, B, m=1, tol=1e-10, maxiter=300, seed=0):
    """m smallest eigenpairs of banded A x = λ B x by inverse block iteration.

    A and B must be positive definite.  Intended for orders up to ~1e4
    where the banded factorisation is cheap.  Each iteration solves with
    the factor of A on B·X, applies A and B once to the new block Y, and
    takes the next B·X from the Ritz combination of the (Y, A·Y, B·Y)
    stack.  Because the two pencil norms may differ by the full h^(-4)
    conditioning of a fourth-order problem, ``tol`` and the reported
    residuals here are backward errors
    ||A x − λ B x|| / ((||A||₁ + λ||B||₁)·||x||), not λ-relative norms,
    computed explicitly on the m kept columns.
    """
    n = A.order
    if B.order != n:
        raise ValueError("A and B must have equal order")
    if not 1 <= m <= n:
        raise ValueError("need 1 <= m <= order")
    factor = cholesky_banded(A)

    bs = min(n, max(m + 4, 6))
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, bs))
    BX = B.matvec(X)
    norm_a = A.norm1()
    norm_b = B.norm1()

    def backward_errors(vectors, values):
        # scale-invariant residual: the pencil norms can be h^(-4) apart
        R = A.matvec(vectors) - B.matvec(vectors) * values
        scale = (norm_a + np.abs(values) * norm_b) \
            * np.linalg.norm(vectors, axis=0)
        return np.linalg.norm(R, axis=0) / np.maximum(scale, 1e-300)

    it = 0
    while True:
        it += 1
        Y = factor.solve(BX)
        Y /= np.maximum(np.linalg.norm(Y, axis=0), 1e-300)
        S = _stack(A, B, Y)
        theta, C = _rayleigh_ritz(S)
        X, BX = S[::2] @ C
        residuals = backward_errors(X[:, :m], theta[:m])
        if np.all(residuals <= tol) or it >= maxiter:
            break
    values = theta[:m]
    vectors = X[:, :m]
    converged = residuals <= tol
    result = EigenResult(values.copy(), vectors, residuals, it, converged)
    if not np.all(converged):
        bad = np.flatnonzero(~converged)
        raise ConvergenceError(result,
                               f"unconverged banded eigenpairs {bad.tolist()} "
                               f"after {it} iterations (tol {tol:g})")
    return result

"""Self-contained symmetric generalized eigensolvers.

Two paths, both free of third-party eigensolver/factorisation libraries
(numpy supplies array arithmetic and the dense Rayleigh-Ritz projections):

* :func:`smallest_eigenpairs`: preconditioned blocked LOBPCG iteration for
  large pencils (K, M) given as sparse or matrix-free operators,
  deterministic for a fixed seed.  The block is sized past the requested
  count so clustered eigenvalues are recovered.
* :func:`banded_smallest`: banded Cholesky factorisation plus block inverse
  iteration for small banded pencils (orders up to ~1e4).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class IndefiniteMassError(ValueError):
    """The mass/metric matrix is not positive definite."""


class FactorizationError(ValueError):
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


def _whiten(gram, drop_rel=1e-13, raise_indefinite=False):
    """Return V with Vᵀ G V = I on the numerically independent subspace.

    Callers pass column-normalised bases so the Gram is well scaled; tiny
    negative eigenvalues are dependent directions and get dropped, except on
    the initial block where they witness an indefinite metric.
    """
    gram = 0.5 * (gram + gram.T)
    evals, evecs = np.linalg.eigh(gram)
    top = max(evals[-1], 0.0)
    if raise_indefinite and evals[0] < -1e-10 * max(top, 1.0):
        raise IndefiniteMassError(
            f"metric Gram matrix has negative eigenvalue {evals[0]:.3e}")
    keep = evals > drop_rel * max(top, 1e-300)
    if not np.any(keep):
        return None
    return evecs[:, keep] / np.sqrt(evals[keep])


def _unit_metric_columns(blocks):
    """Scale the column blocks (S, KS, MS alike) to unit metric norm."""
    S, KS, MS = blocks
    norms = np.sqrt(np.maximum(np.einsum("ij,ij->j", S, MS), 1e-300))
    inv = 1.0 / norms
    return S * inv, KS * inv, MS * inv


def _residuals(KX, MX, theta):
    """Residual block K X − M X θ and its relative column norms."""
    R = KX - MX * theta
    norms = np.linalg.norm(R, axis=0)
    return R, norms / np.maximum(np.abs(theta), 1e-300)


def smallest_eigenpairs(K, M, m, tol=1e-8, seed=0, maxiter=500,
                        precond=None):
    """m algebraically smallest eigenpairs of K x = σ M x by blocked LOBPCG.

    K and M need only ``order`` and ``matvec`` (on (n,) and (n, b)
    operands): a CSR matrix or a matrix-free operator.  K must be
    symmetric, M symmetric positive definite, m <= order/4.  The
    starting block is pseudo-random from ``seed`` and the whole iteration is
    deterministic.  Eigenvalues within a cluster are reported individually.

    Residuals are decided implicitly and reported explicitly: each
    iteration takes its residual norms from the K X and M X blocks it
    already holds, and once those pass ``tol`` the block is polished and
    the residuals are recomputed with K and M.  Convergence is declared on
    the recomputed ones, and every exit reports them.  Non-convergence
    within ``maxiter`` raises :class:`ConvergenceError` carrying the
    partial result with per-pair flags.
    """
    n = K.order
    if m < 1:
        raise ValueError("m must be >= 1")
    if m > n // 4:
        raise ValueError(f"m={m} exceeds order/4 = {n // 4}")
    bs = min(m + 8, n)

    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, bs))
    X /= np.linalg.norm(X, axis=0)
    MX = M.matvec(X)
    V = _whiten(X.T @ MX, raise_indefinite=True)
    if V is None:
        raise ValueError("starting block collapsed")
    X, MX = X @ V, MX @ V
    KX = K.matvec(X)
    H = 0.5 * ((X.T @ KX) + (X.T @ KX).T)
    theta, Q = np.linalg.eigh(H)
    X, KX, MX = X @ Q, KX @ Q, MX @ Q

    def polish(X, KX, MX):
        """Return the block re-orthonormalised and re-diagonalised.

        Rotations inside an eigenvalue cluster redistribute residual norms,
        so the convergence decision below is made on the polished block."""
        V = _whiten(X.T @ MX)
        X, MX, KX = X @ V, MX @ V, KX @ V
        H = X.T @ KX
        theta, Q = np.linalg.eigh(0.5 * (H + H.T))
        return X @ Q, KX @ Q, MX @ Q, theta

    P = KP = MP = None
    it = 0
    certified = False
    R, res = _residuals(KX, MX, theta)
    while it < maxiter:
        if np.all(res[:m] <= tol):
            X, KX, MX, theta = polish(X, KX, MX)
            _, res = _residuals(K.matvec(X), M.matvec(X), theta)
            if np.all(res[:m] <= tol):
                certified = True
                break
            R = KX - MX * theta
        conv = res <= tol
        it += 1
        active = ~conv
        if not np.any(active):
            active = np.zeros_like(conv)
            active[:m] = True
        W = R[:, active]
        if precond is not None:
            W = precond(W)
        MW = M.matvec(W)
        KW = K.matvec(W)
        W, KW, MW = _unit_metric_columns((W, KW, MW))

        parts = [X, W] if P is None else [X, W, P]
        kparts = [KX, KW] if P is None else [KX, KW, KP]
        mparts = [MX, MW] if P is None else [MX, MW, MP]
        S = np.concatenate(parts, axis=1)
        KS = np.concatenate(kparts, axis=1)
        MS = np.concatenate(mparts, axis=1)

        V = _whiten(S.T @ MS)
        if V is None:
            break
        H = V.T @ (S.T @ KS) @ V
        H = 0.5 * (H + H.T)
        evals, evecs = np.linalg.eigh(H)
        take = min(bs, evals.size)
        C = V @ evecs[:, :take]
        theta = evals[:take]

        # momentum block: the Ritz directions' W/P part alone, kept
        # M-normalised column by column; the new X adds the X part to it
        nx = X.shape[1]
        Cx, Cr = C[:nx], C[nx:]
        Pn, KPn, MPn = S[:, nx:] @ Cr, KS[:, nx:] @ Cr, MS[:, nx:] @ Cr
        X, KX, MX = X @ Cx + Pn, KX @ Cx + KPn, MX @ Cx + MPn
        pnorm = np.sqrt(np.maximum(np.einsum("ij,ij->j", Pn, MPn), 0.0))
        keep = pnorm > 1e-12
        if np.any(keep):
            scale = 1.0 / pnorm[keep]
            P, KP, MP = Pn[:, keep] * scale, KPn[:, keep] * scale, \
                MPn[:, keep] * scale
        else:
            P = KP = MP = None
        # the basis blocks are dead now; freeing them before the next
        # iteration's applies and concatenations lowers the peak memory
        del S, KS, MS, Pn, KPn, MPn
        R, res = _residuals(KX, MX, theta)

    # every exit but the certified break (the budget running out, even just
    # after the implicit norms passed, or a collapsed subspace) polishes and
    # recomputes the residuals explicitly, so the partial result is
    # M-orthonormal and its residuals are true ones
    if not certified:
        X, KX, MX, theta = polish(X, KX, MX)
        _, res = _residuals(K.matvec(X), M.matvec(X), theta)
    if theta.size < m:
        raise ValueError(
            f"iteration subspace degenerated to {theta.size} directions, "
            f"fewer than the {m} requested")
    theta = theta[:m]
    X = X[:, :m]
    res = res[:m]
    converged = res <= tol
    result = EigenResult(theta.copy(), X, res, it, converged)
    if not np.all(converged):
        bad = np.flatnonzero(~converged)
        raise ConvergenceError(result,
                               f"unconverged eigenpairs at indices {bad.tolist()} "
                               f"after {it} iterations (tol {tol:g})")
    return result


@dataclass
class BandedCholesky:
    """Lower Cholesky factor of a banded SPD matrix, band storage."""

    order: int
    bandwidth: int
    bands: np.ndarray

    def solve(self, b):
        """Solve L Lᵀ x = b for a vector or column block."""
        b = np.asarray(b, dtype=np.float64)
        single = b.ndim == 1
        y = (b[:, None] if single else b).copy()
        n, bw, L = self.order, self.bandwidth, self.bands
        for i in range(n):
            lo = max(0, i - bw)
            if lo < i:
                mults = L[i - np.arange(lo, i), np.arange(lo, i)]
                y[i] -= mults @ y[lo:i]
            y[i] /= L[0, i]
        for i in range(n - 1, -1, -1):
            hi = min(n, i + bw + 1)
            if hi > i + 1:
                y[i] -= L[1:hi - i, i] @ y[i + 1:hi]
            y[i] /= L[0, i]
        return y[:, 0] if single else y


def cholesky_banded(A):
    """Banded Cholesky of a BandedSymMatrix; fails loudly on bad pivots."""
    n, bw = A.order, A.bandwidth
    L = np.zeros_like(A.bands)
    src = A.bands
    for j in range(n):
        s = src[:, j].copy()
        for k in range(max(0, j - bw), j):
            t = j - k
            ljk = L[t, k]
            if ljk != 0.0:
                lim = bw - t
                s[:lim + 1] -= ljk * L[t:t + lim + 1, k]
        if not s[0] > 0.0:
            raise FactorizationError(j, s[0])
        L[0, j] = np.sqrt(s[0])
        if bw:
            L[1:, j] = s[1:] / L[0, j]
    return BandedCholesky(n, bw, L)


def banded_smallest(A, B=None, m=1, tol=1e-10, maxiter=300, seed=0,
                    shift=0.0):
    """m smallest eigenpairs of banded A x = λ B x by shift-inverted block
    iteration.

    A (+ shift·B when a shift is supplied) must be positive definite; B
    defaults to the identity.  Intended for orders up to ~1e4 where the
    banded factorisation is cheap.  Because the two pencil norms may differ
    by the full h^(-4) conditioning of a fourth-order problem, ``tol`` and
    the reported residuals here are backward errors
    ||A x − λ B x|| / ((||A||₁ + λ||B||₁)·||x||), not λ-relative norms.
    """
    from .sparse import BandedSymMatrix

    n = A.order
    if B is None:
        B = BandedSymMatrix.identity(n)
    if B.order != n:
        raise ValueError("A and B must have equal order")
    if not 1 <= m <= n:
        raise ValueError("need 1 <= m <= order")
    work = A if shift == 0.0 else A.add_scaled(B, shift)
    factor = cholesky_banded(work)

    bs = min(n, max(m + 4, 6))
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, bs))
    norm_a = A.norm1()
    norm_b = B.norm1()

    def backward_errors(vectors, values):
        # scale-invariant residual: the pencil norms can be h^(-4) apart
        R = A.matvec(vectors) - B.matvec(vectors) * values
        scale = (norm_a + np.abs(values) * norm_b) \
            * np.linalg.norm(vectors, axis=0)
        return np.linalg.norm(R, axis=0) / np.maximum(scale, 1e-300)

    theta = np.zeros(bs)
    it = 0
    while it < maxiter:
        it += 1
        Y = factor.solve(B.matvec(X))
        Y /= np.maximum(np.linalg.norm(Y, axis=0), 1e-300)
        BY = B.matvec(Y)
        V = _whiten(Y.T @ BY)
        if V is None:
            raise ValueError("iteration subspace collapsed")
        Y = Y @ V
        AY = A.matvec(Y)
        H = Y.T @ AY
        theta, Q = np.linalg.eigh(0.5 * (H + H.T))
        X = Y @ Q
        take = min(m, theta.size)
        if np.all(backward_errors(X[:, :take], theta[:take]) <= tol):
            break
    values = theta[:m]
    vectors = X[:, :m]
    residuals = backward_errors(vectors, values)
    converged = residuals <= tol
    result = EigenResult(values.copy(), vectors, residuals, it, converged)
    if not np.all(converged):
        bad = np.flatnonzero(~converged)
        raise ConvergenceError(result,
                               f"unconverged banded eigenpairs {bad.tolist()} "
                               f"after {it} iterations (tol {tol:g})")
    return result

"""Eigensolver contract tests: closed-form oracles, determinism, residuals."""

import numpy as np
import pytest

from elastica.assembly import (ElasticityProblem, _csr, _terms, assemble,
                               laplacian_inverse, reference_spectrum_alpha0)
from elastica.eigensolve import (BandedCholesky, ConvergenceError,
                                 EigenResult, FactorizationError,
                                 IndefiniteMassError, banded_smallest,
                                 cholesky_banded, smallest_eigenpairs)
from elastica.harness import solve_problem
from elastica.sparse import BandedSymMatrix, SparseSymMatrix

PI = np.pi


def diag_csr(values):
    n = len(values)
    idx = np.arange(n)
    return SparseSymMatrix.from_coo(n, idx, idx, values)


def identity_csr(n):
    return diag_csr(np.ones(n))


def identity_banded(n):
    return BandedSymMatrix.from_dense(np.eye(n))


def fd_laplacian_1d(n, h):
    """Three-point finite-difference Dirichlet Laplacian, n interior nodes."""
    idx = np.arange(n)
    rows = np.concatenate([idx, idx[1:], idx[:-1]])
    cols = np.concatenate([idx, idx[:-1], idx[1:]])
    vals = np.concatenate([np.full(n, 2.0), np.full(n - 1, -1.0),
                           np.full(n - 1, -1.0)]) / h ** 2
    return SparseSymMatrix.from_coo(n, rows, cols, vals)


class TestLOBPCG:
    def test_diagonal_case_exact(self):
        K = diag_csr(np.arange(1.0, 17.0))
        M = identity_csr(16)
        res = smallest_eigenpairs(K, M, 3, tol=1e-12, seed=1)
        assert np.allclose(res.values, [1.0, 2.0, 3.0], atol=1e-9)
        assert res.converged.all()

    def test_fd_laplacian_closed_form(self):
        # eigenvalues (4/h^2) sin^2(j h / 2) on (0, pi)
        n = 127
        h = PI / (n + 1)
        K = fd_laplacian_1d(n, h)
        M = identity_csr(n)
        # dense inverse of the P1 stiffness tridiag(-1, 2, -1)/h
        stiffness = (2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)) / h
        inverse = np.linalg.inv(stiffness)
        tol = 1e-10
        res = smallest_eigenpairs(K, M, 5, tol=tol, seed=3,
                                  precond=lambda x: inverse @ x)
        j = np.arange(1, 6)
        exact = (4.0 / h ** 2) * np.sin(j * h / 2.0) ** 2
        assert np.all(np.abs(res.values - exact) <= 10 * tol * exact)

    def test_fd_laplacian_without_preconditioner(self):
        n = 63
        h = PI / (n + 1)
        K = fd_laplacian_1d(n, h)
        res = smallest_eigenpairs(K, identity_csr(n), 3, tol=1e-7, seed=5)
        exact = (4.0 / h ** 2) * np.sin(np.arange(1, 4) * h / 2.0) ** 2
        assert np.allclose(res.values, exact, rtol=1e-6)

    def test_box_alpha0_matches_reference(self):
        p = ElasticityProblem((PI, PI), 0.0, (24, 24))
        K, M, _ = assemble(p)
        res = smallest_eigenpairs(K, M, 12, tol=1e-9, seed=11,
                                  precond=laplacian_inverse(p))
        ref = reference_spectrum_alpha0((PI, PI), 12)
        # 24^2 mesh: discretization error ~1.2% at sigma = 10
        assert np.allclose(res.values, ref, rtol=2e-2)

    def test_3d_box_end_to_end(self):
        p = ElasticityProblem((PI, PI, PI), 0.0, (8, 8, 8))
        K, M, _ = assemble(p)
        res = smallest_eigenpairs(K, M, 3, tol=1e-9, seed=13,
                                  precond=laplacian_inverse(p))
        assert np.allclose(res.values, [3.0, 3.0, 3.0], rtol=2e-2)

    def test_multiplicity_recovery(self):
        # the degenerate pair {2,2} and quadruple {5,5,5,5} all come back
        p = ElasticityProblem((PI, PI), 0.0, (20, 20))
        K, M, _ = assemble(p)
        res = smallest_eigenpairs(K, M, 6, tol=1e-9, seed=2,
                                  precond=laplacian_inverse(p))
        clusters = np.round(res.values).astype(int)
        assert list(clusters) == [2, 2, 5, 5, 5, 5]
        spread = np.ptp(res.values[:2])
        assert spread < 1e-6 * res.values[0]

    def test_residual_contract_recheck(self):
        p = ElasticityProblem((PI, PI), 1.0, (16, 16))
        K, M, _ = assemble(p)
        tol = 1e-9
        res = smallest_eigenpairs(K, M, 8, tol=tol, seed=4,
                                  precond=laplacian_inverse(p))
        # explicit post-hoc matvec, independent of solver internals
        R = K.matvec(res.vectors) - M.matvec(res.vectors) * res.values
        fresh = np.linalg.norm(R, axis=0) / res.values
        assert np.all(fresh <= tol)
        assert np.all(res.residuals <= tol)

    def test_operator_solve_rechecked_with_csr(self):
        # the matrix-free solve behind solve_problem against the same LOBPCG
        # run on the assembled CSR pencil, and its residuals recomputed by
        # CSR matvec
        p = ElasticityProblem((PI, PI), 2.0, (16, 16))
        K, M, _ = assemble(p)
        tol = 1e-8
        spectrum, res = solve_problem(p, 12, tol, 7)
        ref = smallest_eigenpairs(K, M, 12, tol=tol, seed=7,
                                  precond=laplacian_inverse(p))
        assert np.all(np.abs(res.values - ref.values) <= 1e-10 * ref.values)
        assert np.array_equal(spectrum.values, res.values)
        R = K.matvec(res.vectors) - M.matvec(res.vectors) * res.values
        fresh = np.linalg.norm(R, axis=0) / res.values
        assert np.all(fresh <= tol)

    def test_m_orthonormality(self):
        p = ElasticityProblem((PI, PI), 0.5, (16, 16))
        K, M, _ = assemble(p)
        tol = 1e-9
        res = smallest_eigenpairs(K, M, 8, tol=tol, seed=4,
                                  precond=laplacian_inverse(p))
        gram = res.vectors.T @ M.matvec(res.vectors)
        assert np.abs(gram - np.eye(8)).max() <= 100 * tol

    def test_determinism_bitwise(self):
        p = ElasticityProblem((PI, PI), 0.5, (12, 12))
        K, M, _ = assemble(p)
        precond = laplacian_inverse(p)
        a = smallest_eigenpairs(K, M, 5, tol=1e-9, seed=42, precond=precond)
        b = smallest_eigenpairs(K, M, 5, tol=1e-9, seed=42, precond=precond)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.vectors, b.vectors)

    def test_shift_invariance(self):
        p = ElasticityProblem((PI, PI), 0.5, (16, 16))
        K, M, dof_map = assemble(p)
        lap_terms, div_terms, mass_terms = _terms(p)
        tol = 1e-9
        precond = laplacian_inverse(p)
        base = smallest_eigenpairs(K, M, 6, tol=tol, seed=9, precond=precond)
        # K + M as one CSR matrix, summed from the terms
        shifted = smallest_eigenpairs(
            _csr(dof_map, lap_terms + div_terms + mass_terms), M, 6, tol=tol,
            seed=9, precond=precond)
        assert np.all(np.abs(shifted.values - base.values - 1.0)
                      <= 20 * tol * shifted.values)

    def test_iterations_independent_of_alpha(self):
        # the production preconditioner: Chebyshev steps on [1, 1+α]
        # around K(0)⁻¹ keep the preconditioned spectrum in [2/3, 4/3]
        iterations = {}
        for alpha in (0.0, 100.0):
            p = ElasticityProblem((PI, PI), alpha, (32, 32))
            _, res = solve_problem(p, 8, 1e-8, 7)
            iterations[alpha] = res.iterations
        assert iterations[100.0] <= 2 * iterations[0.0]

    def test_rejects_m_too_large(self):
        K = diag_csr(np.arange(1.0, 17.0))
        with pytest.raises(ValueError, match="order/4"):
            smallest_eigenpairs(K, identity_csr(16), 5)

    def test_indefinite_mass_rejected(self):
        K = diag_csr(np.arange(1.0, 21.0))
        M = diag_csr(np.concatenate([np.ones(10), -np.ones(10)]))
        with pytest.raises(IndefiniteMassError):
            smallest_eigenpairs(K, M, 2)

    def test_nonconvergence_carries_partial_result(self):
        n = 63
        h = PI / (n + 1)
        K = fd_laplacian_1d(n, h)
        with pytest.raises(ConvergenceError) as info:
            smallest_eigenpairs(K, identity_csr(n), 3, tol=1e-12, seed=5,
                                maxiter=2)
        partial = info.value.result
        assert isinstance(partial, EigenResult)
        assert not partial.converged.all()
        assert partial.iterations == 2
        assert str(info.value).count("tol")  # names the tolerance and indices
        assert_certified(K, identity_csr(n), partial)

    def test_budget_ending_as_implicit_norms_pass(self):
        # the in-loop norms come from the K X, M X blocks the iteration
        # holds; with maxiter at the converged run's count the loop ends
        # right after they pass, before its own check, so the exit must
        # polish and recompute explicitly, as the converged break does
        p = ElasticityProblem((PI, PI), 2.0, (12, 12))
        K, M, _ = assemble(p)
        precond = laplacian_inverse(p)
        full = smallest_eigenpairs(K, M, 6, tol=1e-10, seed=8,
                                   precond=precond)
        assert_certified(K, M, full)
        for maxiter in (full.iterations, full.iterations - 1):
            try:
                res = smallest_eigenpairs(K, M, 6, tol=1e-10, seed=8,
                                          precond=precond, maxiter=maxiter)
            except ConvergenceError as err:
                res = err.result
                assert maxiter < full.iterations
            assert res.iterations == maxiter
            assert_certified(K, M, res)
            if maxiter == full.iterations:
                assert np.array_equal(res.values, full.values)
                assert np.array_equal(res.vectors, full.vectors)
                assert res.converged.all()


class CountingOperand:
    """Operand proxy recording the column count of every ``matvec``."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = []

    @property
    def order(self):
        return self.inner.order

    def matvec(self, x):
        self.calls.append(1 if x.ndim == 1 else x.shape[1])
        return self.inner.matvec(x)

    def __getattr__(self, attr):
        return getattr(self.inner, attr)


class TestApplyCounts:
    def test_lobpcg_applies_the_pencil_to_w_only(self):
        # one K and one M apply on the starting block, one per iteration on
        # the W block, one on the polished block that certifies the result
        p = ElasticityProblem((PI, PI), 2.0, (16, 16))
        K, M, _ = assemble(p)
        K, M = CountingOperand(K), CountingOperand(M)
        res = smallest_eigenpairs(K, M, 6, tol=1e-9, seed=4,
                                  precond=laplacian_inverse(p))
        bs = 6 + 8
        assert K.calls == M.calls
        assert len(K.calls) == res.iterations + 2
        assert K.calls[0] == K.calls[-1] == bs
        assert all(1 <= cols <= bs for cols in K.calls[1:-1])

    def test_banded_applies_each_operand_once_per_block(self):
        # per iteration: A and B on the new block Y, then both on the m kept
        # columns for the explicit backward errors; the next B·X comes from
        # the Ritz combination of the stack, so only the start applies B·X
        n, m = 40, 3
        h = PI / (n + 1)
        stiff = (np.diag(np.full(n, 2.0)) + np.diag(np.full(n - 1, -1.0), 1)
                 + np.diag(np.full(n - 1, -1.0), -1)) / h
        mass = (np.diag(np.full(n, 4.0)) + np.diag(np.full(n - 1, 1.0), 1)
                + np.diag(np.full(n - 1, 1.0), -1)) * h / 6
        A = CountingOperand(BandedSymMatrix.from_dense(stiff))
        B = CountingOperand(BandedSymMatrix.from_dense(mass))
        res = banded_smallest(A, B, m=m, tol=1e-12)
        bs = m + 4
        assert res.iterations > 1
        assert A.calls == [bs, m] * res.iterations
        assert B.calls == [bs] + [bs, m] * res.iterations


def assert_certified(K, M, result):
    """Reported residuals are explicit CSR ones; vectors M-orthonormal."""
    X = result.vectors
    R = K.matvec(X) - M.matvec(X) * result.values
    fresh = np.linalg.norm(R, axis=0) / np.abs(result.values)
    assert np.all(np.abs(result.residuals - fresh) <= 1e-12 * fresh)
    gram = X.T @ M.matvec(X)
    assert np.abs(gram - np.eye(X.shape[1])).max() <= 1e-10


def banded_dominant(rng, n, bw):
    """Random symmetric matrix of bandwidth bw, diagonally dominant."""
    off = np.triu(rng.uniform(-1.0, 1.0, (n, n)), 1)
    off -= np.triu(off, bw + 1)
    dense = off + off.T
    return dense + np.diag(np.abs(dense).sum(axis=1) + 1.0)


def column_loop_pivot(A):
    """Oracle: the scalar banded column loop of the Cholesky factorisation.

    Returns (index, value) of the first pivot that is not positive, or None.
    """
    n, bw = A.order, A.bandwidth
    L = np.zeros_like(A.bands)
    for j in range(n):
        s = A.bands[:, j].copy()
        for k in range(max(0, j - bw), j):
            t = j - k
            s[:bw - t + 1] -= L[t, k] * L[t:bw + 1, k]
        if not s[0] > 0.0:
            return j, s[0]
        L[0, j] = np.sqrt(s[0])
        L[1:, j] = s[1:] / L[0, j]
    return None


class TestBandedCholesky:
    @pytest.mark.parametrize("rhs", ["vector", "block"])
    @pytest.mark.parametrize("bw", [0, 1, 3])
    @pytest.mark.parametrize("n", [1, 5, 63, 64, 65, 200])
    def test_factor_matches_dense(self, rng, n, bw, rhs):
        # orders around the 64-row block: one partial, one whole, one over
        dense = banded_dominant(rng, n, bw)
        A = BandedSymMatrix.from_dense(dense)
        assert A.bandwidth == min(bw, n - 1)
        b = rng.standard_normal(n if rhs == "vector" else (n, 3))
        x = cholesky_banded(A).solve(b)
        ref = np.linalg.solve(dense, b)
        assert x.shape == b.shape
        assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_band_wider_than_block(self, rng):
        dense = banded_dominant(rng, 150, 70)
        b = rng.standard_normal((150, 2))
        x = cholesky_banded(BandedSymMatrix.from_dense(dense)).solve(b)
        ref = np.linalg.solve(dense, b)
        assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_singular_pivot_named(self):
        dense = np.diag([1.0, 1.0, 0.0, 1.0])
        A = BandedSymMatrix.from_dense(dense)
        with pytest.raises(FactorizationError, match="index 2"):
            cholesky_banded(A)

    def test_zero_pivot_in_second_block(self, rng):
        dense = banded_dominant(rng, 130, 3)
        dense[100, :] = dense[:, 100] = 0.0
        A = BandedSymMatrix.from_dense(dense)
        assert column_loop_pivot(A) == (100, 0.0)
        with pytest.raises(FactorizationError) as err:
            cholesky_banded(A)
        assert (err.value.pivot, err.value.value) == (100, 0.0)

    def test_pivot_after_schur_update_across_blocks(self, rng):
        # A[64, 64] is positive, so the second diagonal block alone factors;
        # the coupling to the first block makes its first pivot negative
        dense = banded_dominant(rng, 100, 3)
        lead = np.linalg.solve(dense[:64, :64], dense[:64, 64])
        dense[64, 64] = 0.5 * (dense[64, :64] @ lead)
        A = BandedSymMatrix.from_dense(dense)
        index, value = column_loop_pivot(A)
        assert index == 64 and value < 0.0
        with pytest.raises(FactorizationError) as err:
            cholesky_banded(A)
        assert err.value.pivot == 64
        assert err.value.value == pytest.approx(value, rel=1e-12)

    def test_solve_rejects_wrong_length(self):
        factor = cholesky_banded(
            BandedSymMatrix.from_dense(np.diag([4.0, 4.0, 4.0, 4.0])))
        with pytest.raises(ValueError, match="order 4.*length 6"):
            factor.solve(np.ones(6))


class TestBandedSmallest:
    def test_toeplitz_closed_form(self):
        n = 60
        dense = (np.diag(np.full(n, 2.0)) + np.diag(np.full(n - 1, -1.0), 1)
                 + np.diag(np.full(n - 1, -1.0), -1))
        A = BandedSymMatrix.from_dense(dense)
        res = banded_smallest(A, identity_banded(n), m=4, tol=1e-12)
        exact = 2.0 - 2.0 * np.cos(np.arange(1, 5) * PI / (n + 1))
        assert np.allclose(res.values, exact, rtol=1e-10)

    def test_generalized_fem_string(self):
        # P1 pencil on (0, pi): eigenvalues 6(1-cos jh)/(h^2 (2+cos jh))
        n = 40
        h = PI / (n + 1)
        stiff = (np.diag(np.full(n, 2.0)) + np.diag(np.full(n - 1, -1.0), 1)
                 + np.diag(np.full(n - 1, -1.0), -1)) / h
        mass = (np.diag(np.full(n, 4.0)) + np.diag(np.full(n - 1, 1.0), 1)
                + np.diag(np.full(n - 1, 1.0), -1)) * h / 6
        res = banded_smallest(BandedSymMatrix.from_dense(stiff),
                              BandedSymMatrix.from_dense(mass), m=3,
                              tol=1e-12)
        j = np.arange(1, 4)
        exact = 6 * (1 - np.cos(j * h)) / (h ** 2 * (2 + np.cos(j * h)))
        assert np.allclose(res.values, exact, rtol=1e-10)

    def test_clamped_beam_constant(self):
        # squared second difference with reflected ghosts: the first
        # eigenvalue approaches mu^4 where cos(mu) cosh(mu) = 1
        from conftest import bisect
        mu = bisect(lambda t: np.cos(t) * np.cosh(t) - 1.0, 4.0, 5.5)
        target = mu ** 4  # 500.5639...
        assert target == pytest.approx(500.5639, abs=5e-3)
        errors = []
        for n_cells in (128, 256, 512):
            n = n_cells - 1
            h = 1.0 / n_cells
            d2 = (np.diag(np.full(n, 2.0))
                  + np.diag(np.full(n - 1, -1.0), 1)
                  + np.diag(np.full(n - 1, -1.0), -1)) / h ** 2
            biharm = d2 @ d2
            biharm[0, 0] += 1.0 / h ** 4   # ghost reflection u(-h) = u(h)
            biharm[-1, -1] += 1.0 / h ** 4
            A = BandedSymMatrix.from_dense(0.5 * (biharm + biharm.T))
            res = banded_smallest(A, identity_banded(n), m=1, tol=1e-12)
            errors.append(abs(res.values[0] - target))
        # the reflected-ghost boundary treatment is first order, so expect
        # steady but not quadratic approach
        assert errors[2] < errors[1] < errors[0]
        assert errors[2] < 1e-2 * target

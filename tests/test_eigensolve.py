"""Eigensolver contract tests: closed-form oracles, determinism, residuals."""

import tracemalloc
import weakref
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from elastica import eigensolve
from elastica.assembly import (ClassOrbits, ElasticityProblem, _csr,
                               _operator, _parity_classes, _terms, assemble,
                               box_operators, chebyshev, class_orbits,
                               galerkin_start, laplacian_inverse,
                               reference_spectrum_alpha0, sine_factors)
from elastica.eigensolve import (BandedCholesky, BreakdownError,
                                 ConvergenceError, EigenResult,
                                 FactorizationError,
                                 IndefiniteMassError, _lower_inverse,
                                 banded_smallest, cholesky_banded,
                                 smallest_eigenpairs)
from elastica.harness import RunConfig, run_verify, solve_problem
from elastica.sparse import BandedSymMatrix, SparseSymMatrix
from conftest import dense_generalized_eigs, nodal_vectors, random_small_box
from oracles import sine_transform

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


def full_operator(problem, terms):
    """The sine-coordinate operator of ``terms`` on every parity class,
    as :func:`box_operators` lays it out on boxes without equal axes, but
    laid out for LOBPCG as one block of class 0, as an operand without a
    layout is."""
    op = _operator(sine_factors(problem), terms,
                   ClassOrbits(((0,),), tuple(_parity_classes(problem))))
    op.blocks = (op.order,)
    return op


def full_inverse(problem):
    """K(0)⁻¹ on every parity class: a division by K(0)'s symbol."""
    inverse = 1.0 / full_operator(problem, _terms(problem)[0]).diagonal
    return lambda x: (x.T * inverse).T


def nodal_inverse(problem):
    """K(0)⁻¹ on nodal operands: the symbol inverse conjugated by the sine
    transform Q, to precondition the assembled CSR pencil."""
    inner = full_inverse(problem)
    return lambda x: sine_transform(
        problem, inner(sine_transform(problem, x)), inverse=True)


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
                                  precond=nodal_inverse(p))
        ref = reference_spectrum_alpha0((PI, PI), 12)
        # 24^2 mesh: discretization error ~1.2% at sigma = 10
        assert np.allclose(res.values, ref, rtol=2e-2)

    def test_3d_box_end_to_end(self):
        p = ElasticityProblem((PI, PI, PI), 0.0, (8, 8, 8))
        K, M, _ = assemble(p)
        res = smallest_eigenpairs(K, M, 3, tol=1e-9, seed=13,
                                  precond=nodal_inverse(p))
        assert np.allclose(res.values, [3.0, 3.0, 3.0], rtol=2e-2)

    def test_multiplicity_recovery(self):
        # the degenerate pair {2,2} and quadruple {5,5,5,5} all come back
        p = ElasticityProblem((PI, PI), 0.0, (20, 20))
        K, M, _ = assemble(p)
        res = smallest_eigenpairs(K, M, 6, tol=1e-9, seed=2,
                                  precond=nodal_inverse(p))
        clusters = np.round(res.values).astype(int)
        assert list(clusters) == [2, 2, 5, 5, 5, 5]
        spread = np.ptp(res.values[:2])
        assert spread < 1e-6 * res.values[0]

    def test_residual_contract_recheck(self):
        p = ElasticityProblem((PI, PI), 1.0, (16, 16))
        K, M, _ = assemble(p)
        tol = 1e-9
        res = smallest_eigenpairs(K, M, 8, tol=tol, seed=4,
                                  precond=nodal_inverse(p))
        # explicit post-hoc matvec, independent of solver internals
        R = K.matvec(res.vectors) - M.matvec(res.vectors) * res.values
        fresh = np.linalg.norm(R, axis=0) / res.values
        assert np.all(fresh <= tol)
        assert np.all(res.residuals <= tol)

    def test_operator_solve_rechecked_with_csr(self):
        # the sine-coordinate solve behind solve_problem against the LOBPCG
        # run on the assembled CSR pencil, and its residuals recomputed by
        # CSR matvec
        p = ElasticityProblem((PI, PI), 2.0, (16, 16))
        K, M, _ = assemble(p)
        tol = 1e-8
        spectrum, res = solve_problem(p, 12, tol, 7)
        ref = smallest_eigenpairs(K, M, 12, tol=tol, seed=7,
                                  precond=nodal_inverse(p))
        assert np.all(np.abs(res.values - ref.values) <= 1e-10 * ref.values)
        assert np.array_equal(spectrum.values, res.values)
        X = nodal_vectors(p, res)
        R = K.matvec(X) - M.matvec(X) * res.values
        fresh = np.linalg.norm(R, axis=0) / res.values
        assert np.all(fresh <= tol)

    def test_m_orthonormality(self):
        p = ElasticityProblem((PI, PI), 0.5, (16, 16))
        K, M, _ = assemble(p)
        tol = 1e-9
        res = smallest_eigenpairs(K, M, 8, tol=tol, seed=4,
                                  precond=nodal_inverse(p))
        gram = res.vectors.T @ M.matvec(res.vectors)
        assert np.abs(gram - np.eye(8)).max() <= 100 * tol

    def test_determinism_bitwise(self):
        p = ElasticityProblem((PI, PI), 0.5, (12, 12))
        K, M, _ = assemble(p)
        precond = nodal_inverse(p)
        a = smallest_eigenpairs(K, M, 5, tol=1e-9, seed=42, precond=precond)
        b = smallest_eigenpairs(K, M, 5, tol=1e-9, seed=42, precond=precond)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.vectors, b.vectors)

    def test_shift_invariance(self):
        p = ElasticityProblem((PI, PI), 0.5, (16, 16))
        K, M, _ = assemble(p)
        lap_terms, div_terms, mass_terms = _terms(p)
        tol = 1e-9
        precond = nodal_inverse(p)
        base = smallest_eigenpairs(K, M, 6, tol=tol, seed=9, precond=precond)
        # K + M as one CSR matrix, summed from the terms
        shifted = smallest_eigenpairs(
            _csr(p, lap_terms + div_terms + mass_terms), M, 6, tol=tol,
            seed=9, precond=precond)
        assert np.all(np.abs(shifted.values - base.values - 1.0)
                      <= 20 * tol * shifted.values)

    def test_iterations_independent_of_alpha(self):
        # the production preconditioner: Chebyshev steps on [1, 1+α]
        # around K(0)⁻¹ keep the preconditioned spectrum in [2/3, 4/3];
        # from a random block, since the production start is exact at α = 0
        iterations = {}
        for alpha in (0.0, 100.0):
            p = ElasticityProblem((PI, PI), alpha, (32, 32))
            iterations[alpha] = random_start(p, 8, 1e-8, 7).iterations
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

    def test_degenerate_subspace_is_a_breakdown(self):
        # M's tail lies below the rounding of its head, so the M-Gram of
        # any basis has numerical rank 1 and the Rayleigh-Ritz step keeps
        # one direction; with the tail at 1e-14 (and at seed 2) the same
        # pencil ends in a ConvergenceError instead
        K = diag_csr(np.arange(1.0, 17.0))
        M = diag_csr(np.concatenate([[1.0], np.full(15, 1e-20)]))
        with pytest.raises(BreakdownError) as info:
            smallest_eigenpairs(K, M, 2, seed=0)
        assert type(info.value) is BreakdownError
        assert str(info.value) == ("iteration subspace degenerated to 1 "
                                   "directions, fewer than the 2 requested")

    def test_nonconvergence_carries_partial_result(self, monkeypatch):
        n = 63
        h = PI / (n + 1)
        K = fd_laplacian_1d(n, h)
        monkeypatch.setattr(eigensolve, "LOBPCG_MAXITER", 2)
        with pytest.raises(ConvergenceError) as info:
            smallest_eigenpairs(K, identity_csr(n), 3, tol=1e-12, seed=5)
        partial = info.value.result
        assert isinstance(partial, EigenResult)
        assert not partial.converged.all()
        assert partial.iterations == 2
        assert str(info.value).count("tol")  # names the tolerance and indices
        assert_certified(K, identity_csr(n), partial)

    def test_budget_ending_as_implicit_norms_pass(self, monkeypatch):
        # the in-loop norms come from the K X, M X blocks the iteration
        # holds; with the budget (LOBPCG_MAXITER) at the converged run's
        # count the loop ends
        # right after they pass, before its own check, so the exit must
        # polish and recompute explicitly, as the converged break does
        p = ElasticityProblem((PI, PI), 2.0, (12, 12))
        K, M, _ = assemble(p)
        precond = nodal_inverse(p)
        full = smallest_eigenpairs(K, M, 6, tol=1e-10, seed=8,
                                   precond=precond)
        assert_certified(K, M, full)
        for maxiter in (full.iterations, full.iterations - 1):
            monkeypatch.setattr(eigensolve, "LOBPCG_MAXITER", maxiter)
            try:
                res = smallest_eigenpairs(K, M, 6, tol=1e-10, seed=8,
                                          precond=precond)
            except ConvergenceError as err:
                res = err.result
                assert maxiter < full.iterations
            assert res.iterations == maxiter
            assert_certified(K, M, res)
            if maxiter == full.iterations:
                assert np.array_equal(res.values, full.values)
                assert np.array_equal(res.vectors, full.vectors)
                assert res.converged.all()

    def test_explicit_check_failing_after_implicit_norms_pass(
            self, monkeypatch):
        # at tol 1e-15, the rounding floor, this production-path solve's
        # implicit norms pass twice while the re-projected block fails its
        # explicit check: the loop goes on from the explicit residual rows,
        # and the budget ends in a ConvergenceError whose partial result
        # carries its explicit residuals, M-orthonormal vectors and Ritz
        # values above the eigenvalues
        p = ElasticityProblem((PI, PI), 2.0, (8, 8))
        K, M, K0 = box_operators(p)
        monkeypatch.setattr(eigensolve, "LOBPCG_MAXITER", 60)
        with pytest.raises(ConvergenceError) as info:
            smallest_eigenpairs(
                K, M, 6, tol=1e-15, seed=7,
                precond=chebyshev(K, laplacian_inverse(K0), p.alpha),
                start=galerkin_start(K, M, 6))
        partial = info.value.result
        assert partial.iterations == 60
        assert not partial.converged.all()
        X = partial.vectors
        R = K.matvec(X) - M.matvec(X) * partial.values
        fresh = np.linalg.norm(R, axis=0) / np.abs(partial.values)
        assert np.all(np.abs(partial.residuals - fresh) <= 1e-12 * fresh)
        # copies repeat their representative's column, so orthonormality
        # is checked on the nodal vectors, each carried onto its class
        Kc, Mc, _ = assemble(p)
        Xn = nodal_vectors(p, partial)
        assert np.abs(Xn.T @ Mc.matvec(Xn) - np.eye(6)).max() <= 1e-10
        ref = dense_generalized_eigs(Kc, Mc)[:6]
        assert np.all(partial.values >= ref * (1.0 - 1e-13))


def q1_alpha0_values(edges, cells, count):
    """The discrete α = 0 spectrum of the box: sums Σ_d κ_d/μ_d.

    κ_d/μ_d runs over the generalized eigenvalues of the 1D P1 stiffness
    tridiag(−1, 2, −1)/h and mass tridiag(1, 4, 1)·h/6 of axis d, taken
    densely; each sum is repeated once per vector component.
    """
    per_axis = []
    for edge, c in zip(edges, cells):
        n, h = c - 1, edge / c
        stiff = (2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)) / h
        mass = (4.0 * np.eye(n) + np.eye(n, k=1) + np.eye(n, k=-1)) * h / 6
        per_axis.append(dense_generalized_eigs(stiff, mass))
    sums = sum(np.ix_(*per_axis)).ravel()
    return np.sort(np.repeat(sums, len(edges)))[:count]


class TestSolveProblem:
    """The production solve's nodal results against closed forms and CSR."""

    @pytest.mark.parametrize("edges,cells,m", [
        ((PI, 1.7), (12, 16), 12),
        ((PI, PI, 2.0), (4, 5, 6), 9),
    ], ids=["2d", "3d"])
    def test_alpha0_discrete_closed_form(self, edges, cells, m):
        # the discrete eigenvalues, not the continuum ones (2e-2 at best)
        problem = ElasticityProblem(edges, 0.0, cells)
        _, res = solve_problem(problem, m, 1e-8, 7)
        ref = q1_alpha0_values(edges, cells, m)
        assert np.all(np.abs(res.values - ref) <= 1e-10 * ref)

    def test_sine_solve_matches_nodal_solve(self):
        # K̂ = Q·K·Qᵀ solved as one block from its own random start follows
        # another path than the nodal solve, to the same eigenpairs; a
        # vector's error is of the order of its residual, so both solve to
        # 1e-12 for their vectors to agree to 1e-11
        p = ElasticityProblem((PI, 1.7), 2.0, (12, 10))
        K, M, _ = assemble(p)
        lap_terms, div_terms, mass_terms = _terms(p)
        Kh = full_operator(p, lap_terms + div_terms)
        Mh = full_operator(p, mass_terms)
        nodal = smallest_eigenpairs(K, M, 6, tol=1e-12, seed=4,
                                    precond=nodal_inverse(p))
        sine = smallest_eigenpairs(Kh, Mh, 6, tol=1e-12, seed=4,
                                   precond=full_inverse(p))
        assert np.all(np.abs(sine.values - nodal.values)
                      <= 1e-12 * nodal.values)
        # the same vectors up to the sign eigh picks for each
        X = sine_transform(p, sine.vectors, inverse=True)
        signs = np.sign(np.einsum("ij,ij->j", X, nodal.vectors))
        assert np.abs(X * signs - nodal.vectors).max() \
            <= 1e-11 * np.abs(nodal.vectors).max()

    def test_unconverged_sine_solve_is_certified_nodally(self,
                                                         monkeypatch):
        # the partial result of a sine solve stopped after 2 iterations,
        # mapped out, is M-orthonormal on the CSR pencil and carries its
        # explicit CSR residuals
        p = ElasticityProblem((PI, 1.7), 2.0, (12, 10))
        K, M, _ = assemble(p)
        lap_terms, div_terms, mass_terms = _terms(p)
        Kh = full_operator(p, lap_terms + div_terms)
        Mh = full_operator(p, mass_terms)
        monkeypatch.setattr(eigensolve, "LOBPCG_MAXITER", 2)
        with pytest.raises(ConvergenceError) as info:
            smallest_eigenpairs(Kh, Mh, 6, tol=1e-9, seed=4,
                                precond=full_inverse(p))
        partial = info.value.result
        assert partial.iterations == 2
        assert_certified(K, M, replace(partial, vectors=sine_transform(
            p, partial.vectors, inverse=True)))

    @pytest.mark.parametrize("alpha", [0.5, 2.0, 10.0, 100.0])
    @pytest.mark.parametrize("edges,cells,m", [
        ((PI, PI), (12, 12), 12),
        ((PI, 0.3 * PI), (32, 6), 12),
        ((PI, 2.0, 1.5), (6, 5, 4), 9),
    ], ids=["square", "strip", "3d"])
    def test_alpha_sandwich(self, edges, cells, m, alpha):
        # ∫|∇u|² = ∫(div u)² + ∫|curl u|² on H¹₀, so K(0) ≤ K(α) ≤
        # (1+α)·K(0) as forms on the conforming Q1 space, with the same M:
        # index by index σ_i(0) ≤ σ_i(α) ≤ (1+α)·σ_i(0), up to rounding
        problem = ElasticityProblem(edges, alpha, cells)
        _, res = solve_problem(problem, m, 1e-8, 7)
        low = q1_alpha0_values(edges, cells, m)
        assert np.all(res.values >= low * (1 - 1e-12))
        assert np.all(res.values <= (1 + alpha) * low * (1 + 1e-12))

    @pytest.mark.parametrize("edges,alpha,cells", [
        ((PI, PI), 10.0, (16, 16)),
        ((PI, 2.0, 1.5), 2.0, (6, 5, 4)),
        ((PI, PI, PI), 10.0, (5, 5, 5)),
    ], ids=["2d-a10", "3d-a2", "3d-a10"])
    def test_nodal_result_rechecked_with_csr(self, edges, alpha, cells):
        # explicit CSR residuals and M-Gram of the returned nodal vectors
        problem = ElasticityProblem(edges, alpha, cells)
        K, M, _ = assemble(problem)
        tol, m = 1e-8, 8
        _, res = solve_problem(problem, m, tol, 7)
        X = nodal_vectors(problem, res)
        R = K.matvec(X) - M.matvec(X) * res.values
        assert np.all(np.linalg.norm(R, axis=0) / res.values <= tol)
        assert np.all(res.residuals <= tol)
        gram = X.T @ M.matvec(X)
        assert np.abs(gram - np.eye(m)).max() <= 100 * tol


class TestParityBlocks:
    """LOBPCG run per reflection-parity class (``blocks``)."""

    def test_start_confined_to_one_class_starves_no_block(self):
        # the m start columns live in class 0 only, so every other class
        # starts from its parts of the 8 random columns, which must find
        # its eigenvalues: the closed-form α = 0 spectrum comes back whole
        edges, cells, m = (PI, 1.7), (12, 16), 12
        p = ElasticityProblem(edges, 0.0, cells)
        K, M, K0 = box_operators(p)
        start = np.zeros((K.order, m))
        start[:m] = np.eye(m)
        res = smallest_eigenpairs(K, M, m, tol=1e-8, seed=7,
                                  precond=laplacian_inverse(K0), start=start)
        ref = q1_alpha0_values(edges, cells, m)
        assert np.all(np.abs(res.values - ref) <= 1e-10 * ref)
        # each vector lives in one class, and not all in class 0
        stops = np.cumsum(K.blocks)
        owner = [np.searchsorted(stops, np.flatnonzero(v)[0], side="right")
                 for v in res.vectors.T]
        assert len(set(owner)) > 1
        for v, q in zip(res.vectors.T, owner):
            assert not np.any(np.delete(v, np.arange(stops[q] - K.blocks[q],
                                                     stops[q])))

    @pytest.mark.parametrize("edges,alpha,cells,m", [
        ((PI, 1.7), 2.0, (12, 10), 8),
        ((PI, PI), 10.0, (16, 16), 12),
        ((PI, 2.0, 1.5), 10.0, (6, 5, 4), 8),
    ], ids=["2d-a2", "2d-a10", "3d-a10"])
    def test_blocks_agree_with_one_block(self, edges, alpha, cells, m):
        # the production pencil, per class with copies on the square,
        # against every class's pencil solved as one block
        p = ElasticityProblem(edges, alpha, cells)
        K, M, K0 = box_operators(p)
        lap_terms, div_terms, mass_terms = _terms(p)
        Kf = full_operator(p, lap_terms + div_terms)
        Mf = full_operator(p, mass_terms)
        Kc, Mc, _ = assemble(p)
        tol = 1e-9
        one = smallest_eigenpairs(
            Kf, Mf, m, tol=tol, seed=4,
            precond=chebyshev(Kf, full_inverse(p), alpha))
        split = smallest_eigenpairs(
            K, M, m, tol=tol, seed=4,
            precond=chebyshev(K, laplacian_inverse(K0), alpha))
        assert np.all(np.abs(split.values - one.values) <= 1e-10 * one.values)
        for res, X in ((one, sine_transform(p, one.vectors, inverse=True)),
                       (split, nodal_vectors(p, split))):
            R = Kc.matvec(X) - Mc.matvec(X) * res.values
            assert np.all(np.linalg.norm(R, axis=0) / res.values <= tol)
            assert np.abs(X.T @ Mc.matvec(X) - np.eye(m)).max() <= 1e-10

    def test_no_eigenvalue_missed_in_tiny_classes(self):
        # classes of order 9..13 and m + 8 = 9 starting columns: the class
        # whose start spans it passes tol at once, and stopping there
        # returned 118.70 while the smallest eigenvalue is 111.87
        p = ElasticityProblem((1.7169907867073457, 3.083303969675236,
                               0.320069536799156), 2.0, (4, 6, 3))
        K, M, _ = assemble(p)
        _, res = solve_problem(p, 1, 1e-8, 199)
        ref = dense_generalized_eigs(K, M)[0]
        assert abs(res.values[0] - ref) <= 1e-10 * ref

    def test_nearly_spanned_classes_converge_without_drift(self,
                                                           monkeypatch):
        # classes of order 27 and 28, nearly spanned by the start: momentum
        # rows normalised from tiny parts amplify the rounding of implicit
        # images.  An implicit M·Y plane drifted here until a restart rule
        # caught it (an M-Gram asymmetry of 1.4e-3 without the rule, and 24
        # iterations); with M applied afresh every M-Gram is symmetric to
        # rounding (3.3e-16 measured) and the solve takes 8 iterations.
        # The implicit K images still carry that rounding: the K-Gram's
        # asymmetry, relative to its diagonal, reaches 9.8e-9 (1.1e-8 with
        # the implicit M plane), which the symmetrised projection absorbs
        p = ElasticityProblem((0.8761857591217734, 0.6656203012345956),
                              100.0, (12, 6))
        m, tol, seed = 13, 1e-8, 1392900418
        K, M, K0 = box_operators(p)
        ref = dense_generalized_eigs(*assemble(p)[:2])[:m]
        skews = {"K": [], "M": []}
        rayleigh_ritz = eigensolve._rayleigh_ritz

        def recording(Y, KY, MY):
            for name, image in (("K", KY), ("M", MY)):
                G = Y @ image.T
                d = np.sqrt(np.abs(np.diag(G)))
                skews[name].append((np.abs(G - G.T) / np.outer(d, d)).max())
            return rayleigh_ritz(Y, KY, MY)

        monkeypatch.setattr(eigensolve, "_rayleigh_ritz", recording)
        res = smallest_eigenpairs(
            K, M, m, tol=tol, seed=seed,
            precond=chebyshev(K, laplacian_inverse(K0), p.alpha),
            start=galerkin_start(K, M, m))
        assert res.iterations <= 8
        assert np.all(np.abs(res.values - ref) <= 1e-10 * ref)
        assert max(skews["M"]) <= 1e-14
        assert max(skews["K"]) <= 1e-7
        monkeypatch.setattr(eigensolve, "_rayleigh_ritz", rayleigh_ritz)
        _, production = solve_problem(p, m, tol, seed)
        assert np.array_equal(res.values, production.values)

    def test_rejects_blocks_not_covering_the_order(self):
        # the layout is the operand's own: K.blocks and K.classes
        diag = diag_csr(np.arange(1.0, 33.0))
        M = identity_csr(32)
        for blocks in ((16, 15), (16, 17), (32, 0)):
            K = SimpleNamespace(order=32, matvec=diag.matvec, blocks=blocks,
                                classes=((0,), (1,)))
            with pytest.raises(ValueError, match="K.blocks"):
                smallest_eigenpairs(K, M, 4)
        K = SimpleNamespace(order=32, matvec=diag.matvec, blocks=(16, 16),
                            classes=((0,),))
        with pytest.raises(ValueError, match="K.classes"):
            smallest_eigenpairs(K, M, 4)

    def test_cross_class_ties_give_byte_identical_reports(self, tmp_path):
        # at α = 0 every eigenvalue is shared by components in different
        # classes; the stable merge orders such ties the same every run
        cfg = replace(RunConfig(mode="verify"), alpha=0.0, cells=(12, 12),
                      m=10, k_max=9, seed=3)
        path = tmp_path / "report.json"
        reports = []
        for _ in range(2):
            run_verify(replace(cfg, output_path=str(path)))
            reports.append(path.read_bytes())
        assert reports[0] == reports[1]


class TestSymmetricBoxes:
    """Boxes with equal axes solve one class per orbit (``class_orbits``)."""

    @pytest.mark.parametrize("edges,alpha,cells,m", [
        ((PI, PI), 0.0, (12, 12), 12),
        ((PI, PI), 2.0, (12, 12), 12),
        ((PI, PI), 100.0, (12, 12), 12),
        ((PI, PI, PI), 0.0, (5, 5, 5), 12),
        ((PI, PI, PI), 10.0, (5, 5, 5), 12),
        ((PI, PI, 2.0), 2.0, (5, 5, 4), 10),
    ], ids=["square-a0", "square-a2", "square-a100", "cube-a0", "cube-a10",
            "two-equal"])
    def test_copies_against_the_csr_pencil(self, edges, alpha, cells, m):
        problem = ElasticityProblem(edges, alpha, cells)
        orbits = class_orbits(problem)
        assert any(len(orbit) > 1 for orbit in orbits.classes)
        K, M, _ = assemble(problem)
        tol = 1e-8
        _, res = solve_problem(problem, m, tol, 7)
        ref = dense_generalized_eigs(K, M)[:m]
        assert np.all(np.abs(res.values - ref) <= 1e-7 * ref)
        X = nodal_vectors(problem, res)
        R = K.matvec(X) - M.matvec(X) * res.values
        assert np.all(np.linalg.norm(R, axis=0) / res.values <= tol)
        assert np.abs(X.T @ M.matvec(X) - np.eye(m)).max() <= 1e-10
        # a copy's value is its representative's, to the bit, and each
        # class's values are a prefix of its representative's
        for orbit in orbits.classes:
            mine = res.values[res.classes == orbit[0]]
            for g in orbit[1:]:
                theirs = res.values[res.classes == g]
                assert theirs.size <= mine.size
                assert np.array_equal(mine[:theirs.size], theirs)
        # and some pairs are copies, not representatives
        assert set(res.classes.tolist()) - {o[0] for o in orbits.classes}

    @pytest.mark.parametrize("edges,alpha,cells", [
        ((PI, PI), 10.0, (12, 12)),
        ((PI, PI, 2.0), 2.0, (5, 5, 4)),
        ((PI, 2.0, 1.5), 2.0, (6, 5, 4)),
    ], ids=["square", "two-equal", "no-symmetry"])
    def test_vectors_have_their_class_parities(self, edges, alpha, cells):
        # under x_d ↦ L_d − x_d, with component d's sign flipped, a vector
        # of class q is multiplied by (−1)^(q_d)
        problem = ElasticityProblem(edges, alpha, cells)
        dim = problem.dim
        _, res = solve_problem(problem, 10, 1e-8, 7)
        fields = nodal_vectors(problem, res).reshape(
            (dim,) + tuple(c - 1 for c in cells) + (-1,))
        for d in range(dim):
            reflected = np.flip(fields, axis=1 + d).copy()
            reflected[d] *= -1.0
            sign = 1.0 - 2.0 * ((res.classes >> (dim - 1 - d)) & 1)
            assert np.abs(reflected - sign * fields).max() <= 1e-12

    def test_m_limit_counts_copies(self):
        # the 4x4-cell square has order 18 and 13 on its representatives:
        # m = 4 is within order/4 of the full pencil, m = 5 is not
        problem = ElasticityProblem((PI, PI), 1.0, (4, 4))
        _, res = solve_problem(problem, 4, 1e-8, 7)
        K, M, _ = assemble(problem)
        ref = dense_generalized_eigs(K, M)[:4]
        assert np.all(np.abs(res.values - ref) <= 1e-10 * ref)
        with pytest.raises(ValueError, match="order/4 = 4"):
            solve_problem(problem, 5, 1e-8, 7)

    def test_stack_grows_when_a_class_share_grows(self, monkeypatch):
        # at α = 100 a class's share of the 16 smallest grows after the
        # first projection (27 → 30 stack rows here), so the basis stack is
        # reallocated with every class's occupied X, P and W rows copied:
        # the solve is the one whose stack never grows, to the bit
        problem = ElasticityProblem((PI, PI), 100.0, (17, 17))
        m, tol = 16, 1e-8
        basis_stack = eigensolve._basis_stack
        rows = []

        def counting(size, n, occupied=None):
            rows.append(3 * size)
            return basis_stack(size, n, occupied)

        monkeypatch.setattr(eigensolve, "_basis_stack", counting)
        _, res = solve_problem(problem, m, tol, 7)
        assert len(rows) > 1 and rows == sorted(set(rows))
        assert rows[-1] <= 3 * (m + 4)
        monkeypatch.setattr(eigensolve, "_basis_stack",
                            lambda size, n, occupied=None:
                            basis_stack(m + 4, n, occupied))
        _, whole = solve_problem(problem, m, tol, 7)
        assert whole.iterations == res.iterations
        for field in ("values", "vectors", "residuals", "classes"):
            assert np.array_equal(getattr(whole, field), getattr(res, field))
        K, M, _ = assemble(problem)
        assert K.order == 512
        ref = dense_generalized_eigs(K, M)[:m]
        assert np.all(np.abs(res.values - ref) <= 1e-7 * ref)
        X = nodal_vectors(problem, res)
        R = K.matvec(X) - M.matvec(X) * res.values
        assert np.all(np.linalg.norm(R, axis=0) / res.values <= tol)
        assert np.abs(X.T @ M.matvec(X) - np.eye(m)).max() <= 1e-10


@pytest.mark.parametrize("draw", range(40))
def test_no_eigenvalue_missed_on_random_small_boxes(draw):
    # each class keeps its share plus 4 guards: too few, and a class whose
    # lowest modes the start block misses loses an eigenvalue
    problem, m, seed = random_small_box(np.random.default_rng(draw), 8)
    _, res = solve_problem(problem, m, 1e-8, seed)
    K, M, _ = assemble(problem)
    ref = dense_generalized_eigs(K, M)[:m]
    assert np.all(np.abs(res.values - ref) <= 1e-7 * ref)


def random_start(problem, m, tol=1e-8, seed=5):
    """The production solve's pencil, preconditioner and classes, started
    from a seeded random block instead of :func:`galerkin_start`."""
    K, M, K0 = box_operators(problem)
    return smallest_eigenpairs(
        K, M, m, tol=tol, seed=seed,
        precond=chebyshev(K, laplacian_inverse(K0), problem.alpha))


class TestWarmStart:
    """Starting from the per-class Galerkin block changes only the path."""

    @pytest.mark.parametrize("edges,alpha,cells,m", [
        ((PI, PI), 0.0, (12, 12), 8),
        ((PI, PI), 10.0, (12, 12), 8),
        ((PI, PI), 100.0, (12, 12), 8),
        ((PI, 0.3), 0.0, (16, 4), 8),
        ((PI, 2.0, 1.5), 1.0, (4, 4, 4), 6),
        ((PI, PI), 10.0, (16, 16), 16),
    ], ids=["square-a0", "square-a10", "square-a100", "strip", "3d",
            "out-of-order"])
    def test_same_pairs_in_no_more_iterations(self, edges, alpha, cells, m):
        tol = 1e-8
        problem = ElasticityProblem(edges, alpha, cells)
        _, warm = solve_problem(problem, m, tol, 5)
        cold = random_start(problem, m, tol, 5)
        assert len(warm.values) == len(cold.values) == m
        assert np.all(np.abs(warm.values - cold.values)
                      <= 1e-10 * cold.values)
        assert warm.iterations <= cold.iterations
        # residuals recomputed on the assembled CSR pencil
        K, M, _ = assemble(problem)
        X = nodal_vectors(problem, warm)
        R = K.matvec(X) - M.matvec(X) * warm.values
        assert np.all(np.linalg.norm(R, axis=0) / warm.values <= tol)
        assert np.all(warm.residuals <= tol) and np.all(cold.residuals <= tol)

    def test_alpha0_fine_solve_nearly_free(self):
        # at α = 0 K̂ is diagonal, so the Galerkin start holds every class's
        # exact eigenvectors and the first iteration certifies them
        problem = ElasticityProblem((PI, PI), 0.0, (32, 32))
        _, warm = solve_problem(problem, 12, 1e-8, 3)
        assert warm.iterations == 1

    def test_rejects_misshapen_start(self):
        K = diag_csr(np.arange(1.0, 33.0))
        M = identity_csr(32)
        with pytest.raises(ValueError, match="start"):
            smallest_eigenpairs(K, M, 4, start=np.ones((31, 2)))
        with pytest.raises(ValueError, match="start"):
            smallest_eigenpairs(K, M, 4, start=np.ones((32, 5)))
        with pytest.raises(ValueError, match="start"):
            smallest_eigenpairs(K, M, 4, start=np.ones(32))


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
        # K: once on the starting block, once per iteration on the W block,
        # once on the polished block that certifies the result.  M, applied
        # afresh for every M product: the starting block's Gram and the
        # kept X's residual rows, then per iteration W (its M-norms), the
        # Gram of the occupied X, P and W rows, P (its M-norms) and the new
        # X (its residual rows), and at the polish the Gram of X and the
        # explicit residual rows
        p = ElasticityProblem((PI, PI), 2.0, (16, 16))
        K, M, _ = assemble(p)
        K, M = CountingOperand(K), CountingOperand(M)
        res = smallest_eigenpairs(K, M, 6, tol=1e-9, seed=4,
                                  precond=nodal_inverse(p))
        # m + 8 starting columns, m + 4 kept after the first projection
        bs, kept = 6 + 8, 6 + 4
        W = np.array(K.calls[1:-1])
        assert K.calls == [bs, *W, kept] and len(W) == res.iterations
        assert np.all((1 <= W) & (W <= kept))
        assert M.calls[:2] == [bs, kept] and M.calls[-2:] == [kept, kept]
        steps = np.reshape(M.calls[2:-2], (res.iterations, 4))
        assert np.array_equal(steps[:, 0], W)
        assert np.all(steps[:, 2:] == kept)
        # the Gram's rows: X, the P rows (none in the first step) and W
        assert steps[0, 1] == kept + W[0]
        assert np.all((kept + W <= steps[:, 1])
                      & (steps[:, 1] <= 2 * kept + W))

    def test_banded_applies_each_operand_once_per_block(self):
        # per iteration: A and B on the new block Y, then both on the kept
        # first column for the explicit backward error; the next B·X comes
        # from the Ritz combination of the stack, so only the start applies
        # B·X
        n = 40
        h = PI / (n + 1)
        stiff = (np.diag(np.full(n, 2.0)) + np.diag(np.full(n - 1, -1.0), 1)
                 + np.diag(np.full(n - 1, -1.0), -1)) / h
        mass = (np.diag(np.full(n, 4.0)) + np.diag(np.full(n - 1, 1.0), 1)
                + np.diag(np.full(n - 1, 1.0), -1)) * h / 6
        A = CountingOperand(BandedSymMatrix.from_dense(stiff))
        B = CountingOperand(BandedSymMatrix.from_dense(mass))
        res = banded_smallest(A, B, cholesky_banded(A.inner))
        bs = 6
        assert res.iterations > 1
        assert A.calls == [bs, 1] * res.iterations
        assert B.calls == [bs] + [bs, 1] * res.iterations


class TestResultMemory:
    """Results own their arrays, so no basis stack outlives its solve."""

    def test_vectors_are_owned_c_contiguous_blocks(self, monkeypatch):
        p = ElasticityProblem((PI, PI), 2.0, (12, 12))
        K, M, K0 = box_operators(p)
        solve = dict(seed=4, precond=laplacian_inverse(K0))
        converged = smallest_eigenpairs(K, M, 6, tol=1e-9, **solve)
        monkeypatch.setattr(eigensolve, "LOBPCG_MAXITER", 2)
        with pytest.raises(ConvergenceError) as info:
            smallest_eigenpairs(K, M, 6, tol=1e-12, **solve)
        n = 40
        string = (np.diag(np.full(n, 2.0)) + np.diag(np.full(n - 1, -1.0), 1)
                  + np.diag(np.full(n - 1, -1.0), -1))
        A = BandedSymMatrix.from_dense(string)
        banded = banded_smallest(A, identity_banded(n), cholesky_banded(A))
        for result, shape in ((converged, (K.order, 6)),
                              (info.value.result, (K.order, 6)),
                              (banded, (n, 1))):
            vectors = result.vectors
            assert vectors.shape == shape
            assert vectors.flags.c_contiguous and vectors.flags.owndata

    def test_peak_memory_of_one_solve(self):
        # a 32² α = 2 solve as one block peaks at 10.3 blocks of
        # n·(m + 8) doubles: the (2, 3k, n) basis stack and the (2, k, n)
        # spare block, k = m + 4 kept columns, are 6.7 of them, next to the
        # Chebyshev apply's z, d, r and inner(r) on the W rows; the fresh
        # M·Y of a Rayleigh–Ritz step, 3k rows, stays below that.  With an
        # M·Y plane in the stack and spare the solve peaked at 13.6.  The
        # starting stack is freed before the basis stack is allocated;
        # alive next to it the solve peaked at 15.1, with the starting
        # block written into the basis stack through a temporary at 17.6,
        # sized for all m + 8 starting columns at 21.1, and a stack
        # concatenated afresh every iteration at 25.2.  The first solve in
        # a process also imports numpy submodules (about 2 blocks here), so
        # a warm-up solve runs untraced
        p = ElasticityProblem((PI, PI), 2.0, (32, 32))
        lap_terms, div_terms, mass_terms = _terms(p)
        K = full_operator(p, lap_terms + div_terms)
        M = full_operator(p, mass_terms)
        precond = chebyshev(K, full_inverse(p), p.alpha)
        m = 16
        smallest_eigenpairs(K, M, m, tol=1e-8, seed=7, precond=precond)
        tracemalloc.start()
        try:
            smallest_eigenpairs(K, M, m, tol=1e-8, seed=7, precond=precond)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 11 * K.order * (m + 8) * 8

    def test_peak_memory_of_one_box_solve(self):
        # one 64² α = 2 solve_problem peaks at 3.6 blocks of N·(m + 8)
        # doubles, N the full order, in the Chebyshev apply: the basis
        # stack holds 3 × 9 rows of Y and K·Y, what the class that keeps
        # most keeps, and the apply four blocks of W rows.  With the
        # caller's (n, m) start block alive to the end it peaked at 4.1
        # blocks; with an M·Y plane in the stack and spare, at 5.2; with
        # the starting stack alive next to the new basis stack and spare,
        # at 6.3; sized for m + 4 kept vectors per class and alive while
        # the eigenvectors were mapped out to nodal values, at 11.5
        p = ElasticityProblem((PI, PI), 2.0, (64, 64))
        m = 16
        orbits = class_orbits(p)
        solve_problem(p, m, 1e-8, 7)
        tracemalloc.start()
        try:
            _, res = solve_problem(p, m, 1e-8, 7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.vectors.shape == (
            sum(size for *_, size in orbits.pieces), m)
        assert peak <= 4.0 * p.order * (m + 8) * 8

    def test_peak_memory_of_one_richardson_verify(self):
        # a 32²/64² α = 2 Richardson verify peaks at 3.6 blocks of
        # N·(m + 8) doubles, N the fine order, in the fine solve: only the
        # coarse Spectrum outlives the coarse solve.  With the coarse
        # eigenvectors alive through the fine solve, and each solve's
        # start block alive to its end, it peaked at 4.2
        cfg = replace(RunConfig(mode="verify"), alpha=2.0, cells=(32, 32),
                      m=16, k_max=15, seed=7)
        run_verify(cfg)
        tracemalloc.start()
        try:
            run_verify(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        fine = ElasticityProblem(cfg.edges, cfg.alpha, (64, 64))
        assert peak <= 3.9 * fine.order * (cfg.m + 8) * 8

    def test_start_block_is_dead_at_the_first_K_apply(self):
        p = ElasticityProblem((PI, PI), 2.0, (12, 12))
        K, M, K0 = box_operators(p)
        refs, alive = [], []

        def start():
            block = galerkin_start(K, M, 6)
            refs.append(weakref.ref(block))
            return block

        class FirstApply:
            order, blocks, classes = K.order, K.blocks, K.classes

            def matvec(self, x):
                if not alive:
                    alive.append(refs[0]() is not None)
                return K.matvec(x)

        res = smallest_eigenpairs(
            FirstApply(), M, 6, tol=1e-9, seed=4, start=start(),
            precond=laplacian_inverse(K0))
        assert alive == [False]
        assert res.values.shape == (6,)


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
        assert str(err.value) == "non-positive pivot 0.000e+00 at index 100"

    def test_smallest_pivot_named_when_every_pivot_passes(self, rng,
                                                          monkeypatch):
        # LAPACK can reject a block whose scalar column loop passes every
        # pivot (round-off); the error then names the block's smallest
        # pivot, here of an SPD first block that a patched cholesky rejects
        dense = banded_dominant(rng, 100, 3)
        pivots = np.diag(np.linalg.cholesky(dense[:64, :64])) ** 2
        k = int(np.argmin(pivots))

        def rejecting(block):
            raise np.linalg.LinAlgError("rejected")

        monkeypatch.setattr(np.linalg, "cholesky", rejecting)
        with pytest.raises(FactorizationError) as err:
            cholesky_banded(BandedSymMatrix.from_dense(dense))
        assert err.value.pivot == k
        assert err.value.value == pytest.approx(pivots[k], rel=1e-12)
        assert str(err.value) == (f"smallest pivot {err.value.value:.3e} "
                                  f"at index {k}")

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

    @pytest.mark.parametrize("bw", [0, 1, 3, 40, 64])
    def test_lower_inverse_matches_dense_inverse(self, rng, bw):
        # oracle: numpy's LU inverse of Cholesky factors of banded blocks
        L = np.linalg.cholesky(np.stack([banded_dominant(rng, 64, bw)
                                         for _ in range(5)]))
        ref = np.linalg.inv(L)
        inv = L.copy()
        _lower_inverse(inv, bw)
        assert np.array_equal(inv, np.tril(inv))
        assert np.abs(inv - ref).max() <= 1e-14 * np.abs(ref).max()

    def test_solve_rejects_wrong_length(self):
        factor = cholesky_banded(
            BandedSymMatrix.from_dense(np.diag([4.0, 4.0, 4.0, 4.0])))
        with pytest.raises(ValueError, match="order 4.*length 6"):
            factor.solve(np.ones(6))


class TestBandedSmallest:
    def test_start_columns_replace_the_first_random_ones(self):
        # an exact eigenvector as the first column: the pair is found at
        # once, and the other columns are the seed's draw, as without it
        n = 60
        dense = (np.diag(np.full(n, 2.0)) + np.diag(np.full(n - 1, -1.0), 1)
                 + np.diag(np.full(n - 1, -1.0), -1))
        A, B = BandedSymMatrix.from_dense(dense), identity_banded(n)
        exact = np.sin(np.arange(1, n + 1) * PI / (n + 1))[:, None]
        factor = cholesky_banded(A)
        warm = banded_smallest(A, B, factor, start=exact)
        cold = banded_smallest(A, B, factor)
        assert warm.iterations == 1 < cold.iterations
        assert warm.values[0] == pytest.approx(cold.values[0], rel=1e-12)
        for bad in (np.ones((n, 2)), np.ones((n - 1, 1)), np.ones(n)):
            with pytest.raises(ValueError, match="start"):
                banded_smallest(A, B, factor, start=bad)

    def test_toeplitz_closed_form(self):
        n = 60
        dense = (np.diag(np.full(n, 2.0)) + np.diag(np.full(n - 1, -1.0), 1)
                 + np.diag(np.full(n - 1, -1.0), -1))
        A = BandedSymMatrix.from_dense(dense)
        res = banded_smallest(A, identity_banded(n), cholesky_banded(A))
        exact = 2.0 - 2.0 * np.cos(PI / (n + 1))
        assert res.values == pytest.approx([exact], rel=1e-10)

    def test_generalized_fem_string(self):
        # P1 pencil on (0, pi): first eigenvalue 6(1-cos h)/(h^2 (2+cos h))
        n = 40
        h = PI / (n + 1)
        stiff = (np.diag(np.full(n, 2.0)) + np.diag(np.full(n - 1, -1.0), 1)
                 + np.diag(np.full(n - 1, -1.0), -1)) / h
        mass = (np.diag(np.full(n, 4.0)) + np.diag(np.full(n - 1, 1.0), 1)
                + np.diag(np.full(n - 1, 1.0), -1)) * h / 6
        A = BandedSymMatrix.from_dense(stiff)
        res = banded_smallest(A, BandedSymMatrix.from_dense(mass),
                              cholesky_banded(A))
        exact = 6 * (1 - np.cos(h)) / (h ** 2 * (2 + np.cos(h)))
        assert res.values == pytest.approx([exact], rel=1e-10)

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
            res = banded_smallest(A, identity_banded(n), cholesky_banded(A))
            errors.append(abs(res.values[0] - target))
        # the reflected-ghost boundary treatment is first order, so expect
        # steady but not quadratic approach
        assert errors[2] < errors[1] < errors[0]
        assert errors[2] < 1e-2 * target

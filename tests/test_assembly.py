"""Assembly tests against the separable oracle and structural invariants."""

import itertools

import numpy as np
import pytest

from elastica import assembly, harness
from elastica.assembly import (ElasticityProblem, _chebyshev_steps,
                               assemble, box_operators, chebyshev,
                               class_orbits, divergence_stiffness,
                               galerkin_start,
                               interpolate_field, laplacian_inverse,
                               reference_spectrum_alpha0, sine_transform)
from elastica.eigensolve import BreakdownError
from elastica.harness import solve_problem
from conftest import dense_generalized_eigs

PI = np.pi


class TestProblemValidation:
    def test_rejects_too_coarse(self):
        with pytest.raises(ValueError):
            ElasticityProblem((PI, PI), 0.0, (1, 4))

    def test_rejects_bad_dimension(self):
        with pytest.raises(ValueError):
            ElasticityProblem((PI,), 0.0, (4,))
        with pytest.raises(ValueError):
            ElasticityProblem((PI, PI, PI, PI), 0.0, (4, 4, 4, 4))

    def test_rejects_negative_alpha(self):
        with pytest.raises(ValueError):
            ElasticityProblem((PI, PI), -1.0, (4, 4))

    def test_refined(self):
        p = ElasticityProblem((1.0, 2.0), 0.5, (4, 6))
        assert p.refined().cells == (8, 12)


class TestReferenceSpectrum:
    def test_square_first_values(self):
        assert np.allclose(reference_spectrum_alpha0((PI, PI), 4),
                           [2, 2, 5, 5])
        assert np.allclose(reference_spectrum_alpha0((PI, PI), 12),
                           [2, 2, 5, 5, 5, 5, 8, 8, 10, 10, 10, 10])

    def test_cube_first_value_triple(self):
        vals = reference_spectrum_alpha0((PI, PI, PI), 3)
        assert np.allclose(vals, [3, 3, 3])

    def test_unit_square_scaling(self):
        vals = reference_spectrum_alpha0((1.0, 1.0), 2)
        assert np.allclose(vals, [2 * PI ** 2] * 2, rtol=1e-14)


class TestAssembledMatrices:
    def test_exact_symmetry_and_order(self):
        p = ElasticityProblem((PI, PI), 1.5, (8, 8))
        K, M, dof = assemble(p)
        assert dof.order == 2 * 49 == K.order == M.order
        dk = K.to_dense()
        dm = M.to_dense()
        assert np.abs(dk - dk.T).max() == 0.0
        assert np.abs(dm - dm.T).max() == 0.0

    def test_positive_definite(self):
        p = ElasticityProblem((PI, PI), 2.0, (8, 8))
        K, M, _ = assemble(p)
        assert np.linalg.eigvalsh(K.to_dense()).min() > 0
        assert np.linalg.eigvalsh(M.to_dense()).min() > 0

    def test_alpha_split_is_exact(self):
        base = ElasticityProblem((PI, PI), 0.0, (6, 6))
        K0, _, _ = assemble(base)
        Ka, _, _ = assemble(ElasticityProblem((PI, PI), 1.75, (6, 6)))
        Kd = divergence_stiffness(base)
        diff = Ka.to_dense() - (K0.to_dense() + 1.75 * Kd.to_dense())
        assert np.abs(diff).max() < 1e-12

    def test_divergence_gram_psd(self):
        Kd = divergence_stiffness(ElasticityProblem((PI, PI), 0.0, (7, 7)))
        w = np.linalg.eigvalsh(Kd.to_dense())
        assert w.min() > -1e-12

    def test_divergence_gram_psd_3d(self):
        Kd = divergence_stiffness(
            ElasticityProblem((PI, PI, PI), 0.0, (4, 4, 4)))
        w = np.linalg.eigvalsh(Kd.to_dense())
        assert w.min() > -1e-12

    def test_alpha0_spectrum_against_oracle(self):
        p = ElasticityProblem((PI, PI), 0.0, (14, 14))
        K, M, _ = assemble(p)
        vals = dense_generalized_eigs(K, M)[:8]
        ref = reference_spectrum_alpha0((PI, PI), 8)
        assert np.allclose(vals, ref, rtol=2e-2)

    def test_3d_alpha0_spectrum(self):
        p = ElasticityProblem((PI, PI, PI), 0.0, (6, 6, 6))
        K, M, _ = assemble(p)
        vals = dense_generalized_eigs(K, M)[:3]
        assert np.allclose(vals, [3, 3, 3], rtol=5e-2)

    def test_anisotropic_box(self):
        p = ElasticityProblem((PI, 2 * PI), 0.0, (10, 20))
        K, M, _ = assemble(p)
        vals = dense_generalized_eigs(K, M)[:2]
        ref = reference_spectrum_alpha0((PI, 2 * PI), 2)  # 1 + 1/4
        assert np.allclose(vals, ref, rtol=2e-2)

    def test_monotone_in_alpha(self):
        vals = {}
        for alpha in (0.0, 0.5, 1.0, 2.0):
            K, M, _ = assemble(ElasticityProblem((PI, PI), alpha, (8, 8)))
            vals[alpha] = dense_generalized_eigs(K, M)[:10]
        alphas = sorted(vals)
        for lo, hi in zip(alphas, alphas[1:]):
            assert np.all(vals[hi] >= vals[lo] - 1e-11)


OPERATOR_CASES = [((1.0, 2.5), (5, 7)), ((1.0, 1.5, 2.0), (3, 4, 5))]


@pytest.mark.parametrize("alpha", [0.0, 1.75])
@pytest.mark.parametrize("edges,cells", OPERATOR_CASES,
                         ids=["2d", "3d"])
class TestBoxOperators:
    """The sine-coordinate operators, conjugated by the sine transform Q,
    against the assembled CSR oracle."""

    def _pair(self, edges, cells, alpha):
        problem = ElasticityProblem(edges, alpha, cells)
        K, M, _ = assemble(problem)
        return (K, M), box_operators(problem), problem

    def test_dense_form_matches_csr(self, edges, cells, alpha):
        csr, ops, problem = self._pair(edges, cells, alpha)
        Q = sine_transform(problem, np.eye(csr[0].order))
        for mat, op in zip(csr, ops):
            dense = mat.to_dense()
            eye = np.eye(op.order)
            scale = np.abs(dense).max()
            block = Q.T @ op.matvec(eye) @ Q
            columns = Q.T @ np.column_stack([op.matvec(e) for e in eye]) @ Q
            assert op.order == mat.order
            assert np.abs(block - dense).max() <= 1e-14 * scale
            assert np.abs(columns - dense).max() <= 1e-14 * scale

    def test_same_spectrum_as_csr(self, edges, cells, alpha):
        (K, M), (Kop, Mop, _), _ = self._pair(edges, cells, alpha)
        eye = np.eye(K.order)
        ref = dense_generalized_eigs(K, M)
        vals = dense_generalized_eigs(Kop.matvec(eye), Mop.matvec(eye))
        assert np.allclose(vals, ref, rtol=1e-12, atol=0)

    def test_vector_operand_keeps_shape(self, edges, cells, alpha, rng):
        (K, M), ops, problem = self._pair(edges, cells, alpha)
        x = rng.standard_normal(K.order)
        for mat, op in zip((K, M), ops):
            y = op.matvec(sine_transform(problem, x))
            assert y.shape == (K.order,)
            y = sine_transform(problem, y, inverse=True)
            ref = mat.matvec(x)
            assert np.abs(y - ref).max() <= 1e-14 * np.abs(ref).max()


SINE_CASES = [((PI, 1.7), (9, 13)), ((PI, PI, 2.0), (4, 5, 6))]


@pytest.mark.parametrize("alpha", [0.0, 0.5, 10.0])
@pytest.mark.parametrize("edges,cells", SINE_CASES, ids=["2d", "3d"])
class TestSineCoordinates:
    """K̂ = Q·K·Qᵀ and M̂ = Q·M·Qᵀ, Q the sine transform, against CSR."""

    def test_conjugates_match_csr(self, edges, cells, alpha):
        p = ElasticityProblem(edges, alpha, cells)
        K, M, _ = assemble(p)
        Kh, Mh, _ = box_operators(p)
        eye = np.eye(K.order)
        Q = sine_transform(p, eye)
        assert np.abs(sine_transform(p, Q, inverse=True) - eye).max() \
            <= 1e-13
        for mat, op in ((K, Kh), (M, Mh)):
            dense = mat.to_dense()
            got = Q.T @ op.matvec(eye) @ Q
            assert np.abs(got - dense).max() <= 1e-14 * np.abs(dense).max()

    def test_diagonal_except_grad_div(self, edges, cells, alpha):
        p = ElasticityProblem(edges, alpha, cells)
        Kh, Mh, _ = box_operators(p)
        assert Mh.couplings == ()
        # one C ⊗ Cᵀ coupling per parity class and ordered pair of
        # components when α > 0
        dim = len(edges)
        assert len(Kh.couplings) == \
            (2 ** dim * dim * (dim - 1) if alpha > 0 else 0)

    def test_symbol_inverse_of_alpha0_stiffness(self, edges, cells, alpha):
        p = ElasticityProblem(edges, 0.0, cells)
        K, _, K0 = box_operators(p)
        eye = np.eye(K.order)
        assert np.abs(laplacian_inverse(K0)(K.matvec(eye)) - eye).max() \
            <= 1e-13


CLASS_CASES = [((PI, 1.7), (10, 8)), ((PI, 1.7), (9, 11)),
               ((PI, 0.3), (16, 4)), ((PI, PI, 2.0), (4, 5, 6)),
               ((1.0, 1.5, 2.0), (2, 2, 9))]


@pytest.mark.parametrize("alpha", [0.0, 2.0])
@pytest.mark.parametrize("edges,cells", CLASS_CASES,
                         ids=["2d-odd", "2d-even", "strip", "3d", "3d-thin"])
class TestParityClasses:
    """Class-major sine coordinates against the assembled CSR matrices:
    Q·K·Qᵀ and Q·M·Qᵀ split into the reflection-parity blocks."""

    def _conjugates(self, edges, cells, alpha):
        p = ElasticityProblem(edges, alpha, cells)
        K, M, _ = assemble(p)
        Q = sine_transform(p, np.eye(K.order))
        return p, Q, [(Q @ mat.to_dense() @ Q.T, op)
                      for mat, op in zip((K, M), box_operators(p))]

    def test_operators_equal_conjugated_csr(self, edges, cells, alpha):
        _, _, pairs = self._conjugates(edges, cells, alpha)
        for dense, op in pairs:
            got = op.matvec(np.eye(op.order))
            assert np.abs(got - dense).max() <= 1e-14 * np.abs(dense).max()

    def test_no_coupling_between_classes(self, edges, cells, alpha):
        _, _, pairs = self._conjugates(edges, cells, alpha)
        for dense, op in pairs:
            # one block per class; with one interior node on an axis, the
            # classes of even frequency there are empty and left out
            blocks = op.blocks
            assert len(blocks) == (2 ** len(edges) if min(cells) > 2 else 6)
            assert min(blocks) > 0 and sum(blocks) == op.order
            inside = np.zeros(dense.shape, dtype=bool)
            for stop, size in zip(np.cumsum(blocks), blocks):
                inside[stop - size:stop, stop - size:stop] = True
            assert np.abs(dense[~inside]).max() \
                <= 1e-14 * np.abs(dense).max()
            # and the operator itself has exact zeros there
            assert not np.any(op.matvec(np.eye(op.order))[~inside])

    def test_inverse_round_trips(self, edges, cells, alpha, rng):
        p, Q, _ = self._conjugates(edges, cells, alpha)
        x = rng.standard_normal((len(Q), 3))
        for y in (sine_transform(p, sine_transform(p, x), inverse=True),
                  sine_transform(p, sine_transform(p, x, inverse=True))):
            assert np.abs(y - x).max() <= 1e-13
        assert np.abs(Q @ Q.T - np.eye(len(Q))).max() <= 1e-13
        v = sine_transform(p, x[:, 0])
        assert v.shape == (len(Q),)
        assert np.abs(sine_transform(p, v, inverse=True) - x[:, 0]).max() \
            <= 1e-13

    def test_restriction_equals_dense_submatrix(self, edges, cells, alpha,
                                                rng):
        _, _, pairs = self._conjugates(edges, cells, alpha)
        for dense, op in pairs:
            # a subset across classes, in no particular order
            index = rng.permutation(op.order)[:max(2, op.order // 3)]
            got = op.restrict(index)
            assert np.abs(got - dense[np.ix_(index, index)]).max() \
                <= 1e-14 * np.abs(dense).max()


class TestGalerkinStart:
    """Per-class Ritz vectors on the lowest sine modes, the solve's start."""

    @pytest.mark.parametrize("edges,cells,alpha,m", [
        ((PI, 1.7), (9, 13), 2.0, 6),
        ((PI, 2.0, 1.5), (4, 5, 3), 10.0, 5),
        ((1.0, 1.0), (3, 3), 1.0, 2),
    ], ids=["2d", "3d", "tiny-classes"])
    def test_ritz_vectors_of_each_class(self, edges, cells, alpha, m):
        p = ElasticityProblem(edges, alpha, cells)
        K, M, _ = box_operators(p)
        X = galerkin_start(K, M, m)
        assert X.shape == (K.order, m)
        Kd = K.matvec(np.eye(K.order))
        stop = 0
        for size in K.blocks:
            first, stop = stop, stop + size
            Xq = X[first:stop]
            live = np.flatnonzero(np.abs(Xq).sum(axis=0))
            # min(m, L) vectors, M-orthonormal, K-orthogonal: Ritz vectors
            # of the class's restricted pencil, ascending
            assert list(live) == list(range(min(m, size)))
            Xq = Xq[:, live]
            gram = Xq.T @ (M.diagonal[first:stop, None] * Xq)
            assert np.abs(gram - np.eye(live.size)).max() <= 1e-12
            H = Xq.T @ Kd[first:stop, first:stop] @ Xq
            theta = np.diag(H)
            assert np.abs(H - np.diag(theta)).max() <= 1e-12 * theta.max()
            assert np.all(np.diff(theta) >= 0)
            # Ritz values lie above the class's exact eigenvalues
            exact = np.linalg.eigvalsh(
                Kd[first:stop, first:stop]
                / np.sqrt(np.outer(M.diagonal[first:stop],
                                   M.diagonal[first:stop])))
            assert np.all(theta >= exact[:live.size] * (1 - 1e-12))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_failed_eigh_is_a_breakdown(self):
        # at edges of 1e-160 the symbols over- and underflow on the way
        K, M, _ = box_operators(ElasticityProblem((1e-160, 1e-160), 2.0,
                                                  (6, 6)))
        with pytest.raises(BreakdownError, match="Galerkin start failed"):
            galerkin_start(K, M, 4)

    def test_exact_at_alpha0(self):
        # K̂(0) is diagonal, so each class's vectors are its lowest modes
        p = ElasticityProblem((PI, 1.7), 0.0, (12, 16))
        K, M, _ = box_operators(p)
        m = 8
        X = galerkin_start(K, M, m)
        ratio = K.diagonal / M.diagonal
        stop = 0
        for size in K.blocks:
            first, stop = stop, stop + size
            # one mode per column, the i-th lowest in column i
            cols, rows = np.nonzero(X[first:stop].T)
            assert list(cols) == list(range(m))
            assert np.array_equal(ratio[first:stop][rows],
                                  np.sort(ratio[first:stop])[:m])


class TestFieldChecks:
    def test_divergence_free_field_quotient_vanishes(self):
        # curl of the stream function sin^2(x) sin^2(y): divergence-free and
        # zero on the boundary, so the interpolant's divergence energy
        # shrinks at O(h^2)
        quotients = []
        for cells in (8, 16, 32):
            p = ElasticityProblem((PI, PI), 0.0, (cells, cells))
            Kd = divergence_stiffness(p)
            _, M, _ = assemble(p)
            u = interpolate_field(p, [
                lambda x, y: np.sin(x) ** 2 * np.sin(2 * y),
                lambda x, y: -np.sin(2 * x) * np.sin(y) ** 2])
            quotients.append((u @ Kd.matvec(u)) / (u @ M.matvec(u)))
        assert quotients[1] < 0.3 * quotients[0]
        assert quotients[2] < 0.3 * quotients[1]

    def test_gradient_field_quotient_positive(self):
        # gradient field grad(sin x sin y) has divergence energy bounded away
        # from zero under refinement
        for cells in (8, 16, 32):
            p = ElasticityProblem((PI, PI), 0.0, (cells, cells))
            Kd = divergence_stiffness(p)
            _, M, _ = assemble(p)
            u = interpolate_field(p, [
                lambda x, y: np.cos(x) * np.sin(y),
                lambda x, y: np.sin(x) * np.cos(y)])
            quotient = (u @ Kd.matvec(u)) / (u @ M.matvec(u))
            assert quotient > 1.0


@pytest.mark.parametrize("cols", [None, 4], ids=["vector", "block"])
@pytest.mark.parametrize("edges,cells", [((PI, 1.7), (9, 13)),
                                         ((PI, PI, 2.0), (4, 5, 6))],
                         ids=["2d", "3d"])
class TestPreconditioner:
    """The symbol inverse, conjugated by the sine transform Q, against the
    assembled CSR K(0)."""

    def test_exact_inverse(self, edges, cells, cols, rng):
        p = ElasticityProblem(edges, 0.0, cells)
        K, _, _ = assemble(p)
        T = laplacian_inverse(box_operators(p)[2])
        x = rng.standard_normal(K.order if cols is None else (K.order, cols))
        y = sine_transform(p, T(sine_transform(p, K.matvec(x))),
                           inverse=True)
        assert y.shape == x.shape
        assert np.abs(y - x).max() < 1e-10


@pytest.mark.parametrize("edges,cells", [((PI, 1.7), (9, 13)),
                                         ((PI, PI, PI), (4, 4, 4))],
                         ids=["2d", "3d"])
def test_one_factor_table_per_solve(edges, cells, monkeypatch):
    # box_operators builds each axis's sine matrix once and shares it
    # between K̂, M̂ and K̂₀; laplacian_inverse builds nothing, so a solve
    # lays out the classes once for the operators and once for the labels
    calls = {"sine": 0, "orbits": 0}
    sine_matrix, orbits = assembly._sine_matrix, assembly.class_orbits

    def counted(key, build):
        def wrapper(*args):
            calls[key] += 1
            return build(*args)
        return wrapper

    monkeypatch.setattr(assembly, "_sine_matrix",
                        counted("sine", sine_matrix))
    for module in (assembly, harness):
        monkeypatch.setattr(module, "class_orbits", counted("orbits", orbits))
    solve_problem(ElasticityProblem(edges, 2.0, cells), 4, 1e-8, 7)
    assert calls == {"sine": len(edges), "orbits": 2}


CHEBYSHEV_CASES = [((PI, 1.7), (6, 7)), ((PI, PI, 2.0), (3, 4, 5))]


def chebyshev_recurrence(K, inner, alpha, r):
    """Saad's Alg. 12.1 out of place, every step a fresh array: the
    recurrence :func:`chebyshev` runs in place."""
    delta = 0.5 * alpha
    theta = 1.0 + delta
    sigma = theta / delta
    rho = 1.0 / sigma
    d = inner(r) / theta
    z = d
    for _ in range(_chebyshev_steps(alpha) - 1):
        r = r - K.matvec(d)
        rho_next = 1.0 / (2.0 * sigma - rho)
        d = (rho_next * rho) * d + (2.0 * rho_next / delta) * inner(r)
        rho = rho_next
        z = z + d
    return z


@pytest.mark.parametrize("edges,cells", CHEBYSHEV_CASES, ids=["2d", "3d"])
class TestChebyshev:
    """The Chebyshev preconditioner on [1, 1+α] against dense oracles."""

    def test_interval_holds(self, edges, cells):
        # ∫|∇u|² = ∫|div u|² + ∫|curl u|² on H¹₀ gives K_div <= K_lap
        p = ElasticityProblem(edges, 0.0, cells)
        K0, _, _ = assemble(p)
        w = dense_generalized_eigs(divergence_stiffness(p), K0)
        assert w.max() <= 1.0 + 1e-12

    @pytest.mark.parametrize("alpha,steps", [(1.0, 1), (2.0, 2), (10.0, 3),
                                             (20.0, 4)])
    def test_matches_dense_polynomial(self, edges, cells, alpha, steps):
        # k steps leave the error polynomial T_k((θ − BA)/δ) / T_k(θ/δ),
        # B = K(0)⁻¹, so the apply is (I − T_k(E)/T_k(θ/δ)) A⁻¹; k = 1 is
        # returned unscaled (B itself), which LOBPCG cannot tell apart
        assert _chebyshev_steps(alpha) == steps
        p = ElasticityProblem(edges, alpha, cells)
        A = assemble(p)[0].to_dense()
        B = np.linalg.inv(assemble(ElasticityProblem(edges, 0.0, cells))[0]
                          .to_dense())
        eye = np.eye(len(A))
        if steps == 1:
            expected = B
        else:
            delta = alpha / 2
            theta = 1.0 + delta
            E = (theta * eye - B @ A) / delta
            t_prev, t = eye, E
            s_prev, s = 1.0, theta / delta
            for _ in range(steps - 1):
                t_prev, t = t, 2.0 * E @ t - t_prev
                s_prev, s = s, 2.0 * (theta / delta) * s - s_prev
            expected = (eye - t / s) @ np.linalg.inv(A)
        K, _, K0 = box_operators(p)
        # the apply runs in sine coordinates: conjugate it by Q
        Q = sine_transform(p, eye)
        got = Q.T @ chebyshev(K, laplacian_inverse(K0), alpha)(eye) @ Q
        assert np.abs(got - expected).max() <= 1e-13 * np.abs(expected).max()

    @pytest.mark.parametrize("alpha", [2.0, 10.0, 100.0])
    def test_symmetric_positive_definite(self, edges, cells, alpha, rng):
        p = ElasticityProblem(edges, alpha, cells)
        K, _, K0 = box_operators(p)
        P = chebyshev(K, laplacian_inverse(K0), alpha)
        x, y = rng.standard_normal((2, K.order))
        xPy, yPx = x @ P(y), y @ P(x)
        assert abs(xPy - yPx) <= 1e-12 * abs(xPy)
        dense = P(np.eye(K.order))
        assert np.linalg.eigvalsh(0.5 * (dense + dense.T)).min() > 0.0

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("alpha", [2.0, 10.0, 100.0])
    def test_in_place_apply_is_the_recurrence(self, edges, cells, alpha,
                                              order, rng):
        # the apply keeps z, d, r and one inner(r) block, updated in place:
        # the same bits as the recurrence that allocates every step, and
        # the operand is left as it was
        p = ElasticityProblem(edges, alpha, cells)
        K, _, K0 = box_operators(p)
        inner = laplacian_inverse(K0)
        x = np.asarray(rng.standard_normal((K.order, 5)), order=order)
        before = x.copy()
        got = chebyshev(K, inner, alpha)(x)
        assert np.array_equal(x, before)
        assert np.array_equal(got, chebyshev_recurrence(K, inner, alpha, x))

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
    def test_one_step_is_the_inner_inverse(self, edges, cells, alpha, rng):
        p = ElasticityProblem(edges, alpha, cells)
        K, _, K0 = box_operators(p)
        inner = laplacian_inverse(K0)
        x = rng.standard_normal((K.order, 3))
        assert np.array_equal(chebyshev(K, inner, alpha)(x), inner(x))


def test_chebyshev_steps_from_alpha():
    assert [_chebyshev_steps(a) for a in (0.0, 0.5, 1.0, 2.0, 10.0, 100.0)] \
        == [1, 1, 1, 2, 3, 9]


def test_chebyshev_steps_match_the_recurrence():
    # the closed form against the three-term recurrence for T_k, up to
    # the largest α a run accepts
    def recurrence(alpha):
        if alpha == 0:
            return 1
        sigma = (2.0 + alpha) / alpha
        k, t_prev, t = 1, 1.0, sigma
        while t < 3.0:
            k, t_prev, t = k + 1, t, 2.0 * sigma * t - t_prev
        return k

    top = harness.ALPHA_MAX
    grid = np.concatenate([np.geomspace(1e-9, top, 10001),
                           np.linspace(0.0, top, 10001),
                           np.arange(2001) / 8.0])
    assert [_chebyshev_steps(a) for a in grid.tolist()] \
        == [recurrence(a) for a in grid.tolist()]


class TestConvergence:
    def test_sigma1_second_order(self):
        errors = {}
        for cells in (16, 32):
            K, M, _ = assemble(ElasticityProblem((PI, PI), 0.0,
                                                 (cells, cells)))
            errors[cells] = abs(dense_generalized_eigs(K, M)[0] - 2.0)
        rate = np.log2(errors[16] / errors[32])
        assert 1.8 <= rate <= 2.2


def permute_axes(problem, x, perm):
    """Nodal (n, b) fields x carried by the axis permutation ``perm``:
    component c to perm[c], and axis d to axis perm[d]."""
    dim, interior = problem.dim, tuple(c - 1 for c in problem.cells)
    u = x.reshape((dim,) + interior + (-1,))
    inverse = np.argsort(perm)
    u = u.transpose((0,) + tuple(1 + int(d) for d in inverse) + (dim + 1,))
    out = np.empty_like(u)
    out[list(perm)] = u
    return out.reshape(x.shape)


class TestClassOrbits:
    """Parity classes grouped by the axis permutations that keep the box."""

    @pytest.mark.parametrize("edges,cells,classes", [
        ((PI, PI), (6, 6), ((0,), (1, 2), (3,))),
        ((PI, PI, PI), (5, 5, 5), ((0,), (1, 2, 4), (3, 5, 6), (7,))),
        ((PI, PI, 2.0), (5, 5, 4), ((0,), (1,), (2, 4), (3, 5), (6,), (7,))),
        ((1.0, 1.0), (9, 8), ((0,), (1,), (2,), (3,))),
        ((PI, 0.3 * PI), (32, 8), ((0,), (1,), (2,), (3,))),
    ], ids=["square", "cube", "two-equal", "equal-edges", "strip"])
    def test_orbit_table(self, edges, cells, classes):
        problem = ElasticityProblem(edges, 1.0, cells)
        orbits = class_orbits(problem)
        assert orbits.classes == classes
        # the pencil is laid out on the representatives' classes alone,
        # one block each, their pieces consecutive from 0
        K, M, _ = box_operators(problem)
        assert len(K.blocks) == len(classes) and M.blocks == K.blocks
        stops = np.cumsum([size for *_, size in orbits.pieces])
        assert K.order == M.order == sum(K.blocks) == stops[-1]
        assert [start for *_, start, _ in orbits.pieces] == \
            [0, *stops[:-1].tolist()]
        assert orbits.problem.order == assemble(problem)[2].order
        if all(len(orbit) == 1 for orbit in classes):
            assert K.order == orbits.problem.order

    def test_empty_classes_are_dropped(self):
        # one interior node per axis: classes (0,0) and (1,1) are empty
        orbits = class_orbits(ElasticityProblem((1.0, 1.0), 1.0, (2, 2)))
        assert orbits.classes == ((1, 2),)
        assert orbits.pieces == (((0, 1), 1, (0, 0), 0, 1),)

    @pytest.mark.parametrize("edges,cells", [
        ((PI, PI), (6, 6)),
        ((PI, PI, PI), (4, 4, 4)),
        ((PI, PI, 2.0), (5, 5, 4)),
    ], ids=["square", "cube", "two-equal"])
    def test_images_are_permuted_nodal_fields(self, edges, cells):
        # every sine mode of a representative, carried onto an image class
        # and mapped to nodal values, is the representative's nodal field
        # with axes and components permuted together, with no sign
        problem = ElasticityProblem(edges, 2.0, cells)
        orbits = class_orbits(problem)
        order = sum(size for *_, size in orbits.pieces)  # the reduced order
        keep = [p for p in itertools.permutations(range(problem.dim))
                if all(edges[p[d]] == edges[d] and cells[p[d]] == cells[d]
                       for d in range(problem.dim))]
        for orbit in orbits.classes:
            rows, _ = orbits.images[orbit[0]]
            x = np.zeros((order, rows.stop - rows.start))
            x[rows] = np.eye(rows.stop - rows.start)
            fields = {g: sine_transform(problem, orbits.expand(
                x, np.full(x.shape[1], g)), inverse=True) for g in orbit}
            for g in orbit[1:]:
                assert min(np.abs(permute_axes(problem, fields[orbit[0]], p)
                                  - fields[g]).max() for p in keep) <= 1e-14

    def test_reduced_operators_are_the_representative_blocks(self):
        # K̂, M̂, K̂₀ and K(0)⁻¹ are laid out on the representatives alone:
        # each representative's unit coordinates, carried onto any class of
        # its orbit and out through Qᵀ, see the assembled CSR K, M and K(0)
        # act as K̂, M̂, K̂₀ and the inverse of K̂₀'s symbol do on them
        for edges, cells in (((PI, PI), (6, 6)), ((PI, PI, PI), (4, 4, 4)),
                             ((PI, PI, 2.0), (5, 5, 4))):
            problem = ElasticityProblem(edges, 10.0, cells)
            orbits = class_orbits(problem)
            K, M, _ = assemble(problem)
            K0, _, _ = assemble(ElasticityProblem(edges, 0.0, cells))
            ops = box_operators(problem)
            inverse = laplacian_inverse(ops[2])
            for orbit in orbits.classes:
                rows, _ = orbits.images[orbit[0]]
                x = np.zeros((ops[0].order, rows.stop - rows.start))
                x[rows] = np.eye(rows.stop - rows.start)
                for g in orbit:
                    V = sine_transform(problem, orbits.expand(
                        x, np.full(x.shape[1], g)), inverse=True)
                    for mat, op in zip((K, M, K0), ops):
                        dense = V.T @ mat.matvec(V)
                        assert np.abs(op.matvec(x)[rows] - dense).max() \
                            <= 1e-13 * np.abs(dense).max()
                    K0_block = x @ (V.T @ K0.matvec(V))
                    assert np.abs(inverse(K0_block) - x).max() <= 1e-13

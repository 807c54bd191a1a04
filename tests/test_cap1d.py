"""Spherical-cap eigenvalue tests.

Oracles: hemisphere Laplacian values are (m+1)(m+2) per azimuthal mode
(first admissible Legendre degree with a node on the equator); the
hemisphere equality cases are 4 and 2; flat-cap limits reduce to the unit
disk, whose constants come from Bessel characteristic equations evaluated
with mpmath.
"""

import numpy as np
import pytest

from elastica.cap1d import (_KIND_TABLE, CAP_KINDS, CapProblem,
                            _element_matrices, build_mode_operator,
                            mode_eigenfunction, solve_cap)

PI = np.pi
HEMI = PI / 2


class TestProblemValidation:
    def test_angle_range(self):
        with pytest.raises(ValueError):
            CapProblem(0.0, "clamped")
        with pytest.raises(ValueError):
            CapProblem(PI, "clamped")

    def test_kind_checked(self):
        with pytest.raises(ValueError):
            CapProblem(1.0, "navier")

    def test_resolution_floor(self):
        with pytest.raises(ValueError):
            CapProblem(1.0, "clamped", radial_cells=8)


class TestModeOperators:
    def test_weighted_symmetry_exact(self):
        for m in (0, 1, 2):
            op = build_mode_operator(1.2, 32, m, "clamped")
            for mat in (op.numerator, op.metric):
                dense = mat.to_dense()
                assert np.array_equal(dense, dense.T)

    def test_pole_constraints_by_mode(self):
        assert build_mode_operator(1.0, 32, 0, "clamped").removed[0] == 1
        assert build_mode_operator(1.0, 32, 1, "clamped").removed[0] == 0
        assert build_mode_operator(1.0, 32, 2, "clamped").removed[:2] == (0, 1)

    def test_pole_regularity_of_radial_eigenfunction(self):
        # the slope DOF at the pole is constrained to zero for m = 0
        _, full = mode_eigenfunction(HEMI, 64, 0, "dirichlet_laplacian")
        assert full[1] == 0.0

    @pytest.mark.parametrize("theta0", [HEMI, 1.0, 2.2])
    @pytest.mark.parametrize("cells", [16, 33])
    def test_bands_match_dense_assembly(self, theta0, cells):
        # oracle: scatter the element matrices into dense ndof² matrices,
        # correct the rim slope there, and cut out the constrained DOFs
        ndof = 2 * (cells + 1)
        idx = 2 * np.arange(cells)[:, None] + np.arange(4)[None, :]
        for m in range(4):
            dense = {}
            for name, elem in _element_matrices(theta0, cells, m).items():
                dense[name] = np.zeros((ndof, ndof))
                np.add.at(dense[name], (idx[:, :, None], idx[:, None, :]),
                          elem)
            rim = dense["S"].copy()
            rim[-1, -1] -= np.cos(theta0)
            for kind in CAP_KINDS:
                op = build_mode_operator(theta0, cells, m, kind)
                numerator, metric, _, rim_corrected = _KIND_TABLE[kind]
                keep = np.setdiff1d(np.arange(ndof), op.removed)
                cut = np.ix_(keep, keep)
                num = rim if rim_corrected else dense[numerator]
                assert op.numerator.bandwidth == op.metric.bandwidth == 3
                assert np.array_equal(op.numerator.to_dense(), num[cut])
                assert np.array_equal(op.metric.to_dense(),
                                      dense[metric][cut])

    def test_metric_positive_definite(self):
        from elastica.eigensolve import cholesky_banded
        for kind in ("dirichlet_laplacian", "clamped", "p_problem"):
            op = build_mode_operator(2.0, 32, 1, kind)
            cholesky_banded(op.metric)  # raises if not SPD


class TestHemisphereLaplacian:
    def test_lambda1_is_two(self):
        res = solve_cap(CapProblem(HEMI, "dirichlet_laplacian", mode_max=4,
                                   radial_cells=96))
        assert res.minimizing_mode == 0
        assert res.value == pytest.approx(2.0, rel=1e-9)

    def test_per_mode_legendre_ladder(self):
        res = solve_cap(CapProblem(HEMI, "dirichlet_laplacian", mode_max=4,
                                   radial_cells=96))
        expected = [(m + 1) * (m + 2) for m in range(5)]
        assert np.allclose(res.per_mode, expected, rtol=1e-7)
        assert res.minimizing_mode == 0

    def test_domain_monotonicity(self):
        caps = [PI / 4, PI / 2, 2.0, 2.8]
        results = [solve_cap(CapProblem(t, "dirichlet_laplacian", 2, 64))
                   for t in caps]
        assert all(res.minimizing_mode == 0 for res in results)
        vals = [res.value for res in results]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert vals[0] > 2.0          # sub-hemisphere regime
        assert vals[-1] < 0.5         # near-full sphere tends to zero

    def test_radial_eigenfunction_is_cosine(self):
        _, full = mode_eigenfunction(HEMI, 64, 0, "dirichlet_laplacian")
        theta = np.linspace(0, HEMI, 65)
        values = full[0::2]
        values = values / values[0]
        assert np.allclose(values, np.cos(theta), atol=1e-6)


class TestHemisphereEqualities:
    def test_p1_equals_four(self):
        val = solve_cap(CapProblem(HEMI, "p_problem", mode_max=4,
                                   radial_cells=96)).value
        assert val == pytest.approx(4.0, rel=1e-7)

    def test_q1_equals_two(self):
        val = solve_cap(CapProblem(HEMI, "q_problem", mode_max=4,
                                   radial_cells=96)).value
        assert val == pytest.approx(2.0, rel=1e-7)

    def test_minimizing_mode_is_radial(self):
        for kind in ("p_problem", "q_problem"):
            res = solve_cap(CapProblem(HEMI, kind, mode_max=6,
                                       radial_cells=64))
            assert res.minimizing_mode == 0

    def test_p_eigenfunction_matches_cosine_with_flat_rim(self):
        # cos(theta) solves the problem at the hemisphere; its second
        # derivative vanishes on the rim so the natural condition holds
        val, full = mode_eigenfunction(HEMI, 96, 0, "p_problem")
        assert val == pytest.approx(4.0, rel=1e-7)
        values = full[0::2] / full[0]
        theta = np.linspace(0, HEMI, 97)
        assert np.allclose(values, np.cos(theta), atol=1e-5)
        # second derivative at the rim from the last Hermite element
        h = HEMI / 96
        u0, s0 = full[-4] / full[0], full[-3] / full[0]
        u1, s1 = full[-2] / full[0], full[-1] / full[0]
        upp_rim = (6 * u0 + 2 * h * s0 - 6 * u1 + 4 * h * s1) / h ** 2
        assert abs(upp_rim) < 5e-4

    def test_equality_error_decays_at_least_quadratically(self):
        errors_p, errors_q = [], []
        for cells in (16, 32):
            errors_p.append(abs(solve_cap(CapProblem(HEMI, "p_problem", 2,
                                                     cells)).value - 4.0))
            errors_q.append(abs(solve_cap(CapProblem(HEMI, "q_problem", 2,
                                                     cells)).value - 2.0))
        assert errors_p[1] < errors_p[0] / 2 ** 1.8
        assert errors_q[1] < errors_q[0] / 2 ** 1.8


class TestStrictInequalities:
    def test_clamped_exceeds_n_lambda1(self):
        margins = []
        for cells in (64, 128):
            gam = solve_cap(CapProblem(HEMI, "clamped", 4, cells)).value
            res = solve_cap(CapProblem(HEMI, "dirichlet_laplacian", 4, cells))
            assert res.minimizing_mode == 0
            margins.append(gam - 2 * res.value)
        assert all(m > 1.0 for m in margins)
        assert abs(margins[0] - margins[1]) < 1e-4 * margins[0]

    def test_buckling_exceeds_n(self):
        vals = [solve_cap(CapProblem(HEMI, "buckling", 4, cells)).value
                for cells in (64, 128)]
        assert all(v > 2.0 + 1.0 for v in vals)
        assert abs(vals[0] - vals[1]) < 1e-6 * vals[0]

    def test_hemisphere_buckling_analytic_value(self):
        # P2(cos t) + 1/2 satisfies the clamped rim conditions and gives
        # the eigenvalue l(l+1) = 6 exactly
        val = solve_cap(CapProblem(HEMI, "buckling", 4, 96)).value
        assert val == pytest.approx(6.0, rel=1e-7)

    def test_buckling_dominates_membrane(self):
        for theta0 in (PI / 3, HEMI, 2.0):
            res = solve_cap(CapProblem(theta0, "dirichlet_laplacian", 4, 64))
            assert res.minimizing_mode == 0
            buck = solve_cap(CapProblem(theta0, "buckling", 4, 64)).value
            assert buck >= res.value - 1e-9


class TestSubHemisphere:
    def test_p_strictly_above_bound(self):
        for theta0 in (PI / 3, PI / 4):
            res = solve_cap(CapProblem(theta0, "dirichlet_laplacian", 4, 96))
            assert res.minimizing_mode == 0
            val = solve_cap(CapProblem(theta0, "p_problem", 4, 96)).value
            assert val > 2 * res.value * (1 + 1e-6)

    def test_q_strictly_above_two(self):
        val = solve_cap(CapProblem(PI / 3, "q_problem", 4, 96)).value
        assert val > 2.0 + 0.5


class TestFlatLimits:
    def test_clamped_disk_constant(self):
        # unit-disk clamped plate: first root of
        # J0(k) I1(k) + I0(k) J1(k) = 0, eigenvalue k^4
        import mpmath
        from conftest import bisect
        k = bisect(lambda t: float(mpmath.besselj(0, t) * mpmath.besseli(1, t)
                                   + mpmath.besseli(0, t)
                                   * mpmath.besselj(1, t)), 2.5, 3.8)
        disk = k ** 4
        assert disk == pytest.approx(104.3631, abs=2e-3)
        theta0 = 0.1
        gam = solve_cap(CapProblem(theta0, "clamped", 2, 128)).value
        assert theta0 ** 4 * gam == pytest.approx(disk, rel=5e-2)

    def test_buckling_disk_constant(self):
        import mpmath
        from conftest import bisect
        j11 = bisect(lambda t: float(mpmath.besselj(1, t)), 3.0, 4.5)
        disk = j11 ** 2
        assert disk == pytest.approx(14.682, abs=2e-3)
        theta0 = 0.1
        buck = solve_cap(CapProblem(theta0, "buckling", 2, 128)).value
        assert theta0 ** 2 * buck == pytest.approx(disk, rel=5e-2)


class TestModeCutoff:
    def test_minimum_stable_under_more_modes(self):
        for kind in ("clamped", "buckling", "p_problem", "q_problem"):
            few = solve_cap(CapProblem(HEMI, kind, mode_max=4,
                                       radial_cells=64)).value
            more = solve_cap(CapProblem(HEMI, kind, mode_max=8,
                                        radial_cells=64)).value
            assert more == pytest.approx(few, rel=1e-9)

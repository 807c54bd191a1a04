"""Spherical-cap eigenvalue tests.

Oracles: hemisphere Laplacian values are (m+1)(m+2) per azimuthal mode
(first admissible Legendre degree with a node on the equator); the
hemisphere equality cases are 4 and 2; the Dirichlet, buckling and
clamped values at any θ₀ come from Legendre functions of non-integer degree
(``oracles.s2_cap_first_eigenvalue``); flat-cap limits reduce to the unit
disk, whose constants come from Bessel characteristic equations evaluated
with mpmath.
"""

from collections import Counter
from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest

from elastica import cap1d, eigensolve
from elastica.cap1d import (_KIND_TABLE, CAP_KINDS, CapProblem,
                            _element_matrices, _kept_dofs,
                            build_mode_operator, prolongate,
                            rayleigh_quotient, solve_cap)
from elastica.eigensolve import banded_smallest, cholesky_banded
from elastica.harness import RunConfig, run_cap
from oracles import s2_cap_first_eigenvalue, to_dense

PI = np.pi
HEMI = PI / 2


def solve_kind(theta0, kind, mode_max, cells, start=None):
    """One kind's CapResult on the cap θ₀ with modes 0..mode_max at
    ``cells`` radial cells; ``start`` is its result at half the cells."""
    return solve_cap(CapProblem(theta0, mode_max, cells), [kind],
                     None if start is None else {kind: start})[kind]


def mode_eigenfunction(theta0, cells, m, kind):
    """(eigenvalue, full DOF vector) of mode m's first pair, from a solve
    of modes 0..m."""
    result = solve_kind(theta0, kind, m, cells)
    return result.per_mode[m], result.vectors[m]


def removed_dofs(op, cells):
    """The full DOFs a mode operator constrains to zero."""
    return np.setdiff1d(np.arange(2 * (cells + 1)), op.keep)


class TestProblemValidation:
    def test_angle_range(self):
        with pytest.raises(ValueError):
            CapProblem(0.0, 8, 64)
        with pytest.raises(ValueError):
            CapProblem(PI, 8, 64)

    def test_kind_checked(self):
        problem = CapProblem(1.0, 1, 16)
        with pytest.raises(ValueError, match="navier"):
            solve_cap(problem, ["clamped", "navier"])
        with pytest.raises(ValueError, match="navier"):
            build_mode_operator(1.0, 16, 0, "navier")

    def test_resolution_floor(self):
        with pytest.raises(ValueError):
            CapProblem(1.0, 8, 8)


class TestModeOperators:
    def test_weighted_symmetry_exact(self):
        for m in (0, 1, 2):
            op = build_mode_operator(1.2, 32, m, "clamped")
            for mat in (op.numerator, op.metric):
                dense = to_dense(mat)
                assert np.array_equal(dense, dense.T)

    def test_pole_constraints_by_mode(self):
        for m, pole in ((0, [1]), (1, [0]), (2, [0, 1])):
            for kind, rim in (("p_problem", [64]), ("clamped", [64, 65])):
                op = build_mode_operator(1.0, 32, m, kind)
                assert list(removed_dofs(op, 32)) == pole + rim, (m, kind)

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
                cut = np.ix_(op.keep, op.keep)
                num = rim if rim_corrected else dense[numerator]
                assert op.numerator.bandwidth == op.metric.bandwidth == 3
                assert np.array_equal(to_dense(op.numerator), num[cut])
                assert np.array_equal(to_dense(op.metric),
                                      dense[metric][cut])

    def test_metric_positive_definite(self):
        for kind in ("dirichlet_laplacian", "clamped", "p_problem"):
            op = build_mode_operator(2.0, 32, 1, kind)
            cholesky_banded(op.metric)  # raises if not SPD


class TestHemisphereLaplacian:
    def test_lambda1_is_two(self):
        res = solve_kind(HEMI, "dirichlet_laplacian", 4, 96)
        assert res.minimizing_mode == 0
        assert res.value == pytest.approx(2.0, rel=1e-9)

    def test_per_mode_legendre_ladder(self):
        res = solve_kind(HEMI, "dirichlet_laplacian", 4, 96)
        expected = [(m + 1) * (m + 2) for m in range(5)]
        assert np.allclose(res.per_mode, expected, rtol=1e-7)
        assert res.minimizing_mode == 0

    def test_domain_monotonicity(self):
        caps = [PI / 4, PI / 2, 2.0, 2.8]
        results = [solve_kind(t, "dirichlet_laplacian", 2, 64)
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
        val = solve_kind(HEMI, "p_problem", 4, 96).value
        assert val == pytest.approx(4.0, rel=1e-7)

    def test_q1_equals_two(self):
        val = solve_kind(HEMI, "q_problem", 4, 96).value
        assert val == pytest.approx(2.0, rel=1e-7)

    def test_minimizing_mode_is_radial(self):
        for kind in ("p_problem", "q_problem"):
            res = solve_kind(HEMI, kind, 6, 64)
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
            errors_p.append(abs(solve_kind(HEMI, "p_problem", 2,
                                           cells).value - 4.0))
            errors_q.append(abs(solve_kind(HEMI, "q_problem", 2,
                                           cells).value - 2.0))
        assert errors_p[1] < errors_p[0] / 2 ** 1.8
        assert errors_q[1] < errors_q[0] / 2 ** 1.8


class TestStrictInequalities:
    def test_clamped_exceeds_n_lambda1(self):
        margins = []
        for cells in (64, 128):
            gam = solve_kind(HEMI, "clamped", 4, cells).value
            res = solve_kind(HEMI, "dirichlet_laplacian", 4, cells)
            assert res.minimizing_mode == 0
            margins.append(gam - 2 * res.value)
        assert all(m > 1.0 for m in margins)
        assert abs(margins[0] - margins[1]) < 1e-4 * margins[0]

    def test_buckling_exceeds_n(self):
        vals = [solve_kind(HEMI, "buckling", 4, cells).value
                for cells in (64, 128)]
        assert all(v > 2.0 + 1.0 for v in vals)
        assert abs(vals[0] - vals[1]) < 1e-6 * vals[0]

    def test_hemisphere_buckling_analytic_value(self):
        # P2(cos t) + 1/2 satisfies the clamped rim conditions and gives
        # the eigenvalue l(l+1) = 6 exactly
        val = solve_kind(HEMI, "buckling", 4, 96).value
        assert val == pytest.approx(6.0, rel=1e-7)

    def test_buckling_dominates_membrane(self):
        for theta0 in (PI / 3, HEMI, 2.0):
            res = solve_kind(theta0, "dirichlet_laplacian", 4, 64)
            assert res.minimizing_mode == 0
            buck = solve_kind(theta0, "buckling", 4, 64).value
            assert buck >= res.value - 1e-9


class TestSubHemisphere:
    def test_p_strictly_above_bound(self):
        for theta0 in (PI / 3, PI / 4):
            res = solve_kind(theta0, "dirichlet_laplacian", 4, 96)
            assert res.minimizing_mode == 0
            val = solve_kind(theta0, "p_problem", 4, 96).value
            assert val > 2 * res.value * (1 + 1e-6)

    def test_q_strictly_above_two(self):
        val = solve_kind(PI / 3, "q_problem", 4, 96).value
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
        gam = solve_kind(theta0, "clamped", 2, 128).value
        assert theta0 ** 4 * gam == pytest.approx(disk, rel=5e-2)

    def test_buckling_disk_constant(self):
        import mpmath
        from conftest import bisect
        j11 = bisect(lambda t: float(mpmath.besselj(1, t)), 3.0, 4.5)
        disk = j11 ** 2
        assert disk == pytest.approx(14.682, abs=2e-3)
        theta0 = 0.1
        buck = solve_kind(theta0, "buckling", 2, 128).value
        assert theta0 ** 2 * buck == pytest.approx(disk, rel=5e-2)


class TestExactS2Values:
    """Dirichlet, buckling and clamped first eigenvalues against their
    exact values on S², at the four angles of the verdict matrix."""

    ANGLES = (PI / 4, 1.0, HEMI, 2.2)

    @pytest.mark.parametrize("kind", ["dirichlet_laplacian", "buckling",
                                      "clamped"])
    @pytest.mark.parametrize("theta0", ANGLES,
                             ids=["pi_4", "1", "pi_2", "2.2"])
    def test_ritz_value_bounds_exact_from_above(self, theta0, kind):
        # conforming elements: the computed value lies above the exact
        # one (by 2e-13 to 1e-11 relative for Dirichlet, 2e-8 to 1.2e-7
        # for buckling, 1.2e-8 to 3.2e-7 for clamped, at 32 cells), and the
        # radial mode 0, the one the oracle solves, is the minimiser
        exact = float(s2_cap_first_eigenvalue(theta0, kind))
        result = solve_kind(theta0, kind, 2, 32)
        assert result.minimizing_mode == 0
        assert result.value >= exact * (1.0 - 4 * np.finfo(float).eps)

    @pytest.mark.parametrize("theta0", ANGLES,
                             ids=["pi_4", "1", "pi_2", "2.2"])
    def test_reported_value_within_its_budget(self, theta0):
        # run_cap reports the fine Gram quotient, a conforming upper bound
        # up to quadrature, with |fine − coarse| as its budget; on the
        # hemisphere p₁ = 4 and q₁ = 2 are checked too
        cfg = replace(RunConfig(mode="cap"), theta0=theta0,
                      cap_kind="all", radial_cells=32, mode_max=2)
        provenance = run_cap(cfg).provenance
        exact = {kind: float(s2_cap_first_eigenvalue(theta0, kind))
                 for kind in ("dirichlet_laplacian", "buckling", "clamped")}
        if theta0 == HEMI:
            exact.update(p_problem=4.0, q_problem=2.0)
        for kind, value in exact.items():
            reported = provenance["values"][kind]
            assert reported >= value, kind
            assert reported - value <= provenance["budgets"][kind], kind

    def test_pinned_values(self):
        assert float(s2_cap_first_eigenvalue(1.0, "dirichlet_laplacian")) \
            == pytest.approx(5.44599327480263, rel=1e-14)
        assert float(s2_cap_first_eigenvalue(1.0, "buckling")) \
            == pytest.approx(14.6998790615736, rel=1e-14)
        assert float(s2_cap_first_eigenvalue(HEMI, "dirichlet_laplacian")) \
            == pytest.approx(2.0, rel=1e-14)
        assert float(s2_cap_first_eigenvalue(HEMI, "buckling")) \
            == pytest.approx(6.0, rel=1e-14)
        assert float(s2_cap_first_eigenvalue(1.0, "clamped")) \
            == pytest.approx(99.8350649840454, rel=1e-14)
        assert float(s2_cap_first_eigenvalue(HEMI, "clamped")) \
            == pytest.approx(15.3651267889046, rel=1e-14)


class TestModeCutoff:
    def test_minimum_stable_under_more_modes(self):
        for kind in ("clamped", "buckling", "p_problem", "q_problem"):
            few = solve_kind(HEMI, kind, 4, 64).value
            more = solve_kind(HEMI, kind, 8, 64).value
            assert more == pytest.approx(few, rel=1e-9)


class TestGramQuotient:
    @pytest.mark.parametrize("theta0", [HEMI, 1.0, 2.2])
    def test_matches_the_assembled_pencil(self, theta0):
        # oracle: xᵀ N x / xᵀ M x with the banded pencil, on random vectors
        # that meet each kind's constraints (coarse cells keep the pencil's
        # own rounding near 1e-12)
        rng = np.random.default_rng(3)
        for kind in CAP_KINDS:
            for m in range(4):
                op = build_mode_operator(theta0, 16, m, kind)
                x = rng.standard_normal(op.keep.size)
                full = np.zeros(2 * (16 + 1))
                full[op.keep] = x
                ref = (x @ op.numerator.matvec(x)) / (x @ op.metric.matvec(x))
                got = rayleigh_quotient(theta0, 16, m, kind, full)
                assert got == pytest.approx(ref, rel=1e-10), (kind, m)


# hemisphere first eigenvalues: λ₁, p₁, q₁ and the buckling value Λ₁
HEMISPHERE_EXACT = {"dirichlet_laplacian": 2.0, "p_problem": 4.0,
                    "q_problem": 2.0, "buckling": 6.0}


@pytest.fixture(scope="module")
def hemisphere_ladder():
    """(cold, warm) CapResult per (kind, cells) at 32..512 cells; each warm
    solve starts from the warm one at half the cells, as run_cap does."""
    out = {}
    for kind in HEMISPHERE_EXACT:
        warm = None
        for cells in (32, 64, 128, 256, 512):
            cold = solve_kind(HEMI, kind, 1, cells)
            warm = cold if warm is None else solve_kind(HEMI, kind, 1, cells,
                                                        start=warm)
            out[kind, cells] = cold, warm
    return out


class TestUpperBounds:
    def test_hemisphere_values_bound_from_above(self, hemisphere_ladder):
        # conforming Ritz values: the Gram quotient stays above the exact
        # value up to rounding, also at 256/512 cells where xᵀ S x / xᵀ W x
        # read up to 1e-7 below it
        eps = np.finfo(float).eps
        for (kind, cells), results in hemisphere_ladder.items():
            exact = HEMISPHERE_EXACT[kind]
            for res in results:
                assert res.value >= exact * (1 - 8 * eps), (kind, cells)

    def test_warm_start_changes_only_the_path(self, hemisphere_ladder):
        for (kind, cells), (cold, warm) in hemisphere_ladder.items():
            assert np.allclose(warm.per_mode, cold.per_mode, rtol=1e-8), \
                (kind, cells)


class TestWarmStart:
    def test_prolongation_reproduces_a_cubic(self):
        theta0, cells = 1.3, 16
        coef = np.array([0.7, -1.1, 0.4, 0.25])   # u = Σ coef_k θ^k

        def dofs(n):
            theta = np.linspace(0.0, theta0, n + 1)
            full = np.empty(2 * (n + 1))
            full[0::2] = np.polyval(coef[::-1], theta)
            full[1::2] = np.polyval(np.polyder(coef[::-1]), theta)
            return full

        fine = prolongate(dofs(cells), theta0)
        assert fine.shape == (2 * (2 * cells + 1),)
        assert np.allclose(fine, dofs(2 * cells), rtol=0, atol=1e-14)

    def test_prolongation_keeps_the_constraints(self):
        _, full = mode_eigenfunction(1.0, 16, 2, "clamped")
        fine = prolongate(full, 1.0)
        op = build_mode_operator(1.0, 32, 2, "clamped")
        assert np.all(fine[removed_dofs(op, 32)] == 0.0)

    @pytest.mark.parametrize("kind,m", [("q_problem", 0), ("buckling", 1)])
    def test_fewer_iterations(self, kind, m):
        # the values agree with a cold start (TestUpperBounds)
        _, coarse = mode_eigenfunction(HEMI, 128, m, kind)
        op = build_mode_operator(HEMI, 256, m, kind)
        factor = cholesky_banded(op.numerator)
        cold, warm = (banded_smallest(op.numerator, op.metric, factor,
                                      start=start).iterations
                      for start in (None, prolongate(coarse, HEMI)[op.keep,
                                                                   None]))
        assert warm < cold

    def test_start_must_be_the_half_resolution_problem(self):
        kinds = ["q_problem"]
        coarse = solve_cap(CapProblem(HEMI, 1, 16), kinds)
        # wrong cells, wrong θ₀, wrong mode_max, a kind the start lacks
        for problem, asked in ((CapProblem(HEMI, 1, 48), kinds),
                               (CapProblem(1.0, 1, 32), kinds),
                               (CapProblem(HEMI, 2, 32), kinds),
                               (CapProblem(HEMI, 1, 32),
                                ["q_problem", "p_problem"])):
            with pytest.raises(ValueError, match="half"):
                solve_cap(problem, asked, coarse)


class TestSharedSolve:
    """All kinds in one solve_cap share forms, masks and factors, and each
    result is bit for bit the one its kind gets alone."""

    @pytest.mark.parametrize("theta0", [1.0, HEMI], ids=["1", "pi_2"])
    def test_each_kind_as_if_solved_alone(self, theta0):
        # 16 cells cold, then 32 cells warm from them, as run_cap solves
        problem = CapProblem(theta0, 2, 16)
        coarse = solve_cap(problem, CAP_KINDS)
        fine = solve_cap(problem.refined(), CAP_KINDS, coarse)
        assert list(coarse) == list(fine) == list(CAP_KINDS)
        for kind in CAP_KINDS:
            alone = solve_kind(theta0, kind, 2, 16)
            pairs = ((coarse[kind], alone),
                     (fine[kind], solve_kind(theta0, kind, 2, 32, alone)))
            for (a, b), cells in zip(pairs, (16, 32)):
                assert a.problem == b.problem == CapProblem(theta0, 2, cells)
                assert np.array_equal(a.per_mode, b.per_mode), (kind, cells)
                assert np.array_equal(a.vectors, b.vectors), (kind, cells)
                assert a.minimizing_mode == b.minimizing_mode
                assert a.value == b.value

    def test_one_factor_per_stiffness_and_one_form_set_per_mode(
            self, monkeypatch):
        # mode_max = 2 at 16/32 cells: 3 modes × 2 resolutions; 3
        # stiffnesses per mode (A, clamped S, rim-corrected S) for 5 kinds
        calls = Counter()

        def counting(name, inner):
            def count(*args, **kwargs):
                calls[name] += 1
                return inner(*args, **kwargs)
            return count

        monkeypatch.setattr(eigensolve, "cholesky_banded", counting(
            "cholesky_banded", eigensolve.cholesky_banded))
        for name in ("build_mode_operator", "banded_smallest"):
            monkeypatch.setattr(cap1d, name,
                                counting(name, getattr(cap1d, name)))
        # a fresh one-entry cache around each cached builder, so only this
        # run's misses count
        for name in ("_gauss_points", "_element_matrices", "_kept_dofs"):
            monkeypatch.setattr(cap1d, name, lru_cache(maxsize=1)(
                counting(name, getattr(cap1d, name).__wrapped__)))
        run_cap(replace(RunConfig(mode="cap"), radial_cells=16, mode_max=2))
        assert calls == {"cholesky_banded": 18, "build_mode_operator": 30,
                         "banded_smallest": 30, "_gauss_points": 2,
                         "_element_matrices": 6, "_kept_dofs": 6}

    def test_cached_forms_and_masks_are_read_only(self):
        # the rim correction goes into the scattered band of each p/q
        # pencil, never into the forms the mode's other kinds read
        forms = _element_matrices(1.0, 16, 2)
        rim = forms["S"][-1, 3, 3]
        build_mode_operator(1.0, 16, 2, "p_problem")
        assert forms["S"][-1, 3, 3] == rim
        with pytest.raises(ValueError, match="read-only"):
            forms["S"][-1, 3, 3] -= 1.0
        with pytest.raises(TypeError):
            forms["S"] = forms["W"]
        for keep in _kept_dofs(16, 2):
            with pytest.raises(ValueError, match="read-only"):
                keep[0] = 0

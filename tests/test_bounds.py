"""Formula-level tests for the eigenvalue bound toolkit.

Expected values were computed with the independent oracles defined here
(bisection, dense root scans, brute-force inequality evaluation) and then
frozen.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from elastica import bounds
from elastica.bounds import (BoundRecord, DegenerateGapError, DomainGeometry,
                             Spectrum, SpectrumError, VerifyTolerance,
                             alpha_threshold, average_upper, blend_weight,
                             cheng_yang_sum, chebyshev_sum_check,
                             coupling_coefficient, evaluate_all, gap_upper,
                             hook_sum_ratio, index_growth_upper,
                             levine_protter_lower, levitin_parnovski_gap,
                             low_order_sides, make_record,
                             sphere_surface_measure,
                             yang_coefficient, yang_type_next_upper,
                             yang_type_quadratic)
from conftest import bisect


def spectrum(values, n=2, alpha=0.0):
    return Spectrum(n, alpha, np.asarray(values, dtype=float))


class TestThresholdAndCoefficients:
    def test_threshold_closed_form_values(self):
        assert alpha_threshold(1) == pytest.approx(4.0, abs=0)  # sqrt(25)=5
        assert alpha_threshold(2) == pytest.approx(2 + 2 * math.sqrt(2),
                                                   rel=1e-15)
        assert alpha_threshold(3) == pytest.approx((5 + math.sqrt(41)) / 2,
                                                   rel=1e-15)

    @pytest.mark.parametrize("n", [1, 2, 3, 7])
    def test_threshold_is_root_of_branch_quadratic(self, n):
        # oracle: bisection on a^2 - (n+2)a - 4 = 0
        root = bisect(lambda a: a * a - (n + 2) * a - 4, 0.0, 50.0)
        assert alpha_threshold(n) == pytest.approx(root, rel=1e-12)

    def test_blend_weight_values(self):
        assert blend_weight(2, 0.0) == 1.0
        assert blend_weight(3, 1.0) == pytest.approx(1.125, abs=0)
        assert blend_weight(2, 4.0) == pytest.approx(1.0 / 9.0, rel=1e-15)

    def test_blend_weight_rejects_wrong_branch(self):
        with pytest.raises(ValueError):
            blend_weight(2, alpha_threshold(2) + 1e-9)

    def test_coupling_coefficient_branches(self):
        assert coupling_coefficient(2, 0.0) == pytest.approx(4.0, abs=0)
        assert coupling_coefficient(2, 10.0) == pytest.approx(104.0, abs=0)
        # at the branch point both expressions give 8 + 4*alpha = 16 + 8*sqrt(2)
        star = alpha_threshold(2)
        both = 16 + 8 * math.sqrt(2)
        assert coupling_coefficient(2, star) == pytest.approx(both, rel=1e-14)
        assert 4 + star ** 2 == pytest.approx(both, rel=1e-14)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_branch_continuity(self, n):
        star = alpha_threshold(n)
        eps = 1e-9
        below = coupling_coefficient(n, star - eps)
        above = coupling_coefficient(n, star + eps)
        assert abs(below - above) < 1e-6 * above

    @pytest.mark.parametrize("n", range(1, 11))
    def test_yang_reduction_exact(self, n):
        assert yang_coefficient(n, 0.0) == 4.0 / n

    def test_yang_coefficient_values(self):
        assert yang_coefficient(2, 0.0) == 2.0
        assert yang_coefficient(2, 10.0) == pytest.approx(104.0 / 12.0,
                                                          rel=1e-15)
        assert yang_coefficient(3, 1.0) == pytest.approx(26.0 / 17.0,
                                                         rel=1e-14)

    def test_dominance_on_grid(self):
        # never weaker than the max-form gap coefficient or the plain 4(n+a)/n^2
        for n in range(1, 11):
            for alpha in np.arange(0.0, 50.01, 0.5):
                c = yang_coefficient(n, alpha)
                assert c <= 4 * (n + alpha) / n ** 2
                big = max(4 + alpha ** 2, (n + 2) * alpha + 8)
                assert c * (n + alpha) <= big * (1 + 1e-15)


class TestUpperBounds:
    def test_next_upper_k1_factorisation(self):
        s = spectrum([3.0])
        c = yang_coefficient(2, 0.0)
        assert yang_type_next_upper(s, 1) == pytest.approx((1 + c) * 3.0,
                                                           rel=1e-14)

    def test_next_upper_equal_eigenvalues(self):
        # 2x^2 - 16x + 24 = 0 -> largest root 6
        assert yang_type_next_upper(spectrum([2.0, 2.0]), 2) == \
            pytest.approx(6.0, rel=1e-14)

    def test_next_upper_scan_oracle(self):
        # oracle: locate the sign change of the quadratic by dense scan
        s = spectrum([2.0, 5.0])
        c = yang_coefficient(2, 0.0)

        def quad(x):
            sig = s.values[:2]
            return 2 * x ** 2 - (2 + c) * sig.sum() * x \
                + (1 + c) * (sig ** 2).sum()

        grid = np.linspace(5.0, 50.0, 200001)
        signs = np.sign(quad(grid))
        idx = np.flatnonzero(np.diff(signs) > 0)[-1]
        root = bisect(quad, grid[idx], grid[idx + 1])
        expected = (28 + math.sqrt(88)) / 4
        assert root == pytest.approx(expected, rel=1e-10)
        assert yang_type_next_upper(s, 2) == pytest.approx(expected,
                                                           rel=1e-14)

    def test_next_upper_rejects_inconsistent_spectrum(self):
        # a wildly growing artificial sequence makes the discriminant negative
        bad = Spectrum(2, 0.0, np.array([1.0, 100.0]))
        with pytest.raises(SpectrumError, match="k=2"):
            yang_type_next_upper(bad, 2)

    def test_average_upper_values(self):
        assert average_upper(spectrum([2.0]), 1) == pytest.approx(6.0)
        assert average_upper(spectrum([2.0, 2.0, 5.0]), 3) == \
            pytest.approx(9.0, rel=1e-15)

    def test_average_dominates_quadratic_root(self, rng):
        checked = 0
        for _ in range(300):
            k = int(rng.integers(1, 9))
            vals = np.sort(rng.uniform(0.1, 10.0, size=k))
            s = spectrum(vals, n=int(rng.integers(1, 5)),
                         alpha=float(rng.uniform(0, 20)))
            try:
                root = yang_type_next_upper(s, k)
            except SpectrumError:
                continue  # random sequence too spread to be a spectrum
            checked += 1
            assert root <= average_upper(s, k) * (1 + 1e-12)
        assert checked > 100

    def test_gap_upper_values(self):
        assert gap_upper(spectrum([2.0]), 1) == pytest.approx(4.0)
        assert gap_upper(spectrum([2.0, 5.0]), 2) == pytest.approx(7.0)
        assert gap_upper(spectrum([1.0], alpha=10.0), 1) == \
            pytest.approx(104.0 / 12.0, rel=1e-14)

    def test_levitin_parnovski_values(self):
        assert levitin_parnovski_gap(spectrum([2.0]), 1) == pytest.approx(8.0)
        assert levitin_parnovski_gap(spectrum([1.0], alpha=10.0), 1) == \
            pytest.approx(104.0 / 12.0, rel=1e-14)

    def test_gap_bound_never_weaker_than_max_form(self):
        # the minimised coefficient strengthens the max-form gap bound
        for n in range(1, 11):
            for alpha in np.linspace(0.0, 50.0, 101):
                s = spectrum([1.0, 2.0], n=n, alpha=float(alpha))
                assert gap_upper(s, 1) <= \
                    levitin_parnovski_gap(s, 1) * (1 + 1e-15)

    def test_index_growth_values(self):
        assert index_growth_upper(2.0, 2, 0.0, 4) == pytest.approx(24.0)
        assert index_growth_upper(1.0, 2, 2.0, 2) == pytest.approx(20.0)
        # k = 1 never undercuts the averaged bound there
        s = spectrum([3.0], n=3, alpha=1.5)
        assert index_growth_upper(3.0, 3, 1.5, 1) >= average_upper(s, 1)


class TestRatioAndLowerBounds:
    def test_hook_equality_instance(self):
        lhs, rhs = hook_sum_ratio(spectrum([2.0, 6.0]), 1)
        assert lhs == pytest.approx(0.5)
        assert rhs == pytest.approx(0.5)

    def test_hook_values(self):
        lhs, rhs = hook_sum_ratio(spectrum([2.0, 2.0, 5.0]), 2)
        assert lhs == pytest.approx(4.0 / 3.0, rel=1e-15)
        assert rhs == pytest.approx(1.0)
        lhs, rhs = hook_sum_ratio(spectrum([1.0, 1.1], n=3, alpha=5.0), 1)
        assert lhs == pytest.approx(10.0, rel=1e-12)
        assert rhs == pytest.approx(9.0 / 32.0, rel=1e-15)

    def test_hook_degenerate_gap(self):
        with pytest.raises(DegenerateGapError):
            hook_sum_ratio(spectrum([2.0, 2.0]), 1)

    def test_sphere_surface_measures(self):
        assert sphere_surface_measure(2) == pytest.approx(2 * math.pi,
                                                          rel=1e-15)
        assert sphere_surface_measure(3) == pytest.approx(4 * math.pi,
                                                          rel=1e-15)
        # log-gamma path stays finite far out
        assert 0 < sphere_surface_measure(50) < 1.0

    def test_levine_protter_square_box(self):
        geom = DomainGeometry(2, math.pi ** 2)
        assert levine_protter_lower(geom, 1) == pytest.approx(1 / math.pi,
                                                              rel=1e-15)
        # computed sigma_1 = 2 at alpha = 0 satisfies it comfortably
        assert levine_protter_lower(geom, 1) < 2.0
        assert levine_protter_lower(geom, 15) == \
            pytest.approx(15 ** 2 / math.pi, rel=1e-15)

    @staticmethod
    def low_order_record(s):
        return next(r for r in evaluate_all(s, 1) if r.name == "low_order")

    def test_low_order_check(self):
        rec = self.low_order_record(spectrum([2.0, 5.0, 5.0]))
        assert rec.bound_value == pytest.approx(12.0)
        assert rec.measured_value == pytest.approx(10.0)
        assert rec.verdict == "pass"
        rec = self.low_order_record(spectrum([1.0, 1.0, 1.0]))
        assert rec.verdict == "pass" and rec.bound_value == 6.0
        rec = self.low_order_record(spectrum([1.0, 1.0, 1.0], alpha=1.0))
        assert rec.bound_value == pytest.approx(10.0)

    def test_low_order_needs_enough_values(self):
        with pytest.raises(SpectrumError):
            low_order_sides(spectrum([1.0, 2.0], n=3))


class TestChebyshevSum:
    def test_known_instance(self):
        lhs, rhs = chebyshev_sum_check([2.0, 1.0], [1.0, 2.0], 2.0)
        assert lhs == 30.0 and rhs == 36.0

    def test_k1_and_constant_equality(self):
        lhs, rhs = chebyshev_sum_check([3.0], [7.0], 1.5)
        assert lhs == rhs
        lhs, rhs = chebyshev_sum_check([1.0] * 5, [1.0, 2, 3, 4, 5], 3.0)
        assert lhs == pytest.approx(rhs, rel=1e-15)

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            chebyshev_sum_check([1.0, 2.0], [1.0, 2.0], 2.0)
        with pytest.raises(ValueError):
            chebyshev_sum_check([2.0, 1.0], [2.0, 1.0], 2.0)

    @given(st.lists(st.floats(0.0, 100.0), min_size=1, max_size=12),
           st.lists(st.floats(0.0, 100.0), min_size=1, max_size=12),
           st.sampled_from([1.0, 1.5, 2.0, 3.0]))
    @settings(max_examples=200, deadline=None)
    def test_holds_on_sorted_sequences(self, a, b, s):
        k = min(len(a), len(b))
        a = np.sort(np.asarray(a[:k]))[::-1]
        b = np.sort(np.asarray(b[:k]))
        lhs, rhs = chebyshev_sum_check(a, b, s)
        assert lhs <= rhs + 1e-12 * max(rhs, 1.0)


class TestChengYangRounding:
    """Rounding-level gaps of a degenerate pair count as exact zeros."""

    def test_bounds_reproducible_across_degenerate_pair_rounding(self):
        # the α = 0 square spectrum 2, 2, 5, 5, 5, 5, 8, 8, …, and a copy
        # whose last 5 sits 8e-15 higher, as two solves may round it
        from elastica.assembly import reference_spectrum_alpha0
        exact = reference_spectrum_alpha0((math.pi, math.pi), 16)
        rounded = exact.copy()
        rounded[5] *= 1.0 + 8e-15
        for k in range(1, 16):
            a = cheng_yang_sum(spectrum(exact), k)[1]
            b = cheng_yang_sum(spectrum(rounded), k)[1]
            assert abs(a - b) <= 1e-12 * a, k

    def test_real_gaps_keep_their_roots(self):
        # a gap of 1e-3 relative is no rounding, so rhs keeps its √ term
        lhs, rhs = cheng_yang_sum(spectrum([1.0, 1.001]), 1)
        assert lhs == pytest.approx(1e-3, rel=1e-9)
        assert rhs == pytest.approx(math.sqrt(2.0) * math.sqrt(1e-3),
                                    rel=1e-9)

    def test_rounding_gap_is_a_tie_on_both_sides(self):
        # σ₂ − σ₁ at 4e-15 relative reads as the exact tie σ₁ = σ₂, so the
        # record compares 0 with 0 rather than 2e-15 with a √ε bound
        values = [2.0, 2.0 * (1.0 + 4e-15), 5.0]
        assert cheng_yang_sum(spectrum(values), 1) == (0.0, 0.0)
        assert cheng_yang_sum(spectrum([2.0, 2.0, 5.0]), 1) == (0.0, 0.0)

    def test_yang_quadratic_reads_rounding_gap_as_tie(self):
        # σ₂ = σ₁(1 + ε) is the exact tie σ₁ = σ₂ to the quadratic form too
        eps = np.finfo(float).eps
        assert yang_type_quadratic(spectrum([2.0, 2.0 * (1.0 + eps), 5.0]),
                                   1) == (0.0, 0.0)


class TestSpectrumValidation:
    def test_rejects_unsorted_and_nonpositive(self):
        with pytest.raises(SpectrumError):
            Spectrum(2, 0.0, np.array([2.0, 1.0]))
        with pytest.raises(SpectrumError):
            Spectrum(2, 0.0, np.array([0.0, 1.0]))
        with pytest.raises(SpectrumError):
            Spectrum(0, 0.0, np.array([1.0]))
        with pytest.raises(SpectrumError):
            Spectrum(2, -0.5, np.array([1.0]))

    @pytest.mark.parametrize("alpha,values,residuals", [
        (0.0, [1.0, np.inf], None),
        (0.0, [1.0, np.nan], None),
        (np.inf, [1.0, 2.0], None),
        (np.nan, [1.0, 2.0], None),
        (0.0, [1.0, 2.0], [1e-10, np.nan]),
        (0.0, [1.0, 2.0], [np.inf, 1e-10]),
        (0.0, [1.0, 2.0], [-1e-10, 1e-10]),
    ], ids=["inf_value", "nan_value", "inf_alpha", "nan_alpha",
            "nan_residual", "inf_residual", "negative_residual"])
    def test_rejects_non_finite(self, alpha, values, residuals):
        with pytest.raises(SpectrumError):
            Spectrum(2, alpha, np.array(values), residuals=residuals)

    @pytest.mark.parametrize("alpha", [0.0, 2.0, 1e4])
    @pytest.mark.parametrize("n", [2, 3])
    def test_largest_accepted_values_keep_records_finite(self, n, alpha):
        count = 16
        top = bounds.SUM_LIMIT / ((6.0 + 4.0 * alpha) * count)
        values = top * (1 - 1e-12) * np.linspace(0.1, 1.0, count)
        records = evaluate_all(spectrum(values, n=n, alpha=alpha), count - 1,
                               DomainGeometry(n, 1.0))
        assert all(np.isfinite([r.bound_value, r.measured_value, r.slack])
                   .all() for r in records if r.verdict != "skip")
        with pytest.raises(SpectrumError, match="bound sums would overflow"):
            spectrum(values * (1 + 1e-9), n=n, alpha=alpha)

    def test_residual_contract(self):
        Spectrum(2, 0.0, np.array([1.0, 2.0]), source="computed",
                 residuals=np.array([1e-10, 1e-10]), solver_tol=1e-8)
        with pytest.raises(SpectrumError):
            Spectrum(2, 0.0, np.array([1.0, 2.0]), source="computed",
                     residuals=np.array([1e-6, 1e-10]), solver_tol=1e-8)


def sorted_spectra(draw):
    n = draw(st.integers(1, 4))
    alpha = draw(st.floats(0.0, 25.0))
    k = draw(st.integers(1, 10))
    base = draw(st.lists(st.floats(0.01, 50.0), min_size=k + 1,
                         max_size=k + 1))
    vals = np.sort(np.asarray(base))
    return Spectrum(n, alpha, vals), k


spectra_strategy = st.composite(sorted_spectra)()


class TestProperties:
    def test_next_upper_monotone_on_lattice_spectra(self, rng):
        # monotone under perturbation of genuine spectra; arbitrary
        # sequences near the consistency boundary admit counterexamples
        # (see test_monotonicity_boundary_counterexample)
        from elastica.assembly import reference_spectrum_alpha0
        for _ in range(300):
            n = int(rng.integers(2, 4))
            edges = tuple(rng.uniform(0.5, 3.0, size=n))
            vals = reference_spectrum_alpha0(edges, 14) \
                * rng.uniform(0.2, 5.0)
            alpha = float(rng.uniform(0.0, 10.0))
            k = int(rng.integers(1, 13))
            base = yang_type_next_upper(Spectrum(n, alpha, vals), k)
            i = int(rng.integers(0, k))
            bumped = vals.copy()
            bumped[i] *= 1.001
            bumped = np.sort(bumped)
            assert yang_type_next_upper(Spectrum(n, alpha, bumped), k) >= \
                base * (1 - 1e-12)

    def test_monotonicity_boundary_counterexample(self):
        # the root is NOT monotone for sequences whose top entry sits close
        # to the bound itself: the derivative flips sign once
        # sigma_k > (2+C) x+ / (2(1+C)); such sequences pass prefix
        # consistency but do not arise as actual spectra in our runs
        vals = np.array([2.76659659, 4.71368702, 8.67012158, 13.546667])
        n, alpha = 3, 2.366061697766446
        base = yang_type_next_upper(Spectrum(n, alpha, vals), 4)
        bumped = vals.copy()
        bumped[3] *= 1.001
        assert yang_type_next_upper(Spectrum(n, alpha, bumped), 4) < base

    @given(spectra_strategy)
    @settings(max_examples=150, deadline=None)
    def test_k1_consistency(self, case):
        s, _ = case
        c = yang_coefficient(s.dim, s.alpha)
        expected = (1 + c) * s.values[0]
        assert yang_type_next_upper(s, 1) == pytest.approx(expected,
                                                           rel=1e-12)
        assert average_upper(s, 1) == pytest.approx(expected, rel=1e-12)

    @given(spectra_strategy)
    @settings(max_examples=200, deadline=None)
    def test_quadratic_implies_cheng_yang(self, case):
        # the minimised-coefficient inequality pushes through the
        # Chebyshev-sum chain to the square-root form
        s, k = case
        d = s.values[k] - s.values[:k]
        assume(np.all(d > 0))
        lhs = float(np.sum(d ** 2))
        plain = 4 * (s.dim + s.alpha) / s.dim ** 2 * float(
            np.sum(d * s.values[:k]))
        assume(lhs <= plain)
        cy_lhs, cy_rhs = cheng_yang_sum(s, k)
        assert cy_lhs <= cy_rhs * (1 + 1e-10)

    @given(spectra_strategy)
    @settings(max_examples=100, deadline=None)
    def test_chain_instances_match_lemma(self, case):
        # the two substitutions used to chain the inequalities
        s, k = case
        d = s.values[k] - s.values[:k]
        assume(np.all(d > 0))
        a = np.sqrt(d)[::1]
        order = np.argsort(-a, kind="stable")
        a_sorted = a[order]
        b_sorted = s.values[:k][order]
        assume(np.all(np.diff(b_sorted) >= 0))
        lhs, rhs = chebyshev_sum_check(a_sorted, b_sorted, 2.0)
        assert lhs <= rhs + 1e-12 * max(rhs, 1.0)
        lhs, rhs = chebyshev_sum_check(a_sorted, np.ones(k), 3.0)
        assert lhs <= rhs + 1e-12 * max(rhs, 1.0)


class TestEvaluateAll:
    def test_linear_spectrum_all_upper_pass(self):
        s = spectrum(np.arange(1.0, 8.0))
        records = evaluate_all(s, 5)
        for rec in records:
            assert rec.verdict in ("pass", "skip"), (rec.name, rec.k)

    def test_square_box_spectrum_passes(self):
        vals = [2, 2, 5, 5, 5, 5, 8, 8, 10, 10, 10, 10]
        s = spectrum(np.array(vals, dtype=float))
        geom = DomainGeometry(2, math.pi ** 2)
        records = evaluate_all(s, 8, geometry=geom)
        assert all(r.verdict in ("pass", "skip") for r in records)
        hooks = [r for r in records if r.name == "hook_sum_ratio"]
        # degenerate consecutive duplicates must be skips, not failures
        assert any(r.verdict == "skip" for r in hooks)

    def test_corrupted_spectrum_fails_first_gap(self):
        s = spectrum([1.0, 100.0])
        records = evaluate_all(s, 1)
        failing = {r.name for r in records if r.verdict == "fail"}
        assert "next_upper" in failing
        assert "average_upper" in failing

    def test_needs_enough_eigenvalues(self):
        with pytest.raises(SpectrumError):
            evaluate_all(spectrum([1.0, 2.0]), 5)

    def test_counts_and_low_order_once(self):
        s = spectrum(np.arange(1.0, 12.0), n=2)
        records = evaluate_all(s, 4)
        assert sum(r.name == "low_order" for r in records) == 1
        per_k = sum(r.name == "yang_quadratic" for r in records)
        assert per_k == 4

    def test_low_order_judged_once(self, monkeypatch):
        judged = []

        def counting(name, *args):
            judged.append(name)
            return make_record(name, *args)

        monkeypatch.setattr(bounds, "make_record", counting)
        evaluate_all(spectrum(np.arange(1.0, 6.0)), 3)
        assert judged.count("low_order") == 1

    def test_marginal_band(self):
        tol = VerifyTolerance(rel=1e-2)
        s = spectrum([1.0, 3.02])  # bound (1+2)*1 = 3 < 3.02, within 1% band
        records = evaluate_all(s, 1, tolerance=tol)
        nxt = [r for r in records if r.name == "next_upper"][0]
        assert nxt.verdict == "marginal"

    def test_band_covers_sigma_k_plus_1_only_where_named(self):
        tol = VerifyTolerance(per_index_rel=np.array([0, 0, 0, 0.5, 0]))
        assert tol.band(4, 1.0) == 0.5
        assert tol.band(3, 1.0) == 1e-9

    def test_low_order_band_stops_at_sigma_n_plus_1(self):
        # slack -0.02 with zero budget on sigma_1..sigma_3; sigma_4's
        # budget does not enter sigma_2 + sigma_3 <= 6 sigma_1
        s = spectrum([1.0, 3.0, 3.02, 4.0, 5.0])
        tol = VerifyTolerance(per_index_rel=np.array([0, 0, 0, 0.5, 0]))
        records = evaluate_all(s, 3, tolerance=tol)
        low = [r for r in records if r.name == "low_order"][0]
        assert (low.k, low.slack) == (3, pytest.approx(-0.02))
        assert low.verdict == "fail"
        upper = [r for r in records if r.name == "average_upper"][-1]
        assert (upper.k, upper.verdict) == (3, "pass")

    def test_index_growth_past_double_range_is_a_skip(self):
        # at α = 1000 the bound is 1003·k^501·σ₁: 4^501 ≈ 1e302, 5^501
        # overflows
        records = evaluate_all(spectrum(np.arange(1.0, 17.0), alpha=1000.0),
                               15)
        growth = [r for r in records if r.name == "index_growth"]
        assert [r.verdict for r in growth] == ["pass"] * 4 + ["skip"] * 11
        assert growth[4].note == "index-growth bound overflows at k = 5"

    def test_levine_protter_band_stops_at_sigma_k(self):
        s = spectrum([0.3, 1.0, 1.0, 2.0])
        tol = VerifyTolerance(per_index_rel=np.array([0, 0.5, 0, 0]))
        records = evaluate_all(s, 1, DomainGeometry(2, math.pi ** 2),
                               tol)
        lp = [r for r in records if r.name == "levine_protter_sum"][0]
        assert (lp.k, lp.slack) == (1, pytest.approx(0.3 - 1 / math.pi))
        assert lp.verdict == "fail"


# (name, kind, note) of the records evaluate_all writes for each k, in
# order; levine_protter_sum needs the geometry
BOX_PER_K_LAYOUT = [
    ("yang_quadratic", "quadratic_form", ""),
    ("cheng_yang", "quadratic_form", ""),
    ("next_upper", "upper_next", ""),
    ("average_upper", "upper_next", ""),
    ("gap_upper", "gap", ""),
    ("levitin_parnovski_gap", "gap", ""),
    ("hook_sum_ratio", "sum_ratio", ""),
    ("levine_protter_sum", "lower_sum", ""),
    ("index_growth", "index_growth", "conservative constant"),
]
# leading α = 0 eigenvalues of the (0, π)^n box, each once per component
BOX_SPECTRA = {2: [2.0, 2.0, 5.0, 5.0, 5.0], 3: [3.0, 3.0, 3.0, 6.0, 6.0]}


def expected_box_layout(values, n, k_max, with_geometry):
    """(name, kind, k, note, skipped) of each record evaluate_all writes."""
    out = []
    for k in range(1, k_max + 1):
        for name, kind, note in BOX_PER_K_LAYOUT:
            if name == "levine_protter_sum" and not with_geometry:
                continue
            # σ_{k+1} = σ_k leaves Hook's ratio undefined
            skipped = name == "hook_sum_ratio" and values[k] == values[k - 1]
            if skipped:
                note = (f"sigma_{k + 1} equals sigma_{k} within tolerance; "
                        "ratio undefined")
            out.append((name, kind, k, note, skipped))
    skipped = len(values) < n + 1
    note = (f"low-order bound needs {n + 1} eigenvalues, have {len(values)}"
            if skipped else "")
    out.append(("low_order", "low_order", n + 1, note, skipped))
    return out


class TestBoxRecordLayout:
    @pytest.mark.parametrize("k_max", [1, 4])
    @pytest.mark.parametrize("with_geometry", [False, True],
                             ids=["no_geometry", "geometry"])
    @pytest.mark.parametrize("n", [2, 3])
    def test_names_kinds_order_and_notes(self, n, with_geometry, k_max):
        values = BOX_SPECTRA[n][:k_max + 1]
        geometry = DomainGeometry(n, math.pi ** n) if with_geometry \
            else None
        records = evaluate_all(spectrum(values, n=n), k_max, geometry)
        assert [(r.name, r.kind, r.k, r.note, r.verdict == "skip")
                for r in records] \
            == expected_box_layout(values, n, k_max, with_geometry)


class TestMakeRecord:
    """The verdict rule at its edges, with bound 3 and band 0.5 exact."""

    @pytest.mark.parametrize("sense,measured,slack,verdict", [
        ("upper", 3.0, 0.0, "pass"),
        ("upper", 3.5, -0.5, "marginal"),
        ("upper", math.nextafter(3.5, 4.0), None, "fail"),
        ("lower", 3.0, 0.0, "pass"),
        ("lower", 2.5, -0.5, "marginal"),
        ("lower", math.nextafter(2.5, 2.0), None, "fail"),
        ("strict lower", 3.0, 0.0, "marginal"),
        ("strict lower", 3.5, 0.5, "marginal"),
        ("strict lower", math.nextafter(3.5, 4.0), None, "pass"),
        ("strict lower", 2.5, -0.5, "marginal"),
        ("strict lower", math.nextafter(2.5, 2.0), None, "fail"),
        ("equality", 3.5, 0.0, "pass"),
        ("equality", 2.5, 0.0, "pass"),
        ("equality", 4.0, -0.5, "marginal"),
        ("equality", 2.0, -0.5, "marginal"),
        ("equality", math.nextafter(4.0, 5.0), None, "fail"),
    ])
    def test_edges(self, sense, measured, slack, verdict):
        rec = make_record("r", "kind", 1, 3.0, measured, 0.5, sense, "n")
        assert rec == BoundRecord("r", "kind", 1, 3.0, measured, rec.slack,
                                  verdict, "n")
        if slack is not None:
            assert rec.slack == slack

    def test_unknown_sense_rejected(self):
        with pytest.raises(ValueError, match="unknown sense"):
            make_record("r", "kind", 1, 3.0, 3.0, 0.5, "strict upper")

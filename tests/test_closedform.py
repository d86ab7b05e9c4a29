import warnings

import numpy as np
import pytest

from ctq import closedform, measures
from ctq.exceptions import (
    BadDimension,
    BadExponent,
    FidelityBelowSeparableBoundary,
    FidelityOutOfRange,
    GridTooCoarse,
    InfeasibleConstraint,
    ParameterOutOfRange,
)


def zeta(F, q, d, normalized=True):
    return closedform.zeta_isotropic(F, q, d, normalized=normalized)


class TestChiSigma:
    def test_uniform_at_full_fidelity(self):
        for d in (2, 3, 4):
            p = closedform.chi_sigma(1.0, d)
            assert p.chi == pytest.approx(1 / np.sqrt(d), abs=1e-12)
            assert p.sigma == pytest.approx(1 / np.sqrt(d), abs=1e-12)

    def test_product_boundary(self):
        for d in (2, 3, 5):
            p = closedform.chi_sigma(1.0 / d, d)
            assert p.chi == pytest.approx(1.0, abs=1e-12)
            assert p.sigma == pytest.approx(0.0, abs=1e-12)

    def test_d2_example(self):
        p = closedform.chi_sigma(0.8, 2)
        assert p.chi == pytest.approx((np.sqrt(0.8) + np.sqrt(0.2)) / np.sqrt(2), abs=1e-14)
        assert p.sigma == pytest.approx((np.sqrt(0.8) - np.sqrt(0.2)) / np.sqrt(2), abs=1e-14)
        assert p.chi**2 + p.sigma**2 == pytest.approx(1.0, abs=1e-12)

    def test_constraints(self, rng):
        for _ in range(50):
            d = int(rng.integers(2, 6))
            F = 1.0 / d + (1 - 1.0 / d) * rng.random()
            p = closedform.chi_sigma(F, d)
            assert p.chi**2 + (d - 1) * p.sigma**2 == pytest.approx(1.0, abs=1e-10)
            assert p.chi + (d - 1) * p.sigma == pytest.approx(np.sqrt(F * d), abs=1e-10)
            assert 0 <= p.sigma <= p.chi <= 1

    def test_below_boundary_raises(self):
        with pytest.raises(FidelityBelowSeparableBoundary):
            closedform.chi_sigma(0.2, 3)


class TestZetaIsotropic:
    def test_full_fidelity_attains_max(self):
        for d, q in ((2, 2), (3, 3), (4, 2.5)):
            assert zeta(1.0, q, d) == pytest.approx(1.0, abs=1e-12)
            assert zeta(1.0, q, d, normalized=False) == pytest.approx(
                measures.normalization_mu(d, q), abs=1e-12
            )

    def test_zero_below_boundary(self):
        assert zeta(0.3, 3, 2) == 0.0
        assert zeta(1 / 3, 4, 3) == 0.0

    def test_d2_q3_closed_form(self):
        for F in np.linspace(0.51, 1.0, 25):
            assert zeta(F, 3, 2) == pytest.approx((2 * F - 1) ** 2, abs=1e-13)

    def test_d2_q4_closed_form(self):
        for F in np.linspace(0.51, 1.0, 25):
            expected = (7 + 4 * F * (1 - F)) / 7 * (2 * F - 1) ** 2
            assert zeta(F, 4, 2) == pytest.approx(expected, abs=1e-13)

    def test_monotone_in_fidelity(self):
        # the raw curve increases on the entangled range for the tabulated cases
        for q, d in ((3, 3), (4, 3)):
            F = np.linspace(1 / d + 1e-4, 1.0, 2000)
            vals = np.array([zeta(f, q, d) for f in F])
            assert np.diff(vals).min() > -1e-10

    def test_rejects_bad_exponent(self):
        with pytest.raises(BadExponent):
            zeta(0.8, 1.5, 2)

    def test_rejects_bad_dimension(self):
        for curve in (zeta, closedform.ctq_isotropic):
            with pytest.raises(BadDimension):
                curve(0.5, 3, 1)


class TestZetaWerner:
    def test_singlet_is_one(self):
        for q in (2, 3, 5, 8):
            assert closedform.zeta_werner(1.0, q) == pytest.approx(1.0, abs=1e-12)

    def test_q3_square(self):
        for w in np.linspace(0.51, 1.0, 25):
            assert closedform.zeta_werner(w, 3) == pytest.approx((2 * w - 1) ** 2, abs=1e-13)

    def test_boundary_zero(self):
        assert closedform.zeta_werner(0.5, 3) == 0.0
        assert closedform.zeta_werner(0.2, 2) == 0.0

    def test_matches_concurrence_map(self, rng):
        for _ in range(50):
            w = 0.5 + 0.5 * rng.random()
            q = 2 + 2 * rng.random()
            assert closedform.zeta_werner(w, q) == pytest.approx(
                measures.h_q(2 * w - 1, q), abs=1e-12
            )


def brute_force_envelope(x, y):
    """Greatest convex minorant by explicit chord minimization (O(n^3))."""
    n = len(x)
    env = np.array(y, dtype=float)
    for i in range(n):
        for j in range(i + 1):
            for k in range(i, n):
                if j == k:
                    continue
                t = (x[i] - x[j]) / (x[k] - x[j])
                env[i] = min(env[i], (1 - t) * y[j] + t * y[k])
    return env


class TestConvexEnvelope:
    def test_convex_input_unchanged(self):
        x = np.linspace(0, 1, 101)
        y = (x - 0.4) ** 2
        curve = closedform.convex_envelope(x, y)
        assert np.allclose(curve.values, y, atol=1e-14)
        assert curve.breakpoints == ()

    def test_matches_brute_force(self, rng):
        x = np.linspace(0, 1, 41)
        for _ in range(10):
            y = np.cumsum(rng.standard_normal(41) * 0.3)
            curve = closedform.convex_envelope(x, y)
            assert np.allclose(curve.values, brute_force_envelope(x, y), atol=1e-12)

    def test_envelope_properties(self, rng):
        x = np.linspace(0, 1, 201)
        y = np.sin(6 * x) + 0.5 * x + rng.standard_normal(201) * 0.05
        curve = closedform.convex_envelope(x, y)
        # below the raw curve, convex, idempotent
        assert np.all(curve.values <= y + 1e-12)
        assert np.diff(curve.values, 2).min() >= -1e-9
        again = closedform.convex_envelope(x, curve.values)
        assert np.allclose(again.values, curve.values, atol=1e-12)

    def test_grid_too_coarse(self):
        with pytest.raises(GridTooCoarse):
            closedform.convex_envelope([0.0, 1.0], [0.0, 1.0])

    def test_isotropic_d3_q3_true_tangency(self):
        # the terminal chord of the true envelope starts at exactly F = 8/9
        # with value 3/4 and slope 9/4 (exact algebra of the two-level form)
        step = 1e-4
        g = np.arange(0.0, 1.0 + step / 2, step)
        v = np.array([zeta(f, 3, 3) for f in g])
        curve = closedform.convex_envelope(g, v)
        assert len(curve.breakpoints) == 1
        bp = curve.breakpoints[0]
        assert g[bp] == pytest.approx(8.0 / 9.0, abs=2e-4)
        assert curve.values[bp] == pytest.approx(0.75, abs=1e-3)
        slope = (curve.values[-1] - curve.values[bp]) / (1.0 - g[bp])
        assert slope == pytest.approx(2.25, abs=2e-3)
        # exact tangency values at F = 8/9: chi^2 = 2/3, sigma^2 = 1/6
        p = closedform.chi_sigma(8.0 / 9.0, 3)
        assert p.chi**2 == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert p.sigma**2 == pytest.approx(1.0 / 6.0, abs=1e-12)
        assert zeta(8.0 / 9.0, 3, 3) == pytest.approx(0.75, abs=1e-12)


class TestCtqIsotropic:
    def test_d2_q3_value(self):
        assert closedform.ctq_isotropic(0.75, 3, 2) == pytest.approx(0.25, abs=1e-12)

    def test_boundary_zero(self):
        for d in (2, 3):
            assert closedform.ctq_isotropic(1.0 / d, 3, d) == 0.0

    def test_envelope_below_case_curve_d3_q3(self):
        # on the chord stretch the true envelope sits just below the tabulated
        # case line 2.23 F - 1.23 (the case junction overshoots the tangency)
        v = closedform.ctq_isotropic(0.97, 3, 3)
        assert v == pytest.approx(2.25 * 0.97 - 1.25, abs=1e-4)
        assert v == pytest.approx(2.23 * 0.97 - 1.23, abs=1.5e-3)
        assert v <= zeta(0.97, 3, 3) + 1e-12

    def test_continuity_across_junction(self):
        vals = [closedform.ctq_isotropic(f, 4, 3) for f in np.linspace(0.83, 0.86, 200)]
        assert np.abs(np.diff(vals)).max() < 1e-2

    def test_monotone_in_fidelity(self):
        for q, d in ((2, 2), (3, 3), (4, 3)):
            vals = [closedform.ctq_isotropic(f, q, d) for f in np.linspace(0, 1, 300)]
            assert np.diff(vals).min() >= -1e-12


class TestCaseChordParams:
    def test_d3_q3(self):
        p = closedform.isotropic_chord_params(3, 3)
        assert 0.93 <= p.junction <= 0.95
        assert 2.21 <= p.slope <= 2.25
        assert p.intercept == pytest.approx(1.0 - p.slope, abs=1e-12)

    def test_d3_q4(self):
        p = closedform.isotropic_chord_params(4, 3)
        assert 0.894 <= p.junction <= 0.914
        assert p.slope * 0.95 + p.intercept == pytest.approx(2.0658 * 0.95 - 1.06566, abs=2e-3)

    def test_convex_cases_have_no_chord(self):
        assert closedform.isotropic_chord_params(3, 2) is None
        assert closedform.isotropic_chord_params(4, 2) is None


class TestOracle:
    def test_agrees_with_closed_form(self):
        for d in (2, 3):
            for F in (0.6, 0.95):
                for q in (2, 3):
                    if F <= 1.0 / d:
                        continue
                    got = closedform.oracle_min_schmidt(F, q, d, restarts=40, seed=7)
                    want = zeta(F, q, d, normalized=False)
                    assert got == pytest.approx(want, abs=1e-6)

    def test_full_fidelity(self):
        for d, q in ((2, 3), (3, 2), (4, 4)):
            assert closedform.oracle_min_schmidt(1.0, q, d, restarts=20, seed=3) == pytest.approx(
                measures.normalization_mu(d, q), abs=1e-9
            )

    def test_boundary_continuity(self):
        val = closedform.oracle_min_schmidt(1 / 3 + 1e-3, 3, 3, restarts=20, seed=5)
        assert 0.0 <= val < 5e-3

    def test_infeasible(self):
        with pytest.raises(InfeasibleConstraint):
            closedform.oracle_min_schmidt(0.2, 3, 3)

    def test_two_level_derivative_signs(self, rng):
        # moving along +m or along the (m - n) direction never raises the
        # objective inside the feasible parallelogram
        for _ in range(60):
            d = 5
            F = 0.4 + 0.55 * rng.random()
            q = 2 + 2 * rng.random()
            c = np.sqrt(F * d)
            n = 1 + (c * c - 1) * rng.random() * 0.9
            lo_m = max(c * c - n, 0.0) + 0.05
            hi_m = d - n - 0.05
            if hi_m <= lo_m:
                continue
            m = lo_m + (hi_m - lo_m) * rng.random()
            h = 1e-5
            f0 = closedform._two_level_value(n, m, c, q)
            dm = (closedform._two_level_value(n, m + h, c, q) - f0) / h
            du = (
                closedform._two_level_value(n - h / 2, m + h / 2, c, q)
                - closedform._two_level_value(n + h / 2, m - h / 2, c, q)
            ) / h
            assert dm <= 1e-9
            assert du <= 1e-9


class TestEofWerner:
    def test_endpoints(self):
        assert closedform.eof_werner(1.0) == pytest.approx(1.0, abs=1e-12)
        assert closedform.eof_werner(0.5) == 0.0
        assert closedform.eof_werner(0.2) == 0.0

    def test_dominates_low_exponent_curve(self):
        for w in np.linspace(0.501, 1.0, 60):
            assert closedform.zeta_werner(w, 2) <= closedform.eof_werner(w) + 1e-12

    def test_below_high_exponent_curve_away_from_boundary(self):
        # the q = 8 curve dominates the EoF once w is clear of 1/2; very close
        # to the boundary the EoF's C^2 log(1/C) growth briefly wins
        for w in np.linspace(0.7, 1.0, 40):
            assert closedform.eof_werner(w) <= closedform.zeta_werner(w, 8) + 1e-12
        assert closedform.eof_werner(0.55) > closedform.zeta_werner(0.55, 8)

    def test_rejects_bad_parameter(self):
        with pytest.raises(ParameterOutOfRange):
            closedform.eof_werner(1.1)


class TestCtqWerner:
    def test_matches_raw_curve_in_convex_range(self, rng):
        for _ in range(20):
            w = 0.5 + 0.5 * rng.random()
            q = 2 + 2 * rng.random()
            assert closedform.ctq_werner(w, q) == pytest.approx(
                closedform.zeta_werner(w, q), abs=1e-9
            )

    def test_zero_below_half(self):
        assert closedform.ctq_werner(0.4, 3) == 0.0


class TestArrayInput:
    """Every curve takes a scalar, giving a float, or an array, giving an array
    equal element-wise to the scalar calls."""

    X = np.linspace(0.0, 1.0, 1001)  # zero stretch, raw stretches, chords, endpoint

    @pytest.mark.parametrize(
        "curve",
        [
            lambda x: closedform.zeta_isotropic(x, 2.5, 3),
            lambda x: closedform.zeta_isotropic(x, 8, 5, normalized=False),
            lambda x: closedform.zeta_werner(x, 2.7),
            lambda x: closedform.zeta_werner(x, 12, normalized=False),
            lambda x: closedform.ctq_isotropic(x, 3, 3),
            lambda x: closedform.ctq_isotropic(x, 8, 6),
            lambda x: closedform.ctq_werner(x, 3),
            lambda x: closedform.ctq_werner(x, 12),
        ],
        ids=[
            "zeta_isotropic-q2.5-d3", "zeta_isotropic-q8-d5-raw", "zeta_werner-q2.7",
            "zeta_werner-q12-raw", "ctq_isotropic-q3-d3", "ctq_isotropic-q8-d6",
            "ctq_werner-q3", "ctq_werner-q12",
        ],
    )
    def test_array_equals_scalar_calls(self, curve):
        scalars = [curve(float(x)) for x in self.X]
        assert all(type(v) is float for v in scalars)
        values = curve(self.X)
        assert isinstance(values, np.ndarray) and values.shape == self.X.shape
        np.testing.assert_array_equal(values, scalars)

    def test_range_checked_element_wise(self):
        with pytest.raises(FidelityOutOfRange):
            closedform.zeta_isotropic(np.array([0.5, 1.1]), 3, 2)
        with pytest.raises(ParameterOutOfRange):
            closedform.ctq_werner(np.array([-0.1, 0.7]), 3)


class TestEnvelopeAccuracy:
    @pytest.mark.parametrize("q, d", [(3, 3), (4, 3), (8, 5)])
    def test_matches_fine_sampled_hull(self, q, d):
        # the fixed envelope grid agrees with the hull of a 10x finer sampling
        F = np.linspace(0.0, 1.0, 100_001)
        fine = closedform.convex_envelope(F, closedform.zeta_isotropic(F, q, d))
        assert np.max(np.abs(closedform.ctq_isotropic(F, q, d) - fine.values)) <= 1e-6

    def test_no_runtime_warning_at_non_integer_exponent(self):
        # chi**2 rounds above 1 at F <= 1/d; a fractional power of the
        # negative 1 - chi**2 must not be taken
        F = np.linspace(0.0, 1.0, 1001)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for q in (2.2, 2.5, 3.7):
                for d in (2, 3, 4):
                    assert np.all(np.isfinite(closedform.zeta_isotropic(F, q, d)))
                    assert np.all(np.isfinite(closedform.ctq_isotropic(F, q, d)))

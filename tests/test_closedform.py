import warnings

import numpy as np
import pytest

from ctq import closedform, measures, monogamy
from ctq.exceptions import CtqError


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
        with pytest.raises(CtqError, match="fidelity 0.2 below 1/d"):
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
        with pytest.raises(CtqError, match="need q >= 2, got 1.5"):
            zeta(0.8, 1.5, 2)

    def test_rejects_bad_dimension(self):
        for curve in (zeta, closedform.ctq_isotropic):
            with pytest.raises(CtqError, match="d must be >= 2"):
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
        env = closedform.convex_envelope(x, y)
        assert np.allclose(env, y, atol=1e-14)

    def test_matches_brute_force(self, rng):
        x = np.linspace(0, 1, 41)
        for _ in range(10):
            y = np.cumsum(rng.standard_normal(41) * 0.3)
            env = closedform.convex_envelope(x, y)
            assert np.allclose(env, brute_force_envelope(x, y), atol=1e-12)

    def test_envelope_properties(self, rng):
        x = np.linspace(0, 1, 201)
        y = np.sin(6 * x) + 0.5 * x + rng.standard_normal(201) * 0.05
        env = closedform.convex_envelope(x, y)
        # below the raw curve, convex, idempotent
        assert np.all(env <= y + 1e-12)
        assert np.diff(env, 2).min() >= -1e-9
        assert np.allclose(closedform.convex_envelope(x, env), env, atol=1e-12)

    def test_grid_too_coarse(self):
        with pytest.raises(CtqError, match="need at least 3 grid points, got 2"):
            closedform.convex_envelope([0.0, 1.0], [0.0, 1.0])

    def test_isotropic_d3_q3_true_tangency(self):
        # the terminal chord of the true envelope starts at exactly F = 8/9
        # with value 3/4 and slope 9/4 (exact algebra of the two-level form)
        step = 1e-4
        g = np.arange(0.0, 1.0 + step / 2, step)
        v = np.array([zeta(f, 3, 3) for f in g])
        env = closedform.convex_envelope(g, v)
        # one chord: a single run of points where the envelope leaves the
        # curve; the tangency is the last point before it
        off = np.flatnonzero(np.abs(env - v) > 1e-9)
        assert np.array_equal(off, np.arange(off[0], off[-1] + 1))
        bp = off[0] - 1
        assert g[bp] == pytest.approx(8.0 / 9.0, abs=2e-4)
        assert env[bp] == pytest.approx(0.75, abs=1e-3)
        slope = (env[-1] - env[bp]) / (1.0 - g[bp])
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
        with pytest.raises(CtqError, match="need 1/d < F <= 1, got F=0.2"):
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

    @pytest.mark.xfail(
        strict=True,
        reason="the two-level curve is not the minimum for large q: at d = 5, q = 8, "
        "F = 0.98 the oracle finds a feasible spectrum 1.75e-4 (normalized) below "
        "ctq_isotropic, the envelope of zeta_isotropic",
    )
    def test_envelope_is_convex_roof_at_large_exponent(self):
        F, q, d = 0.98, 8, 5
        got = closedform.oracle_min_schmidt(F, q, d, restarts=100, seed=20240917)
        assert got / measures.normalization_mu(d, q) >= closedform.ctq_isotropic(F, q, d) - 1e-6


class TestProjectSum:
    """The oracle's retraction onto {||y||_2 = 1, sum(y) = c, y >= 0}.

    For c > sqrt(d - 1) the sphere meets the hyperplane inside the positive
    orthant, so the first retraction (c/d) 1 + sqrt(1 - c^2/d) u is the answer
    and no clamp fires; below that, clamps fire and the uniform re-shift of the
    clamp loop can stop off the hyperplane.
    """

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_retraction_without_clamps(self, d):
        rng = np.random.default_rng(d)
        for c in np.linspace(np.sqrt(d - 1), np.sqrt(d), 5)[1:-1]:
            Y = rng.standard_normal((200, d)) + 0.5
            Y[:, 0] = np.abs(Y[:, 0])  # a positive entry in every row
            Z = closedform._project_sum(Y, c)
            np.testing.assert_allclose(np.linalg.norm(Z, axis=1), 1.0, rtol=0, atol=1e-12)
            np.testing.assert_allclose(Z.sum(axis=1), c, rtol=0, atol=1e-12)
            assert Z.min() >= 0.0
            # the centred part is a positive multiple of the clamped input's
            U = np.maximum(Y, 0.0)
            U -= U.mean(axis=1, keepdims=True)
            V = Z - Z.mean(axis=1, keepdims=True)
            scale = np.sum(U * V, axis=1, keepdims=True) / np.sum(U * U, axis=1, keepdims=True)
            assert scale.min() > 0
            np.testing.assert_allclose(V, scale * U, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_rows_stay_unit_and_nonnegative_with_clamps(self, d):
        rng = np.random.default_rng(20 + d)
        for c in np.linspace(1.0, np.sqrt(d - 1), 5)[1:]:
            Y = np.abs(rng.standard_normal((200, d))) + 0.05
            Z = closedform._project_sum(Y, c)
            np.testing.assert_allclose(np.linalg.norm(Z, axis=1), 1.0, rtol=0, atol=1e-12)
            assert Z.min() >= 0.0

    @pytest.mark.xfail(
        strict=True,
        reason="the clamp loop shifts every coordinate, so a clamped zero turns "
        "negative again and after 6 rounds the row is normalized off the "
        "hyperplane: 86 of the oracle's 100 random starts at d = 3, F = 0.4 "
        "miss sum(y) = c by up to 0.31",
    )
    def test_clamped_rows_reach_the_hyperplane(self):
        d, F = 3, 0.4
        c = np.sqrt(F * d)
        rng = np.random.default_rng(20240917)
        Y = np.abs(rng.standard_normal((100, d))) + 0.05
        Z = closedform._project_sum(Y / np.linalg.norm(Y, axis=1, keepdims=True), c)
        np.testing.assert_allclose(Z.sum(axis=1), c, rtol=0, atol=1e-12)

    def test_uniform_point_when_it_is_the_only_feasible_one(self):
        Z = closedform._project_sum(np.random.default_rng(0).random((5, 3)), np.sqrt(3))
        np.testing.assert_array_equal(Z, np.full((5, 3), 1 / np.sqrt(3)))


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
        with pytest.raises(CtqError, match="mixing parameter 1.1 outside"):
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
            closedform.eof_werner,
        ],
        ids=[
            "zeta_isotropic-q2.5-d3", "zeta_isotropic-q8-d5-raw", "zeta_werner-q2.7",
            "zeta_werner-q12-raw", "ctq_isotropic-q3-d3", "ctq_isotropic-q8-d6",
            "ctq_werner-q3", "ctq_werner-q12", "eof_werner",
        ],
    )
    def test_array_equals_scalar_calls(self, curve):
        scalars = [curve(float(x)) for x in self.X]
        assert all(type(v) is float for v in scalars)
        values = curve(self.X)
        assert isinstance(values, np.ndarray) and values.shape == self.X.shape
        np.testing.assert_array_equal(values, scalars)

    # both sides of the quadrants, and angles small enough that cos^2 rounds to 1
    THETA = np.concatenate([np.linspace(-1.0, 7.0, 1001), [0.0, 1e-8, np.pi / 4, np.pi / 2]])

    @pytest.mark.parametrize(
        "kernel",
        [
            lambda t: monogamy.chain_ctq(t, 2.5),
            lambda t: monogamy.chain_ctq(t, 4),
            monogamy.chain_concurrence,
            lambda t: (monogamy.chain_residual(monogamy.chain_ctq(t, 3.7), 1.3),),
            lambda t: (monogamy.chain_residual(monogamy.chain_concurrence(t), 2),),
        ],
        ids=["chain_ctq-q2.5", "chain_ctq-q4", "chain_concurrence",
             "residual_tau-q3.7-gamma1.3", "residual_tau-concurrence-gamma2"],
    )
    def test_chain_array_equals_scalar_calls(self, kernel):
        scalars = [kernel(float(t)) for t in self.THETA]
        assert all(type(v) is float for row in scalars for v in row)
        columns = kernel(self.THETA)
        for i, column in enumerate(columns):
            assert isinstance(column, np.ndarray) and column.shape == self.THETA.shape
            np.testing.assert_array_equal(column, [row[i] for row in scalars])

    def test_range_checked_element_wise(self):
        with pytest.raises(CtqError, match=r"fidelity \[0.5 1.1\] outside"):
            closedform.zeta_isotropic(np.array([0.5, 1.1]), 3, 2)
        with pytest.raises(CtqError, match=r"mixing parameter \[-0.1 +0.7\] outside"):
            closedform.ctq_werner(np.array([-0.1, 0.7]), 3)
        with pytest.raises(CtqError, match=r"mixing parameter \[0.7 1.1\] outside"):
            closedform.eof_werner(np.array([0.7, 1.1]))


class TestEnvelopeAccuracy:
    @pytest.mark.parametrize("q, d", [(3, 3), (4, 3), (8, 5)])
    def test_matches_fine_sampled_hull(self, q, d):
        # the fixed envelope grid agrees with the hull of a 10x finer sampling
        F = np.linspace(0.0, 1.0, 100_001)
        fine = closedform.convex_envelope(F, closedform.zeta_isotropic(F, q, d))
        assert np.max(np.abs(closedform.ctq_isotropic(F, q, d) - fine)) <= 1e-6

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

import numpy as np
import pytest

from ctq import bounds, measures, states
from ctq.exceptions import (
    ExponentOrderViolated,
    ExponentOutsideTheoremRange,
    UnequalLocalDims,
)

from conftest import haar_pure


def spectrum_of(psi):
    return states.schmidt_spectrum(psi).values


def pure_state_bound_check(lam, q, d):
    """(Thm-2 bound, normalized value) of a pure state from its Schmidt spectrum."""
    lam = np.asarray(lam, dtype=float)
    N = float(np.sum(np.sqrt(lam)) ** 2)
    if d >= 3 or q >= 4.0 - 1e-12:
        bound = (N - 1.0) ** 2 / (d - 1.0) ** 2
    else:
        bound = (N - 1.0) ** 2 / (2.0 * (1.0 - 2.0 ** (1.0 - bounds.s_threshold())))
    value = (d - np.sum(lam**q) - np.sum((1.0 - lam) ** q)) / measures.normalization_mu(d, q)
    return bound, float(value)


class TestThreshold:
    def test_value_in_band(self):
        s = bounds.s_threshold()
        assert 3.33802 <= s <= 3.34002

    def test_root_property(self):
        s = bounds.s_threshold()
        assert abs(bounds.stationary_second_derivative(s, 2)) <= 1e-8
        assert bounds.stationary_second_derivative(s + 0.01, 2) > 0

    def test_sign_pattern(self):
        assert bounds.stationary_second_derivative(3, 2) < 0
        assert bounds.stationary_second_derivative(4, 2) > 0
        assert bounds.stationary_second_derivative(2, 3) >= 0

    def test_nonnegative_above_two_for_higher_dims(self):
        for d in (3, 4, 5, 6):
            for q in np.linspace(2.0, 9.0, 30):
                assert bounds.stationary_second_derivative(q, d) >= -1e-12


class TestLowerBoundThm2:
    def test_separable_gives_zero(self):
        rho_a = states.random_density((2,), 2, seed=1).mat
        rho_b = states.random_density((2,), 2, seed=2).mat
        rho = states.DensityMatrix((2, 2), np.kron(rho_a, rho_b))
        rep = bounds.lower_bound_thm2(rho, 4)
        assert rep.lower_bound == pytest.approx(0.0, abs=1e-12)
        assert not rep.entangled_by_ppt and not rep.entangled_by_realignment

    def test_isotropic_d3_q3(self):
        # trace norms are 3F above the boundary, so the bound is (3F-1)^2 / 4
        for F in (0.5, 0.7, 0.9, 1.0):
            rep = bounds.lower_bound_thm2(states.isotropic(F, 3), 3)
            assert rep.lower_bound == pytest.approx((3 * F - 1) ** 2 / 4, abs=1e-9)
            assert rep.ppt_norm == pytest.approx(3 * F, abs=1e-10)

    def test_isotropic_d2_q4(self):
        for F in (0.6, 0.8, 0.95):
            rep = bounds.lower_bound_thm2(states.isotropic(F, 2), 4)
            assert rep.lower_bound == pytest.approx((2 * F - 1) ** 2, abs=1e-9)

    def test_d2_midrange_uses_weaker_denominator(self):
        s = bounds.s_threshold()
        rep = bounds.lower_bound_thm2(states.isotropic(0.9, 2), 3.5)
        expected = (2 * 0.9 - 1) ** 2 / (2 * (1 - 2 ** (1 - s)))
        assert rep.lower_bound == pytest.approx(expected, abs=1e-9)

    def test_regime_errors(self):
        with pytest.raises(ExponentOutsideTheoremRange):
            bounds.lower_bound_thm2(states.isotropic(0.9, 2), 3.0)
        with pytest.raises(UnequalLocalDims):
            bounds.lower_bound_thm2(states.random_density((2, 3), 2, seed=3), 3.0)

    def test_entanglement_flags(self):
        rep = bounds.lower_bound_thm2(states.isotropic(0.9, 3), 2)
        assert rep.entangled_by_ppt and rep.entangled_by_realignment
        rep = bounds.lower_bound_thm2(states.isotropic(0.2, 3), 2)
        assert not rep.entangled_by_ppt

    def test_valid_on_random_pure_states(self, rng):
        # the bound never exceeds the exact pure-state value in its regime
        s = bounds.s_threshold()
        cases = {2: (s, 3.5, 4.0, 5.0), 3: (2.0, 2.5, 3.0, 6.0), 4: (2.0, 3.0, 8.0)}
        for d, qs in cases.items():
            for q in qs:
                for _ in range(1000):
                    lam = spectrum_of(haar_pure((d, d), rng))
                    b, v = pure_state_bound_check(lam, q, d)
                    assert v - b >= -1e-9

    def test_bound_matches_report_on_pure_inputs(self, rng):
        psi = haar_pure((3, 3), rng)
        rho = states.DensityMatrix((3, 3), psi.density())
        rep = bounds.lower_bound_thm2(rho, 2.5)
        assert rep.lower_bound <= measures.ctq_pure(psi, 2.5).value + 1e-9


class TestCorollary1:
    def test_identity_at_equal_exponents(self):
        assert bounds.corollary1_bound(0.7, 3, 3, 3) == pytest.approx(0.7)

    def test_scaling_factor_d2(self):
        # mu(2,3)/mu(2,2) = 1.5; raw d = 2 values obey ct_3 = 1.5 ct_2 exactly
        assert measures.normalization_mu(2, 3) / measures.normalization_mu(2, 2) == pytest.approx(1.5)
        for lam0 in (0.5, 0.7, 0.93):
            lam = np.array([lam0, 1 - lam0])
            ct2 = measures.total_concurrence_pure(lam, 2, 2)
            ct3 = measures.total_concurrence_pure(lam, 3, 2)
            assert ct3 == pytest.approx(1.5 * ct2, abs=1e-12)

    def test_order_errors(self):
        with pytest.raises(ExponentOrderViolated):
            bounds.corollary1_bound(0.5, 2, 3, 3)
        with pytest.raises(ExponentOrderViolated):
            bounds.corollary1_bound(0.5, 3, 2, 2)  # h = 2 below the d = 2 threshold

    def test_monotonicity_d2_above_threshold(self, rng):
        # for qubits the normalized value is nondecreasing in q once q >= s
        s = bounds.s_threshold()
        for _ in range(500):
            lam = rng.dirichlet(np.ones(2))
            q1 = s + 3 * rng.random()
            q2 = q1 + 3 * rng.random()
            f1 = measures.total_concurrence_pure(lam, q1, 2) / measures.normalization_mu(2, q1)
            f2 = measures.total_concurrence_pure(lam, q2, 2) / measures.normalization_mu(2, q2)
            assert f2 >= f1 - 1e-10

    @pytest.mark.xfail(
        strict=True,
        reason="exponent-monotonicity fails for d >= 3: spectra with a zero "
        "entry (a two-level state embedded in a larger space) make the "
        "normalized value decrease with q, e.g. lam = (1/2, 1/2, 0)",
    )
    def test_monotonicity_d3_claim(self, rng):
        for _ in range(500):
            lam = rng.dirichlet(np.ones(3))
            q1 = 2 + 3 * rng.random()
            q2 = q1 + 3 * rng.random()
            f1 = measures.total_concurrence_pure(lam, q1, 3) / measures.normalization_mu(3, q1)
            f2 = measures.total_concurrence_pure(lam, q2, 3) / measures.normalization_mu(3, q2)
            assert f2 >= f1 - 1e-10

    def test_monotonicity_d3_counterexample(self):
        # embedded two-level state: value strictly decreases from q=2 to q=5
        lam = np.array([0.5, 0.5, 0.0])
        f2 = measures.total_concurrence_pure(lam, 2, 3) / measures.normalization_mu(3, 2)
        f5 = measures.total_concurrence_pure(lam, 5, 3) / measures.normalization_mu(3, 5)
        assert f5 < f2 - 1e-3

    @pytest.mark.xfail(
        strict=True,
        reason="consequence of the d >= 3 monotonicity failure: the scaled "
        "h = 2 value can exceed the exact q = 5 value on near-degenerate spectra",
    )
    def test_corollary_bound_below_exact_d3(self, rng):
        for _ in range(500):
            lam = spectrum_of(haar_pure((3, 3), rng))
            ct2 = measures.total_concurrence_pure(lam, 2, 3)
            ct5 = measures.total_concurrence_pure(lam, 5, 3)
            claimed = measures.normalization_mu(3, 5) / measures.normalization_mu(3, 2) * ct2
            assert claimed <= ct5 + 1e-10

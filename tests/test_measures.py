import numpy as np
import pytest

from ctq import measures, states
from ctq.exceptions import CtqError, ExponentOutsideTheoremRange

from conftest import haar_pure, random_unitary

BELL = states.max_entangled(2)


def mu(d, q):
    return measures.normalization_mu(d, q)


class TestQConcurrence:
    def test_product_is_zero(self):
        for q in (2, 3, 5.5):
            assert measures.q_concurrence_pure([1.0, 0.0], q) == 0.0

    def test_uniform_spectrum(self):
        for d, q in ((2, 2), (3, 4), (5, 2.5)):
            lam = np.full(d, 1.0 / d)
            assert measures.q_concurrence_pure(lam, q) == pytest.approx(1 - d ** (1 - q))

    def test_bell_q2(self):
        assert measures.q_concurrence_pure([0.5, 0.5], 2) == pytest.approx(0.5)

    def test_rejects_small_exponent(self):
        with pytest.raises(CtqError, match="exponent q must be >= 2, got 1.5"):
            measures.q_concurrence_pure([0.5, 0.5], 1.5)


class TestTotalConcurrence:
    def test_product_is_zero(self):
        assert measures.total_concurrence_pure([1, 0, 0], 3) == 0.0

    def test_maximally_entangled_attains_mu(self):
        for d, q in ((2, 2), (3, 3), (4, 2.7)):
            lam = np.full(d, 1.0 / d)
            assert measures.total_concurrence_pure(lam, q) == pytest.approx(mu(d, q), abs=1e-12)

    def test_half_half_q3(self):
        # 2 - 2 (1/2)^3 - 2 (1/2)^3 = 3/2 = mu(2, 3)
        assert measures.total_concurrence_pure([0.5, 0.5], 3) == pytest.approx(1.5)
        assert mu(2, 3) == pytest.approx(1.5)

    def test_padding(self):
        assert measures.total_concurrence_pure([1.0], 2) == 0.0

    def test_range(self, rng):
        for _ in range(200):
            d = int(rng.integers(2, 6))
            lam = rng.dirichlet(np.ones(d))
            q = 2 + 4 * rng.random()
            v = measures.total_concurrence_pure(lam, q)
            assert -1e-12 <= v <= mu(d, q) + 1e-10


class TestCtqPure:
    def test_bell_is_one(self):
        for q in (2, 3, 4, 7.5):
            assert measures.ctq_pure(states.schmidt_spectrum(BELL), q) == pytest.approx(1.0, abs=1e-12)

    def test_product_is_zero(self):
        psi = states.pure_from_amplitudes([1, 0, 0, 0, 0, 0], (2, 3))
        assert measures.ctq_pure(states.schmidt_spectrum(psi), 3) == 0.0

    def test_skew_example_q2(self):
        # 2 (1 - 0.81 - 0.01) = 0.36, cross-checked by the concurrence map
        psi = states.pure_from_amplitudes([np.sqrt(0.9), 0, 0, np.sqrt(0.1)], (2, 2))
        got = measures.ctq_pure(states.schmidt_spectrum(psi), 2)
        assert got == pytest.approx(0.36, abs=1e-12)
        c = measures.concurrence_pure(states.schmidt_spectrum(psi))
        assert c == pytest.approx(0.6, abs=1e-12)
        assert got == pytest.approx(measures.h_q(c, 2), abs=1e-12)

    def test_effective_dim_is_min(self):
        # Schmidt spectrum (1/2, 1/2) on 2 x 3: maximal for min(dA, dB) = 2
        psi = states.pure_from_amplitudes(np.array([1, 0, 0, 0, 1, 0]) / np.sqrt(2), (2, 3))
        assert measures.ctq_pure(states.schmidt_spectrum(psi), 3) == pytest.approx(1.0, abs=1e-12)

    def test_local_unitary_invariance(self, rng):
        for _ in range(40):
            psi = haar_pure((3, 3), rng)
            UA, UB = random_unitary(3, rng), random_unitary(3, rng)
            rotated = states.PureState((3, 3), np.kron(UA, UB) @ psi.amps)
            q = 2 + 3 * rng.random()
            assert measures.ctq_pure(states.schmidt_spectrum(rotated), q) == pytest.approx(
                measures.ctq_pure(states.schmidt_spectrum(psi), q), abs=1e-10
            )

    def test_range_and_extremes(self, rng):
        for _ in range(100):
            psi = haar_pure((3, 4), rng)
            v = measures.ctq_pure(states.schmidt_spectrum(psi), 2.5)
            assert 0.0 <= v <= 1.0 + 1e-10


class TestCtAlpha:
    def test_product_zero_all_alpha(self):
        psi = states.pure_from_amplitudes([0, 1, 0, 0], (2, 2))
        for alpha in (0.0, 0.1, 0.3, 0.5):
            assert measures.ct_alpha_pure(states.schmidt_spectrum(psi), alpha) == 0.0

    def test_bell_half(self):
        # 2 sqrt(1/2) - 1 + 2 sqrt(1/2) - 1 = 2 sqrt(2) - 2
        assert measures.ct_alpha_pure(states.schmidt_spectrum(BELL), 0.5) == pytest.approx(
            2 * np.sqrt(2) - 2, abs=1e-12
        )

    def test_bell_alpha_zero_counts_ranks(self):
        # with 0^0 := 0 each nonzero entry contributes 1: 2 - 1 + 2 - 1 = 2
        assert measures.ct_alpha_pure(states.schmidt_spectrum(BELL), 0.0) == pytest.approx(2.0, abs=1e-12)

    def test_nonnegative(self, rng):
        for _ in range(100):
            psi = haar_pure((3, 3), rng)
            assert measures.ct_alpha_pure(states.schmidt_spectrum(psi), 0.5 * rng.random()) >= 0.0

    def test_rejects_bad_alpha(self):
        with pytest.raises(CtqError, match="alpha must lie in .*, got 0.7"):
            measures.ct_alpha_pure(states.schmidt_spectrum(BELL), 0.7)


class TestClassical:
    def test_deterministic(self):
        assert measures.classical_total_c2([1.0, 0.0, 0.0]) == 0.0

    def test_fair_coin(self):
        assert measures.classical_total_c2([0.5, 0.5]) == pytest.approx(1.0)

    def test_uniform_three(self):
        assert measures.classical_total_c2(np.ones(3) / 3) == pytest.approx(4.0 / 3.0)

    def test_rejects_bad_input(self):
        with pytest.raises(CtqError, match="expected a probability vector"):
            measures.classical_total_c2([0.7, 0.7])
        with pytest.raises(CtqError, match="expected a probability vector"):
            measures.classical_total_c2([1.2, -0.2])
        with pytest.raises(CtqError, match="expected a probability vector"):
            measures.classical_total_c2([])


class TestHq:
    def test_endpoints(self):
        for q in (2, 2.7, 3.9):
            assert measures.h_q(0.0, q) == 0.0
            assert measures.h_q(1.0, q) == pytest.approx(1.0, abs=1e-12)

    def test_reduces_to_square_at_2_and_3(self, rng):
        for x in rng.random(50):
            assert measures.h_q(x, 2) == pytest.approx(x * x, abs=1e-12)
            assert measures.h_q(x, 3) == pytest.approx(x * x, abs=1e-12)

    def test_monotone_and_convex(self):
        # first differences >= -1e-10 and second differences >= -1e-8 on a 1e-3 grid
        xs = np.arange(0.0, 1.0 + 1e-9, 1e-3)
        for q in (2.0, 2.5, 3.0, 3.5, 4.0):
            ys = np.array([measures.h_q(x, q) for x in xs])
            assert np.diff(ys).min() >= -1e-10
            assert np.diff(ys, 2).min() >= -1e-8

    def test_domain_errors(self):
        with pytest.raises(CtqError, match="argument 1.5 outside"):
            measures.h_q(1.5, 2)
        with pytest.raises(CtqError, match="h_q needs q > 1, got 1.0"):
            measures.h_q(0.5, 1.0)


class TestConcurrencePure:
    def test_bell(self):
        assert measures.concurrence_pure(states.schmidt_spectrum(BELL)) == pytest.approx(1.0, abs=1e-12)

    def test_product(self):
        psi = states.pure_from_amplitudes([1, 0, 0, 0], (2, 2))
        assert measures.concurrence_pure(states.schmidt_spectrum(psi)) == 0.0

    def test_skew(self):
        psi = states.pure_from_amplitudes([np.sqrt(0.9), 0, 0, np.sqrt(0.1)], (2, 2))
        assert measures.concurrence_pure(states.schmidt_spectrum(psi)) == pytest.approx(0.6, abs=1e-12)


class TestWootters:
    def test_bell(self):
        rho = states.DensityMatrix((2, 2), BELL.density())
        assert measures.wootters_concurrence_2qubit(rho) == pytest.approx(1.0, abs=1e-10)

    def test_separable_mixture(self):
        rho = states.DensityMatrix((2, 2), np.diag([0.4, 0.1, 0.3, 0.2]).astype(complex))
        assert measures.wootters_concurrence_2qubit(rho) == 0.0

    def test_werner_closed_form(self):
        # concurrence of the d = 2 exchange-invariant family is 2w - 1 above 1/2
        for w in (0.55, 0.7, 0.9, 1.0):
            got = measures.wootters_concurrence_2qubit(states.werner(w, 2))
            assert got == pytest.approx(2 * w - 1, abs=1e-10)
        assert measures.wootters_concurrence_2qubit(states.werner(0.3, 2)) == 0.0

    def test_rejects_other_dims(self):
        with pytest.raises(CtqError, match=r"need a \(2, 2\) state"):
            measures.wootters_concurrence_2qubit(states.random_density((2, 3), 2, seed=1))


class TestCtqTwoQubitMixed:
    def test_consistent_with_pure(self, rng):
        for _ in range(30):
            psi = haar_pure((2, 2), rng)
            rho = states.DensityMatrix((2, 2), psi.density())
            q = 2 + 2 * rng.random()
            assert measures.ctq_two_qubit_mixed(rho, q) == pytest.approx(
                measures.ctq_pure(states.schmidt_spectrum(psi), q), abs=1e-10
            )

    def test_werner_point_nine_q2(self):
        got = measures.ctq_two_qubit_mixed(states.werner(0.9, 2), 2)
        assert got == pytest.approx(0.64, abs=1e-12)

    def test_separable_zero(self):
        rho = states.DensityMatrix((2, 2), np.diag([0.25] * 4).astype(complex))
        assert measures.ctq_two_qubit_mixed(rho, 3) == 0.0

    def test_exponent_range(self):
        rho = states.werner(0.8, 2)
        with pytest.raises(ExponentOutsideTheoremRange):
            measures.ctq_two_qubit_mixed(rho, 5.0)

    def test_from_concurrence_matches(self):
        c = measures.wootters_concurrence_2qubit(states.werner(0.9, 2))
        assert c == pytest.approx(0.8, abs=1e-12)
        assert measures.h_q(0.8, 2) == pytest.approx(0.64, abs=1e-14)
        assert measures.ctq_two_qubit_mixed(states.werner(0.9, 2), 2) == measures.h_q(c, 2)


class TestQubitQuditMap:
    def test_pure_state_identity_all_q(self, rng):
        # for 2 x d pure states the normalized measure equals h_q of the
        # concurrence for every q >= 2 (two-level Schmidt algebra)
        for _ in range(40):
            d = int(rng.integers(2, 7))
            psi = haar_pure((2, d), rng)
            q = 2 + 6 * rng.random()
            got = measures.ctq_pure(states.schmidt_spectrum(psi), q)
            want = measures.h_q(measures.concurrence_pure(states.schmidt_spectrum(psi)), q)
            assert got == pytest.approx(want, abs=1e-10)


class TestFunctionalProperties:
    def test_dual_gap_nonnegative(self, rng):
        # total functional minus the plain purity deficit is (d-1) - sum (1-lam)^q >= 0
        for _ in range(200):
            d = int(rng.integers(2, 6))
            lam = rng.dirichlet(np.ones(d))
            q = 2 + 4 * rng.random()
            gap = measures.total_concurrence_pure(lam, q) - measures.q_concurrence_pure(lam, q)
            assert gap >= -1e-12

    def test_mixture_concavity(self, rng):
        def functional(rho, d, q):
            lam = np.linalg.eigvalsh(rho)
            lam = np.clip(lam, 0.0, 1.0)
            return d - np.sum(lam**q) - np.sum((1 - lam) ** q)

        for _ in range(200):
            d = int(rng.integers(2, 5))
            q = 2 + 3 * rng.random()
            p = rng.random()
            r1 = states.random_density((d,), int(rng.integers(1, d + 1)), seed=int(rng.integers(1 << 30))).mat
            r2 = states.random_density((d,), int(rng.integers(1, d + 1)), seed=int(rng.integers(1 << 30))).mat
            mix = p * r1 + (1 - p) * r2
            gap = functional(mix, d, q) - p * functional(r1, d, q) - (1 - p) * functional(r2, d, q)
            assert gap >= -1e-10

    def test_schur_concavity(self, rng):
        # (lam_i - lam_j)(dC/dlam_i - dC/dlam_j) <= 0 with analytic partials,
        # cross-checked against central finite differences
        def partials(lam, q):
            return q * ((1 - lam) ** (q - 1) - lam ** (q - 1))

        def functional(lam, q):
            return lam.size - np.sum(lam**q) - np.sum((1 - lam) ** q)

        for _ in range(50):
            d = int(rng.integers(2, 6))
            lam = rng.dirichlet(np.ones(d))
            q = 2 + 3 * rng.random()
            g = partials(lam, q)
            for i in range(d):
                for j in range(i + 1, d):
                    assert (lam[i] - lam[j]) * (g[i] - g[j]) <= 1e-10
            h = 1e-6
            for i in range(d):
                e = np.zeros(d)
                e[i] = h
                fd = (functional(lam + e, q) - functional(lam - e, q)) / (2 * h)
                assert fd == pytest.approx(g[i], rel=1e-5, abs=1e-7)

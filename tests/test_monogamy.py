import tracemalloc

import numpy as np
import pytest

from ctq import measures, monogamy, qlinalg, states
from ctq.exceptions import CtqError

from conftest import haar_pure


def ghz3():
    a = np.zeros(8, dtype=complex)
    a[0] = a[7] = 1 / np.sqrt(2)
    return states.MultipartiteState((2, 2, 2), a)


def w3():
    a = np.zeros(8, dtype=complex)
    a[0b001] = a[0b010] = a[0b100] = 1 / np.sqrt(3)
    return states.MultipartiteState((2, 2, 2), a)


NU_STAR = np.sqrt(np.array([2, 0, 1, 2, 2]) / 7.0)


class TestMonogamyCheck:
    def test_twelve_qubits_without_the_full_density(self):
        # the 4096 x 4096 density alone would take 256 MB
        psi = haar_pure((2,) * 12, np.random.default_rng(12))
        tracemalloc.start()
        try:
            rep = monogamy.monogamy_check(psi, 2.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
        assert len(rep.pairwise) == 11 and rep.residual >= -1e-9

    def test_ghz(self):
        for q in (2, 2.5, 3):
            rep = monogamy.monogamy_check(ghz3(), q)
            assert rep.lhs == pytest.approx(1.0, abs=1e-12)
            assert np.allclose(rep.pairwise, [0.0, 0.0])
            assert rep.residual == pytest.approx(1.0, abs=1e-12)
            assert rep.guaranteed

    def test_w_state_equality_at_q2(self):
        rep = monogamy.monogamy_check(w3(), 2)
        assert rep.lhs == pytest.approx(8 / 9, abs=1e-10)
        assert np.allclose(rep.pairwise, [4 / 9, 4 / 9], atol=1e-10)
        assert abs(rep.residual) <= 1e-9

    def test_gen_schmidt_example_q2(self):
        psi = states.gen_schmidt_3qubit(NU_STAR)
        rep = monogamy.monogamy_check(psi, 2)
        assert rep.lhs == pytest.approx(40 / 49, abs=1e-10)
        assert sorted(rep.pairwise) == pytest.approx([8 / 49, 16 / 49], abs=1e-10)
        assert rep.residual == pytest.approx(16 / 49, abs=1e-10)

    def test_random_states_nonnegative_residual(self, rng):
        for nq in (3, 4):
            for _ in range(60):
                psi = haar_pure((2,) * nq, rng)
                psi = states.MultipartiteState((2,) * nq, psi.amps)
                for q in (2, 2.5, 3):
                    rep = monogamy.monogamy_check(psi, q)
                    assert rep.residual >= -1e-9
                    assert rep.guaranteed

    def test_q_and_gamma_flags(self, rng):
        psi = states.MultipartiteState((2, 2, 2), haar_pure((2, 2, 2), rng).amps)
        assert not monogamy.monogamy_check(psi, 3.5).guaranteed
        assert not monogamy.monogamy_check(psi, 2.5, gamma=2.0).guaranteed

    def test_reports_coincide_at_q2_q3(self, rng):
        # h_2 = h_3 = square, so the two reports agree to round-off
        for _ in range(20):
            psi = states.MultipartiteState((2, 2, 2), haar_pure((2, 2, 2), rng).amps)
            r2 = monogamy.monogamy_check(psi, 2)
            r3 = monogamy.monogamy_check(psi, 3)
            assert r2.lhs == pytest.approx(r3.lhs, abs=1e-12)
            assert np.allclose(r2.pairwise, r3.pairwise, atol=1e-12)

    def test_squared_concurrence_monogamy(self, rng):
        # C^2 across the cut dominates the sum of pairwise squared concurrences
        for _ in range(100):
            psi = states.MultipartiteState((2, 2, 2), haar_pure((2, 2, 2), rng).amps)
            rho = psi.density()
            rho_a = qlinalg.partial_trace(rho, psi.dims, [0])
            c2_cut = 2 * (1 - np.trace(rho_a @ rho_a).real)
            pair = sum(
                measures.wootters_concurrence_2qubit(
                    qlinalg.partial_trace(rho, psi.dims, [0, i])
                )
                ** 2
                for i in (1, 2)
            )
            assert c2_cut >= pair - 1e-9

    def test_errors(self):
        qutrit = states.MultipartiteState((3, 2, 2), np.eye(12, dtype=complex)[0])
        with pytest.raises(CtqError, match="all local dimensions must be 2"):
            monogamy.monogamy_check(qutrit, 2)
        with pytest.raises(CtqError, match="gamma must be positive, got 0.0"):
            monogamy.monogamy_check(ghz3(), 2, gamma=0.0)

    def test_refuses_q_below_two(self):
        # the measure is defined for q >= 2 only
        with pytest.raises(CtqError, match="need q >= 2, got 1.5"):
            monogamy.monogamy_check(ghz3(), 1.5)
        assert monogamy.monogamy_check(ghz3(), 2.0).guaranteed


class TestExample2:
    def test_concurrence_triple(self):
        got = monogamy.gen_schmidt_concurrences(NU_STAR)
        assert got[0] == pytest.approx(2 * np.sqrt(10) / 7, abs=1e-12)
        assert got[1] == pytest.approx(2 * np.sqrt(2) / 7, abs=1e-12)
        assert got[2] == pytest.approx(4 / 7, abs=1e-12)

    def test_triple_against_state_construction(self):
        # same numbers recomputed from the actual state amplitudes; nu2
        # excites the third qubit, so 2 nu0 nu2 lives on the (first, third)
        # marginal and 2 nu0 nu3 on the (first, second) one
        psi = states.gen_schmidt_3qubit(NU_STAR)
        rho = psi.density()
        rho_a = qlinalg.partial_trace(rho, (2, 2, 2), [0])
        c_cut = np.sqrt(2 * (1 - np.trace(rho_a @ rho_a).real))
        c_ab = measures.wootters_concurrence_2qubit(qlinalg.partial_trace(rho, (2, 2, 2), [0, 1]))
        c_ac = measures.wootters_concurrence_2qubit(qlinalg.partial_trace(rho, (2, 2, 2), [0, 2]))
        want = monogamy.gen_schmidt_concurrences(NU_STAR)
        assert c_cut == pytest.approx(want[0], abs=1e-10)
        assert c_ac == pytest.approx(want[1], abs=1e-10)
        assert c_ab == pytest.approx(want[2], abs=1e-10)

    def test_K_gap_q2_alpha1(self):
        K1, K2 = monogamy.example2_K(NU_STAR, 2, 1)
        assert K1 == pytest.approx(40 / 49, abs=1e-12)
        assert K2 == pytest.approx(24 / 49, abs=1e-12)
        assert K1 - K2 == pytest.approx(16 / 49, abs=1e-12)

    def test_K_nonnegative_over_grid(self):
        for q in (2, 2.5, 3):
            for a in (1, 2, 3, 4):
                K1, K2 = monogamy.example2_K(NU_STAR, q, a)
                assert K1 >= K2

    def test_product_state_zeroes(self):
        K1, K2 = monogamy.example2_K([1, 0, 0, 0, 0], 2, 2)
        assert K1 == 0.0 and K2 == 0.0


class TestChain:
    def test_balanced_angle_all_ones(self):
        for q in (2, 3, 4, 6.5):
            assert monogamy.chain_ctq(np.pi / 4, q) == pytest.approx((1.0, 1.0, 1.0), abs=1e-12)

    def test_ac_always_one(self):
        for theta in np.linspace(0, np.pi, 9):
            assert monogamy.chain_ctq(theta, 3)[2] == 1.0

    def test_theta_zero_ab_vanishes(self):
        assert monogamy.chain_ctq(0.0, 3)[1] == pytest.approx(0.0, abs=1e-12)

    def test_cut_matches_direct_computation(self, rng):
        for _ in range(20):
            theta = rng.uniform(0, 2 * np.pi)
            q = 2 + 4 * rng.random()
            closed = monogamy.chain_ctq(theta, q)[0]
            lam = states.schmidt_spectrum(states.chain_state(theta).split_first())
            direct = measures.ctq_pure(lam, q)
            assert closed == pytest.approx(direct, abs=1e-10)

    def test_concurrence_triple(self):
        c_cut, c_ab, c_ac = monogamy.chain_concurrence(np.pi / 4)
        assert c_cut == pytest.approx(np.sqrt(1.5), abs=1e-12)
        assert c_ab == pytest.approx(1.0, abs=1e-12)
        assert c_ac == 1.0


class TestResidualTau:
    def test_concurrence_balanced_gamma2(self):
        # C_cut^2 = 3/2, both pairwise terms 1: residual is -1/2
        tau = monogamy.chain_residual(monogamy.chain_concurrence(np.pi / 4), 2)
        assert tau == pytest.approx(-0.5, abs=1e-12)

    def test_ctq_balanced_gamma1_q4(self):
        tau = monogamy.chain_residual(monogamy.chain_ctq(np.pi / 4, 4), 1)
        assert tau == pytest.approx(-1.0, abs=1e-12)

    def test_large_gamma_smoke(self):
        # no sign assertion for large gamma, only finiteness and continuity
        triple = monogamy.chain_ctq(np.pi / 3, 3)
        taus = [monogamy.chain_residual(triple, g) for g in np.linspace(4.9, 5.1, 21)]
        assert np.all(np.isfinite(taus))
        assert np.abs(np.diff(taus)).max() < 0.05

    def test_errors(self):
        with pytest.raises(CtqError, match="gamma must be positive, got 0.0"):
            monogamy.chain_residual(monogamy.chain_ctq(0.3, 3), 0.0)
        with pytest.raises(CtqError, match="theta must be finite, got nan"):
            monogamy.chain_concurrence(np.nan)


class TestSuperadditivityKernel:
    def test_kernel_and_equality(self, rng):
        worst = np.inf
        eq_worst = 0.0
        n = 0
        while n < 2000:
            a, b = rng.random(2)
            if a * a + b * b > 1:
                continue
            n += 1
            q = 2 + rng.random()
            r = np.sqrt(a * a + b * b)
            worst = min(worst, measures.h_q(r, q) - measures.h_q(a, q) - measures.h_q(b, q))
            for qe in (2.0, 3.0):
                eq_worst = max(
                    eq_worst,
                    abs(measures.h_q(r, qe) - measures.h_q(a, qe) - measures.h_q(b, qe)),
                )
        assert worst >= -1e-10
        assert eq_worst <= 1e-10

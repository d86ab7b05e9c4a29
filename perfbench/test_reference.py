"""The reference formulas at points where the answer is known."""

import numpy as np
import pytest

import reference as ref

BELL = np.array([1, 0, 0, 1]) / np.sqrt(2)
PRODUCT = np.kron([0.6, 0.8], [1.0, 0.0])
SINGLET = np.array([0, 1, -1, 0]) / np.sqrt(2)


def werner_state(w):
    """Weight w on the singlet, the rest spread evenly over the triplet."""
    P = np.outer(SINGLET, SINGLET)
    return w * P + (1 - w) / 3 * (np.eye(4) - P)


@pytest.mark.parametrize("q", [2.0, 2.5, 3.0, 5.0, 9.0])
def test_bell_state_is_maximal(q):
    assert ref.pure_value(BELL, (2, 2), q) == pytest.approx(1.0)
    assert ref.h_q(1.0, q) == pytest.approx(1.0)


def test_bell_state_concurrence_and_norms():
    rho = np.outer(BELL, BELL)
    assert ref.wootters(rho) == pytest.approx(1.0)
    assert ref.ppt_norm(rho, 2) == pytest.approx(2.0)
    assert ref.realign_norm(rho, 2) == pytest.approx(2.0)


@pytest.mark.parametrize("q", [2.0, 3.7, 8.0])
def test_product_state_gives_zero(q):
    assert ref.pure_value(PRODUCT, (2, 2), q) == pytest.approx(0.0, abs=1e-12)
    assert ref.wootters(np.outer(PRODUCT, PRODUCT)) == pytest.approx(0.0, abs=1e-7)


@pytest.mark.parametrize("w", [0.55, 0.7, 0.9, 1.0])
def test_werner_concurrence_is_2w_minus_1(w):
    assert ref.wootters(werner_state(w)) == pytest.approx(2 * w - 1, abs=1e-7)


@pytest.mark.parametrize("w", [0.1, 0.3, 0.5])
def test_separable_werner_has_no_concurrence(w):
    assert ref.wootters(werner_state(w)) == pytest.approx(0.0, abs=1e-7)


@pytest.mark.parametrize("F", [0.5, 0.51, 0.7, 0.93, 1.0])
def test_isotropic_d2_q3_is_square(F):
    assert ref.zeta_isotropic(F, 3, 2) == pytest.approx((2 * F - 1) ** 2)
    assert ref.zeta_werner(F, 3) == pytest.approx((2 * F - 1) ** 2)
    assert ref.h_q(2 * F - 1, 3) == pytest.approx((2 * F - 1) ** 2)


def test_isotropic_curve_is_zero_at_the_boundary_and_one_at_the_end():
    for d in (2, 3, 5):
        assert ref.zeta_isotropic(1 / d, 4, d) == 0.0
        assert ref.zeta_isotropic(1.0, 4, d) == pytest.approx(1.0)


def test_chain_state_at_quarter_turn_is_maximal():
    assert ref.chain_a_bc(np.pi / 4, 3.7) == pytest.approx(1.0)


def test_ghz_marginals():
    ghz = np.zeros(8)
    ghz[0] = ghz[7] = 1 / np.sqrt(2)
    assert ref.first_qubit_concurrence(ghz, 3) == pytest.approx(1.0)
    assert ref.wootters(ref.pair_marginal(ghz, 3, 1)) == pytest.approx(0.0, abs=1e-7)


def test_eof_of_full_concurrence_is_one_bit():
    assert ref.eof_from_concurrence(1.0) == pytest.approx(1.0)
    assert ref.eof_from_concurrence(0.0) == 0.0

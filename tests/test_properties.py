"""Property tests over random pure states, and the refusal of non-finite parameters.

Hypothesis runs derandomized with at most 50 examples a property, so the
suite stays reproducible and each property takes well under a second.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from ctq import bounds, closedform, measures, monogamy, states
from ctq.exceptions import CtqError

from conftest import random_unitary

PROPERTY = settings(max_examples=50, deadline=None, derandomize=True, database=None)
EXPONENTS = st.floats(2.0, 10.0)


@st.composite
def pure_states(draw, equal_dims=False):
    dA = draw(st.integers(2, 4))
    dB = dA if equal_dims else draw(st.integers(2, 4))
    n = dA * dB
    parts = draw(arrays(float, 2 * n, elements=st.floats(-1.0, 1.0)))
    a = parts[:n] + 1j * parts[n:]
    norm = np.linalg.norm(a)
    assume(norm > 1e-3)
    return states.PureState((dA, dB), a / norm)


def unit_vector(draw, d):
    v = draw(arrays(float, d, elements=st.floats(-1.0, 1.0)))
    assume(np.linalg.norm(v) > 1e-3)
    return v / np.linalg.norm(v)


@PROPERTY
@given(pure_states(), EXPONENTS)
def test_ctq_pure_in_unit_interval(psi, q):
    assert 0.0 <= measures.ctq_pure(states.schmidt_spectrum(psi), q) <= 1.0 + 1e-12


@PROPERTY
@given(pure_states(), EXPONENTS, st.integers(0, 2**32 - 1))
def test_ctq_pure_invariant_under_local_unitaries(psi, q, seed):
    rng = np.random.default_rng(seed)
    U, V = (random_unitary(d, rng) for d in psi.dims)
    moved = states.PureState(psi.dims, np.kron(U, V) @ psi.amps)
    assert measures.ctq_pure(states.schmidt_spectrum(moved), q) == pytest.approx(
        measures.ctq_pure(states.schmidt_spectrum(psi), q), abs=1e-10
    )


@PROPERTY
@given(st.data(), st.integers(2, 4), st.integers(2, 4), EXPONENTS)
def test_product_states_give_zero(data, dA, dB, q):
    a, b = unit_vector(data.draw, dA), unit_vector(data.draw, dB)
    psi = states.PureState((dA, dB), np.kron(a, b).astype(complex))
    assert measures.ctq_pure(states.schmidt_spectrum(psi), q) <= 1e-12


@PROPERTY
@given(pure_states(equal_dims=True), st.floats(0.0, 1.0))
def test_thm2_bound_below_pure_value(psi, t):
    d = psi.dims[0]
    lo = bounds.s_threshold() if d == 2 else 2.0  # the regime the bound claims
    q = lo + (10.0 - lo) * t
    rho = states.DensityMatrix(psi.dims, psi.density())
    bound = bounds.lower_bound_thm2(rho, q).lower_bound_normalized
    assert bound <= measures.ctq_pure(states.schmidt_spectrum(psi), q) + 1e-9


# -- every public q / alpha / gamma / F / w / x / theta parameter and every
# probability or coefficient vector refuses NaN and +-inf

_GHZ = states.MultipartiteState((2, 2, 2), np.array([1, 0, 0, 0, 0, 0, 0, 1]) / np.sqrt(2))
_BELL = states.max_entangled(2)
_BELL_RHO = states.DensityMatrix((2, 2), _BELL.density())
_MAX3 = states.max_entangled(3)
_NU = np.sqrt(np.array([2, 0, 1, 2, 2]) / 7.0)

REFUSING = {
    "chi_sigma-F": lambda x: closedform.chi_sigma(x, 3),
    "zeta_isotropic-F": lambda x: closedform.zeta_isotropic(x, 3, 3),
    "zeta_isotropic-q": lambda x: closedform.zeta_isotropic(0.8, x, 3),
    "zeta_werner-w": lambda x: closedform.zeta_werner(x, 3),
    "zeta_werner-q": lambda x: closedform.zeta_werner(0.8, x),
    "ctq_isotropic-F": lambda x: closedform.ctq_isotropic(x, 3, 3),
    "ctq_isotropic-q": lambda x: closedform.ctq_isotropic(0.8, x, 3),
    "ctq_werner-w": lambda x: closedform.ctq_werner(x, 3),
    "ctq_werner-q": lambda x: closedform.ctq_werner(0.8, x),
    "eof_werner-w": closedform.eof_werner,
    "isotropic_chord_params-q": lambda x: closedform.isotropic_chord_params(x, 3),
    "oracle_min_schmidt-F": lambda x: closedform.oracle_min_schmidt(x, 3, 3),
    "oracle_min_schmidt-q": lambda x: closedform.oracle_min_schmidt(0.8, x, 3),
    # MeasureParams and ctq_from_concurrence are gone; their ids stay on the
    # functions that now make the same checks: the measures' own exponent
    # checks, h_q for the concurrence argument, and the 2 <= q <= 4 range of
    # ctq_two_qubit_mixed
    "MeasureParams-q": lambda x: measures.ctq_pure(states.schmidt_spectrum(_MAX3), x),
    "MeasureParams-alpha": lambda x: measures.ct_alpha_pure(states.schmidt_spectrum(_MAX3), x),
    "ctq_from_concurrence-x": lambda x: measures.h_q(x, 2.5),
    "ctq_from_concurrence-q": lambda x: measures.ctq_two_qubit_mixed(_BELL_RHO, x),
    "normalization_mu-q": lambda x: measures.normalization_mu(3, x),
    "q_concurrence_pure-q": lambda x: measures.q_concurrence_pure([0.5, 0.5], x),
    "q_concurrence_pure-lam": lambda x: measures.q_concurrence_pure([x, 1.0], 2),
    "total_concurrence_pure-q": lambda x: measures.total_concurrence_pure([0.5, 0.5], x),
    "ctq_pure-q": lambda x: measures.ctq_pure(states.schmidt_spectrum(_BELL), x),
    "ct_alpha_pure-alpha": lambda x: measures.ct_alpha_pure(states.schmidt_spectrum(_BELL), x),
    "h_q-x": lambda x: measures.h_q(x, 3),
    "h_q-q": lambda x: measures.h_q(0.5, x),
    "ctq_two_qubit_mixed-q": lambda x: measures.ctq_two_qubit_mixed(states.werner(0.9, 2), x),
    "classical_total_c2-p": lambda x: measures.classical_total_c2([x, 1.0]),
    "stationary_second_derivative-q": lambda x: bounds.stationary_second_derivative(x, 2),
    "thm2_bound-q-d2": lambda x: bounds.thm2_bound(1.5, x, 2),
    "thm2_bound-q-d3": lambda x: bounds.thm2_bound(1.5, x, 3),
    "lower_bound_thm2-q": lambda x: bounds.lower_bound_thm2(states.isotropic(0.9, 3), x),
    "corollary1_bound-q": lambda x: bounds.corollary1_bound(0.5, x, 4, 2),
    "corollary1_bound-h": lambda x: bounds.corollary1_bound(0.5, 5, x, 2),
    "monogamy_check-q": lambda x: monogamy.monogamy_check(_GHZ, x),
    "monogamy_check-gamma": lambda x: monogamy.monogamy_check(_GHZ, 2, gamma=x),
    "example2_K-q": lambda x: monogamy.example2_K(_NU, x, 2),
    "example2_K-alpha": lambda x: monogamy.example2_K(_NU, 2.5, x),
    "gen_schmidt_concurrences-nu": lambda x: monogamy.gen_schmidt_concurrences([x, 0, 0, 0, 1]),
    "chain_ctq-q": lambda x: monogamy.chain_ctq(0.3, x),
    "chain_ctq-theta": lambda x: monogamy.chain_ctq(x, 3),
    "chain_concurrence-theta": monogamy.chain_concurrence,
    "chain_residual-gamma": lambda x: monogamy.chain_residual((0.5, 0.2, 0.1), x),
    # tau, the chain residual, as the chain CSV's tau column computes it
    "residual_tau-q": lambda x: monogamy.chain_residual(monogamy.chain_ctq(0.3, x), 1.0),
    "residual_tau-gamma": lambda x: monogamy.chain_residual(monogamy.chain_ctq(0.3, 3), x),
    "isotropic-F": lambda x: states.isotropic(x, 3),
    "werner-w": lambda x: states.werner(x, 3),
}


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("call", REFUSING.values(), ids=REFUSING.keys())
def test_non_finite_parameter_refused(call, value):
    with pytest.raises(CtqError):
        call(value)

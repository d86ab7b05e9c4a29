"""Monogamy analysis: one-vs-rest measure against the sum of pairwise terms.

For pure all-qubit states with 2 <= q <= 3 the measure across the first
party's cut bounds the sum over pairwise marginals (the `guaranteed`
regime); outside it the residual is still computed but carries no sign
guarantee.  The 4 x 2 x 2 chain family admits closed forms for all three
cuts, so its residual can be swept in (theta, q, gamma) exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import CtqError, check_range
from .measures import h_q, normalization_mu, wootters_concurrence_2qubit
from .states import MultipartiteState

_GAMMA = "gamma must be positive, got {}"
_THETA = "theta must be finite, got {}"


@dataclass(frozen=True)
class MonogamyReport:
    lhs: float
    pairwise: tuple[float, ...]
    residual: float
    guaranteed: bool


def monogamy_check(psi: MultipartiteState, q: float, gamma: float = 1.0) -> MonogamyReport:
    """Residual lhs**gamma - sum(pairwise**gamma) for a pure all-qubit state.

    lhs is the measure across the first-qubit cut, obtained from the
    marginal purity; each pairwise term applies the concurrence map h_q to
    the spin-flip concurrence of the two-qubit marginal.  The sign is
    guaranteed nonnegative only for 2 <= q <= 3 at gamma = 1.
    """
    if any(d != 2 for d in psi.dims):
        raise CtqError(f"all local dimensions must be 2, got {psi.dims}")
    check_range(gamma, _GAMMA, 0.0, open_lo=True)
    check_range(q, "need q >= 2, got {}", 2.0)
    k = len(psi.dims)
    rho_a = psi.marginal([0])
    purity = float(np.trace(rho_a @ rho_a).real)
    c_cut = np.sqrt(max(0.0, 2.0 * (1.0 - purity)))
    lhs = h_q(min(c_cut, 1.0), q)
    pairwise = []
    for i in range(1, k):
        pairwise.append(h_q(wootters_concurrence_2qubit(psi.marginal([0, i])), q))
    residual = lhs**gamma - sum(p**gamma for p in pairwise)
    guaranteed = 2.0 - 1e-12 <= q <= 3.0 + 1e-12 and abs(gamma - 1.0) <= 1e-12
    return MonogamyReport(
        lhs=lhs,
        pairwise=tuple(pairwise),
        residual=float(residual),
        guaranteed=guaranteed,
    )


def gen_schmidt_concurrences(nu) -> tuple[float, float, float]:
    """Concurrence triple of the five-coefficient three-qubit form.

    Returns (2 nu0 sqrt(nu2^2 + nu3^2 + nu4^2), 2 nu0 nu2, 2 nu0 nu3): the
    value across the first-vs-rest cut followed by the two pairwise values.
    On the constructed state nu2 excites the third qubit and nu3 the second,
    so 2 nu0 nu2 is attained on the (first, third) marginal and 2 nu0 nu3 on
    the (first, second) one; every symmetric combination of the pairwise
    entries (such as the monogamy sum) is unaffected by that attachment.
    """
    nu = check_range(nu, "coefficients must be finite, got {}")
    if nu.shape != (5,):
        raise CtqError("expected 5 coefficients")
    if abs(float(np.sum(nu**2)) - 1.0) > 1e-6:
        raise CtqError("coefficients must have unit sum of squares")
    c_cut = 2.0 * nu[0] * np.sqrt(nu[2] ** 2 + nu[3] ** 2 + nu[4] ** 2)
    return float(c_cut), float(2.0 * nu[0] * nu[2]), float(2.0 * nu[0] * nu[3])


def example2_K(nu, q: float, alpha_exp: float) -> tuple[float, float]:
    """Powers comparison (K1, K2) for the five-coefficient 3-qubit family.

    K1 = h_q(C_A|BC)**alpha, K2 = h_q(C_AB)**alpha + h_q(C_AC)**alpha.
    """
    check_range(q, "need 2 <= q <= 3, got {}", 2.0, 3.0)
    check_range(alpha_exp, "need 1 <= alpha <= 4, got {}", 1.0, 4.0)
    c_cut, c_ab, c_ac = gen_schmidt_concurrences(nu)
    K1 = h_q(c_cut, q) ** alpha_exp
    K2 = h_q(c_ab, q) ** alpha_exp + h_q(c_ac, q) ** alpha_exp
    return float(K1), float(K2)


def _floats(theta: np.ndarray, *values):
    """The values, as floats for a scalar theta."""
    return tuple(float(v) for v in values) if theta.ndim == 0 else values


def chain_ctq(theta, q: float):
    """Closed-form measure triple of the 4 x 2 x 2 chain state.

    Returns (A|BC cut, AB marginal, AC marginal) in normalized units, with
    alpha = cos(theta), beta = sin(theta):

      A|BC: [4 - 2**(1-q) (a^2q + (2-a^2)^q + b^2q + (2-b^2)^q)] / mu(4, q)
      AB:   (1 - a^2q - b^2q) / (1 - 2**(1-q)), clamped at 0
      AC:   1

    theta may be a scalar (floats) or an array (arrays of its shape).
    """
    check_range(q, "need q >= 2, got {}", 2.0)
    theta = np.asarray(check_range(theta, _THETA))
    a2, b2 = np.square(np.cos(theta)), np.square(np.sin(theta))
    # np.power, not **, so that a scalar theta gives the bits of an array
    a2q, b2q = np.power(a2, q), np.power(b2, q)
    num = 4.0 - 2.0 ** (1.0 - q) * (a2q + np.power(2.0 - a2, q) + b2q + np.power(2.0 - b2, q))
    ct_ab = np.maximum(1.0 - a2q - b2q, 0.0) / (1.0 - 2.0 ** (1.0 - q))
    return _floats(theta, num / normalization_mu(4, q), ct_ab, np.ones_like(theta))


def chain_concurrence(theta):
    """Concurrence triple of the chain state: (sqrt(2 - b^4 - a^4), sqrt(2 - 2b^4 - 2a^4), 1).

    theta may be a scalar (floats) or an array (arrays of its shape).
    """
    theta = np.asarray(check_range(theta, _THETA))
    a4, b4 = np.power(np.cos(theta), 4), np.power(np.sin(theta), 4)
    c_cut = np.sqrt(np.maximum(0.0, 2.0 - b4 - a4))
    c_ab = np.sqrt(np.maximum(0.0, 2.0 - 2.0 * b4 - 2.0 * a4))
    return _floats(theta, c_cut, c_ab, np.ones_like(theta))


def chain_residual(triple, gamma: float):
    """Residual lhs**gamma - t1**gamma - t2**gamma of a (lhs, t1, t2) triple
    of floats or arrays, as :func:`chain_ctq` and :func:`chain_concurrence` give."""
    check_range(gamma, _GAMMA, 0.0, open_lo=True)
    lhs, t1, t2 = triple
    tau = np.power(lhs, gamma) - np.power(t1, gamma) - np.power(t2, gamma)
    return float(tau) if np.ndim(tau) == 0 else tau

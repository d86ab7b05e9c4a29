"""Entanglement measures built from the q-purity deficit and its dual.

For a bipartite pure state with squared Schmidt coefficients lam_1..lam_d,
the central quantity is the spectral functional

    d - sum_i lam_i**q - sum_i (1 - lam_i)**q          (q >= 2)

which sums the purity deficit 1 - tr(rho_A^q) and the dual deficit
tr(I - rho_A) - tr((I - rho_A)^q).  It vanishes exactly on product states
and attains its maximum mu(d, q) on maximally entangled states, which makes
mu the normalization constant of the measure.  A companion family with
exponent alpha in [0, 1/2] uses the reversed-sign construction.
"""

from __future__ import annotations

import numpy as np

from . import qlinalg
from .exceptions import CtqError, ExponentOutsideTheoremRange, check_range
from .states import DensityMatrix

_NEED_Q = "exponent q must be >= 2, got {}"


def normalization_mu(d: int, q: float) -> float:
    """Maximal value d - d**(1-q) * (1 + (d-1)**q) of the spectral functional."""
    if d < 2:
        raise CtqError(f"normalization needs d >= 2, got {d}")
    check_range(q, "normalization needs a finite q, got {}")
    return d - d ** (1.0 - q) * (1.0 + (d - 1.0) ** q)


def _spectrum_values(lam) -> np.ndarray:
    v = np.asarray(lam, dtype=float)
    if (v.ndim != 1 or v.size == 0 or not np.isfinite(v).all()
            or v.min() < -1e-12 or abs(v.sum() - 1.0) > 1e-9):
        raise CtqError("expected a probability vector")
    return np.clip(v, 0.0, 1.0)


def _clamp(x: float) -> float:
    return 0.0 if -1e-12 <= x < 0.0 else x


def q_concurrence_pure(lam, q: float) -> float:
    """Purity deficit 1 - sum_i lam_i**q of a Schmidt spectrum."""
    q = float(check_range(q, _NEED_Q, 2.0))
    v = _spectrum_values(lam)
    return _clamp(float(1.0 - np.sum(v**q)))


def total_concurrence_pure(lam, q: float) -> float:
    """Unnormalized d - sum lam**q - sum (1-lam)**q of a Schmidt spectrum of length d."""
    q = float(check_range(q, _NEED_Q, 2.0))
    v = _spectrum_values(lam)
    return _clamp(float(v.size - np.sum(v**q) - np.sum((1.0 - v) ** q)))


def ctq_pure(lam, q: float) -> float:
    """Normalized total concurrence of a Schmidt spectrum.

    The effective dimension is the spectrum's length, min(dA, dB) for a
    dA x dB state, so the normalization mu(min(dA, dB), q) makes the value 1
    exactly on maximally entangled states.
    """
    raw = total_concurrence_pure(lam, q)
    return _clamp(min(raw / normalization_mu(len(lam), q), 1.0 + 1e-12))


def ct_alpha_pure(lam, alpha: float) -> float:
    """Dual-exponent companion measure of a Schmidt spectrum, unnormalized.

    sum lam**alpha - 1 + sum (1-lam)**alpha - (d-1) with d the spectrum's
    length, with the convention 0**0 := 0 so that zero Schmidt
    coefficients never contribute (keeps products at exactly 0 for all
    alpha including alpha = 0).
    """
    check_range(alpha, "alpha must lie in [0, 1/2], got {}", 0.0, 0.5)
    alpha = min(max(alpha, 0.0), 0.5)
    v = _spectrum_values(lam)
    def pow0(x):
        # 0**0 := 0 convention: zero entries contribute nothing
        return np.where(x > 0.0, x, 1.0) ** alpha * (x > 0.0)

    val = float(np.sum(pow0(v)) - 1.0 + np.sum(pow0(1.0 - v)) - (v.size - 1.0))
    return _clamp(val)


def classical_total_c2(p) -> float:
    """Total 2-concurrence of a probability vector: 2 * sum_i p_i (1 - p_i)."""
    v = _spectrum_values(p)
    return float(2.0 * np.sum(v * (1.0 - v)))


def h_q(x: float, q: float) -> float:
    """Map a concurrence value in [0, 1] to the normalized qubit-side measure.

    h_q(x) = [1 - ((1+r)/2)**q - ((1-r)/2)**q] / (1 - 2**(1-q)) with
    r = sqrt(1 - x**2).  Reduces to x**2 at q = 2 and q = 3.
    """
    check_range(q, "h_q needs q > 1, got {}", 1.0, open_lo=True)
    check_range(x, "argument {} outside [0, 1]", 0.0, 1.0)
    x = min(max(x, 0.0), 1.0)
    r = np.sqrt(max(0.0, 1.0 - x * x))
    num = 1.0 - ((1.0 + r) / 2.0) ** q - ((1.0 - r) / 2.0) ** q
    return _clamp(float(num / (1.0 - 2.0 ** (1.0 - q))))


def concurrence_pure(lam) -> float:
    """sqrt(2 (1 - tr rho_A^2)) from a Schmidt spectrum."""
    v = _spectrum_values(lam)
    return float(np.sqrt(max(0.0, 2.0 * (1.0 - np.sum(v**2)))))


_SY_SY = np.kron(np.array([[0, -1j], [1j, 0]]), np.array([[0, -1j], [1j, 0]])).real


def wootters_concurrence_2qubit(rho: DensityMatrix | np.ndarray) -> float:
    """Spin-flip concurrence max(0, sqrt(r1) - sqrt(r2) - sqrt(r3) - sqrt(r4))."""
    if isinstance(rho, DensityMatrix):
        if rho.dims != (2, 2):
            raise CtqError(f"need a (2, 2) state, got dims {rho.dims}")
        R = rho.mat
    else:
        R = qlinalg.as_matrix(rho)
        if R.shape != (4, 4):
            raise CtqError(f"need a 4 x 4 matrix, got shape {R.shape}")
    tilde = _SY_SY @ R.conj() @ _SY_SY
    # eigenvalues of rho @ tilde via the Hermitian form sqrt(rho) tilde sqrt(rho),
    # which eigvalsh evaluates far more accurately near rank deficiency; noise-level
    # eigenvalues are zeroed first so the square root cannot amplify them
    w, V = np.linalg.eigh(qlinalg.hermitianize(R))
    w = np.clip(w, 0.0, None)
    w[w < 1e-14] = 0.0
    sqrt_rho = (V * np.sqrt(w)) @ V.conj().T
    H = sqrt_rho @ tilde @ sqrt_rho
    evals = np.clip(np.linalg.eigvalsh(qlinalg.hermitianize(H)), 0.0, None)
    evals[evals < evals.max() * 1e-13] = 0.0
    r = np.sort(np.sqrt(evals))[::-1]
    return max(0.0, float(r[0] - r[1] - r[2] - r[3]))


def ctq_two_qubit_mixed(rho: DensityMatrix, q: float) -> float:
    """Normalized measure of a two-qubit mixed state via its concurrence.

    Valid for 2 <= q <= 4, where the map h_q is monotone and convex so the
    convex roof collapses onto h_q of the spin-flip concurrence.
    """
    check_range(q, "closed form requires 2 <= q <= 4, got {}", 2.0, 4.0,
                error=ExponentOutsideTheoremRange)
    return h_q(wootters_concurrence_2qubit(rho), q)

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

from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import qlinalg
from .exceptions import (
    BadDimension,
    BadExponent,
    DomainError,
    ExponentOutsideTheoremRange,
    NotADistribution,
    WrongDimensions,
)
from .states import DensityMatrix, PureState, SchmidtSpectrum, schmidt_spectrum

# test seam: scale factor applied to the normalization constant, used by the
# acceptance runner's mutation smoke check; leave at 1.0 in normal operation
_MU_SCALE = 1.0


class Family(Enum):
    Q = "q"
    ALPHA = "alpha"


@dataclass(frozen=True)
class MeasureParams:
    family: Family
    exponent: float
    normalized: bool = True

    def __post_init__(self):
        if self.family is Family.Q and self.exponent < 2.0 - 1e-12:
            raise BadExponent(f"family Q requires exponent >= 2, got {self.exponent}")
        if self.family is Family.ALPHA and not -1e-12 <= self.exponent <= 0.5 + 1e-12:
            raise BadExponent(f"family ALPHA requires exponent in [0, 1/2], got {self.exponent}")


@dataclass(frozen=True)
class MeasureValue:
    value: float
    params: MeasureParams
    effective_dim: int

    def __post_init__(self):
        hi = 1.0 if self.params.normalized else normalization_mu(self.effective_dim, self.params.exponent)
        if not -1e-10 <= self.value <= hi + 1e-10:
            raise DomainError(f"measure value {self.value} outside [0, {hi}]")


def normalization_mu(d: int, q: float) -> float:
    """Maximal value d - d**(1-q) * (1 + (d-1)**q) of the spectral functional."""
    if d < 2:
        raise BadDimension(f"normalization needs d >= 2, got {d}")
    return (d - d ** (1.0 - q) * (1.0 + (d - 1.0) ** q)) * _MU_SCALE


def _spectrum_values(lam) -> np.ndarray:
    if isinstance(lam, SchmidtSpectrum):
        return lam.values
    v = np.asarray(lam, dtype=float)
    if v.ndim != 1 or v.min() < -1e-12 or abs(v.sum() - 1.0) > 1e-9:
        raise NotADistribution("expected a probability spectrum")
    return np.clip(v, 0.0, 1.0)


def _check_q(q: float) -> float:
    if q < 2.0 - 1e-12:
        raise BadExponent(f"exponent q must be >= 2, got {q}")
    return float(q)


def _clamp(x: float) -> float:
    return 0.0 if -1e-12 <= x < 0.0 else x


def q_concurrence_pure(lam, q: float) -> float:
    """Purity deficit 1 - sum_i lam_i**q of a Schmidt spectrum."""
    q = _check_q(q)
    v = _spectrum_values(lam)
    return _clamp(float(1.0 - np.sum(v**q)))


def total_concurrence_pure(lam, q: float, d: int | None = None) -> float:
    """Unnormalized d - sum lam**q - sum (1-lam)**q, spectrum padded to length d."""
    q = _check_q(q)
    v = _spectrum_values(lam)
    if d is None:
        d = v.size
    d = int(d)
    if d < v.size:
        if np.any(v[d:] > 1e-12):
            raise BadDimension(f"spectrum has {v.size} nonzero entries > d = {d}")
        v = v[:d]
    elif d > v.size:
        v = np.concatenate([v, np.zeros(d - v.size)])
    return _clamp(float(d - np.sum(v**q) - np.sum((1.0 - v) ** q)))


def ctq_pure(psi: PureState, q: float) -> MeasureValue:
    """Normalized total concurrence of a bipartite pure state.

    The effective dimension is min(dA, dB): the Schmidt spectrum has at most
    that many nonzero entries, so the normalization mu(min(dA, dB), q) makes
    the value 1 exactly on maximally entangled states.
    """
    q = _check_q(q)
    lam = schmidt_spectrum(psi)
    d = min(psi.dims)
    raw = total_concurrence_pure(lam, q, d)
    val = min(raw / normalization_mu(d, q), 1.0 + 1e-12)
    return MeasureValue(_clamp(val), MeasureParams(Family.Q, q, normalized=True), d)


def ct_alpha_pure(psi: PureState, alpha: float) -> float:
    """Dual-exponent companion measure, unnormalized.

    sum lam**alpha - 1 + sum (1-lam)**alpha - (d-1) on the effective-d
    spectrum, with the convention 0**0 := 0 so that zero Schmidt
    coefficients never contribute (keeps products at exactly 0 for all
    alpha including alpha = 0).
    """
    if not -1e-12 <= alpha <= 0.5 + 1e-12:
        raise BadExponent(f"alpha must lie in [0, 1/2], got {alpha}")
    alpha = min(max(alpha, 0.0), 0.5)
    lam = schmidt_spectrum(psi).values
    d = min(psi.dims)
    if lam.size < d:
        lam = np.concatenate([lam, np.zeros(d - lam.size)])
    def pow0(x):
        # 0**0 := 0 convention: zero entries contribute nothing
        return np.where(x > 0.0, x, 1.0) ** alpha * (x > 0.0)

    val = float(np.sum(pow0(lam)) - 1.0 + np.sum(pow0(1.0 - lam)) - (d - 1.0))
    return _clamp(val)


def classical_total_c2(p) -> float:
    """Total 2-concurrence of a probability vector: 2 * sum_i p_i (1 - p_i)."""
    v = np.asarray(p, dtype=float)
    if v.ndim != 1 or v.min() < -1e-12 or abs(v.sum() - 1.0) > 1e-9:
        raise NotADistribution("expected a probability vector")
    v = np.clip(v, 0.0, 1.0)
    return float(2.0 * np.sum(v * (1.0 - v)))


def h_q(x: float, q: float) -> float:
    """Map a concurrence value in [0, 1] to the normalized qubit-side measure.

    h_q(x) = [1 - ((1+r)/2)**q - ((1-r)/2)**q] / (1 - 2**(1-q)) with
    r = sqrt(1 - x**2).  Reduces to x**2 at q = 2 and q = 3.
    """
    if q <= 1.0:
        raise BadExponent(f"h_q needs q > 1, got {q}")
    if not -1e-12 <= x <= 1.0 + 1e-12:
        raise DomainError(f"argument {x} outside [0, 1]")
    x = min(max(x, 0.0), 1.0)
    r = np.sqrt(max(0.0, 1.0 - x * x))
    num = 1.0 - ((1.0 + r) / 2.0) ** q - ((1.0 - r) / 2.0) ** q
    return _clamp(float(num / (1.0 - 2.0 ** (1.0 - q))))


def concurrence_pure(psi: PureState) -> float:
    """sqrt(2 (1 - tr rho_A^2)) for a bipartite pure state."""
    lam = schmidt_spectrum(psi).values
    return float(np.sqrt(max(0.0, 2.0 * (1.0 - np.sum(lam**2)))))


_SY_SY = np.kron(np.array([[0, -1j], [1j, 0]]), np.array([[0, -1j], [1j, 0]])).real


def wootters_concurrence_2qubit(rho: DensityMatrix | np.ndarray) -> float:
    """Spin-flip concurrence max(0, sqrt(r1) - sqrt(r2) - sqrt(r3) - sqrt(r4))."""
    if isinstance(rho, DensityMatrix):
        if rho.dims != (2, 2):
            raise WrongDimensions(f"need a (2, 2) state, got dims {rho.dims}")
        R = rho.mat
    else:
        R = qlinalg.as_matrix(rho)
        if R.shape != (4, 4):
            raise WrongDimensions(f"need a 4 x 4 matrix, got shape {R.shape}")
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


def ctq_two_qubit_mixed(rho: DensityMatrix, q: float) -> MeasureValue:
    """Normalized measure of a two-qubit mixed state via its concurrence.

    Valid for 2 <= q <= 4, where the map h_q is monotone and convex so the
    convex roof collapses onto h_q of the spin-flip concurrence.
    """
    if not 2.0 - 1e-12 <= q <= 4.0 + 1e-12:
        raise ExponentOutsideTheoremRange(f"closed form requires 2 <= q <= 4, got {q}")
    c = wootters_concurrence_2qubit(rho)
    return MeasureValue(h_q(c, q), MeasureParams(Family.Q, q, normalized=True), 2)


def ctq_from_concurrence(c: float, q: float) -> float:
    """Qubit-qudit mixed-state value from a caller-supplied concurrence.

    No closed form exists for the concurrence itself beyond two qubits, so
    the caller provides it and this applies the same h_q map.
    """
    if not 2.0 - 1e-12 <= q <= 4.0 + 1e-12:
        raise ExponentOutsideTheoremRange(f"closed form requires 2 <= q <= 4, got {q}")
    return h_q(c, q)

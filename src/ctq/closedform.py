"""Closed-form measure curves for the noise-mixed state families.

For both families the measure of the mixed state reduces to the greatest
convex minorant co(zeta) of a one-parameter curve zeta: the minimum of the
pure-state measure over pure states with a fixed twirl image.

Two curve constructions live here and differ on purpose:

* :func:`convex_envelope` computes the true greatest convex minorant of a
  sampled curve (monotone-chain lower hull).  Its chords start at tangency
  points of the curve.
* :func:`isotropic_chord_params` reports the junction used by the tabulated
  case-form curves, which connect the point where the raw curve stops being
  convex (curvature sign change) to the endpoint F = 1.  That junction lies
  slightly to the right of the true tangency, so the case-form curve is a
  close over-approximation of the envelope on the chord stretch.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import sqrt

import numpy as np

from .exceptions import CtqError, check_range
from .measures import normalization_mu

# resolution of the sampled curves whose hulls give the isotropic and Werner
# envelopes; values on stretches where the envelope follows the curve are exact
ENVELOPE_STEP = 1e-4
_GRID = np.linspace(0.0, 1.0, int(round(1.0 / ENVELOPE_STEP)) + 1)
_GRID.setflags(write=False)
_NEED_Q = "need q >= 2, got {}"
_FIDELITY = "fidelity {} outside [0, 1]"
_MIXING = "mixing parameter {} outside [0, 1]"


def _vanish_at_or_below(val, x: np.ndarray, edge: float):
    """max(val, 0) where x > edge and exactly 0 elsewhere; a float for scalar x."""
    val = np.maximum(val, 0.0) * (x > edge)
    return float(val) if x.ndim == 0 else val


@dataclass(frozen=True)
class ChiSigma:
    """Two-level Schmidt parameters of the isotropic minimizer."""

    chi: float
    sigma: float


def _chi_sigma(F, d: int):
    """chi and sigma for fidelities F already clipped to [1/d, 1]."""
    root_f, rest, root_d = np.sqrt(F), 1.0 - F, sqrt(d)
    chi = (root_f + np.sqrt((d - 1.0) * rest)) / root_d
    sigma = np.maximum((root_f - np.sqrt(rest / (d - 1.0))) / root_d, 0.0)
    return chi, sigma


def chi_sigma(F: float, d: int) -> ChiSigma:
    """Closed-form two-level parameters for fidelity F >= 1/d.

    chi = (sqrt(F) + sqrt((d-1)(1-F))) / sqrt(d),
    sigma = (sqrt(F) - sqrt((1-F)/(d-1))) / sqrt(d); they satisfy
    chi**2 + (d-1) sigma**2 = 1 and chi + (d-1) sigma = sqrt(F d).
    """
    if d < 2:
        raise CtqError("d must be >= 2")
    check_range(F, "fidelity {} > 1", hi=1.0)
    check_range(F, f"fidelity {{}} below 1/d = {1.0/d:.6f}", 1.0 / d)
    chi, sigma = _chi_sigma(min(max(F, 1.0 / d), 1.0), d)
    return ChiSigma(float(chi), float(sigma))


def zeta_isotropic(F, q: float, d: int, normalized: bool = True):
    """Two-level pure-state measure at isotropic fidelity F.

    Zero for F <= 1/d; otherwise
    d - (chi**2q + (1-chi**2)**q) - (d-1)(sigma**2q + (1-sigma**2)**q), the
    value at the Schmidt profile (chi, sigma, ..., sigma).  It is the minimum
    over pure states of fidelity F for d = 2, and against the oracle for
    integer q <= 5 at d = 3, q <= 6 at d = 4 and q <= 7 at d = 5; above those
    exponents the oracle finds lower values towards F = 1.
    F may be a scalar (float result) or an array (array result).
    """
    check_range(q, _NEED_Q, 2.0)
    if d < 2:
        raise CtqError("d must be >= 2")
    F = check_range(F, _FIDELITY, 0.0, 1.0)
    chi, sigma = _chi_sigma(np.minimum(np.maximum(F, 1.0 / d), 1.0), d)
    c2, s2 = chi * chi, sigma * sigma
    # np.power, not **: a scalar F is a numpy scalar by now, whose ** calls the C
    # library's pow, which can differ in the last bit from the pow an array gets;
    # chi**2 can round above 1 next to F = 1/d
    chi_part = np.power(c2, q) + np.power(np.maximum(1.0 - c2, 0.0), q)
    sigma_part = np.power(s2, q) + np.power(1.0 - s2, q)
    val = d - chi_part - (d - 1.0) * sigma_part
    if normalized:
        val = val / normalization_mu(d, q)
    return _vanish_at_or_below(val, F, 1.0 / d)


def zeta_werner(w, q: float, normalized: bool = True):
    """Minimal pure-state measure over states with exchange weight w.

    Zero for w <= 1/2; otherwise 2 (1 - ((1+G)/2)**q - ((1-G)/2)**q) with
    G = 2 sqrt(w (1-w)).  In normalized units this equals h_q(2w - 1).
    w may be a scalar (float result) or an array (array result).
    """
    check_range(q, _NEED_Q, 2.0)
    w = check_range(w, _MIXING, 0.0, 1.0)
    wc = np.minimum(np.maximum(w, 0.5), 1.0)
    G = 2.0 * np.sqrt(wc * (1.0 - wc))
    # np.power, not **, as in zeta_isotropic
    val = 2.0 * (1.0 - np.power((1.0 + G) / 2.0, q) - np.power((1.0 - G) / 2.0, q))
    if normalized:
        val = val / normalization_mu(2, q)
    return _vanish_at_or_below(val, w, 0.5)


def _lower_hull_indices(x: np.ndarray, y: np.ndarray) -> list[int]:
    """Monotone-chain lower convex hull of points sorted by x."""
    idx: list[int] = []
    for i in range(x.size):
        while len(idx) >= 2:
            j, k = idx[-2], idx[-1]
            # drop k if it lies on or above the chord j -> i
            if (y[k] - y[j]) * (x[i] - x[j]) >= (y[i] - y[j]) * (x[k] - x[j]):
                idx.pop()
            else:
                break
        idx.append(i)
    return idx


def convex_envelope(grid, values) -> np.ndarray:
    """Greatest convex minorant of a curve sampled on an ascending grid, at
    the grid points."""
    g = np.asarray(grid, dtype=float)
    v = np.asarray(values, dtype=float)
    if g.ndim != 1 or g.shape != v.shape:
        raise CtqError("grid and values must be matching vectors")
    if g.size < 3:
        raise CtqError(f"need at least 3 grid points, got {g.size}")
    if np.any(np.diff(g) <= 0):
        raise CtqError("grid must be strictly ascending")
    hull = _lower_hull_indices(g, v)
    return np.interp(g, g[hull], v[hull])


def _hull(values: np.ndarray):
    """Vertices (x, value) of the lower hull of a curve sampled on the envelope
    grid, and per hull segment whether it joins neighbouring grid points, where
    the envelope follows the curve itself."""
    idx = np.asarray(_lower_hull_indices(_GRID, values))
    return _GRID[idx], values[idx], np.diff(idx) == 1


def _envelope(x: np.ndarray, zero_to: float, hull, curve):
    """Envelope at x: zero up to ``zero_to``, the exact ``curve`` where the
    hull follows it, and the hull chord elsewhere."""
    if x.ndim == 0 and x <= zero_to:
        return 0.0
    hx, hy, follows = hull
    s = np.minimum(np.searchsorted(hx, x, side="right") - 1, hx.size - 2)
    if x.ndim == 0:
        if follows[s]:
            return curve(x)
        t = (x - hx[s]) / (hx[s + 1] - hx[s])
        return float((1.0 - t) * hy[s] + t * hy[s + 1])
    t = (x - hx[s]) / (hx[s + 1] - hx[s])
    out = (1.0 - t) * hy[s] + t * hy[s + 1]
    zero = x <= zero_to
    exact = follows[s] & ~zero
    out[exact] = curve(x[exact])
    out[zero] = 0.0
    return out


@lru_cache(maxsize=32)
def _iso_hull(q: float, d: int):
    return _hull(zeta_isotropic(_GRID, q, d))


@lru_cache(maxsize=32)
def _werner_hull(q: float):
    return _hull(zeta_werner(_GRID, q))


def ctq_isotropic(F, q: float, d: int):
    """Measure of the isotropic state: convex envelope of the fidelity curve.

    Inside stretches where the envelope coincides with the raw curve the
    exact closed form is returned; on chord stretches the value is the
    linear interpolant between the exact values at the chord endpoints.
    F may be a scalar (float result) or an array (array result).
    """
    check_range(q, _NEED_Q, 2.0)
    F = np.minimum(check_range(F, _FIDELITY, 0.0, 1.0), 1.0)
    hull = _iso_hull(float(q), int(d))
    return _envelope(F, 1.0 / d, hull, lambda x: zeta_isotropic(x, q, d))


def ctq_werner(w, q: float):
    """Measure of the d = 2 exchange-invariant state: envelope of the w-curve.

    For 2 <= q <= 4 the raw curve h_q(2w - 1) is already convex, so the
    envelope coincides with it; larger q can bend it concave near w = 1,
    where the envelope is a chord ending there.
    w may be a scalar (float result) or an array (array result).
    """
    check_range(q, _NEED_Q, 2.0)
    w = np.minimum(check_range(w, _MIXING, 0.0, 1.0), 1.0)
    return _envelope(w, 0.5, _werner_hull(float(q)), lambda x: zeta_werner(x, q))


@dataclass(frozen=True)
class CaseChord:
    """Straight-segment parameters of the tabulated isotropic case curves."""

    junction: float
    slope: float
    intercept: float


def isotropic_chord_params(q: float, d: int) -> CaseChord | None:
    """Junction and chord of the case-form curve, or ``None`` if none is needed.

    The junction is the first envelope-grid fidelity at which the raw curve's
    second difference turns negative (curvature loss); the chord joins the
    curve there to the endpoint (1, 1).
    """
    v = zeta_isotropic(_GRID, q, d)
    d2 = v[2:] - 2.0 * v[1:-1] + v[:-2]
    interior = _GRID[1:-1]
    eligible = interior > 1.0 / d + 0.01
    neg = np.where(eligible & (d2 < 0.0))[0]
    if neg.size == 0:
        return None
    # start of the final contiguous concave run (isolated dips are noise)
    gaps = np.where(np.diff(neg) > 1)[0]
    i0 = int(neg[gaps[-1] + 1]) if gaps.size else int(neg[0])
    junction = float(interior[i0])
    slope = (1.0 - v[i0 + 1]) / (1.0 - junction)
    return CaseChord(junction=junction, slope=float(slope), intercept=float(1.0 - slope))


def eof_werner(w):
    """Entanglement of formation of the d = 2 exchange-invariant family.

    w may be a scalar (float result) or an array (array result).
    """
    w = check_range(w, _MIXING, 0.0, 1.0)
    C = np.minimum(2.0 * w - 1.0, 1.0)
    x = (1.0 + np.sqrt(np.maximum(0.0, 1.0 - C * C))) / 2.0
    live = (w > 0.5) & (x < 1.0 - 1e-15)  # at w -> 1/2 the entropy vanishes
    x = np.where(live, x, 0.5)
    val = np.where(live, -x * np.log2(x) - (1.0 - x) * np.log2(1.0 - x), 0.0)
    return float(val) if w.ndim == 0 else val


# -- independent constrained-minimization oracle ------------------------------


def _two_level_value(n: float, m: float, c: float, q: float) -> float:
    """Objective at the two-level profile (n copies of chi^2, m of sigma^2)."""
    R = n * m * (n + m - c * c)
    if R < 0:
        return np.inf
    chi = (n * c + np.sqrt(R)) / (n * (n + m))
    sig = (m * c - np.sqrt(R)) / (m * (n + m)) if m > 0 else 0.0
    if sig < -1e-12 or chi > 1.0 + 1e-12:
        return np.inf
    sig = max(sig, 0.0)
    chi = min(chi, 1.0)
    c2, s2 = chi * chi, sig * sig
    return float((n + m) - n * (c2**q + (1.0 - c2) ** q) - m * (s2**q + (1.0 - s2) ** q))


def _project_sum(Y: np.ndarray, c: float) -> np.ndarray:
    """Row-wise projection to the manifold {||y||_2 = 1, sum(y) = c, y >= 0}.

    The point normalize(y + t) with sum c is (c/d) 1 + sqrt(1 - c^2/d) u, u
    the centred part of y normalized (the sphere-hyperplane retraction);
    negative entries are clamped and the retraction repeated.
    """
    d = Y.shape[-1]
    if c >= np.sqrt(d) * (1.0 - 1e-12):  # only the uniform point is feasible
        return np.full_like(Y, 1.0 / np.sqrt(d))
    radius = np.sqrt(1.0 - c * c / d)
    Z = np.maximum(Y, 0.0)
    for _ in range(6):
        U = Z - Z.mean(axis=1, keepdims=True)
        Z = c / d + radius * U / np.linalg.norm(U, axis=1, keepdims=True)
        if Z.min() >= 0.0:
            break
        Z = np.maximum(Z, 0.0)
    return Z / np.linalg.norm(Z, axis=1, keepdims=True)


def _objective(Y: np.ndarray, q: float) -> np.ndarray:
    lam = np.clip(Y * Y, 0.0, 1.0)
    return Y.shape[-1] - np.sum(lam**q, axis=1) - np.sum((1.0 - lam) ** q, axis=1)


def _descend(Y: np.ndarray, c: float, q: float, iters: int = 150) -> float:
    """Batched projected-gradient descent; returns the lowest value found."""
    Y = Y.copy()
    B, d = Y.shape
    ones = np.ones(d)
    best = _objective(Y, q)
    eta = np.full(B, 0.1)
    for _ in range(iters):
        lam = np.clip(Y * Y, 0.0, 1.0)
        grad = -2.0 * q * Y ** (2 * q - 1) + 2.0 * q * Y * (1.0 - lam) ** (q - 1.0)
        u1 = Y / np.linalg.norm(Y, axis=1, keepdims=True)
        u2 = ones[None, :] - np.sum(u1, axis=1, keepdims=True) * u1
        n2 = np.linalg.norm(u2, axis=1, keepdims=True)
        u2 = np.where(n2 > 1e-12, u2 / np.maximum(n2, 1e-300), 0.0)
        grad = grad - np.sum(grad * u1, axis=1, keepdims=True) * u1
        grad = grad - np.sum(grad * u2, axis=1, keepdims=True) * u2
        pending = np.ones(B, dtype=bool)
        for _ in range(12):
            if not pending.any():
                break
            Z = _project_sum(Y[pending] - eta[pending, None] * grad[pending], c)
            fz = _objective(Z, q)
            ok = fz <= best[pending] + 1e-15
            idx = np.flatnonzero(pending)
            good, bad = idx[ok], idx[~ok]
            Y[good] = Z[ok]
            best[good] = fz[ok]
            eta[good] = np.minimum(eta[good] * 1.3, 0.5)
            eta[bad] *= 0.4
            pending[good] = False
            pending[eta < 1e-9] = False
    return float(best.min())


def oracle_min_schmidt(F: float, q: float, d: int, restarts: int = 100, seed: int = 1234) -> float:
    """Numerically minimize the unnormalized measure under the fidelity constraint.

    Minimizes d - sum lam**q - sum (1-lam)**q over spectra with sum(lam) = 1
    and (sum sqrt(lam))**2 = F d, by exhaustive search over two-level
    profiles (all integer splits (n, m)) refined with projected-gradient
    descent from random feasible interior points.  Independent of the
    closed-form chi/sigma expressions except through the shared constraint.
    """
    check_range(q, _NEED_Q, 2.0)
    if d < 2 or d > 5:
        raise CtqError(f"oracle supports 2 <= d <= 5, got {d}")
    check_range(F, "need 1/d < F <= 1, got F={}", 1.0 / d, 1.0, open_lo=True)
    c = np.sqrt(min(F, 1.0) * d)

    best = np.inf
    for n in range(1, d + 1):
        if n > c * c + 1e-12:
            break
        for m in range(0, d - n + 1):
            if n + m < c * c - 1e-12:
                continue
            if m == 0 and abs(n - c * c) > 1e-9:
                continue
            best = min(best, _two_level_value(float(n), float(m), c, q))

    rng = np.random.default_rng(seed)
    Y0 = np.abs(rng.standard_normal((restarts, d))) + 0.05
    Y0 /= np.linalg.norm(Y0, axis=1, keepdims=True)
    Y0 = _project_sum(Y0, c)
    best = min(best, _descend(Y0, c, q))
    return float(best)

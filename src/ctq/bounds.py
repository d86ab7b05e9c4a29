"""Trace-norm lower bounds and the exponent-monotonicity threshold.

The bound combines the partial-transpose and realignment trace norms: with
N = max(||rho^Gamma||_1, ||R(rho)||_1), a bipartite state on equal local
dimensions d satisfies (in normalized units)

    measure >= (N - 1)**2 / (d - 1)**2        for q >= 2, d >= 3  or q >= 4, d = 2
    measure >= (N - 1)**2 / (2 (1 - 2**(1-s)))  for s <= q < 4, d = 2

where s ~ 3.3396 is the qubit threshold above which the normalized measure
grows with the exponent q.  All outputs are in normalized units; multiply
by the normalization constant for raw units.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import log

from . import qlinalg
from .exceptions import (
    ExponentOrderViolated,
    ExponentOutsideTheoremRange,
    RootNotBracketed,
    UnequalLocalDims,
)
from .measures import normalization_mu
from .states import DensityMatrix

ENTANGLEMENT_WITNESS_TOL = 1e-9
_S_BRACKET = (3.0, 3.6)


@dataclass(frozen=True)
class BoundReport:
    ppt_norm: float
    realign_norm: float
    lower_bound: float
    q: float
    d: int
    entangled_by_ppt: bool
    entangled_by_realignment: bool


def stationary_second_derivative(q: float, d: int) -> float:
    """Curvature of the exponent-monotonicity functional at the uniform spectrum.

    The normalized measure, viewed as a function of the exponent q, is
    stationary in the spectrum at the maximally entangled point lam_i = 1/d.
    This evaluates the second derivative there; a nonnegative value
    certifies that point as a minimum, so the measure cannot decrease with
    q.  For d = 2 the sign changes at q = s ~ 3.3396; for d >= 3 it is
    nonnegative for all q >= 2.
    """
    if q <= 1.0 or d < 2:
        raise ExponentOutsideTheoremRange(f"need q > 1 and d >= 2, got q={q}, d={d}")
    x = 1.0 / d
    K = d**q - (d - 1.0) ** q - 1.0
    gpp = q * (q - 1.0) * x ** (q - 2.0) * log(x) + (2.0 * q - 1.0) * x ** (q - 2.0)
    A = (d - 1.0) ** q * (log(d) - log(d - 1.0)) + log(d)
    return -K * gpp + d ** (1.0 - q) * A * q * (q - 1.0) * x ** (q - 2.0) * (d - 1.0) ** q


@lru_cache(maxsize=1)
def s_threshold() -> float:
    """Qubit exponent threshold: root of the stationary curvature for d = 2.

    Found by bisection on the fixed bracket (3.0, 3.6) to |dq| <= 1e-6.
    """
    lo, hi = _S_BRACKET
    flo, fhi = stationary_second_derivative(lo, 2), stationary_second_derivative(hi, 2)
    if flo * fhi > 0:
        raise RootNotBracketed(f"no sign change on [{lo}, {hi}]")
    while hi - lo > 1e-9:
        mid = 0.5 * (lo + hi)
        if stationary_second_derivative(mid, 2) * flo > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _check_regime(q: float, d: int) -> None:
    if d >= 3:
        if q < 2.0 - 1e-12:
            raise ExponentOutsideTheoremRange(f"need q >= 2 for d >= 3, got q={q}")
    else:
        if q < s_threshold() - 1e-12:
            raise ExponentOutsideTheoremRange(
                f"for d = 2 the bound requires q >= s = {s_threshold():.5f}, got q={q}"
            )


def lower_bound_thm2(rho: DensityMatrix, q: float) -> BoundReport:
    """Trace-norm lower bound on the normalized measure of a bipartite state."""
    if len(rho.dims) != 2 or rho.dims[0] != rho.dims[1]:
        raise UnequalLocalDims(f"bound requires equal local dimensions, got {rho.dims}")
    d = rho.dims[0]
    _check_regime(q, d)
    ppt = qlinalg.trace_norm(qlinalg.partial_transpose(rho.mat, rho.dims))
    rea = qlinalg.trace_norm(qlinalg.realign(rho.mat, rho.dims))
    N = max(ppt, rea)
    if d >= 3 or q >= 4.0 - 1e-12:
        bound = (N - 1.0) ** 2 / (d - 1.0) ** 2
    else:
        s = s_threshold()
        bound = (N - 1.0) ** 2 / (2.0 * (1.0 - 2.0 ** (1.0 - s)))
    return BoundReport(
        ppt_norm=ppt,
        realign_norm=rea,
        lower_bound=max(0.0, bound),
        q=float(q),
        d=d,
        entangled_by_ppt=ppt > 1.0 + ENTANGLEMENT_WITNESS_TOL,
        entangled_by_realignment=rea > 1.0 + ENTANGLEMENT_WITNESS_TOL,
    )


def corollary1_bound(ct_h: float, q: float, h: float, d: int) -> float:
    """Exponent-monotonicity lower bound mu(d, q) / mu(d, h) * ct_h (raw units).

    Requires q >= h, with h >= s for d = 2 and h >= 2 for d >= 3 (the regime
    in which the normalized measure is nondecreasing in the exponent).
    """
    if q < h - 1e-12:
        raise ExponentOrderViolated(f"need q >= h, got q={q} < h={h}")
    if d >= 3:
        if h < 2.0 - 1e-12:
            raise ExponentOrderViolated(f"need h >= 2 for d >= 3, got h={h}")
    elif h < s_threshold() - 1e-12:
        raise ExponentOrderViolated(
            f"for d = 2 the bound requires h >= s = {s_threshold():.5f}, got h={h}"
        )
    return normalization_mu(d, q) / normalization_mu(d, h) * ct_h


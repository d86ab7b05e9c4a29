"""Exception types raised by the library, and the one range check that raises them.

Every invalid input raises :class:`CtqError`.  Its two subclasses mark the
cases in which ``ctq measure`` falls back to reporting the trace-norm bound.
"""

from math import inf, isfinite

import numpy as np


class CtqError(ValueError):
    """Invalid input: a parameter, dimension, state or file the library refuses."""


class ExponentOutsideTheoremRange(CtqError):
    """Exponent outside the range in which a closed form or bound holds."""


class UnequalLocalDims(CtqError):
    """Bound requires equal local dimensions."""


def check_range(x, message: str, lo: float = -inf, hi: float = inf, *, open_lo: bool = False,
                slack: float = 1e-12, error: type = CtqError) -> np.ndarray:
    """``x`` as a numpy float or array, checked to be finite and to lie in [lo, hi].

    Closed ends admit ``slack`` beyond them; with ``open_lo`` the lower end is
    open, x > lo, with no slack.  An array is checked element-wise.
    Otherwise raises ``error(message.format(x))``.
    """
    if isinstance(x, (float, int)):  # a Python comparison costs a tenth of the array path
        v = float(x)
        a = np.float64(v)
        inside = (v > lo if open_lo else v >= lo - slack) and v <= hi + slack and isfinite(v)
    else:
        a = np.asarray(x, dtype=float)
        above = a > lo if open_lo else a >= lo - slack
        inside = (above & (a <= hi + slack)).all() and np.isfinite(a).all()
    if not inside:
        raise error(message.format(x))
    return a

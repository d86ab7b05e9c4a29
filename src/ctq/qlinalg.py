"""Dense complex-matrix primitives.

Spectra, trace norm, partial trace, partial transpose and realignment for
small (dimension <= ~64) density matrices stored as plain numpy arrays in
row-major order.  All functions are pure and never mutate their inputs.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .exceptions import CtqError

HERMITICITY_TOL = 1e-10
EIGENVALUE_CLIP = 1e-12


def as_matrix(M) -> np.ndarray:
    """Validate and return ``M`` as a 2-D complex array with finite entries."""
    A = np.asarray(M, dtype=complex)
    if A.ndim != 2:
        raise CtqError(f"expected a 2-D matrix, got ndim={A.ndim}")
    if not np.all(np.isfinite(A.view(float))):
        raise CtqError("matrix contains NaN or Inf entries")
    return A


def hermitianize(M: np.ndarray) -> np.ndarray:
    """Return the Hermitian part (M + M^dagger) / 2."""
    return (M + M.conj().T) / 2


def hermitian_spectrum(M) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix, sorted descending.

    The input is symmetrized before diagonalization to suppress round-off;
    deviations from Hermiticity beyond ``HERMITICITY_TOL`` (max entry of
    |M - M^dagger|) are rejected.
    """
    A = as_matrix(M)
    if A.shape[0] != A.shape[1]:
        raise CtqError(f"matrix has shape {A.shape}")
    dev = np.max(np.abs(A - A.conj().T))
    if dev > HERMITICITY_TOL:
        raise CtqError(f"max |M - M^dagger| = {dev:.3e} exceeds {HERMITICITY_TOL}")
    w = np.linalg.eigvalsh(hermitianize(A))
    return np.sort(w)[::-1]


def probability_spectrum(M) -> np.ndarray:
    """Descending eigenvalues of a density-like matrix, cleaned for powering.

    Magnitudes below ``EIGENVALUE_CLIP`` are zeroed and the result is clipped
    to [0, 1], so fractional powers x**a and (1-x)**a never see tiny
    negatives.
    """
    w = hermitian_spectrum(M)
    w[np.abs(w) < EIGENVALUE_CLIP] = 0.0
    return np.clip(w, 0.0, 1.0)


def trace_norm(M) -> float:
    """Trace norm ||M||_1 = sum of singular values."""
    A = as_matrix(M)
    return float(np.sum(np.linalg.svd(A, compute_uv=False)))


def _check_bipartite(rho: np.ndarray, dims: Sequence[int]) -> tuple[int, int]:
    if len(dims) != 2:
        raise CtqError(f"expected a bipartite signature, got {tuple(dims)}")
    dA, dB = int(dims[0]), int(dims[1])
    if dA < 1 or dB < 1:
        raise CtqError("subsystem dimensions must be positive")
    n = dA * dB
    if rho.shape != (n, n):
        raise CtqError(f"matrix shape {rho.shape} != ({n}, {n}) for dims {tuple(dims)}")
    return dA, dB


def partial_transpose(rho, dims: Sequence[int]) -> np.ndarray:
    """Partial transpose on the second subsystem.

    Entry (i*dB + l, k*dB + j) of the output equals entry
    (i*dB + j, k*dB + l) of the input.  Involutive.
    """
    A = as_matrix(rho)
    dA, dB = _check_bipartite(A, dims)
    T = A.reshape(dA, dB, dA, dB)
    return T.transpose(0, 3, 2, 1).reshape(dA * dB, dA * dB)


def realign(rho, dims: Sequence[int]) -> np.ndarray:
    """Realigned matrix of shape (dA^2, dB^2).

    Entry (i*dA + k, j*dB + l) of the output equals entry
    (i*dB + j, k*dB + l) of the input.  Rows are indexed by the pair (i, k)
    of row indices, columns by the pair (j, l) of column indices; either
    convention yields the same singular values, this one is fixed for file
    round-trips.
    """
    A = as_matrix(rho)
    dA, dB = _check_bipartite(A, dims)
    T = A.reshape(dA, dB, dA, dB)
    return T.transpose(0, 2, 1, 3).reshape(dA * dA, dB * dB)


def partial_trace(rho, dims: Sequence[int], keep: Sequence[int]) -> np.ndarray:
    """Trace out every subsystem not listed in ``keep``.

    ``keep`` holds subsystem indices (0-based, order-preserving).  Trace,
    Hermiticity and positivity are preserved.
    """
    A = as_matrix(rho)
    dims = tuple(int(d) for d in dims)
    n = int(np.prod(dims))
    if A.shape != (n, n):
        raise CtqError(f"matrix shape {A.shape} != ({n}, {n}) for dims {dims}")
    keep = sorted(set(int(k) for k in keep))
    if not keep:
        raise CtqError("keep set must contain at least one subsystem")
    if keep[0] < 0 or keep[-1] >= len(dims):
        raise CtqError(f"keep indices {keep} out of range for {len(dims)} subsystems")

    nsys = len(dims)
    T = A.reshape(dims + dims)
    sym = "abcdefghijklmnopqrstuvwxyz"
    row = [sym[i] for i in range(nsys)]
    col = [sym[nsys + i] if i in keep else sym[i] for i in range(nsys)]
    out = "".join(row[k] for k in keep) + "".join(sym[nsys + k] for k in keep)
    T = np.einsum("".join(row) + "".join(col) + "->" + out, T)
    dkeep = int(np.prod([dims[i] for i in keep]))
    return T.reshape(dkeep, dkeep)

"""Constructors and decompositions for the state families used in the library.

Pure states are normalized complex amplitude vectors annotated with a
subsystem dimension signature; density matrices are Hermitian, positive
semidefinite, unit-trace operators.  Construction validates the invariants
once, after which the wrapped arrays are immutable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import qlinalg
from .exceptions import CtqError, check_range

NORM_TOL = 1e-10
INPUT_SLACK = 1e-6


def _check_dims(dims: Sequence[int]) -> tuple[int, ...]:
    dims = tuple(int(d) for d in dims)
    if not dims or any(d < 1 for d in dims):
        raise CtqError(f"invalid dimension signature {dims}")
    return dims


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


def _checked_amps(amps: np.ndarray, dims: tuple[int, ...], what: str) -> np.ndarray:
    """``amps`` made read-only, once checked to be finite, unit-norm and of the
    length the signature asks for."""
    if amps.shape != (int(np.prod(dims)),):
        raise CtqError("amplitude length does not match signature")
    if not np.isfinite(amps).all():
        raise CtqError(f"{what} amplitudes must be finite")
    if abs(np.linalg.norm(amps) - 1.0) > NORM_TOL:
        raise CtqError(f"{what} amplitudes not normalized")
    return _frozen(amps)


@dataclass(frozen=True)
class PureState:
    """Bipartite pure state: amplitudes of length dims[0] * dims[1]."""

    dims: tuple[int, ...]
    amps: np.ndarray = field(repr=False)

    def __post_init__(self):
        if len(self.dims) != 2:
            raise CtqError(f"PureState needs a bipartite signature, got {self.dims}")
        object.__setattr__(self, "amps", _checked_amps(self.amps, self.dims, "pure state"))

    def density(self) -> np.ndarray:
        return np.outer(self.amps, self.amps.conj())

    def amplitude_matrix(self) -> np.ndarray:
        return self.amps.reshape(self.dims)


@dataclass(frozen=True)
class MultipartiteState:
    """Pure state over three or more subsystems."""

    dims: tuple[int, ...]
    amps: np.ndarray = field(repr=False)

    def __post_init__(self):
        if len(self.dims) < 3:
            raise CtqError(f"MultipartiteState needs >= 3 parts, got {self.dims}")
        object.__setattr__(self, "amps", _checked_amps(self.amps, self.dims, "state"))

    def density(self) -> np.ndarray:
        return np.outer(self.amps, self.amps.conj())

    def split_first(self) -> PureState:
        """View as bipartite: first subsystem versus the rest."""
        rest = int(np.prod(self.dims[1:]))
        return PureState((self.dims[0], rest), self.amps.copy())

    def marginal(self, keep: Sequence[int]) -> np.ndarray:
        """Reduced density of the subsystems in ``keep``, taken in ascending
        order: M M^dagger, M the amplitudes as a (kept, traced-out) matrix."""
        keep = sorted(set(int(k) for k in keep))
        if not keep:
            raise CtqError("keep set must contain at least one subsystem")
        if keep[0] < 0 or keep[-1] >= len(self.dims):
            raise CtqError(f"keep indices {keep} out of range for dims {self.dims}")
        rest = [i for i in range(len(self.dims)) if i not in keep]
        M = np.transpose(self.amps.reshape(self.dims), keep + rest)
        M = M.reshape(int(np.prod([self.dims[i] for i in keep])), -1)
        return M @ M.conj().T


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, PSD, unit-trace operator with a dimension signature."""

    dims: tuple[int, ...]
    mat: np.ndarray = field(repr=False)

    def __post_init__(self):
        n = int(np.prod(self.dims))
        if self.mat.shape != (n, n):
            raise CtqError(f"matrix shape {self.mat.shape} != ({n}, {n})")
        if not np.isfinite(self.mat).all():
            raise CtqError("density matrix has non-finite entries")
        if np.max(np.abs(self.mat - self.mat.conj().T)) > qlinalg.HERMITICITY_TOL:
            raise CtqError("density matrix not Hermitian within tolerance")
        w = np.linalg.eigvalsh(qlinalg.hermitianize(self.mat))
        if w.min() < -1e-10:
            raise CtqError(f"density matrix has eigenvalue {w.min():.3e} < -1e-10")
        if abs(np.trace(self.mat).real - 1.0) > NORM_TOL:
            raise CtqError("density matrix trace differs from 1")
        object.__setattr__(self, "mat", _frozen(self.mat))


def pure_from_amplitudes(amps, dims: Sequence[int]) -> PureState | MultipartiteState:
    """Build a pure state, renormalizing inputs within 1e-6 of unit norm."""
    dims = _check_dims(dims)
    a = np.asarray(amps, dtype=complex).ravel()
    if a.size != int(np.prod(dims)):
        raise CtqError(f"{a.size} amplitudes for signature {dims}")
    norm = np.linalg.norm(a)
    if norm < 1e-12:
        raise CtqError("amplitude vector has zero norm")
    if abs(norm - 1.0) > INPUT_SLACK * (1.0 + 1e-9):
        raise CtqError(f"norm {norm:.8f} deviates from 1 by more than {INPUT_SLACK}")
    if not np.isfinite(norm):  # a NaN entry passes the comparisons above
        raise CtqError("amplitudes must be finite")
    a = a / norm
    if len(dims) == 2:
        return PureState(dims, a)
    return MultipartiteState(dims, a)


def schmidt_spectrum(psi: PureState) -> np.ndarray:
    """Squared singular values of the dA x dB amplitude matrix: a read-only
    array, descending and summing to one."""
    s = np.linalg.svd(psi.amplitude_matrix(), compute_uv=False)
    lam = s * s
    lam[np.abs(lam) < qlinalg.EIGENVALUE_CLIP] = 0.0
    lam = np.clip(lam, 0.0, 1.0)
    lam = np.sort(lam)[::-1]
    # exact renormalization guards against accumulated SVD round-off
    return _frozen(lam / lam.sum())


def max_entangled(d: int) -> PureState:
    """|Phi+> = sum_k |kk> / sqrt(d)."""
    a = np.zeros(d * d, dtype=complex)
    a[:: d + 1] = 1.0 / np.sqrt(d)
    return PureState((d, d), a)


def isotropic(F: float, d: int) -> DensityMatrix:
    """Mixture of the maximally entangled state (weight by fidelity F) and noise."""
    check_range(F, "fidelity {} outside [0, 1]", 0.0, 1.0, slack=0.0)
    if d < 2:
        raise CtqError("d must be >= 2")
    P = max_entangled(d).density()
    I = np.eye(d * d)
    rho = (1.0 - F) / (d * d - 1.0) * (I - P) + F * P
    return DensityMatrix((d, d), rho)


def _swap(d: int) -> np.ndarray:
    """Swap operator S |i j> = |j i> on C^d x C^d."""
    return np.eye(d * d).reshape(d, d, d, d).transpose(0, 1, 3, 2).reshape(d * d, d * d)


def antisymmetric_projector(d: int) -> np.ndarray:
    """Projector (I - S) / 2 onto the antisymmetric subspace of C^d x C^d."""
    return (np.eye(d * d) - _swap(d)) / 2.0


def werner(w: float, d: int) -> DensityMatrix:
    """Exchange-invariant state with antisymmetric-subspace weight ``w``:
    (1 - w) (I + S) / (d (d + 1)) + w (I - S) / (d (d - 1))."""
    check_range(w, "mixing parameter {} outside [0, 1]", 0.0, 1.0, slack=0.0)
    if d < 2:
        raise CtqError("d must be >= 2")
    I, S = np.eye(d * d), _swap(d)
    rho = (1.0 - w) * (I + S) / (d * (d + 1.0)) + w * (I - S) / (d * (d - 1.0))
    return DensityMatrix((d, d), rho)


def chain_state(theta: float) -> MultipartiteState:
    """Two elementary entangled pairs arranged in a chain, as a 4 x 2 x 2 state.

    (alpha|000> + beta|110> + alpha|201> + beta|311>) / sqrt(2) with
    alpha = cos(theta), beta = sin(theta).
    """
    alpha, beta = np.cos(theta), np.sin(theta)
    a = np.zeros(16, dtype=complex)
    # flat index = 4*A + 2*B + C for dims (4, 2, 2)
    a[4 * 0 + 2 * 0 + 0] = alpha  # |0,0,0>
    a[4 * 1 + 2 * 1 + 0] = beta   # |1,1,0>
    a[4 * 2 + 2 * 0 + 1] = alpha  # |2,0,1>
    a[4 * 3 + 2 * 1 + 1] = beta   # |3,1,1>
    a /= np.sqrt(2.0)
    return MultipartiteState((4, 2, 2), a)


def gen_schmidt_3qubit(nu: Sequence[float], phi: float = 0.0) -> MultipartiteState:
    """Three-qubit state nu0|000> + nu1 e^{i phi}|100> + nu2|101> + nu3|110> + nu4|111>."""
    nu = np.asarray(nu, dtype=float)
    if nu.shape != (5,):
        raise CtqError("expected 5 coefficients")
    if np.any(nu < 0):
        raise CtqError("coefficients must be nonnegative")
    ssq = float(np.sum(nu**2))
    if abs(ssq - 1.0) > INPUT_SLACK:
        raise CtqError(f"sum of squares {ssq:.8f} deviates from 1")
    nu = nu / np.sqrt(ssq)
    a = np.zeros(8, dtype=complex)
    a[0b000] = nu[0]
    a[0b100] = nu[1] * np.exp(1j * phi)
    a[0b101] = nu[2]
    a[0b110] = nu[3]
    a[0b111] = nu[4]
    return MultipartiteState((2, 2, 2), a)


def random_pure(dims: Sequence[int], seed: int) -> PureState | MultipartiteState:
    """Haar-distributed pure state: normalized complex Gaussian vector."""
    dims = _check_dims(dims)
    rng = np.random.default_rng(seed)
    n = int(np.prod(dims))
    a = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    a /= np.linalg.norm(a)
    if len(dims) == 2:
        return PureState(dims, a)
    if len(dims) == 1:
        raise CtqError("need at least two subsystems")
    return MultipartiteState(dims, a)


def random_density(dims: Sequence[int], rank: int, seed: int) -> DensityMatrix:
    """Trace-normalized Wishart matrix G G^dagger of the given rank."""
    dims = _check_dims(dims)
    n = int(np.prod(dims))
    if rank < 1 or rank > n:
        raise CtqError(f"rank {rank} invalid for dimension {n}")
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank))
    rho = G @ G.conj().T
    rho /= np.trace(rho).real
    return DensityMatrix(dims, qlinalg.hermitianize(rho))


# -- state file format: {"dims": [...], "kind": "pure"|"density", "re": [...], "im": [...]}


def state_to_dict(state) -> dict:
    if isinstance(state, (PureState, MultipartiteState)):
        arr, kind = state.amps, "pure"
    elif isinstance(state, DensityMatrix):
        arr, kind = state.mat.ravel(), "density"
    else:
        raise CtqError(f"cannot serialize object of type {type(state).__name__}")
    return {
        "dims": list(state.dims),
        "kind": kind,
        "re": arr.real.tolist(),
        "im": arr.imag.tolist(),
    }


def state_from_dict(obj: dict):
    try:
        dims = _check_dims(obj["dims"])
        kind = obj["kind"]
        data = np.asarray(obj["re"], dtype=float) + 1j * np.asarray(obj["im"], dtype=float)
    except (KeyError, TypeError) as exc:
        raise CtqError(f"malformed state object: {exc}") from exc
    if kind == "pure":
        return pure_from_amplitudes(data, dims)
    if kind == "density":
        n = int(np.prod(dims))
        if data.size != n * n:
            raise CtqError(f"{data.size} entries for a {n} x {n} density matrix")
        return DensityMatrix(dims, data.reshape(n, n))
    raise CtqError(f"unknown state kind {kind!r}")


def save_state(state, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(state_to_dict(state), fh)


def load_state(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CtqError(f"cannot read state file {path}: {exc}") from exc
    return state_from_dict(obj)

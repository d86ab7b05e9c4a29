"""Reference computations for checking ctq's outputs, written apart from ctq.

Every formula here is taken from the paper's closed forms or from a
textbook definition and evaluated with plain numpy, so a fault in ctq's own
implementation of the same quantity shows as a mismatch.  Nothing here
imports ctq.
"""

from __future__ import annotations

import numpy as np

SIGMA_Y2 = np.kron(np.array([[0, -1j], [1j, 0]]), np.array([[0, -1j], [1j, 0]]))


def mu(d: int, q: float) -> float:
    """Largest value d - d**(1-q) (1 + (d-1)**q) of the unnormalized measure."""
    return d - d ** (1.0 - q) * (1.0 + (d - 1.0) ** q)


def spectral(lam, q: float, d: int) -> float:
    """Unnormalized measure d - sum lam**q - sum (1-lam)**q, lam padded to d."""
    lam = np.clip(np.asarray(lam, dtype=float), 0.0, 1.0)
    lam = np.concatenate([lam, np.zeros(d - lam.size)])
    return float(d - np.sum(lam**q) - np.sum((1.0 - lam) ** q))


def h_q(x: float, q: float) -> float:
    """Normalized qubit measure of concurrence x: (1 - a**q - b**q) / (1 - 2**(1-q))."""
    r = np.sqrt(max(0.0, 1.0 - x * x))
    return float((1.0 - ((1.0 + r) / 2.0) ** q - ((1.0 - r) / 2.0) ** q) / (1.0 - 2.0 ** (1.0 - q)))


def zeta_isotropic(F: float, q: float, d: int) -> float:
    """Normalized two-level (chi, sigma) curve of the isotropic family; 0 for F <= 1/d."""
    if F <= 1.0 / d:
        return 0.0
    chi = (np.sqrt(F) + np.sqrt((d - 1.0) * (1.0 - F))) / np.sqrt(d)
    sigma = max(0.0, (np.sqrt(F) - np.sqrt((1.0 - F) / (d - 1.0))) / np.sqrt(d))
    c2, s2 = min(chi * chi, 1.0), sigma * sigma
    val = d - c2**q - (1.0 - c2) ** q - (d - 1.0) * (s2**q + (1.0 - s2) ** q)
    return max(0.0, float(val)) / mu(d, q)


def zeta_werner(w: float, q: float) -> float:
    """Normalized Werner curve 2 (1 - ((1+G)/2)**q - ((1-G)/2)**q) / mu, G = 2 sqrt(w (1-w))."""
    if w <= 0.5:
        return 0.0
    G = 2.0 * np.sqrt(w * (1.0 - w))
    return max(0.0, 2.0 * (1.0 - ((1.0 + G) / 2.0) ** q - ((1.0 - G) / 2.0) ** q)) / mu(2, q)


def binary_entropy(x: float) -> float:
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return float(-x * np.log2(x) - (1.0 - x) * np.log2(1.0 - x))


def eof_from_concurrence(c: float) -> float:
    """Entanglement of formation of a two-qubit state with concurrence c."""
    return binary_entropy((1.0 + np.sqrt(max(0.0, 1.0 - c * c))) / 2.0)


def schmidt_lambdas(amps, dims) -> np.ndarray:
    """Squared singular values of the dA x dB amplitude matrix."""
    s = np.linalg.svd(np.asarray(amps).reshape(dims), compute_uv=False)
    return s * s


def pure_value(amps, dims, q: float) -> float:
    """Normalized measure of a bipartite pure state, from numpy's SVD."""
    d = min(dims)
    return spectral(schmidt_lambdas(amps, dims), q, d) / mu(d, q)


def wootters(rho) -> float:
    """Two-qubit concurrence from the eigenvalues of rho (sy x sy) rho* (sy x sy)."""
    rho = np.asarray(rho)
    ev = np.linalg.eigvals(rho @ SIGMA_Y2 @ rho.conj() @ SIGMA_Y2)
    r = np.sort(np.sqrt(np.clip(ev.real, 0.0, None)))[::-1]
    return max(0.0, float(r[0] - r[1] - r[2] - r[3]))


def ppt_norm(rho, d: int) -> float:
    """Trace norm of the partial transpose on the second factor (it is Hermitian)."""
    T = np.asarray(rho).reshape(d, d, d, d).transpose(0, 3, 2, 1).reshape(d * d, d * d)
    return float(np.sum(np.abs(np.linalg.eigvalsh(T))))


def realign_norm(rho, d: int) -> float:
    """Trace norm of the realigned matrix R[(i,k),(j,l)] = rho[(i,j),(k,l)]."""
    T = np.asarray(rho).reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)
    return float(np.sum(np.linalg.svd(T, compute_uv=False)))


def trace_norm_bound(N: float, d: int) -> float:
    """Normalized lower bound (N - 1)**2 / (d - 1)**2 for d >= 3 or q >= 4."""
    return max(0.0, N - 1.0) ** 2 / (d - 1.0) ** 2


def chain_amplitudes(theta: float) -> np.ndarray:
    """(a|000> + b|110> + a|201> + b|311>) / sqrt(2) as a 4 x 2 x 2 tensor."""
    a, b = np.cos(theta), np.sin(theta)
    psi = np.zeros((4, 2, 2))
    psi[0, 0, 0] = psi[2, 0, 1] = a
    psi[1, 1, 0] = psi[3, 1, 1] = b
    return psi / np.sqrt(2.0)


def chain_a_bc(theta: float, q: float) -> float:
    """Normalized measure of the chain state across the A | BC cut."""
    return pure_value(chain_amplitudes(theta).ravel(), (4, 4), q)


def qubit_tensor(amps, k: int) -> np.ndarray:
    return np.asarray(amps).reshape((2,) * k)


def first_qubit_concurrence(amps, k: int) -> float:
    """sqrt(2 (1 - tr rho_A**2)) of the first qubit's marginal."""
    psi = qubit_tensor(amps, k)
    rest = list(range(1, k))
    rho_a = np.tensordot(psi, psi.conj(), axes=(rest, rest))
    purity = float(np.real(np.trace(rho_a @ rho_a)))
    return float(np.sqrt(max(0.0, 2.0 * (1.0 - purity))))


def pair_marginal(amps, k: int, i: int) -> np.ndarray:
    """Two-qubit marginal of qubits 0 and i, as a 4 x 4 matrix."""
    psi = qubit_tensor(amps, k)
    rest = [j for j in range(1, k) if j != i]
    rho = np.tensordot(psi, psi.conj(), axes=(rest, rest))
    return rho.reshape(4, 4)

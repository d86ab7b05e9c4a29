import numpy as np
import pytest

from ctq.states import MultipartiteState, PureState


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def haar_pure(dims, rng):
    n = int(np.prod(dims))
    a = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    a /= np.linalg.norm(a)
    cls = PureState if len(dims) == 2 else MultipartiteState
    return cls(tuple(dims), a)


def random_unitary(d, rng):
    """Haar-random unitary via QR of a complex Gaussian matrix."""
    Z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    Q, R = np.linalg.qr(Z)
    return Q * (np.diagonal(R) / np.abs(np.diagonal(R)))

import numpy as np
import pytest

from ctq import qlinalg
from ctq.exceptions import CtqError
from ctq.states import chain_state, max_entangled, random_density

from conftest import haar_pure, random_unitary

BELL = max_entangled(2)


def test_spectrum_identity():
    assert np.allclose(qlinalg.hermitian_spectrum(np.eye(3)), [1, 1, 1])


def test_spectrum_diagonal():
    assert np.allclose(qlinalg.hermitian_spectrum(np.diag([0.3, 0.7])), [0.7, 0.3])


def test_spectrum_bell_marginal():
    rho_a = qlinalg.partial_trace(BELL.density(), (2, 2), [0])
    assert np.allclose(qlinalg.hermitian_spectrum(rho_a), [0.5, 0.5])


def test_spectrum_errors():
    with pytest.raises(CtqError, match=r"matrix has shape \(2, 3\)"):
        qlinalg.hermitian_spectrum(np.ones((2, 3)))
    with pytest.raises(CtqError, match="exceeds 1e-10"):
        qlinalg.hermitian_spectrum(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(CtqError, match="matrix contains NaN or Inf entries"):
        qlinalg.hermitian_spectrum(np.array([[np.nan, 0], [0, 1.0]]))


def test_trace_norm_identity_matrix():
    for d in (2, 3, 5):
        assert qlinalg.trace_norm(np.eye(d)) == pytest.approx(d, abs=1e-12)


def test_trace_norm_bell_partial_transpose():
    # eigenvalues of the partially transposed projector are (1/2, 1/2, 1/2, -1/2)
    pt = qlinalg.partial_transpose(BELL.density(), (2, 2))
    ev = np.sort(np.linalg.eigvalsh(pt))
    assert np.allclose(ev, [-0.5, 0.5, 0.5, 0.5], atol=1e-12)
    assert qlinalg.trace_norm(pt) == pytest.approx(2.0, abs=1e-12)


def test_trace_norm_density_is_one(rng):
    for dims, rank in (((2, 2), 3), ((3, 3), 5), ((2, 3), 2)):
        rho = random_density(dims, rank, seed=int(rng.integers(1 << 30)))
        assert qlinalg.trace_norm(rho.mat) == pytest.approx(1.0, abs=1e-10)


def test_partial_transpose_index_convention():
    M = np.arange(16, dtype=float).reshape(4, 4)
    expected = np.array(
        [[0, 4, 2, 6], [1, 5, 3, 7], [8, 12, 10, 14], [9, 13, 11, 15]], dtype=float
    )
    assert np.array_equal(qlinalg.partial_transpose(M, (2, 2)), expected)


def test_partial_transpose_involution(rng):
    for dims in ((2, 2), (2, 3), (3, 4)):
        rho = random_density(dims, 4, seed=int(rng.integers(1 << 30))).mat
        again = qlinalg.partial_transpose(qlinalg.partial_transpose(rho, dims), dims)
        assert np.allclose(again, rho, atol=1e-14)


def test_partial_transpose_product_state(rng):
    a = haar_pure((2, 1), rng).amps
    b = haar_pure((3, 1), rng).amps
    rho_a, rho_b = np.outer(a, a.conj()), np.outer(b, b.conj())
    rho = np.kron(rho_a, rho_b)
    assert np.allclose(qlinalg.partial_transpose(rho, (2, 3)), np.kron(rho_a, rho_b.T))
    assert qlinalg.trace_norm(qlinalg.partial_transpose(rho, (2, 3))) == pytest.approx(1.0)


def test_partial_transpose_isotropic_norm():
    from ctq.states import isotropic

    # for fidelity above 1/d both trace norms equal d * F
    for d, F in ((2, 0.8), (3, 0.6), (3, 0.95)):
        rho = isotropic(F, d)
        assert qlinalg.trace_norm(qlinalg.partial_transpose(rho.mat, rho.dims)) == pytest.approx(
            d * F, abs=1e-10
        )
        assert qlinalg.trace_norm(qlinalg.realign(rho.mat, rho.dims)) == pytest.approx(
            d * F, abs=1e-10
        )


def test_realign_index_convention_and_shape():
    M = np.arange(16, dtype=float).reshape(4, 4)
    expected = np.array(
        [[0, 1, 4, 5], [2, 3, 6, 7], [8, 9, 12, 13], [10, 11, 14, 15]], dtype=float
    )
    assert np.array_equal(qlinalg.realign(M, (2, 2)), expected)
    assert qlinalg.realign(np.eye(6), (2, 3)).shape == (4, 9)


def test_realign_norms():
    rho = np.kron(np.diag([1.0, 0.0]), np.diag([1.0, 0.0]))
    assert qlinalg.trace_norm(qlinalg.realign(rho, (2, 2))) == pytest.approx(1.0)
    assert qlinalg.trace_norm(qlinalg.realign(BELL.density(), (2, 2))) == pytest.approx(2.0)


def test_partial_trace_product(rng):
    rho_a = random_density((2,), 2, seed=7).mat
    rho_b = random_density((3,), 1, seed=8).mat
    rho = np.kron(rho_a, rho_b)
    assert np.allclose(qlinalg.partial_trace(rho, (2, 3), [0]), rho_a, atol=1e-12)
    assert np.allclose(qlinalg.partial_trace(rho, (2, 3), [1]), rho_b, atol=1e-12)


def test_partial_trace_bell():
    assert np.allclose(qlinalg.partial_trace(BELL.density(), (2, 2), [0]), np.eye(2) / 2)


def test_partial_trace_chain_marginal():
    theta = 0.3
    a2, b2 = np.cos(theta) ** 2, np.sin(theta) ** 2
    rho_a = qlinalg.partial_trace(chain_state(theta).density(), (4, 2, 2), [0])
    assert np.allclose(rho_a, np.diag([a2 / 2, b2 / 2, a2 / 2, b2 / 2]), atol=1e-12)


def test_partial_trace_preserves_structure(rng):
    rho = random_density((2, 2, 3), 5, seed=42).mat
    red = qlinalg.partial_trace(rho, (2, 2, 3), [0, 2])
    assert red.shape == (6, 6)
    assert np.trace(red).real == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(red, red.conj().T, atol=1e-12)
    assert np.linalg.eigvalsh(red).min() > -1e-12


def test_partial_trace_errors():
    rho = np.eye(4) / 4
    with pytest.raises(CtqError, match="keep set must contain at least one subsystem"):
        qlinalg.partial_trace(rho, (2, 2), [])
    with pytest.raises(CtqError, match=r"matrix shape \(4, 4\) != \(6, 6\)"):
        qlinalg.partial_trace(rho, (2, 3), [0])
    with pytest.raises(CtqError, match="out of range for 2 subsystems"):
        qlinalg.partial_trace(rho, (2, 2), [2])


def test_pure_state_trace_norm_identity(rng):
    # ||rho^G||_1 = ||R(rho)||_1 = (sum_i sqrt(lam_i))^2, between 1 and the Schmidt rank
    from ctq.states import schmidt_spectrum

    count = 0
    for dims in ((2, 2), (2, 3), (3, 3), (3, 4)):
        for _ in range(50):
            psi = haar_pure(dims, rng)
            lam = schmidt_spectrum(psi)
            ref = np.sum(np.sqrt(lam)) ** 2
            rank = int(np.sum(lam > 1e-12))
            tp = qlinalg.trace_norm(qlinalg.partial_transpose(psi.density(), dims))
            tr = qlinalg.trace_norm(qlinalg.realign(psi.density(), dims))
            assert abs(tp - ref) / ref < 1e-8
            assert abs(tr - ref) / ref < 1e-8
            assert 1.0 - 1e-9 <= tp <= rank + 1e-9
            count += 1
    assert count == 200


def test_trace_norm_unitary_invariance(rng):
    for _ in range(20):
        M = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        U, V = random_unitary(4, rng), random_unitary(4, rng)
        assert qlinalg.trace_norm(U @ M @ V) == pytest.approx(qlinalg.trace_norm(M), abs=1e-9)

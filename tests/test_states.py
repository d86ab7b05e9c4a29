import json

import numpy as np
import pytest

from ctq import qlinalg, states
from ctq.exceptions import CtqError

from conftest import haar_pure, random_unitary


def test_pure_from_amplitudes_basic():
    psi = states.pure_from_amplitudes([1, 0, 0, 0], (2, 2))
    assert np.allclose(psi.amps, [1, 0, 0, 0])
    bell = states.pure_from_amplitudes(np.array([1, 0, 0, 1]) / np.sqrt(2), (2, 2))
    assert np.allclose(bell.amps, states.max_entangled(2).amps)


def test_pure_from_amplitudes_renormalizes():
    psi = states.pure_from_amplitudes([0.999999, 0, 0, 0], (2, 2))
    assert np.linalg.norm(psi.amps) == pytest.approx(1.0, abs=1e-15)


def test_pure_from_amplitudes_multipartite():
    a = np.zeros(8)
    a[0] = 1.0
    psi = states.pure_from_amplitudes(a, (2, 2, 2))
    assert isinstance(psi, states.MultipartiteState)
    assert psi.split_first().dims == (2, 4)


def test_pure_from_amplitudes_errors():
    with pytest.raises(CtqError, match=r"3 amplitudes for signature \(2, 2\)"):
        states.pure_from_amplitudes([1, 0, 0], (2, 2))
    with pytest.raises(CtqError, match="amplitude vector has zero norm"):
        states.pure_from_amplitudes([0, 0, 0, 0], (2, 2))
    with pytest.raises(CtqError, match="norm 0.90000000 deviates from 1"):
        states.pure_from_amplitudes([0.9, 0, 0, 0], (2, 2))
    with pytest.raises(CtqError, match="amplitudes must be finite"):
        states.pure_from_amplitudes([np.nan, 1, 0, 0], (2, 2))


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_constructors_refuse_non_finite_entries(bad):
    amps = np.array([bad, 1, 0, 0, 0, 0, 0, 0], dtype=complex)
    with pytest.raises(CtqError, match="pure state amplitudes must be finite"):
        states.PureState((2, 4), amps)
    with pytest.raises(CtqError, match="state amplitudes must be finite"):
        states.MultipartiteState((2, 2, 2), amps)
    mat = np.eye(4) / 4
    mat[0, 1] = mat[1, 0] = bad
    with pytest.raises(CtqError, match="density matrix has non-finite entries"):
        states.DensityMatrix((2, 2), mat)


def test_schmidt_spectrum_examples():
    product = states.pure_from_amplitudes([1, 0, 0, 0], (2, 2))
    assert np.allclose(states.schmidt_spectrum(product), [1.0, 0.0])
    bell = states.max_entangled(2)
    assert np.allclose(states.schmidt_spectrum(bell), [0.5, 0.5])
    skew = states.pure_from_amplitudes([np.sqrt(0.9), 0, 0, np.sqrt(0.1)], (2, 2))
    assert np.allclose(states.schmidt_spectrum(skew), [0.9, 0.1])
    assert not states.schmidt_spectrum(skew).flags.writeable


def test_schmidt_spectrum_length_is_min_dim(rng):
    psi = haar_pure((2, 5), rng)
    assert len(states.schmidt_spectrum(psi)) == 2


def test_isotropic_construction():
    rho = states.isotropic(0.25, 2)  # F = 1/d^2 gives white noise
    assert np.allclose(rho.mat, np.eye(4) / 4, atol=1e-14)
    proj = states.isotropic(1.0, 3)
    assert np.allclose(proj.mat, states.max_entangled(3).density(), atol=1e-14)
    phi = states.max_entangled(4).amps
    rho = states.isotropic(0.73, 4)
    assert np.real(phi.conj() @ rho.mat @ phi) == pytest.approx(0.73, abs=1e-12)
    with pytest.raises(CtqError, match="fidelity 1.2 outside"):
        states.isotropic(1.2, 2)


def test_werner_construction():
    # antisymmetric weight reproduces the mixing parameter exactly
    for d, w in ((2, 0.0), (2, 0.5), (2, 0.9), (3, 0.3), (4, 0.7)):
        rho = states.werner(w, d)
        proj = states.antisymmetric_projector(d)
        assert np.trace(rho.mat @ proj).real == pytest.approx(w, abs=1e-12)
    singlet = (np.array([0, 1, -1, 0]) / np.sqrt(2)).astype(complex)
    assert np.allclose(states.werner(1.0, 2).mat, np.outer(singlet, singlet.conj()), atol=1e-14)
    with pytest.raises(CtqError, match="mixing parameter -0.1 outside"):
        states.werner(-0.1, 2)


def _werner_from_basis_vectors(w, d):
    """(1 - w) P_sym / dim_sym + w P_anti / dim_anti from explicit basis vectors."""
    ket = np.eye(d)
    sym = [np.kron(ket[i], ket[i]) for i in range(d)]
    anti = []
    for i in range(d):
        for j in range(i + 1, d):
            sym.append((np.kron(ket[i], ket[j]) + np.kron(ket[j], ket[i])) / np.sqrt(2))
            anti.append((np.kron(ket[i], ket[j]) - np.kron(ket[j], ket[i])) / np.sqrt(2))
    p_sym = sum(np.outer(v, v) for v in sym)
    p_anti = sum(np.outer(v, v) for v in anti)
    return (1 - w) * p_sym / len(sym) + w * p_anti / len(anti), p_anti


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_werner_matches_basis_vector_sum(d):
    for w in (0.0, 0.3, 0.5, 0.77, 1.0):
        rho, p_anti = _werner_from_basis_vectors(w, d)
        np.testing.assert_allclose(states.werner(w, d).mat, rho, rtol=0, atol=1e-15)
    np.testing.assert_allclose(states.antisymmetric_projector(d), p_anti, rtol=0, atol=1e-15)


def test_werner_separability_boundary():
    rho = states.werner(0.5, 2)
    assert qlinalg.trace_norm(qlinalg.partial_transpose(rho.mat, (2, 2))) == pytest.approx(
        1.0, abs=1e-10
    )


def test_chain_state():
    psi = states.chain_state(np.pi / 4)
    assert np.allclose(psi.marginal([0]), np.eye(4) / 4, atol=1e-12)
    psi0 = states.chain_state(0.0)
    expected = np.zeros(16)
    expected[0] = expected[4 * 2 + 1] = 1 / np.sqrt(2)
    assert np.allclose(psi0.amps, expected)
    for theta in (0.0, 0.3, 1.2):
        # the marginal of the last qubit is maximally mixed for every angle
        rho_c = states.chain_state(theta).marginal([2])
        assert np.allclose(rho_c, np.eye(2) / 2, atol=1e-12)


@pytest.mark.parametrize("k", range(3, 10))
def test_marginal_matches_partial_trace_of_density(k, rng):
    psi = haar_pure((2,) * k, rng)
    rho = psi.density()
    for keep in ([0], [k - 1], [0, 1], [0, k - 1], [1, k - 2], [2, 0], list(range(0, k, 2))):
        np.testing.assert_allclose(
            psi.marginal(keep), qlinalg.partial_trace(rho, psi.dims, keep), rtol=0, atol=1e-14
        )


def test_marginal_of_mixed_dimensions(rng):
    psi = haar_pure((4, 2, 3), rng)
    for keep in ([0], [1], [2], [0, 2], [1, 2]):
        np.testing.assert_allclose(
            psi.marginal(keep), qlinalg.partial_trace(psi.density(), psi.dims, keep),
            rtol=0, atol=1e-14,
        )
    with pytest.raises(CtqError, match="keep set must contain at least one subsystem"):
        psi.marginal([])
    with pytest.raises(CtqError, match="out of range for dims"):
        psi.marginal([3])


def test_gen_schmidt_3qubit():
    psi = states.gen_schmidt_3qubit([1, 0, 0, 0, 0])
    assert np.allclose(psi.amps, np.eye(8)[0])
    nu = np.sqrt(np.array([2, 0, 1, 2, 2]) / 7.0)
    psi = states.gen_schmidt_3qubit(nu, phi=0.4)
    assert np.linalg.norm(psi.amps) == pytest.approx(1.0)
    with pytest.raises(CtqError, match="sum of squares 2.00000000 deviates from 1"):
        states.gen_schmidt_3qubit([1, 1, 0, 0, 0])


def test_random_states_deterministic():
    a = states.random_pure((3, 3), seed=11)
    b = states.random_pure((3, 3), seed=11)
    assert np.array_equal(a.amps, b.amps)
    r1 = states.random_density((2, 2), 2, seed=5)
    r2 = states.random_density((2, 2), 2, seed=5)
    assert np.array_equal(r1.mat, r2.mat)


def test_random_density_rank_one_is_pure():
    pure = states.random_density((3,), 1, seed=3)
    assert np.trace(pure.mat @ pure.mat).real == pytest.approx(1.0, abs=1e-10)


def test_random_density_rank_errors():
    with pytest.raises(CtqError, match="rank 5 invalid for dimension 4"):
        states.random_density((2, 2), 5, seed=1)
    with pytest.raises(CtqError, match="rank 0 invalid for dimension 3"):
        states.random_density((3,), 0, seed=1)


def test_random_density_full_rank():
    rho = states.random_density((3, 3), 9, seed=21)
    assert np.linalg.eigvalsh(rho.mat).min() > 1e-8


def test_isotropic_twirl_invariance(rng):
    for d in (2, 3):
        rho = states.isotropic(0.77, d).mat
        for _ in range(50):
            V = random_unitary(d, rng)
            U = np.kron(V, V.conj())
            assert np.max(np.abs(U @ rho @ U.conj().T - rho)) < 1e-9


def test_werner_twirl_invariance(rng):
    for d in (2, 3):
        rho = states.werner(0.66, d).mat
        for _ in range(50):
            V = random_unitary(d, rng)
            U = np.kron(V, V)
            assert np.max(np.abs(U @ rho @ U.conj().T - rho)) < 1e-9


def test_schmidt_local_unitary_invariance(rng):
    for _ in range(25):
        psi = haar_pure((3, 4), rng)
        UA, UB = random_unitary(3, rng), random_unitary(4, rng)
        rotated = states.PureState((3, 4), np.kron(UA, UB) @ psi.amps)
        lam0 = states.schmidt_spectrum(psi)
        lam1 = states.schmidt_spectrum(rotated)
        assert np.max(np.abs(lam0 - lam1)) < 1e-10


def test_state_file_round_trip(tmp_path, rng):
    psi = haar_pure((2, 3), rng)
    p = tmp_path / "pure.json"
    states.save_state(psi, str(p))
    loaded = states.load_state(str(p))
    assert loaded.dims == (2, 3)
    assert np.max(np.abs(loaded.amps - psi.amps)) < 1e-15

    rho = states.random_density((2, 2), 3, seed=9)
    p2 = tmp_path / "dens.json"
    states.save_state(rho, str(p2))
    loaded2 = states.load_state(str(p2))
    assert np.max(np.abs(loaded2.mat - rho.mat)) < 1e-15


def test_state_file_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(CtqError, match="cannot read state file"):
        states.load_state(str(bad))
    with pytest.raises(CtqError, match="unknown state kind 'mystery'"):
        states.state_from_dict({"dims": [2, 2], "kind": "mystery", "re": [], "im": []})
    with pytest.raises(CtqError, match="1 entries for a 4 x 4 density matrix"):
        states.state_from_dict({"dims": [2, 2], "kind": "density", "re": [1.0], "im": [0.0]})


def test_state_dict_shape():
    obj = states.state_to_dict(states.max_entangled(2))
    assert set(obj) == {"dims", "kind", "re", "im"}
    assert obj["kind"] == "pure"
    assert json.dumps(obj)  # JSON-serializable

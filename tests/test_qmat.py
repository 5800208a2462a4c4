import json

import numpy as np
import pytest

from ergoloc import qmat
from helpers import I2, SX, SZ, norms, partial_transpose_s, random_coupling, random_system


def test_tensor_identity():
    assert np.allclose(qmat.tensor_product(I2, I2), np.eye(4))


def test_tensor_sz_identity_ordering():
    # S-major convention: sigma_z x I is diag(1,1,-1,-1)
    assert np.allclose(qmat.tensor_product(SZ, I2), np.diag([1, 1, -1, -1]))


def test_tensor_basis_action():
    psi00 = np.zeros(4)
    psi00[0] = 1.0  # |0>|0>
    out = qmat.tensor_product(SX, SX) @ psi00
    expected = np.zeros(4)
    expected[3] = 1.0  # |1>|1>
    assert np.allclose(out, expected)


def test_tensor_associative_bilinear():
    rng = np.random.default_rng(0)
    for _ in range(5):
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        c = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        left = qmat.tensor_product(qmat.tensor_product(a, b), c)
        right = qmat.tensor_product(a, qmat.tensor_product(b, c))
        assert np.max(np.abs(left - right)) < 1e-12
        s, t = rng.normal(size=2)
        lin = qmat.tensor_product(s * a + t * c, b)
        assert np.max(np.abs(lin - (s * qmat.tensor_product(a, b) + t * qmat.tensor_product(c, b)))) < 1e-12


def test_partial_trace_product_state():
    rng = np.random.default_rng(1)
    rho_s = qmat.random_density(2, rng)
    rho_e = qmat.random_density(3, rng)
    joint = qmat.tensor_product(rho_s, rho_e)
    assert np.max(np.abs(qmat.partial_trace(joint, 2, 3, "E") - rho_s)) < 1e-12
    assert np.max(np.abs(qmat.partial_trace(joint, 2, 3, "S") - rho_e)) < 1e-12


def test_partial_trace_traceless_factor():
    a = qmat.tensor_product(SX, SX)
    assert np.max(np.abs(qmat.partial_trace(a, 2, 2, "S"))) == 0.0


def test_partial_trace_bell():
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1 / np.sqrt(2)
    rho = np.outer(bell, bell.conj())
    assert np.allclose(qmat.partial_trace(rho, 2, 2, "E"), np.eye(2) / 2)


def test_partial_trace_scaling_property():
    rng = np.random.default_rng(2)
    for _ in range(5):
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        got = qmat.partial_trace(qmat.tensor_product(a, b), 3, 4, "E")
        assert np.max(np.abs(got - np.trace(b) * a)) < 1e-12


def test_partial_trace_preserves_trace_and_checks_dims():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    for side in ("S", "E"):
        assert abs(np.trace(qmat.partial_trace(a, 2, 3, side)) - np.trace(a)) < 1e-12
    with pytest.raises(ValueError):
        qmat.partial_trace(a, 2, 2, "E")


def test_partial_transpose_product_form():
    rng = np.random.default_rng(4)
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    got = partial_transpose_s(qmat.tensor_product(a, b), 2, 3)
    assert np.max(np.abs(got - qmat.tensor_product(a.T, b))) < 1e-13


def test_partial_transpose_involution_trace_hermiticity():
    rng = np.random.default_rng(5)
    a = qmat.random_hermitian(6, rng)
    pt = partial_transpose_s(a, 2, 3)
    assert qmat.hermiticity_drift(pt) < 1e-14
    assert abs(np.trace(pt) - np.trace(a)) < 1e-13
    assert np.max(np.abs(partial_transpose_s(pt, 2, 3) - a)) == 0.0


def test_partial_transpose_bell_negative_eigenvalue():
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1 / np.sqrt(2)
    rho = np.outer(bell, bell.conj())
    w = np.linalg.eigvalsh(partial_transpose_s(rho, 2, 2))
    assert abs(w[0] - (-0.5)) < 1e-12


def test_hermitian_eig_diagonal_and_pauli():
    w, _ = qmat.hermitian_eig(np.diag([3.0, 1.0, 2.0]))
    assert np.allclose(w, [1, 2, 3])
    w, _ = qmat.hermitian_eig(SX)
    assert np.allclose(w, [-1, 1])


def test_hermitian_eig_contract():
    rng = np.random.default_rng(6)
    for d in (2, 8, 64):
        a = qmat.random_hermitian(d, rng)
        w, v = qmat.hermitian_eig(a)
        assert np.all(np.diff(w) >= -1e-12)
        op_norm = norms(a)[2]
        res = a @ v - v * w
        assert np.max(np.linalg.norm(res, axis=0)) <= 1e-10 * max(1.0, op_norm)
        assert np.max(np.abs(v.conj().T @ v - np.eye(d))) < 1e-10
        recon = (v * w) @ v.conj().T
        hs = norms(a)[0]
        assert np.sqrt(np.sum(np.abs(a - recon) ** 2)) <= 1e-9 * max(1.0, hs)


def test_hermitian_eig_rejects_nonhermitian():
    with pytest.raises(ValueError):
        qmat.hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_hermitian_eig_jc_block():
    # excitation-preserving 2x2 block of the atom-cavity Hamiltonian at level n:
    # diag entries (w_e n + w_s/2, w_e (n+1) - w_s/2), coupling rabi sqrt(n+1)/2;
    # eigenvalues w_e (n + 1/2) +- sqrt(delta^2 + rabi^2 (n+1))/2
    w_s, w_e, rabi, n = 1.0, 1.2, 0.3, 4
    g = rabi * np.sqrt(n + 1) / 2
    block = np.array([[w_e * n + w_s / 2, g], [g, w_e * (n + 1) - w_s / 2]])
    w, _ = qmat.hermitian_eig(block)
    split = np.sqrt((w_s - w_e) ** 2 + rabi**2 * (n + 1)) / 2
    assert np.allclose(w, [w_e * (n + 0.5) - split, w_e * (n + 0.5) + split], atol=1e-12)


def test_norms_identity_rank1_paulisum():
    for d in (2, 5):
        hs, tr, op = norms(np.eye(d))
        assert np.allclose([hs, tr, op], [np.sqrt(d), d, 1.0])
    rng = np.random.default_rng(7)
    u = rng.normal(size=3) + 1j * rng.normal(size=3)
    v = rng.normal(size=3) + 1j * rng.normal(size=3)
    u /= np.linalg.norm(u)
    v /= np.linalg.norm(v)
    assert np.allclose(norms(np.outer(u, v.conj())), [1, 1, 1])
    # sigma_x + sigma_z has both singular values sqrt(2)
    sv = np.linalg.svd(SX + SZ, compute_uv=False)
    assert np.allclose(sv, [np.sqrt(2)] * 2)
    assert np.allclose(norms(SX + SZ), [2.0, 2 * np.sqrt(2), np.sqrt(2)])


def test_hermitize_absorbs_noise_rejects_garbage():
    rng = np.random.default_rng(8)
    a = qmat.random_hermitian(4, rng)
    noisy = a + 1e-13 * (rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    fixed = qmat.hermitize(noisy)
    assert qmat.hermiticity_drift(fixed) == 0.0
    with pytest.raises(ValueError):
        qmat.hermitize(np.triu(np.ones((4, 4))))


def test_matrix_json_roundtrip(tmp_path):
    rng = np.random.default_rng(9)
    a = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
    path = tmp_path / "m.json"
    qmat.save_matrix(path, a)
    with open(path) as fh:
        payload = json.load(fh)
    assert payload["rows"] == 3 and payload["cols"] == 2
    assert len(payload["entries"]) == 6
    assert np.max(np.abs(qmat.load_matrix(path) - a)) == 0.0


def test_matrix_json_malformed():
    with pytest.raises(ValueError):
        qmat.matrix_from_json({"rows": 2, "cols": 2, "entries": [[1, 0]]})
    with pytest.raises(ValueError):
        qmat.matrix_from_json({"cols": 2, "entries": []})


def test_bipartite_system_validation():
    rng = np.random.default_rng(10)
    rho = qmat.random_density(4, rng)
    h_s = qmat.random_hermitian(2, rng)
    h_e = qmat.random_hermitian(2, rng)
    v = random_coupling(2, 2, rng)
    system = qmat.BipartiteSystem.build(2, 2, rho, h_s, h_e, v)
    assert abs(np.trace(system.rho).real - 1.0) < 1e-12
    # coupling with nonzero S-trace is rejected
    bad_v = v + qmat.tensor_product(np.eye(2) / 2, SX)
    with pytest.raises(ValueError):
        qmat.BipartiteSystem.build(2, 2, rho, h_s, h_e, bad_v)
    # non-normalized state is rejected
    with pytest.raises(ValueError):
        qmat.BipartiteSystem.build(2, 2, 2 * rho, h_s, h_e, v)
    # non-positive state is rejected
    with pytest.raises(ValueError):
        qmat.BipartiteSystem.build(2, 2, rho - 0.5 * np.eye(4), h_s, h_e, v)


@pytest.mark.parametrize("n", [4, 512])
def test_positivity_boundary(n):
    # the state is accepted iff its smallest eigenvalue is above -1e-10
    rng = np.random.default_rng(27)
    q = qmat.haar_unitary(n, rng)
    h_e = np.zeros((n // 2, n // 2))
    for lam_min, accepted in ((-5e-11, True), (-2e-10, False)):
        w = rng.uniform(0.5, 1.5, size=n)
        w[0] = 0.0
        w *= (1.0 - lam_min) / w.sum()
        w[0] = lam_min
        rho = (q * w) @ q.conj().T
        if accepted:
            qmat.BipartiteSystem.build(2, n // 2, rho, np.zeros((2, 2)), h_e)
        else:
            with pytest.raises(ValueError, match="min eig"):
                qmat.BipartiteSystem.build(2, n // 2, rho, np.zeros((2, 2)), h_e)


def test_energy_matches_dense_trace():
    rng = np.random.default_rng(31)
    for d_s, d_e, rank in ((2, 3, None), (3, 8, 1), (4, 16, None), (2, 64, 1)):
        system = random_system(d_s, d_e, rng, rank=rank)
        dense = np.trace(system.rho @ system.total_hamiltonian()).real
        assert abs(system.energy() - dense) < 1e-12

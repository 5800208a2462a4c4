import numpy as np
import pytest
from scipy.optimize import minimize

from ergoloc import gpo, qmat
from helpers import (
    SX,
    SY,
    SZ,
    psd_ball_radius,
    random_coupling,
    random_system,
    reconstruct_interaction,
    reconstruct_local,
    state_from_bloch,
)


def test_d2_is_standard_pauli():
    basis = gpo.gpo_basis(2)
    assert np.allclose(basis[0], SX)
    assert np.allclose(basis[1], SY)
    assert np.allclose(basis[2], SZ)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_orthonormality_and_tracelessness(d):
    basis = gpo.gpo_basis(d)
    assert len(basis) == d * d - 1
    gram = np.einsum("iab,jba->ij", basis.elements, basis.elements)
    assert np.max(np.abs(gram - 2 * np.eye(d * d - 1))) < 1e-12
    traces = np.einsum("iaa->i", basis.elements)
    assert np.max(np.abs(traces)) < 1e-14


def test_d3_exhaustive_trace_table():
    basis = gpo.gpo_basis(3)
    table = np.empty((8, 8))
    for i in range(8):
        for j in range(8):
            table[i, j] = np.trace(basis[i] @ basis[j]).real
    assert np.max(np.abs(table - 2 * np.eye(8))) < 1e-12


def test_gpo_rejects_dim_below_two():
    with pytest.raises(ValueError):
        gpo.gpo_basis(1)


def test_decompose_maximally_mixed_no_coupling():
    d_s, d_e = 2, 3
    rho = np.eye(d_s * d_e, dtype=complex) / (d_s * d_e)
    system = qmat.BipartiteSystem.build(
        d_s, d_e, rho, np.zeros((2, 2)), np.zeros((3, 3)), None
    )
    dec = gpo.decompose(system)
    for arr in (dec.r, dec.q, dec.t, dec.v):
        assert np.max(np.abs(arr)) < 1e-14


def test_decompose_bell_correlation_tensor():
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1 / np.sqrt(2)
    system = qmat.BipartiteSystem.build(
        2, 2, np.outer(bell, bell.conj()), np.zeros((2, 2)), np.zeros((2, 2)), None
    )
    dec = gpo.decompose(system)
    assert np.max(np.abs(dec.r)) < 1e-14
    assert np.max(np.abs(dec.q)) < 1e-14
    assert np.allclose(dec.t, np.diag([1.0, -1.0, 1.0]), atol=1e-13)


def test_decompose_local_hamiltonian_coefficients():
    omega = 0.7
    rng = np.random.default_rng(0)
    system = qmat.BipartiteSystem.build(
        2, 3, qmat.random_density(6, rng), omega / 2 * SZ, np.zeros((3, 3)), None
    )
    dec = gpo.decompose(system)
    assert abs(dec.c) < 1e-14
    assert np.allclose(dec.h, [0, 0, omega / 2], atol=1e-14)


@pytest.mark.parametrize("seed,d_s,d_e", [(0, 2, 2), (1, 2, 3), (2, 3, 2), (3, 3, 3)])
def test_roundtrip_reconstruction(seed, d_s, d_e):
    rng = np.random.default_rng(seed)
    system = random_system(d_s, d_e, rng)
    dec = gpo.decompose(system)
    assert np.max(np.abs(gpo.reconstruct_state(dec) - system.rho)) < 1e-10
    assert np.max(np.abs(reconstruct_local(dec) - system.h_s)) < 1e-10
    assert np.max(np.abs(reconstruct_interaction(dec) - system.v)) < 1e-10
    # |r| inside the pure-state shell
    assert np.linalg.norm(dec.r) <= np.sqrt(2 * (d_s - 1) / d_s) + 1e-9


def test_orthogonal_image_identity():
    basis = gpo.gpo_basis(3)
    assert np.allclose(gpo.orthogonal_image(np.eye(3), basis), np.eye(8), atol=1e-13)


def test_orthogonal_image_z_rotation():
    basis = gpo.gpo_basis(2)
    theta = np.pi / 2
    u = np.diag(np.exp(np.array([-1j, 1j]) * theta / 2))
    o = gpo.orthogonal_image(u, basis)
    expected = np.array(
        [
            [np.cos(theta), -np.sin(theta), 0.0],
            [np.sin(theta), np.cos(theta), 0.0],
            [0.0, 0.0, 1.0],
        ]
    )
    assert np.max(np.abs(o - expected)) < 1e-12


@pytest.mark.parametrize("d", [2, 3, 4])
def test_orthogonal_image_is_orthogonal_and_homomorphism(d):
    rng = np.random.default_rng(d)
    basis = gpo.gpo_basis(d)
    for _ in range(5):
        u = qmat.haar_unitary(d, rng)
        v = qmat.haar_unitary(d, rng)
        ou = gpo.orthogonal_image(u, basis)
        ov = gpo.orthogonal_image(v, basis)
        assert np.max(np.abs(ou.T @ ou - np.eye(d * d - 1))) < 1e-9
        ouv = gpo.orthogonal_image(u @ v, basis)
        assert np.max(np.abs(ouv - ou @ ov)) < 1e-9
    if d == 2:
        assert abs(np.linalg.det(gpo.orthogonal_image(qmat.haar_unitary(2, rng), basis)) - 1.0) < 1e-9


def test_orthogonal_image_rejects_nonunitary():
    with pytest.raises(ValueError):
        gpo.orthogonal_image(np.diag([1.0, 2.0]), gpo.gpo_basis(2))


@pytest.mark.parametrize("d", [2, 3, 4])
def test_bloch_rotation_consistency(d):
    rng = np.random.default_rng(10 + d)
    basis = gpo.gpo_basis(d)
    for _ in range(5):
        rho = qmat.random_density(d, rng)
        u = qmat.haar_unitary(d, rng)
        r = gpo.bloch_vector(rho, basis)
        r_rot = gpo.bloch_vector(u @ rho @ u.conj().T, basis)
        assert np.max(np.abs(r_rot - gpo.orthogonal_image(u, basis) @ r)) < 1e-9


@pytest.mark.parametrize("d", [2, 3, 4])
def test_norm_bridge(d):
    # |q(theta)| = sqrt(2) * ||theta - (Tr theta / d) I||_2 for Hermitian theta
    rng = np.random.default_rng(20 + d)
    basis = gpo.gpo_basis(d)
    for _ in range(5):
        theta = qmat.random_hermitian(d, rng)
        q = gpo.bloch_vector(theta, basis)
        traceless = theta - np.trace(theta) / d * np.eye(d)
        hs = np.sqrt(np.sum(np.abs(traceless) ** 2))
        assert abs(np.linalg.norm(q) - np.sqrt(2) * hs) < 1e-10


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_psd_ball(d):
    rng = np.random.default_rng(30 + d)
    basis = gpo.gpo_basis(d)
    radius = psd_ball_radius(d)
    # random directions at the guaranteed radius stay positive
    for _ in range(20):
        direction = rng.normal(size=d * d - 1)
        direction /= np.linalg.norm(direction)
        rho = state_from_bloch(radius * direction, basis)
        assert np.linalg.eigvalsh(rho)[0] >= -1e-12
    # the bound is tight: along +(last diagonal element) the state exits the
    # cone just outside the guaranteed radius (that element's most negative
    # eigenvalue is -(d-1) * its positive entries)
    worst = np.zeros(d * d - 1)
    worst[-1] = radius * 1.02
    rho = state_from_bloch(worst, basis)
    assert np.linalg.eigvalsh(rho)[0] < 0


def test_unitary_orbit_proper_subset_d3():
    # a plane rotation mixing only the first two Bloch axes of a qutrit is not
    # the image of any unitary: optimizing over U(3) cannot push the distance
    # below ~O(1), far above the 1e-3 criterion
    basis = gpo.gpo_basis(3)
    target = np.eye(8)
    theta = np.pi / 2
    target[0, 0] = target[1, 1] = np.cos(theta)
    target[0, 1] = -np.sin(theta)
    target[1, 0] = np.sin(theta)

    def distance(params):
        gen = np.zeros((3, 3), dtype=complex)
        idx = 0
        for i in range(3):
            gen[i, i] = params[idx]
            idx += 1
        for i in range(3):
            for j in range(i + 1, 3):
                gen[i, j] = params[idx] + 1j * params[idx + 1]
                gen[j, i] = params[idx] - 1j * params[idx + 1]
                idx += 2
        w, vec = np.linalg.eigh(gen)
        u = (vec * np.exp(1j * w)) @ vec.conj().T
        return np.linalg.norm(gpo.orthogonal_image(u, basis) - target)

    best = np.inf
    for seed in range(12):
        rng = np.random.default_rng(seed)
        res = minimize(distance, rng.normal(size=9), method="BFGS", options={"maxiter": 300})
        best = min(best, res.fun)
    assert best > 1e-3


def test_coupling_sampler_is_traceless_both_sides():
    rng = np.random.default_rng(4)
    v = random_coupling(3, 4, rng)
    assert np.max(np.abs(qmat.partial_trace(v, 3, 4, "S"))) < 1e-13
    assert np.max(np.abs(qmat.partial_trace(v, 3, 4, "E"))) < 1e-13

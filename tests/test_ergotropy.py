import numpy as np
import pytest

from ergoloc import ergotropy, local, models, qmat
from helpers import (
    brute_assignment_min,
    brute_local_max,
    max_entangled_two_level,
    model_hamiltonian,
    random_coupling,
    random_state_vector,
    random_system,
)


# ---------------------------------------------------------------------------
# global ergotropy


def test_global_passive_state_gives_zero():
    # populations already decreasing along increasing energy
    rho = np.diag([0.5, 0.3, 0.2]).astype(complex)
    h = np.diag([0.0, 1.0, 2.0]).astype(complex)
    rep = ergotropy.global_ergotropy(rho, h)
    assert abs(rep.value) < 1e-12


def test_global_qubit_brute_force():
    rho = np.diag([0.3, 0.7]).astype(complex)
    h = np.diag([0.0, 1.0]).astype(complex)
    # brute force over both permutations of the populations
    energies = [0.3 * 0 + 0.7 * 1, 0.7 * 0 + 0.3 * 1]
    expected = np.trace(rho @ h).real - min(energies)
    rep = ergotropy.global_ergotropy(rho, h)
    assert abs(expected - 0.4) < 1e-15
    assert abs(rep.value - expected) < 1e-12


def test_global_pure_state_reaches_ground():
    p = models.JcParams(1.0, 1.2, 0.4, 6)
    psi, _ = models.jc_dressed_state(p, 2, +1)
    h = model_hamiltonian(models.jc_system(p), 2, p.n_max + 1)
    rho = np.outer(psi, psi.conj())
    rep = ergotropy.global_ergotropy(rho, h)
    ground = np.linalg.eigvalsh(h)[0]
    expected = np.trace(rho @ h).real - ground
    assert abs(rep.value - expected) < 1e-10


def test_global_report_contracts():
    rng = np.random.default_rng(0)
    for _ in range(10):
        d = int(rng.integers(2, 7))
        rho = qmat.random_density(d, rng)
        h = qmat.random_hermitian(d, rng)
        rep = ergotropy.global_ergotropy(rho, h)
        assert rep.value >= -1e-9
        u = rep.optimal_unitary
        assert np.max(np.abs(u.conj().T @ u - np.eye(d))) < 1e-10
        # reported unitary attains the reported value
        attained = np.trace(h @ (rho - u @ rho @ u.conj().T)).real
        assert abs(attained - rep.value) < 1e-10
        # passive state commutes with h
        comm = rep.passive_state @ h - h @ rep.passive_state
        assert np.max(np.abs(comm)) < 1e-9
        # passivity: no unitary improves on the passive state
        rep2 = ergotropy.global_ergotropy(rep.passive_state, h)
        assert rep2.value < 1e-9


def test_global_vanishes_iff_passive():
    rng = np.random.default_rng(73)
    for _ in range(10):
        d = int(rng.integers(2, 7))
        h = qmat.random_hermitian(d, rng)
        eps, vecs = np.linalg.eigh(h)
        probs = np.sort(rng.dirichlet(np.ones(d)))[::-1]
        passive = (vecs * probs) @ vecs.conj().T
        assert ergotropy.global_ergotropy(passive, h).value <= 1e-9
        # swapping two populations across a genuine level gap activates it
        if eps[-1] - eps[0] > 1e-6 and probs[0] - probs[-1] > 1e-6:
            swapped = probs.copy()
            swapped[0], swapped[-1] = swapped[-1], swapped[0]
            active = (vecs * swapped) @ vecs.conj().T
            assert ergotropy.global_ergotropy(active, h).value > 1e-10


def test_global_unitary_invariance():
    rng = np.random.default_rng(1)
    for _ in range(5):
        d = 5
        rho = qmat.random_density(d, rng)
        h = qmat.random_hermitian(d, rng)
        u = qmat.haar_unitary(d, rng)
        a = ergotropy.global_ergotropy(rho, h).diagnostics["passive_energy"]
        b = ergotropy.global_ergotropy(u @ rho @ u.conj().T, h).diagnostics["passive_energy"]
        assert abs(a - b) < 1e-9


def test_global_degenerate_spectra_stable():
    rho = np.diag([0.25, 0.25, 0.5]).astype(complex)
    h = np.diag([1.0, 0.0, 0.0]).astype(complex)
    rep = ergotropy.global_ergotropy(rho, h)
    # value insensitive to tie order: passive energy = 0.5*0 + 0.25*0 + 0.25*1
    assert abs(rep.value - (0.25 - 0.25)) < 1e-12


def test_global_dimension_mismatch():
    with pytest.raises(ValueError):
        ergotropy.global_ergotropy(np.eye(2) / 2, np.eye(3))


# ---------------------------------------------------------------------------
# classical analogues


def test_classical_antisorted_is_passive():
    assert ergotropy.classical_ergotropy([0.5, 0.3, 0.2], [0.0, 1.0, 2.0]) == 0.0


def test_classical_two_level():
    assert abs(ergotropy.classical_ergotropy([0.7, 0.3], [1.0, 0.0]) - 0.4) < 1e-15


def test_classical_uniform_is_invariant():
    rng = np.random.default_rng(2)
    for _ in range(5):
        eps = rng.normal(size=6)
        assert abs(ergotropy.classical_ergotropy(np.full(6, 1 / 6), eps)) < 1e-12


def test_classical_rejects_bad_distribution():
    with pytest.raises(ValueError):
        ergotropy.classical_ergotropy([0.5, 0.6], [0.0, 1.0])


def test_assignment_single_column_reduces_to_classical():
    rng = np.random.default_rng(3)
    p = rng.dirichlet(np.ones(5)).reshape(5, 1)
    e = rng.normal(size=(5, 1))
    value, _ = ergotropy.classical_local_ergotropy(p, e)
    assert abs(value - ergotropy.classical_ergotropy(p[:, 0], e[:, 0])) < 1e-12


def test_assignment_nonnegative():
    rng = np.random.default_rng(4)
    for _ in range(10):
        p = rng.dirichlet(np.ones(12)).reshape(4, 3)
        e = rng.normal(size=(4, 3))
        value, _ = ergotropy.classical_local_ergotropy(p, e)
        assert value >= -1e-12


def test_assignment_matches_brute_force():
    rng = np.random.default_rng(5)
    for _ in range(25):
        d_s, d_e = int(rng.integers(2, 6)), int(rng.integers(1, 5))
        p = rng.dirichlet(np.ones(d_s * d_e)).reshape(d_s, d_e)
        e = rng.normal(size=(d_s, d_e))
        value, perm = ergotropy.classical_local_ergotropy(p, e)
        cost = e @ p.T
        assert abs((np.sum(p * e) - value) - brute_assignment_min(cost)) < 1e-12
        # returned permutation attains the value
        attained = np.sum(p * e) - sum(cost[i, perm[i]] for i in range(d_s))
        assert abs(attained - value) < 1e-12


def test_hungarian_on_known_instance():
    cost = np.array([[4.0, 1.0, 3.0], [2.0, 0.0, 5.0], [3.0, 2.0, 2.0]])
    col, total = ergotropy.solve_assignment(cost)
    assert abs(total - brute_assignment_min(cost)) < 1e-15
    assert sorted(col.tolist()) == [0, 1, 2]


def test_hungarian_with_heavy_ties():
    # small-integer costs: many optimal assignments, exact float arithmetic
    rng = np.random.default_rng(55)
    for _ in range(30):
        d = int(rng.integers(2, 7))
        cost = rng.integers(0, 4, size=(d, d)).astype(float)
        col, total = ergotropy.solve_assignment(cost)
        assert sorted(col.tolist()) == list(range(d))
        assert total == brute_assignment_min(cost)


# ---------------------------------------------------------------------------
# switch-off protocol


def test_delta_off_no_coupling():
    rng = np.random.default_rng(6)
    system = qmat.BipartiteSystem.build(
        2, 3, qmat.random_density(6, rng), qmat.random_hermitian(2, rng),
        qmat.random_hermitian(3, rng), None,
    )
    assert ergotropy.delta_off(system) == 0.0


def test_delta_off_is_minus_mean_coupling():
    rng = np.random.default_rng(7)
    system = random_system(2, 4, rng)
    direct = -np.trace(system.rho @ system.v).real
    assert abs(ergotropy.delta_off(system) - direct) < 1e-14


def test_delta_off_dressed_states():
    # dressed states carry interaction energy -(+-G sin 2theta); it cancels
    # only in the decoupled limit
    p = models.JcParams(1.0, 1.2, 0.3, 8)
    for n in (0, 2):
        for sign in (+1, -1):
            psi, _ = models.jc_dressed_state(p, n, sign)
            system = models.jc_bipartite(p, psi)
            got = ergotropy.delta_off(system)
            assert abs(got - models.jc_analytic(p, n, sign).delta_off) < 1e-12


def test_delta_off_bethe_state():
    p = models.XxzParams(6, 1.0, 0.1, 0.4)
    for k in (-2, 0, 3):
        system = models.xxz_bipartite(p, models.xxz_bethe_state(p, k))
        q = 2 * np.pi * k / 6
        expected = 8 * p.j / 6 * np.cos(q) + (2 * 6 - 8) / 6 * p.j_z
        assert abs(ergotropy.delta_off(system) - expected) < 1e-12


def test_switch_off_matches_definition():
    rng = np.random.default_rng(8)
    system = random_system(3, 2, rng)
    free = ergotropy.global_ergotropy(system.rho_s(), system.h_s).value
    expected = free - ergotropy.delta_off(system)
    assert abs(ergotropy.switch_off_ergotropy(system) - expected) < 1e-12


# ---------------------------------------------------------------------------
# product-state effective Hamiltonian


def test_effective_product_no_coupling():
    rng = np.random.default_rng(9)
    rho_s = qmat.random_density(2, rng)
    rho_e = qmat.random_density(3, rng)
    h_s = qmat.random_hermitian(2, rng)
    got = ergotropy.effective_local_ergotropy_product(rho_s, rho_e, h_s, np.zeros((6, 6)))
    assert abs(got - ergotropy.global_ergotropy(rho_s, h_s).value) < 1e-12


def test_effective_product_maximally_mixed_environment():
    rng = np.random.default_rng(10)
    rho_s = qmat.random_density(2, rng)
    h_s = qmat.random_hermitian(2, rng)
    v = random_coupling(2, 3, rng)
    got = ergotropy.effective_local_ergotropy_product(rho_s, np.eye(3) / 3, h_s, v)
    # contraction of sigma x sigma coupling on I/3 vanishes
    assert abs(got - ergotropy.global_ergotropy(rho_s, h_s).value) < 1e-12


def test_effective_product_matches_joint_optimizer():
    rng = np.random.default_rng(11)
    for seed in range(3):
        rho_s = qmat.random_density(2, rng)
        rho_e = qmat.random_density(2, rng)
        h_s = qmat.random_hermitian(2, rng)
        v = random_coupling(2, 2, rng)
        system = qmat.BipartiteSystem.build(
            2, 2, qmat.tensor_product(rho_s, rho_e), h_s,
            qmat.random_hermitian(2, rng), v,
        )
        direct = ergotropy.effective_local_ergotropy_product(rho_s, rho_e, h_s, v)
        brute = brute_local_max(system, tries=12, seed=seed)
        assert abs(direct - brute) < 1e-6


# ---------------------------------------------------------------------------
# Hilbert-Schmidt gap bounds


def test_hs_bounds_zero_coupling():
    rng = np.random.default_rng(12)
    system = qmat.BipartiteSystem.build(
        2, 2, qmat.random_density(4, rng), qmat.random_hermitian(2, rng),
        qmat.random_hermitian(2, rng), None,
    )
    assert ergotropy.hs_gap_bounds(system) == (0.0, 0.0)


def test_hs_bounds_pure_state_norm():
    rng = np.random.default_rng(13)
    psi = random_state_vector(6, rng)
    v = random_coupling(2, 3, rng)
    system = qmat.BipartiteSystem.build(
        2, 3, np.outer(psi, psi.conj()), qmat.random_hermitian(2, rng),
        qmat.random_hermitian(3, rng), v,
    )
    v_hs = np.sqrt(np.sum(np.abs(v) ** 2))
    b1, b2 = ergotropy.hs_gap_bounds(system)
    assert abs(b1 - 2 * v_hs) < 1e-12 and abs(b2 - v_hs) < 1e-12


def test_hs_bounds_dominate_actual_gaps():
    # |local - free| <= 2 ||rho|| ||V|| and |local - switch_off| <= ||rho|| ||V||
    # (qubit S: the closed formula is exact, no optimizer risk)
    rng = np.random.default_rng(14)
    systems = [
        random_system(2, int(rng.integers(2, 5)), rng, v_scale=rng.uniform(0.2, 2.0))
        for _ in range(25)
    ]
    p = models.JcParams(1.0, 1.2, 0.1, 6)
    psi, _ = models.jc_dressed_state(p, 1, +1)
    systems.append(models.jc_bipartite(p, psi))
    for system in systems:
        local_val = local.qubit_local_ergotropy(local.build_m_matrix(system)).value
        free = ergotropy.global_ergotropy(system.rho_s(), system.h_s).value
        off = ergotropy.switch_off_ergotropy(system)
        b1, b2 = ergotropy.hs_gap_bounds(system)
        assert b1 > 0 or np.max(np.abs(system.v)) == 0
        assert abs(local_val - free) <= b1 + 1e-9
        assert abs(local_val - off) <= b2 + 1e-9


# ---------------------------------------------------------------------------
# two-level exact value and lower bound


def test_two_level_exact_ground_state_is_locally_passive():
    rng = np.random.default_rng(15)
    h_s, v, k = max_entangled_two_level(2, rng)
    ground = np.linalg.eigh(k)[1][:, 0]
    value = ergotropy.two_level_exact(ground, k, 2, 2)
    assert abs(value) < 1e-10


def test_two_level_exact_matches_brute_force():
    rng = np.random.default_rng(16)
    for seed in range(6):
        d = 2 if seed % 2 == 0 else 3
        h_s, v, k = max_entangled_two_level(d, rng)
        psi = random_state_vector(d * d, rng)
        value = ergotropy.two_level_exact(psi, k, d, d)
        system = qmat.BipartiteSystem.build(
            d, d, np.outer(psi, psi.conj()), h_s, None, v
        )
        brute = brute_local_max(system, tries=10, seed=seed)
        assert abs(value - brute) < 1e-6


def test_two_level_exact_rejects_many_levels():
    rng = np.random.default_rng(17)
    k = qmat.random_hermitian(4, rng)
    psi = random_state_vector(4, rng)
    with pytest.raises(ValueError):
        ergotropy.two_level_exact(psi, k, 2, 2)


def test_two_level_exact_rejects_degenerate_ground():
    rng = np.random.default_rng(171)
    # rank-2 ground projector: two levels but a degenerate ground
    u = qmat.haar_unitary(4, rng)
    proj = u[:, :2] @ u[:, :2].conj().T
    k = -1.5 * proj
    psi = random_state_vector(4, rng)
    with pytest.raises(ValueError):
        ergotropy.two_level_exact(psi, k, 2, 2)


def test_lower_bound_below_exact_value():
    rng = np.random.default_rng(18)
    for seed in range(20):
        system = random_system(2, int(rng.integers(2, 5)), rng)
        exact = local.qubit_local_ergotropy(local.build_m_matrix(system)).value
        bound = ergotropy.two_level_lower_bound(
            system.rho, system.h_s, system.v, system.d_s, system.d_e
        )
        assert bound <= exact + 1e-8


def test_lower_bound_equals_exact_on_pure_two_level():
    rng = np.random.default_rng(19)
    for seed in range(5):
        h_s, v, k = max_entangled_two_level(2, rng)
        psi = random_state_vector(4, rng)
        exact = ergotropy.two_level_exact(psi, k, 2, 2)
        bound = ergotropy.two_level_lower_bound(
            np.outer(psi, psi.conj()), h_s, v, 2, 2
        )
        assert abs(exact - bound) < 1e-9


def test_lower_bound_commuting_case_two_level_hamiltonian():
    # decoupled two-level h_s with a pure environment: the single best term
    # recovers the full ergotropy of the reduced state
    rng = np.random.default_rng(20)
    for _ in range(5):
        p_hi = rng.uniform(0.5, 0.9)
        rho_s = np.diag([p_hi, 1 - p_hi]).astype(complex)
        e1 = rng.uniform(0.5, 2.0)
        h_s = np.diag([e1, 0.0]).astype(complex)
        psi_e = random_state_vector(3, rng)
        rho = qmat.tensor_product(rho_s, np.outer(psi_e, psi_e.conj()))
        bound = ergotropy.two_level_lower_bound(rho, h_s, np.zeros((6, 6)), 2, 3)
        expected = ergotropy.global_ergotropy(rho_s, h_s).value
        assert abs(bound - expected) < 1e-10

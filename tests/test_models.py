import numpy as np
import pytest

from ergoloc import ergotropy, local, models, qmat
from helpers import brute_local_max, kron_xxz_system, model_hamiltonian


# ---------------------------------------------------------------------------
# atom + cavity


def test_jc_no_coupling():
    p = models.JcParams(1.0, 1.2, 0.0, 4)
    parts = models.jc_system(p)
    assert np.max(np.abs(parts.v)) == 0.0


def test_jc_excitation_block_element():
    p = models.JcParams(1.0, 1.2, 0.3, 6)
    parts = models.jc_system(p)
    d_e = p.n_max + 1
    for n in (0, 3):
        exc_n = 0 * d_e + n          # |exc>|n>
        gnd_n1 = 1 * d_e + (n + 1)   # |gnd>|n+1>
        assert abs(parts.v[exc_n, gnd_n1] - p.rabi * np.sqrt(n + 1) / 2) < 1e-14


def test_jc_partial_traces_vanish():
    p = models.JcParams(0.9, 1.1, 0.5, 5)
    parts = models.jc_system(p)
    d_e = p.n_max + 1
    assert np.max(np.abs(qmat.partial_trace(parts.v, 2, d_e, "S"))) < 1e-14
    assert np.max(np.abs(qmat.partial_trace(parts.v, 2, d_e, "E"))) < 1e-14


def test_jc_block_spectrum():
    # each excitation block contributes omega_e (n + 1/2) +- splitting/2
    p = models.JcParams(1.0, 1.3, 0.4, 8)
    h = model_hamiltonian(models.jc_system(p), 2, p.n_max + 1)
    w = np.linalg.eigvalsh(h)
    expected = [-p.omega_s / 2]  # |gnd>|0>
    for n in range(p.n_max):
        split = np.sqrt((p.omega_s - p.omega_e) ** 2 + p.rabi**2 * (n + 1)) / 2
        expected += [p.omega_e * (n + 0.5) - split, p.omega_e * (n + 0.5) + split]
    expected.append(p.omega_s / 2 + p.omega_e * p.n_max)  # truncation edge |exc>|n_max>
    assert np.max(np.abs(w - np.sort(expected))) < 1e-12


def test_dressed_states_are_eigenvectors():
    for omega_e in (0.7, 1.0, 1.2):
        p = models.JcParams(1.0, omega_e, 0.3, 9)
        h = model_hamiltonian(models.jc_system(p), 2, p.n_max + 1)
        for n in (0, 2, 5):
            for sign in (+1, -1):
                psi, energy = models.jc_dressed_state(p, n, sign)
                assert np.linalg.norm(h @ psi - energy * psi) <= 1e-10


def test_dressed_decoupled_limit():
    p = models.JcParams(1.0, 0.8, 1e-9, 4)
    psi, _ = models.jc_dressed_state(p, 1, +1)
    expected = np.zeros(2 * 5)
    expected[1] = 1.0  # |exc>|1>
    assert np.linalg.norm(psi - expected) < 1e-8


def test_dressed_resonance_angle():
    p = models.JcParams(1.0, 1.0, 0.2, 4)
    assert abs(models.jc_mixing_angle(p, 0) - np.pi / 4) < 1e-15


def test_dressed_orthonormal():
    p = models.JcParams(1.0, 1.4, 0.6, 6)
    plus, _ = models.jc_dressed_state(p, 2, +1)
    minus, _ = models.jc_dressed_state(p, 2, -1)
    assert abs(np.vdot(plus, minus)) < 1e-14
    assert abs(np.linalg.norm(plus) - 1) < 1e-14


def test_dressed_cutoff_guard():
    p = models.JcParams(1.0, 1.0, 0.1, 4)
    with pytest.raises(ValueError):
        models.jc_dressed_state(p, 4, +1)


def test_jc_analytic_against_pipeline_grid():
    # closed-form triple vs the generic pipeline over the full grid
    for n in (0, 1, 5, 10):
        for delta in (-0.5, -0.2, 0.0, 0.2, 0.5):
            for rabi in (0.05, 0.1, 0.5):
                p = models.JcParams(1.0, 1.0 - delta, rabi, n + 5)
                for sign in (+1, -1):
                    psi, _ = models.jc_dressed_state(p, n, sign)
                    system = models.jc_bipartite(p, psi)
                    triple = models.jc_analytic(p, n, sign)
                    assert abs(ergotropy.delta_off(system) - triple.delta_off) < 1e-9
                    assert abs(ergotropy.switch_off_ergotropy(system) - triple.switch_off) < 1e-9
                    mm = local.build_m_matrix(system)
                    got = local.qubit_local_ergotropy(mm).value
                    assert abs(got - triple.local_ergotropy) < 1e-9


def test_jc_analytic_against_brute_force():
    # independent optimization confirms the closed forms, including the
    # strong-coupling branch where the extraction reaches the full coherence
    # term 2 G |sin 2 theta|
    cases = [
        (1.0, 1.0, 0.1, 0, +1),   # resonance: value = rabi sqrt(n+1)
        (1.0, 1.0, 0.1, 0, -1),   # resonance lower branch: locally passive
        (1.0, 1.2, 0.5, 1, +1),   # detuned strong coupling, lower state
        (1.0, 1.2, 0.5, 1, -1),   # detuned strong coupling, upper state
        (1.0, 0.8, 0.1, 1, +1),   # weak coupling, positive detuning
        (1.0, 0.8, 0.1, 1, -1),
    ]
    for idx, (w_s, w_e, rabi, n, sign) in enumerate(cases):
        p = models.JcParams(w_s, w_e, rabi, n + 4)
        psi, _ = models.jc_dressed_state(p, n, sign)
        system = models.jc_bipartite(p, psi)
        brute = brute_local_max(system, tries=12, seed=idx)
        assert abs(brute - models.jc_analytic(p, n, sign).local_ergotropy) < 1e-6


def test_jc_resonance_full_splitting():
    # sigma_z x I maps |n,+> onto |n,-> at resonance, extracting the entire
    # Rabi splitting rabi * sqrt(n+1)
    p = models.JcParams(1.0, 1.0, 0.1, 8)
    for n in (0, 3):
        psi, _ = models.jc_dressed_state(p, n, +1)
        system = models.jc_bipartite(p, psi)
        got = local.qubit_local_ergotropy(local.build_m_matrix(system)).value
        assert abs(got - p.rabi * np.sqrt(n + 1)) < 1e-12
        assert abs(models.jc_analytic(p, n, +1).local_ergotropy - got) < 1e-12


def test_jc_off_resonant_gap_collapses():
    # far off resonance both protocols agree: local - switch_off -> 0
    p = models.JcParams(1.0, 6.0, 0.05, 6)
    for sign in (+1, -1):
        triple = models.jc_analytic(p, 1, sign)
        assert abs(triple.local_ergotropy - triple.switch_off) < 1e-3


def test_jc_weak_coupling_minus_state_passive():
    # omega_s cos 2 theta >= G |sin 2 theta| and positive detuning:
    # the lower dressed branch yields nothing locally
    p = models.JcParams(1.0, 0.9, 0.05, 5)
    triple = models.jc_analytic(p, 1, -1)
    assert triple.local_ergotropy == 0.0


def test_jc_det_m_signs():
    # det M(|n,+>) <= 0 and det M(|n,->) >= 0 over the grid (the +-branch
    # matrix is diag(-Gs/2, -Gs/2, -wc/2) whose determinant is -(Gs/2)^2 wc/2)
    for n in (0, 1, 5):
        for delta in (-0.5, -0.2, 0.0, 0.2, 0.5):
            for rabi in (0.05, 0.5):
                p = models.JcParams(1.0, 1.0 - delta, rabi, n + 4)
                plus, _ = models.jc_dressed_state(p, n, +1)
                minus, _ = models.jc_dressed_state(p, n, -1)
                det_p = np.linalg.det(local.build_m_matrix(models.jc_bipartite(p, plus)).m)
                det_m = np.linalg.det(local.build_m_matrix(models.jc_bipartite(p, minus)).m)
                assert det_p <= 1e-15
                assert det_m >= -1e-15


def test_jc_truncation_stability():
    n = 3
    results = []
    for margin in (3, 6):
        p = models.JcParams(1.0, 1.15, 0.3, n + margin)
        psi, _ = models.jc_dressed_state(p, n, +1)
        system = models.jc_bipartite(p, psi)
        results.append(
            (
                ergotropy.delta_off(system),
                ergotropy.switch_off_ergotropy(system),
                local.qubit_local_ergotropy(local.build_m_matrix(system)).value,
            )
        )
    assert np.max(np.abs(np.array(results[0]) - np.array(results[1]))) <= 1e-10


def test_phase_family_limits():
    p = models.JcParams(1.0, 1.2, 0.1, 8)
    plus, _ = models.jc_dressed_state(p, 3, +1)
    minus, _ = models.jc_dressed_state(p, 3, -1)
    for phi in (0.0, 1.3):
        rho = models.jc_phase_family_state(p, 3, 0.0, phi)
        assert np.max(np.abs(rho - np.outer(plus, plus.conj()))) < 1e-14
    rho = models.jc_phase_family_state(p, 3, np.pi / 2, 0.0)
    assert np.max(np.abs(rho - np.outer(minus, minus.conj()))) < 1e-14


def test_phase_family_sweep_has_zeros_and_arcs_at_small_alpha():
    # at alpha = 0.2 pi the family crosses local passivity; at the published
    # alpha = 0.4 pi the corrected pipeline stays strictly positive
    p = models.JcParams(1.0, 1.2, 0.1, 15)
    phis = np.linspace(0, 20 * np.pi, 200)

    def sweep(alpha):
        vals = []
        for phi in phis:
            rho = models.jc_phase_family_state(p, 10, alpha, phi)
            system = models.jc_bipartite(p, rho)
            vals.append(local.qubit_local_ergotropy(local.build_m_matrix(system)).value)
        return np.array(vals)

    v_small = sweep(0.2 * np.pi)
    assert v_small.min() < 1e-12
    assert v_small.max() > 1e-3
    v_published = sweep(0.4 * np.pi)
    assert v_published.min() > 1e-3


# ---------------------------------------------------------------------------
# spin ring


def test_xxz_all_down_energy():
    for n in (3, 4, 6):
        p = models.XxzParams(n, 1.0, 0.05, 0.2)
        h = model_hamiltonian(models.xxz_system(p), 2, 2 ** (n - 1))
        down = np.zeros(2**n, dtype=complex)
        down[-1] = 1.0
        e = np.vdot(down, h @ down).real
        assert abs(e - (-n * (p.epsilon + p.j_z))) < 1e-12


def test_xxz_conserves_total_sz():
    p = models.XxzParams(4, 1.0, 0.1, 0.3)
    h = model_hamiltonian(models.xxz_system(p), 2, 8)
    sz_total = np.zeros((16, 16), dtype=complex)
    sz = np.diag([1.0, -1.0]).astype(complex)
    for site in range(4):
        op = np.array([[1.0]], dtype=complex)
        for k in range(4):
            op = np.kron(op, sz if k == site else np.eye(2))
        sz_total += op
    assert np.max(np.abs(h @ sz_total - sz_total @ h)) < 1e-10


def test_xxz_ising_limit_diagonal():
    p = models.XxzParams(4, 1.0, 0.0, 0.3)
    h = model_hamiltonian(models.xxz_system(p), 2, 8)
    assert np.max(np.abs(h - np.diag(np.diag(h)))) < 1e-14


def test_xxz_guard_on_size():
    with pytest.raises(ValueError):
        models.xxz_system(models.XxzParams(20))
    with pytest.raises(ValueError):
        models.xxz_system(models.XxzParams(models.XXZ_MAX_SITES + 1))
    with pytest.raises(ValueError):
        models.xxz_plane_wave(models.XxzParams(models.XXZ_PLANE_WAVE_MAX_SITES + 1), 0)


def test_xxz_system_matches_kron_builder():
    for params in ((1.0, 0.05, 0.2), (0.7, 0.13, 0.3), (0.3, 0.4, -0.5)):
        for n in range(3, 10):
            p = models.XxzParams(n, *params)
            for got, ref in zip(models.xxz_system(p), kron_xxz_system(p)):
                assert got.shape == ref.shape
                assert np.max(np.abs(got - ref)) <= 1e-15


def test_xxz_plane_wave_is_the_bethe_state():
    p = models.XxzParams(7)
    for k in range(-2, 4):
        idx, amp = models.xxz_plane_wave(p, k)
        psi = models.xxz_bethe_state(p, k)
        assert np.all(np.diff(idx) > 0)
        assert np.array_equal(np.flatnonzero(psi), idx)
        assert np.array_equal(psi[idx], amp)


@pytest.mark.parametrize("sites", [9, 16, 62])
def test_plane_wave_residual_reads_an_energy_offset(monkeypatch, sites):
    # ||H phi_k - (E_k + delta) phi_k|| = delta for a unit eigenvector, so
    # the residual is computed from H, not from the closed form of E_k
    delta = 1e-3
    true_energy = models.xxz_bethe_energy
    monkeypatch.setattr(models, "xxz_bethe_energy", lambda p, k: true_energy(p, k) + delta)
    p = models.XxzParams(sites, 0.7, 0.13, 0.3)
    for k in models.xxz_momenta(p):
        assert abs(models.xxz_plane_wave_reduction(p, k)[3] - delta) <= 1e-12


def test_bethe_states_eigenvectors_and_orthonormal():
    p = models.XxzParams(6, 1.0, 0.1, 0.4)
    ks = list(range(-2, 4))
    states = [models.xxz_bethe_state(p, k) for k in ks]
    h = model_hamiltonian(models.xxz_system(p), 2, 32)
    for k, psi in zip(ks, states):
        e_k = models.xxz_bethe_energy(p, k)
        assert np.linalg.norm(h @ psi - e_k * psi) <= 1e-10
    for i in range(len(ks)):
        for j in range(len(ks)):
            expected = 1.0 if i == j else 0.0
            assert abs(np.vdot(states[i], states[j]) - expected) < 1e-12


def test_bethe_k0_energy():
    for n in (4, 8):
        p = models.XxzParams(n, 1.0, 0.07, 0.25)
        assert abs(
            models.xxz_bethe_energy(p, 0)
            - (-((n - 2) * p.epsilon + (n - 4) * p.j_z + 4 * p.j))
        ) < 1e-14


def test_bethe_reduced_state():
    p = models.XxzParams(8, 1.0, 0.05, 0.2)
    system = models.xxz_bipartite(p, models.xxz_bethe_state(p, 2))
    rho_s = system.rho_s()
    # (up, down) basis ordering: up population 1/N, down (N-1)/N
    assert abs(rho_s[0, 0].real - 1 / 8) < 1e-12
    assert abs(rho_s[1, 1].real - 7 / 8) < 1e-12
    assert abs(rho_s[0, 1]) < 1e-12


def test_bethe_k_range_guard():
    p = models.XxzParams(6)
    with pytest.raises(ValueError):
        models.xxz_bethe_state(p, 4)
    with pytest.raises(ValueError):
        models.xxz_bethe_state(p, -3)


def test_xxz_analytic_against_pipeline():
    for n in (4, 6, 8):
        for j in (0.02, 0.1):
            for j_z in (0.1, 0.4):
                p = models.XxzParams(n, 1.0, j, j_z)
                for k in range(-(n // 2) + 1, n // 2 + 1):
                    psi = models.xxz_bethe_state(p, k)
                    system = models.xxz_bipartite(p, psi)
                    triple = models.xxz_analytic(p, k)
                    assert abs(ergotropy.delta_off(system) - triple.delta_off) < 1e-9
                    assert abs(ergotropy.switch_off_ergotropy(system) - triple.switch_off) < 1e-9
                    got = local.qubit_local_ergotropy(local.build_m_matrix(system)).value
                    assert abs(got - triple.local_ergotropy) < 1e-9


def test_xxz_analytic_against_brute_force():
    # independent optimization pins the branch value (8j/N)(|cos q| - cos q)
    p = models.XxzParams(4, 1.0, 0.05, 0.2)
    for k in (0, 2):
        psi = models.xxz_bethe_state(p, k)
        system = models.xxz_bipartite(p, psi)
        brute = brute_local_max(system, tries=10, seed=k)
        assert abs(brute - models.xxz_analytic(p, k).local_ergotropy) < 1e-6


def test_xxz_local_dominates_switch_off_for_large_rings():
    for n in (4, 6, 8):
        p = models.XxzParams(n, 1.0, 0.05, 0.2)
        for k in range(-(n // 2) + 1, n // 2 + 1):
            triple = models.xxz_analytic(p, k)
            assert triple.local_ergotropy >= triple.switch_off - 1e-12


def test_xxz_small_ring_reversal():
    # N = 3, k = 0: switching off pays, staying coupled yields nothing
    p = models.XxzParams(3, 1.0, 0.02, 0.3)
    triple = models.xxz_analytic(p, 0)
    assert triple.switch_off > 0
    assert abs(triple.local_ergotropy) <= 1e-10
    system = models.xxz_bipartite(p, models.xxz_bethe_state(p, 0))
    numeric = local.qubit_local_ergotropy(local.build_m_matrix(system)).value
    assert abs(numeric) <= 1e-10
    assert abs(ergotropy.switch_off_ergotropy(system) - triple.switch_off) < 1e-12


def test_xxz_regime_guard():
    # large j_z with n = 3 drives the axial entry negative: analytic branch
    # is withheld while the numeric pipeline still answers
    p = models.XxzParams(3, 0.1, 0.02, 0.5)
    with pytest.raises(models.RegimeError):
        models.xxz_analytic(p, 1)
    system = models.xxz_bipartite(p, models.xxz_bethe_state(p, 1))
    value = local.qubit_local_ergotropy(local.build_m_matrix(system)).value
    assert value >= 0.0

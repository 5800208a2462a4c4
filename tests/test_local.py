import types

import numpy as np
import pytest

from ergoloc import ergotropy, gpo, kernels, local, models, qmat, sdp
from helpers import (
    brute_local_max,
    cost_from_m,
    direct_objective,
    m_matrix_from_bloch,
    non_tight_qutrit_fixtures,
    random_system,
)


def test_m_zero_for_mixed_state_no_coupling():
    rng = np.random.default_rng(0)
    rho = qmat.tensor_product(np.eye(2) / 2, qmat.random_density(3, rng))
    system = qmat.BipartiteSystem.build(
        2, 3, rho, qmat.random_hermitian(2, rng), qmat.random_hermitian(3, rng), None
    )
    mm = local.build_m_matrix(system)
    assert np.max(np.abs(mm.m)) < 1e-14


def test_m_jc_dressed_plus():
    # diag(-G s / 2, -G s / 2, -omega_s c / 2) with G = rabi sqrt(n+1)/2;
    # pinned by the objective identity and direct optimization below
    p = models.JcParams(1.0, 1.3, 0.4, 8)
    n = 2
    th = models.jc_mixing_angle(p, n)
    g = p.rabi * np.sqrt(n + 1) / 2
    psi, _ = models.jc_dressed_state(p, n, +1)
    mm = local.build_m_matrix(models.jc_bipartite(p, psi))
    s, c = np.sin(2 * th), np.cos(2 * th)
    expected = np.diag([-g * s / 2, -g * s / 2, -p.omega_s * c / 2])
    assert np.max(np.abs(mm.m - expected)) < 1e-12
    # minus state carries the opposite matrix
    psi_m, _ = models.jc_dressed_state(p, n, -1)
    mm_m = local.build_m_matrix(models.jc_bipartite(p, psi_m))
    assert np.max(np.abs(mm_m.m + expected)) < 1e-12


def test_m_xxz_plane_wave():
    # diag(a, a, b), a = (4J/N) cos q, b = (N-2) eps / N + (2N-8) Jz / N
    p = models.XxzParams(6, 1.0, 0.1, 0.4)
    for k in (0, 1, 3):
        psi = models.xxz_bethe_state(p, k)
        mm = local.build_m_matrix(models.xxz_bipartite(p, psi))
        q = 2 * np.pi * k / 6
        a = 4 * p.j / 6 * np.cos(q)
        b = (6 - 2) * p.epsilon / 6 + (2 * 6 - 8) * p.j_z / 6
        assert np.max(np.abs(mm.m - np.diag([a, a, b]))) < 1e-12


@pytest.mark.parametrize("seed,d_s,d_e", [(0, 2, 2), (1, 2, 4), (2, 3, 3)])
def test_m_dual_construction_agreement(seed, d_s, d_e):
    rng = np.random.default_rng(seed)
    system = random_system(d_s, d_e, rng)
    m1 = local.build_m_matrix(system).m
    m2 = m_matrix_from_bloch(gpo.decompose(system)).m
    assert np.max(np.abs(m1 - m2)) < 1e-10


@pytest.mark.parametrize("d_s,d_e", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_objective_identity(d_s, d_e):
    # Tr[O_U M - M] equals the Hilbert-space objective for random (system, U)
    rng = np.random.default_rng(d_s * 10 + d_e)
    basis = gpo.gpo_basis(d_s)
    for _ in range(15):
        system = random_system(d_s, d_e, rng)
        mm = local.build_m_matrix(system)
        u = qmat.haar_unitary(d_s, rng)
        o = gpo.orthogonal_image(u, basis)
        bloch_form = float(np.trace(o @ mm.m - mm.m))
        assert abs(bloch_form - direct_objective(system, u)) < 1e-9


def test_qubit_formula_zero_matrix():
    rep = local.qubit_local_ergotropy(local.MMatrix(np.zeros((3, 3)), 2))
    assert rep.value == 0.0


def test_qubit_formula_branches_explicit():
    # det >= 0: value = sum(sv) - tr; det < 0: subtract twice the smallest sv
    m_pos = np.diag([-1.0, 2.0, -3.0])  # det = 6 > 0
    rep = local.qubit_local_ergotropy(local.MMatrix(m_pos, 2))
    assert abs(rep.value - (6.0 - (-2.0))) < 1e-12
    m_neg = np.diag([-1.0, 2.0, 3.0])  # det = -6 < 0
    rep = local.qubit_local_ergotropy(local.MMatrix(m_neg, 2))
    assert abs(rep.value - (6.0 - 2 * 1.0 - 4.0)) < 1e-12


def test_qubit_formula_jc_values():
    # dressed states under the closed-form triple (validated against brute
    # force optimization in test_models)
    p = models.JcParams(1.0, 1.2, 0.1, 8)
    for n in (0, 1):
        for sign in (+1, -1):
            psi, _ = models.jc_dressed_state(p, n, sign)
            mm = local.build_m_matrix(models.jc_bipartite(p, psi))
            got = local.qubit_local_ergotropy(mm).value
            assert abs(got - models.jc_analytic(p, n, sign).local_ergotropy) < 1e-12


def test_qubit_formula_reports_attaining_unitary():
    rng = np.random.default_rng(3)
    for seed in range(10):
        system = random_system(2, int(rng.integers(2, 5)), rng)
        rep = local.qubit_local_ergotropy(local.build_m_matrix(system))
        u = rep.optimal_unitary
        assert np.max(np.abs(u.conj().T @ u - np.eye(2))) < 1e-10
        assert abs(direct_objective(system, u) - rep.value) < 1e-8


def test_qubit_formula_rejects_wrong_dim():
    with pytest.raises(ValueError):
        local.qubit_local_ergotropy(local.MMatrix(np.zeros((8, 8)), 3))


def test_branch_continuity_as_det_crosses_zero():
    # shrink the smallest singular value through zero: branch values converge
    rng = np.random.default_rng(4)
    base = rng.normal(size=(3, 3))
    u, sv, vt = np.linalg.svd(base)
    for s_min in (1e-3, 1e-6):
        sv_mod = np.array([sv[0], sv[1], s_min])
        m_pos = u @ np.diag(sv_mod) @ vt
        m_neg = u @ np.diag([sv_mod[0], sv_mod[1], -s_min]) @ vt
        # both sides of the crossing evaluated by the same formula
        v_pos = local.qubit_local_ergotropy(local.MMatrix(m_pos, 2)).value
        v_neg = local.qubit_local_ergotropy(local.MMatrix(m_neg, 2)).value
        assert abs(v_pos - v_neg) < 4 * s_min + 1e-12


def test_branch_value_stack_matches_single_calls():
    # a (..., k, k) stack gives, entry by entry, the value and rotation of the
    # single-matrix call; both branches occur (det M of either sign)
    rng = np.random.default_rng(12)
    for k in (3, 8):
        stack = rng.normal(size=(2, 5, k, k))
        stack[0, 0, -1] = 0.0  # det M = 0 on the branch boundary
        values, rotations = local._branch_value(stack)
        assert values.shape == (2, 5) and rotations.shape == (2, 5, k, k)
        dets = np.linalg.det(stack)
        assert np.any(dets > 0) and np.any(dets < 0)
        for idx in np.ndindex(2, 5):
            value, rotation = local._branch_value(stack[idx])
            assert isinstance(value, float)
            assert abs(values[idx] - value) <= 1e-12 * max(1.0, abs(value))
            assert np.max(np.abs(rotations[idx] - rotation)) <= 1e-12


def test_rotation_lift_roundtrip():
    rng = np.random.default_rng(5)
    basis = gpo.gpo_basis(2)
    for _ in range(20):
        u = qmat.haar_unitary(2, rng)
        o = gpo.orthogonal_image(u, basis)
        u2 = local.rotation_to_qubit_unitary(o)
        o2 = gpo.orthogonal_image(u2, basis)
        assert np.max(np.abs(o - o2)) < 1e-9


def test_rotation_lift_matches_scipy_lift():
    # scipy's axis-angle lift is the oracle here only; the package lifts
    # through the quaternion in numpy
    from scipy.spatial.transform import Rotation

    basis = gpo.gpo_basis(2)

    def scipy_lift(o):
        rotvec = Rotation.from_matrix(o).as_rotvec()
        angle = float(np.linalg.norm(rotvec))
        if angle == 0.0:
            return np.eye(2, dtype=complex)
        n = rotvec / angle
        n_sigma = n[0] * basis[0] + n[1] * basis[1] + n[2] * basis[2]
        return np.cos(angle / 2) * np.eye(2) - 1j * np.sin(angle / 2) * n_sigma

    rng = np.random.default_rng(25)
    rotations = [np.eye(3), np.diag([1.0, -1, -1]), np.diag([-1.0, 1, -1]), np.diag([-1.0, -1, 1])]
    rotations += [gpo.orthogonal_image(qmat.haar_unitary(2, rng), basis) for _ in range(2000)]
    for o in rotations:
        u = local.rotation_to_qubit_unitary(o)
        assert np.max(np.abs(u - scipy_lift(o))) < 1e-12
        assert np.max(np.abs(gpo.orthogonal_image(u, basis) - o)) < 1e-12


def test_polar_bound_equals_closed_formula_for_qubit():
    rng = np.random.default_rng(6)
    for seed in range(20):
        system = random_system(2, int(rng.integers(2, 6)), rng)
        mm = local.build_m_matrix(system)
        assert abs(local.polar_upper_bound(mm) - local.qubit_local_ergotropy(mm).value) < 1e-10


def test_polar_bound_minus_identity_parity():
    for d_s in (2, 3):
        k = d_s * d_s - 1
        mm = local.MMatrix(-np.eye(k), d_s)
        expected = 2 * k if k % 2 == 0 else 2 * k - 2
        assert abs(local.polar_upper_bound(mm) - expected) < 1e-12


def test_polar_bound_dominates_optimizer_d3():
    rng = np.random.default_rng(7)
    for seed in range(3):
        system = random_system(3, 2, rng)
        mm = local.build_m_matrix(system)
        rep = local.optimize_local_unitary(system, local.OptimizerConfig(restarts=8, seed=seed))
        assert local.polar_upper_bound(mm) >= rep.value - 1e-6


# ---------------------------------------------------------------------------
# optimizer


def test_optimizer_no_coupling_reduces_to_free_case():
    rng = np.random.default_rng(8)
    rho = qmat.random_density(6, rng)
    system = qmat.BipartiteSystem.build(
        2, 3, rho, qmat.random_hermitian(2, rng), qmat.random_hermitian(3, rng), None
    )
    rep = local.optimize_local_unitary(system, local.OptimizerConfig(restarts=6, seed=0))
    free = ergotropy.global_ergotropy(system.rho_s(), system.h_s).value
    assert abs(rep.value - free) < 1e-7


def test_optimizer_matches_qubit_closed_formula():
    rng = np.random.default_rng(9)
    for seed in range(25):
        system = random_system(2, int(rng.integers(2, 7)), rng)
        closed = local.qubit_local_ergotropy(local.build_m_matrix(system)).value
        rep = local.optimize_local_unitary(system, local.OptimizerConfig(restarts=8, seed=seed))
        assert abs(rep.value - closed) < 1e-6
        assert rep.diagnostics["converged"]


def test_optimizer_diagonal_dominates_assignment():
    rng = np.random.default_rng(10)
    for seed in range(5):
        p = rng.dirichlet(np.ones(9)).reshape(3, 3)
        e = rng.normal(size=(3, 3))
        rho = np.diag(p.reshape(-1)).astype(complex)
        h_joint = np.diag(e.reshape(-1)).astype(complex)
        h_s = qmat.partial_trace(h_joint, 3, 3, "E") / 3
        h_e = qmat.partial_trace(h_joint, 3, 3, "S") / 3
        shift = np.trace(h_joint).real / 9
        h_s -= shift / 2 * np.eye(3)
        h_e -= shift / 2 * np.eye(3)
        v = h_joint - qmat.tensor_product(h_s, np.eye(3)) - qmat.tensor_product(np.eye(3), h_e)
        system = qmat.BipartiteSystem.build(3, 3, rho, h_s, h_e, v)
        classical, _ = ergotropy.classical_local_ergotropy(p, e)
        rep = local.optimize_local_unitary(system, local.OptimizerConfig(restarts=12, seed=seed))
        assert rep.value >= classical - 1e-6


def test_gradient_matches_central_differences():
    rng = np.random.default_rng(11)
    for d_s, d_e in ((2, 3), (3, 2)):
        system = random_system(d_s, d_e, rng)
        u0 = qmat.haar_unitary(d_s, rng)
        e0 = float(np.trace(system.rho @ system.total_hamiltonian()).real)
        _, grad, _ = kernels._value_and_gradient(cost_from_m(system).c, e0, u0)
        eps = 1e-5
        basis = []
        for i in range(d_s):
            e = np.zeros((d_s, d_s), dtype=complex)
            e[i, i] = 1.0
            basis.append(e)
        for i in range(d_s):
            for j in range(i + 1, d_s):
                e = np.zeros((d_s, d_s), dtype=complex)
                e[i, j] = e[j, i] = 1.0
                basis.append(e)
                e = np.zeros((d_s, d_s), dtype=complex)
                e[i, j] = -1j
                e[j, i] = 1j
                basis.append(e)
        for direction in basis:
            w, vec = np.linalg.eigh(direction)

            def at(t):
                step = (vec * np.exp(1j * t * w)) @ vec.conj().T
                return direct_objective(system, step @ u0)

            fd = (at(eps) - at(-eps)) / (2 * eps)
            analytic = 2 * np.trace(grad @ direction).real
            assert abs(fd - analytic) <= 1e-5 * max(1.0, abs(analytic))


def test_optimizer_between_zero_and_bounds():
    rng = np.random.default_rng(12)
    for seed in range(5):
        system = random_system(2, 3, rng)
        mm = local.build_m_matrix(system)
        rep = local.optimize_local_unitary(system, local.OptimizerConfig(restarts=6, seed=seed))
        assert rep.value >= -1e-12
        assert rep.value <= local.polar_upper_bound(mm) + 1e-6


def test_optimizer_deterministic_given_seed():
    rng = np.random.default_rng(13)
    system = random_system(2, 3, rng)
    cfg = local.OptimizerConfig(restarts=6, seed=42)
    a = local.optimize_local_unitary(system, cfg)
    b = local.optimize_local_unitary(system, cfg)
    assert a.value == b.value
    assert np.array_equal(a.optimal_unitary, b.optimal_unitary)


def test_optimizer_matches_independent_brute_force_d3():
    rng = np.random.default_rng(15)
    system = random_system(3, 2, rng)
    rep = local.optimize_local_unitary(system, local.OptimizerConfig(restarts=16, seed=0))
    brute = brute_local_max(system, tries=20, seed=0)
    assert abs(rep.value - brute) < 1e-6


def test_convexity_in_state():
    rng = np.random.default_rng(16)
    for seed in range(8):
        d_e = int(rng.integers(2, 5))
        sys1 = random_system(2, d_e, rng)
        sys2 = qmat.BipartiteSystem.build(
            2, d_e, qmat.random_density(2 * d_e, rng), sys1.h_s, sys1.h_e, sys1.v
        )
        lam = rng.uniform()
        mix = qmat.BipartiteSystem.build(
            2, d_e, lam * sys1.rho + (1 - lam) * sys2.rho, sys1.h_s, sys1.h_e, sys1.v
        )
        e_mix = local.qubit_local_ergotropy(local.build_m_matrix(mix)).value
        e_1 = local.qubit_local_ergotropy(local.build_m_matrix(sys1)).value
        e_2 = local.qubit_local_ergotropy(local.build_m_matrix(sys2)).value
        assert e_mix <= lam * e_1 + (1 - lam) * e_2 + 1e-6


def test_optimizer_config_validation():
    with pytest.raises(ValueError):
        local.OptimizerConfig(restarts=0)


def _relaxation(system, tol=1e-7):
    cost = cost_from_m(system)
    bound, sol = sdp.sdp_upper_bound(cost, cost.energy, tol=tol)
    return bound, (cost, sol, tol)


def test_rounded_relaxation_matches_restarts_and_is_certified():
    rng = np.random.default_rng(26)
    for i in range(12):
        d_s = 2 + i % 3
        d_e = int(rng.integers(2, 7))
        system = random_system(d_s, d_e, rng, rank=1 if i // 3 % 2 == 0 else None)
        bound, relaxation = _relaxation(system)
        cost, _, tol = relaxation
        rounded = local.optimize_local_unitary(system)
        handed = local.optimize_local_unitary(system, relaxation=relaxation)
        restarted = local.optimize_local_unitary(system, relaxation=(cost, None, tol))
        assert rounded.diagnostics["certified"] is True
        assert rounded.diagnostics["converged"] is True
        assert rounded.diagnostics["restarts"] == 1
        assert rounded.diagnostics["bound"] == bound
        assert rounded.value <= bound + 1e-12
        assert rounded.value >= restarted.value - 1e-12
        attained = local.local_objective(system, rounded.optimal_unitary)
        assert abs(attained - rounded.value) <= 1e-12 * max(1.0, abs(rounded.value))
        assert handed.value == rounded.value
        assert np.array_equal(handed.optimal_unitary, rounded.optimal_unitary)
        assert handed.diagnostics["certified"] is True
        assert restarted.diagnostics["certified"] is False
        assert restarted.diagnostics["bound"] is None
        assert restarted.diagnostics["restarts"] == 32


@pytest.mark.parametrize("case", non_tight_qutrit_fixtures(), ids=lambda c: c[0])
def test_non_tight_relaxation_falls_back_to_restarts(case):
    _, rho, v, sdp_value, best = case
    system = qmat.BipartiteSystem.build(3, 3, rho, np.zeros((3, 3)), None, v)
    bound, relaxation = _relaxation(system)
    assert abs(bound - sdp_value) < 1e-5
    rep = local.optimize_local_unitary(system, relaxation=relaxation)
    assert rep.diagnostics["certified"] is False
    assert rep.diagnostics["restarts"] == 1 + local.OptimizerConfig().restarts
    assert abs(rep.value - best) < 1e-9
    assert abs(rep.value - brute_local_max(system, tries=10)) < 1e-9


@pytest.mark.parametrize("case", non_tight_qutrit_fixtures(), ids=lambda c: c[0])
def test_non_tight_default_call_runs_restarts(case):
    _, rho, v, _, best = case
    system = qmat.BipartiteSystem.build(3, 3, rho, np.zeros((3, 3)), None, v)
    rep = local.optimize_local_unitary(system)
    assert rep.diagnostics["certified"] is False
    assert rep.diagnostics["restarts"] == 33
    assert abs(rep.value - best) < 1e-9


def test_relaxation_is_solved_up_to_the_size_limit(monkeypatch):
    rng = np.random.default_rng(27)
    at_limit = random_system(sdp.MAX_D_S, 2, rng)
    rep = local.optimize_local_unitary(at_limit, local.OptimizerConfig(restarts=1))
    assert rep.diagnostics["bound"] is not None
    assert rep.value <= rep.diagnostics["bound"] + 1e-12

    def refuse(*args):
        raise AssertionError("the relaxation is not solved above sdp.MAX_D_S")

    monkeypatch.setattr(kernels, "admm_kernel", refuse)
    above = random_system(sdp.MAX_D_S + 1, 2, rng)
    rep = local.optimize_local_unitary(above, local.OptimizerConfig(restarts=1))
    assert rep.diagnostics["certified"] is False
    assert rep.diagnostics["bound"] is None
    assert rep.diagnostics["restarts"] == 1
    with pytest.raises(ValueError, match="d_S"):
        sdp.sdp_upper_bound(cost_from_m(above), 0.0)


def test_optimizer_has_no_joint_dimension_limit():
    # with the relaxation handed over and one start, the optimizer reads only
    # d_S off the system: its work is d_S^2-sized whatever d_E is
    rng = np.random.default_rng(28)
    system = random_system(2, 3, rng)
    _, relaxation = _relaxation(system)
    cfg = local.OptimizerConfig(restarts=1)
    small = local.optimize_local_unitary(system, cfg, relaxation)
    wide = local.optimize_local_unitary(types.SimpleNamespace(d_s=2, d_e=4096), cfg, relaxation)
    assert wide.value == small.value
    assert np.array_equal(wide.optimal_unitary, small.optimal_unitary)
    assert wide.diagnostics["certified"] == small.diagnostics["certified"]

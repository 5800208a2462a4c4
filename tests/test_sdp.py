import numpy as np
import pytest

from ergoloc import local, qmat, sdp
from helpers import (
    admm_oracle,
    apply_channel_local,
    choi_matrix,
    cost_from_m,
    dense_choi_cost,
    random_system,
)


def _rho_energy(system):
    return float(np.trace(system.rho @ system.total_hamiltonian()).real)


def _random_kraus(d, n_ops, rng):
    """Random CPTP Kraus family via a Haar isometry column block."""
    big = qmat.haar_unitary(d * n_ops, rng)
    block = big[:, :d]
    return [block[m * d:(m + 1) * d, :] for m in range(n_ops)]


def test_choi_identity_channel():
    rng = np.random.default_rng(0)
    for d_s, d_e in ((2, 3), (3, 4)):
        system = random_system(d_s, d_e, rng)
        cost = cost_from_m(system)
        e_id = choi_matrix([np.eye(d_s)])
        assert abs(np.trace(cost.c @ e_id).real - _rho_energy(system)) < 1e-11
        assert abs(cost.energy - _rho_energy(system)) < 1e-11


def test_choi_cost_hermitian():
    rng = np.random.default_rng(1)
    system = random_system(3, 2, rng)
    c = cost_from_m(system).c
    assert qmat.hermiticity_drift(c) < 1e-12


@pytest.mark.parametrize("d_s,d_e,n_ops", [(2, 2, 1), (2, 3, 2), (3, 2, 3)])
def test_choi_identity_random_channels(d_s, d_e, n_ops):
    rng = np.random.default_rng(d_s + 10 * d_e + n_ops)
    for _ in range(5):
        system = random_system(d_s, d_e, rng)
        cost = dense_choi_cost(system)
        kraus = _random_kraus(d_s, n_ops, rng)
        e_phi = choi_matrix(kraus)
        lhs = np.trace(cost.c @ e_phi).real
        rho_out = apply_channel_local(kraus, system.rho, d_s, d_e)
        rhs = np.trace(system.total_hamiltonian() @ rho_out).real
        assert abs(lhs - rhs) < 1e-9


def test_choi_decoupled_cost():
    # with V = 0 the channel cost splits into S and E pieces
    rng = np.random.default_rng(5)
    system = qmat.BipartiteSystem.build(
        2, 3, qmat.random_density(6, rng), qmat.random_hermitian(2, rng),
        qmat.random_hermitian(3, rng), None,
    )
    cost = dense_choi_cost(system)
    kraus = _random_kraus(2, 2, rng)
    e_phi = choi_matrix(kraus)
    rho_s_out = sum(k @ system.rho_s() @ k.conj().T for k in kraus)
    expected = np.trace(system.h_s @ rho_s_out).real + np.trace(system.h_e @ system.rho_e()).real
    assert abs(np.trace(cost.c @ e_phi).real - expected) < 1e-10


def _with_s_local_part(system, rng):
    """The same instance with a traceless A x I added to V."""
    d_s, d_e = system.d_s, system.d_e
    a = qmat.random_hermitian(d_s, rng)
    a -= np.trace(a) / d_s * np.eye(d_s)
    v = system.v + np.kron(a, np.eye(d_e))
    return qmat.BipartiteSystem.build(d_s, d_e, system.rho, system.h_s, system.h_e, v)


@pytest.mark.parametrize(
    "d_s,d_e,rank,s_local",
    [
        (2, 3, None, False),
        (2, 32, 1, True),
        (3, 4, None, True),
        (3, 8, 1, False),
        (4, 4, None, False),
        (4, 32, 1, True),
    ],
)
def test_choi_cost_matches_dense_oracle(d_s, d_e, rank, s_local):
    # C built from M agrees with the dense contraction on unitaries and on
    # mixed-unitary channels, and both give the same SDP solve
    rng = np.random.default_rng(40 + 10 * d_s + d_e)
    system = random_system(d_s, d_e, rng, rank=rank)
    if s_local:
        system = _with_s_local_part(system, rng)
    cost, oracle = cost_from_m(system), dense_choi_cost(system)
    assert abs(cost.energy - oracle.energy) < 1e-12
    for _ in range(5):
        x = qmat.haar_unitary(d_s, rng).T.ravel()
        assert abs(np.vdot(x, cost.c @ x) - np.vdot(x, oracle.c @ x)) < 1e-12
    weights = rng.dirichlet(np.ones(4))
    e_mix = choi_matrix([np.sqrt(w) * qmat.haar_unitary(d_s, rng) for w in weights])
    assert abs(np.trace(cost.c @ e_mix) - np.trace(oracle.c @ e_mix)) < 1e-12
    bound, sol = sdp.sdp_upper_bound(cost, cost.energy, tol=1e-7)
    bound_oracle, sol_oracle = sdp.sdp_upper_bound(oracle, oracle.energy, tol=1e-7)
    assert abs(bound - bound_oracle) < 1e-8
    assert sol.iterations == sol_oracle.iterations


def test_choi_cost_ignores_h_e_and_has_identity_marginals():
    # the canonical representative: a change of h_E that keeps Tr[H rho]
    # leaves C as it is, and both partial traces of C are multiples of I;
    # the dense oracle has neither property
    rng = np.random.default_rng(41)
    d_s, d_e = 3, 4
    system = _with_s_local_part(random_system(d_s, d_e, rng), rng)
    g = qmat.random_hermitian(d_e, rng)
    dh = g - np.trace(system.rho_e() @ g).real * np.eye(d_e)
    moved = qmat.BipartiteSystem.build(
        d_s, d_e, system.rho, system.h_s, system.h_e + dh, system.v
    )
    assert np.max(np.abs(cost_from_m(moved).c - cost_from_m(system).c)) < 1e-12
    assert np.max(np.abs(dense_choi_cost(moved).c - dense_choi_cost(system).c)) > 1e-3

    def marginal_offsets(c):
        offsets = []
        for side in ("S", "E"):
            marginal = qmat.partial_trace(c, d_s, d_s, side)
            scalar = np.trace(marginal) / d_s
            offsets.append(np.max(np.abs(marginal - scalar * np.eye(d_s))))
        return offsets

    assert max(marginal_offsets(cost_from_m(system).c)) < 1e-12
    assert min(marginal_offsets(dense_choi_cost(system).c)) > 1e-3


def test_bound_zero_cost():
    cost = sdp.ChoiCost(np.zeros((4, 4), dtype=complex), 2)
    bound, sol = sdp.sdp_upper_bound(cost, 1.25, tol=1e-7)
    assert abs(bound - 1.25) < 1e-9


def test_bound_matches_qubit_closed_formula():
    rng = np.random.default_rng(6)
    for seed in range(10):
        system = random_system(2, int(rng.integers(2, 5)), rng)
        closed = local.qubit_local_ergotropy(local.build_m_matrix(system)).value
        bound, sol = sdp.sdp_upper_bound(cost_from_m(system), _rho_energy(system), tol=1e-7)
        assert abs(bound - closed) < 1e-5
        assert sol.iterations > 0


def test_bound_no_coupling_reduces_to_free_ergotropy():
    from ergoloc import ergotropy

    rng = np.random.default_rng(7)
    rho = qmat.tensor_product(qmat.random_density(2, rng), qmat.random_density(3, rng))
    system = qmat.BipartiteSystem.build(
        2, 3, rho, qmat.random_hermitian(2, rng), qmat.random_hermitian(3, rng), None
    )
    free = ergotropy.global_ergotropy(system.rho_s(), system.h_s).value
    bound, _ = sdp.sdp_upper_bound(cost_from_m(system), _rho_energy(system), tol=1e-7)
    assert abs(bound - free) < 1e-5


def test_bound_dominates_optimizer_d3():
    rng = np.random.default_rng(8)
    for seed in range(3):
        system = random_system(3, 2, rng)
        bound, _ = sdp.sdp_upper_bound(cost_from_m(system), _rho_energy(system), tol=1e-7)
        rep = local.optimize_local_unitary(system, local.OptimizerConfig(restarts=10, seed=seed))
        assert bound >= rep.value - 1e-6


def test_solution_feasibility_and_gap():
    rng = np.random.default_rng(9)
    system = random_system(2, 4, rng)
    tol = 1e-7
    bound, sol = sdp.sdp_upper_bound(cost_from_m(system), _rho_energy(system), tol=tol)
    d = system.d_s
    w = np.linalg.eigvalsh(sol.e)
    assert w[0] >= -1e-7
    tr_s = qmat.partial_trace(sol.e, d, d, "S")
    tr_sp = qmat.partial_trace(sol.e, d, d, "E")
    assert np.max(np.abs(tr_s - np.eye(d))) < 1e-6
    assert np.max(np.abs(tr_sp - np.eye(d))) < 1e-6
    assert max(sol.primal_residual, sol.dual_residual) <= tol
    # weak duality certificate
    assert abs(sol.objective - sol.dual_value) <= 10 * tol


def test_nonconvergence_raises_with_iterate():
    rng = np.random.default_rng(10)
    system = random_system(2, 2, rng)
    with pytest.raises(sdp.NonConvergenceError) as err:
        sdp.sdp_upper_bound(cost_from_m(system), _rho_energy(system),
                            tol=1e-13, max_iterations=5)
    assert err.value.solution.iterations == 5


def test_capped_solve_with_small_residuals_raises_on_the_gap():
    # the interior-point iterates are feasible long before the duality gap
    # closes: a solve stopped at its cap with both residuals <= tol has not
    # converged, and the error carries the iterate
    system = random_system(2, 2, np.random.default_rng(10))
    tol = 1e-7
    with pytest.raises(sdp.NonConvergenceError) as err:
        sdp.sdp_upper_bound(cost_from_m(system), _rho_energy(system),
                            tol=tol, max_iterations=5)
    sol = err.value.solution
    assert sol.iterations == 5
    assert max(sol.primal_residual, sol.dual_residual) <= tol
    assert sol.objective - sol.dual_value > tol


@pytest.mark.parametrize("d_s", [2, 3, 4])
def test_interior_point_matches_admm_oracle(d_s):
    # the certified bound dominates the attained local value, agrees with the
    # operator-splitting oracle, and at d_S = 2 sits within the gap above the
    # closed formula
    rng = np.random.default_rng(60 + d_s)
    tol = 1e-7
    for rank in (None, 1):
        system = random_system(d_s, int(rng.integers(2, 9)), rng, rank=rank)
        cost = cost_from_m(system)
        bound, sol = sdp.sdp_upper_bound(cost, cost.energy, tol=tol)
        _, _, rp, rd, _, oracle_dual = admm_oracle(cost.c, d_s, tol, 200000)
        assert max(rp, rd) <= tol
        assert abs(bound - (cost.energy - oracle_dual)) < 1e-6
        rep = local.optimize_local_unitary(system, relaxation=(cost, sol, tol))
        assert bound >= local.local_objective(system, rep.optimal_unitary) - 1e-12
        if d_s == 2:
            closed = local.qubit_local_ergotropy(local.build_m_matrix(system)).value
            assert -1e-12 <= bound - closed <= 10 * tol


def test_export_import_roundtrip(tmp_path):
    rng = np.random.default_rng(11)
    system = random_system(2, 3, rng)
    cost = cost_from_m(system)
    energy = _rho_energy(system)
    path = tmp_path / "instance.json"
    sdp.export_instance(path, cost, energy)
    cost2, energy2 = sdp.import_instance(path)
    assert cost2.d_s == cost.d_s
    assert np.max(np.abs(cost2.c - cost.c)) == 0.0
    b1, _ = sdp.sdp_upper_bound(cost, energy, tol=1e-7)
    b2, _ = sdp.sdp_upper_bound(cost2, energy2, tol=1e-7)
    assert abs(b1 - b2) < 1e-9


def test_import_rejects_unknown_constraints(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"d_s": 2, "cost": {"rows":4,"cols":4,"entries":[]}, "constraints": "other"}')
    with pytest.raises(ValueError):
        sdp.import_instance(path)

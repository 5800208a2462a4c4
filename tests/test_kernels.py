"""The solvers on the reduced cost operator C: the ascent's value matches the
dense functional, the Newton ascent is never worse than the first-order
oracle, and degenerate instances give the trivial answer."""

import numpy as np

from ergoloc import kernels, local, qmat, sdp
from helpers import cost_from_m, first_order_ascent, random_system


def _reduced(system):
    """(C, Tr[H rho]) for the ascent kernel."""
    e0 = float(np.trace(system.rho @ system.total_hamiltonian()).real)
    return cost_from_m(system).c, e0


def test_ascent_value_matches_dense_objective():
    # the value the kernel computes on C equals the dense functional at the
    # unitary it returns, at the start point and after some ascent steps
    rng = np.random.default_rng(5)
    for _ in range(12):
        d_s = int(rng.integers(2, 5))
        d_e = int(rng.integers(2, 33))
        system = random_system(d_s, d_e, rng)
        c, e0 = _reduced(system)
        u0 = qmat.haar_unitary(d_s, rng)
        for max_iter in (0, 25):
            u, val, *_ = kernels.ascent_kernel(c, e0, u0, max_iter, 1e-9)
            assert abs(val - local.local_objective(system, u)) <= 1e-12


def test_ascent_kernel_identity_start_no_gradient_noop():
    # a system whose state is blind to local rotations: gradient vanishes
    rng = np.random.default_rng(2)
    rho = qmat.tensor_product(np.eye(2) / 2, qmat.random_density(2, rng))
    system = qmat.BipartiteSystem.build(
        2, 2, rho, np.zeros((2, 2)), qmat.random_hermitian(2, rng), None
    )
    c, e0 = _reduced(system)
    u, val, gnorm, iters, status = kernels.ascent_kernel(
        c, e0, np.eye(2, dtype=complex), 100, 1e-9
    )
    assert status == 0
    assert abs(val) < 1e-12
    assert gnorm <= 1e-9
    # a zero cost operator: the unital-bound solver's value is zero too
    out = kernels.admm_kernel(np.zeros((4, 4), dtype=complex), 2, 1e-9, 200000)
    assert abs(out[1]) < 1e-9


def test_ascent_unitarity_preserved():
    rng = np.random.default_rng(3)
    system = random_system(3, 2, rng)
    c, e0 = _reduced(system)
    u, *_ = kernels.ascent_kernel(c, e0, qmat.haar_unitary(3, rng), 3000, 1e-9)
    assert np.max(np.abs(u.conj().T @ u - np.eye(3))) < 1e-10


def test_newton_ascent_matches_the_first_order_oracle():
    # from the same seeded Haar starts, the best Newton value is never below
    # the first-order oracle's, and every start returns a unitary whose dense
    # functional is the value reported
    rng = np.random.default_rng(17)
    for d_s in range(2, 7):
        system = random_system(d_s, int(rng.integers(2, 4)), rng)
        c, e0 = _reduced(system)
        newton, oracle = [], []
        for _ in range(4):
            u0 = qmat.haar_unitary(d_s, rng)
            u, val, *_ = kernels.ascent_kernel(c, e0, u0, 5000, 1e-9)
            assert abs(val - local.local_objective(system, u)) <= 1e-12
            assert np.max(np.abs(u.conj().T @ u - np.eye(d_s))) < 1e-10
            newton.append(val)
            oracle.append(first_order_ascent(c, e0, u0, 5000, 1e-9)[1])
        assert max(newton) >= max(oracle) - 1e-12


def test_polish_of_the_rounded_relaxation_reaches_the_tolerance():
    # on the shapes of the benchmark's small local workload the Newton polish
    # ends at the gradient tolerance (status 0), not in a line-search stall
    rng = np.random.default_rng(23)
    shapes = [(2, d_e) for d_e in range(2, 7)] + [(3, d_e) for d_e in range(2, 5)]
    for d_s, d_e in shapes * 2:
        cost = cost_from_m(random_system(d_s, d_e, rng))
        _, sol = sdp.sdp_upper_bound(cost, cost.energy)
        u0 = local._round_relaxation(sol.e, d_s)
        u, _, gnorm, _, status = kernels.ascent_kernel(cost.c, cost.energy, u0, 5000, 1e-9)
        assert status == 0
        assert gnorm <= 1e-9
        assert np.max(np.abs(u.conj().T @ u - np.eye(d_s))) < 1e-10

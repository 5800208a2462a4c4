"""The solvers on the reduced cost operator C: the ascent's value matches the
dense functional, and degenerate instances give the trivial answer."""

import numpy as np

from ergoloc import kernels, local, qmat
from helpers import cost_from_m, random_system


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

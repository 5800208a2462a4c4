"""Global ergotropy, classical analogues, switch-off energetics and bounds.

The global ergotropy of (rho, H) is Tr[rho H] minus the smallest energy
reachable by conjugating rho with a unitary, which by the trace inequality
pairs the populations sorted downward with the levels sorted upward.  The
classical bipartite analogue, where only the row index of a joint
distribution may be permuted, is a linear assignment problem and is solved
exactly by scipy's linear_sum_assignment.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .qmat import hermitian_eig, hermitize, partial_trace, tensor_product

__all__ = [
    "ErgotropyReport",
    "global_ergotropy",
    "classical_ergotropy",
    "classical_local_ergotropy",
    "solve_assignment",
    "delta_off",
    "switch_off_ergotropy",
    "effective_local_ergotropy_product",
    "hs_gap_bounds",
    "two_level_exact",
    "two_level_lower_bound",
]


@dataclass
class ErgotropyReport:
    """Extraction value plus optimizer metadata."""

    value: float
    optimal_unitary: np.ndarray | None = None
    passive_state: np.ndarray | None = None
    diagnostics: dict = field(default_factory=dict)


def _check_density(rho: np.ndarray):
    """(rho, eigenvalues ascending, eigenvectors) after the unit-trace and
    positivity checks, both read off the one eigendecomposition."""
    rho = hermitize(rho)
    p, vecs = np.linalg.eigh(rho)
    if abs(np.sum(p) - 1.0) > 1e-10:
        raise ValueError("state must have unit trace")
    if p[0] < -1e-10:
        raise ValueError("state must be positive semidefinite")
    return rho, p, vecs


def global_ergotropy(rho, h) -> ErgotropyReport:
    """Maximum energy extractable from rho by any unitary, with optimizer.

    The optimal unitary sends the i-th largest population eigenvector onto
    the i-th lowest energy level; the resulting passive state commutes with
    h.  Ties in either spectrum are broken stably by index, which cannot
    change the value.
    """
    rho, p, prho = _check_density(rho)
    h = hermitize(h)
    if rho.shape != h.shape:
        raise ValueError("state and Hamiltonian dimensions differ")
    eps, ph = hermitian_eig(h)
    # populations descending (stable), energies already ascending
    order = np.argsort(-p, kind="stable")
    p_down = p[order]
    vec_down = prho[:, order]
    passive_energy = float(np.dot(p_down, eps))
    energy = float(np.trace(rho @ h).real)
    u_opt = ph @ vec_down.conj().T
    passive = hermitize((ph * p_down) @ ph.conj().T)
    value = energy - passive_energy
    return ErgotropyReport(
        value=value,
        optimal_unitary=u_opt,
        passive_state=passive,
        diagnostics={"energy": energy, "passive_energy": passive_energy},
    )


def classical_ergotropy(p, eps) -> float:
    """sum p_i eps_i - sum p_down_i eps_up_i for a distribution p."""
    p = np.asarray(p, dtype=float)
    eps = np.asarray(eps, dtype=float)
    if p.shape != eps.shape or p.ndim != 1:
        raise ValueError("p and eps must be equal-length vectors")
    if np.any(p < -1e-12) or abs(p.sum() - 1.0) > 1e-10:
        raise ValueError("p must be a probability distribution")
    return float(np.dot(p, eps) - np.dot(np.sort(p)[::-1], np.sort(eps)))


def solve_assignment(cost: np.ndarray) -> tuple[np.ndarray, float]:
    """Exact minimum-cost assignment on a square matrix.

    Returns (col, total) where row i is assigned to column col[i].  scipy is
    imported here, not at module load, so the CLI starts without it.
    """
    from scipy.optimize import linear_sum_assignment

    cost = np.asarray(cost, dtype=float)
    if cost.ndim != 2 or cost.shape[0] != cost.shape[1]:
        raise ValueError("cost matrix must be square")
    rows, col = linear_sum_assignment(cost)
    return col, float(cost[rows, col].sum())


def classical_local_ergotropy(p: np.ndarray, e: np.ndarray) -> tuple[float, np.ndarray]:
    """Best energy decrement reachable by permuting only the row index.

    p and e are d_S x d_E matrices of joint probabilities and energies.  The
    reachable minimum min_pi sum_ij p[pi(i), j] e[i, j] is an assignment over
    the square cost matrix A[i, m] = sum_j p[m, j] e[i, j]; the returned
    permutation pi attains it (row i of e receives row pi[i] of p).
    """
    p = np.asarray(p, dtype=float)
    e = np.asarray(e, dtype=float)
    if p.shape != e.shape or p.ndim != 2:
        raise ValueError("p and e must be matrices of identical shape")
    if np.any(p < -1e-12) or abs(p.sum() - 1.0) > 1e-10:
        raise ValueError("p must be a joint probability distribution")
    cost = e @ p.T  # A[i, m] = sum_j e[i, j] p[m, j]
    perm, best = solve_assignment(cost)
    return float(np.sum(p * e) - best), perm


# ---------------------------------------------------------------------------
# switch-off protocol


def delta_off(system) -> float:
    """Energy cost of quenching the coupling: -Tr[rho V]."""
    return float(-np.sum(system.rho * system.v.T).real)


def switch_off_ergotropy(system) -> float:
    """Work from the two-stage protocol: quench V off, then extract locally.

    Equals the ergotropy of the reduced state under h_s minus the quench
    cost; the post-quench local terms are identified with h_s and h_e
    (Lamb-type corrections to the local Hamiltonians are set exactly to
    zero).
    """
    free = global_ergotropy(system.rho_s(), system.h_s).value
    return free - delta_off(system)


def effective_local_ergotropy_product(rho_s, rho_e, h_s, v) -> float:
    """Local ergotropy of a product state rho_S x rho_E.

    For product inputs the coupling only enters through its contraction on
    the E state, so the problem reduces to the plain ergotropy of rho_S under
    h_eff = h_s + Tr_E[V (I x rho_E)].
    """
    rho_s = _check_density(rho_s)[0]
    rho_e = _check_density(rho_e)[0]
    d_s = rho_s.shape[0]
    d_e = rho_e.shape[0]
    v = hermitize(v)
    contracted = partial_trace(
        v @ tensor_product(np.eye(d_s), rho_e), d_s, d_e, side="E"
    )
    h_eff = hermitize(h_s + contracted)
    return global_ergotropy(rho_s, h_eff).value


def hs_gap_bounds(system) -> tuple[float, float]:
    """Hilbert-Schmidt bounds on the coupling-induced gaps.

    Returns (2 ||rho||_2 ||V||_2, ||rho||_2 ||V||_2): the first bounds
    |local - free| where free is the ergotropy of the reduced state, the
    second bounds |local - switch_off|.  Neither fixes an ordering.
    """
    rho_hs = float(np.sqrt(np.sum(np.abs(system.rho) ** 2)))
    v_hs = float(np.sqrt(np.sum(np.abs(system.v) ** 2)))
    return 2.0 * rho_hs * v_hs, rho_hs * v_hs


# ---------------------------------------------------------------------------
# two-level bounds (coupling-inclusive spectral form)
#
# With K = H_S x I + V = sum_k eps_k |eps_k><eps_k| and rho = sum_j p_j |j><j|,
# the local extraction functional becomes
#   Tr[rho K] + max_U sum_{k,j} (-p_j eps_k) |Tr[U N_kj†]|^2,
# N_kj = Tr_E[|eps_k><j|].  After shifting K so every eps_k <= 0 each summand
# is nonnegative, and |Tr[U N]|^2 maximises to the squared trace norm of N.
# Keeping a single (k, j) term and its saturating unitary therefore gives a
# certified lower bound; when rho is pure and K has exactly two levels with
# the excited one shifted to zero there is only one nonzero term, so the
# bound is the exact value.


def _trace_norm_sq(m: np.ndarray) -> float:
    return float(np.sum(np.linalg.svd(m, compute_uv=False)) ** 2)


def _ptrace_outer(vec_a: np.ndarray, vec_b: np.ndarray, d_s: int, d_e: int) -> np.ndarray:
    """Tr_E[|a><b|] for joint vectors a, b."""
    a = vec_a.reshape(d_s, d_e)
    b = vec_b.reshape(d_s, d_e)
    return a @ b.conj().T


def two_level_exact(psi, h_sv, d_s: int, d_e: int, level_tol: float = 1e-8) -> float:
    """Exact local extraction for a pure state under a two-level H_S + V.

    Requires the joint operator h_sv to have exactly two distinct eigenvalues
    with a non-degenerate ground level.  Internally the spectrum is shifted
    so the excited level sits at zero; the extraction value itself is
    invariant under that shift.
    """
    psi = np.asarray(psi, dtype=np.complex128).reshape(-1)
    n = d_s * d_e
    if psi.shape != (n,):
        raise ValueError("state vector has the wrong dimension")
    nrm = np.linalg.norm(psi)
    if abs(nrm - 1.0) > 1e-10:
        raise ValueError("state vector must be normalised")
    w, vecs = hermitian_eig(h_sv)
    gap_scale = max(1.0, float(np.max(np.abs(w))))
    distinct = [w[0]]
    for x in w[1:]:
        if x - distinct[-1] > level_tol * gap_scale:
            distinct.append(x)
    if len(distinct) != 2:
        raise ValueError(f"operator must have exactly two levels, found {len(distinct)}")
    if w[1] - w[0] <= level_tol * gap_scale:
        raise ValueError("ground level must be non-degenerate")
    gap = float(distinct[1] - distinct[0])
    ground = vecs[:, 0]
    n11 = _ptrace_outer(ground, psi, d_s, d_e)
    shifted_energy = float(np.vdot(psi, h_sv @ psi).real) - float(distinct[1])
    return shifted_energy + gap * _trace_norm_sq(n11)


def two_level_lower_bound(rho, h_s, v, d_s: int, d_e: int) -> float:
    """Certified lower bound on the local extraction value.

    Takes the best of two certificates: the spectral single-term bound
    Tr[rho K'] + max_{k,j} p_j (-eps'_k) ||N_kj||_1^2 over the shifted
    spectrum (eps' = eps - eps_max <= 0), and the directly evaluated
    objective at the decoupled-problem optimal unitary (with the identity as
    the trivial floor).  Coincides with two_level_exact on pure states under
    two-level operators; for a decoupled two-level local term with a pure
    environment it recovers the full ergotropy of the reduced state.
    """
    rho, p, pvecs = _check_density(rho)
    k_op = hermitize(tensor_product(h_s, np.eye(d_e)) + v)
    eps, evecs = hermitian_eig(k_op)
    eps_shift = eps - eps[-1]
    base = float(np.trace(rho @ k_op).real) - float(eps[-1])
    best = 0.0
    for k in range(len(eps_shift)):
        weight_k = -eps_shift[k]
        if weight_k <= 1e-15:
            continue
        for j in range(len(p)):
            if p[j] <= 1e-15:
                continue
            n_kj = _ptrace_outer(evecs[:, k], pvecs[:, j], d_s, d_e)
            term = p[j] * weight_k * _trace_norm_sq(n_kj)
            if term > best:
                best = term
    spectral = base + best
    # feasible point: the optimizer of the decoupled reduced problem
    rho_s = partial_trace(rho, d_s, d_e, side="E")
    u_free = global_ergotropy(rho_s, hermitize(h_s)).optimal_unitary
    w = tensor_product(u_free, np.eye(d_e))
    feasible = float(np.trace(k_op @ (rho - w @ rho @ w.conj().T)).real)
    return max(spectral, feasible, 0.0)

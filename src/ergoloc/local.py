"""Local work extraction: M-matrix form, qubit closed formula, bounds,
and numerical optimization over local unitaries.

The extraction functional max_U Tr[H_SE (rho - (UxI) rho (UxI)†)] depends on
(rho, H_S, V) only through the real matrix
    m_ik = -( r_i h_k + (1/2) Tr_E[ rho_E^(i) V_E^(k) ] ),
with rho_E^(i) = Tr_S[(s^i x I) rho] and V_E^(k) = Tr_S[(s^k x I) V]: in
Bloch form the objective is Tr[O_U M - M] over the orthogonal images O_U.
For a qubit S the image set is all of SO(3) and a polar decomposition gives
the exact optimum; for d_S >= 3 the same expression over SO(d_S^2-1) is an
upper bound and the optimum is found by gradient ascent on the d_S^2-square
cost operator that sdp.choi_cost builds from M and Tr[H rho], so M is the
only reduction of (rho, H) in the package.  Every optimization solves the
unital relaxation on that operator first; the ascent starts from the
unitary read off its optimum and stops there when the result meets the
relaxation's certified bound; otherwise it runs seeded restarts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels, sdp
from .ergotropy import ErgotropyReport, global_ergotropy
from .gpo import bloch_vector, gpo_basis, s_partial_traces
from .qmat import haar_unitary, tensor_product

__all__ = [
    "MMatrix",
    "OptimizerConfig",
    "build_m_matrix",
    "qubit_local_ergotropy",
    "polar_upper_bound",
    "optimize_local_unitary",
    "local_objective",
    "rotation_to_qubit_unitary",
]


@dataclass(frozen=True)
class MMatrix:
    """Real (d_S^2-1)-square matrix of the local extraction trace form."""

    m: np.ndarray
    d_s: int


@dataclass(frozen=True)
class OptimizerConfig:
    """Cap and tolerance of every ascent, and the seeded restarts that run
    when the rounded relaxation is not certified."""

    restarts: int = 32
    max_iterations: int = 5000
    gradient_tolerance: float = 1e-9
    seed: int = 0

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if self.gradient_tolerance <= 0:
            raise ValueError("gradient_tolerance must be positive")


def build_m_matrix(system) -> MMatrix:
    """M from the partial-trace contractions of rho and V."""
    bs = gpo_basis(system.d_s)
    r = bloch_vector(system.rho_s(), bs)
    h = bloch_vector(system.h_s, bs) / 2.0
    # rho_E^(i) and V_E^(k), both d_e-square
    rho_e_i = s_partial_traces(system.rho, bs, system.d_e)
    v_e_k = s_partial_traces(system.v, bs, system.d_e)
    cross = 0.5 * np.einsum("ief,kfe->ik", rho_e_i, v_e_k)
    m = -(np.outer(r, h) + cross)
    if np.max(np.abs(m.imag)) > 1e-10 * max(1.0, float(np.max(np.abs(m)))):
        raise ValueError("M must be real for Hermitian inputs")
    return MMatrix(np.ascontiguousarray(m.real), system.d_s)


def local_objective(system, u) -> float:
    """Tr[H_SE (rho - (U x I) rho (U x I)†)] evaluated directly."""
    w = tensor_product(u, np.eye(system.d_e))
    h = system.total_hamiltonian()
    rotated = w @ system.rho @ w.conj().T
    return float(np.trace(h @ (system.rho - rotated)).real)


# ---------------------------------------------------------------------------
# qubit closed formula and polar bound


def _branch_value(m: np.ndarray):
    """max_{O in SO(k)} Tr[O M - M] and one attaining rotation.

    With M = U S V^T, the unrestricted orthogonal optimum of Tr[OM] is the
    sum of singular values, reached inside SO(k) iff det M >= 0; otherwise
    the best proper rotation sacrifices twice the smallest singular value.
    det M = 0 is served by the first branch (the branches agree there).

    m may be a (..., k, k) stack; then the values come back as an array of
    shape (...) and the rotations as a (..., k, k) stack.  A single matrix
    gives a float and one rotation.
    """
    u, sv, vt = np.linalg.svd(m)
    # det(M) and det(U)det(V^T) share sign when no sv is zero; at 0 both branches agree
    proper = np.linalg.det(u) * np.linalg.det(vt) >= 0
    sacrifice = np.where(proper, 0.0, 2.0 * sv[..., -1])
    value = np.sum(sv, axis=-1) - sacrifice - np.trace(m, axis1=-2, axis2=-1)
    flip = np.ones_like(sv)
    flip[..., -1] = np.where(proper, 1.0, -1.0)
    o_best = (np.swapaxes(vt, -1, -2) * flip[..., None, :]) @ np.swapaxes(u, -1, -2)
    if m.ndim == 2:
        return float(value), o_best
    return value, o_best


def rotation_to_qubit_unitary(o: np.ndarray) -> np.ndarray:
    """Lift O in SO(3) to U in SU(2) with orthogonal_image(U) = O.

    The unit quaternion q of O is read off the row of the largest of
    q_0^2..q_3^2 (Shepperd's rule, stable at every angle) and signed so that
    q_0 >= 0; then U = q_0 I - i (q_1 s_1 + q_2 s_2 + q_3 s_3).
    """
    o = np.asarray(o, dtype=float)
    tr = o[0, 0] + o[1, 1] + o[2, 2]
    # 4 q_k^2 = 1 + tr for k = 0 and 1 + 2 o_aa - tr for k = a + 1
    k = int(np.argmax((tr, o[0, 0], o[1, 1], o[2, 2])))
    if k == 0:
        q = np.array([1.0 + tr, o[2, 1] - o[1, 2], o[0, 2] - o[2, 0], o[1, 0] - o[0, 1]])
    else:
        a = k - 1
        b, c = (a + 1) % 3, (a + 2) % 3
        q = np.empty(4)
        q[0] = o[c, b] - o[b, c]
        q[1 + a] = 1.0 + 2.0 * o[a, a] - tr
        q[1 + b] = o[b, a] + o[a, b]
        q[1 + c] = o[c, a] + o[a, c]
    q /= np.linalg.norm(q)
    if q[0] < 0:
        q = -q
    basis = gpo_basis(2)
    n_sigma = q[1] * basis[0] + q[2] * basis[1] + q[3] * basis[2]
    return q[0] * np.eye(2, dtype=np.complex128) - 1j * n_sigma


def qubit_local_ergotropy(mm: MMatrix) -> ErgotropyReport:
    """Exact local extraction value for d_S = 2 from the branch formula.

    Also reports the optimizing rotation and a lifted 2x2 unitary that
    attains the value.
    """
    if mm.d_s != 2:
        raise ValueError("closed formula requires d_S = 2")
    value, o_best = _branch_value(mm.m)
    u_best = rotation_to_qubit_unitary(o_best)
    achieved = float(np.trace(o_best @ mm.m - mm.m))
    return ErgotropyReport(
        value=value,
        optimal_unitary=u_best,
        diagnostics={
            "rotation": o_best,
            "achieved": achieved,
            "det_m": float(np.linalg.det(mm.m)),
        },
    )


def polar_upper_bound(mm: MMatrix) -> float:
    """Branch formula over the full SO(d_S^2-1); exact for d_S = 2."""
    value, _ = _branch_value(mm.m)
    return value


# ---------------------------------------------------------------------------
# gradient ascent over local unitaries


def _round_relaxation(e: np.ndarray, d: int) -> np.ndarray:
    """Unitary polar factor of the top eigenvector x of E, read as vec U.

    vec U = U.T.ravel(), so the candidate matrix is x.reshape(d, d).T; a
    rank-one optimum E = x x† of a tight relaxation gives the optimal U.
    """
    x = np.linalg.eigh(e)[1][:, -1]
    w, _, vh = np.linalg.svd(x.reshape(d, d).T)
    return w @ vh


def optimize_local_unitary(
    system, cfg: OptimizerConfig | None = None, relaxation=None
) -> ErgotropyReport:
    """Local extraction optimum: the rounded unital relaxation, else restarts.

    C is built once from M and Tr[H rho] and the unital relaxation is solved
    on it at sdp.DEFAULT_TOL; relaxation, when given, hands over that work as
    (ChoiCost, SdpSolution, tol), with SdpSolution None when the solve
    failed.  The optimum E is rounded to a unitary and polished by one
    ascent, returned as certified, with no restart, when the polish
    converged and its value is at least B - 10 tol: B = Tr[H rho] -
    sol.dual_value is the bound certified by the solver's dual point, and
    tol the largest duality gap it stops at.

    Otherwise (not certified, no solution, or d_S above sdp.MAX_D_S) the
    ascent runs from cfg.restarts seeded starts: the identity, the free-case
    optimal unitary of rho_S under h_s, and Haar-random unitaries from the
    seeded generator.  The result is the maximum over every ascent run,
    deterministic for a fixed (seed, restarts) pair.
    """
    cfg = cfg or OptimizerConfig()
    d_s = system.d_s
    starts = [np.eye(d_s, dtype=np.complex128)]
    if cfg.restarts >= 2:
        starts.append(global_ergotropy(system.rho_s(), system.h_s).optimal_unitary)
    if relaxation is None:
        cost = sdp.choi_cost(build_m_matrix(system), system.energy())
        sol, tol = None, sdp.DEFAULT_TOL
        if d_s <= sdp.MAX_D_S:
            try:
                sol = sdp.sdp_upper_bound(cost, cost.energy, tol)[1]
            except sdp.NonConvergenceError:
                pass
    else:
        cost, sol, tol = relaxation
    c, e0 = cost.c, cost.energy

    def ascend(u0):
        u, value, gnorm, iters, status = kernels.ascent_kernel(
            c, e0, u0, cfg.max_iterations, cfg.gradient_tolerance
        )
        # a stalled line search counts only when the gradient is small as well
        converged = status == 0 or gnorm <= max(cfg.gradient_tolerance, 1e-7)
        return value, u, gnorm, status, iters, converged

    runs = []
    certified = False
    bound = None
    if sol is not None:
        bound = e0 - sol.dual_value
        runs.append(ascend(_round_relaxation(sol.e, d_s)))
        value, *_, converged = runs[0]
        certified = converged and value >= bound - 10.0 * tol
    if not certified:
        rng = np.random.default_rng(cfg.seed)
        while len(starts) < cfg.restarts:
            starts.append(haar_unitary(d_s, rng))
        runs.extend(ascend(u0) for u0 in starts)
    best = runs[0]
    for run in runs[1:]:
        if run[0] > best[0] + 1e-12:
            best = run
    value, u, gnorm, status, _, converged = best
    return ErgotropyReport(
        value=float(value),
        optimal_unitary=u,
        diagnostics={
            "gradient_norm": float(gnorm),
            "converged": bool(converged),
            "status": int(status),
            "restarts": len(runs),
            "total_iterations": int(sum(run[4] for run in runs)),
            "certified": bool(certified),
            "bound": None if bound is None else float(bound),
        },
    )

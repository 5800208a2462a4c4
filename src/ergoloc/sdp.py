"""Unital-channel relaxation bound on local work extraction.

Replacing the local unitary orbit by the (strictly larger) set of unital
channels turns the minimization into a semidefinite program over channel
representations E on S x S':

    bound = Tr[H rho] - min { Tr[C E] : E >= 0, Tr_S E = I, Tr_S' E = I }.

The cost operator is built from the trace-form matrix M of local.py and the
energy e0 = Tr[H rho] alone, with no d_E-sized work:

    C = (e0 + Tr M)/d I - (1/2) sum_ij M_ji (s_j^T x s_i),

over the GPO basis s of S, indexed (a, s) as in kernels.py.  Then
vec(U)† C vec(U) = e0 - Tr[O_U M - M] for every unitary U, and Tr[C E] takes
the same value as Tr[H (Phi x id)(rho)] on every unital channel Phi with
representation E.  The dense contraction Tr_E[rho^{T_S} H_{S'E}] differs
from C only by A x I, I x B (A, B traceless) and a multiple of I, which are
constant on unitaries and on the unital bimarginal set; "equivalent on the
unital set" means exactly this.  Both operators give the same SDP, and C is
its canonical representative: both of its partial traces are multiples of
I, and h_E enters only through e0.  For d_S = 2
unital channels are exactly mixtures of unitaries, so the bound coincides
with the closed qubit formula.  For d_S >= 3 it is an upper bound that is
exact on random instances but not everywhere; exactness is certified per
instance by local.optimize_local_unitary, which solves the relaxation on
every call up to MAX_D_S, rounds the optimum E to a unitary and compares
its value with the bound.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .gpo import gpo_basis
from .qmat import hermitize, matrix_from_json, matrix_to_json

__all__ = [
    "ChoiCost",
    "SdpSolution",
    "choi_cost",
    "sdp_upper_bound",
    "export_instance",
    "import_instance",
    "NonConvergenceError",
    "DEFAULT_TOL",
    "MAX_D_S",
]

# stopping tolerance of the solve: residual norms and certified gap
DEFAULT_TOL = 1e-7
# largest d_S solved: the constraint operators of kernels.admm_kernel hold
# (2 d^2 - 1) d^4 complex entries, 8 MB at d_S = 8 but 34 GB at d_S = 32
MAX_D_S = 8


class NonConvergenceError(RuntimeError):
    """Solver stopped, at its cap or on breakdown, without meeting its stopping rule."""

    def __init__(self, message, solution):
        super().__init__(message)
        self.solution = solution


@dataclass(frozen=True)
class ChoiCost:
    """Hermitian cost operator on S x S' plus the system dimension."""

    c: np.ndarray = field(repr=False)
    d_s: int

    @property
    def energy(self) -> float:
        """Tr[H rho] as vec(I)† C vec(I): the unrotated state extracts nothing."""
        d = self.d_s
        return float(np.einsum("aabb->", self.c.reshape(d, d, d, d)).real)


@dataclass
class SdpSolution:
    e: np.ndarray
    objective: float
    primal_residual: float
    dual_residual: float
    iterations: int
    dual_value: float = float("nan")


def choi_cost(mm, energy: float) -> ChoiCost:
    """C from the trace-form matrix mm (a local.MMatrix) and e0 = Tr[H rho].

    C_{(a,s),(b,t)} = (e0 + Tr M)/d delta_ab delta_st
                      - (1/2) sum_ij M_ji (s_j)_{ba} (s_i)_{st}.
    """
    d = mm.d_s
    s = gpo_basis(d).elements
    c = -0.5 * np.einsum("ji,jba,ist->asbt", mm.m, s, s).reshape(d * d, d * d)
    c[np.diag_indices(d * d)] += (energy + np.trace(mm.m)) / d
    return ChoiCost(hermitize(c), d)


def sdp_upper_bound(
    cost: ChoiCost,
    rho_energy: float,
    tol: float = DEFAULT_TOL,
    max_iterations: int = 100,
) -> tuple[float, SdpSolution]:
    """Upper bound rho_energy - min Tr[C E] over the unital bimarginal set.

    The interior-point kernels.admm_kernel stops when both residual norms and
    the gap Tr[C E] - dual_value are <= tol.  The bound is rho_energy -
    dual_value, certified at any iterate.  A stop without that rule met, at
    the cap or on breakdown, raises NonConvergenceError carrying the iterate.
    A d_S above MAX_D_S, tol <= 0 or max_iterations < 0 raises ValueError
    before anything is allocated.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if max_iterations < 0:
        raise ValueError("max_iterations must be >= 0")
    if cost.d_s > MAX_D_S:
        raise ValueError(
            f"the relaxation is solved up to d_S = {MAX_D_S}, got d_S = {cost.d_s}"
        )
    e, pobj, rp, rd, iters, dual = kernels.admm_kernel(
        cost.c, cost.d_s, tol, max_iterations
    )
    sol = SdpSolution(
        e=e,
        objective=float(pobj),
        primal_residual=float(rp),
        dual_residual=float(rd),
        iterations=int(iters),
        dual_value=float(dual),
    )
    gap = sol.objective - sol.dual_value
    if not max(rp, rd, gap) <= tol:
        raise NonConvergenceError(
            f"residuals ({rp:.2e}, {rd:.2e}) and gap {gap:.2e} not all within "
            f"tol={tol:.2e} after {iters} iterations",
            sol,
        )
    return float(rho_energy) - sol.dual_value, sol


# ---------------------------------------------------------------------------
# instance export for external cross-validation


def export_instance(path, cost: ChoiCost, rho_energy: float) -> None:
    """Write the SDP instance in the documented JSON form."""
    payload = {
        "d_s": int(cost.d_s),
        "cost": matrix_to_json(cost.c),
        "rho_energy": float(rho_energy),
        "constraints": "unital-bimarginal",
    }
    with open(path, "w") as fh:
        json.dump(payload, fh)


def import_instance(path) -> tuple[ChoiCost, float]:
    with open(path) as fh:
        payload = json.load(fh)
    if payload.get("constraints") != "unital-bimarginal":
        raise ValueError("unknown constraint family in SDP instance")
    d_s = int(payload["d_s"])
    c = matrix_from_json(payload["cost"])
    if c.shape != (d_s * d_s, d_s * d_s):
        raise ValueError("cost matrix does not match d_s")
    if "rho_energy" not in payload:
        raise ValueError("SDP instance has no rho_energy field")
    cost, e0 = ChoiCost(hermitize(c), d_s), float(payload["rho_energy"])
    if abs(e0 - cost.energy) > 1e-12 * max(1.0, abs(e0)):
        raise ValueError(f"rho_energy {e0!r} differs from the cost's Tr[H rho] {cost.energy!r}")
    return cost, e0

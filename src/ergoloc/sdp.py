"""Unital-channel relaxation bound on local work extraction.

Replacing the local unitary orbit by the (strictly larger) set of unital
channels turns the minimization into a semidefinite program over channel
representations E on S x S':

    bound = Tr[H rho] - min { Tr[C E] : E >= 0, Tr_S E = I, Tr_S' E = I }

with the cost operator C = Tr_E[rho^{T_S} H_{S'E}].  For a channel Phi with
representation E^Phi = sum_{a,a'} |a><a'| x Phi(|a><a'|) the identity
Tr[H (Phi x id)(rho)] = Tr[C E^Phi] holds exactly, which is what the tests
validate.  For d_S = 2 unital channels are exactly mixtures of unitaries, so
the bound coincides with the closed qubit formula.  For d_S >= 3 it is an
upper bound that is exact on random instances but not everywhere; exactness
is certified per instance by local.optimize_local_unitary, which rounds the
optimum E to a unitary and compares its value with the bound.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .qmat import hermitize, matrix_from_json, matrix_to_json

__all__ = [
    "ChoiCost",
    "SdpSolution",
    "choi_cost",
    "choi_matrix",
    "apply_channel_local",
    "sdp_upper_bound",
    "export_instance",
    "import_instance",
    "NonConvergenceError",
]


class NonConvergenceError(RuntimeError):
    """Solver failed to meet the residual targets within the iteration cap."""

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


def choi_cost(system) -> ChoiCost:
    """C = Tr_E[rho^{T_S} H_{S'E}] contracted index-wise.

    C_{(a,s),(a',s')} = sum_{e,f} rho_{(a',e),(a,f)} H_{(s,f),(s',e)}.
    """
    d_s, d_e = system.d_s, system.d_e
    rho4 = system.rho.reshape(d_s, d_e, d_s, d_e)
    h4 = system.total_hamiltonian().reshape(d_s, d_e, d_s, d_e)
    c = np.einsum("beaf,sfte->asbt", rho4, h4).reshape(d_s * d_s, d_s * d_s)
    return ChoiCost(hermitize(c), d_s)


def choi_matrix(kraus) -> np.ndarray:
    """Channel representation sum_{a,a'} |a><a'| x sum_m K_m |a><a'| K_m†.

    Input-copy factor first; trace preservation reads Tr_S' E = I, unitality
    Tr_S E = I.
    """
    kraus = [np.asarray(k, dtype=np.complex128) for k in kraus]
    d = kraus[0].shape[0]
    omega = np.zeros(d * d, dtype=np.complex128)
    omega[:: d + 1] = 1.0
    e = np.zeros((d * d, d * d), dtype=np.complex128)
    ident = np.eye(d, dtype=np.complex128)
    for k in kraus:
        v = np.kron(ident, k) @ omega
        e += np.outer(v, v.conj())
    return e


def apply_channel_local(kraus, rho, d_s: int, d_e: int) -> np.ndarray:
    """(Phi x id)(rho) for a channel given by Kraus operators on S."""
    out = np.zeros_like(np.asarray(rho, dtype=np.complex128))
    ident = np.eye(d_e, dtype=np.complex128)
    for k in kraus:
        w = np.kron(np.asarray(k, dtype=np.complex128), ident)
        out += w @ rho @ w.conj().T
    return out


def sdp_upper_bound(
    cost: ChoiCost,
    rho_energy: float,
    tol: float = 1e-7,
    max_iterations: int = 200000,
) -> tuple[float, SdpSolution]:
    """Upper bound rho_energy - min Tr[C E] over the unital bimarginal set.

    First-order operator splitting (PSD projection by eigendecomposition,
    closed-form projection onto the bimarginal affine subspace,
    over-relaxation, adaptive penalty).  Termination requires primal and
    dual residuals <= tol and a certified duality gap <= 10 tol; hitting the
    iteration cap raises NonConvergenceError carrying the best iterate so the
    caller may loosen tol.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
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
    if max(rp, rd) > tol:
        raise NonConvergenceError(
            f"residuals ({rp:.2e}, {rd:.2e}) above tol={tol:.2e} "
            f"after {iters} iterations",
            sol,
        )
    return float(rho_energy) - sol.objective, sol


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
    return ChoiCost(hermitize(c), d_s), float(payload.get("rho_energy", 0.0))

"""Generalized Pauli operator bases and Bloch-space machinery.

A GPO set for dimension d is a collection of d^2-1 traceless Hermitian
matrices with Tr[s_i s_j] = 2 delta_ij.  Together with the identity they span
the Hermitian operators, giving every state/observable a real coefficient
("Bloch") vector, and every unitary U an orthogonal image O_U acting on that
vector.  Basis ordering: x-type pairs (j<j' lexicographic), then y-type pairs,
then diagonal z-type by k ascending; for d=2 this is exactly (sigma_x,
sigma_y, sigma_z).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .qmat import hermitize, tensor_product

__all__ = [
    "GpoBasis",
    "BlochDecomposition",
    "gpo_basis",
    "bloch_vector",
    "orthogonal_image",
    "s_partial_traces",
    "product_operator",
    "decompose",
    "reconstruct_state",
]


@dataclass(frozen=True)
class GpoBasis:
    """Ordered GPO set for one tensor factor."""

    dim: int
    elements: np.ndarray = field(repr=False)  # shape (d^2-1, d, d)

    def __len__(self) -> int:
        return self.elements.shape[0]

    def __iter__(self):
        return iter(self.elements)

    def __getitem__(self, i):
        return self.elements[i]


_BASIS_CACHE: dict[int, GpoBasis] = {}


def gpo_basis(d: int) -> GpoBasis:
    """Build the GPO basis for dimension d >= 2.

    x-type: |j><j'| + |j'><j|, y-type: i(|j'><j| - |j><j'|) for j < j',
    z-type: sqrt(2/((k+1)(k+2))) (sum_{j<=k} |j><j| - (k+1)|k+1><k+1|).
    The z-type normalisation is fixed by the orthonormality requirement
    Tr[s_i s_j] = 2 delta_ij.
    """
    d = int(d)
    if d < 2:
        raise ValueError("GPO basis requires dimension >= 2")
    cached = _BASIS_CACHE.get(d)
    if cached is not None:
        return cached
    mats = []
    for j in range(d):
        for jp in range(j + 1, d):
            m = np.zeros((d, d), dtype=np.complex128)
            m[j, jp] = 1.0
            m[jp, j] = 1.0
            mats.append(m)
    for j in range(d):
        for jp in range(j + 1, d):
            m = np.zeros((d, d), dtype=np.complex128)
            m[jp, j] = 1.0j
            m[j, jp] = -1.0j
            mats.append(m)
    for k in range(d - 1):
        m = np.zeros((d, d), dtype=np.complex128)
        coeff = np.sqrt(2.0 / ((k + 1) * (k + 2)))
        for j in range(k + 1):
            m[j, j] = coeff
        m[k + 1, k + 1] = -coeff * (k + 1)
        mats.append(m)
    basis = GpoBasis(d, np.ascontiguousarray(np.array(mats)))
    _BASIS_CACHE[d] = basis
    return basis


def _real_part(x: np.ndarray, what: str) -> np.ndarray:
    if np.max(np.abs(x.imag)) > 1e-10 * max(1.0, float(np.max(np.abs(x)))):
        raise ValueError(f"{what} coefficients are not real")
    return np.ascontiguousarray(x.real)


def bloch_vector(op, basis: GpoBasis) -> np.ndarray:
    """Coefficients Tr[s_i op]; real for Hermitian input (imag <= 1e-10)."""
    op = np.asarray(op, dtype=np.complex128)
    return _real_part(np.einsum("kab,ba->k", basis.elements, op), "Bloch")


def orthogonal_image(u, basis: GpoBasis, tol: float = 1e-10) -> np.ndarray:
    """Orthogonal matrix (O_U)_ij = Tr[s_i U s_j U†]/2 on Bloch space.

    Satisfies r(U rho U†) = O_U r(rho) and O_{UV} = O_U O_V.  For d=2 the
    image is all of SO(3); for d >= 3 it is a proper subgroup of SO(d^2-1).
    """
    u = np.asarray(u, dtype=np.complex128)
    d = basis.dim
    if u.shape != (d, d):
        raise ValueError(f"expected a {d}x{d} unitary")
    if np.max(np.abs(u.conj().T @ u - np.eye(d))) > tol:
        raise ValueError("input is not unitary within tolerance")
    rotated = np.einsum("ab,kbc,dc->kad", u, basis.elements, u.conj())
    o = np.einsum("iab,kba->ik", basis.elements, rotated).real / 2.0
    return np.ascontiguousarray(o)


# ---------------------------------------------------------------------------
# joint decomposition of a bipartite system


@dataclass(frozen=True)
class BlochDecomposition:
    """GPO coefficients of (rho_SE, H_S, V_SE).

    r_i = Tr[s^i rho_S], q_j = Tr[s^j rho_E],
    t_ij = Tr[rho_SE (s^i x s^j)], h_i = Tr[s^i H_S]/2, c = Tr[H_S]/d_S,
    v_ij = Tr[V_SE (s^i x s^j)]/4.
    """

    d_s: int
    d_e: int
    r: np.ndarray
    q: np.ndarray
    t: np.ndarray
    h: np.ndarray
    c: float
    v: np.ndarray


def s_partial_traces(op, basis: GpoBasis, d_e: int) -> np.ndarray:
    """Tr_S[(s^i x I) op] for every s^i of the S basis, a (d_S^2-1, d_E, d_E) stack.

    One GEMM: the rows s^i_ba against the (a, b) blocks of op, each block
    flattened to d_E^2 entries.
    """
    d_s, k = basis.dim, len(basis)
    blocks = op.reshape(d_s, d_e, d_s, d_e).transpose(0, 2, 1, 3).reshape(d_s * d_s, d_e * d_e)
    rows = basis.elements.transpose(0, 2, 1).reshape(k, d_s * d_s)
    return (rows @ blocks).reshape(k, d_e, d_e)


def product_operator(coeff, basis_s: GpoBasis, basis_e: GpoBasis) -> np.ndarray:
    """sum_ij coeff_ij s^i x s^j as a joint (d_S d_E)-square matrix."""
    n = basis_s.dim * basis_e.dim
    return np.einsum("ij,iab,jcd->acbd", coeff, basis_s.elements, basis_e.elements).reshape(n, n)


def decompose(system) -> BlochDecomposition:
    """Expand a BipartiteSystem in the product GPO basis."""
    bs, be = gpo_basis(system.d_s), gpo_basis(system.d_e)
    d_s, d_e = system.d_s, system.d_e
    r = bloch_vector(system.rho_s(), bs)
    q = bloch_vector(system.rho_e(), be)

    def pair_coeffs(op):  # Tr[op (s^i x s^j)]
        return np.einsum("ief,jfe->ij", s_partial_traces(op, bs, d_e), be.elements)

    t = _real_part(pair_coeffs(system.rho), "correlation")
    h = bloch_vector(system.h_s, bs) / 2.0
    c = float(np.trace(system.h_s).real) / d_s
    v = _real_part(pair_coeffs(system.v) / 4.0, "coupling")
    return BlochDecomposition(d_s, d_e, r, q, t, h, float(c), v)


def reconstruct_state(dec: BlochDecomposition) -> np.ndarray:
    """rho_SE from (r, q, t).

    rho = I/(d_S d_E) + (1/(2 d_E)) sum r_i s^i x I + (1/(2 d_S)) sum q_j I x s^j
          + (1/4) sum t_ij s^i x s^j.
    """
    bs, be = gpo_basis(dec.d_s), gpo_basis(dec.d_e)
    d_s, d_e = dec.d_s, dec.d_e
    ident_e = np.eye(d_e, dtype=np.complex128)
    ident_s = np.eye(d_s, dtype=np.complex128)
    rho = np.eye(d_s * d_e, dtype=np.complex128) / (d_s * d_e)
    rho += tensor_product(np.einsum("k,kab->ab", dec.r, bs.elements), ident_e) / (2.0 * d_e)
    rho += tensor_product(ident_s, np.einsum("k,kab->ab", dec.q, be.elements)) / (2.0 * d_s)
    rho += product_operator(dec.t, bs, be) / 4.0
    return hermitize(rho)

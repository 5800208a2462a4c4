"""Dense complex linear algebra for operators on finite tensor-product spaces.

Index convention used everywhere in this package: the first (S) factor is the
slow index, i.e. a joint basis state carries the flat row index
``i = i_S * d_E + i_E``.  ``numpy.kron(A_S, B_E)`` realises exactly this
ordering, so tensor products are always written S-factor leftmost.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

HERM_TOL = 1e-10

__all__ = [
    "HERM_TOL",
    "BipartiteSystem",
    "hermitize",
    "hermiticity_drift",
    "tensor_product",
    "partial_trace",
    "hermitian_eig",
    "matrix_to_json",
    "matrix_from_json",
    "save_matrix",
    "load_matrix",
    "random_hermitian",
    "random_density",
    "haar_unitary",
]


def _as_complex(a) -> np.ndarray:
    return np.ascontiguousarray(np.asarray(a, dtype=np.complex128))


def hermiticity_drift(a: np.ndarray) -> float:
    """max_ij |A_ij - conj(A_ji)| relative to max(1, max |A_ij|)."""
    a = np.asarray(a)
    scale = max(1.0, float(np.max(np.abs(a))) if a.size else 1.0)
    return float(np.max(np.abs(a - a.conj().T))) / scale


def hermitize(a, tol: float = HERM_TOL) -> np.ndarray:
    """Return (A + A†)/2, absorbing floating-point drift up to ``tol``.

    A relative drift above ``tol`` is treated as a modelling error and raises.
    """
    a = _as_complex(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if hermiticity_drift(a) > tol:
        raise ValueError("matrix is not Hermitian within tolerance")
    return (a + a.conj().T) / 2.0


def tensor_product(a, b) -> np.ndarray:
    """Kronecker product with the S factor leftmost (row = i_S*d_E + i_E)."""
    return np.kron(_as_complex(a), _as_complex(b))


def partial_trace(a, d_s: int, d_e: int, side: str = "E") -> np.ndarray:
    """Trace out one tensor factor of an operator on a d_s*d_e space.

    side="E" contracts the environment and returns a d_s-square matrix;
    side="S" contracts the system and returns a d_e-square matrix.  The full
    trace is preserved: Tr[partial_trace(A)] == Tr[A].
    """
    a = _as_complex(a)
    n = d_s * d_e
    if a.shape != (n, n):
        raise ValueError(f"expected shape {(n, n)}, got {a.shape}")
    a4 = a.reshape(d_s, d_e, d_s, d_e)
    if side == "E":
        return np.ascontiguousarray(np.einsum("aebe->ab", a4))
    if side == "S":
        return np.ascontiguousarray(np.einsum("aeaf->ef", a4))
    raise ValueError("side must be 'S' or 'E'")


def hermitian_eig(a, tol: float = HERM_TOL):
    """Eigendecomposition of a Hermitian matrix.

    Returns (eigenvalues ascending, eigenvectors as columns).  Raises on
    non-Hermitian input; the backend solver is an implementation detail, the
    contract is ascending order and orthonormal columns.
    """
    a = hermitize(a, tol)
    w, v = np.linalg.eigh(a)
    return w, v


# ---------------------------------------------------------------------------
# bipartite systems


@dataclass(frozen=True)
class BipartiteSystem:
    """State plus split Hamiltonian of an S+E pair.

    rho is the joint density matrix, h_s and h_e the local energy terms and v
    the coupling, normalised so that Tr_S[v] = 0 (any S-traceful component of
    the coupling belongs in h_e).  All operators are stored Hermitized; values
    are immutable after construction and safe to share between workers.
    """

    d_s: int
    d_e: int
    rho: np.ndarray = field(repr=False)
    h_s: np.ndarray = field(repr=False)
    h_e: np.ndarray = field(repr=False)
    v: np.ndarray = field(repr=False)

    @classmethod
    def build(cls, d_s, d_e, rho, h_s, h_e=None, v=None, tol: float = HERM_TOL):
        d_s, d_e = int(d_s), int(d_e)
        n = d_s * d_e
        rho = hermitize(rho, tol)
        if rho.shape != (n, n):
            raise ValueError(f"rho must be {n}x{n}, got {rho.shape}")
        tr = np.trace(rho).real
        if abs(tr - 1.0) > 1e-10:
            raise ValueError(f"rho must have unit trace, got {tr}")
        # up to rounding, lambda_min(rho) > -1e-10 iff rho + 1e-10 I has a
        # Cholesky factor; the spectrum is computed only to confirm and
        # report a failure
        shifted = rho.copy()
        shifted.flat[:: n + 1] += 1e-10
        try:
            np.linalg.cholesky(shifted)
        except np.linalg.LinAlgError:
            wmin = float(np.linalg.eigvalsh(rho)[0])
            if wmin < -1e-10:
                raise ValueError(f"rho must be positive semidefinite, min eig {wmin}") from None
        h_s = hermitize(h_s, tol)
        if h_s.shape != (d_s, d_s):
            raise ValueError("h_s has the wrong dimension")
        h_e = np.zeros((d_e, d_e), dtype=np.complex128) if h_e is None else hermitize(h_e, tol)
        if h_e.shape != (d_e, d_e):
            raise ValueError("h_e has the wrong dimension")
        v = np.zeros((n, n), dtype=np.complex128) if v is None else hermitize(v, tol)
        if v.shape != (n, n):
            raise ValueError("v has the wrong dimension")
        tr_s_v = partial_trace(v, d_s, d_e, side="S")
        if np.max(np.abs(tr_s_v)) > 1e-10 * max(1.0, float(np.max(np.abs(v)))):
            raise ValueError("coupling must have zero partial trace over S")
        return cls(d_s, d_e, rho, h_s, h_e, v)

    @property
    def dim(self) -> int:
        return self.d_s * self.d_e

    def rho_s(self) -> np.ndarray:
        return partial_trace(self.rho, self.d_s, self.d_e, side="E")

    def rho_e(self) -> np.ndarray:
        return partial_trace(self.rho, self.d_s, self.d_e, side="S")

    def total_hamiltonian(self) -> np.ndarray:
        return (
            tensor_product(self.h_s, np.eye(self.d_e))
            + tensor_product(np.eye(self.d_s), self.h_e)
            + self.v
        )

    def energy(self) -> float:
        """Tr[rho H] as sum_ij conj(H_ij) rho_ij, in O(n^2) for Hermitian H."""
        return float(np.vdot(self.total_hamiltonian(), self.rho).real)


# ---------------------------------------------------------------------------
# JSON matrix format used by the CLI:
#   {"rows": n, "cols": m, "entries": [[re, im], ...]}  row-major


def matrix_to_json(a) -> dict:
    a = _as_complex(a)
    flat = a.reshape(-1)
    return {
        "rows": int(a.shape[0]),
        "cols": int(a.shape[1]),
        "entries": [[float(z.real), float(z.imag)] for z in flat],
    }


def matrix_from_json(obj) -> np.ndarray:
    try:
        rows, cols = int(obj["rows"]), int(obj["cols"])
        entries = obj["entries"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed matrix object: {exc}") from exc
    if len(entries) != rows * cols:
        raise ValueError(
            f"entry count {len(entries)} does not match {rows}x{cols}"
        )
    flat = np.array([complex(re, im) for re, im in entries], dtype=np.complex128)
    return flat.reshape(rows, cols)


def save_matrix(path, a) -> None:
    with open(path, "w") as fh:
        json.dump(matrix_to_json(a), fh)


def load_matrix(path) -> np.ndarray:
    with open(path) as fh:
        return matrix_from_json(json.load(fh))


# ---------------------------------------------------------------------------
# random instances (seeded; used by tests, selftest and benchmarks)


def random_hermitian(d: int, rng, scale: float = 1.0) -> np.ndarray:
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (g + g.conj().T) * (scale / 2.0)


def random_density(d: int, rng, rank: int | None = None) -> np.ndarray:
    r = d if rank is None else rank
    g = rng.normal(size=(d, r)) + 1j * rng.normal(size=(d, r))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def haar_unitary(d: int, rng) -> np.ndarray:
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(g)
    ph = np.diag(r).copy()
    ph /= np.abs(ph)
    return q * ph


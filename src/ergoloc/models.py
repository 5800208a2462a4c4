"""Worked models: atom-cavity with rotating-wave coupling, and an
anisotropic spin-1/2 ring with one site singled out.

Conventions.  Atom basis ordered (excited, ground) so that sigma_z is +1 on
the excited state and h_s = (omega_s/2) sigma_z puts the excitation at
+omega_s/2; the raising operator is the standard (sigma_x + i sigma_y)/2.
Ring basis ordered (up, down) per site with sigma_z |down> = -|down>, site 1
first in the tensor product, remaining sites in ring order.  All joint
operators use the S-major index convention of qmat.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .qmat import BipartiteSystem, hermitize, tensor_product

__all__ = [
    "JcParams",
    "XxzParams",
    "HamiltonianParts",
    "AnalyticTriple",
    "RegimeError",
    "jc_system",
    "jc_bipartite",
    "jc_dressed_state",
    "jc_mixing_angle",
    "jc_analytic",
    "jc_phase_family_state",
    "xxz_system",
    "xxz_bipartite",
    "xxz_bethe_state",
    "xxz_bethe_energy",
    "xxz_analytic",
    "xxz_plane_wave",
    "xxz_plane_wave_reduction",
    "xxz_momenta",
    "XXZ_MAX_SITES",
    "XXZ_PLANE_WAVE_MAX_SITES",
]

XXZ_MAX_SITES = 12  # dense oracle: 2^N-square operators (xxz_system)
XXZ_PLANE_WAVE_MAX_SITES = 62  # plane-wave rows: basis indices are int64

_SX = np.array([[0, 1], [1, 0]], dtype=np.complex128)
_SY = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
_SZ = np.array([[1, 0], [0, -1]], dtype=np.complex128)
_SP = np.array([[0, 1], [0, 0]], dtype=np.complex128)  # |excited><ground|


class HamiltonianParts(NamedTuple):
    """Split Hamiltonian (h_s, h_e, v) of a bipartite model.

    The total Hamiltonian has one definition,
    BipartiteSystem.total_hamiltonian.
    """

    h_s: np.ndarray
    h_e: np.ndarray
    v: np.ndarray


class AnalyticTriple(NamedTuple):
    delta_off: float
    switch_off: float
    local_ergotropy: float


class RegimeError(ValueError):
    """Closed-form branch not applicable; use the numeric pipeline."""


# ---------------------------------------------------------------------------
# atom + cavity mode


@dataclass(frozen=True)
class JcParams:
    """Two-level atom S coupled to a truncated cavity mode E."""

    omega_s: float = 1.0
    omega_e: float = 1.2
    rabi: float = 0.1
    n_max: int = 12

    def __post_init__(self):
        if self.n_max < 2:
            raise ValueError("n_max must be >= 2")


def _annihilation(dim: int) -> np.ndarray:
    a = np.zeros((dim, dim), dtype=np.complex128)
    for m in range(1, dim):
        a[m - 1, m] = np.sqrt(m)
    return a


def jc_system(p: JcParams) -> HamiltonianParts:
    """h_s = (omega_s/2) sigma_z, h_e = omega_e a†a,
    v = (rabi/2)(sigma_+ x a + sigma_- x a†) on 2 x (n_max+1)."""
    d_e = p.n_max + 1
    a = _annihilation(d_e)
    h_s = (p.omega_s / 2.0) * _SZ
    h_e = p.omega_e * (a.conj().T @ a)
    v = (p.rabi / 2.0) * (
        tensor_product(_SP, a) + tensor_product(_SP.conj().T, a.conj().T)
    )
    return HamiltonianParts(hermitize(h_s), hermitize(h_e), hermitize(v))


def jc_bipartite(p: JcParams, rho_or_psi: np.ndarray) -> BipartiteSystem:
    """Wrap a joint state with the model operators.

    A state vector goes to BipartiteSystem.build as it is, which checks its
    norm instead of the positivity of a density matrix.
    """
    return BipartiteSystem.build(2, p.n_max + 1, rho_or_psi, *jc_system(p))


def jc_mixing_angle(p: JcParams, n: int) -> float:
    """theta_n = (1/2) arctan(rabi sqrt(n+1) / (omega_s - omega_e)).

    Principal arctan branch, so |theta_n| <= pi/4, with theta_n = +pi/4 at
    resonance.  For omega_s < omega_e the two dressed branches swap their
    energy ordering; the states remain exact eigenvectors either way.
    """
    delta = p.omega_s - p.omega_e
    num = p.rabi * np.sqrt(n + 1.0)
    if delta == 0.0:
        return np.pi / 4.0
    return 0.5 * np.arctan(num / delta)


def jc_dressed_state(p: JcParams, n: int, sign: int) -> tuple[np.ndarray, float]:
    """Dressed eigenvector |n,+-> on 2 x (n_max+1) and its exact energy.

    |n,+> = cos(theta_n)|exc>|n> + sin(theta_n)|gnd>|n+1>,
    |n,-> = sin(theta_n)|exc>|n> - cos(theta_n)|gnd>|n+1>.
    The energy is the Rayleigh value omega_e (n + 1/2) +- splitting/2 with the
    branch fixed by the state itself (it flips with the sign of the detuning).
    """
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    if n < 0:
        raise ValueError(f"photon level must be >= 0, got {n}")
    if n + 1 > p.n_max:
        raise ValueError(f"Fock cutoff {p.n_max} cannot hold |{n + 1}>; it must be >= n + 1")
    d_e = p.n_max + 1
    th = jc_mixing_angle(p, n)
    exc = np.zeros(2, dtype=np.complex128)
    exc[0] = 1.0
    gnd = np.zeros(2, dtype=np.complex128)
    gnd[1] = 1.0
    fock_n = np.zeros(d_e, dtype=np.complex128)
    fock_n[n] = 1.0
    fock_n1 = np.zeros(d_e, dtype=np.complex128)
    fock_n1[n + 1] = 1.0
    if sign > 0:
        psi = np.cos(th) * np.kron(exc, fock_n) + np.sin(th) * np.kron(gnd, fock_n1)
    else:
        psi = np.sin(th) * np.kron(exc, fock_n) - np.cos(th) * np.kron(gnd, fock_n1)
    delta = p.omega_s - p.omega_e
    g = p.rabi * np.sqrt(n + 1.0) / 2.0
    block = (delta / 2.0) * np.cos(2 * th) + g * np.sin(2 * th)
    energy = p.omega_e * (n + 0.5) + (block if sign > 0 else -block)
    return psi, float(energy)


def jc_analytic(p: JcParams, n: int, sign: int) -> AnalyticTriple:
    """Closed-form (quench cost, switch-off work, local extraction) for |n,+->.

    With G = rabi sqrt(n+1)/2, s = sin(2 theta_n), c = cos(2 theta_n):

        |n,+>:  delta_off = -G s,   switch_off = omega_s c + G s,
                local = G|s| + G s + omega_s c - min(G|s|, omega_s c)
        |n,->:  delta_off = +G s,   switch_off = -G s,
                local = G (|s| - s)

    derived from the diagonal trace-form matrix diag(-Gs/2, -Gs/2,
    -omega_s c/2) of |n,+> (and its negative for |n,->) via the qubit branch
    formula; validated against direct optimization in the test suite.
    Assumes omega_s >= 0.
    """
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    if p.omega_s < 0:
        raise RegimeError("closed forms assume a nonnegative atomic splitting")
    th = jc_mixing_angle(p, n)
    s = float(np.sin(2 * th))
    c = float(np.cos(2 * th))
    g = p.rabi * np.sqrt(n + 1.0) / 2.0
    if sign > 0:
        d_off = -g * s
        e_off = p.omega_s * c + g * s
        local = g * abs(s) + g * s + p.omega_s * c - min(g * abs(s), p.omega_s * c)
    else:
        d_off = g * s
        e_off = -g * s
        local = g * (abs(s) - s)
    return AnalyticTriple(float(d_off), float(e_off), float(local))


def jc_phase_family_state(p: JcParams, n: int, alpha: float, phi: float) -> np.ndarray:
    """Density matrix of cos(a)|n,+> + e^{i phi} sin(a)|n,->.

    The phase is applied verbatim as given (phi = rabi * t reproduces the
    published parameterisation); pass the dynamical phase
    (E_{n,-} - E_{n,+}) t instead to follow actual Schroedinger evolution.
    """
    plus, _ = jc_dressed_state(p, n, +1)
    minus, _ = jc_dressed_state(p, n, -1)
    psi = np.cos(alpha) * plus + np.exp(1j * phi) * np.sin(alpha) * minus
    return np.outer(psi, psi.conj())


# ---------------------------------------------------------------------------
# anisotropic spin ring


@dataclass(frozen=True)
class XxzParams:
    """Ring of n_sites spins; site 1 is S, the rest are E.

    epsilon is the local field, j the in-plane and j_z the axial coupling;
    the closed forms below assume all three nonnegative.
    """

    n_sites: int
    epsilon: float = 1.0
    j: float = 0.05
    j_z: float = 0.2

    def __post_init__(self):
        if self.n_sites < 3:
            raise ValueError("ring needs at least 3 sites")


def _ring_part(n: int, field: float, j: float, j_z: float, bonds) -> np.ndarray:
    """field sum_i sz_i - sum_(a,b) [j (sx_a sx_b + sy_a sy_b) + j_z sz_a sz_b]
    on n sites, for 0-based site pairs (a, b).

    Site a is bit n-1-a of the basis index, set when the spin is down, so
    sz_a is a +-1 diagonal read from that bit.  sx_a sx_b + sy_a sy_b sends
    each anti-aligned pair to its flipped partner with amplitude 2.  The
    diagonal is summed bond by bond, in the order of the Kronecker form.
    """
    idx = np.arange(2**n)
    z = 1 - 2 * ((idx >> (n - 1 - np.arange(n))[:, None]) & 1)
    diag = field * z.sum(axis=0)
    for a, b in bonds:
        diag = diag - j_z * (z[a] * z[b])
    h = np.diag(diag.astype(np.complex128))
    for a, b in bonds:
        anti = idx[z[a] != z[b]]
        h[anti ^ ((1 << (n - 1 - a)) | (1 << (n - 1 - b))), anti] = -2.0 * j
    return h


def xxz_system(p: XxzParams) -> HamiltonianParts:
    """Split ring Hamiltonian on 2 x 2^(N-1): the dense oracle of the ring.

    H = eps sum_i sz_i - sum_i [ j (sx_i sx_{i+1} + sy_i sy_{i+1})
                                 + j_z sz_i sz_{i+1} ]  (periodic).
    v collects the two bonds touching site 1:
    v = -j (sx x X_E + sy x Y_E) - j_z sz x Z_E with X_E = sx_2 + sx_N etc.
    Built from bit operations, with no Kronecker chain; both parts are
    Hermitian by construction.  Refused above XXZ_MAX_SITES: the dense per-k
    pipeline on these parts peaks at 1.7 GB at 12 sites, and each added site
    quadruples that.  xxz_plane_wave_reduction needs no dense operator.
    """
    n = p.n_sites
    if n > XXZ_MAX_SITES:
        raise ValueError(
            f"dense mode supports at most {XXZ_MAX_SITES} sites, got {n}"
        )
    ne = n - 1  # environment sites 2..N in ring order
    h_e = _ring_part(ne, p.epsilon, p.j, p.j_z, [(i, i + 1) for i in range(ne - 1)])
    v = _ring_part(n, 0.0, p.j, p.j_z, [(0, 1), (0, n - 1)])
    return HamiltonianParts(hermitize(p.epsilon * _SZ), h_e, v)


def xxz_bipartite(p: XxzParams, rho_or_psi: np.ndarray) -> BipartiteSystem:
    """Wrap a ring state (vector or density matrix) with the dense xxz_system.

    A state vector, such as xxz_bethe_state, goes to BipartiteSystem.build
    as it is, which checks its norm instead of the positivity of a 2^N-square
    density matrix.
    """
    return BipartiteSystem.build(2, 2 ** (p.n_sites - 1), rho_or_psi, *xxz_system(p))


def xxz_momenta(p: XxzParams) -> range:
    """Integer momenta k in (-N/2, N/2] of the plane-wave table."""
    return range(-(p.n_sites // 2) + 1, p.n_sites // 2 + 1)


def xxz_plane_wave(p: XxzParams, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Support of |phi_k>: N basis indices, ascending, and their amplitudes.

    Site s is bit N-s of the index, set when the spin is down, so the flip
    of site s from all-down is index (2^N - 1) ^ 2^(N-s), with amplitude
    N^{-1/2} e^{2 pi i k s / N}.
    """
    n = p.n_sites
    if k not in xxz_momenta(p):
        raise ValueError(f"k must lie in ({-(n // 2)}, {n // 2}], got {k}")
    if n > XXZ_PLANE_WAVE_MAX_SITES:
        raise ValueError(
            f"plane-wave rows support at most {XXZ_PLANE_WAVE_MAX_SITES} sites, got {n}"
        )
    sites = np.arange(1, n + 1)
    idx = (2**n - 1) ^ np.left_shift(1, n - sites)
    return idx, np.exp(1j * (2.0 * np.pi * k / n) * sites) / np.sqrt(n)


def xxz_bethe_state(p: XxzParams, k: int) -> np.ndarray:
    """Single-flip plane wave |phi_k> = N^{-1/2} sum_n e^{2 pi i k n / N} sx_n |all down>.

    Exact eigenvector of the ring for integer k in (-N/2, N/2]; the dense
    vector of xxz_plane_wave.
    """
    idx, amp = xxz_plane_wave(p, k)
    psi = np.zeros(2**p.n_sites, dtype=np.complex128)
    psi[idx] = amp
    return psi


def _pauli(n: int, *ops) -> tuple[int, list, complex]:
    """(flip, bits, phase) of the Pauli string ops = ((site, "x"|"y"|"z"), ...).

    Site s is bit N-s of the index.  The string sends index b to b ^ flip,
    times phase and times -1 for each of bits set in b: sx flips its bit,
    sz reads it, and sy = i sx sz does both.
    """
    flip, bits, phase = 0, [], 1.0 + 0j
    for site, axis in ops:
        if axis != "z":
            flip |= 1 << (n - site)
        if axis != "x":
            bits.append(n - site)
        if axis == "y":
            phase *= 1j
    return flip, bits, phase


def _apply(string, idx: np.ndarray, amp: np.ndarray):
    flip, bits, phase = string
    parity = sum((idx >> b) & 1 for b in bits) & 1
    return idx ^ flip, phase * np.where(parity, -amp, amp)


def _expect(string, idx: np.ndarray, amp: np.ndarray) -> complex:
    """<psi|P|psi> for psi on the ascending support idx."""
    img, val = _apply(string, idx, amp)
    pos = np.minimum(np.searchsorted(idx, img), len(idx) - 1)
    hit = idx[pos] == img
    return complex(np.vdot(amp[pos[hit]], val[hit]))


def xxz_plane_wave_reduction(p: XxzParams, k: int):
    """(rho_S, M, Tr[rho V], ||H phi_k - E_k phi_k||) of |phi_k>, from its N
    amplitudes under the Pauli strings of H and V.

    With r_i = <s_i x I>, c = (-j, -j, -j_z) and P_k = s_k on sites 2 and N,
    V = sum_k c_k s_k x P_k, so that rho_S = (I + r.s)/2,
    M_ik = -(r_i h_k + c_k <s_i x P_k>) with h = (0, 0, eps), and
    Tr[rho V] = sum_k c_k <s_k x P_k>.  H phi_k stays on the one-flip
    sector; its images are coalesced by index for the Bethe residual.
    """
    n = p.n_sites
    idx, amp = xxz_plane_wave(p, k)
    terms = [(p.epsilon, _pauli(n, (s, "z"))) for s in range(1, n + 1)]
    for s in range(1, n + 1):
        t = s % n + 1
        terms += [(-c, _pauli(n, (s, a), (t, a))) for c, a in zip((p.j, p.j, p.j_z), "xyz")]
    images = [_apply(string, idx, c * amp) for c, string in terms]
    images.append((idx, -xxz_bethe_energy(p, k) * amp))
    _, inv = np.unique(np.concatenate([i for i, _ in images]), return_inverse=True)
    hpsi = np.concatenate([a for _, a in images])
    coalesced = np.bincount(inv, hpsi.real) + 1j * np.bincount(inv, hpsi.imag)
    residual = float(np.linalg.norm(coalesced))
    axes = "xyz"
    r = np.array([_expect(_pauli(n, (1, a)), idx, amp).real for a in axes])
    coupling = np.array([-p.j, -p.j, -p.j_z])
    cross = np.array([
        [sum(_expect(_pauli(n, (1, a), (e, b)), idx, amp).real for e in (2, n)) for b in axes]
        for a in axes
    ]) * coupling
    m = -(np.outer(r, [0.0, 0.0, p.epsilon]) + cross)
    rho_s = 0.5 * (np.eye(2) + r[0] * _SX + r[1] * _SY + r[2] * _SZ)
    return rho_s, m, float(np.trace(cross)), residual


def xxz_bethe_energy(p: XxzParams, k: int) -> float:
    """E_k = -[(N-2) eps + (N-4) j_z + 4 j cos(2 pi k / N)]."""
    n = p.n_sites
    return float(
        -((n - 2) * p.epsilon + (n - 4) * p.j_z + 4 * p.j * np.cos(2 * np.pi * k / n))
    )


def xxz_analytic(p: XxzParams, k: int) -> AnalyticTriple:
    """Closed-form triple for the plane-wave state |phi_k>.

    delta_off = (8j/N) cos q + ((2N-8)/N) j_z          (q = 2 pi k / N)
    switch_off = -delta_off   (the reduced site is passive under h_s)
    local = (8j/N) (|cos q| - cos q)                   (0 for |k| <= N/4)

    The local branch is served only in the regime where the axial entry of
    the trace-form matrix, (N-2) eps / N + (2N-8) j_z / N, is nonnegative;
    outside it a RegimeError points the caller to the numeric path.  The
    trace-form matrix of |phi_k> is diag(a, a, b) with a = (4j/N) cos q and
    b the axial entry above, which the test suite pins against the generic
    pipeline and direct optimization.
    """
    n = p.n_sites
    if k not in xxz_momenta(p):
        raise ValueError(f"k must lie in ({-(n // 2)}, {n // 2}], got {k}")
    q = 2.0 * np.pi * k / n
    cos_q = float(np.cos(q))
    axial = (n - 2) * p.epsilon / n + (2 * n - 8) * p.j_z / n
    d_off = 8.0 * p.j / n * cos_q + (2.0 * n - 8.0) / n * p.j_z
    e_off = -d_off
    if axial < 0:
        raise RegimeError(
            "axial trace-form entry negative; closed local branch not "
            "applicable, use the numeric pipeline"
        )
    local = 8.0 * p.j / n * (abs(cos_q) - cos_q)
    return AnalyticTriple(float(d_off), float(e_off), float(local))

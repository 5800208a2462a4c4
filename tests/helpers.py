"""Shared builders and independent oracles for the test suite.

The brute-force routines here deliberately avoid the package's own
optimizers: scipy BFGS over a 4-parameter (or d^2-parameter) Hermitian
generator chart provides an independent maximization of the extraction
functional, and itertools supplies exhaustive permutation minima.
"""

from __future__ import annotations

import itertools

import numpy as np
from scipy.optimize import minimize

from ergoloc import ergotropy, gpo, local, models, qmat, sdp
from ergoloc.kernels import _value_and_gradient

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
I2 = np.eye(2, dtype=complex)


def random_coupling(d_s, d_e, rng, scale=1.0):
    """Coupling with zero partial trace on both sides (pure sigma x sigma)."""
    bs, be = gpo.gpo_basis(d_s), gpo.gpo_basis(d_e)
    coeff = rng.normal(size=(len(bs), len(be))) * scale / np.sqrt(len(bs) * len(be))
    v = np.einsum("ij,iab,jcd->acbd", coeff, bs.elements, be.elements)
    return v.reshape(d_s * d_e, d_s * d_e)


def generic_coupling(d_s, d_e, rng):
    """Random Hermitian V with Tr_S[V] = 0 and S-local parts, in O(n^2) memory."""
    v = qmat.random_hermitian(d_s * d_e, rng)
    return v - np.kron(np.eye(d_s), qmat.partial_trace(v, d_s, d_e, side="S")) / d_s


def random_system(d_s, d_e, rng, v_scale=1.0, h_scale=1.0, rank=None):
    return qmat.BipartiteSystem.build(
        d_s,
        d_e,
        qmat.random_density(d_s * d_e, rng, rank=rank),
        qmat.random_hermitian(d_s, rng, scale=h_scale),
        qmat.random_hermitian(d_e, rng, scale=h_scale),
        random_coupling(d_s, d_e, rng, scale=v_scale),
    )


def kron_total_hamiltonian(system):
    """h_s x I + I x h_e + v from Kronecker products: the oracle of
    BipartiteSystem.total_hamiltonian."""
    return (
        qmat.tensor_product(system.h_s, np.eye(system.d_e))
        + qmat.tensor_product(np.eye(system.d_s), system.h_e)
        + system.v
    )


def einsum_s_partial_traces(op, basis, d_e):
    """Tr_S[(s^i x I) op] by one einsum: the oracle of gpo.s_partial_traces."""
    d_s = basis.dim
    return np.einsum("iba,aebf->ief", basis.elements, op.reshape(d_s, d_e, d_s, d_e))


def elementwise_delta_off(system):
    """-Tr[rho V] as sum_ij rho_ij V_ji: the oracle of ergotropy.delta_off."""
    return float(-np.sum(system.rho * system.v.T).real)


def model_hamiltonian(parts, d_s, d_e):
    """Total Hamiltonian of a model's (h_s, h_e, v) from its one definition."""
    n = d_s * d_e
    return qmat.BipartiteSystem.build(d_s, d_e, np.eye(n) / n, *parts).total_hamiltonian()


def cost_from_m(system):
    """The production cost operator: C built from M and Tr[H rho]."""
    return sdp.choi_cost(local.build_m_matrix(system), system.energy())


def dense_choi_cost(system):
    """Oracle C = Tr_E[rho^{T_S} H_{S'E}] contracted index-wise from the dense H.

    C_{(a,s),(a',s')} = sum_{e,f} rho_{(a',e),(a,f)} H_{(s,f),(s',e)}.  For any
    channel Phi, Tr[C E^Phi] = Tr[H (Phi x id)(rho)] exactly; the production
    C agrees with it only on unitaries and unital channels.
    """
    d_s, d_e = system.d_s, system.d_e
    rho4 = system.rho.reshape(d_s, d_e, d_s, d_e)
    h4 = system.total_hamiltonian().reshape(d_s, d_e, d_s, d_e)
    c = np.einsum("beaf,sfte->asbt", rho4, h4).reshape(d_s * d_s, d_s * d_s)
    return sdp.ChoiCost(qmat.hermitize(c), d_s)


# ---------------------------------------------------------------------------
# reference formulas that only the tests use


def m_matrix_from_bloch(dec: gpo.BlochDecomposition) -> local.MMatrix:
    """M from coefficients only: m_ik = -(r_i h_k + sum_j t_ij v_kj).

    Agrees with build_m_matrix whenever V carries no s^i x I component
    (the normal form produced by the model builders).
    """
    m = -(np.outer(dec.r, dec.h) + dec.t @ dec.v.T)
    return local.MMatrix(np.ascontiguousarray(m), dec.d_s)


def psd_ball_radius(d: int) -> float:
    """Radius of the Bloch ball guaranteed to map onto physical states.

    Any r with |r| <= sqrt(2/(d(d-1))) reconstructs to a positive
    semidefinite rho = I/d + (1/2) sum_i r_i s_i; the bound is tight (the
    extremal direction is the last z-type element).
    """
    return float(np.sqrt(2.0 / (d * (d - 1))))


def state_from_bloch(r, basis: gpo.GpoBasis) -> np.ndarray:
    d = basis.dim
    return np.eye(d, dtype=np.complex128) / d + 0.5 * np.einsum(
        "k,kab->ab", np.asarray(r, dtype=float), basis.elements
    )


def reconstruct_local(dec: gpo.BlochDecomposition, basis_s: gpo.GpoBasis | None = None) -> np.ndarray:
    """H_S = c I + sum_i h_i s^i."""
    bs = basis_s or gpo.gpo_basis(dec.d_s)
    return dec.c * np.eye(dec.d_s, dtype=np.complex128) + np.einsum(
        "k,kab->ab", dec.h, bs.elements
    )


def reconstruct_interaction(
    dec: gpo.BlochDecomposition,
    basis_s: gpo.GpoBasis | None = None,
    basis_e: gpo.GpoBasis | None = None,
) -> np.ndarray:
    """V_SE = sum_ij v_ij s^i x s^j (valid when V has no identity components)."""
    bs = basis_s or gpo.gpo_basis(dec.d_s)
    be = basis_e or gpo.gpo_basis(dec.d_e)
    v = np.einsum("ij,iab,jcd->acbd", dec.v, bs.elements, be.elements)
    return qmat.hermitize(v.reshape(dec.d_s * dec.d_e, dec.d_s * dec.d_e))


def partial_transpose_s(a, d_s: int, d_e: int) -> np.ndarray:
    """Transpose the S index pair only.  Involution and trace preserving."""
    a = qmat._as_complex(a)
    n = d_s * d_e
    if a.shape != (n, n):
        raise ValueError(f"expected shape {(n, n)}, got {a.shape}")
    a4 = a.reshape(d_s, d_e, d_s, d_e)
    return np.ascontiguousarray(a4.transpose(2, 1, 0, 3).reshape(n, n))


def norms(a) -> tuple[float, float, float]:
    """(Hilbert-Schmidt, trace, operator) norms via singular values."""
    a = qmat._as_complex(a)
    sv = np.linalg.svd(a, compute_uv=False)
    hs = float(np.sqrt(np.sum(np.abs(a) ** 2)))
    return hs, float(np.sum(sv)), float(sv[0]) if sv.size else 0.0


def random_state_vector(d: int, rng) -> np.ndarray:
    psi = rng.normal(size=d) + 1j * rng.normal(size=d)
    return psi / np.linalg.norm(psi)


# ---------------------------------------------------------------------------
# operator-splitting (ADMM) oracle for the unital-channel SDP

# initial penalty, over-relaxation, iterations between penalty adaptations
MU0 = 1.0
ALPHA = 1.6
ADAPT_EVERY = 50


def _herm(a):
    return (a + a.conj().T) / 2.0


def _marginals(w, d):
    """(Tr_S W, Tr_S' W): trace out the input copy, then the output copy."""
    w4 = w.reshape(d, d, d, d)
    return np.einsum("asat->st", w4), np.einsum("asbs->ab", w4)


def _minus_marginal_terms(w, l1, l2, d):
    """W - I x L1 - L2 x I."""
    eye = np.eye(d)
    w4 = (
        w.reshape(d, d, d, d)
        - eye[:, None, :, None] * l1[None, :, None, :]
        - l2[:, None, :, None] * eye[None, :, None, :]
    )
    return w4.reshape(d * d, d * d)


def _dual_value(c, y, mu, d):
    """Feasible dual value from the scaled dual iterate.

    Decompose C/mu + Y over {I x G1 + G2 x I} (least squares, closed form),
    scale by mu, then shift both multipliers by half the most negative
    eigenvalue of the slack so the dual constraint C - I x L1 - L2 x I >= 0
    holds exactly.
    """
    w2 = _herm(c / mu + y)
    a2, b2 = _marginals(w2, d)
    off = np.trace(w2).real / (2.0 * d * d) * np.eye(d)
    l1 = mu * (a2 / d - off)
    l2 = mu * (b2 / d - off)
    lam_min = np.linalg.eigvalsh(_herm(_minus_marginal_terms(c, l1, l2, d)))[0]
    return np.trace(l1).real + np.trace(l2).real + d * min(lam_min, 0.0)


def admm_oracle(c, d, tol, max_iter):
    """min Tr[C E] over E >= 0, Tr_S E = I, Tr_S' E = I (operator splitting).

    An independent oracle for the interior-point kernels.admm_kernel.

    Scaled-dual ADMM with over-relaxation and adaptive penalty.  The affine
    projection onto the bimarginal subspace is closed form; the PSD
    projection is one Hermitian eigendecomposition.  The scaled dual stays
    negative semidefinite by construction, which yields a feasible dual point
    (and hence a certified duality gap) at any iterate.

    Returns (E, objective, primal_res, dual_res, iterations, dual_value).
    """
    c = np.asarray(c, dtype=np.complex128)
    nn = d * d
    eye = np.eye(d)
    z = np.eye(nn, dtype=np.complex128) / d
    y = np.zeros((nn, nn), dtype=np.complex128)
    mu = MU0
    rp = rd = np.inf
    it = 0
    for it in range(max_iter):
        # --- affine step: x = proj(z - y - c/mu) onto both-marginals-identity
        w = _herm(z - y - c / mu)
        trs, trsp = _marginals(w, d)
        tra = np.sum(trs.diagonal().real - 1.0)
        trb = np.sum(trsp.diagonal().real - 1.0)
        off = 0.5 * (tra + trb) / (2.0 * d * d) * eye
        lam1 = (trs - (1.0 + tra / d) * eye) / d + off
        lam2 = (trsp - (1.0 + trb / d) * eye) / d + off
        x = _minus_marginal_terms(w, lam1, lam2, d)
        # --- over-relaxation, PSD step, dual step
        xr = ALPHA * x + (1.0 - ALPHA) * z
        wv, qv = np.linalg.eigh(_herm(xr + y))
        zn = _herm((qv * np.maximum(wv, 0.0)) @ qv.conj().T)
        y = y + xr - zn
        rp = np.linalg.norm(x - zn)
        rd = mu * np.linalg.norm(zn - z)
        z = zn
        if (it + 1) % ADAPT_EVERY == 0:
            if rp > 10.0 * rd:
                mu *= 2.0
                y /= 2.0
            elif rd > 10.0 * rp:
                mu /= 2.0
                y *= 2.0
        if rp <= tol and rd <= tol:
            # certify with the duality gap before stopping
            pobj = np.sum(c * z.T).real
            dual = _dual_value(c, y, mu, d)
            if abs(pobj - dual) <= 10.0 * tol:
                return z, pobj, rp, rd, it + 1, dual
    return z, np.sum(c * z.T).real, rp, rd, it + 1, _dual_value(c, y, mu, d)


# ---------------------------------------------------------------------------
# first-order geodesic ascent: the oracle for the Newton kernels.ascent_kernel

# Armijo constant, step growth after an accepted step, step shrink per
# rejected trial, trials before declaring a stall
C1 = 1e-4
GROW = 1.3
SHRINK = 0.5
MAX_BACKTRACKS = 60
# steps between QR re-unitarizations, which stop drift from accumulated products
REUNITARIZE_EVERY = 256


def first_order_ascent(c, e0, u0, max_iter, gtol):
    """Maximise W(U) = e0 - vec(U)† C vec(U) over U in U(d_S), from u0.

    Geodesic steepest ascent: the update is U <- expm(i eta S) U with S the
    Riemannian gradient, and dW/deta at 0 equals 2 ||S||_F^2, which drives
    the Armijo test.  e0 is Tr[H rho].

    Returns (U, value, grad_norm, iterations, status) with status 0 when the
    gradient tolerance was reached, 1 when the line search stalled at
    numerical precision, 2 at the iteration cap.
    """
    u = np.array(u0, dtype=np.complex128)
    step = 1.0
    status = 2
    it = 0
    for it in range(max_iter):
        wval, grad, gnorm = _value_and_gradient(c, e0, u)
        if gnorm <= gtol:
            status = 0
            break
        wg, vg = np.linalg.eigh(grad)
        slope = 2.0 * gnorm * gnorm
        eta = step
        for _ in range(MAX_BACKTRACKS):
            unew = ((vg * np.exp(1j * eta * wg)) @ vg.conj().T) @ u
            x = unew.T.ravel()
            if e0 - np.vdot(x, c @ x).real >= wval + C1 * eta * slope:
                u = unew
                step = eta * GROW
                break
            eta *= SHRINK
        else:
            status = 1
            break
        if (it + 1) % REUNITARIZE_EVERY == 0:
            qq, rr = np.linalg.qr(u)
            diag = np.diagonal(rr)
            u = qq * (diag / np.abs(diag))
    # final consistent evaluation at the returned point
    wval, _, gnorm = _value_and_gradient(c, e0, u)
    return u, wval, gnorm, it + 1, status


def choi_matrix(kraus):
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


def apply_channel_local(kraus, rho, d_s, d_e):
    """(Phi x id)(rho) for a channel given by Kraus operators on S."""
    out = np.zeros_like(np.asarray(rho, dtype=np.complex128))
    ident = np.eye(d_e, dtype=np.complex128)
    for k in kraus:
        w = np.kron(np.asarray(k, dtype=np.complex128), ident)
        out += w @ rho @ w.conj().T
    return out


def direct_objective(system, u):
    return _dense_objective(kron_total_hamiltonian(system), system.rho, np.eye(system.d_e), u)


def _dense_objective(h, rho, eye_e, u):
    """Tr[H (rho - W rho W†)] with W = U x I, from the dense joint operators."""
    w = np.kron(u, eye_e)
    return float(np.trace(h @ (rho - w @ rho @ w.conj().T)).real)


def _unitary_from_params(params, d):
    gen = np.zeros((d, d), dtype=complex)
    idx = 0
    for i in range(d):
        gen[i, i] = params[idx]
        idx += 1
    for i in range(d):
        for j in range(i + 1, d):
            gen[i, j] = params[idx] + 1j * params[idx + 1]
            gen[j, i] = params[idx] - 1j * params[idx + 1]
            idx += 2
    w, v = np.linalg.eigh(gen)
    return (v * np.exp(1j * w)) @ v.conj().T


def brute_local_max(system, tries=30, seed=0):
    """Independent maximization of the local extraction functional."""
    d = system.d_s
    n_params = d * d
    # H and the E identity are fixed for the system; only U varies
    h, eye_e = kron_total_hamiltonian(system), np.eye(system.d_e)
    best = 0.0  # identity is always feasible
    for t in range(tries):
        rng = np.random.default_rng(seed * 1000 + t)
        x0 = rng.normal(size=n_params)

        def neg(p):
            return -_dense_objective(h, system.rho, eye_e, _unitary_from_params(p, d))

        res = minimize(neg, x0, method="BFGS", options={"gtol": 1e-12, "maxiter": 400})
        best = max(best, -res.fun)
    return best


def brute_assignment_min(cost):
    """Exhaustive assignment minimum; feasible up to 8x8."""
    n = cost.shape[0]
    best = np.inf
    for perm in itertools.permutations(range(n)):
        total = sum(cost[i, perm[i]] for i in range(n))
        best = min(best, total)
    return best


def max_entangled_two_level(d, rng, gap=None, shift=None):
    """(h_s, v, k) with k = h_s x I + v having levels {shift-gap, shift}.

    Built from a rank-one projector onto a maximally entangled vector so the
    S-partial trace of k is proportional to the identity, which is exactly
    the condition for a zero-S-trace splitting to exist.
    """
    gap = float(rng.uniform(0.5, 2.0)) if gap is None else gap
    shift = float(rng.uniform(-1.0, 1.0)) if shift is None else shift
    ua, ub = qmat.haar_unitary(d, rng), qmat.haar_unitary(d, rng)
    omega = np.zeros(d * d, dtype=complex)
    omega[:: d + 1] = 1.0 / np.sqrt(d)
    chi = np.kron(ua, ub) @ omega
    k = -gap * np.outer(chi, chi.conj()) + shift * np.eye(d * d)
    h_s = qmat.partial_trace(k, d, d, side="E") / d
    v = k - np.kron(h_s, np.eye(d))
    return qmat.hermitize(h_s), qmat.hermitize(v), qmat.hermitize(k)


def jc_row(p, phi, alpha, n, dynamical):
    """One row of the jc sweep through the per-point pipeline.

    Builds and checks the joint state at this phase, reduces it to M and
    evaluates the branch formula, the switch-off work and delta_off: the
    oracle that the batched sweep of the CLI is compared against.
    """
    phase = phi
    if dynamical:
        _, e_plus = models.jc_dressed_state(p, n, +1)
        _, e_minus = models.jc_dressed_state(p, n, -1)
        phase = (e_minus - e_plus) * (phi / p.rabi) if p.rabi != 0 else phi
    rho = models.jc_phase_family_state(p, n, alpha, phase)
    system = models.jc_bipartite(p, rho)
    mm = local.build_m_matrix(system)
    value = local.qubit_local_ergotropy(mm).value
    d_off = ergotropy.delta_off(system)
    e_off = ergotropy.switch_off_ergotropy(system)
    return phi, value, e_off, d_off


def _site_op(op: np.ndarray, i: int, n: int) -> np.ndarray:
    out = np.array([[1.0]], dtype=np.complex128)
    for k in range(n):
        out = np.kron(out, op if k == i else I2)
    return out


def kron_xxz_system(p: models.XxzParams) -> models.HamiltonianParts:
    """Split ring Hamiltonian on 2 x 2^(N-1), from N-fold Kronecker chains.

    H = eps sum_i sz_i - sum_i [ j (sx_i sx_{i+1} + sy_i sy_{i+1})
                                 + j_z sz_i sz_{i+1} ]  (periodic).
    v collects the two bonds touching site 1:
    v = -j (sx x X_E + sy x Y_E) - j_z sz x Z_E with X_E = sx_2 + sx_N etc.
    The oracle of models.xxz_system, which builds the same parts from bits.
    """
    n = p.n_sites
    ne = n - 1  # environment sites 2..N in ring order
    x_e = _site_op(SX, 0, ne) + _site_op(SX, ne - 1, ne)
    y_e = _site_op(SY, 0, ne) + _site_op(SY, ne - 1, ne)
    z_e = _site_op(SZ, 0, ne) + _site_op(SZ, ne - 1, ne)
    v = -(
        p.j * (qmat.tensor_product(SX, x_e) + qmat.tensor_product(SY, y_e))
        + p.j_z * qmat.tensor_product(SZ, z_e)
    )
    h_s = p.epsilon * SZ
    h_e = p.epsilon * sum(_site_op(SZ, i, ne) for i in range(ne))
    for i in range(ne - 1):  # bonds among sites 2..N, open segment
        h_e = h_e - (
            p.j
            * (
                _site_op(SX, i, ne) @ _site_op(SX, i + 1, ne)
                + _site_op(SY, i, ne) @ _site_op(SY, i + 1, ne)
            )
            + p.j_z * _site_op(SZ, i, ne) @ _site_op(SZ, i + 1, ne)
        )
    return models.HamiltonianParts(
        qmat.hermitize(h_s), qmat.hermitize(h_e), qmat.hermitize(v)
    )


def non_tight_qutrit_fixtures():
    """(name, rho, v, sdp value, best unitary value) on 3 x 3 with h_S = h_E = 0.

    Three symmetric instances on which the unital relaxation is not exact:
    its optimum is a rank-3 channel, not a unitary.  s_i runs over the GPO
    basis of d = 3.
    """
    d = 3
    s = gpo.gpo_basis(d).elements
    phi = np.eye(d).reshape(-1) / np.sqrt(d)
    swap = np.eye(d * d)[[j * d + i for i in range(d) for j in range(d)]]
    v_plain = sum(np.kron(a, a) for a in s)
    v_transposed = sum(np.kron(a, a.T) for a in s)
    return [
        ("phi_plus", np.outer(phi, phi), v_plain, 4.0, 8.0 / 3.0),
        ("antisymmetric", (np.eye(d * d) - swap) / 6.0, -v_transposed, 2.0, 4.0 / 3.0),
        ("symmetric", (np.eye(d * d) + swap) / 12.0, v_transposed, 1.0, 2.0 / 3.0),
    ]

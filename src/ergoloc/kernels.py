"""The two iterative solvers, in plain numpy on the cost operator C.

Both work on the d_S^2 x d_S^2 Hermitian cost operator C that
sdp.choi_cost builds from the trace-form matrix M and Tr[H rho], so their
cost per iteration does not depend on d_E.  For a local unitary U, with
vec(U) = U.T.ravel(),

    Tr[H (rho - (U x I) rho (U x I)†)] = Tr[H rho] - vec(U)† C vec(U),

which the Riemannian ascent over U(d_S) maximises; the operator-splitting
solver minimises Tr[C E] over the unital bimarginal set that relaxes the
unitary orbit, on which Tr[C E] is the energy after the unital channel.
Operators on S x S' are indexed (a, s) with a the input-copy factor, so
W.reshape(d, d, d, d)[a, s, b, t] = W[(a, s), (b, t)].
"""

from __future__ import annotations

import numpy as np

# ascent line search: Armijo constant, step growth after an accepted step,
# step shrink per rejected trial, trials before declaring a stall
C1 = 1e-4
GROW = 1.3
SHRINK = 0.5
MAX_BACKTRACKS = 60
# steps between QR re-unitarizations, which stop drift from accumulated products
REUNITARIZE_EVERY = 256

# operator splitting: initial penalty, over-relaxation, iterations between
# penalty adaptations
MU0 = 1.0
ALPHA = 1.6
ADAPT_EVERY = 50


def _herm(a):
    return (a + a.conj().T) / 2.0


def _value_and_gradient(c, e0, u):
    """W(U) and the Hermitian S with dW(expm(i t D) U)/dt = 2 Tr[S D] at 0.

    With G[s, a] = (C vec U)[(a, s)], the quadratic form is Tr[Q] for
    Q = U G†, and S = (Q - Q†)/(2i).
    """
    d = u.shape[0]
    q = u @ (c @ u.T.ravel()).reshape(d, d).conj()
    grad = (q - q.conj().T) / 2j
    return e0 - np.trace(q).real, grad, np.linalg.norm(grad)


def ascent_kernel(c, e0, u0, max_iter, gtol):
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


def admm_kernel(c, d, tol, max_iter):
    """min Tr[C E] over E >= 0, Tr_S E = I, Tr_S' E = I (operator splitting).

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

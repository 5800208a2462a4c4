"""The two iterative solvers, in plain numpy on the cost operator C.

Both work on the d_S^2 x d_S^2 Hermitian cost operator C that
sdp.choi_cost builds from the trace-form matrix M and Tr[H rho], so their
cost per iteration does not depend on d_E.  For a local unitary U, with
vec(U) = U.T.ravel(),

    Tr[H (rho - (U x I) rho (U x I)†)] = Tr[H rho] - vec(U)† C vec(U),

which the Riemannian ascent over U(d_S) maximises; the interior-point
solver minimises Tr[C E] over the unital bimarginal set that relaxes the
unitary orbit, on which Tr[C E] is the energy after the unital channel.
Operators on S x S' are indexed (a, s) with a the input-copy factor, so
W.reshape(d, d, d, d)[a, s, b, t] = W[(a, s), (b, t)].
"""

from __future__ import annotations

import numpy as np

from .gpo import gpo_basis

# ascent line search: Armijo constant, step growth after an accepted step,
# step shrink per rejected trial, trials before declaring a stall
C1 = 1e-4
GROW = 1.3
SHRINK = 0.5
MAX_BACKTRACKS = 60
# steps between QR re-unitarizations, which stop drift from accumulated products
REUNITARIZE_EVERY = 256

# interior point: fraction of the distance to the PSD boundary taken per step
STEP_FRACTION = 0.95


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


def _constraints(d):
    """(A, b) with {E : Tr[A_j E] = b_j} the unital bimarginal set.

    A = {I x I/sqrt d, I x s_i/sqrt 2, s_i/sqrt 2 x I} over the GPO basis:
    orthogonal, with equal norms.  Both partial traces fix Tr E = d, so one
    trace constraint is dropped and m = 2 d^2 - 1.
    """
    s, eye = gpo_basis(d).elements / np.sqrt(2.0), np.eye(d)[None]
    a = np.concatenate((np.eye(d * d)[None] / np.sqrt(d), np.kron(eye, s), np.kron(s, eye)))
    b = np.zeros(len(a))
    b[0] = np.sqrt(d)
    return a, b


def _step(l_inv, dw):
    """STEP_FRACTION of the way to the PSD boundary along dW, at most 1.

    l_inv is the inverse Cholesky factor of W; W + t dW >= 0 for
    t <= -1/lambda_min(l_inv dW l_inv†).
    """
    lam = np.linalg.eigvalsh(_herm(l_inv @ dw @ l_inv.conj().T))[0]
    return 1.0 if lam >= 0 else min(1.0, -STEP_FRACTION / lam)


def admm_kernel(c, d, tol, max_iter):
    """min Tr[C E] over E >= 0, Tr_S E = I, Tr_S' E = I (interior point).

    Primal-dual path following on X = E and the dual max b.y with
    Z = C - A*(y) >= 0: the HKM direction with Mehrotra's predictor and
    corrector, which share one m x m Schur matrix M_jk = Re Tr[A_j X A_k Z^-1].
    The start X = I/d, y = 0, Z = I does not depend on C, so costs that
    differ by a term in range(A*) give the same X and Z at every iteration.
    dual_value = b.y + d min(lambda_min(C - A*(y)), 0) bounds the minimum
    from below at any y, as Tr E = d on the feasible set.  The solver stops
    when the residual norms and the certified gap Tr[C X] - dual_value are
    all <= tol; at the cap, or when a factorization or solve fails, it
    returns the last iterate.  The name is kept for the benchmark's tracer.

    Returns (E, objective, primal_res, dual_res, iterations, dual_value).
    """
    c = _herm(np.asarray(c, dtype=np.complex128))
    n = d * d
    a, b = _constraints(d)
    af = a.reshape(len(b), n * n)

    def op(w):  # (Re Tr[A_j W])_j
        return (af.conj() @ w.ravel()).real

    x, y, z = np.eye(n, dtype=np.complex128) / d, np.zeros(len(b)), np.eye(n)
    it = 0
    while True:
        slack = c - (y @ af).reshape(n, n)
        rp, rd = b - op(x), slack - z
        pobj = np.vdot(c, x).real
        dual = b @ y + d * min(np.linalg.eigvalsh(slack)[0], 0.0)
        if max(np.linalg.norm(rp), np.linalg.norm(rd), pobj - dual) <= tol or it == max_iter:
            break
        try:
            lx = np.linalg.inv(np.linalg.cholesky(x))
            lz = np.linalg.inv(np.linalg.cholesky(z))
            zi = lz.conj().T @ lz
            schur = (af.conj() @ (x @ a @ zi).reshape(len(b), n * n).T).real
            r0 = rp + op(x @ rd @ zi)

            def direction(t):
                # A(dX) = r_p, A*(dy) + dZ = R_d, dX + herm(X dZ Z^-1) = herm(t)
                dy = np.linalg.solve(schur, r0 - op(t))
                dz = rd - (dy @ af).reshape(n, n)
                return _herm(t - x @ dz @ zi), dy, dz

            dx, dy, dz = direction(-x)
            mu = np.vdot(x, z).real / n
            mu_aff = np.vdot(x + _step(lx, dx) * dx, z + _step(lz, dz) * dz).real / n
            dx, dy, dz = direction(min(1.0, mu_aff / mu) ** 3 * mu * zi - x - dx @ dz @ zi)
            ap, ad = _step(lx, dx), _step(lz, dz)
        except np.linalg.LinAlgError:
            break
        x, y, z = x + ap * dx, y + ad * dy, z + ad * dz
        it += 1
    return x, pobj, np.linalg.norm(rp), np.linalg.norm(rd), it, dual

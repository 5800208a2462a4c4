"""The two iterative solvers, in plain numpy on the cost operator C.

Both work on the d_S^2 x d_S^2 Hermitian cost operator C that
sdp.choi_cost builds from the trace-form matrix M and Tr[H rho], so their
cost per iteration does not depend on d_E.  For a local unitary U, with
vec(U) = U.T.ravel(),

    Tr[H (rho - (U x I) rho (U x I)†)] = Tr[H rho] - vec(U)† C vec(U),

which the Riemannian Newton ascent over U(d_S) maximises; the
interior-point solver minimises Tr[C E] over the unital bimarginal set
that relaxes the unitary orbit, on which Tr[C E] is the energy after the
unital channel.  Operators on S x S' are indexed (a, s) with a the
input-copy factor, so W.reshape(d, d, d, d)[a, s, b, t] = W[(a, s), (b, t)].
"""

from __future__ import annotations

import functools

import numpy as np

from .gpo import gpo_basis

# ascent: Levenberg shift per unit of gradient norm, Armijo constant, step
# shrink per rejected trial, trials before declaring a stall
LEVENBERG = 0.1
C1 = 1e-4
SHRINK = 0.5
MAX_BACKTRACKS = 60

# interior point: fraction of the distance to the PSD boundary taken per step
STEP_FRACTION = 0.95


def _herm(a):
    return (a + a.conj().swapaxes(-1, -2)) / 2.0


def _frozen(a):
    a.setflags(write=False)
    return a


def _cross(c, u):
    """P = U R† with R = unvec(C vec U); Tr P = vec(U)† C vec(U) is real."""
    d = u.shape[0]
    return u @ (c @ u.T.ravel()).reshape(d, d).conj()


def _value_and_gradient(c, e0, u):
    """W(U) and the Hermitian S with dW(expm(i t D) U)/dt = 2 Tr[S D] at 0.

    With P = U R†, the quadratic form is Tr[P], and S = (P - P†)/(2i).
    """
    p = _cross(c, u)
    grad = (p - p.conj().T) / 2j
    return e0 - np.trace(p).real, grad, np.linalg.norm(grad)


@functools.cache
def _tangent_basis(d):
    """G_k = s_k/sqrt 2 over the GPO basis: orthonormal, traceless, d^2 - 1."""
    return _frozen(gpo_basis(d).elements / np.sqrt(2.0))


def ascent_kernel(c, e0, u0, max_iter, gtol):
    """Maximise W(U) = e0 - vec(U)† C vec(U) over U in U(d_S), from u0.

    Riemannian Newton ascent in the coordinates U(t) = expm(i sum_k t_k G_k) U
    of the k = d_S^2 - 1 traceless directions (global phase leaves W fixed).
    With x = vec U, a_k = vec(G_k U) and P = U R† (see _cross),

        g_k    = dW/dt_k        = 2 Im Tr[G_k P] = 2 Tr[G_k S],
        H_kl   = d2W/dt_k dt_l  = -2 Re[a_k† C a_l] + Re Tr[(G_k G_l + G_l G_k) P],

    and ||S||_F = ||g||/2.  The step solves (mu I - H) delta = g with the
    Levenberg shift mu = max(lambda_max(H), 0) + LEVENBERG ||S||, so it is an
    ascent direction everywhere and the plain Newton step near a
    non-degenerate maximum.  An Armijo search along the geodesic
    expm(i eta sum_k delta_k G_k) U starts at eta = 1; its gain
    W(U + dU) - W(U) = -Re[dx† C (2x + dx)] is evaluated from the increment
    dx = vec((expm(i eta D) - I) U), so the test stays exact to rounding of
    the gain itself down to gradients near machine precision.  e0 is
    Tr[H rho].

    Returns (U, value, grad_norm, iterations, status) with grad_norm = ||S||_F
    and status 0 when the gradient tolerance was reached, 1 when the line
    search stalled at numerical precision, 2 at the iteration cap.
    """
    u = np.array(u0, dtype=np.complex128)
    d = u.shape[0]
    g_b = _tangent_basis(d)
    k = len(g_b)
    g_flat = g_b.reshape(k, d * d)
    status = 2
    it = 0
    for it in range(max_iter):
        p = _cross(c, u)
        g = 2.0 * (g_flat @ p.T.ravel()).imag
        gnorm = 0.5 * np.linalg.norm(g)
        if gnorm <= gtol:
            status = 0
            break
        # rows vec(G_k U); each Hessian term is one k x d^2 by d^2 x k product
        a = (g_b @ u).swapaxes(1, 2).reshape(k, d * d)
        b = g_flat @ (g_b @ p).swapaxes(1, 2).reshape(k, d * d).T
        hess = (b + b.T).real - 2.0 * (a.conj() @ c @ a.T).real
        lam, q = np.linalg.eigh(hess)
        # mu - lam >= LEVENBERG ||S|| > 0, kept where rounding of lam[-1] would lose it
        shift = LEVENBERG * gnorm
        delta = q @ ((q.T @ g) / np.maximum(max(lam[-1], 0.0) + shift - lam, shift))
        slope = g @ delta
        wd, vd = np.linalg.eigh(np.tensordot(delta, g_b, 1))
        x = u.T.ravel()
        eta = 1.0
        for _ in range(MAX_BACKTRACKS):
            du = ((vd * np.expm1(1j * eta * wd)) @ vd.conj().T) @ u
            dx = du.T.ravel()
            if -np.vdot(dx, c @ (2.0 * x + dx)).real >= C1 * eta * slope:
                u = u + du
                break
            eta *= SHRINK
        else:
            status = 1
            break
    # final consistent evaluation at the returned point
    wval, _, gnorm = _value_and_gradient(c, e0, u)
    return u, wval, gnorm, it + 1, status


@functools.cache
def _constraints(d):
    """(A, b) with {E : Tr[A_j E] = b_j} the unital bimarginal set.

    A = {I x I/sqrt d, I x s_i/sqrt 2, s_i/sqrt 2 x I} over the GPO basis:
    orthogonal, with equal norms.  Both partial traces fix Tr E = d, so one
    trace constraint is dropped and m = 2 d^2 - 1.  Built once per d and
    returned read-only.
    """
    s, eye = _tangent_basis(d), np.eye(d)[None]
    a = np.concatenate((np.eye(d * d)[None] / np.sqrt(d), np.kron(eye, s), np.kron(s, eye)))
    b = np.zeros(len(a))
    b[0] = np.sqrt(d)
    return _frozen(a), _frozen(b)


def _steps(l_inv, dw):
    """STEP_FRACTION of the way to the PSD boundary along each dW, at most 1.

    l_inv stacks the inverse Cholesky factors of X and Z and dw their
    directions; W + t dW >= 0 for t <= -1/lambda_min(l_inv dW l_inv†).
    """
    lam = np.linalg.eigvalsh(_herm(l_inv @ dw @ l_inv.conj().swapaxes(-1, -2)))[:, 0]
    return [1.0 if v >= 0 else min(1.0, -STEP_FRACTION / v) for v in lam]


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

    def dual_bound():
        return b @ y + d * min(np.linalg.eigvalsh(slack)[0], 0.0)

    x, y, z = np.eye(n, dtype=np.complex128) / d, np.zeros(len(b)), np.eye(n)
    it = 0
    while True:
        slack = c - (y @ af).reshape(n, n)
        rp, rd = b - op(x), slack - z
        pobj = np.vdot(c, x).real
        # the bound decides the stop only once both residuals are within tol
        dual = None
        if max(np.linalg.norm(rp), np.linalg.norm(rd)) <= tol or it == max_iter:
            dual = dual_bound()
            if pobj - dual <= tol or it == max_iter:
                break
        try:
            l_inv = np.linalg.inv(np.linalg.cholesky(np.stack((x, z))))
            zi = l_inv[1].conj().T @ l_inv[1]
            schur = (af.conj() @ (x @ a @ zi).reshape(len(b), n * n).T).real
            r0 = rp + op(x @ rd @ zi)

            def direction(t):
                # A(dX) = r_p, A*(dy) + dZ = R_d, dX + herm(X dZ Z^-1) = herm(t)
                dy = np.linalg.solve(schur, r0 - op(t))
                dz = rd - (dy @ af).reshape(n, n)
                return _herm(t - x @ dz @ zi), dy, dz

            dx, dy, dz = direction(-x)
            mu = np.vdot(x, z).real / n
            ap, ad = _steps(l_inv, np.stack((dx, dz)))
            mu_aff = np.vdot(x + ap * dx, z + ad * dz).real / n
            dx, dy, dz = direction(min(1.0, mu_aff / mu) ** 3 * mu * zi - x - dx @ dz @ zi)
            ap, ad = _steps(l_inv, np.stack((dx, dz)))
        except np.linalg.LinAlgError:
            break
        x, y, z = x + ap * dx, y + ad * dy, z + ad * dz
        it += 1
    if dual is None:  # a failed factorization or solve stops before the stop test
        dual = dual_bound()
    return x, pobj, np.linalg.norm(rp), np.linalg.norm(rd), it, dual

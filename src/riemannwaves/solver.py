"""Evaluate implicitly defined rank-k solutions u = f(r), r^A = lam^A_i(u) x^i.

A solution family supplies the profile f (with analytic Jacobian df/dr), the
wave covectors lam^A as functions of the state, and the contraction dr/du
below as a callable dr_du(u, X) -> (N, k, 4).  At a spacetime point x the
Riemann invariants solve the fixed-point system

    r^A = lam^A_i(f(r)) x^i,

handled here by damped Newton iteration:

    G(r) = r - lam(f(r)) . x,     dG/dr = I_k - (dr/du)(df/dr),

where (dr/du)[A,alpha] = (d lam^A_i / d u^alpha) x^i.  The same bracket is
the implicit-function condition whose determinant vanishing signals the
gradient catastrophe.  The exact Jacobi matrix of the solved field is

    du = (I_4 - (df/dr)(dr/du))^(-1) (df/dr) lam.

The batched kernels take dr/du from the family (``stack_waves``), where each
wave kind supplies its own contraction: t * row for the acoustic and vortex
waves, whose covectors depend on the state through lam_0 alone.  Both
kernels are batched over points (shape (N, ...)); one point is N = 1.  The
full derivative stack waves_jac (N, k, 4, 4) never enters them: the trace
conditions read it, and the tests contract it with x as the reference dr/du.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "ConvergenceError",
    "CatastropheError",
    "STATUS_OK",
    "STATUS_NO_CONVERGENCE",
    "STATUS_NEAR_CATASTROPHE",
    "newton_batch",
    "jacobi_batch",
]

NEWTON_TOL = 1e-12
NEWTON_MAX_ITER = 50
NEWTON_MAX_HALVINGS = 20
DET_FLOOR = 1e-10

STATUS_OK = 0
STATUS_NO_CONVERGENCE = 1
STATUS_NEAR_CATASTROPHE = 2


class ConvergenceError(RuntimeError):
    """Newton iteration failed to reach the residual tolerance."""


class CatastropheError(RuntimeError):
    """Implicit-function determinant below the floor: too close to a gradient catastrophe."""


def newton_batch(profile, profile_jac, waves, dr_du, X, r0=None,
                 tol=NEWTON_TOL, max_iter=NEWTON_MAX_ITER, det_floor=DET_FLOOR):
    """Damped Newton over a batch of points X (N, 4).

    dr_du(u, X) -> (N, k, 4) gives (dr/du) at states u and points X; it is
    called once per iteration on the active points and once at the end.

    Returns (r, u, status, cond_det).  status is STATUS_OK,
    STATUS_NO_CONVERGENCE or STATUS_NEAR_CATASTROPHE per point; failed
    points keep their last iterate.
    """
    X = np.asarray(X, dtype=float)
    n = X.shape[0]
    t = X[:, 0]

    if r0 is None:
        raise ValueError("newton_batch requires an explicit initial guess (use initial_guess)")
    r = np.array(r0, dtype=float)
    k = r.shape[1]

    u = profile(r, t)
    lam = waves(u)
    g = r - np.einsum("nki,ni->nk", lam, X)
    gnorm = np.max(np.abs(g), axis=1)

    active = np.ones(n, dtype=bool)
    status = np.full(n, STATUS_NO_CONVERGENCE, dtype=np.int8)
    cond = np.ones(n)
    eye = np.eye(k)

    for _ in range(max_iter):
        broken = active & ~np.isfinite(gnorm)
        if broken.any():
            status[broken] = STATUS_NO_CONVERGENCE
            active &= ~broken
        conv = active & (gnorm <= tol)
        status[conv] = STATUS_OK
        active &= ~conv
        if not active.any():
            break

        idx = np.nonzero(active)[0]
        jmat = eye - dr_du(u[idx], X[idx]) @ profile_jac(r[idx], t[idx])
        with np.errstate(invalid="ignore"):
            det = np.linalg.det(jmat)
        cond[idx] = det
        bad = (np.abs(det) < det_floor) | ~np.isfinite(det)
        if bad.any():
            status[idx[bad]] = STATUS_NEAR_CATASTROPHE
            active[idx[bad]] = False
            idx = idx[~bad]
            if idx.size == 0:
                continue
            jmat = jmat[~bad]

        step = np.linalg.solve(jmat, g[idx][..., None])[..., 0]

        # Step damping: halve while the residual grows (per point).
        alpha = np.ones(len(idx))
        r_trial = r[idx] - alpha[:, None] * step
        u_trial = profile(r_trial, t[idx])
        g_trial = r_trial - np.einsum("nki,ni->nk", waves(u_trial), X[idx])
        gn_trial = np.max(np.abs(g_trial), axis=1)
        for _ in range(NEWTON_MAX_HALVINGS):
            worse = gn_trial > gnorm[idx]
            if not worse.any():
                break
            alpha[worse] *= 0.5
            r_half = r[idx][worse] - alpha[worse][:, None] * step[worse]
            u_half = profile(r_half, t[idx][worse])
            g_half = r_half - np.einsum("nki,ni->nk", waves(u_half), X[idx][worse])
            r_trial[worse] = r_half
            u_trial[worse] = u_half
            g_trial[worse] = g_half
            gn_trial[worse] = np.max(np.abs(g_half), axis=1)

        r[idx] = r_trial
        u[idx] = u_trial
        g[idx] = g_trial
        gnorm[idx] = gn_trial

    conv = active & (gnorm <= tol) & np.isfinite(gnorm)
    status[conv] = STATUS_OK

    # Refresh the condition determinant at the final iterate.
    jmat = eye - dr_du(u, X) @ profile_jac(r, t)
    with np.errstate(invalid="ignore"):
        cond = np.linalg.det(jmat)
    near = (np.abs(cond) < det_floor) & (status == STATUS_OK)
    status[near] = STATUS_NEAR_CATASTROPHE
    return r, u, status, cond


def initial_guess(profile, waves, X, k):
    """r0^A = lam^A(f(0)) . x: freeze the state at the profile origin."""
    X = np.asarray(X, dtype=float)
    n = X.shape[0]
    u0 = profile(np.zeros((n, k)), X[:, 0])
    lam0 = waves(u0)
    return np.einsum("nki,ni->nk", lam0, X)


def jacobi_batch(profile, profile_jac, waves, dr_du, X, r,
                 extra_time_deriv=None):
    """Exact Jacobi matrices du (N, 4, 4) at solved invariants r.

    du = (I4 - fr ru)^(-1) fr lam with ru = dr_du(u, X), plus an optional
    explicit d/dt column for profiles carrying direct time dependence.
    """
    X = np.asarray(X, dtype=float)
    t = X[:, 0]
    u = profile(r, t)
    lam = waves(u)
    fr = profile_jac(r, t)
    bracket = np.eye(4) - fr @ dr_du(u, X)
    rhs = fr @ lam
    try:
        jac = np.linalg.solve(bracket, rhs)
    except np.linalg.LinAlgError:
        # exactly singular bracket at isolated points: flag with NaN there
        jac = np.empty_like(rhs)
        for i in range(len(rhs)):
            try:
                jac[i] = np.linalg.solve(bracket[i], rhs[i])
            except np.linalg.LinAlgError:
                jac[i] = np.nan
    if extra_time_deriv is not None:
        jac[:, :, 0] += extra_time_deriv(t)
    return jac

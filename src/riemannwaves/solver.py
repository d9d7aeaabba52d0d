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
waves, whose covectors depend on the state through lam_0 alone.  Internals
are batched over points (shape (N, ...)) so grid sweeps stay cheap; the
scalar API wraps N = 1 and builds dr/du by contracting the full derivative
stack waves_jac (N, k, 4, 4) with x, the reference form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg

__all__ = [
    "ImplicitProblem",
    "ImplicitPoint",
    "ConvergenceError",
    "CatastropheError",
    "STATUS_OK",
    "STATUS_NO_CONVERGENCE",
    "STATUS_NEAR_CATASTROPHE",
    "newton_batch",
    "jacobi_batch",
    "solve_point",
    "jacobi_matrix",
    "implicit_condition",
    "solution_rank",
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


@dataclass(frozen=True)
class ImplicitProblem:
    """Data for one rank-k implicit evaluation.

    profile / profile_jac map invariants (N, k) [with the per-point time
    (N,) as second argument, for families whose profile carries an explicit
    time dependence] to states (N, 4) and profile Jacobians (N, 4, k).
    waves / waves_jac map states (N, 4) to covector stacks (N, k, 4) and
    derivative stacks (N, k, 4, 4) indexed [A, i, alpha].
    """

    k: int
    profile: callable
    profile_jac: callable
    waves: callable
    waves_jac: callable
    x: np.ndarray
    extra_time_deriv: callable | None = None

    def __post_init__(self):
        if self.k not in (1, 2, 3):
            raise ValueError(f"wave count k must be 1, 2 or 3, got {self.k}")
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float).reshape(4))


@dataclass(frozen=True)
class ImplicitPoint:
    """A solved evaluation: invariants, state, exact Jacobi matrix, condition det."""

    r: np.ndarray
    state: np.ndarray
    jac: np.ndarray
    cond_det: float
    x: np.ndarray
    residual: float = 0.0


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


def solve_point(problem: ImplicitProblem, guess=None) -> ImplicitPoint:
    """Solve the implicit system at problem.x and assemble the exact Jacobi matrix.

    Raises ConvergenceError when Newton stalls and CatastropheError when the
    implicit-function determinant falls below 1e-10 along the path.
    """
    X = problem.x[None, :]
    if guess is None:
        r0 = initial_guess(problem.profile, problem.waves, X, problem.k)
    else:
        r0 = np.asarray(guess, dtype=float).reshape(1, problem.k)

    def dr_du(u, pts):  # the reference form: contract the full derivative stack
        return np.einsum("nkia,ni->nka", problem.waves_jac(u), pts)

    r, u, status, cond = newton_batch(problem.profile, problem.profile_jac,
                                      problem.waves, dr_du, X, r0)
    if status[0] == STATUS_NEAR_CATASTROPHE:
        raise CatastropheError(f"implicit-function determinant {cond[0]:.3e} below {DET_FLOOR}")
    if status[0] != STATUS_OK:
        raise ConvergenceError(f"Newton did not converge after {NEWTON_MAX_ITER} iterations")
    jac = jacobi_batch(problem.profile, problem.profile_jac, problem.waves,
                       dr_du, X, r, problem.extra_time_deriv)
    lam = problem.waves(u)
    resid = float(np.max(np.abs(r - np.einsum("nki,ni->nk", lam, X))))
    return ImplicitPoint(r=r[0], state=u[0], jac=jac[0], cond_det=float(cond[0]),
                         x=problem.x.copy(), residual=resid)


def jacobi_matrix(pt: ImplicitPoint, problem: ImplicitProblem) -> np.ndarray:
    """Recompute du at a solved point; (Jacobi) form with singular-bracket guard."""
    X = pt.x[None, :]
    t = X[:, 0]
    r = pt.r[None, :]
    u = problem.profile(r, t)
    fr = problem.profile_jac(r, t)
    ru = np.einsum("nkia,ni->nka", problem.waves_jac(u), X)
    bracket = np.eye(4) - (fr @ ru)[0]
    if abs(linalg.determinant(bracket)) < DET_FLOOR:
        raise CatastropheError("singular bracket I4 - (df/dr)(dr/du)")
    jac = linalg.inverse(bracket) @ (fr @ problem.waves(u))[0]
    if problem.extra_time_deriv is not None:
        jac[:, 0] += problem.extra_time_deriv(t)[0]
    return jac


def implicit_condition(pt: ImplicitPoint, problem: ImplicitProblem) -> float:
    """det(I_k - (dr/du)(df/dr)) at a solved point."""
    X = pt.x[None, :]
    t = X[:, 0]
    r = pt.r[None, :]
    u = problem.profile(r, t)
    fr = problem.profile_jac(r, t)
    ru = np.einsum("nkia,ni->nka", problem.waves_jac(u), X)
    return float(np.linalg.det(np.eye(problem.k) - (ru @ fr)[0]))


def solution_rank(pt: ImplicitPoint, rel_tol: float = 1e-8) -> int:
    """Numerical rank of the solved Jacobi matrix."""
    return linalg.numerical_rank(pt.jac, rel_tol=rel_tol)

"""Evaluate implicitly defined rank-k solutions u = f(r), r^A = lam^A_i(u) x^i.

A solution family supplies the profile f (with analytic Jacobian df/dr), the
wave covectors lam^A as functions of the state, and the contraction dr/du
below as a callable dr_du(u, X) -> (N, k, 4).  At a spacetime point x the
Riemann invariants solve G(r) = 0,

    G(r) = r - lam(f(r)) . x,     dG/dr = I_k - (dr/du)(df/dr),

where (dr/du)[A,alpha] = (d lam^A_i / d u^alpha) x^i.  The same bracket is
the implicit-function condition whose determinant vanishing signals the
gradient catastrophe.  The exact Jacobi matrix of the solved field is

    du = (I_4 - (df/dr)(dr/du))^(-1) (df/dr) lam
       = (df/dr) adj(dG/dr) lam / det(dG/dr),

the second form by the push-through identity (I_4 - F R)^(-1) F =
F (I_k - R F)^(-1) (Henderson & Searle, SIAM Review 23, 1981), with
Sylvester's det(I_4 - F R) = det(I_k - R F): the 4x4 system never needs
solving.

``damped_newton`` is the one damped-Newton kernel: ``newton_batch`` runs it
on G, the transported families' evaluators on their scalar relations.  Near
a gradient catastrophe |r| grows to 1e5-1e6, where one ulp of r exceeds the
absolute tolerance 1e-12, and Newton there settles into an exact fixed point
or 2-cycle above it.  The kernel stops as soon as every point still
iterating repeats and returns the iterates (and states) the full loop would
have ended on, a 2-cycle's member chosen by the parity of the iterations
left, so every output stays that of the full loop.

The kernels take dr/du from the family (``stack_waves``): t * rows for the
acoustic and vortex waves, whose covectors depend on the state through
lam_0 alone (a family with a custom covector solves through its own
evaluator).  All are batched over points (shape (N, ...)); one point is
N = 1.  The full derivative stack waves_jac (N, k, 4, 4) never enters them:
the trace conditions read it, and the tests contract it with x as the
reference dr/du.

Each bracket quantity is built once.  The determinant is in closed form
(``bracket_det``, k <= 3) everywhere on the solver path: in Newton's stop
test, and in the final refresh at the converged iterates, whose cond_det
feeds the status and every consumer (``verify``'s skips, the catastrophe
probe).  Only ``sample`` prints LAPACK's value, of the dG/dr the refresh
returns.  A k = 1 step is g / dG/dr, bitwise LAPACK's 1x1 solve.  A
step whose LAPACK solve meets an exact zero pivot (a badly scaled bracket
whose closed-form determinant is rounding above the floor) stops those
points instead of raising for the batch.  The refresh hands its df/dr and
dG/dr and its cond_det to ``jacobi_batch``, which assembles du from them
without evaluating the profile or the determinant again: a family has 1
to 3 waves, so the adjugate is in closed form too.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "STATUS_OK",
    "STATUS_NO_CONVERGENCE",
    "STATUS_NEAR_CATASTROPHE",
    "damped_newton",
    "newton_batch",
    "jacobi_batch",
]

NEWTON_TOL = 1e-12
NEWTON_MAX_ITER = 50
DET_FLOOR = 1e-10
_HALVINGS = 0.5 ** np.arange(1, 21)  # a worsening step's fractions, tried in one call

STATUS_OK = 0
STATUS_NO_CONVERGENCE = 1
STATUS_NEAR_CATASTROPHE = 2


def damped_newton(residual, newton_step, r0, *data, tol, max_iter):
    """Damped Newton for residual(r, *data) = 0 over points: r0 is (N,) or
    (N, k), each data array holds per-point values along its first axis.

    residual(r, *d) -> (g, aux): g shaped like r, aux per-point values kept
    for the final iterates (the state, say) or None; newton_step(r, g, aux,
    *d) -> (step, stop): the full step, and a mask of points to stop as
    STATUS_NEAR_CATASTROPHE (their step rows are ignored) or None.  Both see
    only the points still iterating, gathered anew when that set shrinks, so
    a point's result does not depend on its batch when the residual rounds
    each row on its own.  A point whose max|g| is not finite stops at once.
    A step that makes max|g| grow is halved 1..20 times, all tried in one
    residual call; the first halving that does not grow wins, else the last.

    The loop stops early, leaving STATUS_NO_CONVERGENCE, once every point
    still iterating repeats bit for bit: all accepted iterates equal the
    current ones (a fixed point), or all equal the ones before them with the
    same points iterating (a 2-cycle).  The iteration is then a deterministic
    map of the batch's r, so it would cycle above tol until max_iter; the
    result is what that full loop returns: of a 2-cycle, the member the
    parity of the max_iter - it - 1 iterations left selects, with its aux.
    The stop is decided for the whole batch, not per point, because a row's
    rounding may depend on the batch it shares (BLAS in the covectors), and
    a point dropped early would change the batch of the others.  The test
    reads max|g|, which a repeat reproduces exactly, and compares the rows
    only when no max|g| changed.  Returns (r, aux, status).
    """
    r = np.array(r0, dtype=float)
    g, aux = residual(r, *data)
    status = np.full(len(r), STATUS_NO_CONVERGENCE, dtype=np.int8)
    # ri is a copy: the repeat test compares it with r_old after r[i] = ri
    i, ri, gi, gni, auxi, di = np.arange(len(r)), r.copy(), g, _max_abs(g), aux, data
    r_prev = None  # the iterates before r_old, None once the set of points changed

    for it in range(max_iter):
        going = (gni > tol) & np.isfinite(gni)
        n_going = np.count_nonzero(going)
        if n_going < len(i):
            status[i[gni <= tol]] = STATUS_OK
            if not n_going:
                break
            i, ri, gi, gni, auxi, *di = _rows(going, i, ri, gi, gni, auxi, *di)
            r_prev = None
        step, stop = newton_step(ri, gi, auxi, *di)
        if stop is not None and np.count_nonzero(stop):
            status[i[stop]] = STATUS_NEAR_CATASTROPHE
            if stop.all():
                break
            i, ri, gni, auxi, step, *di = _rows(~stop, i, ri, gni, auxi, step, *di)
            r_prev = None

        r_old, gn_old, aux_old = ri, gni, auxi
        ri = r_old - step
        gi, auxi = residual(ri, *di)
        gni = _max_abs(gi)
        worse = gni > gn_old
        if np.count_nonzero(worse):
            w = np.flatnonzero(worse)
            halvings = _HALVINGS.reshape((-1,) + (1,) * (r.ndim - 1))
            ladder = (r_old[w, None] - step[w, None] * halvings).reshape((-1,) + r.shape[1:])
            g_lad, aux_lad = residual(ladder, *[np.repeat(a[w], len(_HALVINGS), axis=0)
                                                for a in di])
            gn_lad = _max_abs(g_lad).reshape(w.size, -1)
            better = ~(gn_lad > gn_old[w, None])
            pick = np.where(better.any(axis=1), better.argmax(axis=1), len(_HALVINGS) - 1)
            pick += np.arange(w.size) * len(_HALVINGS)
            ri[w], gi[w], gni[w] = ladder[pick], g_lad[pick], gn_lad.ravel()[pick]
            if aux is not None:
                auxi[w] = aux_lad[pick]
        r[i] = ri
        if aux is not None:
            aux[i] = auxi

        # a repeat leaves every max|g| as it was, so rows are compared only then
        if np.array_equal(gni, gn_old):
            if _same_bits(ri, r_old):  # a fixed point: r holds it
                break
            if r_prev is not None and _same_bits(ri, r_prev):  # a 2-cycle
                if (max_iter - it - 1) % 2:  # the full loop would end on r_old
                    r[i] = r_old
                    if aux is not None:
                        aux[i] = aux_old
                break
        r_prev = r_old
    else:
        status[i[gni <= tol]] = STATUS_OK
    return r, aux, status


def _max_abs(g):
    """max|g| per point of an (N,) or (N, k) residual: one np.maximum per
    column, bitwise the axis reduction (both exact and NaN-propagating) at a
    fraction of its cost on a short axis."""
    a = np.abs(g)
    if a.ndim == 1:
        return a
    m = a[:, 0]
    for j in range(1, a.shape[1]):
        m = np.maximum(m, a[:, j])
    return m


def _same_bits(a, b):  # two float arrays equal bit for bit
    return np.array_equal(a.view(np.uint64), b.view(np.uint64))


def _rows(keep, *arrays):
    return [None if a is None else a[keep] for a in arrays]


def newton_batch(profile, profile_jac, waves, dr_du, X, r0):
    """Damped Newton (``damped_newton``) for G(r) = 0 at points X (N, 4) from
    the initial guess r0 (N, k).

    dr_du(u, X) -> (N, k, 4) is called once per iteration on the points still
    iterating and once at the end.  A point with |det dG/dr| < 1e-10, or a
    determinant that is not finite, stops as STATUS_NEAR_CATASTROPHE, in the
    loop and at the final iterates alike; so does a point whose step meets
    an exact zero pivot in LAPACK's solve.  Returns (r, u, status, cond_det,
    fr, jmat): at the final iterates, cond_det = det(dG/dr) by the closed
    form (``bracket_det``), fr = df/dr (N, 4, k) and jmat = dG/dr (N, k, k):
    the pieces ``jacobi_batch`` reads.  ``sample`` prints jmat's LAPACK
    determinant.  Failed points keep their last iterate.
    """
    X = np.asarray(X, dtype=float)
    k = np.shape(r0)[1]
    eye = np.eye(k)

    def residual(r, X):
        u = profile(r, X[:, 0])
        return r - np.einsum("nki,ni->nk", waves(u), X), u

    def bracket(r, u, X):  # dr/du, df/dr and dG/dr
        ru = dr_du(u, X)
        fr = profile_jac(r, X[:, 0])
        return ru, fr, eye - ru @ fr

    def newton_step(r, g, u, X):
        jmat = bracket(r, u, X)[2]
        with np.errstate(invalid="ignore", over="ignore"):
            stop = _near_singular(bracket_det(jmat))
        if stop.any():
            jmat[stop] = eye  # a harmless step on rows the kernel drops
        if k == 1:  # bitwise LAPACK's 1x1 solve
            return g / jmat[:, 0], stop
        try:
            return np.linalg.solve(jmat, g[..., None])[..., 0], stop
        except np.linalg.LinAlgError:
            # an exact zero pivot behind a closed-form det above the floor (a
            # badly scaled bracket): stop those rows, step the others
            with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
                lu_det = np.linalg.det(jmat)
            singular = ~np.isfinite(lu_det) | (lu_det == 0)
            jmat[singular] = eye
            return np.linalg.solve(jmat, g[..., None])[..., 0], stop | singular

    r, u, status = damped_newton(residual, newton_step, r0, X,
                                 tol=NEWTON_TOL, max_iter=NEWTON_MAX_ITER)
    _, fr, jmat = bracket(r, u, X)  # refreshed at the final iterates
    with np.errstate(invalid="ignore", over="ignore"):
        cond = bracket_det(jmat)
    status[_near_singular(cond) & (status == STATUS_OK)] = STATUS_NEAR_CATASTROPHE
    return r, u, status, cond, fr, jmat


def _near_singular(det):  # |det| < DET_FLOOR, or det not finite
    return ~np.isfinite(det) | (np.abs(det) < DET_FLOOR)


def bracket_det(m):
    """Determinants of an (N, k, k) stack: closed form for k <= 3, LAPACK
    above (a public ``AnsatzConfig`` may carry more waves than a family).

    The closed form agrees with np.linalg.det to rounding and is non-finite on
    any row that holds a NaN or an infinity.
    """
    k = m.shape[-1]
    if k == 1:
        return m[:, 0, 0].copy()
    if k == 2:
        return m[:, 0, 0] * m[:, 1, 1] - m[:, 0, 1] * m[:, 1, 0]
    if k == 3:
        return (m[:, 0, 0] * (m[:, 1, 1] * m[:, 2, 2] - m[:, 1, 2] * m[:, 2, 1])
                - m[:, 0, 1] * (m[:, 1, 0] * m[:, 2, 2] - m[:, 1, 2] * m[:, 2, 0])
                + m[:, 0, 2] * (m[:, 1, 0] * m[:, 2, 1] - m[:, 1, 1] * m[:, 2, 0]))
    return np.linalg.det(m)


def initial_guess(profile, waves, X, k):
    """r0^A = lam^A(f(0)) . x: freeze the state at the profile origin."""
    X = np.asarray(X, dtype=float)
    u0 = profile(np.zeros((len(X), k)), X[:, 0])
    return np.einsum("nki,ni->nk", waves(u0), X)


def jacobi_batch(waves, u, fr, jmat, X, det, extra_time_deriv=None):
    """Exact Jacobi matrices du (N, 4, 4) at solved states u (N, 4).

    du = fr adj(jmat) lam(u) / det, from the df/dr ``fr`` (N, 4, k), the
    bracket ``jmat`` = dG/dr (N, k, k) and its determinant ``det`` (N,)
    that ``newton_batch`` returns for these points X (N, 4), plus an
    optional explicit d/dt column for profiles carrying direct time
    dependence.  The adjugate is in closed form (k = 1 divides).  A row
    whose determinant is zero or not finite comes back NaN.
    """
    lam = waves(u)
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        if jmat.shape[-1] == 1:
            sol = lam / jmat
        else:
            sol = _adjugate(jmat) @ lam / det[:, None, None]
        jac = fr @ sol
    jac[(det == 0) | ~np.isfinite(det)] = np.nan
    if extra_time_deriv is not None:
        jac[:, :, 0] += extra_time_deriv(X[:, 0])
    return jac


def _adjugate(m):
    """Adjugates of an (N, k, k) stack for k = 2, 3: adj(m) m = det(m) I."""
    if m.shape[-1] == 2:
        (a, b), (c, d) = m[:, 0].T, m[:, 1].T
        return np.stack([d, -b, -c, a], axis=1).reshape(-1, 2, 2)
    (a, b, c), (d, e, f), (g, h, i) = m[:, 0].T, m[:, 1].T, m[:, 2].T
    return np.stack([e * i - f * h, c * h - b * i, b * f - c * e,
                     f * g - d * i, a * i - c * g, c * d - a * f,
                     d * h - e * g, b * g - a * h, a * e - b * d], axis=1).reshape(-1, 3, 3)

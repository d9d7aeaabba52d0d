"""Evaluator for the mixed family whose third invariant rides a transport equation.

Structure: one acoustic wave along x3 with amplitude f, two vortex modes in
the (x1, x2) plane sharing a single phase function.  The invariants are

    r1 = ((1 + 1/kappa) f(r1) + a0 + u30) t - x3          (implicit, scalar),
    r3: transported, dr3/dt + u3 dr3/dx3 = 0, r3(0, x) = x3 (G below if f is linear),
    r2 = t - u1(r2, r3) x1 - u2(r2, r3) x2                (implicit, scalar),

with fields a = f(r1)/kappa + a0, u3 = f(r1) + u30 and the planar velocity
(u1, u2) on the unit circle given by the variant's phase profile.

For linear f the transported invariant has the closed form

    G = (1 - (1+1/kappa) A1 t)^(-kappa/(kappa+1))
        * (x3 + (kappa a0 - u30) t - (B1 + kappa a0)/A1).

For any f, along dx3/ds = u3 the invariant rho = r1 obeys ds/drho =
(1 - (1+1/kappa) f'(rho) s)/a(rho), linear in s with integrating factor
a^(kappa+1).  So the foot X(0) = -rho0 solves the first integral

    t a(r1)^(kappa+1) = int_{rho0}^{r1} a(sigma)^kappa dsigma,

with dX(0)/dx3 = (a(r1)/a(rho0))^kappa and dX(0)/dt = -u3 dX(0)/dx3.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from functools import cache
from typing import Callable

import numpy as np

from ..solver import STATUS_NEAR_CATASTROPHE, STATUS_NO_CONVERGENCE, STATUS_OK
from .base import STATUS_INVALID

__all__ = ["PlanarVelocity", "TransportedEvaluator", "RotatingPolarizationEvaluator"]

_NEWTON_TOL = 1e-13
_NEWTON_ITERS = 60
_HALVINGS = 0.5 ** np.arange(1, 21)  # damped Newton's step fractions after a full step worsens
_MEMO_SIZE = 8  # holds one FD stencil's distinct foot integrations (7 for v2)
_GL_ORDER = 32  # Gauss-Legendre nodes of v1's first integral
_DRIFT_TOL = 1e-8  # v2's foot: |r1 + y . n(r1)| at s = 0; <= 1e-11 at the registry defaults


class _Memo:
    """The last ``size`` results of one evaluator method, keyed on its inputs.

    A finite-difference stencil shifts one coordinate at a time; a shift of
    a coordinate the integration ignores then reuses the centre's result.
    The key is ``steps`` (a step count, or None) plus each float array
    argument's shape and raw bytes, so an argument mutated in place or a
    changed ``ode_steps`` misses.  Results are tuples of arrays, stored and
    returned read-only.
    """

    def __init__(self, size):
        self.size = size
        self._entries = OrderedDict()

    def __call__(self, compute, *arrays, steps=None):
        arrays = tuple(np.asarray(a, dtype=float) for a in arrays)
        key = (steps,) + tuple((a.shape, a.tobytes()) for a in arrays)
        out = self._entries.get(key)
        if out is not None:
            self._entries.move_to_end(key)
            return out
        out = compute(*arrays)
        for a in out:
            a.flags.writeable = False
        self._entries[key] = out
        if len(self._entries) > self.size:
            self._entries.popitem(last=False)
        return out


@dataclass(frozen=True)
class PlanarVelocity:
    """(u1, u2) = (sin theta, sign*cos theta) for a two-argument phase theta."""

    theta: object            # Fn2: phase of the planar velocity
    cos_sign: float = -1.0   # u2 = cos_sign * cos(theta)
    post_valid: Callable | None = None  # (r2, r3) -> bool mask

    def fields(self, p, q):
        th = self.theta(p, q)
        return np.sin(th), self.cos_sign * np.cos(th)

    def partials(self, p, q):
        th, tp, tq = self.theta.value_and_partials(p, q)
        c, s = np.cos(th), np.sin(th)
        # d(sin th), d(cos_sign cos th)
        return c * tp, c * tq, -self.cos_sign * s * tp, -self.cos_sign * s * tq


def _scalar_newton(g, dg, r0, *data, tol=_NEWTON_TOL, iters=_NEWTON_ITERS):
    """Vectorized damped Newton for g(r, *data) = 0, ``data`` being per-point (N,) arrays.

    Each iteration works on the unconverged points alone, so a point's result
    does not depend on its batch and a point without a root costs only its own
    iterations.  A full step that makes |g| grow is halved 1..20 times, all
    tried in one call of ``g``; the first halving that does not grow wins, else
    the last."""
    r = np.array(r0, dtype=float)
    val = g(r, *data)
    ok = np.abs(val) <= tol
    for _ in range(iters):
        if ok.all():
            break
        i = np.flatnonzero(~ok)
        ri, vi, di = r[i], val[i], [a[i] for a in data]
        d = dg(ri, *di)
        step = vi / np.where(np.abs(d) < 1e-14, np.sign(d) * 1e-14 + (d == 0) * 1e-14, d)
        r_new = ri - step
        val_new = g(r_new, *di)
        w = np.flatnonzero(np.abs(val_new) > np.abs(vi))
        if w.size:
            ladder = ri[w, None] - step[w, None] * _HALVINGS
            vals = g(ladder, *[a[w, None] for a in di])
            better = ~(np.abs(vals) > np.abs(vi[w, None]))
            k = np.where(better.any(axis=1), better.argmax(axis=1), len(_HALVINGS) - 1)
            r_new[w], val_new[w] = ladder[np.arange(w.size), k], vals[np.arange(w.size), k]
        r[i], val[i] = r_new, val_new
        ok[i] = np.abs(val_new) <= tol
    return r, ok


@cache
def _gauss_legendre(n):
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1]: elementwise
    Newton on the Legendre recurrence from cos(pi (i - 1/4) / (n + 1/2)), no LAPACK.
    Built on first use, so an import pays nothing; the arrays are read-only."""
    x = np.cos(np.pi * (np.arange(1, n + 1) - 0.25) / (n + 0.5))
    for _ in range(10):  # quadratic convergence: 4-5 iterations reach rounding
        p_prev, p = np.ones_like(x), x
        for j in range(1, n):
            p_prev, p = p, ((2 * j + 1) * x * p - j * p_prev) / (j + 1)
        dp = n * (x * p - p_prev) / (x * x - 1.0)
        x = x - p / dp
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    x.flags.writeable = w.flags.writeable = False
    return x, w


class TransportedEvaluator:
    """Callable implementing FamilySpec.custom_eval for this family.

    Without a closed-form r3, ``solve_r3`` solves the first integral (module
    docstring) for rho0 by damped Newton from r1 - t a(r1), with a 32-node
    Gauss-Legendre rule on [rho0, r1].  The last 8 results per instance are
    memoised on the bytes and shapes of (t, r1) and returned read-only, so
    an FD stencil solves 5 times, not 9.  A failed rho0 solve or a sound
    speed a <= 0 at either end of the characteristic makes a point not ok.
    """

    def __init__(self, fprof, planar: PlanarVelocity, a0, u30, kappa, r3_closed=None):
        self.f = fprof
        self.planar = planar
        self.a0 = float(a0)
        self.u30 = float(u30)
        self.kappa = float(kappa)
        self.r3_closed = r3_closed  # (t, x3) -> (G, dG/dt, dG/dx3), linear-f only
        self._r3_memo = _Memo(_MEMO_SIZE)

    # -- pieces -------------------------------------------------------------

    def phase1(self, r1):
        return (1.0 + 1.0 / self.kappa) * self.f(r1) + self.a0 + self.u30

    def sound(self, r1):
        return self.f(r1) / self.kappa + self.a0

    def solve_r1(self, t, x3):
        g = lambda r, t, x3: r - self.phase1(r) * t + x3
        dg = lambda r, t, x3: 1.0 - (1.0 + 1.0 / self.kappa) * self.f.d(r) * t
        return _scalar_newton(g, dg, self.phase1(np.zeros_like(t)) * t - x3, t, x3)

    def r3_first_integral(self, t, r1):
        """Foot X(0) of dx/ds = u3 from (t, x3), dX(0)/dt, dX(0)/dx3 and an ok mask.

        ``r1`` is the acoustic invariant at (t, x3).  rho0 = -X(0) is the root
        of int_{rho0}^{r1} (a/a(r1))^kappa - t a(r1), the first integral over
        a(r1)^kappa (a length: it suits the absolute Newton tolerance), unique
        where a > 0 since its derivative is -(a(rho0)/a(r1))^kappa."""
        kappa = self.kappa
        unit_nodes, weights = _gauss_legendre(_GL_ORDER)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # a <= 0: see ok
            a1 = self.sound(r1)
            span = t * a1

            def g(rho0, r1, a1, span):
                half = 0.5 * (r1 - rho0)
                nodes = (r1 - half)[..., None] + half[..., None] * unit_nodes
                ratio = self.sound(nodes) / a1[..., None]
                # einsum sums each row alone (BLAS may not): a point's foot ignores its batch
                return half * np.einsum("...k,k->...", ratio ** kappa, weights) - span

            dg = lambda rho0, r1, a1, span: -(self.sound(rho0) / a1) ** kappa
            rho0, ok = _scalar_newton(g, dg, r1 - span, r1, a1, span)
            a_foot = self.sound(rho0)
            dx = (a1 / a_foot) ** kappa
        ok &= (a1 > 0.0) & (a_foot > 0.0)
        return -rho0, -(self.f(r1) + self.u30) * dx, dx, ok

    def solve_r3(self, t, x3, r1):
        """(r3, dr3/dt, dr3/dx3, ok): the closed form when there is one, else
        the memoised first integral at the acoustic invariant ``r1``."""
        if self.r3_closed is not None:
            return (*self.r3_closed(t, x3), True)
        return self._r3_memo(self.r3_first_integral, t, r1)

    def solve_r2(self, t, x1, x2, r3, r0):
        def g(r, t, x1, x2, r3):
            a, b = self.planar.fields(r, r3)
            return r - t + a * x1 + b * x2

        def dg(r, t, x1, x2, r3):
            dp1, _, dp2, _ = self.planar.partials(r, r3)
            return 1.0 + dp1 * x1 + dp2 * x2

        return _scalar_newton(g, dg, r0, t, x1, x2, r3)

    # -- FamilySpec.custom_eval ---------------------------------------------

    def __call__(self, t, x, branch=None, guess=None):
        """A finite ``guess`` (N, 3), such as an FD stencil's centre, starts
        the r2 solve, so every shift tracks the centre's root; else r2 = t."""
        t = np.asarray(t, dtype=float)
        x = np.asarray(x, dtype=float)
        x1, x2, x3 = x[:, 0], x[:, 1], x[:, 2]
        n = len(t)

        r1, ok1 = self.solve_r1(t, x3)
        r3, dr3_dt, dr3_dx3, ok3 = self.solve_r3(t, x3, r1)
        r2_start = t if guess is None else np.where(np.isfinite(guess[:, 1]), guess[:, 1], t)
        r2, ok2 = self.solve_r2(t, x1, x2, r3, r2_start)

        f1 = self.f(r1)
        df1 = self.f.d(r1)
        u1f, u2f = self.planar.fields(r2, r3)
        u = np.column_stack([f1 / self.kappa + self.a0, u1f, u2f, f1 + self.u30])

        # invariant gradients over (t, x1, x2, x3)
        d1 = 1.0 - (1.0 + 1.0 / self.kappa) * df1 * t
        grad_r1 = np.zeros((n, 4))
        with np.errstate(divide="ignore", invalid="ignore"):  # d1 = 0: cond = 0 records it
            grad_r1[:, 0] = self.phase1(r1) / d1
            grad_r1[:, 3] = -1.0 / d1

        grad_r3 = np.zeros((n, 4))
        grad_r3[:, 0] = dr3_dt
        grad_r3[:, 3] = dr3_dx3

        u1p, u1q, u2p, u2q = self.planar.partials(r2, r3)
        d2 = 1.0 + u1p * x1 + u2p * x2
        grad_r2 = np.zeros((n, 4))
        gq = u1q * x1 + u2q * x2
        grad_r2[:, 0] = (1.0 - gq * dr3_dt) / d2
        grad_r2[:, 1] = -u1f / d2
        grad_r2[:, 2] = -u2f / d2
        grad_r2[:, 3] = -gq * dr3_dx3 / d2

        jac = np.zeros((n, 4, 4))
        jac[:, 0, :] = (df1 / self.kappa)[:, None] * grad_r1
        jac[:, 1, :] = u1p[:, None] * grad_r2 + u1q[:, None] * grad_r3
        jac[:, 2, :] = u2p[:, None] * grad_r2 + u2q[:, None] * grad_r3
        jac[:, 3, :] = df1[:, None] * grad_r1

        cond = d1 * d2
        status = np.where(ok1 & ok2 & ok3, STATUS_OK, STATUS_NO_CONVERGENCE).astype(np.int8)
        if self.planar.post_valid is not None:
            good = self.planar.post_valid(r2, r3)
            status = np.where(good, status, STATUS_INVALID).astype(np.int8)
        bad = ~np.isfinite(u).all(axis=1)
        status[bad] = STATUS_NO_CONVERGENCE

        r = np.column_stack([r1, r2, r3])
        return r, u, jac, cond, status


class RotatingPolarizationEvaluator:
    """Acoustic wave with rotating planar polarization plus a convected u3.

    a = F(r1)/kappa + a0, u1 = sin F, u2 = -cos F with the scalar invariant
    r1 = a t - x1 cos F - x2 sin F.  The first three fluid equations close on
    any F; the third velocity component must then ride the planar flow,
    D u3 = 0 with D = d/dt + u1 d/dx1 + u2 d/dx2 (no x3 dependence is
    admissible).  No algebraic combination of the vortex invariants is
    convected here, so u3 = g(m) with m traced backward along the planar
    characteristics dy/ds = v = (sin F, -cos F) (initial data: the charted
    combination x1 sin F - x2 cos F at t = 0).  grad r1 = (a, -cos F,
    -sin F)/delta over (s, y) with delta = 1 - F'(r1) (s/kappa + y . v), so
    along them dr1/ds = a/delta: r1 is solved at the point only and rides
    the RK4 state with y and M = dy/dx (dM/ds = -F'/delta n n^T M,
    n = (cos F, sin F)), which keeps the exact Jacobi matrix.  Where the
    carried r1 misses r1 = -y . n at the foot by more than 1e-8, the path
    met delta = 0 and the point is near_catastrophe.  At the defaults the
    foot is within 2.6e-13 and M within 5.9e-13 of DOP853.

    Per instance, ``_foot`` memoises its last 8 integrations (``ode_steps``
    RK4 steps, 100 from the registry), keyed on the bytes and shapes of
    (t, x1, x2) plus ``ode_steps``, so a central-difference stencil
    integrates 7 times, not 9 (x3 shifts reuse the centre); ``profile_chart``
    memoises its last chart, keyed on the invariant triple plus
    ``ode_steps``, so ``profile`` and ``profile_jac`` at one triple share it.
    Memoised arrays are read-only.
    """

    def __init__(self, fprof, gprof, a0, kappa, ode_steps=100):
        self.F = fprof
        self.g = gprof
        self.a0 = float(a0)
        self.kappa = float(kappa)
        self.ode_steps = ode_steps
        self._foot_memo = _Memo(_MEMO_SIZE)
        self._chart_memo = _Memo(1)

    def solve_r1(self, t, x1, x2):
        def g(r, t, x1, x2):
            fv = self.F(r)
            return r - (fv / self.kappa + self.a0) * t + x1 * np.cos(fv) + x2 * np.sin(fv)

        def dg(r, t, x1, x2):
            fv, df = self.F(r), self.F.d(r)
            return 1.0 - df / self.kappa * t - (x1 * np.sin(fv) - x2 * np.cos(fv)) * df

        zero = np.zeros_like(t)  # start at r = 0's right-hand side a(0) t - x . n(0)
        return _scalar_newton(g, dg, zero - g(zero, t, x1, x2), t, x1, x2)

    def _foot(self, t, x1, x2):
        """Backward planar characteristics: foot y(0), M = dy/d(x1,x2), (r1, ok)
        of the r1 solve at the point, and the carried r1's drift from its
        relation at the foot (memoised, read-only)."""
        return self._foot_memo(self._integrate_foot, t, x1, x2, steps=self.ode_steps)

    def _integrate_foot(self, t, x1, x2):
        """RK4 behind ``_foot`` on the rows (y1, y2, r1, M11, M12, M21, M22),
        from s = t down to 0; r1 is solved once, at the point, then carried."""
        r1, ok = self.solve_r1(t, x1, x2)
        one, zero = np.ones_like(t), np.zeros_like(t)
        state = np.stack([x1, x2, r1, one, zero, zero, one])
        h = -t / self.ode_steps

        def rhs(s, z):
            y1, y2, r, m11, m12, m21, m22 = z
            fv, df = self.F(r), self.F.d(r)
            c, sn = np.cos(fv), np.sin(fv)
            delta = 1.0 - df / self.kappa * s - (y1 * sn - y2 * c) * df
            # dM/ds = coef n (n^T M), n = (c, sn): elementwise, no BLAS
            coef = -df / delta
            nm1, nm2 = coef * (c * m11 + sn * m21), coef * (c * m12 + sn * m22)
            out = np.empty_like(z)
            out[0], out[1], out[2] = sn, -c, (fv / self.kappa + self.a0) / delta
            out[3], out[4], out[5], out[6] = c * nm1, c * nm2, sn * nm1, sn * nm2
            return out

        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # see status
            for i in range(self.ode_steps):
                s = t + i * h
                k1 = rhs(s, state)
                k2 = rhs(s + 0.5 * h, state + 0.5 * h * k1)
                k3 = rhs(s + 0.5 * h, state + 0.5 * h * k2)
                k4 = rhs(s + h, state + h * k3)
                state = state + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
            y1, y2, r = state[:3]
            fv = self.F(r)
            drift = np.abs(r + y1 * np.cos(fv) + y2 * np.sin(fv))  # r1(0, y) = -y . n
        m = np.stack([state[3:5], state[5:7]]).transpose(2, 0, 1)
        return np.stack([y1, y2], axis=-1), m, r1, ok, drift

    def _m0(self, y):
        """Initial convected chart m0 = y1 sin F0 - y2 cos F0 and its gradient."""
        zero = np.zeros(y.shape[0])
        r10, _ = self.solve_r1(zero, y[:, 0], y[:, 1])
        fv, df = self.F(r10), self.F.d(r10)
        c, s = np.cos(fv), np.sin(fv)
        delta0 = 1.0 - (y[:, 0] * s - y[:, 1] * c) * df
        val = y[:, 0] * s - y[:, 1] * c
        # d(val)/dy through both the explicit y and F(r1(0, y))
        dr_dy1, dr_dy2 = -c / delta0, -s / delta0
        common = (y[:, 0] * c + y[:, 1] * s) * df
        d1 = s + common * dr_dy1
        d2 = -c + common * dr_dy2
        return val, d1, d2

    def __call__(self, t, x, branch=None, guess=None):
        t = np.asarray(t, dtype=float)
        x = np.asarray(x, dtype=float)
        x1, x2 = x[:, 0], x[:, 1]
        n = len(t)

        y, mmat, r1, ok, drift = self._foot(t, x1, x2)
        fv, df = self.F(r1), self.F.d(r1)
        c, s = np.cos(fv), np.sin(fv)
        a = fv / self.kappa + self.a0
        delta = 1.0 - df / self.kappa * t - (x1 * s - x2 * c) * df

        m, d1, d2 = self._m0(y)
        grad_m = np.empty((n, 2))
        grad_m[:, 0] = d1 * mmat[:, 0, 0] + d2 * mmat[:, 1, 0]
        grad_m[:, 1] = d1 * mmat[:, 0, 1] + d2 * mmat[:, 1, 1]
        dm_dt = -(grad_m[:, 0] * s + grad_m[:, 1] * (-c))

        u3 = self.g(m)
        dg = self.g.d(m)
        u = np.column_stack([a, s, -c, u3])

        grad_r1 = np.zeros((n, 4))
        grad_r1[:, 0] = a / delta
        grad_r1[:, 1] = -c / delta
        grad_r1[:, 2] = -s / delta

        jac = np.zeros((n, 4, 4))
        jac[:, 0, :] = (df / self.kappa)[:, None] * grad_r1
        jac[:, 1, :] = (df * c)[:, None] * grad_r1
        jac[:, 2, :] = (df * s)[:, None] * grad_r1
        jac[:, 3, 0] = dg * dm_dt
        jac[:, 3, 1] = dg * grad_m[:, 0]
        jac[:, 3, 2] = dg * grad_m[:, 1]

        r2 = -c * t - x2
        r3 = -s * t + x1
        r = np.column_stack([r1, r2, r3])
        status = np.where(ok & np.isfinite(u).all(axis=1) & np.isfinite(jac).all(axis=(1, 2)),
                          STATUS_OK, STATUS_NO_CONVERGENCE).astype(np.int8)
        status[(status == STATUS_OK) & ~(drift <= _DRIFT_TOL)] = STATUS_NEAR_CATASTROPHE
        return r, u, jac, delta, status

    # -- invariants chart (profile view of the transported solution) ---------

    def invariants_to_point(self, r):
        """(t, x1, x2) of the point whose invariant triple is r; x3 is free."""
        r1 = r[:, 0]
        fv = self.F(r1)
        c, s = np.cos(fv), np.sin(fv)
        a = fv / self.kappa + self.a0
        t = (r1 + r[:, 2] * c - r[:, 1] * s) / a
        x1 = r[:, 2] + s * t
        x2 = -r[:, 1] - c * t
        return t, x1, x2

    def profile_chart(self, r):
        """State u = f(r) and the wave-decomposition matrix Phi (N, 4, 3).

        The solution is x3-independent, so (t, x1, x2) -> (r1, r2, r3) is a
        chart and both u and the coefficients of the exact gradient over the
        wave covectors, du = Phi lam, are functions of the invariant triple;
        Phi plays the profile-Jacobian role in the compatibility checks.
        The last chart is memoised (read-only arrays).
        """
        return self._chart_memo(self._chart, r, steps=self.ode_steps)

    def _chart(self, r):
        t, x1, x2 = self.invariants_to_point(r)
        x = np.column_stack([x1, x2, np.zeros_like(x1)])
        _, u, jac, _, _ = self(t, x)

        # covector block over (t, x1, x2): rows (a, u2, -u1), (u2, 0, -1), (-u1, 1, 0)
        lam_block = np.empty((len(r), 3, 3))
        lam_block[:, 0, 0], lam_block[:, 0, 1], lam_block[:, 0, 2] = u[:, 0], u[:, 2], -u[:, 1]
        lam_block[:, 1, 0], lam_block[:, 1, 1], lam_block[:, 1, 2] = u[:, 2], 0.0, -1.0
        lam_block[:, 2, 0], lam_block[:, 2, 1], lam_block[:, 2, 2] = -u[:, 1], 1.0, 0.0
        phi = np.linalg.solve(np.swapaxes(lam_block, 1, 2), np.swapaxes(jac[:, :, :3], 1, 2))
        return u, np.swapaxes(phi, 1, 2)


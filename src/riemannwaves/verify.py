"""Substitute evaluated solution fields into the fluid system and report residuals.

Two routes: the exact route contracts the family's analytic Jacobi matrix
with the equations; the finite-difference route re-solves the family at
stencil-shifted points and differentiates the sampled fields, giving an
implementation-independent cross-check.  A catastrophe probe locates the
gradient blow-up empirically by bisecting on the implicit-function
determinant along a ray and compares it with the family's closed-form time.

Only the exact route and the probe's schedule read Jacobi matrices; the FD
route's nine solves (centre and stencil) and the probe's bisection solves call
``evaluate_batch(..., jacobian=False)`` and skip their assembly.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .catalog.base import STATUS_INVALID, STATUS_LABELS, FamilySpec
from .solver import STATUS_OK

__all__ = [
    "GridSpec",
    "ResidualReport",
    "CatastropheReport",
    "EmptyReportError",
    "pde_residual",
    "residual_exact",
    "residual_fd",
    "fd_convergence_order",
    "catastrophe_probe",
]

COND_SKIP = 1e-6       # near-singular skip rule on the implicit determinant
DEFAULT_H = 1e-4


class EmptyReportError(RuntimeError):
    """Every grid point was skipped; no residual statistics exist."""


@dataclass(frozen=True)
class GridSpec:
    """Cartesian evaluation grid; each axis is (start, stop, count)."""

    t: tuple
    x1: tuple
    x2: tuple
    x3: tuple

    def __post_init__(self):
        for name in ("t", "x1", "x2", "x3"):
            lo, hi, n = getattr(self, name)
            if not (np.isfinite(lo) and np.isfinite(hi)) or int(n) < 1:
                raise ValueError(f"bad axis {name}: {(lo, hi, n)}")
            if int(n) == 1 and hi != lo:
                raise ValueError(f"axis {name} with count 1 must have start == stop")

    @classmethod
    def from_window(cls, window, counts=(5, 11, 11, 11)):
        return cls(t=(*window["t"], counts[0]), x1=(*window["x1"], counts[1]),
                   x2=(*window["x2"], counts[2]), x3=(*window["x3"], counts[3]))

    def axes(self):
        return tuple(np.linspace(lo, hi, int(n)) for lo, hi, n in
                     (self.t, self.x1, self.x2, self.x3))

    def min_spacing(self):
        out = np.inf
        for lo, hi, n in (self.t, self.x1, self.x2, self.x3):
            if int(n) > 1:
                out = min(out, abs(hi - lo) / (int(n) - 1))
        return out

    def points(self):
        """Flattened odometer ordering: t slowest, x3 fastest."""
        tt, x1, x2, x3 = np.meshgrid(*self.axes(), indexing="ij")
        return tt.ravel(), np.column_stack([x1.ravel(), x2.ravel(), x3.ravel()])

    def as_dict(self):
        return {"t": list(self.t), "x1": list(self.x1), "x2": list(self.x2), "x3": list(self.x3)}


@dataclass
class ResidualReport:
    """Per-equation residual statistics over a set of evaluated points."""

    family: str
    method: str
    eq_max: np.ndarray
    eq_mean: np.ndarray
    scale: float
    n_points: int
    n_skipped: int
    h: float | None = None
    grid: dict | None = None
    runtime_ms: float = 0.0
    skip_reasons: dict = field(default_factory=dict)

    @property
    def max_residual(self) -> float:
        return float(np.max(self.eq_max))

    @property
    def max_normalized(self) -> float:
        return self.max_residual / self.scale

    def passed(self, threshold: float) -> bool:
        return self.max_normalized <= threshold

    def as_dict(self):
        return {
            "family": self.family,
            "method": self.method,
            "h": self.h,
            "grid": self.grid,
            "residuals": {f"eq{i+1}": {"max": float(self.eq_max[i]),
                                       "mean": float(self.eq_mean[i])}
                          for i in range(4)},
            "max_normalized": self.max_normalized,
            "scale": self.scale,
            "points": self.n_points,
            "skipped": self.n_skipped,
            "skip_reasons": self.skip_reasons,
            "runtime_ms": self.runtime_ms,
        }


def pde_residual(state, jac, kappa):
    """Residual 4-vectors of the fluid system given fields and their gradients.

    state (N, 4), jac (N, 4, 4) with jac[:, alpha, i] = d u^alpha / d x^i;
    returns (N, 4): the continuity-like equation for the sound speed and the
    three velocity equations.
    """
    a = state[:, 0]
    u = state[:, 1:]
    grad_a = jac[:, 0, 1:]
    res = np.empty((len(state), 4))
    div_u = jac[:, 1, 1] + jac[:, 2, 2] + jac[:, 3, 3]
    res[:, 0] = jac[:, 0, 0] + np.einsum("ni,ni->n", u, grad_a) + a / kappa * div_u
    for j in range(3):
        res[:, j + 1] = (jac[:, j + 1, 0] + np.einsum("ni,ni->n", u, jac[:, j + 1, 1:])
                         + kappa * a * grad_a[:, j])
    return res


def _skip_counts(status, cond):
    reasons = {}
    for code, label in STATUS_LABELS.items():
        n = int(np.sum(status == code))
        if n and code != STATUS_OK:
            reasons[label] = n
    n_low = int(np.sum((status == STATUS_OK) & (np.abs(cond) < COND_SKIP)))
    if n_low:
        reasons["near_singular_cond"] = n_low
    return reasons


def _keep_mask(status, cond):
    return (status == STATUS_OK) & (np.abs(cond) >= COND_SKIP)


def residual_exact(spec: FamilySpec, points=None, grid: GridSpec | None = None,
                   branch=None) -> ResidualReport:
    """Residuals via the family's exact Jacobi matrices."""
    t0 = time.perf_counter()
    if points is not None:
        tv, xv = points
        tv = np.asarray(tv, dtype=float)
        xv = np.asarray(xv, dtype=float)
    else:
        grid = grid or GridSpec.from_window(spec.default_grid_window())
        tv, xv = grid.points()
    res = spec.evaluate_batch(tv, xv, branch=branch)
    keep = _keep_mask(res.status, res.cond_det)
    if not keep.any():
        raise EmptyReportError(f"{spec.id}: all {len(tv)} points skipped")
    r = pde_residual(res.state[keep], res.jac[keep], spec.gas.kappa)
    scale = 1.0 + float(np.max(np.abs(res.state[keep])))
    return ResidualReport(
        family=spec.id, method="exact",
        eq_max=np.max(np.abs(r), axis=0), eq_mean=np.mean(np.abs(r), axis=0),
        scale=scale, n_points=int(keep.sum()), n_skipped=int((~keep).sum()),
        grid=grid.as_dict() if grid is not None else None,
        runtime_ms=1e3 * (time.perf_counter() - t0),
        skip_reasons=_skip_counts(res.status, res.cond_det),
    )


def _fd_states(spec, tv, xv, h, branch, guess):
    """Fields at +-h along each spacetime axis; returns list of (plus, minus, ok)."""
    out = []
    for axis in range(4):
        shifted = []
        for sgn in (+1.0, -1.0):
            tt = tv + sgn * h if axis == 0 else tv
            xx = xv.copy()
            if axis > 0:
                xx[:, axis - 1] += sgn * h
            r = spec.evaluate_batch(tt, xx, branch=branch, guess=guess, jacobian=False)
            shifted.append(r)
        ok = (shifted[0].status == STATUS_OK) & (shifted[1].status == STATUS_OK)
        out.append((shifted[0].state, shifted[1].state, ok))
    return out


def residual_fd(spec: FamilySpec, grid: GridSpec | None = None, h: float = DEFAULT_H,
                branch=None, points=None) -> ResidualReport:
    """Residuals via central differences of the re-solved fields.

    Grid spacing must stay >= 4h so neighboring stencils never overlap.
    The centre and the eight shifted solves assemble no Jacobi matrices
    (``jacobian=False``): the route differentiates the states alone.  The
    shifted solves run only at the points the centre keeps, starting from
    the centre's invariants; a point the centre skips costs no stencil.
    """
    t0 = time.perf_counter()
    if points is not None:
        tv, xv = points
        tv = np.asarray(tv, dtype=float)
        xv = np.asarray(xv, dtype=float)
    else:
        grid = grid or GridSpec.from_window(spec.default_grid_window())
        if grid.min_spacing() < 4 * h:
            raise ValueError(f"grid spacing {grid.min_spacing():.3g} below 4h = {4*h:.3g}")
        tv, xv = grid.points()

    center = spec.evaluate_batch(tv, xv, branch=branch, jacobian=False)
    keep = _keep_mask(center.status, center.cond_det)
    idx = np.flatnonzero(keep)
    stencil = _fd_states(spec, tv[idx], xv[idx], h, branch, center.r[idx])
    for _, _, ok in stencil:
        keep[idx[~ok]] = False
    if not keep.any():
        raise EmptyReportError(f"{spec.id}: all {len(tv)} points skipped")

    sel = keep[idx]
    jac = np.empty((int(keep.sum()), 4, 4))
    for axis, (plus, minus, _) in enumerate(stencil):
        jac[:, :, axis] = (plus[sel] - minus[sel]) / (2.0 * h)
    r = pde_residual(center.state[keep], jac, spec.gas.kappa)
    scale = 1.0 + float(np.max(np.abs(center.state[keep])))
    return ResidualReport(
        family=spec.id, method="fd",
        eq_max=np.max(np.abs(r), axis=0), eq_mean=np.mean(np.abs(r), axis=0),
        scale=scale, n_points=int(keep.sum()), n_skipped=int((~keep).sum()),
        h=h, grid=grid.as_dict() if grid is not None else None,
        runtime_ms=1e3 * (time.perf_counter() - t0),
        skip_reasons=_skip_counts(center.status, center.cond_det),
    )


def fd_convergence_order(spec: FamilySpec, grid: GridSpec | None = None,
                         h: float = DEFAULT_H, branch=None) -> float:
    """Measured order from residuals at h and h/2 (2 for a central stencil)."""
    r1 = residual_fd(spec, grid=grid, h=h, branch=branch)
    r2 = residual_fd(spec, grid=grid, h=0.5 * h, branch=branch)
    return float(np.log2(r1.max_residual / r2.max_residual))


@dataclass
class CatastropheReport:
    """Predicted vs empirical gradient-catastrophe data along a probe ray."""

    family: str
    applicable: bool
    formula_times: list
    probe_time: float | None = None
    empirical_time: float | None = None
    rel_gap: float | None = None
    ray: np.ndarray | None = None
    schedule: np.ndarray | None = None
    jac_norms: np.ndarray | None = None
    cond_dets: np.ndarray | None = None


def catastrophe_probe(spec: FamilySpec, ray=None, schedule=None, branch=None,
                      bisect_iters: int = 60) -> CatastropheReport:
    """Track the Jacobi norm toward the first positive singular time.

    Bisects on the failure predicate of the family evaluation (near-singular
    implicit determinant, non-convergence, or determinant magnitude below
    the skip floor) to locate the empirical blow-up time, then reports the
    relative gap against the closed-form value.  The schedule's solves
    assemble Jacobi matrices for ``jac_norms``; the bisection's solves read
    only the determinant and skip the assembly (``jacobian=False``).
    """
    times = spec.singular_times()
    positive = sorted(t for t in times if t > 0)
    if not positive:
        return CatastropheReport(family=spec.id, applicable=False, formula_times=times)
    tstar = positive[0]
    ray = spec.probe_ray() if ray is None else np.asarray(ray, dtype=float)

    if schedule is None:
        schedule = tstar * (1.0 - 2.0 ** -np.arange(1, 23))

    x = ray[None, :]
    norms, conds = [], []
    guess = None
    for tv in schedule:
        res = spec.evaluate_batch(np.array([tv]), x, branch=branch, guess=guess,
                                  ignore_validity=True)
        if res.status[0] in (STATUS_OK, STATUS_INVALID) and np.isfinite(res.cond_det[0]):
            norms.append(float(np.max(np.abs(res.jac[0]))))
            conds.append(float(res.cond_det[0]))
            guess = res.r
        else:
            norms.append(np.inf)
            conds.append(0.0)

    def solve(tv, gv):
        res = spec.evaluate_batch(np.array([tv]), x, branch=branch, guess=gv,
                                  ignore_validity=True, jacobian=False)
        code = int(res.status[0])
        solved = code in (STATUS_OK, STATUS_INVALID) and np.isfinite(res.cond_det[0])
        return solved, (float(res.cond_det[0]) if solved else np.nan), res.r

    lo = 0.5 * tstar
    solved0, cond0, glo = solve(lo, None)
    if not solved0 or abs(cond0) < COND_SKIP:
        lo = 0.25 * tstar
        solved0, cond0, glo = solve(lo, None)
    sign0 = np.sign(cond0) if solved0 else 1.0

    def bad(tv, gv):
        solved, cv, rr = solve(tv, gv)
        if not solved or abs(cv) < COND_SKIP or np.sign(cv) != sign0:
            return True, gv
        return False, rr

    hi = 1.5 * tstar
    for _ in range(bisect_iters):
        mid = 0.5 * (lo + hi)
        is_bad, gtrial = bad(mid, glo)
        if is_bad:
            hi = mid
        else:
            lo, glo = mid, gtrial
        if hi - lo < 1e-12 * max(1.0, tstar):
            break
    t_emp = 0.5 * (lo + hi)
    return CatastropheReport(
        family=spec.id, applicable=True, formula_times=times,
        probe_time=tstar, empirical_time=t_emp,
        rel_gap=abs(t_emp - tstar) / abs(tstar),
        ray=ray, schedule=np.asarray(schedule), jac_norms=np.asarray(norms),
        cond_dets=np.asarray(conds),
    )

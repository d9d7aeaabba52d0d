"""Substitute evaluated solution fields into the fluid system and report residuals.

Two routes: the exact route contracts the family's analytic Jacobi matrix
with the equations; the finite-difference route re-solves the family at
stencil-shifted points and differentiates the sampled fields, giving an
implementation-independent cross-check.  A catastrophe probe locates the
gradient blow-up empirically by bisecting on the implicit-function
determinant along a ray and compares it with the family's closed-form time.

The exact route, the probe's schedule and the FD route's centre assemble
Jacobi matrices.  The FD centre's give the tangent dr/dx that starts each of
its eight shifted Newton solves (a first-order predictor); those solves and
the probe's bisection solves call ``evaluate_batch(..., jacobian=False)`` and
skip the assembly.  The FD differences themselves never read the matrices.
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
    "catastrophe_probe",
]

COND_SKIP = 1e-6       # near-singular skip rule on the implicit determinant
DEFAULT_H = 1e-4
PROBE_SCHEDULE_STEPS = 22  # schedule t* (1 - 2^-j), j = 1..22
PROBE_BISECT_ITERS = 60


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


def _sites(spec, points, grid):
    """(t, x, grid): the explicit points, else the grid (default: the family's window)."""
    if points is not None:
        tv, xv = points
        return np.asarray(tv, dtype=float), np.asarray(xv, dtype=float), grid
    grid = grid or GridSpec.from_window(spec.default_grid_window())
    return *grid.points(), grid


def _report(spec, method, res, keep, jac, reasons, grid, t0, h=None) -> ResidualReport:
    """Residual statistics over the points ``keep`` of the evaluation ``res``,
    given the field gradients ``jac`` at those points and the skip counts
    ``reasons`` of the others."""
    if not keep.any():
        raise EmptyReportError(f"{spec.id}: all {len(keep)} points skipped")
    state = res.state[keep]
    r = pde_residual(state, jac, spec.gas.kappa)
    return ResidualReport(
        family=spec.id, method=method,
        eq_max=np.max(np.abs(r), axis=0), eq_mean=np.mean(np.abs(r), axis=0),
        scale=1.0 + float(np.max(np.abs(state))),
        n_points=int(keep.sum()), n_skipped=int((~keep).sum()),
        h=h, grid=grid.as_dict() if grid is not None else None,
        runtime_ms=1e3 * (time.perf_counter() - t0),
        skip_reasons=reasons,
    )


def residual_exact(spec: FamilySpec, points=None, grid: GridSpec | None = None) -> ResidualReport:
    """Residuals via the family's exact Jacobi matrices.

    An ``ok`` point whose Jacobi matrix is not finite (an assembly that
    overflowed) is skipped as ``nonfinite_jac``.
    """
    t0 = time.perf_counter()
    tv, xv, grid = _sites(spec, points, grid)
    res = spec.evaluate_batch(tv, xv)
    keep = _keep_mask(res.status, res.cond_det)
    reasons = _skip_counts(res.status, res.cond_det)
    jac = res.jac[keep]
    if not np.isfinite(jac).all():  # the per-row reduction costs more than the check
        finite = np.isfinite(jac).all(axis=(1, 2))
        reasons["nonfinite_jac"] = int((~finite).sum())
        keep[np.flatnonzero(keep)[~finite]] = False
        jac = jac[finite]
    return _report(spec, "exact", res, keep, jac, reasons, grid, t0)


def residual_fd(spec: FamilySpec, grid: GridSpec | None = None, h: float = DEFAULT_H,
                points=None) -> ResidualReport:
    """Residuals via central differences of the re-solved fields.

    Grid spacing must stay >= 4h so neighboring stencils never overlap.
    The eight shifted solves run only at the points the centre keeps, so a
    point the centre skips costs no stencil.  They start from the centre's
    invariants moved along their tangent, r_c +- h dr/dx (a first-order
    predictor; Allgower & Georg, *Introduction to Numerical Continuation
    Methods*, 1990, ch. 2), which the centre's Jacobi matrices give.  So
    the centre solve is the route's one Jacobi assembly, and the shifted
    solves assemble none.  The predictor only moves Newton's start: each
    shifted state still solves G(r) = 0 to Newton's tolerance, so the
    differences stay independent of the exact Jacobi matrices.  A family
    with its own evaluator (no ``dr_du``) starts each shifted solve from
    r_c and assembles nothing.

    Each difference divides by the step the shifted coordinates take,
    (x + h) - (x - h).  A point whose step rounds to 0 is skipped as
    ``fd_step_lost``; a point whose shifted solve fails, as
    ``stencil_<status>`` of the first failure.
    """
    t0 = time.perf_counter()
    tv, xv, grid = _sites(spec, points, grid)
    if points is None and grid.min_spacing() < 4 * h:
        raise ValueError(f"grid spacing {grid.min_spacing():.3g} below 4h = {4*h:.3g}")

    predict = spec.dr_du is not None
    center = spec.evaluate_batch(tv, xv, jacobian=predict)
    keep = _keep_mask(center.status, center.cond_det)
    reasons = _skip_counts(center.status, center.cond_det)
    idx = np.flatnonzero(keep)
    tv, xv, r_c = tv[idx], xv[idx], center.r[idx]
    X = np.column_stack([tv, xv])
    slope = None
    if predict:
        # the tangent dr/dx = lam(u) + (dr/du) du of r = lam(u) . x (jac's time
        # column carries any explicit time term); a row that is not finite is 0
        u = center.state[idx]
        slope = spec.waves(u) + spec.dr_du(u, X) @ center.jac[idx]
        slope[~np.isfinite(slope).all(axis=(1, 2))] = 0.0
        center.jac = None

    failed = np.full(len(idx), -1)  # the first failed status of each stencil

    def shifted_state(axis, sgn):
        tt = tv + sgn * h if axis == 0 else tv
        xx = xv.copy()
        if axis > 0:
            xx[:, axis - 1] += sgn * h
        guess = r_c if slope is None else r_c + sgn * h * slope[:, :, axis]
        res = spec.evaluate_batch(tt, xx, guess=guess, jacobian=False)
        first = (failed < 0) & (res.status != STATUS_OK)
        failed[first] = res.status[first]
        return res.state

    diffs = [shifted_state(axis, +1.0) - shifted_state(axis, -1.0) for axis in range(4)]
    step = (X + h) - (X - h)  # the steps the shifted coordinates take
    lost = (failed < 0) & (step == 0.0).any(axis=1)
    for code, label in STATUS_LABELS.items():
        n = int(np.sum(failed == code))
        if n:
            reasons[f"stencil_{label}"] = n
    if lost.any():
        reasons["fd_step_lost"] = int(lost.sum())
    sel = (failed < 0) & ~lost
    keep[idx[~sel]] = False
    jac = np.stack(diffs, axis=-1)[sel] / step[sel, None, :]
    return _report(spec, "fd", center, keep, jac, reasons, grid, t0, h=h)


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


def catastrophe_probe(spec: FamilySpec) -> CatastropheReport:
    """Track the Jacobi norm toward the first positive singular time.

    Walks the family's probe ray over the schedule t* (1 - 2^-j), then
    bisects on the failure predicate of the family evaluation (near-singular
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
    ray = spec.probe_ray()
    schedule = tstar * (1.0 - 2.0 ** -np.arange(1, PROBE_SCHEDULE_STEPS + 1))

    x = ray[None, :]
    norms = []
    guess = None
    for tv in schedule:
        res = spec.evaluate_batch(np.array([tv]), x, guess=guess, ignore_validity=True)
        if res.status[0] in (STATUS_OK, STATUS_INVALID) and np.isfinite(res.cond_det[0]):
            norms.append(float(np.max(np.abs(res.jac[0]))))
            guess = res.r
        else:
            norms.append(np.inf)

    def solve(tv, gv):
        res = spec.evaluate_batch(np.array([tv]), x, guess=gv,
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
    for _ in range(PROBE_BISECT_ITERS):
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
        ray=ray, schedule=schedule, jac_norms=np.asarray(norms),
    )

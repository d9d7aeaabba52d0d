"""FamilySpec: the runnable description of one closed-form solution family.

A family bundles
  * the wave covectors lam^A(u) with analytic derivatives, and the
    contraction dr/du = (d lam^A_i/d u) x^i that the solver reads,
  * the profile jet: f(r) and its analytic Jacobian df/dr from one
    evaluation (optionally carrying an explicit time dependence, e.g. the
    time-only sound-speed law),
  * parameter values, structural constraints, singular-time formulas,
  * a default evaluation window and a default catastrophe-probe ray.

Evaluation is batched: ``evaluate_batch(t, xs)`` returns invariants, states,
exact Jacobi matrices (assembled only when the caller asks for them),
implicit-function determinants and per-point status codes; one point is
N = 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..fluid import ConstraintError, GasParams
from ..solver import (
    STATUS_NEAR_CATASTROPHE,
    STATUS_NO_CONVERGENCE,
    STATUS_OK,
    initial_guess,
    jacobi_batch,
    newton_batch,
)

__all__ = [
    "STATUS_INVALID",
    "STATUS_LABELS",
    "EvalResult",
    "FamilySpec",
    "PotentialWave",
    "RotationalWave",
    "CustomWave",
    "stack_waves",
]

STATUS_INVALID = 3

STATUS_LABELS = {
    STATUS_OK: "ok",
    STATUS_NO_CONVERGENCE: "no_convergence",
    STATUS_NEAR_CATASTROPHE: "near_catastrophe",
    STATUS_INVALID: "invalid",
}

SINGULAR_TIME_PAD = 1e-6  # exclude |t - T| < pad * max(1, |T|)


class _TimeRowWave:
    """Covector whose state dependence sits in its time component alone.

    d lam_0/du = row (constant), d lam_j/du = 0 for j = 1..3, so the
    contraction (dr/du)_alpha = (d lam_i/d u^alpha) x^i is t * row.
    """

    def jac(self, u):
        out = np.zeros((u.shape[0], 4, 4))
        out[:, 0] = self.row
        return out


@dataclass(frozen=True)
class PotentialWave(_TimeRowWave):
    """Acoustic covector (eps*a + u.e, -e) for constant unit e; row = (eps, e)."""

    e: np.ndarray
    epsilon: int = 1
    row: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "row", np.concatenate(([float(self.epsilon)], self.e)))

    def lam(self, u):
        n = u.shape[0]
        out = np.empty((n, 4))
        out[:, 0] = self.epsilon * u[:, 0] + u[:, 1:] @ self.e
        out[:, 1:] = -self.e
        return out


@dataclass(frozen=True)
class RotationalWave(_TimeRowWave):
    """Vortex covector (-u.lsp, lsp) for a constant spatial part lsp; row = (0, -lsp)."""

    lsp: np.ndarray
    row: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "row", np.concatenate(([0.0], -self.lsp)))

    def lam(self, u):
        n = u.shape[0]
        out = np.empty((n, 4))
        out[:, 0] = -(u[:, 1:] @ self.lsp)
        out[:, 1:] = self.lsp
        return out


@dataclass(frozen=True)
class CustomWave:
    """Covector with arbitrary state dependence (lam_fn: (N,4)->(N,4)).

    It has no closed-form dr/du: a family holding one solves through its
    own ``custom_eval``.
    """

    lam_fn: Callable
    jac_fn: Callable

    def lam(self, u):
        return self.lam_fn(u)

    def jac(self, u):
        return self.jac_fn(u)


def stack_waves(wave_list):
    """Combine per-wave callables into batched maps over states u (N,4).

    Returns (waves, waves_jac, dr_du):
      waves(u)        -> covectors (N,k,4);
      waves_jac(u)    -> derivatives (N,k,4,4) indexed [A, i, alpha];
      dr_du(u, X)     -> (N,k,4), (d lam^A_i/d u^alpha) x^i at points X (N,4),
                         one broadcast product t * rows, so the (N,k,4,4)
                         stack is never built on the solver path; None when
                         a wave is a CustomWave.
    """

    def waves(u):  # filled column by column: bitwise np.stack, without its overhead
        out = np.empty((len(u), len(wave_list), 4))
        for a, w in enumerate(wave_list):
            out[:, a] = w.lam(u)
        return out

    def waves_jac(u):
        return np.stack([w.jac(u) for w in wave_list], axis=1)

    if not all(isinstance(w, _TimeRowWave) for w in wave_list):
        return waves, waves_jac, None
    rows = np.stack([w.row for w in wave_list])

    def dr_du(u, X):
        return X[:, :1, None] * rows

    return waves, waves_jac, dr_du


@dataclass
class EvalResult:
    """Batched evaluation output; arrays share the leading point dimension.

    ``jac`` is None when the evaluation ran with ``jacobian=False``.
    ``cond_det`` is det(dG/dr) at the final iterates, in closed form
    (``solver.bracket_det``): the status test, the Jacobi assembly,
    ``verify`` and the catastrophe probe read it.  ``bracket`` is that dG/dr
    itself, NaN on rows no Newton solve reached and None from a custom
    evaluator; ``sample`` prints LAPACK's determinant of it, the value its
    pinned bytes carry.
    """

    r: np.ndarray          # (N, n_waves)
    state: np.ndarray      # (N, 4)
    jac: np.ndarray | None  # (N, 4, 4), or None when not assembled
    cond_det: np.ndarray   # (N,)
    status: np.ndarray     # (N,) int8
    bracket: np.ndarray | None  # (N, k, k) dG/dr, or None from a custom evaluator


def _finite_points(t, x):  # (N,) mask: t and every x coordinate finite
    ok = np.isfinite(t)
    finite_x = np.isfinite(x)
    if not finite_x.all():  # the per-row reduction costs more than a solve step
        ok &= finite_x.all(axis=-1)
    return ok


@dataclass
class FamilySpec:
    """A validated, runnable solution family.

    The spec derives ``n_waves`` from its ``wave_list`` (1 to 3 waves, so
    every bracket quantity has a closed form) and builds ``waves``,
    ``waves_jac`` and ``dr_du`` from it once, with ``stack_waves``: Newton
    reads ``dr_du`` only (its final bracket feeds the Jacobi assembly), the
    trace conditions read the full ``waves_jac`` slices.  A family with a CustomWave has no
    ``dr_du`` and must bring a ``custom_eval``.

    ``profile`` is the family's one profile callable, a jet: the state and
    df/dr from one evaluation, which is what Newton and ``conditions`` read.
    ``R3_E1S2S3_v2``'s jet is its invariant chart: its second part is the
    wave-decomposition matrix Phi (du = Phi lam), not df/dr.  ``profile_jac``
    is the jet's second part, for callers that want it alone.
    """

    id: str
    rank: int
    description: str
    params: dict
    gas: GasParams
    profile: Callable            # the jet: (r (N,k), t (N,)) -> (u (N,4), df/dr (N,4,k))
    wave_list: list              # one covector per wave (PotentialWave, ...)
    singular_time_values: tuple = ()
    # t -> explicit d/dt of the state (N, 4); the trace conditions take t as an invariant
    # r0 with covector e0 = (1, 0, 0, 0), so RK_TIME_A's higher order holds identically
    extra_time_deriv: Callable | None = None
    guess_fn: Callable | None = None          # (t, x) -> r0
    closed_form: Callable | None = None       # (t, x) -> r; the state is profile(r, t)[0]
    custom_eval: Callable | None = None       # (t, x, guess): replaces the Newton path
    validity_fn: Callable | None = None       # (t, x) -> bool mask (pre-solve)
    probe_x: np.ndarray | None = None
    default_window: dict = field(default_factory=dict)
    n_waves: int = field(init=False)          # len(wave_list), 1 to 3
    waves: Callable = field(init=False)       # (N,4) -> (N,k,4)
    waves_jac: Callable = field(init=False)   # (N,4) -> (N,k,4,4), for the trace conditions
    dr_du: Callable | None = field(init=False)  # (u (N,4), X (N,4)) -> (N,k,4), for the solver
    profile_jac: Callable = field(init=False)  # (r, t) -> df/dr (N,4,k): the jet's second part

    def __post_init__(self):
        self.n_waves = len(self.wave_list)
        if not 1 <= self.n_waves <= 3:
            raise ConstraintError(f"{self.id}: a family has 1 to 3 waves, got {self.n_waves}")
        self.waves, self.waves_jac, self.dr_du = stack_waves(self.wave_list)
        jet = self.profile  # captured, not self: a spec holds no reference cycle
        self.profile_jac = lambda r, t: jet(r, t)[1]
        if self.dr_du is None and self.custom_eval is None:
            raise ConstraintError(f"{self.id}: a custom covector needs a custom_eval")

    # -- informational -----------------------------------------------------

    def singular_times(self):
        """Closed-form gradient-catastrophe / singularity times (may be empty)."""
        return list(self.singular_time_values)

    # -- validity ----------------------------------------------------------

    def validity_mask(self, t, x):
        """Validity of points before solving: finite coordinates, then the
        geometric checks (singular-time pad, extras).  A point with a
        non-finite t or x is invalid, and ``validity_fn`` never sees it."""
        t = np.asarray(t, dtype=float)
        x = np.asarray(x, dtype=float)
        finite = _finite_points(t, x)
        ok = finite.copy()
        for ts in self.singular_time_values:
            ok &= np.abs(t - ts) >= SINGULAR_TIME_PAD * max(1.0, abs(ts))
        if self.validity_fn is not None:
            if finite.all():
                ok &= self.validity_fn(t, x)
            else:
                ok[finite] &= self.validity_fn(t[finite], x[finite])
        return ok

    # -- evaluation --------------------------------------------------------

    def evaluate_batch(self, t, x, guess=None,
                       ignore_validity=False, jacobian=True) -> EvalResult:
        """Solve the family at points (t_i, x_i); never raises per-point.

        t: (N,), x: (N,3).  Points outside validity come back with status
        "invalid", among them every point with a non-finite t or x, which
        no family callable sees; Newton failures and near-catastrophe points
        keep their diagnostic status.  A solved point whose sound speed is
        nonpositive is downgraded to "invalid".  ignore_validity skips the
        geometric pre-check but not the finiteness one (used by the
        catastrophe probe, which deliberately walks into the excluded band
        around a singular time).

        ``guess`` (N, k) starts Newton, or goes to a custom evaluator.

        jacobian=False skips the Jacobi-matrix assembly (``jacobi_batch``;
        a custom evaluator's matrices are dropped) and returns ``jac=None``;
        ``r``, ``state``, ``cond_det``, ``status`` and ``bracket`` are the
        same either way.
        """
        t = np.atleast_1d(np.asarray(t, dtype=float))
        x = np.asarray(x, dtype=float).reshape(len(t), 3)
        n, k = len(t), self.n_waves
        if guess is not None:
            guess = np.asarray(guess, dtype=float).reshape(n, k)
        valid = _finite_points(t, x) if ignore_validity else self.validity_mask(t, x)
        if n and valid.all():  # the common case: the solve's arrays are the result
            return self._solve(t, x, guess, jacobian)

        res = EvalResult(
            r=np.full((n, k), np.nan),
            state=np.full((n, 4), np.nan),
            jac=np.full((n, 4, 4), np.nan) if jacobian else None,
            cond_det=np.full(n, np.nan),
            status=np.full(n, STATUS_INVALID, dtype=np.int8),
            bracket=np.full((n, k, k), np.nan) if self.custom_eval is None else None,
        )
        if valid.any():
            idx = np.flatnonzero(valid)
            part = self._solve(t[idx], x[idx], None if guess is None else guess[idx], jacobian)
            for name in ("r", "state", "jac", "cond_det", "status", "bracket"):
                if getattr(res, name) is not None:
                    getattr(res, name)[idx] = getattr(part, name)
        return res

    def _solve(self, t, x, guess, jacobian):
        """evaluate_batch on valid points only."""
        X = np.column_stack([t, x])
        jac = jmat = None
        if self.custom_eval is not None:
            r, u, jac, cond, status = self.custom_eval(t, x, guess)
            jac = jac if jacobian else None
        else:
            if guess is not None:
                r0 = guess
            elif self.guess_fn is not None:
                r0 = self.guess_fn(t, x)
            else:
                r0 = initial_guess(self.profile, self.waves, X, self.n_waves)
            r, u, status, cond, fr, jmat = newton_batch(self.profile, self.waves, self.dr_du,
                                                        X, r0)
            if jacobian:
                jac = jacobi_batch(self.waves, u, fr, jmat, X, cond, self.extra_time_deriv)

        status = status.copy()
        status[(status == STATUS_OK) & ~(u[:, 0] > 0.0)] = STATUS_INVALID
        return EvalResult(r=r, state=u, jac=jac, cond_det=cond, status=status, bracket=jmat)

    # -- helpers for the verifier ------------------------------------------

    def default_grid_window(self):
        win = {"t": (0.0, 0.5), "x1": (-1.0, 1.0), "x2": (-1.0, 1.0), "x3": (-1.0, 1.0)}
        win.update(self.default_window)
        return win

    def probe_ray(self):
        if self.probe_x is not None:
            return np.asarray(self.probe_x, dtype=float)
        win = self.default_grid_window()
        return np.array([0.5 * (win[a][0] + win[a][1]) for a in ("x1", "x2", "x3")])

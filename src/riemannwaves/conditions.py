"""Compatibility checkers: the trace conditions of the implicit ansatz.

Substituting the implicit ansatz into the fluid system and expanding around
the chart origin yields algebraic conditions on the profile Jacobian df/dr
and the wave covectors lam^A(u):

    initial:  tr(A^mu (df/dr) lam) = 0
    higher:   tr(A^mu (df/dr) eta_(a1 (df/dr) ... eta_as) (df/dr) lam) = 0

with eta_a the state-derivative slice of the covector component along the
a-th non-pivot coordinate, symmetrized over the a-indices, s = 1..k-1.  The
higher conditions are stated in the basis where the k x k pivot block of
lam is the identity; the checker normalizes the supplied data to that basis
once per evaluation state (exact product-rule transport of the derivative
slices), which reduces to the raw formula when the pivot block is constant,
and returns the residuals of every order s from that one normalization.
The pivot block is the candidate with the largest |det|, all candidates'
determinants taken in one stacked closed-form call.

All traces contract against the four fluid equations.  Writing
L_A = lam^A_0 I4 + lam^A_j A^j, a chain matrix M (4 x k) contributes the
residual vector sum_A L_A M[:, A]; that form is used throughout (it is
algebraically identical to assembling the per-equation coefficient
matrices).

The rank-2 bilinear reduction eliminates the profile: with Gamma the
wave-kernel frame and a single shared normalization coordinate, wave-pair
admissibility reads tr(A^mu Gamma (eta_a Gamma - I2 tr(eta_a Gamma)) lam)
over the remaining p-1 coordinate slices.

Explicit time is one more invariant r^0 = t, with the constant covector
e0 = (1, 0, 0, 0) and the profile column df/dt (``cli.config_from_family``).
For ``RK_TIME_A`` the pivot block is then (t, x1, x2) and the one remaining
slice, along x3, is zero, since no covector has an x3 component: its
higher order is identically satisfied.

A sample whose covectors or state are non-finite (or whose sound speed is
not positive), or whose covectors leave no invertible pivot block (or, for
a pair, no shared normalization coordinate), raises
``DegenerateSampleError``; the ``conditions`` command turns it into a
failing row with its reason.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import combinations, combinations_with_replacement, permutations
from typing import Callable

import numpy as np

from . import linalg
from .fluid import GasParams, coefficient_matrices, wave_kernel
from .solver import bracket_det

__all__ = [
    "AnsatzConfig",
    "DegenerateSampleError",
    "trace_condition_initial",
    "trace_condition_higher",
    "bilinear_rank2_condition",
]


class DegenerateSampleError(ValueError):
    """A sample's state or wave covectors are non-finite, or admit no normalization."""


@dataclass(frozen=True)
class AnsatzConfig:
    """Wave covectors (with derivatives) for one ansatz.

    waves / waves_jac follow the batched catalog conventions, and the rows
    of ``waves(u)`` are the k waves.  Each trace condition takes the (4, k)
    profile Jacobian as ``fr``, so a caller evaluates the profile once.
    """

    waves: Callable
    waves_jac: Callable
    gas: GasParams = GasParams()


def _state_data(cfg: AnsatzConfig, u):
    """The sample's state (4,), finite with a > 0, and its finite covectors (k, 4)."""
    u = np.asarray(u, dtype=float).reshape(4)
    lam = cfg.waves(u[None])[0]
    if not np.isfinite(lam).all():
        raise DegenerateSampleError("wave covectors are not finite")
    if not (np.isfinite(u).all() and u[0] > 0.0):
        raise DegenerateSampleError("state is not finite with a positive sound speed")
    return u, lam


def _dispersion_stack(u, lam, gas):
    """Stack of L_A = lam0 I4 + lam_j A^j, one per covector row of lam (k, 4)."""
    a1, a2, a3 = coefficient_matrices(u, gas)
    eye = np.eye(4)
    return np.stack([lam[A, 0] * eye + lam[A, 1] * a1 + lam[A, 2] * a2 + lam[A, 3] * a3
                     for A in range(lam.shape[0])])


def _equation_residual(lmats, m):
    """Residual 4-vector of tr(A^mu M lam): sum_A L_A M[:, A]."""
    return np.einsum("aij,ja->i", lmats, m)


def _pivot_columns(lam):
    """Deterministic pivot choice: best |det| block, spatial columns preferred."""
    k = len(lam)
    spatial = list(combinations(range(1, 4), k))
    with_time = [c for c in combinations(range(4), k) if 0 in c]
    dets = np.abs(bracket_det(np.stack([lam[:, c] for c in spatial + with_time])))
    for group, group_dets in ((spatial, dets[:len(spatial)]), (with_time, dets[len(spatial):])):
        best, best_det = None, -1.0
        for cols, d in zip(group, group_dets):
            if d > best_det * (1.0 + 1e-12):
                best, best_det = cols, d
        if best_det > 1e-10 * (1.0 + np.max(np.abs(lam))) ** k:
            return best
    raise DegenerateSampleError("wave covectors have no invertible pivot block")


def _normalize(lam, eta, fr):
    """Transform the ansatz data to the basis with identity pivot block.

    The covectors become lam~ = inv(Lambda) lam and the non-pivot derivative
    slices pick up the pivot block's own state dependence,

        eta~_a = inv (d lam_a / du) - inv (d Lambda / du) inv lam_a.

    The profile Jacobian transports with the block frozen at the evaluation
    state (f~ = f_r Lambda), matching the construction's chart where the
    pivot components of the invariants are the pivot coordinates themselves.
    """
    pivots = _pivot_columns(lam)
    block = lam[:, list(pivots)]
    inv = linalg.inverse(block)
    lam_t = inv @ lam
    fr_t = fr @ block
    slices = []
    for a in (i for i in range(4) if i not in pivots):
        s = np.empty(lam.shape)
        for alpha in range(4):
            dblock = eta[:, list(pivots), alpha]
            s[:, alpha] = (-inv @ dblock @ inv @ lam[:, a] + inv @ eta[:, a, alpha])
        slices.append(s)
    return lam_t, slices, fr_t


def trace_condition_initial(cfg: AnsatzConfig, state, fr):
    """Residuals of tr(A^mu (df/dr) lam), one per fluid equation.

    ``fr`` is the (4, k) profile Jacobian at the sample.
    """
    u, lam = _state_data(cfg, state)
    return _equation_residual(_dispersion_stack(u, lam, cfg.gas), fr)


def trace_condition_higher(cfg: AnsatzConfig, state, fr):
    """Symmetrized higher trace residuals of every order s = 1..k-1, with
    ``fr`` the (4, k) profile Jacobian at the sample.

    One 4-vector row per symmetrized multi-index of non-pivot coordinate
    slices, order by order, all from one normalization at the state.  Empty
    for k = 1, where the conditions hold identically.
    """
    u, lam = _state_data(cfg, state)
    k = len(lam)
    if k == 1:
        return np.zeros((0, 4))
    lam_t, slices, fr_t = _normalize(lam, cfg.waves_jac(u[None])[0], fr)
    lmats = _dispersion_stack(u, lam_t, cfg.gas)

    residuals = []
    for s in range(1, k):
        for combo in combinations_with_replacement(range(len(slices)), s):
            perms = set(permutations(combo))
            chains = [reduce(lambda m, a: m @ slices[a] @ fr_t, perm, fr_t) for perm in perms]
            residuals.append(_equation_residual(lmats, sum(chains) / len(perms)))
    return np.asarray(residuals)


def bilinear_rank2_condition(cfg: AnsatzConfig, state):
    """Profile-independent admissibility residuals for a rank-2 wave pair.

    Normalizes both covectors on one shared coordinate, inserts the
    wave-kernel frame Gamma for the eliminated profile factor, and returns
    a (4, 3) array: four equations x three remaining coordinate slices.

    The reduction is sharp for acoustic pairs (one-dimensional kernels pin
    Gamma up to scale) and for constant covectors; when a vortex root is
    involved its two-dimensional kernel makes the eliminated factor
    representative-dependent, so a nonzero report there is inconclusive and
    the trace conditions remain the authoritative admissibility test.
    """
    u, lam = _state_data(cfg, state)
    if len(lam) != 2:
        raise ValueError("bilinear reduction applies to wave pairs (k = 2)")
    eta = cfg.waves_jac(u[None])[0]

    # kernel frame: one representative kernel vector per wave (for the
    # two-dimensional vortex kernels, project a fixed reference direction)
    gamma = np.empty((4, 2))
    refs = (np.ones(4), np.array([1.0, -2.0, 3.0, -4.0]))
    for A in range(2):
        basis = wave_kernel(u, lam[A], cfg.gas)
        vec = basis[:, 0]
        if basis.shape[1] > 1:
            for ref in refs:
                cand = basis @ (basis.T @ ref)
                if np.linalg.norm(cand) > 1e-6:
                    vec = cand
                    break
        gamma[:, A] = vec / np.linalg.norm(vec)

    # shared normalization coordinate: maximize the smaller |component|
    scores = [min(abs(lam[0, i]), abs(lam[1, i])) for i in range(4)]
    i0 = int(np.argmax(scores))
    if scores[i0] < 1e-12:
        raise DegenerateSampleError("wave pair admits no shared normalization coordinate")

    lam_h = lam / lam[:, i0][:, None]
    eta_h = np.empty_like(eta)
    for A in range(2):
        c = lam[A, i0]
        eta_h[A] = (eta[A] * c - np.outer(lam[A], eta[A, i0])) / c**2
    lmats = _dispersion_stack(u, lam_h, cfg.gas)

    out = np.empty((4, 3))
    eye2 = np.eye(2)
    for col, a in enumerate(i for i in range(4) if i != i0):
        ka = eta_h[:, a, :] @ gamma          # (2, 2)
        wa = gamma @ (ka - eye2 * np.trace(ka))
        out[:, col] = _equation_residual(lmats, wa)
    return out

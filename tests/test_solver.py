"""Implicit-solution solver: Newton path, Jacobi matrices, condition determinant."""

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

from riemannwaves import linalg, solver
from riemannwaves.catalog import REGISTRY_IDS, make_family
from riemannwaves.catalog import base
from riemannwaves.catalog.base import PotentialWave, RotationalWave, stack_waves
from riemannwaves.solver import (
    STATUS_NEAR_CATASTROPHE,
    STATUS_NO_CONVERGENCE,
    STATUS_OK,
    bracket_det,
    damped_newton,
    initial_guess,
    jacobi_batch,
    newton_batch,
)
from riemannwaves.verify import COND_SKIP, GridSpec, catastrophe_probe
from test_output_digests import DIGEST_PLATFORM, _platform

KAPPA = 3.0
NEWTON_PATH_IDS = [fid for fid in REGISTRY_IDS if make_family(fid).custom_eval is None]


def problem(k, profile, profile_jac, waves, waves_jac):
    """A hand-built problem; ``jet`` pairs the two profile callables."""
    return SimpleNamespace(k=k, profile=profile, profile_jac=profile_jac,
                           jet=lambda r, t: (profile(r, t), profile_jac(r, t)),
                           waves=waves, waves_jac=waves_jac)


def solve_one(prob, x, expect=STATUS_OK):
    """Newton and the Jacobi assembly at N = 1, dr/du by the reference contraction of waves_jac."""
    X = np.asarray(x, dtype=float).reshape(1, 4)

    def dr_du(u, pts):
        return np.einsum("nkia,ni->nka", prob.waves_jac(u), pts)

    r0 = initial_guess(prob.jet, prob.waves, X, prob.k)
    r, u, status, cond, fr, jmat = newton_batch(prob.jet, prob.waves, dr_du, X, r0)
    assert status[0] == expect
    jac = jacobi_batch(prob.waves, u, fr, jmat, X, cond)
    resid = float(np.max(np.abs(r - np.einsum("nki,ni->nk", prob.waves(u), X))))
    return SimpleNamespace(r=r[0], state=u[0], jac=jac[0], cond_det=float(cond[0]),
                           x=X[0], residual=resid)


def constant_profile_problem(u0=(1.0, 0.2, -0.1, 0.4)):
    """f == u0 with one rotational wave: r solves a linear system, du = 0."""
    u0 = np.asarray(u0, dtype=float)
    waves, waves_jac, _ = stack_waves([RotationalWave(lsp=np.array([1.0, 0.0, 0.0]))])

    def profile(r, t):
        return np.broadcast_to(u0, (len(r), 4)).copy()

    def profile_jac(r, t):
        return np.zeros((len(r), 4, 1))

    return problem(1, profile, profile_jac, waves, waves_jac)


def e1e2_problem(slopes=(-1.0, -1.0)):
    """Two angle-locked acoustic waves with linear amplitudes a_i = slope_i * r_i."""
    e1 = np.array([1.0, 0.0, 0.0])
    e2 = np.array([-1.0 / 3.0, np.sqrt(8.0) / 3.0, 0.0])
    s1, s2 = slopes
    waves, waves_jac, _ = stack_waves([PotentialWave(e=e1), PotentialWave(e=e2)])

    def profile(r, t):
        a1, a2 = s1 * r[:, 0], s2 * r[:, 1]
        return np.column_stack([a1 + a2, KAPPA * (a1[:, None] * e1 + a2[:, None] * e2)])

    def profile_jac(r, t):
        out = np.empty((len(r), 4, 2))
        out[:, 0, 0], out[:, 0, 1] = s1, s2
        out[:, 1:, 0] = KAPPA * s1 * e1
        out[:, 1:, 1] = KAPPA * s2 * e2
        return out

    return problem(2, profile, profile_jac, waves, waves_jac), (e1, e2)


def test_time_zero_removes_state_dependence():
    # at t = 0 the invariants are -spatial_part . x exactly; one Newton step
    prob, (e1, e2) = e1e2_problem()
    pt = solve_one(prob, [0.0, 0.7, -0.4, 0.2])
    xs = pt.x[1:]
    assert np.allclose(pt.r, [-(xs @ e1), -(xs @ e2)], atol=1e-14)
    assert pt.residual <= 1e-12


def test_linear_superposition_closed_form_oracle():
    # slopes -1, kappa = 3: a = (e1.x)/(1 + 4t) + (e2.x)/(1 + 4t) at t = 0.1
    t, xs = 0.1, np.array([1.0, 0.0, 0.0])
    prob, (e1, e2) = e1e2_problem()
    pt = solve_one(prob, np.concatenate([[t], xs]))
    expected_a = (xs @ e1) / 1.4 + (xs @ e2) / 1.4
    assert abs(pt.state[0] - expected_a) <= 1e-12
    expected_u = KAPPA * ((xs @ e1) / 1.4 * e1 + (xs @ e2) / 1.4 * e2)
    assert np.max(np.abs(pt.state[1:] - expected_u)) <= 1e-12
    assert pt.residual <= 1e-12


def test_constant_profile_linear_solve_and_zero_jacobian():
    prob = constant_profile_problem()
    pt = solve_one(prob, [0.4, 0.3, -0.2, 0.9])
    # r = lam(u0) . x directly
    lam = prob.waves(pt.state[None, :])[0, 0]
    assert abs(pt.r[0] - lam @ pt.x) <= 1e-14
    assert np.max(np.abs(pt.jac)) <= 1e-14
    assert np.linalg.matrix_rank(pt.jac, rtol=1e-8) == 0
    assert abs(pt.cond_det - 1.0) <= 1e-14


def test_constant_covectors_give_profile_times_lambda():
    # truly constant covectors: dlam/du = 0, so du = (df/dr) lam exactly
    from riemannwaves.catalog.base import CustomWave
    lam_const = np.array([0.8, 1.0, -0.5, 0.3])

    wave = CustomWave(lam_fn=lambda u: np.broadcast_to(lam_const, (len(u), 4)).copy(),
                      jac_fn=lambda u: np.zeros((len(u), 4, 4)))
    waves, waves_jac, _ = stack_waves([wave])

    def profile(r, t):
        s = np.tanh(r[:, 0])
        return np.column_stack([1.0 + 0.2 * s, 0.5 * s, -0.3 * s, 0.1 * s])

    def profile_jac(r, t):
        d = 1.0 / np.cosh(r[:, 0]) ** 2
        return np.stack([0.2 * d, 0.5 * d, -0.3 * d, 0.1 * d], axis=1)[:, :, None]

    prob = problem(1, profile, profile_jac, waves, waves_jac)
    pt = solve_one(prob, [0.7, 0.3, -0.5, 0.8])
    fr = profile_jac(pt.r[None, :], np.array([0.7]))[0]
    lam = waves(pt.state[None, :])[0]
    assert np.max(np.abs(pt.jac - fr @ lam)) <= 1e-13
    assert abs(pt.cond_det - 1.0) <= 1e-14


def test_jacobi_matrix_against_finite_differences():
    t, xs = 0.12, np.array([0.8, -0.3, 0.1])
    prob, _ = e1e2_problem()
    x = np.concatenate([[t], xs])
    pt = solve_one(prob, x)
    h = 1e-6
    fd = np.empty((4, 4))
    for axis in range(4):
        xp = x.copy(); xm = x.copy()
        xp[axis] += h; xm[axis] -= h
        fd[:, axis] = (solve_one(prob, xp).state - solve_one(prob, xm).state) / (2 * h)
    scale = 1.0 + np.max(np.abs(fd))
    assert np.max(np.abs(pt.jac - fd)) <= 1e-5 * scale


def test_jacobi_forms_agree():
    # (I4 - fr ru)^(-1) fr lam  vs  fr (Ik - ru fr)^(-1) lam
    t, xs = 0.2, np.array([-0.4, 0.6, 0.3])
    prob, _ = e1e2_problem()
    pt = solve_one(prob, np.concatenate([[t], xs]))
    r, tv = pt.r[None, :], np.array([t])
    u = prob.profile(r, tv)
    fr = prob.profile_jac(r, tv)[0]
    ru = np.einsum("kia,i->ka", prob.waves_jac(u)[0], pt.x)
    lam = prob.waves(u)[0]
    jac_q = linalg.inverse(np.eye(4) - fr @ ru) @ (fr @ lam)  # q-form
    k_form = fr @ np.linalg.inv(np.eye(2) - ru @ fr) @ lam
    assert np.max(np.abs(jac_q - k_form)) <= 1e-10 * (1 + np.max(np.abs(jac_q)))
    assert np.max(np.abs(pt.jac - jac_q)) <= 1e-10 * (1 + np.max(np.abs(jac_q)))


def test_implicit_condition_examples():
    # t = 0 gives exactly 1; the determinant shrinks approaching the blow-up time
    prob, _ = e1e2_problem(slopes=(0.25, 0.25))
    assert abs(solve_one(prob, [0.0, 0.5, 0.2, -0.1]).cond_det - 1.0) <= 1e-14
    # with positive slopes A = 0.25 the catastrophe sits at t = 1: near it the
    # determinant falls below 1e-3
    pt = solve_one(prob, [0.9998, -0.5, -0.2, 0.0])
    assert abs(pt.cond_det) < 1e-3


def test_near_catastrophe_error():
    prob, _ = e1e2_problem(slopes=(0.25, 0.25))
    solve_one(prob, [1.0 - 1e-12, -0.5, -0.2, 0.0], expect=STATUS_NEAR_CATASTROPHE)


def test_solution_rank_examples():
    spec1 = make_family("R1_E")
    res = spec1.evaluate_batch(np.array([0.3]), np.array([[-0.7, 0.2, 0.1]]))
    assert res.status[0] == 0
    assert np.linalg.matrix_rank(res.jac[0], rtol=1e-8) == 1
    spec2 = make_family("R2_S1S2_MA", branch="plus")
    res2 = spec2.evaluate_batch(np.array([1.0]), np.array([[1.0, 0.2, 0.0]]))
    assert np.linalg.matrix_rank(res2.jac[0], rtol=1e-8) == 2


def test_newton_residual_tolerance_everywhere():
    rng = np.random.default_rng(12)
    spec = make_family("R2_E1S2")
    t = rng.uniform(0.0, 0.4, 50)
    xs = rng.uniform(-1, 1, (50, 3))
    res = spec.evaluate_batch(t, xs)
    ok = res.status == 0
    lam = spec.waves(res.state[ok])
    x4 = np.column_stack([t[ok], xs[ok]])
    resid = res.r[ok] - np.einsum("nki,ni->nk", lam, x4)
    assert np.max(np.abs(resid)) <= 1e-12


def test_jacobian_matches_fd_all_families():
    # exact Jacobi matrices vs central differences of the re-solved fields,
    # 100 seeded points per family inside the default window
    from riemannwaves.catalog import REGISTRY_IDS
    rng = np.random.default_rng(77)
    h = 1e-6
    for fid in REGISTRY_IDS:
        spec = make_family(fid)
        win = spec.default_grid_window()
        lo, hi = win["t"]
        t = rng.uniform(lo + 0.05 * (hi - lo), lo + 0.9 * (hi - lo), 100)
        x = np.column_stack([rng.uniform(*win[f"x{i}"], 100) for i in (1, 2, 3)])
        res = spec.evaluate_batch(t, x)
        keep = res.status == 0
        assert keep.sum() >= 40, fid
        fd = np.empty((int(keep.sum()), 4, 4))
        for axis in range(4):
            tp = t[keep] + (h if axis == 0 else 0.0)
            tm = t[keep] - (h if axis == 0 else 0.0)
            xp, xm = x[keep].copy(), x[keep].copy()
            if axis > 0:
                xp[:, axis - 1] += h
                xm[:, axis - 1] -= h
            rp = spec.evaluate_batch(tp, xp, guess=res.r[keep])
            rm = spec.evaluate_batch(tm, xm, guess=res.r[keep])
            fd[:, :, axis] = (rp.state - rm.state) / (2 * h)
        good = np.isfinite(fd).all(axis=(1, 2))
        scale = 1.0 + np.max(np.abs(fd[good]))
        assert np.max(np.abs(res.jac[keep][good] - fd[good])) <= 1e-5 * scale, fid


def _kink(r, level):
    """r (1 + r^2)^(-1/2) - level: a root for |level| < 1, none for |level| >= 1;
    from |r0| >~ 1 the full Newton step overshoots, so damping engages.  Only
    correctly rounded arithmetic, so batch and scalar evaluations agree bitwise."""
    return r / np.sqrt(1.0 + r * r) - level


def _kink_slope(r, level):
    q = 1.0 + r * r
    return 1.0 / (q * np.sqrt(q))


def _floor(r, level):
    """1.3 r - (level + r (1 + r^2)^(-1/2)): for level ~ 1.3e6 the root sits
    near r = 1e6, where one ulp of r (1.2e-10) is far above the 1e-13
    tolerance, so Newton may settle into an exact 2-cycle instead of a root.
    Only correctly rounded arithmetic, as in ``_kink``."""
    return 1.3 * r - (level + r / np.sqrt(1.0 + r * r))


def _floor_slope(r, level):
    q = 1.0 + r * r
    return 1.3 - 1.0 / (q * np.sqrt(q))


def _halving_newton(r, level, g=_kink, dg=_kink_slope, tol=1e-13, iters=60, stop_below=None):
    """Reference damped Newton for one point, every iteration run: a slope
    below 1e-14 counts as 1e-14 (with its sign), and one below ``stop_below``
    stops the point as near_catastrophe; halve a step that makes |g| grow, up
    to 20 times, and take the last halving if all do.  A step below half an
    ulp of r leaves r as it is, for every iteration left.  Returns r and the
    status."""
    val = g(r, level)
    for _ in range(iters):
        if abs(val) <= tol:
            break
        slope = dg(r, level)
        if stop_below is not None and abs(slope) < stop_below:
            return r, STATUS_NEAR_CATASTROPHE
        step = val / (slope if abs(slope) >= 1e-14 else np.copysign(1e-14, slope))
        r_new = r - step
        val_new = g(r_new, level)
        for _ in range(20):
            if not abs(val_new) > abs(val):
                break
            step *= 0.5
            r_new = r - step
            val_new = g(r_new, level)
        r, val = r_new, val_new
    return r, STATUS_OK if abs(val) <= tol else STATUS_NO_CONVERGENCE


def _kink_newton(g, r0, level, dg=_kink_slope, stop_below=None):
    """damped_newton on g(r, level) = 0 with the reference's tolerance, iteration
    cap and slope rules; returns the roots and the statuses."""

    def residual(r, level):
        return g(r, level), ()

    def newton_step(r, val, _, level):
        slope = dg(r, level)
        stop = None if stop_below is None else np.abs(slope) < stop_below
        return val / np.where(np.abs(slope) < 1e-14, np.copysign(1e-14, slope), slope), stop

    r, aux, status = damped_newton(residual, newton_step, r0, level, tol=1e-13, max_iter=60)
    assert aux == ()
    return r, status


def test_damped_newton_matches_point_by_point_halving():
    # each point's root and flag are its own: the same as solved alone with
    # sequential halvings, whatever else shares the batch
    rng = np.random.default_rng(9)
    r0 = rng.uniform(-6.0, 6.0, 300)
    level = rng.uniform(-0.9, 0.9, 300)
    level[::50] = 1.5                        # six points without a root
    r, status = _kink_newton(_kink, r0, level)
    want = [_halving_newton(a, b) for a, b in zip(r0, level)]
    assert np.array_equal(r, [w[0] for w in want])
    assert np.array_equal(status, [w[1] for w in want])
    assert np.count_nonzero(status == STATUS_OK) == 294
    # at the rounding floor some points end in an exact 2-cycle above the
    # tolerance.  The kernel stops early, yet returns the member that all 60
    # iterations reach: the cycling points alone, from their starts, stop
    # with an odd number of iterations left, and from their last iterates
    # with an even number
    def floor_ok(r0, level):
        r, status = _kink_newton(_floor, r0, level, _floor_slope)
        want = [_halving_newton(a, b, _floor, _floor_slope) for a, b in zip(r0, level)]
        assert np.array_equal(r, [w[0] for w in want])
        assert np.array_equal(status, [w[1] for w in want])
        return r, status == STATUS_OK

    r0 = rng.uniform(0.5e6, 1.5e6, 200)
    level = rng.uniform(1.2e6, 1.4e6, 200)
    _, ok = floor_ok(r0, level)
    assert ok.sum() == 177
    r0, level = r0[~ok], level[~ok]
    r, ok = floor_ok(r0, level)
    assert not ok.any()
    _, ok = floor_ok(r, level)
    assert not ok.any()


def _counted(evaluated, fn=_kink):
    def g(r, level):
        evaluated.append(np.size(r))
        return fn(r, level)
    return g


def test_damped_newton_cost_of_a_rootless_point_is_its_own():
    evaluated = []
    g = _counted(evaluated)
    r0 = np.linspace(-3.0, 3.0, 1000)
    level = np.linspace(-0.8, 0.8, 1000)
    _, status = _kink_newton(g, r0, level)
    alone = sum(evaluated)
    evaluated.clear()
    r, status_with = _kink_newton(g, np.append(r0, 2.0), np.append(level, 1.5))
    # the rootless point runs every iteration: one full step and 20 halvings each
    assert (status == STATUS_OK).all() and status_with[-1] == STATUS_NO_CONVERGENCE
    assert sum(evaluated) - alone <= 1 + 60 * 21


def test_damped_newton_stops_a_nan_row_after_one_residual_call():
    evaluated = []
    g = _counted(evaluated)
    r0 = np.linspace(-3.0, 3.0, 1000)
    level = np.linspace(-0.8, 0.8, 1000)
    r_alone, status = _kink_newton(g, r0, level)
    alone = sum(evaluated)
    evaluated.clear()
    r, status_with = _kink_newton(g, np.append(r0, 2.0), np.append(level, np.nan))
    assert (status == STATUS_OK).all() and status_with[-1] == STATUS_NO_CONVERGENCE
    assert sum(evaluated) - alone == 1       # its row of the first call only
    assert r[-1] == 2.0 and np.array_equal(r[:-1], r_alone)


def test_damped_newton_stops_once_every_point_left_cycles():
    # 24 of these points end in a 2-cycle at the rounding floor; once the
    # others have converged, the batch stops within two more iterations
    # instead of running all 60 (24 * 60 residual points, more with halvings)
    evaluated = []
    rng = np.random.default_rng(11)
    r0 = rng.uniform(0.5e6, 1.5e6, 200)
    level = rng.uniform(1.2e6, 1.4e6, 200)
    _, status = _kink_newton(_counted(evaluated, _floor), r0, level, _floor_slope)
    assert np.count_nonzero(status != STATUS_OK) == 24
    assert sum(evaluated) <= 4 * len(r0)


def test_damped_newton_carries_each_points_aux_with_its_final_iterate():
    # the aux of every point is what the residual returned at its final
    # iterate, through shrinking point sets, halving ladders (kink) and
    # 2-cycle choices (floor); r and the statuses are those of the solve
    # without an aux
    rng = np.random.default_rng(21)
    cases = [(_kink, _kink_slope, rng.uniform(-6.0, 6.0, 300), rng.uniform(-0.9, 0.9, 300)),
             (_floor, _floor_slope, rng.uniform(0.5e6, 1.5e6, 200),
              rng.uniform(1.2e6, 1.4e6, 200))]
    for g, dg, r0, level in cases:
        want, want_status = _kink_newton(g, r0, level, dg)
        def residual(r, level):
            val = g(r, level)
            return val, (r.copy(), val)

        def newton_step(r, val, aux, level):
            slope = dg(r, level)
            return val / np.where(np.abs(slope) < 1e-14, np.copysign(1e-14, slope), slope), None

        r, (at_r, val), status = damped_newton(residual, newton_step, r0, level, tol=1e-13,
                                               max_iter=60)
        assert np.array_equal(r, want) and np.array_equal(status, want_status)
        assert np.array_equal(at_r, r) and np.array_equal(val, g(r, level))


@pytest.mark.parametrize("fid", NEWTON_PATH_IDS)
def test_newton_evaluates_one_profile_jet_per_residual_and_nothing_else(fid, monkeypatch):
    # every profile evaluation of a solve is one jet call per residual call
    # (after the initial guess's, for a family without a guess_fn): the
    # bracket and the final refresh read the carried df/dr, and df/dr alone
    # is never asked for
    spec = make_family(fid)
    jets, residuals = [], []
    jet = spec.profile

    def counted_jet(r, t):
        jets.append(len(r))
        return jet(r, t)

    def counted_newton(residual, *args, **kwargs):
        def counted(r, *data):
            residuals.append(len(r))
            return residual(r, *data)
        return damped_newton(counted, *args, **kwargs)

    def no_profile_jac(r, t):
        raise AssertionError("df/dr evaluated apart from the jet")

    monkeypatch.setattr(solver, "damped_newton", counted_newton)
    spec.profile, spec.profile_jac = counted_jet, no_profile_jac
    t, x = GridSpec.from_window(spec.default_grid_window(), counts=(3, 5, 5, 5)).points()
    res = spec.evaluate_batch(t, x)
    start = [] if spec.guess_fn is not None else [int(spec.validity_mask(t, x).sum())]
    assert residuals and jets == start + residuals
    assert (res.status == STATUS_OK).sum() >= 100


def _offset(r, level):
    """r - level + 1e-12 at level ~ 1e6: the root is no float, and at r = level
    the step 1e-12 is below half an ulp of r (5.8e-11), so r - step == r, a
    fixed point above the tolerance."""
    return r - level + 1e-12


def _mixed(r, level):  # _kink for |level| < 1e5, _offset above
    return np.where(np.abs(level) < 1e5, _kink(r, level), _offset(r, level))


def _mixed_slope(r, level):
    return np.where(np.abs(level) < 1e5, _kink_slope(r, level), 1.0)


def test_damped_newton_slope_floor_stops_and_fixed_points_match_the_reference():
    # one batch: kink points that converge, kink points whose slope falls
    # below the floor while the others still iterate (near_catastrophe), and
    # points that settle on a fixed point above the tolerance; the batch stops
    # once only those are left
    rng = np.random.default_rng(12)
    level = np.concatenate([rng.uniform(-0.9, 0.9, 100), np.full(20, 1.5),
                            rng.uniform(0.6e6, 0.9e6, 60)])
    r0 = np.concatenate([rng.uniform(-6.0, 6.0, 120), level[120:] + rng.uniform(-1e3, 1e3, 60)])
    order = rng.permutation(len(level))
    level, r0 = level[order], r0[order]
    evaluated = []
    r, status = _kink_newton(_counted(evaluated, _mixed), r0, level, _mixed_slope,
                             stop_below=1e-6)
    want = [_halving_newton(a, b, _mixed, _mixed_slope, stop_below=1e-6)
            for a, b in zip(r0, level)]
    assert np.array_equal(r, [w[0] for w in want])
    assert np.array_equal(status, [w[1] for w in want])
    assert np.bincount(status).tolist() == [84, 60, 36]
    fixed = level > 1e5
    assert np.array_equal(r[fixed], level[fixed])
    assert (status[fixed] == STATUS_NO_CONVERGENCE).all()
    assert len(evaluated) <= 20           # 60 iterations take at least 61 calls


def test_damped_newton_stops_at_once_on_a_fixed_point():
    # started on their fixed points, the points repeat after the first step:
    # two residual calls, the second that of the one step
    evaluated = []
    level = np.random.default_rng(13).uniform(0.6e6, 0.9e6, 50)
    r, status = _kink_newton(_counted(evaluated, _offset), level, level, lambda r, level: 1.0)
    assert evaluated == [50, 50]
    assert np.array_equal(r, level) and (status == STATUS_NO_CONVERGENCE).all()


# status of each damped_newton solve of the default catastrophe probe (0 ok,
# 1 no_convergence, 2 near catastrophe), taken when every solve ran to its
# tolerance or to NEWTON_MAX_ITER
PROBE_STATUSES = {
    "R1_E": "000000000000000000000002000000000000000000001101001010010011000",
    "R2_E1E2": "000000000000000022222202000000000000000000000000000000000000000",
    "R2_E1S2": "000000000000000000010102000000000000000000100100000010000000010",
    "R2_E1E2S3": "000000000000001122222202000000000000000000000000000000000000000",
    "R2_E1S2S3": "000000000000000000000002000000000000000000001100000001110000001",
    "R3_E1E2E3": "000000000002222222222202000000000000000000000000000000000000000",
}


def test_catastrophe_probes_stop_repeating_solves(monkeypatch):
    # near t* one ulp of r exceeds the tolerance, and many of the probes' N = 1
    # solves settle into a 2-cycle above it.  They stop there with the statuses
    # of the full loop; all iterations would take 1937 residual calls
    if _platform() != DIGEST_PLATFORM:
        pytest.skip(f"statuses taken on {DIGEST_PLATFORM}; this platform is {_platform()}")
    calls, statuses = [0], []

    def counted(residual, newton_step, r0, *data, **kw):
        def res(r, *d):
            calls[0] += 1
            return residual(r, *d)
        r, aux, status = damped_newton(res, newton_step, r0, *data, **kw)
        statuses.extend(str(v) for v in status)
        return r, aux, status

    monkeypatch.setattr(solver, "damped_newton", counted)
    assert sorted(PROBE_STATUSES) == sorted(
        fid for fid in NEWTON_PATH_IDS if max(make_family(fid).singular_times(), default=0) > 0)
    for fid, want in PROBE_STATUSES.items():
        statuses.clear()
        assert catastrophe_probe(make_family(fid)).applicable
        assert "".join(statuses) == want, fid
    assert calls[0] <= 1000


@pytest.mark.parametrize("fid", NEWTON_PATH_IDS)
def test_newton_batch_result_of_a_point_does_not_depend_on_its_batch(fid):
    # a point of the sample grid solved alone gives the same bits as inside
    # the grid.  The covectors are evaluated a row at a time: u[:, 1:] @ e in
    # the wave kinds goes through BLAS, which may round a row differently
    # with its position in the batch; this test is about the solver.
    spec = make_family(fid)
    grid = GridSpec.from_window(spec.default_grid_window(), counts=(3, 5, 5, 5))
    t, x = grid.points()
    valid = spec.validity_mask(t, x)
    t, x = t[valid], x[valid]
    X = np.column_stack([t, x])
    if spec.guess_fn is not None:
        r0 = spec.guess_fn(t, x)
    else:
        r0 = initial_guess(spec.profile, spec.waves, X, spec.n_waves)

    def waves(u):
        return np.concatenate([spec.waves(u[i:i + 1]) for i in range(len(u))])

    r, _, status, *_ = newton_batch(spec.profile, waves, spec.dr_du, X, r0)
    for i in np.random.default_rng(11).choice(len(t), 25, replace=False):
        r_i, _, status_i, *_ = newton_batch(spec.profile, waves, spec.dr_du,
                                            X[i:i + 1], r0[i:i + 1])
        assert np.array_equal(r_i[0], r[i], equal_nan=True), i
        assert status_i[0] == status[i], i


@pytest.mark.parametrize("k", [1, 2, 3])
def test_bracket_det_closed_form_matches_lapack(k):
    # well-conditioned stacks: identity plus a perturbation of norm below 1
    rng = np.random.default_rng(40 + k)
    m = np.eye(k) + rng.uniform(-0.3, 0.3, (5000, k, k)) / k
    want = np.linalg.det(m)
    assert np.max(np.abs(bracket_det(m) - want) / np.abs(want)) <= 1e-12
    # a NaN or an infinity anywhere in a row makes its determinant non-finite
    bad = m[:3 * k * k].copy()
    for n, (value, pos) in enumerate((v, p) for v in (np.nan, np.inf, -np.inf)
                                     for p in np.ndindex(k, k)):
        bad[n][pos] = value
    with np.errstate(invalid="ignore", over="ignore"):
        assert not np.isfinite(bracket_det(bad)).any()


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_max_abs_is_the_axis_reduction_bitwise(k):
    # one np.maximum per column against np.abs(g).max(axis=1): signed zeros,
    # subnormals, NaN and +-inf rows, in every column
    rng = np.random.default_rng(60 + k)
    g = rng.normal(size=(3000, k)) * 10.0 ** rng.uniform(-320, 300, (3000, k))
    g[rng.random((3000, k)) < 0.05] = -0.0
    specials = (np.nan, np.inf, -np.inf)
    for n, (value, col) in enumerate((v, c) for v in specials for c in range(k)):
        g[n, col] = value
    g[3 * k:6 * k] = np.nan
    for got, want in ((solver._max_abs(g), np.abs(g).max(axis=1)),
                      (solver._max_abs(g[:, 0]), np.abs(g[:, 0]))):
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_one_by_one_division_is_lapack_solve_bitwise():
    # the k = 1 Newton step divides; LAPACK's 1x1 solve gives the same bits
    rng = np.random.default_rng(5)
    n = 200000
    jmat = rng.uniform(-2.0, 2.0, (n, 1, 1)) * 10.0 ** rng.uniform(-9, 3, (n, 1, 1))
    g = rng.normal(size=(n, 1)) * 10.0 ** rng.uniform(-13, 2, (n, 1))
    assert np.array_equal(g / jmat[:, 0], np.linalg.solve(jmat, g[..., None])[..., 0])


def test_time_row_dr_du_is_the_per_wave_stack_bitwise():
    rng = np.random.default_rng(8)
    e = rng.normal(size=(3, 3))
    e /= np.linalg.norm(e, axis=1, keepdims=True)
    wave_list = [PotentialWave(e=e[0]), RotationalWave(lsp=e[1]),
                 PotentialWave(e=e[2], epsilon=-1)]
    u = rng.normal(size=(500, 4))
    X = rng.normal(size=(500, 4)) * 10.0 ** rng.uniform(-3, 3, (500, 1))
    for k in (1, 2, 3):
        got = stack_waves(wave_list[:k])[2](u, X)
        want = np.stack([X[:, :1] * w.row for w in wave_list[:k]], axis=1)
        assert got.shape == (500, k, 4) and np.array_equal(got, want)


def _reference_jacobi(spec, X, r):
    """The Jacobi assembly re-evaluated at the solved r: profile, df/dr, dr/du
    and the bracket anew, then the same k x k assembly."""
    u, fr = spec.profile(r, X[:, 0])
    jmat = np.eye(spec.n_waves) - spec.dr_du(u, X) @ fr
    return jacobi_batch(spec.waves, u, fr, jmat, X, bracket_det(jmat), spec.extra_time_deriv)


@pytest.mark.parametrize("fid", NEWTON_PATH_IDS)
def test_jacobi_from_the_final_refresh_is_the_re_evaluated_assembly_bitwise(fid):
    # the exact route assembles du from Newton's final df/dr and bracket; a
    # fresh evaluation at the solved r gives the same bits on every row
    spec = make_family(fid)
    grid = GridSpec.from_window(spec.default_grid_window(), counts=(5, 7, 7, 7))
    t, x = grid.points()
    res = spec.evaluate_batch(t, x)
    valid = spec.validity_mask(t, x)
    X = np.column_stack([t[valid], x[valid]])
    want = _reference_jacobi(spec, X, res.r[valid])
    assert np.count_nonzero(res.status == STATUS_OK) >= 100
    assert np.array_equal(res.jac[valid], want, equal_nan=True)


def _four_by_four_jacobi(fr, ru, lam):
    """The 4 x 4 form du = (I4 - fr ru)^(-1) fr lam, one LAPACK solve per point."""
    return np.linalg.solve(np.eye(4) - fr @ ru, fr @ lam)


def _four_by_four_longdouble(fr, ru, lam):
    """The 4 x 4 form in np.longdouble: Gaussian elimination with partial pivoting."""
    fr, ru, lam = (np.asarray(a, dtype=np.longdouble) for a in (fr, ru, lam))
    a, b = np.eye(4, dtype=np.longdouble) - fr @ ru, fr @ lam
    rows = np.arange(len(a))
    for col in range(4):
        piv = col + np.argmax(np.abs(a[:, col:, col]), axis=1)
        for m in (a, b):
            m[rows, col], m[rows, piv] = m[rows, piv], m[rows, col].copy()
        f = a[:, col + 1:, col] / a[:, col, col][:, None]
        a[:, col + 1:] -= f[:, :, None] * a[:, None, col]
        b[:, col + 1:] -= f[:, :, None] * b[:, None, col]
    x = np.empty_like(b)
    for i in range(3, -1, -1):
        x[:, i] = (b[:, i] - np.einsum("nj,nja->na", a[:, i, i + 1:], x[:, i + 1:])) \
            / a[:, i, i][:, None]
    return x


def _rel_err(jac, ref):  # max over points of max|jac - ref| / max|ref|
    ref = np.asarray(ref, dtype=float)
    return float(np.max(np.abs(jac - ref).max(axis=(1, 2)) / np.abs(ref).max(axis=(1, 2))))


CATASTROPHE_IDS = [fid for fid in NEWTON_PATH_IDS
                   if any(t > 0 for t in make_family(fid).singular_times())]


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="np.longdouble is no wider than float64 here")
@pytest.mark.parametrize("fid", CATASTROPHE_IDS)
def test_jacobi_on_the_catastrophe_schedule_against_extended_precision(fid, monkeypatch):
    # the k x k assembly is at least as accurate as the 4 x 4 solve it
    # replaced where the bracket nears singular, measured against the 4 x 4
    # form solved in extended precision from the same df/dr and dr/du
    calls = []

    def captured(*args):
        calls.append(args)
        return jacobi_batch(*args)

    monkeypatch.setattr(base, "jacobi_batch", captured)
    spec = make_family(fid)
    catastrophe_probe(spec)
    assert len(calls) >= 15
    new, old, ref = [], [], []
    for waves, u, fr, jmat, X, det, extra in calls:
        ru = spec.dr_du(u, X)
        lam = waves(u)
        assert np.array_equal(jmat, np.eye(spec.n_waves) - ru @ fr)
        assert np.array_equal(det, bracket_det(jmat), equal_nan=True)
        new.append(jacobi_batch(waves, u, fr, jmat, X, det))
        old.append(_four_by_four_jacobi(fr, ru, lam))
        ref.append(_four_by_four_longdouble(fr, ru, lam))
    new, old, ref = np.concatenate(new), np.concatenate(old), np.concatenate(ref)
    assert _rel_err(new, ref) <= 2.0 * _rel_err(old, ref)


@pytest.mark.parametrize("fid", NEWTON_PATH_IDS)
def test_jacobi_agrees_with_the_four_by_four_solve_on_the_default_grid(fid):
    spec = make_family(fid)
    grid = GridSpec.from_window(spec.default_grid_window())
    t, x = grid.points()
    valid = spec.validity_mask(t, x)
    t, x = t[valid], x[valid]
    X = np.column_stack([t, x])
    if spec.guess_fn is not None:
        r0 = spec.guess_fn(t, x)
    else:
        r0 = initial_guess(spec.profile, spec.waves, X, spec.n_waves)
    _, u, status, cond, fr, jmat = newton_batch(spec.profile, spec.waves, spec.dr_du, X, r0)
    keep = (status == STATUS_OK) & (np.abs(cond) >= COND_SKIP)  # verify's kept points
    assert np.count_nonzero(keep) >= 1000
    new = jacobi_batch(spec.waves, u, fr, jmat, X, cond)[keep]
    old = _four_by_four_jacobi(fr, spec.dr_du(u, X), spec.waves(u))[keep]
    scale = 1.0 + np.abs(old).max(axis=(1, 2))
    assert np.all(np.abs(new - old).max(axis=(1, 2)) <= 1e-13 * scale)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("k", [1, 2, 3])
def test_singular_bracket_row_is_nan_and_leaves_the_others_bitwise(k):
    # an exactly singular bracket (a zero row) yields a NaN Jacobi row, with
    # no RuntimeWarning, and the other rows are what they are without it
    rng = np.random.default_rng(70 + k)
    n, bad = 50, 17
    e = rng.normal(size=(k, 3))
    waves = stack_waves([PotentialWave(e=v / np.linalg.norm(v)) for v in e])[0]
    u = rng.normal(size=(n, 4))
    fr = rng.normal(size=(n, 4, k))
    jmat = np.eye(k) + rng.uniform(-0.3, 0.3, (n, k, k)) / k
    X = rng.normal(size=(n, 4))
    jmat[bad, 0] = 0.0
    det = bracket_det(jmat)
    jac = jacobi_batch(waves, u, fr, jmat, X, det)
    others = np.arange(n) != bad
    alone = jacobi_batch(waves, u[others], fr[others], jmat[others], X[others], det[others])
    assert np.isnan(jac[bad]).all()
    assert np.isfinite(alone).all() and np.array_equal(jac[others], alone)


def _digest_grids():
    """The sample and default grids of the Newton-path families, and the
    near-catastrophe sample grids whose bytes test_output_digests pins."""
    from riemannwaves.cli import parse_grid
    from test_output_digests import NEAR_CATASTROPHE_DIGESTS
    grids = [(fid, GridSpec.from_window(make_family(fid).default_grid_window(), counts))
             for fid in NEWTON_PATH_IDS for counts in ((3, 5, 5, 5), (5, 11, 11, 11))]
    for fid, text in NEAR_CATASTROPHE_DIGESTS:
        sample = GridSpec.from_window(make_family(fid).default_grid_window(), (3, 5, 5, 5))
        grids.append((fid, dataclasses.replace(sample, **parse_grid(text))))
    return grids


@pytest.mark.parametrize("fid,grid", _digest_grids(),
                         ids=lambda v: v if isinstance(v, str) else str(v.t[2]))
def test_closed_form_cond_det_flips_no_status(fid, grid):
    # cond_det is the closed form of det(dG/dr); LAPACK's value of the same
    # bracket (what sample prints) sits on the same side of DET_FLOOR and of
    # COND_SKIP on every solved row, so the final status test and verify's
    # keep mask decide alike under either determinant
    from riemannwaves.verify import _keep_mask
    res = make_family(fid).evaluate_batch(*grid.points(), jacobian=False)
    solved = np.isfinite(res.bracket).all(axis=(1, 2))
    assert solved.sum() >= 0.5 * len(solved)
    lapack = np.full(len(solved), np.nan)
    lapack[solved] = np.linalg.det(res.bracket[solved])
    assert np.array_equal(np.isfinite(res.cond_det), np.isfinite(lapack))
    fin = np.isfinite(lapack)
    rel = np.abs(res.cond_det[fin] - lapack[fin]) / np.abs(lapack[fin])
    assert rel.max() <= 1e-14  # 1.6e-15 at most when the bound was set
    for floor in (solver.DET_FLOOR, COND_SKIP):
        assert np.array_equal(np.abs(res.cond_det) >= floor, np.abs(lapack) >= floor)
    assert np.array_equal(_keep_mask(res.status, res.cond_det), _keep_mask(res.status, lapack))

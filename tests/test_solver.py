"""Implicit-solution solver: Newton path, Jacobi matrices, condition determinant."""

import numpy as np
import pytest

from riemannwaves.catalog import make_family
from riemannwaves.catalog.base import PotentialWave, RotationalWave, stack_waves
from riemannwaves.solver import (
    CatastropheError,
    ImplicitProblem,
    implicit_condition,
    jacobi_matrix,
    solution_rank,
    solve_point,
)

KAPPA = 3.0


def constant_profile_problem(x, u0=(1.0, 0.2, -0.1, 0.4)):
    """f == u0 with one rotational wave: r solves a linear system, du = 0."""
    u0 = np.asarray(u0, dtype=float)
    waves, waves_jac, _ = stack_waves([RotationalWave(lsp=np.array([1.0, 0.0, 0.0]))])

    def profile(r, t):
        return np.broadcast_to(u0, (len(r), 4)).copy()

    def profile_jac(r, t):
        return np.zeros((len(r), 4, 1))

    return ImplicitProblem(k=1, profile=profile, profile_jac=profile_jac,
                           waves=waves, waves_jac=waves_jac, x=np.asarray(x, float))


def e1e2_problem(x, slopes=(-1.0, -1.0)):
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

    return ImplicitProblem(k=2, profile=profile, profile_jac=profile_jac,
                           waves=waves, waves_jac=waves_jac, x=np.asarray(x, float)), (e1, e2)


def test_time_zero_removes_state_dependence():
    # at t = 0 the invariants are -spatial_part . x exactly; one Newton step
    prob, (e1, e2) = e1e2_problem([0.0, 0.7, -0.4, 0.2])
    pt = solve_point(prob)
    xs = prob.x[1:]
    assert np.allclose(pt.r, [-(xs @ e1), -(xs @ e2)], atol=1e-14)
    assert pt.residual <= 1e-12


def test_linear_superposition_closed_form_oracle():
    # slopes -1, kappa = 3: a = (e1.x)/(1 + 4t) + (e2.x)/(1 + 4t) at t = 0.1
    t, xs = 0.1, np.array([1.0, 0.0, 0.0])
    prob, (e1, e2) = e1e2_problem(np.concatenate([[t], xs]))
    pt = solve_point(prob)
    expected_a = (xs @ e1) / 1.4 + (xs @ e2) / 1.4
    assert abs(pt.state[0] - expected_a) <= 1e-12
    expected_u = KAPPA * ((xs @ e1) / 1.4 * e1 + (xs @ e2) / 1.4 * e2)
    assert np.max(np.abs(pt.state[1:] - expected_u)) <= 1e-12
    assert pt.residual <= 1e-12


def test_constant_profile_linear_solve_and_zero_jacobian():
    prob = constant_profile_problem([0.4, 0.3, -0.2, 0.9])
    pt = solve_point(prob)
    # r = lam(u0) . x directly
    lam = prob.waves(pt.state[None, :])[0, 0]
    assert abs(pt.r[0] - lam @ prob.x) <= 1e-14
    assert np.max(np.abs(pt.jac)) <= 1e-14
    assert solution_rank(pt) == 0
    assert abs(implicit_condition(pt, prob) - 1.0) <= 1e-14


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

    prob = ImplicitProblem(k=1, profile=profile, profile_jac=profile_jac,
                           waves=waves, waves_jac=waves_jac,
                           x=np.array([0.7, 0.3, -0.5, 0.8]))
    pt = solve_point(prob)
    fr = profile_jac(pt.r[None, :], np.array([0.7]))[0]
    lam = waves(pt.state[None, :])[0]
    assert np.max(np.abs(pt.jac - fr @ lam)) <= 1e-13
    assert abs(pt.cond_det - 1.0) <= 1e-14
    assert abs(implicit_condition(pt, prob) - 1.0) <= 1e-14


def test_jacobi_matrix_against_finite_differences():
    t, xs = 0.12, np.array([0.8, -0.3, 0.1])
    prob, _ = e1e2_problem(np.concatenate([[t], xs]))
    pt = solve_point(prob)
    h = 1e-6
    fd = np.empty((4, 4))
    for axis in range(4):
        xp = prob.x.copy(); xm = prob.x.copy()
        xp[axis] += h; xm[axis] -= h
        up = solve_point(ImplicitProblem(k=2, profile=prob.profile, profile_jac=prob.profile_jac,
                                         waves=prob.waves, waves_jac=prob.waves_jac, x=xp)).state
        um = solve_point(ImplicitProblem(k=2, profile=prob.profile, profile_jac=prob.profile_jac,
                                         waves=prob.waves, waves_jac=prob.waves_jac, x=xm)).state
        fd[:, axis] = (up - um) / (2 * h)
    scale = 1.0 + np.max(np.abs(fd))
    assert np.max(np.abs(pt.jac - fd)) <= 1e-5 * scale


def test_jacobi_forms_agree():
    # (I4 - fr ru)^(-1) fr lam  vs  fr (Ik - ru fr)^(-1) lam
    t, xs = 0.2, np.array([-0.4, 0.6, 0.3])
    prob, _ = e1e2_problem(np.concatenate([[t], xs]))
    pt = solve_point(prob)
    jac_q = jacobi_matrix(pt, prob)  # q-form, with guard
    r, tv = pt.r[None, :], np.array([t])
    u = prob.profile(r, tv)
    fr = prob.profile_jac(r, tv)[0]
    ru = np.einsum("kia,i->ka", prob.waves_jac(u)[0], prob.x)
    k_form = fr @ np.linalg.inv(np.eye(2) - ru @ fr) @ prob.waves(u)[0]
    assert np.max(np.abs(jac_q - k_form)) <= 1e-10 * (1 + np.max(np.abs(jac_q)))
    assert np.max(np.abs(pt.jac - jac_q)) <= 1e-10 * (1 + np.max(np.abs(jac_q)))


def test_implicit_condition_examples():
    # t = 0 gives exactly 1; the determinant shrinks approaching the blow-up time
    prob0, _ = e1e2_problem([0.0, 0.5, 0.2, -0.1], slopes=(0.25, 0.25))
    assert abs(implicit_condition(solve_point(prob0), prob0) - 1.0) <= 1e-14
    # with positive slopes A = 0.25 the catastrophe sits at t = 1: near it the
    # determinant falls below 1e-3
    probT, _ = e1e2_problem([0.9998, -0.5, -0.2, 0.0], slopes=(0.25, 0.25))
    pt = solve_point(probT)
    assert abs(implicit_condition(pt, probT)) < 1e-3


def test_near_catastrophe_error():
    probT, _ = e1e2_problem([1.0 - 1e-12, -0.5, -0.2, 0.0], slopes=(0.25, 0.25))
    with pytest.raises(CatastropheError):
        solve_point(probT)


def test_solution_rank_examples():
    spec1 = make_family("R1_E")
    res = spec1.evaluate_batch(np.array([0.3]), np.array([[-0.7, 0.2, 0.1]]))
    assert res.status[0] == 0
    from riemannwaves.linalg import numerical_rank
    assert numerical_rank(res.jac[0]) == 1
    spec2 = make_family("R2_S1S2_MA")
    res2 = spec2.evaluate_batch(np.array([1.0]), np.array([[1.0, 0.2, 0.0]]), branch="plus")
    assert numerical_rank(res2.jac[0]) == 2


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
        branch = "plus" if spec.branches else None
        win = spec.default_grid_window()
        lo, hi = win["t"]
        t = rng.uniform(lo + 0.05 * (hi - lo), lo + 0.9 * (hi - lo), 100)
        x = np.column_stack([rng.uniform(*win[f"x{i}"], 100) for i in (1, 2, 3)])
        res = spec.evaluate_batch(t, x, branch=branch)
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
            rp = spec.evaluate_batch(tp, xp, branch=branch, guess=res.r[keep])
            rm = spec.evaluate_batch(tm, xm, branch=branch, guess=res.r[keep])
            fd[:, :, axis] = (rp.state - rm.state) / (2 * h)
        good = np.isfinite(fd).all(axis=(1, 2))
        scale = 1.0 + np.max(np.abs(fd[good]))
        assert np.max(np.abs(res.jac[keep][good] - fd[good])) <= 1e-5 * scale, fid

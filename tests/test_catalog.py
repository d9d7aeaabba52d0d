"""Family registry: constraints, closed forms, singular times, helper operations."""

import numpy as np
import pytest

from riemannwaves.catalog import (
    ConstraintError,
    REGISTRY_IDS,
    ValidityError,
    family_defaults,
    make_family,
    monge_ampere_residual,
    rankk_sound_speed,
    registry_entries,
)
from riemannwaves.catalog import profiles as pf
from riemannwaves.catalog.base import CustomWave, PotentialWave, RotationalWave, stack_waves

KAPPA = 3.0


def test_registry_size_and_ids():
    entries = registry_entries()
    assert len(entries) >= 13
    ids = {e["id"] for e in entries}
    assert "R2_E1E2" in ids and "RK_TIME_A" in ids


def test_angle_lock_default_matches_gamma():
    spec = make_family("R2_E1E2")
    e1 = np.asarray(spec.params["e1"])
    e2 = np.asarray(spec.params["e2"])
    gamma = spec.gas.gamma
    assert abs(e1 @ e2 - (1.0 - gamma) / 2.0) <= 1e-12
    assert abs(e1 @ e2 + 1.0 / spec.gas.kappa) <= 1e-12


def test_angle_lock_violation_rejected():
    with pytest.raises(ConstraintError):
        make_family("R2_E1E2", e2=(1.0, 0.0, 0.0))  # e1 == e2


def test_modulus_bounds():
    assert make_family("R2_S1S2S3", modulus_k=np.sqrt(0.5)) is not None
    with pytest.raises(ConstraintError):
        make_family("R2_S1S2S3", modulus_k=np.sqrt(1.5))


def test_unknown_parameter_rejected():
    with pytest.raises(ConstraintError):
        make_family("R1_E", no_such_knob=1.0)
    with pytest.raises(KeyError):
        make_family("NOT_A_FAMILY")


def test_r1e_positivity_window():
    # A1 = 0.25, kappa = 3: T = 1; at t = 0.5, x = e the closed form gives
    # a = 0.25/(0.25*4*0.5 - 1) = -0.5 < 0, outside the validity window
    spec = make_family("R1_E")
    assert spec.singular_times() == [1.0]
    r, u = spec.closed_form(np.array([0.5]), np.array([[1.0, 0.0, 0.0]]))
    assert abs(u[0, 0] - (-0.5)) <= 1e-14
    with pytest.raises(ValidityError):
        spec.evaluate(0.5, [1.0, 0.0, 0.0])
    # the mirrored ray is valid with a = +0.5
    res = spec.evaluate(0.5, [-1.0, 0.0, 0.0])
    assert abs(res.state[0, 0] - 0.5) <= 1e-12


def test_time_zero_returns_pure_profile():
    for fid in ("R1_E", "R2_E1E2", "R2_E1S2", "R3_E1E2E3"):
        spec = make_family(fid)
        x = np.array([[-0.4, 0.1, 0.3]])
        res = spec.evaluate_batch(np.zeros(1), x)
        if res.status[0] != 0:
            continue
        lam = spec.waves(res.state)[0]
        r_expect = lam[:, 1:] @ x[0]
        assert np.allclose(res.r[0], r_expect, atol=1e-13)
        assert np.allclose(res.state[0],
                           spec.profile(res.r, np.zeros(1))[0], atol=1e-13)


def test_two_sheet_closed_form_oracle():
    spec = make_family("R2_S1S2_MA")
    rng = np.random.default_rng(9)
    t = rng.uniform(0.5, 1.5, 30)
    x = np.column_stack([rng.uniform(0.5, 1.5, 30), rng.uniform(-0.5, 0.5, 30),
                         rng.uniform(-1, 1, 30)])
    res = spec.evaluate_batch(t, x, branch="plus")
    rc, uc = spec.closed_form(t, x, "plus")
    ok = res.status == 0
    assert ok.sum() >= 25
    assert np.max(np.abs(res.state[ok] - uc[ok])) <= 1e-12
    assert np.max(np.abs(res.r[ok] - rc[ok])) <= 1e-12
    # the printed plus sheet has u2 = (x2 + sqrt((x2)^2 + 4 t x1))/t
    root = np.sqrt(x[:, 1] ** 2 + 4 * t * x[:, 0])
    assert np.max(np.abs(res.state[ok, 2] - ((x[:, 1] + root) / t)[ok])) <= 1e-12


def test_branches_differ_and_auto_continuous():
    spec = make_family("R2_S1S2_MA")
    t = np.array([1.0])
    x = np.array([[1.0, 0.3, 0.0]])
    up = spec.evaluate_batch(t, x, branch="plus").state[0]
    um = spec.evaluate_batch(t, x, branch="minus").state[0]
    assert abs(up[2] - um[2]) > 0.1
    # the auto sheet converges to the finite t -> 0+ limit w = x1/x2
    tsmall = np.array([2e-5])
    ua = spec.evaluate_batch(tsmall, x, branch="auto").state[0]
    w_inf = x[0, 0] / x[0, 1]
    assert abs(ua[1] - (-(w_inf**2))) <= 1e-2
    assert abs(ua[2] - (-2 * w_inf)) <= 1e-2
    with pytest.raises(ValidityError):
        spec.evaluate_batch(t, x, branch="bogus")


def test_singular_time_formulas():
    assert make_family("R2_E1E2", A1=0.25, A2=0.25).singular_times() == [1.0, 1.0]
    spec = make_family("R2_E1S2", profile="soliton", A1=1.0, B1=1.0)
    assert abs(spec.singular_times()[0] - 2.0**1.5 / 4.0) <= 1e-14
    assert make_family("R1_S").singular_times() == []
    # exp-kink catastrophes sit at negative times, reported with sign
    kinkb = make_family("R3_E1E2E3", profile="expkink", A1=1.0, A2=1.0, A3=1.0)
    expected = -(2.0**2.5) / (4.0 * 1.0 * 1.0)
    assert np.allclose(kinkb.singular_times(), [expected] * 3)


def test_closed_forms_agree_with_newton_path():
    rng = np.random.default_rng(15)
    for fid in REGISTRY_IDS:
        spec = make_family(fid)
        if spec.closed_form is None:
            continue
        branch = "plus" if spec.branches else None
        win = spec.default_grid_window()
        t = rng.uniform(win["t"][0] + 0.02, win["t"][1], 20)
        x = np.column_stack([rng.uniform(*win[f"x{i}"], 20) for i in (1, 2, 3)])
        res = spec.evaluate_batch(t, x, branch=branch)
        ok = res.status == 0
        if not ok.any():
            continue
        _, uc = spec.closed_form(t[ok], x[ok], branch)
        assert np.max(np.abs(uc - res.state[ok])) <= 1e-10, fid


def test_snoidal_structure():
    spec = make_family("R2_S1S2S3")
    rng = np.random.default_rng(19)
    t = rng.uniform(0, 3, 60)
    x = rng.uniform(-2, 2, (60, 3))
    res = spec.evaluate_batch(t, x)
    assert np.all(res.status == 0)
    assert np.max(np.abs(res.state[:, 2] - res.state[:, 3])) <= 1e-13
    assert np.max(np.abs(res.state[:, 0] - spec.params["a0"])) <= 1e-14


def test_time_only_family_jacobian_invariants():
    spec = make_family("RK_TIME_A")
    df = spec.params["_df_matrix"]
    b1, c1 = spec.params["B1"], spec.params["C1"]
    assert abs(np.trace(df) - 2 * c1) <= 1e-12
    assert abs(np.linalg.det(df) - (b1 + c1**2)) <= 1e-12
    rng = np.random.default_rng(23)
    t = rng.uniform(0, 2, 50)
    x = rng.uniform(-1, 1, (50, 3))
    res = spec.evaluate_batch(t, x)
    a_expect = spec.params["A1"] * ((1 + c1 * t) ** 2 + b1 * t**2) ** (-1.0 / spec.gas.kappa)
    assert np.max(np.abs(res.state[:, 0] - a_expect)) <= 1e-12
    # nilpotent preset: constant sound speed
    nil = make_family("RK_TIME_A", profile="nilpotent")
    resn = nil.evaluate_batch(t, x)
    assert np.max(np.abs(resn.state[:, 0] - nil.params["A1"])) <= 1e-14


def test_rankk_sound_speed():
    t = np.linspace(0.0, 2.0, 9)
    # nilpotent coefficients: constant speed
    assert np.allclose(rankk_sound_speed(2, [0.0, 0.0], 1.3, KAPPA, t), 1.3)
    # k = 2 with p0 = B1 + C1^2, p1 = 2 C1 reproduces ((1+C1 t)^2 + B1 t^2)^(-1/kappa)
    b1, c1 = 0.7, 0.4
    got = rankk_sound_speed(2, [b1 + c1**2, 2 * c1], 2.0, KAPPA, t)
    want = 2.0 * ((1 + c1 * t) ** 2 + b1 * t**2) ** (-1.0 / KAPPA)
    assert np.max(np.abs(got - want)) <= 1e-14
    assert rankk_sound_speed(3, [0.1, 0.2, 0.3], 1.0, KAPPA, 0.0) == 1.0
    with pytest.raises(ValueError):
        rankk_sound_speed(2, [0.0, -4.0], 1.0, KAPPA, 1.0)  # polynomial <= 0
    with pytest.raises(ValueError):
        rankk_sound_speed(2, [0.0], 1.0, KAPPA, 0.5)  # wrong coefficient count


def test_monge_ampere_homogeneous_stream():
    psi = pf.homogeneous_stream(np.cos, lambda w: -np.sin(w), lambda w: -np.cos(w))
    rng = np.random.default_rng(29)
    samples = np.column_stack([rng.uniform(0.5, 2.0, 200), rng.uniform(-2, 2, 200)])
    assert monge_ampere_residual(psi, 0.0, samples) <= 1e-8


def test_monge_ampere_quadratic_and_registered_streams():
    c = 1.7
    h = pf.quadratic_stream(c)
    samples = np.random.default_rng(31).uniform(-2, 2, (100, 2))
    assert monge_ampere_residual(h, c * c, samples) <= 1e-12
    # registered stream functions of the catalog families
    ma = make_family("R2_S1S2_MA")
    pts = np.column_stack([np.random.default_rng(1).uniform(0.5, 2, 100),
                           np.random.default_rng(2).uniform(0.5, 2, 100)])
    assert monge_ampere_residual(ma.params["_stream"], 0.0, pts) <= 1e-8
    rk = make_family("RK_TIME_A")
    assert monge_ampere_residual(rk.params["_stream"], rk.params["B1"], samples) <= 1e-8
    nil = make_family("RK_TIME_A", profile="nilpotent")
    assert monge_ampere_residual(nil.params["_stream"], 0.0, samples) <= 1e-8


def test_monge_ampere_fd_path():
    # plain callable without analytic hessian goes through central differences
    h = lambda p, q: 0.5 * (p * p + q * q)
    samples = np.random.default_rng(37).uniform(-1, 1, (50, 2))
    assert monge_ampere_residual(h, 1.0, samples, step=1e-5) <= 1e-5


def test_transported_invariant_closed_form_vs_characteristics():
    spec = make_family("R3_E1S2S3_v1")  # linear preset: closed-form r3
    ev = spec.custom_eval
    rng = np.random.default_rng(41)
    t = rng.uniform(0.1, 1.0, 12)
    x3 = rng.uniform(-1, 1, 12)
    g, dgdt, dgdx = ev.r3_closed(t, x3)
    shift = (spec.params["B1"] + spec.gas.kappa * spec.params["a0"]) / spec.params["A1"]
    r1, _ = ev.solve_r1(t, x3)
    foot, dt_char, dx_char, ok = ev.r3_first_integral(t, r1)
    assert ok.all()
    assert np.max(np.abs(foot - (g + shift))) <= 1e-9
    assert np.max(np.abs(dx_char - dgdx)) <= 1e-8
    assert np.max(np.abs(dt_char - dgdt)) <= 1e-8
    # the closed-form invariant is honestly transported
    u3 = ev.f(r1) + ev.u30
    assert np.max(np.abs(dgdt + u3 * dgdx)) <= 1e-10


def test_family_defaults_follow_gamma():
    d = family_defaults("R2_E1E2", gamma=1.4)
    e1, e2 = np.asarray(d["e1"]), np.asarray(d["e2"])
    kappa = 2.0 / (1.4 - 1.0)
    assert abs(e1 @ e2 + 1.0 / kappa) <= 1e-12
    spec = make_family("R2_E1E2", gamma=1.4)
    assert abs(np.asarray(spec.params["e2"]) @ np.asarray(spec.params["e1"])
               + 1 / spec.gas.kappa) <= 1e-12


def test_warm_start_guess_aligns_with_validity_mask():
    # a provided warm-start guess covers all N points; points dropped by the
    # validity mask must not shift the alignment of the remaining guesses
    spec = make_family("R2_S1S2_MA")
    t = np.array([1.0, -0.5, 1.2])  # middle point invalid (t < 0)
    x = np.array([[1.0, 0.2, 0.0], [1.0, 0.2, 0.0], [1.2, -0.1, 0.0]])
    guess = np.array([[0.9, -0.3], [0.0, 0.0], [1.1, -0.2]])
    res = spec.evaluate_batch(t, x, branch="plus", guess=guess)
    assert list(res.status) == [0, 3, 0]
    ref = spec.evaluate_batch(t[[0, 2]], x[[0, 2]], branch="plus")
    assert np.allclose(res.r[[0, 2]], ref.r, atol=1e-12)


@pytest.mark.parametrize("fid", REGISTRY_IDS)
def test_evaluate_without_jacobian_keeps_every_other_field(fid):
    # jacobian=False skips only the Jacobi assembly: the solved fields are
    # bit-identical to the default call, and jac is absent rather than NaN
    rng = np.random.default_rng(29)
    spec = make_family(fid)
    branch = "plus" if spec.branches else None
    win = spec.default_grid_window()
    t = rng.uniform(*win["t"], 24)
    x = np.column_stack([rng.uniform(*win[f"x{i}"], 24) for i in (1, 2, 3)])
    full = spec.evaluate_batch(t, x, branch=branch)
    # a second instance, so a custom evaluator's memo cannot serve the call
    bare = make_family(fid).evaluate_batch(t, x, branch=branch, jacobian=False)
    assert (full.status == 0).any()
    assert bare.jac is None
    assert full.jac is not None and full.jac.shape == (24, 4, 4)
    for name in ("r", "state", "cond_det", "status"):
        assert np.array_equal(getattr(bare, name), getattr(full, name), equal_nan=True), name


def _states_and_points(n, seed):
    """Seeded states and points with negative coordinates; t = 0 on every third row."""
    rng = np.random.default_rng(seed)
    u = np.column_stack([rng.uniform(0.2, 2.0, n), rng.normal(0.0, 1.0, (n, 3))])
    X = rng.uniform(-2.0, 2.0, (n, 4))
    X[1::3, 0] = 0.0
    return u, X


def _custom_stack():
    """A k = 3 stack whose custom wave has a dense, state-dependent derivative."""
    m = np.random.default_rng(41).normal(size=(4, 4))
    custom = CustomWave(lam_fn=lambda u: np.cos(u @ m.T),
                        jac_fn=lambda u: -np.sin(u @ m.T)[:, :, None] * m[None])
    return stack_waves([PotentialWave(e=np.array([0.6, -0.8, 0.0]), epsilon=-1), custom,
                        RotationalWave(lsp=np.array([0.0, 0.3, -0.4]))])


@pytest.mark.parametrize("fid", [*REGISTRY_IDS, "custom-stack"])
@pytest.mark.parametrize("n", [1, 500])
def test_dr_du_equals_contracted_derivative_stack(fid, n):
    # each wave's closed-form dr/du is the full (N,k,4,4) derivative stack
    # contracted with the points, bit for bit
    if fid == "custom-stack":
        _, waves_jac, dr_du = _custom_stack()
    else:
        spec = make_family(fid)
        waves_jac, dr_du = spec.waves_jac, spec.dr_du
    for seed in (3, 4):
        u, X = _states_and_points(n, seed)
        for pts in (X, np.column_stack([np.zeros(n), X[:, 1:]])):
            got = dr_du(u, pts)
            assert got.shape == (n, waves_jac(u).shape[1], 4)
            assert np.array_equal(got, np.einsum("nkia,ni->nka", waves_jac(u), pts))

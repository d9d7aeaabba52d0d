"""Family registry: constraints, closed forms, singular times, helper operations."""

import dataclasses

import numpy as np
import pytest

from riemannwaves.catalog import (
    ConstraintError,
    REGISTRY_IDS,
    family_defaults,
    make_family,
    registry_entries,
)
from riemannwaves.catalog import profiles as pf
from riemannwaves.catalog.base import (
    STATUS_INVALID,
    CustomWave,
    PotentialWave,
    RotationalWave,
    stack_waves,
)
from riemannwaves.catalog.registry import _REGISTRY
from riemannwaves.cli import main as cli_main
from riemannwaves.solver import STATUS_OK

from oracles import Stream, homogeneous_stream, monge_ampere_residual, npower_stream, quadratic_stream


def shear_stream(d1):
    """psi = (D1/2) q^2, the stream of RK_TIME_A's nilpotent preset: h_pp h_qq - h_pq^2 = 0."""

    def hess(p, q):
        shape = np.broadcast(np.asarray(p, float), np.asarray(q, float)).shape
        return np.zeros(shape), np.full(shape, d1), np.zeros(shape)

    return Stream(f"shear(D1={d1:g})", lambda p, q: 0.5 * d1 * np.asarray(q, float) ** 2,
                  lambda p, q: np.zeros_like(np.asarray(p, float)),
                  lambda p, q: d1 * np.asarray(q, float), hessian=hess)


def family_stream(spec):
    """(psi, B1): a stream family's stream function, built from the profiles
    presets with the family's own parameters, and its Monge-Ampere value."""
    p = spec.params
    if spec.id == "R2_S1S2_MA":
        return npower_stream(p["n"]), 0.0
    if p["profile"] == "nilpotent":
        return shear_stream(p["D1"]), 0.0
    return quadratic_stream(np.sqrt(p["B1"])), p["B1"]


def stream_profile_gap(spec, r):
    """Relative gap between the family's velocity profile (u1, u2) at invariants
    r (N, 2) and its stream function: (-psi_q, psi_p) for R2_S1S2_MA, and
    C1 r + (psi_q, -psi_p) for RK_TIME_A (C1 = 0 in the nilpotent preset)."""
    psi, _ = family_stream(spec)
    psi_p, psi_q = psi.dp(r[:, 0], r[:, 1]), psi.dq(r[:, 0], r[:, 1])
    if spec.id == "R2_S1S2_MA":
        want = np.column_stack([-psi_q, psi_p])
    else:
        c1 = spec.params["C1"] if spec.params["profile"] == "quadratic" else 0.0
        want = c1 * r + np.column_stack([psi_q, -psi_p])
    got = spec.profile(r, np.ones(len(r)))[0][:, 1:3]
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


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


@pytest.mark.parametrize("fid", REGISTRY_IDS)
def test_every_declared_choice_builds_and_a_bogus_one_names_its_key(fid):
    choices = _REGISTRY[fid][2]
    assert set(choices) <= set(family_defaults(fid))
    for key, options in choices.items():
        assert family_defaults(fid)[key] in options
        for value in options:
            assert make_family(fid, {key: value}).params[key] == value
        bogus = "bogus" if isinstance(options[0], str) else 2
        with pytest.raises(ConstraintError, match=f"{key} must be one of .* for {fid}"):
            make_family(fid, {key: bogus})


POSITIVE_KEYS = [(fid, key) for fid in REGISTRY_IDS for key in _REGISTRY[fid][3]]


def test_positive_keys_are_the_rules_the_builders_held():
    # the table moved the seven checks out of the builders; none was added or lost
    assert POSITIVE_KEYS == [(fid, "a0") for fid in ("R1_S", "R2_S1S2_MA", "R2_S1S2_ADD",
                                                     "R2_S1S2S3", "R3_E1S2S3_v1",
                                                     "R3_E1S2S3_v2")] + [("RK_TIME_A", "A1")]


@pytest.mark.parametrize("value", [0.0, -1.0, float("nan")])
@pytest.mark.parametrize("fid,key", POSITIVE_KEYS)
def test_a_declared_positive_key_rejects_zero_negative_and_nan(fid, key, value):
    with pytest.raises(ConstraintError, match=f"^{key} must be positive$"):
        make_family(fid, {key: value})


def test_r2_e1s2_a0_stays_unchecked():
    assert make_family("R2_E1S2", a0=-1.0).params["a0"] == -1.0


@pytest.mark.parametrize("n", [0, 4])
def test_a_spec_holds_one_to_three_waves(n):
    spec = make_family("R3_E1E2E3")
    waves = [PotentialWave(e=np.eye(3)[i % 3]) for i in range(n)]
    with pytest.raises(ConstraintError, match="1 to 3 waves"):
        dataclasses.replace(spec, wave_list=waves)
    assert dataclasses.replace(spec, wave_list=spec.wave_list[:2]).n_waves == 2


@pytest.mark.filterwarnings("error")
def test_an_overflowed_snoidal_argument_fails_its_point_alone():
    # x3 near the float range overflows r2 + n r3 to +-inf; those points end
    # non-ok, with no warning, and every other row keeps its bits
    spec = make_family("R2_S1S2S3")
    rng = np.random.default_rng(23)
    t, x = rng.uniform(0.0, 3.0, 40), rng.uniform(-1.0, 1.0, (40, 3))
    t_mixed = np.insert(t, (17, 30), 0.5)
    x_mixed = np.insert(x, (17, 30), [[0.0, 0.0, -1.7e308], [0.3, -0.2, 1.7e308]], axis=0)
    alone = spec.evaluate_batch(t, x)
    mixed = spec.evaluate_batch(t_mixed, x_mixed)
    bad = np.array([17, 31])  # the inserted points' rows
    rows = np.delete(np.arange(len(t_mixed)), bad)
    assert np.count_nonzero(alone.status == STATUS_OK) >= 30
    assert (mixed.status[bad] != STATUS_OK).all()
    for name in ("r", "state", "jac", "cond_det", "status", "bracket"):
        want, got = getattr(alone, name), getattr(mixed, name)[rows]
        assert np.array_equal(want.view(np.uint8), got.view(np.uint8)), name


@pytest.mark.parametrize("n", [2.5, 1, 1.0, float("nan"), float("inf")])
def test_ma_power_must_be_an_integer_other_than_one(n):
    with pytest.raises(ConstraintError, match="power n"):
        make_family("R2_S1S2_MA", n=n)
    assert make_family("R2_S1S2_MA", n=3.0).params["n"] == 3.0


def test_r1e_positivity_window():
    # A1 = 0.25, kappa = 3: T = 1; at t = 0.5, x = e the closed form gives
    # a = 0.25/(0.25*4*0.5 - 1) = -0.5 < 0, outside the validity window
    spec = make_family("R1_E")
    assert spec.singular_times() == [1.0]
    t = np.array([0.5])
    u = spec.profile(spec.closed_form(t, np.array([[1.0, 0.0, 0.0]])), t)[0]
    assert abs(u[0, 0] - (-0.5)) <= 1e-14
    # that point is invalid, and the mirrored ray is valid with a = +0.5
    res = spec.evaluate_batch(np.full(2, 0.5), np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]]))
    assert res.status.tolist() == [STATUS_INVALID, STATUS_OK]
    assert abs(res.state[1, 0] - 0.5) <= 1e-12


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
                           spec.profile(res.r, np.zeros(1))[0][0], atol=1e-13)


def test_two_sheet_closed_form_oracle():
    spec = make_family("R2_S1S2_MA", branch="plus")
    rng = np.random.default_rng(9)
    t = rng.uniform(0.5, 1.5, 30)
    x = np.column_stack([rng.uniform(0.5, 1.5, 30), rng.uniform(-0.5, 0.5, 30),
                         rng.uniform(-1, 1, 30)])
    res = spec.evaluate_batch(t, x)
    rc = spec.closed_form(t, x)
    uc = spec.profile(rc, t)[0]
    ok = res.status == 0
    assert ok.sum() >= 25
    assert np.max(np.abs(res.state[ok] - uc[ok])) <= 1e-12
    assert np.max(np.abs(res.r[ok] - rc[ok])) <= 1e-12
    # the printed plus sheet has u2 = (x2 + sqrt((x2)^2 + 4 t x1))/t
    root = np.sqrt(x[:, 1] ** 2 + 4 * t * x[:, 0])
    assert np.max(np.abs(res.state[ok, 2] - ((x[:, 1] + root) / t)[ok])) <= 1e-12


def test_branches_differ_and_auto_continuous():
    t = np.array([1.0])
    x = np.array([[1.0, 0.3, 0.0]])
    up = make_family("R2_S1S2_MA", branch="plus").evaluate_batch(t, x).state[0]
    um = make_family("R2_S1S2_MA", branch="minus").evaluate_batch(t, x).state[0]
    assert abs(up[2] - um[2]) > 0.1
    # the auto sheet converges to the finite t -> 0+ limit w = x1/x2
    tsmall = np.array([2e-5])
    ua = make_family("R2_S1S2_MA", branch="auto").evaluate_batch(tsmall, x).state[0]
    w_inf = x[0, 0] / x[0, 1]
    assert abs(ua[1] - (-(w_inf**2))) <= 1e-2
    assert abs(ua[2] - (-2 * w_inf)) <= 1e-2
    with pytest.raises(ConstraintError, match="branch"):
        make_family("R2_S1S2_MA", branch="bogus")


def _first_fold_time(spec, wave, r=np.linspace(-10.0, 10.0, 100001)):
    """Oracle for an acoustic wave's singular time below 0: bisect t in [-10, 0]
    on min_r (1 - eps (1 + kappa) f'(r) t), with f' read from ``profile_jac``
    on a fine scan of r (the other invariants held at 0)."""
    rr = np.zeros((len(r), spec.n_waves))
    rr[:, wave] = r
    df = spec.profile_jac(rr, np.zeros(len(r)))[:, 0, wave]
    eps_1k = spec.params.get("epsilon", 1) * (1.0 + spec.gas.kappa)
    lo, hi = -10.0, 0.0
    assert np.min(1.0 - eps_1k * df * lo) < 0.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if np.min(1.0 - eps_1k * df * mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_singular_time_formulas():
    assert make_family("R2_E1E2", A1=0.25, A2=0.25).singular_times() == [1.0, 1.0]
    # the soliton bump folds first on its steepest characteristic: 1/((1 + kappa) max pa'),
    # with pa' read from ``profile_jac`` on a fine scan of r1
    r = np.zeros((200001, 2))
    r[:, 0] = np.linspace(-20.0, 20.0, len(r))
    for over in ({}, {"A1": 1.0, "B1": 1.0}, {"A1": 0.5, "B1": 3.0}, {"A1": -0.25},
                 {"B1": 0.5}, {"C1": 2.0}):
        spec = make_family("R2_E1S2", profile="soliton", **over)
        slope = np.max(spec.profile_jac(r, np.zeros(len(r)))[:, 0, 0])
        (tstar,) = spec.singular_times()
        assert abs(tstar - 1.0 / ((1.0 + spec.gas.kappa) * slope)) <= 1e-6 * tstar, over
    assert make_family("R2_E1S2", profile="soliton", A1=0.0).singular_times() == []
    assert make_family("R1_S").singular_times() == []
    # exp-kink catastrophes sit at negative times, reported with sign, at every rank
    for fid, k in (("R1_E", 1), ("R2_E1E2", 2), ("R3_E1E2E3", 3)):
        for a, b in ((1.0, 1.0), (0.5, 3.0)):
            amps = {f"{name}{i}": v for i in range(1, k + 1) for name, v in (("A", a), ("B", b))}
            spec = make_family(fid, profile="expkink", **amps)
            want = [_first_fold_time(spec, i) for i in range(k)]
            assert np.allclose(spec.singular_times(), want, rtol=1e-6, atol=0.0), fid
    # the r = 0 sheet folds later, at -2^2.5 / 4 = -1.414 for A = B = 1
    assert abs(_first_fold_time(make_family("R1_E", profile="expkink", A1=1.0, B1=1.0), 0)
               + 1.299) <= 1e-3
    # a wave with zero amplitude never steepens and reports no time
    assert make_family("R3_E1E2E3", A3=0.0).singular_times() == [1.0, 1.0]
    # eps = -1 reverses the wave: (eps (1 + kappa) A)^-1
    assert make_family("R1_E", epsilon=-1).singular_times() == [-1.0]


def test_r1_e_negative_epsilon_is_a_solution():
    # u = eps kappa a e: with eps = -1 the velocity points along -e
    from riemannwaves.verify import GridSpec, residual_exact, residual_fd
    spec = make_family("R1_E", epsilon=-1)
    grid = GridSpec.from_window(spec.default_grid_window())
    assert residual_exact(spec, grid=grid).max_normalized <= 1e-8
    assert residual_fd(spec, grid=grid).passed(1e-5)
    rng = np.random.default_rng(16)
    t = rng.uniform(0.02, 0.5, 100)
    x = rng.uniform(-1.0, 1.0, (100, 3))
    res = spec.evaluate_batch(t, x)
    ok = res.status == 0  # about half the points have a > 0
    assert ok.sum() >= 30
    uc = spec.profile(spec.closed_form(t[ok], x[ok]), t[ok])[0]
    assert np.max(np.abs(uc - res.state[ok])) <= 1e-10
    for bad in (0, 2):  # only eps = +-1 gives an acoustic covector
        with pytest.raises(ConstraintError):
            make_family("R1_E", epsilon=bad)


def test_closed_forms_agree_with_newton_path():
    rng = np.random.default_rng(15)
    for fid in REGISTRY_IDS:
        spec = make_family(fid)
        if spec.closed_form is None:
            continue
        win = spec.default_grid_window()
        t = rng.uniform(win["t"][0] + 0.02, win["t"][1], 20)
        x = np.column_stack([rng.uniform(*win[f"x{i}"], 20) for i in (1, 2, 3)])
        res = spec.evaluate_batch(t, x)
        ok = res.status == 0
        if not ok.any():
            continue
        uc = spec.profile(spec.closed_form(t[ok], x[ok]), t[ok])[0]
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


@pytest.mark.parametrize("params", [{}, {"B1": 0.0, "C1": 0.0}, {"profile": "nilpotent"},
                                    {"profile": "nilpotent", "D1": 0.0}])
def test_time_only_family_declares_the_rank_of_its_field(params):
    # B1 = C1 = 0 and D1 = 0 give Df = 0: a constant state, rank 0
    spec = make_family("RK_TIME_A", **params)
    rng = np.random.default_rng(41)
    t = rng.uniform(0, 2, 300)
    x = rng.uniform(-1, 1, (300, 3))
    res = spec.evaluate_batch(t, x)
    ok = res.status == STATUS_OK
    assert ok.sum() >= 200
    assert np.all(np.linalg.matrix_rank(res.jac[ok], rtol=1e-8) == spec.rank)


def test_time_only_family_jacobian_invariants():
    spec = make_family("RK_TIME_A")
    df = spec.profile_jac(np.zeros((1, 2)), np.zeros(1))[0, 1:3, :]  # constant Df
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


def test_monge_ampere_homogeneous_stream():
    psi = homogeneous_stream(np.cos, lambda w: -np.sin(w), lambda w: -np.cos(w))
    rng = np.random.default_rng(29)
    samples = np.column_stack([rng.uniform(0.5, 2.0, 200), rng.uniform(-2, 2, 200)])
    assert monge_ampere_residual(psi, 0.0, samples) <= 1e-8


def test_monge_ampere_quadratic_and_registered_streams():
    c = 1.7
    h = quadratic_stream(c)
    samples = np.random.default_rng(31).uniform(-2, 2, (100, 2))
    assert monge_ampere_residual(h, c * c, samples) <= 1e-12
    # the stream functions of the catalog families
    ma = make_family("R2_S1S2_MA")
    pts = np.column_stack([np.random.default_rng(1).uniform(0.5, 2, 100),
                           np.random.default_rng(2).uniform(0.5, 2, 100)])
    assert monge_ampere_residual(*family_stream(ma), pts) <= 1e-8
    rk = make_family("RK_TIME_A")
    assert monge_ampere_residual(*family_stream(rk), samples) <= 1e-8
    nil = make_family("RK_TIME_A", profile="nilpotent")
    assert monge_ampere_residual(*family_stream(nil), samples) <= 1e-8


def test_stream_families_profile_is_the_stream_gradient():
    r = np.random.default_rng(37).uniform(0.5, 2.0, (200, 2))
    specs = [make_family("R2_S1S2_MA", n=n) for n in (2, 3, -1)]
    specs += [make_family("RK_TIME_A", profile=preset) for preset in ("quadratic", "nilpotent")]
    for spec in specs:
        assert stream_profile_gap(spec, r) <= 1e-13, (spec.id, spec.params)


def test_monge_ampere_requires_analytic_hessian():
    samples = np.random.default_rng(37).uniform(-1, 1, (50, 2))
    with pytest.raises(ValueError, match="no analytic hessian"):
        monge_ampere_residual(pf.kink2(1.0), 1.0, samples)
    with pytest.raises(ValueError, match="no analytic hessian"):
        monge_ampere_residual(lambda p, q: 0.5 * (p * p + q * q), 1.0, samples)


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


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("gamma", [2.5, 3.0])
def test_three_acoustic_waves_above_gamma_2_name_the_angle_lock(gamma, capsys):
    # e_i.e_j = -1/kappa for three unit directions needs kappa >= 2
    with pytest.raises(ConstraintError, match=r"kappa >= 2 \(gamma <= 2\)"):
        make_family("R3_E1E2E3", gamma=gamma)
    assert cli_main(["verify", "--family", "R3_E1E2E3", "--set", f"gamma={gamma}"]) == 3
    assert "angle constraint" in capsys.readouterr().err


@pytest.mark.filterwarnings("error")
def test_three_acoustic_waves_build_at_gamma_2():
    spec = make_family("R3_E1E2E3", gamma=2.0)
    evecs = [np.asarray(spec.params[f"e{i}"]) for i in (1, 2, 3)]
    for i in range(3):
        for j in range(i + 1, 3):
            assert abs(evecs[i] @ evecs[j] + 0.5) <= 1e-12


def test_warm_start_guess_aligns_with_validity_mask():
    # a provided warm-start guess covers all N points; points dropped by the
    # validity mask must not shift the alignment of the remaining guesses
    spec = make_family("R2_S1S2_MA", branch="plus")
    t = np.array([1.0, -0.5, 1.2])  # middle point invalid (t < 0)
    x = np.array([[1.0, 0.2, 0.0], [1.0, 0.2, 0.0], [1.2, -0.1, 0.0]])
    guess = np.array([[0.9, -0.3], [0.0, 0.0], [1.1, -0.2]])
    res = spec.evaluate_batch(t, x, guess=guess)
    assert list(res.status) == [0, 3, 0]
    ref = spec.evaluate_batch(t[[0, 2]], x[[0, 2]])
    assert np.allclose(res.r[[0, 2]], ref.r, atol=1e-12)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", ["nan_t", "inf_x", "minus_inf_x"])
@pytest.mark.parametrize("fid", REGISTRY_IDS)
def test_non_finite_points_are_invalid_before_any_family_callable(fid, bad):
    # a non-finite t or x gives its row "invalid" and leaves the other rows
    # as they are; nothing raises or warns, with or without the validity check
    rng = np.random.default_rng(41)
    spec = make_family(fid)
    win = spec.default_grid_window()
    t = rng.uniform(*win["t"], 8)
    x = np.column_stack([rng.uniform(*win[f"x{i}"], 8) for i in (1, 2, 3)])
    rows = [1, 4, 6]
    if bad == "nan_t":
        t[rows] = np.nan
    else:
        x[rows, [0, 1, 2]] = np.inf if bad == "inf_x" else -np.inf
    finite = np.setdiff1d(np.arange(8), rows)
    for ignore in (False, True):
        res = spec.evaluate_batch(t, x, ignore_validity=ignore)
        clean = spec.evaluate_batch(t[finite], x[finite], ignore_validity=ignore)
        assert (res.status[rows] == STATUS_INVALID).all()
        assert np.array_equal(res.status[finite], clean.status)
        ok = res.status == STATUS_OK
        assert np.isfinite(res.state[ok]).all() and np.isfinite(res.jac[ok]).all()
    assert not spec.validity_mask(t, x)[rows].any()


@pytest.mark.parametrize("fid", REGISTRY_IDS)
def test_evaluate_without_jacobian_keeps_every_other_field(fid):
    # jacobian=False skips only the Jacobi assembly: the solved fields are
    # bit-identical to the default call, and jac is absent rather than NaN
    rng = np.random.default_rng(29)
    spec = make_family(fid)
    win = spec.default_grid_window()
    t = rng.uniform(*win["t"], 24)
    x = np.column_stack([rng.uniform(*win[f"x{i}"], 24) for i in (1, 2, 3)])
    full = spec.evaluate_batch(t, x)
    # a second instance, so a custom evaluator's memo cannot serve the call
    bare = make_family(fid).evaluate_batch(t, x, jacobian=False)
    assert (full.status == 0).any()
    assert bare.jac is None
    assert full.jac is not None and full.jac.shape == (24, 4, 4)
    assert (bare.bracket is None) == (full.bracket is None) == (spec.custom_eval is not None)
    names = ["r", "state", "cond_det", "status"]
    if full.bracket is not None:
        names.append("bracket")
    for name in names:
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
    # the closed-form dr/du is the full (N,k,4,4) derivative stack contracted
    # with the points, bit for bit; a custom covector has none, and its
    # family solves through custom_eval
    if fid == "custom-stack":
        (_, waves_jac, dr_du), custom = _custom_stack(), True
    else:
        spec = make_family(fid)
        waves_jac, dr_du, custom = spec.waves_jac, spec.dr_du, spec.custom_eval is not None
    if custom:
        assert dr_du is None
        return
    for seed in (3, 4):
        u, X = _states_and_points(n, seed)
        for pts in (X, np.column_stack([np.zeros(n), X[:, 1:]])):
            got = dr_du(u, pts)
            assert got.shape == (n, waves_jac(u).shape[1], 4)
            assert np.array_equal(got, np.einsum("nkia,ni->nka", waves_jac(u), pts))


def test_custom_covector_without_custom_eval_is_a_constraint_error():
    spec = make_family("R3_E1S2S3_v2")
    with pytest.raises(ConstraintError, match="custom_eval"):
        dataclasses.replace(spec, custom_eval=None)


def _v1_fshift(a1, b1):  # v1's linear amplitude A1 s + B1, from its builder
    return make_family("R3_E1S2S3_v1", {"A1": a1, "B1": b1}).custom_eval.f


# per preset: its factory, the registry values (the family that ships them)
# and one off-default set
FN1_PRESETS = {
    "linear": (pf.linear, (0.25,), (-1.7,)),                              # R1_E
    "kink": (pf.kink, (0.25, 1.0), (-1.3, 2.5)),                          # R2_S1S2_ADD
    "expkink": (pf.expkink, (0.25, 1.0), (0.8, -1.7)),                    # R1_E
    "sech_bump": (pf.sech_bump, (1.0,), (0.6,)),                          # R1_S
    "bump": (pf.bump, (0.25, 1.0), (-0.9, 0.4)),                          # R2_E1S2
    "coshwell": (pf.coshwell, (0.25, 1.0, 1.0), (0.7, 0.3, -1.4)),        # R2_E1S2
    "coshbump": (pf.coshbump, (0.25, 1.0, 1.0), (-0.6, 2.0, 0.7)),        # v1
    "periodic_well": (pf.periodic_well, (0.5, 0.5, 1.0), (0.7, -0.9, 5.0)),  # v2
    "snwell": (pf.snwell, (0.5, 1.0, 1.0, np.sqrt(0.5)), (0.3, 2.0, 1.5, 0.9)),  # R2_S1S2S3
    "snkink": (pf.snkink, (0.5, 1.0, 1.0, np.sqrt(0.5)), (-0.4, 0.5, 0.8, 0.3)),  # R2_S1S2S3
    "v1_fshift": (_v1_fshift, (0.25, 1.0), (-0.8, 0.3)),                  # v1
}
FN2_PRESETS = {
    "kink2": (pf.kink2, (0.5,), (-1.3,)),                                 # v1
    "theta_concentric": (pf.theta_concentric, (1.0, 1.0, 0.5), (0.8, 2.0, 1.5)),  # v1
    "theta_solitary": (pf.theta_solitary, (0.5,), (-0.7,)),               # v1
}
PRESET_CASES = [(name, which) for name in (*FN1_PRESETS, *FN2_PRESETS)
                for which in ("registry", "off-default")]


def _central(f, s):  # central difference of f at s, step 1e-6 (1 + |s|)
    h = 1e-6 * (1.0 + np.abs(s))
    return (f(s + h) - f(s - h)) / (2.0 * h)


def _assert_derivative(d, fd):
    assert np.all(np.abs(d - fd) <= 1e-6 * np.max(np.abs(d))), np.max(np.abs(d - fd))


@pytest.mark.parametrize("name,which", PRESET_CASES, ids=[f"{n}-{w}" for n, w in PRESET_CASES])
def test_preset_jet_is_its_value_bitwise_and_its_derivative(name, which):
    # every preset's jet: its first part is f's value bit for bit, its
    # derivatives match central differences of f to 1e-6 of their size
    if name in FN1_PRESETS:
        make, *values = FN1_PRESETS[name]
        fprof = make(*values[which == "off-default"])
        s = np.linspace(-8.0, 8.0, 1601)
        f, df = fprof.jet(s)
        assert f.tobytes() == fprof(s).tobytes()
        _assert_derivative(df, _central(fprof, s))
        return
    make, *values = FN2_PRESETS[name]
    fprof = make(*values[which == "off-default"])
    p, q = (a.ravel() for a in np.meshgrid(np.linspace(-3.0, 3.0, 41), np.linspace(-2.9, 3.1, 41)))
    if name == "theta_concentric":  # off the origin and the jump circles, cos(y) = 0
        y = 0.5 * np.log(np.abs(values[which == "off-default"][2] * (p * p + q * q)))
        keep = (p * p + q * q > 0.25) & (np.abs(np.cos(y)) > 0.2)
        p, q = p[keep], q[keep]
    f, dp, dq = fprof.jet(p, q)
    assert f.tobytes() == fprof(p, q).tobytes()
    _assert_derivative(dp, _central(lambda a: fprof(a, q), p))
    _assert_derivative(dq, _central(lambda b: fprof(p, b), q))


def _window_points(spec, n, seed):
    win = spec.default_grid_window()
    rng = np.random.default_rng(seed)
    t = rng.uniform(*win["t"], n)
    return t, np.column_stack([rng.uniform(*win[f"x{i}"], n) for i in (1, 2, 3)])


JET_CASES = [(f"{fid}-{preset}", fid, {} if preset is None else {"profile": preset})
             for fid in REGISTRY_IDS for preset in _REGISTRY[fid][2].get("profile", (None,))]
# e1 x m1 = (0.8, 0, -0.6): the defaults' l1_3 = 0 hides the l1_3 terms of the jet
JET_CASES.append(("R2_S1S2_ADD-kink-l1_3_nonzero", "R2_S1S2_ADD", {"e1": (0.6, 0.0, 0.8)}))


@pytest.mark.parametrize("fid,params", [c[1:] for c in JET_CASES], ids=[c[0] for c in JET_CASES])
def test_profile_jet_derivative_matches_central_differences(fid, params):
    # df/dr from the jet against central differences of its state, at the
    # invariants of seeded solved points of the default window (RK_TIME_A's
    # profile depends on t explicitly: there t runs over (0, 2], never 0)
    spec = make_family(fid, params)
    t, x = _window_points(spec, 200, seed=24)
    ok = spec.evaluate_batch(t, x, jacobian=False).status == STATUS_OK
    assert ok.sum() >= 50
    r, t = spec.evaluate_batch(t[ok], x[ok], jacobian=False).r, t[ok]
    assert (t != 0.0).all()
    u, fr = spec.profile(r, t)
    fd = np.empty_like(fr)
    for a in range(r.shape[1]):
        h = 1e-5 * (1.0 + np.abs(r[:, a]))
        rp, rm = r.copy(), r.copy()
        rp[:, a] += h
        rm[:, a] -= h
        fd[:, :, a] = (spec.profile(rp, t)[0] - spec.profile(rm, t)[0]) / (2.0 * h[:, None])
    if fid == "R3_E1S2S3_v2":
        # v2's jet is its invariant chart, whose second part is the wave
        # decomposition du = Phi lam: Phi = (df/dr) (I_3 - r_u df/dr)^-1
        X = np.column_stack([*spec.custom_eval.invariants_to_point(r), np.zeros(len(r))])
        ru = np.einsum("nkia,ni->nka", spec.waves_jac(u), X)
        fd = fd @ np.linalg.inv(np.eye(3) - ru @ fd)
    assert np.all(np.abs(fr - fd) <= 1e-6 * (1.0 + np.abs(fr))), np.max(np.abs(fr - fd))


@pytest.mark.parametrize("fid", REGISTRY_IDS)
def test_all_valid_batch_equals_its_rows_beside_a_non_finite_point(fid):
    # the all-valid batch returns the solve's arrays, a mixed one scatters
    # them into NaN-filled ones: the shared rows hold the same bits
    spec = make_family(fid)
    t, x = _window_points(spec, 60, seed=25)
    valid = spec.validity_mask(t, x)
    t, x = t[valid], x[valid]
    whole = spec.evaluate_batch(t, x)
    mixed = spec.evaluate_batch(np.insert(t, 3, np.nan), np.insert(x, 3, 0.0, axis=0))
    rows = np.arange(len(t) + 1) != 3
    assert mixed.status[3] == STATUS_INVALID and (whole.status == STATUS_OK).sum() >= 15
    for name in ("r", "state", "jac", "cond_det", "status", "bracket"):
        got, want = getattr(mixed, name), getattr(whole, name)
        assert (got is None) == (want is None), name
        if want is not None:
            assert got[rows].tobytes() == want.tobytes(), name

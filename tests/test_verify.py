"""Verifier: residual reports, convergence order, catastrophe probe."""

import numpy as np
import pytest

from riemannwaves import cli, solver
from riemannwaves.catalog import REGISTRY_IDS, base, make_family
from riemannwaves.catalog.base import FamilySpec, PotentialWave
from riemannwaves.fluid import GasParams
from riemannwaves.solver import STATUS_OK, damped_newton
from riemannwaves.verify import (
    COND_SKIP,
    EmptyReportError,
    GridSpec,
    _keep_mask,
    catastrophe_probe,
    pde_residual,
    residual_exact,
    residual_fd,
)

SMALL = (3, 5, 5, 5)


def constant_family():
    """Constant-state member of the vortex family: exact zeros everywhere."""
    return make_family("R1_S", A1=0.0, A2=0.0)


def corrupted_e1e2(delta=0.1):
    """Two acoustic waves with the locked angle deliberately perturbed.

    make_family rejects this configuration, so the family is assembled from
    the raw building blocks; the verifier must flag it loudly.
    """
    gas = GasParams()
    kappa = gas.kappa
    e1 = np.array([1.0, 0.0, 0.0])
    phi = np.arccos(-1.0 / kappa) + delta
    e2 = np.array([np.cos(phi), np.sin(phi), 0.0])
    s1 = s2 = 0.25

    def jet(r, t):
        a1, a2 = s1 * r[:, 0], s2 * r[:, 1]
        fr = np.empty((len(r), 4, 2))
        fr[:, 0, 0], fr[:, 0, 1] = s1, s2
        fr[:, 1:, 0] = kappa * s1 * e1
        fr[:, 1:, 1] = kappa * s2 * e2
        return np.column_stack([a1 + a2, kappa * (a1[:, None] * e1 + a2[:, None] * e2)]), fr

    return FamilySpec(id="corrupted", rank=2, description="angle broken",
                      params={}, gas=gas, profile=jet,
                      wave_list=[PotentialWave(e=e1), PotentialWave(e=e2)],
                      probe_x=-(e1 + e2), default_window={"t": (0.0, 0.45)})


def test_constant_family_exact_zero_and_fd_rounding():
    spec = constant_family()
    grid = GridSpec.from_window(spec.default_grid_window(), counts=(2, 2, 2, 2))
    rex = residual_exact(spec, grid=grid)
    assert rex.max_residual == 0.0
    rfd = residual_fd(spec, grid=grid)
    assert rfd.max_residual <= 1e-13


def test_corrupted_family_flagged():
    spec = corrupted_e1e2()
    grid = GridSpec.from_window(spec.default_grid_window(), counts=SMALL)
    rep = residual_exact(spec, grid=grid)
    assert rep.max_normalized > 1e-3


def test_exact_sharper_than_fd():
    spec = make_family("R2_E1E2")
    grid = GridSpec.from_window(spec.default_grid_window(), counts=SMALL)
    rex = residual_exact(spec, grid=grid)
    rfd = residual_fd(spec, grid=grid)
    assert rex.max_residual <= rfd.max_residual + 1e-12


def test_fd_grid_spacing_guard():
    spec = make_family("R2_E1E2")
    grid = GridSpec(t=(0, 0.4, 3), x1=(0, 2e-4, 2), x2=(-1, 1, 3), x3=(-1, 1, 3))
    with pytest.raises(ValueError):
        residual_fd(spec, grid=grid, h=1e-4)


def test_fd_convergence_order_second_order():
    spec = make_family("R2_S1S2_MA", branch="plus")
    grid = GridSpec.from_window(spec.default_grid_window(), counts=SMALL)
    # measured order from the residuals at h and h/2 (2 for a central stencil)
    r1 = residual_fd(spec, grid=grid, h=1e-4)
    r2 = residual_fd(spec, grid=grid, h=0.5e-4)
    order = np.log2(r1.max_residual / r2.max_residual)
    assert 1.7 <= order <= 2.3


def test_empty_report_error():
    spec = make_family("R2_S1S2_MA", branch="plus")  # invalid for t <= 0
    grid = GridSpec(t=(-0.5, -0.1, 3), x1=(0.5, 1.5, 3), x2=(-0.5, 0.5, 3), x3=(0, 0, 1))
    with pytest.raises(EmptyReportError):
        residual_exact(spec, grid=grid)


def test_skipped_points_are_counted():
    spec = make_family("R1_E")
    grid = GridSpec.from_window(spec.default_grid_window(), counts=SMALL)
    rep = residual_exact(spec, grid=grid)
    assert rep.n_points + rep.n_skipped == 3 * 5 * 5 * 5
    assert rep.n_skipped > 0  # half-space has a <= 0
    assert rep.skip_reasons.get("invalid", 0) > 0


def test_near_singular_points_are_skipped_with_their_reason():
    # solved points just short of the first fold, on the probe ray, whose implicit
    # determinant is below COND_SKIP: counted as near_singular_cond, left out of the stats
    spec = make_family("R2_E1E2", profile="kink")
    t = spec.singular_times()[0] * (1.0 - 10.0 ** -np.linspace(5.5, 9.0, 400))
    x = np.tile(spec.probe_ray(), (len(t), 1))
    res = spec.evaluate_batch(t, x)
    solved = res.status == STATUS_OK
    near = solved & (np.abs(res.cond_det) < COND_SKIP)
    assert near.sum() >= 10
    rep = residual_exact(spec, points=(t, x))
    assert rep.skip_reasons["near_singular_cond"] == near.sum()
    assert rep.n_points == solved.sum() - near.sum()
    assert rep.n_points + rep.n_skipped == len(t)


def test_snoidal_divergence_free_and_constant_speed():
    spec = make_family("R2_S1S2S3")
    rng = np.random.default_rng(3)
    t = rng.uniform(0, 3, 100)
    x = rng.uniform(-2, 2, (100, 3))
    res = spec.evaluate_batch(t, x)
    div = res.jac[:, 1, 1] + res.jac[:, 2, 2] + res.jac[:, 3, 3]
    assert np.max(np.abs(div)) <= 1e-8
    assert np.max(np.abs(res.state[:, 0] - spec.params["a0"])) <= 1e-14
    # time derivative of the sound speed vanishes identically
    assert np.max(np.abs(res.jac[:, 0, :])) <= 1e-14


def test_time_only_family_trace_identity():
    # d/dt [ ln( a(t)^kappa det(I + t Df) ) ] = 0 along sampled trajectories
    spec = make_family("RK_TIME_A")
    df = spec.profile_jac(np.zeros((1, 2)), np.zeros(1))[0, 1:3, :]  # constant Df
    kappa = spec.gas.kappa
    a1 = spec.params["A1"]

    def logq(t):
        a = a1 * ((1 + spec.params["C1"] * t) ** 2 + spec.params["B1"] * t**2) ** (-1 / kappa)
        return kappa * np.log(a) + np.log(np.linalg.det(np.eye(2) + t * df))

    ts = np.linspace(0.0, 2.0, 41)
    h = 1e-6
    for t in ts:
        d = (logq(t + h) - logq(t - h)) / (2 * h)
        assert abs(d) <= 1e-8


def test_probe_r1e_within_one_percent():
    rep = catastrophe_probe(make_family("R1_E"))
    assert rep.applicable
    assert 0.99 <= rep.empirical_time <= 1.01
    assert rep.rel_gap <= 0.01


@pytest.mark.parametrize("fid,params", [
    ("R1_E", dict(profile="kink")),
    ("R2_E1E2", dict(profile="kink")),
    ("R3_E1E2E3", dict(profile="kink")),
    ("R1_E", dict(profile="kink", epsilon=-1, A1=-0.25)),
    ("R1_E", dict(profile="expkink", epsilon=-1)),
    ("R1_E", dict(profile="expkink", A1=-0.25)),
    ("R2_E1E2", dict(profile="expkink", A1=-0.25, A2=-0.25)),
    ("R3_E1E2E3", dict(profile="expkink", A1=-0.25, A2=-0.25, A3=-0.25)),
    ("R2_E1S2", dict(profile="soliton")),
    ("R2_E1S2", dict(profile="soliton", A1=-0.25)),
    ("R2_E1S2", dict(profile="soliton", A1=0.5, B1=3.0)),
])
def test_probe_finds_the_fold_of_bounded_acoustic_profiles(fid, params):
    # the fold sits on one characteristic (r = 0 for kink, ln 2 / B for
    # expkink, 1 - sign(A) / sqrt(2 B) for the soliton bump); a ray that
    # misses it reads rel_gap 0.5
    rep = catastrophe_probe(make_family(fid, **params))
    assert rep.applicable and rep.rel_gap <= 1e-4


def test_probe_not_applicable_for_bounded_families():
    rep = catastrophe_probe(make_family("R1_S"))
    assert not rep.applicable
    assert rep.formula_times == []


def test_probe_soliton_bounded_fields_unbounded_derivatives():
    spec = make_family("R2_E1S2", profile="soliton", A1=1.0, B1=1.0)
    rep = catastrophe_probe(spec)
    assert rep.applicable and rep.rel_gap <= 0.01
    # derivative norms grow without bound along the schedule...
    finite = np.isfinite(rep.jac_norms)
    assert np.max(rep.jac_norms[finite]) > 1e3
    # ...while the fields stay bounded by twice their initial magnitude
    tstar = rep.probe_time
    x = rep.ray[None, :]
    res0 = spec.evaluate_batch(np.zeros(1), x)
    cap = 2.0 * (1.0 + np.max(np.abs(res0.state)))
    for frac in (0.5, 0.9, 0.99, 0.999):
        res = spec.evaluate_batch(np.array([tstar * frac]), x, ignore_validity=True)
        assert np.max(np.abs(res.state)) <= cap


def test_pde_residual_functional_matches_trace_form():
    # residual functional agrees with tr(A^mu du) assembled from the matrices
    from riemannwaves.fluid import StateVec, coefficient_matrices
    rng = np.random.default_rng(7)
    gas = GasParams()
    for _ in range(10):
        state = np.concatenate([[rng.uniform(0.5, 2)], rng.normal(0, 1, 3)])
        jac = rng.normal(size=(4, 4))
        res = pde_residual(state[None], jac[None], gas.kappa)[0]
        mats = coefficient_matrices(StateVec.from_array(state), gas)
        expect = jac[:, 0].copy()
        for i, m in enumerate(mats):
            expect += m @ jac[:, i + 1]
        assert np.max(np.abs(res - expect)) <= 1e-12


def test_grid_odometer_order():
    grid = GridSpec(t=(0, 1, 2), x1=(0, 1, 2), x2=(0, 0, 1), x3=(0, 1, 2))
    tv, xv = grid.points()
    assert np.allclose(tv[:4], [0, 0, 0, 0])       # t slowest
    assert np.allclose(xv[:2, 2], [0, 1])          # x3 fastest
    assert np.allclose(xv[:4, 0], [0, 0, 1, 1])


def test_jacobi_assembly_only_where_read(monkeypatch, tmp_path):
    # the probe's bisection and `sample` never read jac, so they must not
    # assemble it; the exact route, the FD centre and the probe schedule do
    calls = []
    real = base.jacobi_batch

    def counted(*args, **kwargs):
        calls.append(len(args[4]))
        return real(*args, **kwargs)

    monkeypatch.setattr(base, "jacobi_batch", counted)
    spec = make_family("R1_E")
    grid = GridSpec.from_window(spec.default_grid_window(), counts=SMALL)

    # the FD route assembles once, at the centre (the exact route's points),
    # for its predictor; the shifted solves assemble none
    residual_fd(spec, grid=grid)
    residual_exact(spec, grid=grid)
    assert len(calls) == 2 and calls[0] == calls[1] > 0
    calls.clear()
    rep = catastrophe_probe(spec)
    assert rep.applicable and 0 < len(calls) <= len(rep.schedule)
    calls.clear()
    assert cli.main(["sample", "--family", "R1_E", "--out", str(tmp_path / "s.csv")]) == 0
    assert calls == []


def _with_forced_jacobian(spec):
    """Make ``spec`` assemble Jacobi matrices whatever its callers ask for."""
    evaluate = spec.evaluate_batch

    def evaluate_batch(*args, jacobian=True, **kwargs):
        return evaluate(*args, **kwargs)

    spec.evaluate_batch = evaluate_batch
    return spec


def _consumer_outputs(spec, fid, out, monkeypatch):
    """Exact and FD reports, probe and `sample` CSV bytes of one spec."""
    grid = GridSpec.from_window(spec.default_grid_window(), counts=SMALL)
    exact = residual_exact(spec, grid=grid)
    fd = residual_fd(spec, grid=grid)
    probe = catastrophe_probe(spec)
    monkeypatch.setattr(cli, "make_family", lambda *_: spec)
    assert cli.main(["sample", "--family", fid, "--out", str(out)]) == 0
    return exact, fd, probe, out.read_bytes()


def _assert_same_outputs(got, ref):
    (exact, fd, probe, csv), (exact_ref, fd_ref, probe_ref, csv_ref) = got, ref
    for rep, rep_ref in ((exact, exact_ref), (fd, fd_ref)):
        assert rep.n_points > 0
        for name in ("eq_max", "eq_mean", "scale", "n_points", "n_skipped", "skip_reasons"):
            assert np.array_equal(getattr(rep, name), getattr(rep_ref, name)), name
    assert probe.applicable == probe_ref.applicable
    assert probe.empirical_time == probe_ref.empirical_time
    assert probe.rel_gap == probe_ref.rel_gap
    assert np.array_equal(probe.jac_norms, probe_ref.jac_norms)
    assert csv == csv_ref


@pytest.mark.parametrize("fid", ["R2_E1E2", "R2_S1S2S3", "R3_E1S2S3_v1"])
def test_consumers_unchanged_by_skipping_jacobians(fid, monkeypatch, tmp_path):
    _assert_same_outputs(
        _consumer_outputs(make_family(fid), fid, tmp_path / "skip.csv", monkeypatch),
        _consumer_outputs(_with_forced_jacobian(make_family(fid)), fid,
                          tmp_path / "forced.csv", monkeypatch))


@pytest.mark.parametrize("fid", ["R1_E", "R2_E1E2", "R3_E1E2E3"])
def test_solver_path_never_builds_derivative_stacks(fid, monkeypatch, tmp_path):
    # Newton and the Jacobi assembly read dr/du, never the (N,k,4,4) stack
    spec = make_family(fid)
    calls = []
    waves_jac = spec.waves_jac

    def counted(u):
        calls.append(len(u))
        return waves_jac(u)

    spec.waves_jac = counted
    grid = GridSpec.from_window(spec.default_grid_window(), counts=SMALL)
    assert residual_fd(spec, grid=grid).n_points > 0
    assert residual_exact(spec, grid=grid).n_points > 0
    assert catastrophe_probe(spec).applicable
    monkeypatch.setattr(cli, "make_family", lambda *_: spec)
    assert cli.main(["sample", "--family", fid, "--out", str(tmp_path / "s.csv")]) == 0
    assert calls == []


def _with_einsum_dr_du(spec):
    """Make ``spec`` contract its full derivative stack, the reference dr/du."""
    spec.dr_du = lambda u, X: np.einsum("nkia,ni->nka", spec.waves_jac(u), X)
    return spec


@pytest.mark.parametrize("fid", ["R1_E", "R2_E1E2", "R2_S1S2S3", "R3_E1E2E3", "RK_TIME_A"])
def test_consumers_unchanged_by_closed_form_dr_du(fid, monkeypatch, tmp_path):
    _assert_same_outputs(
        _consumer_outputs(make_family(fid), fid, tmp_path / "closed.csv", monkeypatch),
        _consumer_outputs(_with_einsum_dr_du(make_family(fid)), fid,
                          tmp_path / "einsum.csv", monkeypatch))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_v1_probe_and_fd_emit_no_runtime_warnings(tmp_path):
    # walking to the singular time divides by zero in the closed-form r3 and
    # the invariant gradients; the probe and status codes record those points
    out = tmp_path / "cat.json"
    assert cli.main(["catastrophe", "--family", "R3_E1S2S3_v1", "--out", str(out)]) == 0
    assert '"applicable": true' in out.read_text()
    spec = make_family("R3_E1S2S3_v1")
    grid = GridSpec.from_window(spec.default_grid_window(), counts=SMALL)
    assert np.isfinite(residual_fd(spec, grid=grid).max_normalized)


def test_fd_stencil_solves_only_the_points_the_centre_keeps(monkeypatch):
    sizes = []
    real = base.FamilySpec.evaluate_batch

    def counted(self, t, x, **kwargs):
        sizes.append(len(t))
        return real(self, t, x, **kwargs)

    monkeypatch.setattr(base.FamilySpec, "evaluate_batch", counted)
    spec = make_family("R1_E")
    grid = GridSpec.from_window(spec.default_grid_window(), counts=SMALL)
    rep = residual_fd(spec, grid=grid)
    assert rep.n_skipped > 0
    assert sizes == [3 * 5 * 5 * 5] + [rep.n_points] * 8


@pytest.mark.parametrize("fid,params", [("R1_E", {}), ("R3_E1S2S3_v1", {"profile": "concentric"})])
def test_fd_report_same_with_and_without_the_skipped_points(fid, params):
    # a point's stencil does not depend on the other points of the batch
    spec = make_family(fid, params)
    grid = GridSpec.from_window(spec.default_grid_window(), counts=SMALL)
    t, x = grid.points()
    full = residual_fd(spec, points=(t, x))
    centre = spec.evaluate_batch(t, x, jacobian=False)
    kept = _keep_mask(centre.status, centre.cond_det)
    assert full.n_skipped > 0 and not kept.all()
    sub = residual_fd(make_family(fid, params), points=(t[kept], x[kept]))
    assert sub.n_points == full.n_points
    assert np.array_equal(sub.eq_max, full.eq_max)
    assert np.array_equal(sub.eq_mean, full.eq_mean)


NEWTON_PATH = [fid for fid in REGISTRY_IDS if not fid.startswith("R3_E1S2S3_v")]


@pytest.mark.parametrize("fid", REGISTRY_IDS)
def test_fd_skip_reasons_name_every_skipped_point(fid):
    spec = make_family(fid)
    grid = GridSpec.from_window(spec.default_grid_window(), counts=SMALL)
    rep = residual_fd(spec, grid=grid)
    assert sum(rep.skip_reasons.values()) == rep.n_skipped
    assert rep.n_points + rep.n_skipped == 3 * 5 * 5 * 5


def test_fd_failed_stencils_have_their_own_reason():
    # on R3_E1E2E3's default grid the centre keeps points whose shifted
    # solves leave the a > 0 half-space
    rep = residual_fd(make_family("R3_E1E2E3"))
    assert rep.skip_reasons["stencil_invalid"] > 0
    assert rep.skip_reasons["invalid"] + rep.skip_reasons["stencil_invalid"] == rep.n_skipped


@pytest.mark.parametrize("fid", ["R2_S1S2_MA", "R1_S", "R3_E1E2E3"])
def test_fd_point_whose_step_is_lost_is_skipped(fid):
    # at x1 = 1e200, x1 +- h == x1: the x1 column would be 0 / 2h
    spec = make_family(fid)
    grid = GridSpec.from_window(spec.default_grid_window(), counts=SMALL)
    t, x = grid.points()
    ref = residual_fd(spec, points=(t, x))
    t_mid = 0.5 * sum(spec.default_grid_window()["t"])
    rep = residual_fd(make_family(fid), points=(np.append(t, t_mid),
                                                np.vstack([x, [1e200, 0.5, 0.5]])))
    assert rep.skip_reasons == {**ref.skip_reasons, "fd_step_lost": 1}
    assert rep.n_points == ref.n_points and rep.n_skipped == ref.n_skipped + 1
    assert np.array_equal(rep.eq_max, ref.eq_max)
    assert rep.passed(1e-5)


@pytest.mark.parametrize("n", [-4, -3, -2])
@pytest.mark.parametrize("branch", ["plus", "minus", "auto"])
def test_ma_negative_powers_keep_the_per_point_contract(n, branch):
    # n <= -2 puts points on r2 = 0, where w = r1/r2 blows up: brackets with
    # entries near 1e8 whose LU meets an exact zero pivot, and final brackets
    # that are not finite.  Neither may raise for the batch or leave a
    # non-finite value in an ok row, and every skipped point has its reason.
    spec = make_family("R2_S1S2_MA", n=n, branch=branch)
    for counts in (SMALL, (5, 11, 11, 11)):
        grid = GridSpec.from_window(spec.default_grid_window(), counts=counts)
        res = spec.evaluate_batch(*grid.points())
        ok = res.status == STATUS_OK
        assert ok.any()
        for name in ("r", "state", "cond_det", "jac"):
            assert np.isfinite(getattr(res, name)[ok]).all(), name
    for route in (residual_exact, residual_fd):  # on the sample grid
        rep = route(spec, grid=GridSpec.from_window(spec.default_grid_window(), counts=SMALL))
        assert sum(rep.skip_reasons.values()) == rep.n_skipped, route.__name__


def _with_profile_jac_offset(spec, delta):
    """Add ``delta`` to every entry of the jet's df/dr: Newton's bracket and
    the exact Jacobi matrices go wrong, the solved states stay solutions."""
    jet = spec.profile

    def offset(r, t):
        u, fr = jet(r, t)
        return u, fr + delta

    spec.profile = offset
    return spec


def _with_sound_speed_bump(spec, eps):
    """Add eps r1^2 to the jet's sound speed, and 2 eps r1 to its df/dr: a
    consistent implicit solution of an ansatz that does not solve the fluid
    system."""
    jet = spec.profile

    def bumped(r, t):
        u, fr = jet(r, t)
        u[:, 0] += eps * r[:, 0] ** 2
        fr[:, 0, 0] += 2.0 * eps * r[:, 0]
        return u, fr

    spec.profile = bumped
    return spec


@pytest.mark.parametrize("fid", ["R2_E1E2", "R2_S1S2S3"])
def test_fd_route_is_independent_of_the_exact_jacobian(fid):
    # the predictor reads the exact Jacobi matrices, but only to start Newton
    grid = GridSpec.from_window(make_family(fid).default_grid_window(), counts=SMALL)
    clean = residual_fd(make_family(fid), grid=grid)
    spec = _with_profile_jac_offset(make_family(fid), 1e-3)
    assert residual_exact(spec, grid=grid).max_normalized > 1e-4
    fd = residual_fd(spec, grid=grid)
    assert fd.passed(1e-5)
    assert (fd.n_points, fd.skip_reasons) == (clean.n_points, clean.skip_reasons)


def test_fd_stencil_with_a_non_finite_tangent_starts_from_the_centre():
    # NaN Jacobi rows at the centre give NaN tangents; those stencils must
    # start from r_c instead of failing on a NaN guess
    fid = "R2_E1E2"
    grid = GridSpec.from_window(make_family(fid).default_grid_window(), counts=SMALL)
    clean = residual_fd(make_family(fid), grid=grid)
    spec = make_family(fid)
    evaluate = spec.evaluate_batch

    def nan_jacobians(*args, **kwargs):
        res = evaluate(*args, **kwargs)
        if res.jac is not None:
            res.jac[::2, 1, 2] = np.nan
        return res

    spec.evaluate_batch = nan_jacobians
    rep = residual_fd(spec, grid=grid)
    assert (rep.n_points, rep.skip_reasons) == (clean.n_points, clean.skip_reasons)
    assert rep.passed(1e-5)


@pytest.mark.parametrize("fid", ["R1_S", "R2_E1E2"])
def test_fd_route_flags_a_wrong_ansatz(fid):
    spec = _with_sound_speed_bump(make_family(fid), 1e-3)
    grid = GridSpec.from_window(spec.default_grid_window(), counts=SMALL)
    assert residual_fd(spec, grid=grid).max_normalized > 1e-3


@pytest.mark.parametrize("fid", NEWTON_PATH)
def test_fd_stencil_solves_take_one_newton_step(fid, monkeypatch):
    # from the tangent predictor each shifted solve converges in one step:
    # the profile jet is evaluated at the guess and at the one iterate.  No
    # solve evaluates it once Newton's loop is done: the final refresh reads
    # the df/dr the loop carried
    spec = make_family(fid)
    assert spec.dr_du is not None
    rows, per_call, after_loop, at_loop_end = [], [], [], []
    jet, evaluate = spec.profile, spec.evaluate_batch

    def counted_jet(r, t):
        rows.append(len(r))
        return jet(r, t)

    def counted_newton(*args, **kwargs):
        out = damped_newton(*args, **kwargs)
        at_loop_end.append(len(rows))
        return out

    def counted_evaluate(t, x, **kwargs):
        rows.clear()
        res = evaluate(t, x, **kwargs)
        per_call.append(sum(rows) / len(t))
        after_loop.append(len(rows) - at_loop_end[-1])
        return res

    monkeypatch.setattr(solver, "damped_newton", counted_newton)
    spec.profile, spec.evaluate_batch = counted_jet, counted_evaluate
    residual_fd(spec, grid=GridSpec.from_window(spec.default_grid_window(), counts=SMALL))
    assert len(per_call) == 9
    assert max(per_call[1:]) <= 2.0
    assert after_loop == [0] * 9

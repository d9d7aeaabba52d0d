"""The two characteristic-based evaluators: accuracy, status and per-instance memo."""

import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from riemannwaves import cli
from riemannwaves.catalog import make_family, transported
from riemannwaves.catalog.transported import RotatingPolarizationEvaluator
from riemannwaves.solver import STATUS_NEAR_CATASTROPHE, STATUS_OK
from riemannwaves.verify import GridSpec, _keep_mask, residual_exact, residual_fd

V1, V2 = "R3_E1S2S3_v1", "R3_E1S2S3_v2"
ODE_FAMILIES = [(V2, {}), (V1, {"profile": "concentric"}), (V1, {"profile": "solitary"})]
ODE_IDS = ["v2", "v1-concentric", "v1-solitary"]
V1_PRESETS = ["concentric", "solitary"]


def _points(spec, n, seed):
    """Uniform points in the family's default window."""
    rng = np.random.default_rng(seed)
    win = spec.default_grid_window()
    cols = [rng.uniform(*win[axis], n) for axis in ("t", "x1", "x2", "x3")]
    return cols[0], np.column_stack(cols[1:])


def _stratified_points(rng, window, counts):
    """One uniform point per cell of a (t, x1, x2, x3) lattice over the window."""
    cells = np.meshgrid(*[np.arange(c) for c in counts], indexing="ij")
    axes = []
    for axis, (name, c) in enumerate(zip(("t", "x1", "x2", "x3"), counts)):
        lo, hi = window[name]
        cell = cells[axis].ravel()
        axes.append(lo + (hi - lo) * (cell + rng.uniform(size=cell.size)) / c)
    return axes[0], np.column_stack(axes[1:])


def _count_calls(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)
    monkeypatch.setattr(owner, name, counted)
    return calls


def _integration_name(ev):
    return "_integrate_foot" if isinstance(ev, RotatingPolarizationEvaluator) \
        else "r3_first_integral"


def _dop853_foot(ev, t, x3):
    """Foot X(0) and dX(0)/dx3 of dx/ds = u3(s, x), integrated backward from
    s = t by scipy's DOP853 together with the variational equation."""
    feet, sens = [], []
    for ti, xi in zip(t, x3):
        def rhs(s, y):
            r1, _ = ev.solve_r1(np.array([s]), np.array([y[0]]))
            df = ev.f.jet(r1)[1][0]
            d1 = 1.0 - (1.0 + 1.0 / ev.kappa) * df * s
            return [ev.f(r1)[0] + ev.u30, -df / d1 * y[1]]
        sol = solve_ivp(rhs, (ti, 0.0), [xi, 1.0], method="DOP853", rtol=1e-13, atol=1e-13)
        assert sol.success
        feet.append(sol.y[0, -1])
        sens.append(sol.y[1, -1])
    return np.array(feet), np.array(sens)


def _dop853_planar_foot(ev, t, x1, x2):
    """v2's foot y(0) and M = dy(0)/d(x1, x2), integrated backward from s = t
    by scipy's DOP853 with the variational equation; each right-hand side
    solves r1 at (s, y) by Newton."""
    feet, sens = [], []
    for ti, a, b in zip(t, x1, x2):
        def rhs(s, z):
            r1, _ = ev.solve_r1(np.array([s]), z[:1], z[1:2])
            fv, df = (v[0] for v in ev.F.jet(r1))
            c, sn = np.cos(fv), np.sin(fv)
            delta = 1.0 - df / ev.kappa * s - (z[0] * sn - z[1] * c) * df
            n = np.array([c, sn])
            dm = -df / delta * np.outer(n, n) @ z[2:].reshape(2, 2)
            return np.concatenate([[sn, -c], dm.ravel()])
        sol = solve_ivp(rhs, (ti, 0.0), [a, b, 1.0, 0.0, 0.0, 1.0], method="DOP853",
                        rtol=1e-13, atol=1e-13)
        assert sol.success
        feet.append(sol.y[:2, -1])
        sens.append(sol.y[2:, -1].reshape(2, 2))
    return np.array(feet), np.array(sens)


def _v1_foot(spec, t, x3):
    """(r1, r3, dr3/dt, dr3/dx3, ok) of a v1 evaluator at (t, x3)."""
    ev = spec.custom_eval
    r1, _ = ev.solve_r1(t, x3)
    return (r1,) + tuple(ev.solve_r3(t, x3, r1))


@pytest.mark.parametrize("fid,params", ODE_FAMILIES, ids=ODE_IDS)
def test_default_steps_match_refined_reference(fid, params):
    spec = make_family(fid, params)
    t, x = _points(spec, 24, seed=5)
    if fid == V1:
        # the first integral against an independent adaptive integration
        ev = spec.custom_eval
        r1, r3, dr3_dt, dr3_dx3, ok = _v1_foot(spec, t, x[:, 2])
        foot, sens = _dop853_foot(ev, t, x[:, 2])
        u3 = ev.f(r1) + ev.u30
        assert ok.all()
        assert np.max(np.abs(r3 - foot)) <= 1e-10
        assert np.max(np.abs(dr3_dx3 - sens)) <= 1e-10
        assert np.max(np.abs(dr3_dt + u3 * sens)) <= 1e-10
        return
    # the exact-route residual cannot see the integration error (v2's u3 row
    # holds by construction), so compare with a fresh evaluator at 8x the steps
    ref = make_family(fid, params)
    ref.custom_eval.ode_steps = 8 * spec.custom_eval.ode_steps
    got, want = spec.evaluate_batch(t, x), ref.evaluate_batch(t, x)
    ok = (got.status == STATUS_OK) & (want.status == STATUS_OK)
    assert ok.sum() >= 20
    assert np.array_equal(got.status, want.status)
    assert np.max(np.abs(got.state[ok] - want.state[ok])) <= 1e-10
    assert np.max(np.abs(got.jac[ok] - want.jac[ok])) <= 1e-10


def test_v2_foot_matches_dop853():
    # measured: foot 2.6e-13, M 5.9e-13
    ev = make_family(V2).custom_eval
    t, x = _points(make_family(V2), 24, seed=5)
    y, m, _, ok, _ = ev._foot(t, x[:, 0], x[:, 1])
    want_y, want_m = _dop853_planar_foot(ev, t, x[:, 0], x[:, 1])
    assert ok.all()
    assert np.max(np.abs(y - want_y)) <= 1e-10
    assert np.max(np.abs(m - want_m)) <= 1e-10


def test_v2_richardson_error_estimate():
    """RK4's error at 100 steps, estimated as |y(50) - y(100)| / 15 on 24
    default points: 2.6e-13 on the foot and 5.7e-13 on M (the DOP853
    comparison reads the same), with the observed order 4.0 from 25, 50 and
    100 steps."""
    spec = make_family(V2)
    t, x = _points(spec, 24, seed=5)
    feet = {}
    for steps in (25, 50, 100):
        ev = make_family(V2).custom_eval
        ev.ode_steps = steps
        feet[steps] = ev._foot(t, x[:, 0], x[:, 1])[:2]
    for k, bound in ((0, 1e-12), (1, 2e-12)):     # foot, then M
        coarse = np.max(np.abs(feet[25][k] - feet[50][k]))
        fine = np.max(np.abs(feet[50][k] - feet[100][k]))
        assert fine / 15.0 <= bound
        assert 3.7 <= np.log2(coarse / fine) <= 4.3


@pytest.mark.parametrize("a1", [0.25, -0.3, 0.6])
@pytest.mark.parametrize("gamma", [1.4, 5.0 / 3.0, 2.5])
def test_first_integral_matches_linear_closed_form(gamma, a1):
    # for linear f the foot is G + (B1 + kappa a0)/A1 with G the closed form
    spec = make_family(V1, {"A1": a1}, gamma=gamma)
    p, kappa = spec.params, spec.gas.kappa
    beta = (1.0 + 1.0 / kappa) * a1
    t_max = 0.9 / beta if beta > 0 else 1.0      # 0.9 of the singular time
    rng = np.random.default_rng(17)
    t = rng.uniform(0.0, t_max, 200)
    x3 = rng.uniform(-1.0, 1.0, 200)
    ev = spec.custom_eval
    r1, _ = ev.solve_r1(t, x3)
    foot, dfoot_dt, dfoot_dx3, ok = ev.r3_first_integral(t, r1)
    g, dgdt, dgdx = ev.r3_closed(t, x3)
    assert ok.all()
    assert np.max(np.abs(foot - (g + (p["B1"] + kappa * p["a0"]) / a1))) <= 1e-12
    # the derivatives grow like (1 - t/t_sing)^-(kappa+2)/(kappa+1): relative
    assert np.max(np.abs(dfoot_dx3 - dgdx) / (1.0 + np.abs(dgdx))) <= 1e-12
    assert np.max(np.abs(dfoot_dt - dgdt) / (1.0 + np.abs(dgdt))) <= 1e-12


def test_gauss_legendre_rule_matches_numpy():
    nodes, weights = transported._gauss_legendre(32)
    ref_nodes, ref_weights = np.polynomial.legendre.leggauss(32)
    order = np.argsort(nodes)
    assert np.max(np.abs(nodes[order] - ref_nodes)) <= 1e-15
    assert np.max(np.abs(weights[order] - ref_weights)) <= 1e-15


@pytest.mark.parametrize("c1", [1.0, 4.0, 8.0])
def test_quadrature_error_against_64_nodes(monkeypatch, c1):
    spec = make_family(V1, {"profile": "concentric", "C1": c1})
    t, x = _points(spec, 200, seed=6)
    got = _v1_foot(spec, t, x[:, 2])
    monkeypatch.setattr(transported, "_GL_ORDER", 64)
    want = _v1_foot(make_family(V1, {"profile": "concentric", "C1": c1}), t, x[:, 2])
    assert got[4].all() and want[4].all()
    for a, b in zip(got[1:4], want[1:4]):
        assert np.max(np.abs(a - b)) <= 1e-12


@pytest.mark.parametrize("preset", V1_PRESETS)
def test_failed_foot_solve_leaves_no_ok_row(monkeypatch, preset):
    spec = make_family(V1, {"profile": preset})
    t, x = _points(spec, 50, seed=7)
    original = transported.TransportedEvaluator.r3_first_integral

    def no_foot_iterations(self, t, r1):  # the foot's damped Newton takes no step
        with monkeypatch.context() as m:
            m.setattr(transported, "_NEWTON_ITERS", 0)
            return original(self, t, r1)
    monkeypatch.setattr(transported.TransportedEvaluator, "r3_first_integral",
                        no_foot_iterations)
    res = spec.evaluate_batch(t, x)
    assert not (res.status == STATUS_OK).any()


def test_nonpositive_sound_speed_leaves_no_ok_row():
    # A1 = -8: a = f/kappa + a0 dips below zero for |r1| < 2.3
    spec = make_family(V1, {"profile": "solitary", "A1": -8.0})
    t, x = _points(spec, 400, seed=8)
    res = spec.evaluate_batch(t, x)
    r1, r3, _, _, ok = _v1_foot(spec, t, x[:, 2])
    ev = spec.custom_eval
    nonpositive = (ev.sound(r1) <= 0) | (ev.sound(-r3) <= 0)
    assert 0 < nonpositive.sum() < len(t)
    assert not (ok & nonpositive).any()
    solved = res.status == STATUS_OK
    assert not (solved & ~ok).any()
    for name in ("r", "state", "jac", "cond_det"):
        assert np.isfinite(getattr(res, name)[solved]).all(), name


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("preset", V1_PRESETS)
def test_nonlinear_v1_presets_residuals_and_order(preset):
    spec = make_family(V1, {"profile": preset})
    grid = GridSpec.from_window(spec.default_grid_window(), counts=(3, 5, 5, 5))
    assert residual_exact(spec, grid=grid).max_normalized <= 1e-8
    coarse = residual_fd(spec, grid=grid, h=1e-4)
    fine = residual_fd(spec, grid=grid, h=5e-5)
    assert coarse.max_normalized <= 1e-5
    assert 1.7 <= np.log2(coarse.max_residual / fine.max_residual) <= 2.3


def test_fd_stencil_tracks_the_centre_r2_root():
    # stencil shifts start r2 from the centre's invariants; starting at t
    # instead, some re-solve to another root and the difference jumps to 1e3
    spec = make_family(V1, {"profile": "concentric"})
    points = _stratified_points(np.random.default_rng(0), spec.default_grid_window(),
                                (5, 5, 5, 8))
    assert residual_fd(spec, points=points, h=1e-4).max_normalized <= 1e-2


def test_import_loads_no_numpy_polynomial():
    code = ("import sys; from riemannwaves.catalog import make_family; "
            "make_family('R3_E1S2S3_v1', {'profile': 'concentric'}); "
            "print('numpy.polynomial' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env)
    assert out.stdout.strip() == "False"


@pytest.mark.parametrize("fid,params,expected", [
    (V2, {}, 7),                            # x3 shifts reuse the centre
    (V1, {"profile": "concentric"}, 5),     # x1 and x2 shifts reuse the centre
    (V1, {"profile": "solitary"}, 5),
], ids=ODE_IDS)
def test_fd_stencil_integrates_once_per_distinct_argument(monkeypatch, fid, params, expected):
    # the stencil solves only the points the centre keeps; when the centre
    # skips one, its own arguments differ from the stencil's and add one call
    spec = make_family(fid, params)
    points = _points(spec, 6, seed=1)
    centre = make_family(fid, params).evaluate_batch(*points, jacobian=False)
    skips = not _keep_mask(centre.status, centre.cond_det).all()
    ev = spec.custom_eval
    calls = _count_calls(monkeypatch, ev, _integration_name(ev))
    residual_fd(spec, points=points)
    assert len(calls) == expected + skips


def test_conditions_builds_one_chart_per_request(monkeypatch, capsys):
    # one profile jet for all samples: the chart is v2's jet
    calls = _count_calls(monkeypatch, RotatingPolarizationEvaluator, "jet")
    assert cli.main(["conditions", "--family", V2, "--samples", "3"]) == 0
    capsys.readouterr()
    assert len(calls) == 1


@pytest.mark.parametrize("fid,params", ODE_FAMILIES, ids=ODE_IDS)
def test_memo_hit_equals_fresh_evaluation_and_is_read_only(fid, params):
    spec = make_family(fid, params)
    t, x = _points(spec, 8, seed=2)
    first = spec.evaluate_batch(t, x)
    again = spec.evaluate_batch(t, x)
    fresh = make_family(fid, params).evaluate_batch(t, x)
    for name in ("r", "state", "jac", "cond_det", "status"):
        assert np.array_equal(getattr(again, name), getattr(fresh, name))
        assert np.array_equal(getattr(first, name), getattr(fresh, name))

    ev = spec.custom_eval
    if fid == V2:
        cached = ev._foot(t, x[:, 0], x[:, 1])
    else:
        cached = _v1_foot(spec, t, x[:, 2])[1:]
    for arr in cached:
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0.0


@pytest.mark.parametrize("fid,params", ODE_FAMILIES, ids=ODE_IDS)
def test_memo_misses_on_mutated_input_and_on_changed_steps(monkeypatch, fid, params):
    spec = make_family(fid, params)
    ev = spec.custom_eval
    calls = _count_calls(monkeypatch, ev, _integration_name(ev))
    t, x = _points(spec, 4, seed=3)
    before = spec.evaluate_batch(t, x).state.copy()
    assert len(calls) == 1
    spec.evaluate_batch(t, x)
    assert len(calls) == 1

    t[0] += 0.01                             # the caller's array, changed in place
    x[0] += 0.01
    after = spec.evaluate_batch(t, x).state
    assert len(calls) == 2
    assert np.array_equal(after, make_family(fid, params).evaluate_batch(t, x).state)
    assert not np.array_equal(after[0], before[0])
    assert np.array_equal(after[1:], before[1:])

    if fid == V2:
        ev.ode_steps += 1
        spec.evaluate_batch(t, x)
        assert len(calls) == 3
    else:
        # v1 has no step count: its key is (t, r1), so x1 and x2 shifts hit
        x[:, :2] += 0.01
        spec.evaluate_batch(t, x)
        assert len(calls) == 2
        x[:, 2] += 0.01
        spec.evaluate_batch(t, x)
        assert len(calls) == 3


@pytest.mark.parametrize("fid,params", ODE_FAMILIES, ids=ODE_IDS)
def test_make_family_calls_never_share_a_memo(monkeypatch, fid, params):
    first, second = make_family(fid, params), make_family(fid, params)
    assert first.custom_eval is not second.custom_eval
    t, x = _points(first, 4, seed=4)
    first.evaluate_batch(t, x)
    ev = second.custom_eval
    calls = _count_calls(monkeypatch, ev, _integration_name(ev))
    second.evaluate_batch(t, x)
    assert len(calls) == 1


@pytest.mark.parametrize("preset", V1_PRESETS)
def test_foot_of_a_point_does_not_depend_on_its_batch(preset):
    ev = make_family(V1, {"profile": preset}).custom_eval
    rng = np.random.default_rng(10)
    t, x3 = rng.uniform(0.0, 1.0, 1001), rng.uniform(1.0, 2.5, 1001)
    r1, _ = ev.solve_r1(t, x3)
    full = ev.r3_first_integral(t, r1)
    for n in (1, 7, 33, 500):
        idx = rng.choice(len(t), n, replace=False)
        for a, b in zip(full, ev.r3_first_integral(t[idx], r1[idx])):
            assert np.array_equal(a[idx], b)


def test_v2_foot_solves_r1_once(monkeypatch):
    # r1 rides the RK4 state (dr1/ds = a/delta); only the point itself is solved
    ev = make_family(V2).custom_eval
    t, x = _points(make_family(V2), 50, seed=11)
    calls = _count_calls(monkeypatch, ev, "solve_r1")
    ev._integrate_foot(t, x[:, 0], x[:, 1])
    assert len(calls) == 1


def test_v2_foot_of_a_point_does_not_depend_on_its_batch():
    spec = make_family(V2)
    ev = spec.custom_eval
    t, x = _points(spec, 1001, seed=12)
    full = ev._integrate_foot(t, x[:, 0], x[:, 1])
    rng = np.random.default_rng(13)
    for n in (1, 7, 33, 500):
        idx = rng.choice(len(t), n, replace=False)
        for a, b in zip(full, ev._integrate_foot(t[idx], x[idx, 0], x[idx, 1])):
            assert np.array_equal(a[idx], b)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_v2_paths_through_delta_zero_leave_no_ok_row():
    # at A1 = 4 some backward paths reach delta <= 0, where dr1/ds = a/delta
    # blows up; their carried r1 then misses r1(0, y) = -y . n at the foot
    spec = make_family(V2, {"A1": 4.0})
    t, x = _points(spec, 600, seed=1)
    res = spec.evaluate_batch(t, x)
    solved = res.status == STATUS_OK
    assert (res.status == STATUS_NEAR_CATASTROPHE).sum() >= 50
    for name in ("r", "state", "jac", "cond_det"):
        assert np.isfinite(getattr(res, name)[solved]).all(), name
    assert residual_exact(spec, points=(t[solved], x[solved])).max_normalized <= 1e-8
    # the kept feet hold against 16x the steps (measured 9.7e-9)
    ref = make_family(V2, {"A1": 4.0}).custom_eval
    ref.ode_steps = 16 * spec.custom_eval.ode_steps
    got = spec.custom_eval._foot(t, x[:, 0], x[:, 1])
    want = ref._foot(t, x[:, 0], x[:, 1])
    assert np.max(np.abs(got[0][solved] - want[0][solved])) <= 1e-7

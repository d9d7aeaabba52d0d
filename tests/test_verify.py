"""Verifier: residual reports, convergence order, catastrophe probe."""

import numpy as np
import pytest

from riemannwaves import cli
from riemannwaves.catalog import base, make_family
from riemannwaves.catalog.base import FamilySpec, PotentialWave, stack_waves
from riemannwaves.fluid import GasParams
from riemannwaves.verify import (
    EmptyReportError,
    GridSpec,
    _keep_mask,
    catastrophe_probe,
    fd_convergence_order,
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
    waves, waves_jac, dr_du = stack_waves([PotentialWave(e=e1), PotentialWave(e=e2)])

    def profile(r, t):
        a1, a2 = s1 * r[:, 0], s2 * r[:, 1]
        return np.column_stack([a1 + a2, kappa * (a1[:, None] * e1 + a2[:, None] * e2)])

    def profile_jac(r, t):
        out = np.empty((len(r), 4, 2))
        out[:, 0, 0], out[:, 0, 1] = s1, s2
        out[:, 1:, 0] = kappa * s1 * e1
        out[:, 1:, 1] = kappa * s2 * e2
        return out

    return FamilySpec(id="corrupted", rank=2, n_waves=2, description="angle broken",
                      params={}, gas=gas, profile=profile, profile_jac=profile_jac,
                      waves=waves, waves_jac=waves_jac, dr_du=dr_du,
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
    spec = make_family("R2_S1S2_MA")
    grid = GridSpec.from_window(spec.default_grid_window(), counts=SMALL)
    order = fd_convergence_order(spec, grid=grid, branch="plus")
    assert 1.7 <= order <= 2.3


def test_empty_report_error():
    spec = make_family("R2_S1S2_MA")  # invalid for t <= 0
    grid = GridSpec(t=(-0.5, -0.1, 3), x1=(0.5, 1.5, 3), x2=(-0.5, 0.5, 3), x3=(0, 0, 1))
    with pytest.raises(EmptyReportError):
        residual_exact(spec, grid=grid, branch="plus")


def test_skipped_points_are_counted():
    spec = make_family("R1_E")
    grid = GridSpec.from_window(spec.default_grid_window(), counts=SMALL)
    rep = residual_exact(spec, grid=grid)
    assert rep.n_points + rep.n_skipped == 3 * 5 * 5 * 5
    assert rep.n_skipped > 0  # half-space has a <= 0
    assert rep.skip_reasons.get("invalid", 0) > 0


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
    df = spec.params["_df_matrix"]
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
    # the FD route, the probe's bisection and `sample` never read jac, so
    # they must not assemble it; the exact route and the probe schedule do
    calls = []
    real = base.jacobi_batch

    def counted(*args, **kwargs):
        calls.append(len(args[4]))
        return real(*args, **kwargs)

    monkeypatch.setattr(base, "jacobi_batch", counted)
    spec = make_family("R1_E")
    grid = GridSpec.from_window(spec.default_grid_window(), counts=SMALL)

    residual_fd(spec, grid=grid)
    assert calls == []
    residual_exact(spec, grid=grid)
    assert len(calls) == 1
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

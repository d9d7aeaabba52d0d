"""The two characteristic-integrating evaluators: accuracy and per-instance memo."""

import numpy as np
import pytest

from riemannwaves import cli
from riemannwaves.catalog import make_family
from riemannwaves.catalog.transported import RotatingPolarizationEvaluator
from riemannwaves.solver import STATUS_OK
from riemannwaves.verify import residual_fd

V1, V2 = "R3_E1S2S3_v1", "R3_E1S2S3_v2"
ODE_FAMILIES = [(V2, {}), (V1, {"profile": "concentric"}), (V1, {"profile": "solitary"})]
ODE_IDS = ["v2", "v1-concentric", "v1-solitary"]


def _points(spec, n, seed):
    """Uniform points in the family's default window."""
    rng = np.random.default_rng(seed)
    win = spec.default_grid_window()
    cols = [rng.uniform(*win[axis], n) for axis in ("t", "x1", "x2", "x3")]
    return cols[0], np.column_stack(cols[1:])


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
        else "r3_by_characteristics"


@pytest.mark.parametrize("fid,params", ODE_FAMILIES, ids=ODE_IDS)
def test_default_steps_match_refined_reference(fid, params):
    # the exact-route residual cannot see the integration error (v2's u3 row
    # holds by construction), so compare with a fresh evaluator at 8x the steps
    spec = make_family(fid, params)
    ref = make_family(fid, params)
    ref.custom_eval.ode_steps = 8 * spec.custom_eval.ode_steps
    t, x = _points(spec, 24, seed=5)
    got, want = spec.evaluate_batch(t, x), ref.evaluate_batch(t, x)
    ok = (got.status == STATUS_OK) & (want.status == STATUS_OK)
    assert ok.sum() >= 20
    assert np.array_equal(got.status, want.status)
    assert np.max(np.abs(got.state[ok] - want.state[ok])) <= 1e-10
    assert np.max(np.abs(got.jac[ok] - want.jac[ok])) <= 1e-10


@pytest.mark.parametrize("fid,params,expected", [
    (V2, {}, 7),                            # x3 shifts reuse the centre
    (V1, {"profile": "concentric"}, 5),     # x1 and x2 shifts reuse the centre
    (V1, {"profile": "solitary"}, 5),
], ids=ODE_IDS)
def test_fd_stencil_integrates_once_per_distinct_argument(monkeypatch, fid, params, expected):
    spec = make_family(fid, params)
    ev = spec.custom_eval
    calls = _count_calls(monkeypatch, ev, _integration_name(ev))
    residual_fd(spec, points=_points(spec, 6, seed=1))
    assert len(calls) == expected


def test_conditions_builds_one_chart_per_sample(monkeypatch, capsys):
    # profile, profile_jac and both trace orders of a sample share one chart
    calls = _count_calls(monkeypatch, RotatingPolarizationEvaluator, "_chart")
    assert cli.main(["conditions", "--family", V2, "--samples", "3"]) == 0
    capsys.readouterr()
    assert len(calls) == 3


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
        cached = ev._foot(t, x[:, 0], x[:, 1]) + ev.profile_chart(first.r[:2])
    else:
        cached = ev.solve_r3(t, x[:, 2])
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

    ev.ode_steps += 1
    spec.evaluate_batch(t, x)
    assert len(calls) == 3


def test_chart_memo_misses_on_mutated_triple(monkeypatch):
    ev = make_family(V2).custom_eval
    calls = _count_calls(monkeypatch, ev, "_chart")
    r = np.array([[0.1, -0.2, 0.3]])
    u0 = ev.profile_chart(r)[0].copy()
    ev.profile_chart(r)
    assert len(calls) == 1
    r[0, 0] = 0.2
    u1 = ev.profile_chart(r)[0]
    assert len(calls) == 2
    assert not np.array_equal(u0, u1)


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

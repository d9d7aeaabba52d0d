"""Trace compatibility conditions and the rank-2 bilinear reduction."""

from math import comb

import numpy as np
import pytest

from riemannwaves.catalog import REGISTRY_IDS, make_family
from riemannwaves.catalog.base import PotentialWave, stack_waves
from riemannwaves.cli import config_from_family
from riemannwaves.conditions import (
    AnsatzConfig,
    DegenerateSampleError,
    bilinear_rank2_condition,
    trace_condition_higher,
    trace_condition_initial,
)
from riemannwaves.fluid import GasParams

GAS = GasParams()
KAPPA = GAS.kappa


def acoustic_pair_config(e1, e2, gas=GAS):
    """Raw acoustic pair (no validation)."""
    e1, e2 = np.asarray(e1, float), np.asarray(e2, float)
    waves, waves_jac, _ = stack_waves([PotentialWave(e=e1), PotentialWave(e=e2)])
    return AnsatzConfig(waves, waves_jac, gas)


def kernel_columns(e1, e2, gas=GAS):
    """The pair's constant (4, 2) profile Jacobian: normalised kernel directions."""
    cols = np.stack([np.concatenate([[1.0], gas.kappa * np.asarray(e, float)])
                     for e in (e1, e2)], axis=1)
    return cols / np.linalg.norm(cols, axis=0)


def jet_at(jet, r):
    """The state (4,) and profile Jacobian (4, k) at one invariant sample r,
    from one profile jet evaluated alone."""
    u, fr = jet(r[None, :], np.zeros(1))
    return u[0], fr[0]


def higher_rows(k):
    """Row count of the higher conditions for k covectors: the symmetrized
    multi-indices of order s = 1..k-1 over the 4 - k non-pivot slices."""
    return sum(comb(4 - k + s - 1, s) for s in range(1, k))


def locked_pair():
    e1 = np.array([1.0, 0.0, 0.0])
    c = -1.0 / KAPPA
    return e1, np.array([c, np.sqrt(1 - c * c), 0.0])


def perturbed_pair(delta=0.1):
    e1, _ = locked_pair()
    phi = np.arccos(-1.0 / KAPPA) + delta
    return e1, np.array([np.cos(phi), np.sin(phi), 0.0])


def seeded_states(rng, n):
    return [np.concatenate([[rng.uniform(0.5, 2.0)], rng.normal(0, 0.6, 3)])
            for _ in range(n)]


def test_constant_profile_gives_zero_initial():
    spec = make_family("R2_E1E2")
    cfg, _ = config_from_family(spec)
    zero_cfg = AnsatzConfig(cfg.waves, cfg.waves_jac, GAS)
    u = np.array([1.2, 0.3, -0.4, 0.1])
    assert np.max(np.abs(trace_condition_initial(zero_cfg, u, np.zeros((4, 2))))) == 0.0


@pytest.mark.parametrize("u", [[1.2, 0.3, -0.4, np.nan], [1.2, 0.3, -0.4, np.inf],
                               [-1.0, 0.3, -0.4, 0.1], [0.0, 0.3, -0.4, 0.1]])
def test_a_state_that_is_not_finite_or_has_no_sound_speed_is_a_degenerate_sample(u):
    # covectors that never read u3 (the locked pair's, whose directions have
    # no x3 part) stay finite, so the state check itself rejects the sample,
    # in every check that takes it
    e1, e2 = locked_pair()
    pair = acoustic_pair_config(e1, e2)

    def no_u3(u):
        return np.column_stack([u[:, :3], np.zeros(len(u))])

    cfg = AnsatzConfig(lambda u: pair.waves(no_u3(u)), lambda u: pair.waves_jac(no_u3(u)), GAS)
    fr, u = kernel_columns(e1, e2), np.array(u)
    assert np.isfinite(cfg.waves(u[None])).all()
    for check in (lambda: trace_condition_initial(cfg, u, fr),
                  lambda: trace_condition_higher(cfg, u, fr),
                  lambda: bilinear_rank2_condition(cfg, u)):
        with pytest.raises(DegenerateSampleError, match="^state is not finite with a positive sound speed$"):
            check()


def test_rank1_family_initial_small_and_higher_empty():
    spec = make_family("R1_E")
    cfg, jet = config_from_family(spec)
    rng = np.random.default_rng(2)
    for _ in range(20):
        r = rng.uniform(-1.0, 1.0, 1)
        u, fr = jet_at(jet, r)
        if not u[0] > 0:
            continue
        scale = 1.0 + np.max(np.abs(u))
        assert np.max(np.abs(trace_condition_initial(cfg, u, fr))) <= 1e-10 * scale
        assert trace_condition_higher(cfg, u, fr).shape == (higher_rows(1), 4) == (0, 4)


def test_constant_covectors_higher_identically_zero():
    spec = make_family("R2_S1S2_ADD")  # constant spatial parts, eta only in phase
    cfg, jet = config_from_family(spec)
    zero_eta_cfg = AnsatzConfig(cfg.waves, lambda u: np.zeros((len(u), 2, 4, 4)), GAS)
    rng = np.random.default_rng(3)
    r = rng.uniform(-0.5, 0.5, 2)
    res = trace_condition_higher(zero_eta_cfg, *jet_at(jet, r))
    assert np.max(np.abs(res)) == 0.0


def test_angle_lock_detected_by_higher_condition():
    spec = make_family("R2_E1E2")
    cfg, jet = config_from_family(spec)
    rng = np.random.default_rng(5)
    for _ in range(25):
        r = rng.uniform(-0.8, 0.8, 2)
        u, fr = jet_at(jet, r)
        if not u[0] > 0:
            continue
        scale = 1.0 + np.max(np.abs(u))
        res = trace_condition_higher(cfg, u, fr)
        assert np.max(np.abs(res)) <= 1e-10 * scale
    # perturbing the angle by 0.1 breaks the higher condition
    bad = acoustic_pair_config(*perturbed_pair())
    u = np.array([1.1, 0.2, -0.3, 0.4])
    res = trace_condition_higher(bad, u, kernel_columns(*perturbed_pair()))
    assert np.max(np.abs(res)) > 1e-3


def test_mixed_pair_higher_condition():
    spec = make_family("R2_E1S2")
    cfg, jet = config_from_family(spec)
    rng = np.random.default_rng(6)
    for _ in range(25):
        r = rng.uniform(-0.8, 0.8, 2)
        u, fr = jet_at(jet, r)
        scale = 1.0 + np.max(np.abs(u))
        res = trace_condition_higher(cfg, u, fr)
        assert np.max(np.abs(res)) <= 1e-10 * scale


def test_bilinear_examples():
    cfg = acoustic_pair_config(*locked_pair())
    rng = np.random.default_rng(7)
    for u in seeded_states(rng, 100):
        res = bilinear_rank2_condition(cfg, u)
        assert res.shape == (4, 3)
        assert np.max(np.abs(res)) <= 1e-10 * (1 + np.max(np.abs(u)))
    bad = acoustic_pair_config(*perturbed_pair())
    worst = max(np.max(np.abs(bilinear_rank2_condition(bad, u)))
                for u in seeded_states(rng, 20))
    assert worst > 1e-3


def test_bilinear_constant_covectors_zero():
    spec = make_family("R2_S1S2_ADD")
    cfg0, _ = config_from_family(spec)
    cfg = AnsatzConfig(cfg0.waves, lambda u: np.zeros((len(u), 2, 4, 4)), GAS)
    u = np.array([1.0, 0.4, -0.2, 0.3])
    assert np.max(np.abs(bilinear_rank2_condition(cfg, u))) == 0.0


def test_bilinear_rescaling_homogeneity():
    # the shared-coordinate normalization makes the residual invariant under
    # per-wave rescaling of the covectors: zero stays zero, nonzero values
    # are reproduced exactly
    u = np.array([1.3, 0.1, -0.2, 0.5])

    def scaled_cfg(pair, c1, c2):
        base = acoustic_pair_config(*pair)
        scale = np.array([c1, c2])

        def waves(uu):
            return base.waves(uu) * scale[None, :, None]

        def waves_jac(uu):
            return base.waves_jac(uu) * scale[None, :, None, None]

        return AnsatzConfig(waves, waves_jac, GAS)

    base_res = bilinear_rank2_condition(scaled_cfg(perturbed_pair(), 1.0, 1.0), u)
    for c1, c2 in [(2.0, 2.0), (3.0, 0.5), (0.2, 5.0)]:
        res = bilinear_rank2_condition(scaled_cfg(perturbed_pair(), c1, c2), u)
        assert np.max(np.abs(res - base_res)) <= 1e-12 * (1 + np.max(np.abs(base_res)))
        zeros = bilinear_rank2_condition(scaled_cfg(locked_pair(), c1, c2), u)
        assert np.max(np.abs(zeros)) <= 1e-12


# RK_TIME_A away from its defaults, where tr(Df^2) != 0 (all but the nilpotent preset)
RK_TIME_OFF_DEFAULT = [
    {"C1": 0.5}, {"C1": 2.0}, {"B1": 0.3}, {"gamma": 1.4, "C1": 2.0},
    {"C1": 0.2, "B1": 4.0, "A1": 0.7, "gamma": 3.0}, {"profile": "nilpotent", "D1": 3.0},
]


def test_all_registry_families_pass_trace_conditions():
    rng = np.random.default_rng(11)
    inputs = [(fid, {}) for fid in REGISTRY_IDS] + [("RK_TIME_A", p) for p in RK_TIME_OFF_DEFAULT]
    for fid, params in inputs:
        spec = make_family(fid, params)
        cfg, jet = config_from_family(spec)
        count = 0
        for _ in range(30):
            r = rng.uniform(-0.8, 0.8, spec.n_waves)
            u, fr = jet_at(jet, r)
            if not u[0] > 0:
                continue
            count += 1
            scale = 1.0 + float(np.max(np.abs(u)))
            res_i = trace_condition_initial(cfg, u, fr)
            assert np.max(np.abs(res_i)) <= 1e-10 * scale, (fid, params)
            res_h = trace_condition_higher(cfg, u, fr)
            assert np.all(np.abs(res_h) <= 1e-10 * scale), (fid, params)
            # every order s = 1..k-1 in one call, k being the config's covector count
            k = cfg.waves(u[None])[0].shape[0]
            assert k == fr.shape[1] and res_h.shape == (higher_rows(k), 4), (fid, params)
        assert count >= 10, (fid, params)


def test_explicit_time_is_a_covector_and_a_profile_column():
    # RK_TIME_A checks three covectors [e0, lam^1, lam^2] against
    # [df/dt | df/dr]; the un-augmented df/dr cannot be paired with them
    spec = make_family("RK_TIME_A", C1=2.0)
    cfg, jet = config_from_family(spec)
    u, fr = jet_at(jet, np.array([0.3, -0.2]))
    assert fr.shape == (4, 3) and cfg.waves(u[None]).shape == (1, 3, 4)
    assert np.array_equal(cfg.waves(u[None])[0, 0], [1.0, 0.0, 0.0, 0.0])
    assert not cfg.waves_jac(u[None])[0, 0].any()
    for check in (trace_condition_initial, trace_condition_higher):
        with pytest.raises(ValueError):
            check(cfg, u, fr[:, 1:])


def test_time_augmented_initial_order_fails_a_perturbed_profile():
    # negative control at C1 = 2: a 0.1% change in df/dt or 1e-3 added to
    # df/dr lifts the initial residual well above the gate; the higher order
    # stays exactly 0 under both, as it must with no x3 component in any
    # covector (its one remaining slice is zero), so that order cannot fail
    spec = make_family("RK_TIME_A", C1=2.0)
    cfg, jet = config_from_family(spec)
    rng = np.random.default_rng(19)
    for _ in range(10):
        u, fr = jet_at(jet, rng.uniform(-0.8, 0.8, 2))
        scaled_rate, shifted_fr = fr.copy(), fr.copy()
        scaled_rate[:, 0] *= 1.001
        shifted_fr[:, 1:] += 1e-3
        for bad in (scaled_rate, shifted_fr):
            assert np.max(np.abs(trace_condition_initial(cfg, u, bad))) > 1e-4
            assert np.max(np.abs(trace_condition_higher(cfg, u, bad))) == 0.0


def test_initial_condition_angle_sensitivity_readings():
    # perturbing the wave directions while keeping the locked profile breaks
    # the initial condition loudly; re-deriving the profile from the
    # perturbed directions restores it exactly (the initial condition is
    # angle-blind on matched data; detection then falls to the higher and
    # bilinear conditions, which is how the acceptance criteria assign it)
    e1, e2_lock = locked_pair()
    _, e2_pert = perturbed_pair(0.1)
    s1 = s2 = 0.25

    def cfg_with(profile_e2, wave_e2):
        waves, waves_jac, _ = stack_waves([PotentialWave(e=e1), PotentialWave(e=wave_e2)])
        fr = np.empty((4, 2))  # the linear profile's constant Jacobian
        fr[0, 0], fr[0, 1] = s1, s2
        fr[1:, 0] = KAPPA * s1 * e1
        fr[1:, 1] = KAPPA * s2 * profile_e2

        def profile(r):
            a1, a2 = s1 * r[:, 0], s2 * r[:, 1]
            return np.column_stack([a1 + a2,
                                    KAPPA * (a1[:, None] * e1 + a2[:, None] * profile_e2)])

        return AnsatzConfig(waves, waves_jac, GAS), profile, fr

    rng = np.random.default_rng(13)
    mismatched, consistent = 0.0, 0.0
    cfg_mm, prof_lock, fr_mm = cfg_with(e2_lock, e2_pert)
    cfg_cc, prof_pert, fr_cc = cfg_with(e2_pert, e2_pert)
    for _ in range(50):
        r = rng.uniform(-0.8, 0.8, 2)
        u_lock = prof_lock(r[None, :])[0]
        u_pert = prof_pert(r[None, :])[0]
        if u_lock[0] > 0:
            res = trace_condition_initial(cfg_mm, u_lock, fr_mm)
            mismatched = max(mismatched, np.max(np.abs(res)))
        if u_pert[0] > 0:
            res = trace_condition_initial(cfg_cc, u_pert, fr_cc)
            consistent = max(consistent, np.max(np.abs(res)))
    assert mismatched > 1e-3
    assert consistent <= 1e-12


def test_bilinear_vortex_pair_exact_zero():
    # two-vortex pair (constant spatial parts, phase-only state dependence):
    # the reduction vanishes exactly through the rotational-kernel path
    spec = make_family("R2_S1S2_ADD")
    cfg, _ = config_from_family(spec)
    u = spec.profile(np.array([[0.2, -0.3]]), np.zeros(1))[0][0]
    assert np.max(np.abs(bilinear_rank2_condition(cfg, u))) <= 1e-12

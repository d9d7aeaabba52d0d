"""Trace compatibility conditions and involutivity checks."""

import numpy as np
import pytest

from riemannwaves.catalog import REGISTRY_IDS, make_family
from riemannwaves.catalog.base import PotentialWave, stack_waves
from riemannwaves.conditions import (
    AnsatzConfig,
    bilinear_rank2_condition,
    config_from_family,
    involutivity_check,
    trace_condition_higher,
    trace_condition_initial,
)
from riemannwaves.fluid import GasParams

GAS = GasParams()
KAPPA = GAS.kappa


def acoustic_pair_config(e1, e2, gas=GAS):
    """Raw acoustic pair with kernel-direction profile columns (no validation)."""
    e1, e2 = np.asarray(e1, float), np.asarray(e2, float)
    waves, waves_jac, _ = stack_waves([PotentialWave(e=e1), PotentialWave(e=e2)])
    cols = np.stack([np.concatenate([[1.0], gas.kappa * e]) for e in (e1, e2)], axis=1)
    cols /= np.linalg.norm(cols, axis=0)

    def profile_jac(r, t):
        return np.broadcast_to(cols, (len(r), 4, 2)).copy()

    return AnsatzConfig(k=2, waves=waves, waves_jac=waves_jac,
                        profile_jac=profile_jac, gas=gas)


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
    cfg = config_from_family(spec)
    zero_cfg = AnsatzConfig(k=2, waves=cfg.waves, waves_jac=cfg.waves_jac,
                            profile_jac=lambda r, t: np.zeros((len(r), 4, 2)), gas=GAS)
    u = np.array([1.2, 0.3, -0.4, 0.1])
    assert np.max(np.abs(trace_condition_initial(zero_cfg, u, np.zeros(2)))) == 0.0


def test_rank1_family_initial_small_and_higher_empty():
    spec = make_family("R1_E")
    cfg = config_from_family(spec)
    rng = np.random.default_rng(2)
    for _ in range(20):
        r = rng.uniform(-1.0, 1.0, 1)
        u = spec.profile(r[None, :], np.zeros(1))[0]
        if not u[0] > 0:
            continue
        scale = 1.0 + np.max(np.abs(u))
        assert np.max(np.abs(trace_condition_initial(cfg, u, r))) <= 1e-10 * scale
        res, labels = trace_condition_higher(cfg, u, r, 1)
        assert res.size == 0 and labels == []


def test_constant_covectors_higher_identically_zero():
    spec = make_family("R2_S1S2_ADD")  # constant spatial parts, eta only in phase
    cfg = config_from_family(spec)
    zero_eta_cfg = AnsatzConfig(
        k=2, waves=cfg.waves,
        waves_jac=lambda u: np.zeros((len(u), 2, 4, 4)),
        profile_jac=cfg.profile_jac, gas=GAS)
    rng = np.random.default_rng(3)
    r = rng.uniform(-0.5, 0.5, 2)
    u = spec.profile(r[None, :], np.zeros(1))[0]
    res, _ = trace_condition_higher(zero_eta_cfg, u, r, 1)
    assert np.max(np.abs(res)) == 0.0


def test_angle_lock_detected_by_higher_condition():
    spec = make_family("R2_E1E2")
    cfg = config_from_family(spec)
    rng = np.random.default_rng(5)
    for _ in range(25):
        r = rng.uniform(-0.8, 0.8, 2)
        u = spec.profile(r[None, :], np.zeros(1))[0]
        if not u[0] > 0:
            continue
        scale = 1.0 + np.max(np.abs(u))
        res, _ = trace_condition_higher(cfg, u, r, 1)
        assert np.max(np.abs(res)) <= 1e-10 * scale
    # perturbing the angle by 0.1 breaks the higher condition
    bad = acoustic_pair_config(*perturbed_pair())
    u = np.array([1.1, 0.2, -0.3, 0.4])
    res, _ = trace_condition_higher(bad, u, np.array([0.3, -0.2]), 1)
    assert np.max(np.abs(res)) > 1e-3


def test_mixed_pair_higher_condition():
    spec = make_family("R2_E1S2")
    cfg = config_from_family(spec)
    rng = np.random.default_rng(6)
    for _ in range(25):
        r = rng.uniform(-0.8, 0.8, 2)
        u = spec.profile(r[None, :], np.zeros(1))[0]
        scale = 1.0 + np.max(np.abs(u))
        res, _ = trace_condition_higher(cfg, u, r, 1)
        assert np.max(np.abs(res)) <= 1e-10 * scale


def test_higher_order_bounds():
    spec = make_family("R3_E1E2E3")
    cfg = config_from_family(spec)
    with pytest.raises(ValueError):
        trace_condition_higher(cfg, np.array([1.0, 0, 0, 0]), np.zeros(3), 3)


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
    cfg0 = config_from_family(spec)
    cfg = AnsatzConfig(k=2, waves=cfg0.waves,
                       waves_jac=lambda u: np.zeros((len(u), 2, 4, 4)),
                       profile_jac=cfg0.profile_jac, gas=GAS)
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

        return AnsatzConfig(k=2, waves=waves, waves_jac=waves_jac,
                            profile_jac=base.profile_jac, gas=GAS)

    base_res = bilinear_rank2_condition(scaled_cfg(perturbed_pair(), 1.0, 1.0), u)
    for c1, c2 in [(2.0, 2.0), (3.0, 0.5), (0.2, 5.0)]:
        res = bilinear_rank2_condition(scaled_cfg(perturbed_pair(), c1, c2), u)
        assert np.max(np.abs(res - base_res)) <= 1e-12 * (1 + np.max(np.abs(base_res)))
        zeros = bilinear_rank2_condition(scaled_cfg(locked_pair(), c1, c2), u)
        assert np.max(np.abs(zeros)) <= 1e-12


def test_all_registry_families_pass_trace_conditions():
    rng = np.random.default_rng(11)
    for fid in REGISTRY_IDS:
        spec = make_family(fid)
        cfg = config_from_family(spec)
        k = spec.n_waves
        count = 0
        for _ in range(30):
            r = rng.uniform(-0.8, 0.8, k)
            u = spec.profile(r[None, :], np.zeros(1))[0]
            if not u[0] > 0:
                continue
            count += 1
            scale = 1.0 + float(np.max(np.abs(u)))
            res_i = trace_condition_initial(cfg, u, r)
            assert np.max(np.abs(res_i)) <= 1e-10 * scale, fid
            for s in range(1, k):
                res_h, _ = trace_condition_higher(cfg, u, r, s)
                if res_h.size:
                    assert np.max(np.abs(res_h)) <= 1e-10 * scale, fid
        assert count >= 10, fid


# -- involutivity ------------------------------------------------------------

def test_involutivity_commuting_coordinate_fields():
    gammas = [lambda u: np.array([1.0, 0.0, 0.0, 0.0]),
              lambda u: np.array([0.0, 1.0, 0.0, 0.0])]
    lambdas = [lambda u: np.array([1.0, -1.0, 0.0, 0.0]),
               lambda u: np.array([0.5, 0.0, -1.0, 0.0])]
    rep = involutivity_check(gammas, lambdas, np.array([1.0, 0.2, 0.3, -0.1]))
    assert all(rep.commutator_in_span.values())
    assert all(rep.lie_derivative_in_span.values())


def test_involutivity_closed_form_commutator():
    # gamma1 = d/du0, gamma2 = u0 d/du1: [gamma1, gamma2] = d/du1, inside the
    # span exactly where u0 != 0
    gammas = [lambda u: np.array([1.0, 0.0, 0.0, 0.0]),
              lambda u: np.array([0.0, u[0], 0.0, 0.0])]
    lambdas = [lambda u: np.array([1.0, 0.0, 0.0, 1.0]),
               lambda u: np.array([0.0, 1.0, 1.0, 0.0])]
    rep_ok = involutivity_check(gammas, lambdas, np.array([0.7, 0.0, 0.0, 0.0]))
    assert rep_ok.commutator_in_span[(0, 1)]
    rep_bad = involutivity_check(gammas, lambdas, np.array([0.0, 0.3, 0.0, 0.0]))
    assert not rep_bad.commutator_in_span[(0, 1)]


def test_involutivity_fluid_acoustic_pair():
    # kernel fields of the locked acoustic pair are constant, so commutators
    # vanish; the directional derivative of lam^A along gamma_B is
    # (1 + kappa e_A . e_B, 0, 0, 0), the zero covector exactly at the locked
    # angle, and a time-only covector (outside span{lam^A, lam^B}) otherwise.
    e1, e2 = locked_pair()
    norm = 1.0 / np.sqrt(1.0 + KAPPA**2)
    gammas = [lambda u, e=e: norm * np.concatenate([[1.0], KAPPA * e]) for e in (e1, e2)]

    def lam_factory(e):
        return lambda u: np.concatenate([[u[0] + u[1:] @ e], -e])

    lambdas = [lam_factory(e1), lam_factory(e2)]
    state = np.array([1.0, 0.3, -0.2, 0.5])
    rep = involutivity_check(gammas, lambdas, state)
    assert all(rep.commutator_in_span.values())
    assert all(rep.lie_derivative_in_span.values())
    # analytic cross-check of the Lie derivative against the hand formula
    lie = rep.details[("lie", 0, 1)]
    hand = norm * np.array([1.0 + KAPPA * (e1 @ e2), 0.0, 0.0, 0.0])
    assert np.max(np.abs(lie - hand)) <= 1e-8

    f1, f2 = perturbed_pair()
    gammas_bad = [lambda u, e=e: norm * np.concatenate([[1.0], KAPPA * e]) for e in (f1, f2)]
    lambdas_bad = [lam_factory(f1), lam_factory(f2)]
    rep_bad = involutivity_check(gammas_bad, lambdas_bad, state)
    assert all(rep_bad.commutator_in_span.values())   # constant fields still commute
    assert not rep_bad.lie_derivative_in_span[(0, 1)]


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

        def profile_jac(r, t):
            out = np.empty((len(r), 4, 2))
            out[:, 0, 0], out[:, 0, 1] = s1, s2
            out[:, 1:, 0] = KAPPA * s1 * e1
            out[:, 1:, 1] = KAPPA * s2 * profile_e2
            return out

        def profile(r):
            a1, a2 = s1 * r[:, 0], s2 * r[:, 1]
            return np.column_stack([a1 + a2,
                                    KAPPA * (a1[:, None] * e1 + a2[:, None] * profile_e2)])

        return AnsatzConfig(k=2, waves=waves, waves_jac=waves_jac,
                            profile_jac=profile_jac, gas=GAS), profile

    rng = np.random.default_rng(13)
    mismatched, consistent = 0.0, 0.0
    cfg_mm, prof_lock = cfg_with(e2_lock, e2_pert)
    cfg_cc, prof_pert = cfg_with(e2_pert, e2_pert)
    for _ in range(50):
        r = rng.uniform(-0.8, 0.8, 2)
        u_lock = prof_lock(r[None, :])[0]
        u_pert = prof_pert(r[None, :])[0]
        if u_lock[0] > 0:
            mismatched = max(mismatched, np.max(np.abs(trace_condition_initial(cfg_mm, u_lock, r))))
        if u_pert[0] > 0:
            consistent = max(consistent, np.max(np.abs(trace_condition_initial(cfg_cc, u_pert, r))))
    assert mismatched > 1e-3
    assert consistent <= 1e-12


def test_bilinear_vortex_pair_exact_zero():
    # two-vortex pair (constant spatial parts, phase-only state dependence):
    # the reduction vanishes exactly through the rotational-kernel path
    spec = make_family("R2_S1S2_ADD")
    cfg = config_from_family(spec)
    u = spec.profile(np.array([[0.2, -0.3]]), np.zeros(1))[0]
    assert np.max(np.abs(bilinear_rank2_condition(cfg, u))) <= 1e-12

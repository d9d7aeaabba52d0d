"""Jacobi elliptic functions: identities, degenerate limits, independent oracle."""

import numpy as np
import pytest

from oracles import sn_cn_dn_descent
from riemannwaves.elliptic import jacobi_sn_cn_dn

# Frozen values from the independent quadrature oracle: invert the incomplete
# integral F(phi, k) = int_0^phi dtheta / sqrt(1 - k^2 sin^2 theta) = u by
# 240-point Gauss-Legendre quadrature plus Newton on phi, then
# (sn, cn, dn) = (sin phi, cos phi, sqrt(1 - k^2 sn^2)).  The oracle code is
# reproduced below and re-run as part of this test module; the frozen values
# guard against both implementations drifting together.
ORACLE_SN_1_05 = 0.82263557812986232
ORACLE_CN_1_05 = 0.56856899809517158
ORACLE_DN_1_05 = 0.91149200566913191


def _incomplete_f(phi, k, n=240):
    nodes, weights = np.polynomial.legendre.leggauss(n)
    theta = 0.5 * phi * (nodes + 1.0)
    return 0.5 * phi * np.sum(weights / np.sqrt(1.0 - (k * np.sin(theta)) ** 2))


def complete_elliptic_k(k):
    """Periodicity oracle: K(k) = pi / (2 agm(1, sqrt(1 - k^2))) for k^2 < 1."""
    a, b = 1.0, np.sqrt(1.0 - k * k)
    while abs(a - b) > 1e-15 * a:
        a, b = 0.5 * (a + b), np.sqrt(a * b)
    return float(np.pi / (2.0 * a))


def quadrature_oracle(u, k):
    phi = u
    for _ in range(60):
        step = (_incomplete_f(phi, k) - u) * np.sqrt(1.0 - (k * np.sin(phi)) ** 2)
        phi -= step
        if abs(step) < 1e-16:
            break
    sn, cn = np.sin(phi), np.cos(phi)
    return sn, cn, np.sqrt(1.0 - (k * sn) ** 2)


def test_oracle_reproduces_frozen_values():
    sn, cn, dn = quadrature_oracle(1.0, 0.5)
    assert abs(sn - ORACLE_SN_1_05) < 1e-14
    assert abs(cn - ORACLE_CN_1_05) < 1e-14
    assert abs(dn - ORACLE_DN_1_05) < 1e-14


def test_value_at_1_05_matches_oracle():
    sn, cn, dn = jacobi_sn_cn_dn(1.0, 0.5)
    assert abs(sn - ORACLE_SN_1_05) < 1e-12
    assert abs(cn - ORACLE_CN_1_05) < 1e-12
    assert abs(dn - ORACLE_DN_1_05) < 1e-12


def test_degenerate_modulus_zero():
    u = np.linspace(-5, 5, 41)
    sn, cn, dn = jacobi_sn_cn_dn(u, 0.0)
    assert np.max(np.abs(sn - np.sin(u))) <= 1e-12
    assert np.max(np.abs(cn - np.cos(u))) <= 1e-12
    assert np.max(np.abs(dn - 1.0)) <= 1e-12


def test_degenerate_modulus_one():
    u = np.linspace(-4, 4, 33)
    sn, cn, dn = jacobi_sn_cn_dn(u, 1.0)
    assert np.max(np.abs(sn - np.tanh(u))) <= 1e-12
    assert np.max(np.abs(cn - 1.0 / np.cosh(u))) <= 1e-12
    assert np.max(np.abs(dn - 1.0 / np.cosh(u))) <= 1e-12


def test_identities_1000_samples():
    rng = np.random.default_rng(5)
    u = rng.uniform(-10, 10, 1000)
    k = np.sqrt(rng.uniform(0.0, 1.0, 1000))
    for ui, ki in zip(u, k):
        sn, cn, dn = jacobi_sn_cn_dn(ui, ki)
        assert abs(sn * sn + cn * cn - 1.0) <= 1e-12
        assert abs(dn * dn + (ki * sn) ** 2 - 1.0) <= 1e-12
        assert abs(sn) <= 1.0 + 1e-15 and abs(cn) <= 1.0 + 1e-15
        assert np.sqrt(1 - ki**2) - 1e-12 <= dn <= 1.0 + 1e-15


def test_parity():
    rng = np.random.default_rng(6)
    for _ in range(50):
        u = rng.uniform(0.1, 6.0)
        k = np.sqrt(rng.uniform(0.01, 0.99))
        sp, cp, dp = jacobi_sn_cn_dn(u, k)
        sm, cm, dm = jacobi_sn_cn_dn(-u, k)
        assert abs(sp + sm) <= 1e-12
        assert abs(cp - cm) <= 1e-12
        assert abs(dp - dm) <= 1e-12


def test_periodicity_4k():
    rng = np.random.default_rng(8)
    for _ in range(30):
        u = rng.uniform(-3, 3)
        k = np.sqrt(rng.uniform(0.05, 0.95))
        period = 4.0 * complete_elliptic_k(k)
        s0, c0, d0 = jacobi_sn_cn_dn(u, k)
        s1, c1, d1 = jacobi_sn_cn_dn(u + period, k)
        assert abs(s0 - s1) <= 1e-10
        assert abs(c0 - c1) <= 1e-10
        assert abs(d0 - d1) <= 1e-10


def test_complete_elliptic_matches_quadrature():
    for k in (0.1, 0.5, 0.9):
        assert abs(complete_elliptic_k(k) - _incomplete_f(np.pi / 2, k)) <= 1e-12


@pytest.mark.parametrize("k", [0.1, 0.3, np.sqrt(0.5), 0.9, 0.99, 0.999999])
@pytest.mark.parametrize("n", [1, 7, 6655])
def test_cached_in_place_descent_is_the_reference_loop_bitwise(k, n):
    # magnitudes 1e-8 to 1e4 of both signs, and exact zeros
    rng = np.random.default_rng(n)
    u = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-8, 4, n)
    u[1::5] = 0.0
    for _ in range(2):  # the second call reads the cached ladder
        got, want = jacobi_sn_cn_dn(u, k), sn_cn_dn_descent(u, k)
        for g, w in zip(got, want):
            assert np.array_equal(g.view(np.uint64), w.view(np.uint64))


def test_modulus_domain_error():
    with pytest.raises(ValueError):
        jacobi_sn_cn_dn(1.0, 1.5)


def test_argument_must_be_finite():
    with pytest.raises(ValueError):
        jacobi_sn_cn_dn(np.inf, 0.5)


# -- property tests ----------------------------------------------------------

from hypothesis import given, settings
from hypothesis import strategies as st


@settings(max_examples=150, deadline=None)
@given(st.floats(-12.0, 12.0), st.floats(0.0, 1.0))
def test_property_pythagorean_identities(u, msq):
    k = np.sqrt(msq)
    sn, cn, dn = jacobi_sn_cn_dn(u, k)
    assert abs(sn * sn + cn * cn - 1.0) <= 1e-12
    assert abs(dn * dn + msq * sn * sn - 1.0) <= 1e-12

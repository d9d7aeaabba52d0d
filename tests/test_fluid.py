"""Fluid model: coefficient matrices, dispersion roots, kernels."""

import numpy as np
import pytest

from riemannwaves import linalg
from riemannwaves.fluid import (
    ConstraintError,
    GasParams,
    NotACharacteristicError,
    StateVec,
    coefficient_matrices,
    dispersion_det,
    dispersion_matrix,
    wave_kernel,
)

from oracles import DegenerateWavesError, potential_wave, rotational_wave

GAS = GasParams()  # gamma = 5/3, kappa = 3


def random_state(rng):
    return StateVec(a=float(rng.uniform(0.3, 2.5)), u=rng.normal(0.0, 1.0, 3))


def build_matrix_elementwise(state, gas, i):
    """Independent element-by-element construction of A^i."""
    m = np.zeros((4, 4))
    for row in range(4):
        m[row, row] = state.u[i]
    m[0, i + 1] = state.a / gas.kappa
    m[i + 1, 0] = gas.kappa * state.a
    return m


def test_coefficient_matrices_rest_state():
    st = StateVec(a=1.0, u=np.zeros(3))
    gas = GasParams()  # kappa = 3
    a1, _, _ = coefficient_matrices(st, gas)
    assert np.allclose(a1[0], [0.0, 1.0 / 3.0, 0.0, 0.0])
    assert np.allclose(a1[:, 0], [0.0, 3.0, 0.0, 0.0])
    assert np.allclose(a1 - np.diag(np.diag(a1)) * 0, a1)  # finite sanity


def test_coefficient_matrices_uniform_velocity_diagonal():
    c = 0.7
    st = StateVec(a=1.3, u=np.full(3, c))
    for m in coefficient_matrices(st, GAS):
        assert np.allclose(np.diag(m), c)


def test_coefficient_matrices_elementwise_oracle():
    rng = np.random.default_rng(21)
    for _ in range(20):
        st = random_state(rng)
        mats = coefficient_matrices(st, GAS)
        for i in range(3):
            assert np.allclose(mats[i], build_matrix_elementwise(st, GAS, i), atol=1e-15)


def test_dispersion_root_and_generic_value():
    st = StateVec(a=1.0, u=np.zeros(3))
    e = np.array([1.0, 0.0, 0.0])
    assert abs(dispersion_det(st, (1.0, -e))) <= 1e-14
    # generic covector: factorized value (2)^2((2)^2 - 1) = 12, determinant agrees
    val = dispersion_det(st, (2.0, -e))
    assert abs(val - 12.0) <= 1e-12
    det = linalg.determinant(dispersion_matrix(st, (2.0, -e)))
    assert abs(det - val) <= 1e-10 * (1.0 + abs(val))


def test_factorized_matches_determinant_seeded():
    rng = np.random.default_rng(23)
    for _ in range(100):
        st = random_state(rng)
        wv = (float(rng.normal()), rng.normal(size=3))
        fact = dispersion_det(st, wv)
        det = linalg.determinant(dispersion_matrix(st, wv, GAS))
        assert abs(fact - det) <= 1e-10 * (1.0 + abs(fact) + abs(det))


def test_potential_wave_examples():
    st = StateVec(a=2.0, u=np.array([1.0, 0.0, 0.0]))
    e = np.array([1.0, 0.0, 0.0])
    wp = potential_wave(st, e, epsilon=1)
    assert np.allclose([wp.lam0, *wp.lam], [3.0, -1.0, 0.0, 0.0])
    wm = potential_wave(st, e, epsilon=-1)
    assert np.allclose([wm.lam0, *wm.lam], [-1.0, -1.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        potential_wave(st, np.array([1.0, 1.0, 0.0]))


def test_potential_wave_is_dispersion_root_seeded():
    rng = np.random.default_rng(29)
    for _ in range(50):
        st = random_state(rng)
        e = rng.normal(size=3)
        e /= np.linalg.norm(e)
        for eps in (1, -1):
            wv = potential_wave(st, e, eps)
            scale = 1.0 + st.a + float(np.max(np.abs(st.u)))
            assert abs(dispersion_det(st, wv)) <= 1e-12 * scale**4


def test_rotational_wave_examples():
    st = StateVec(a=1.0, u=np.zeros(3))
    wv = rotational_wave(st, np.array([0.0, 0.0, 1.0]), np.array([0.0, 1.0, 0.0]))
    assert np.allclose([wv.lam0, *wv.lam], [0.0, 1.0, 0.0, 0.0])
    # constant-direction pair matching the planar shear covector
    st2 = StateVec(a=1.0, u=np.array([0.4, -0.7, 0.2]))
    wv2 = rotational_wave(st2, np.array([1.0, 0.0, 0.0]), np.array([0.0, 0.0, 1.0]))
    assert abs(wv2.lam0 - (-st2.u[1])) <= 1e-14
    assert np.allclose(wv2.lam, [0.0, 1.0, 0.0])
    with pytest.raises(DegenerateWavesError):
        rotational_wave(st, np.array([1.0, 0.0, 0.0]), np.array([2.0, 0.0, 0.0]))


def test_rotational_triple_product_identity():
    rng = np.random.default_rng(31)
    for _ in range(50):
        st = random_state(rng)
        e = rng.normal(size=3)
        e /= np.linalg.norm(e)
        wv = rotational_wave(st, e, rng.normal(size=3))
        assert abs(wv.lam0 + st.u @ wv.lam) <= 1e-14 * (1 + abs(wv.lam0))


def test_kernel_multiplicities_and_residuals():
    rng = np.random.default_rng(37)
    for _ in range(40):
        st = random_state(rng)
        e = rng.normal(size=3)
        e /= np.linalg.norm(e)
        wp = potential_wave(st, e, 1 if rng.uniform() < 0.5 else -1)
        kp = wave_kernel(st, wp, GAS)
        assert kp.shape[1] == 1
        wr = rotational_wave(st, e, rng.normal(size=3))
        kr = wave_kernel(st, wr, GAS)
        assert kr.shape[1] == 2
        for wv, basis in ((wp, kp), (wr, kr)):
            mat = dispersion_matrix(st, wv, GAS)
            assert np.max(np.abs(mat @ basis)) <= 1e-10


def test_wave_kernel_rejects_non_root():
    st = StateVec(a=1.0, u=np.zeros(3))
    with pytest.raises(NotACharacteristicError):
        wave_kernel(st, (2.0, np.array([-1.0, 0.0, 0.0])), GAS)


def test_gas_params():
    gas = GasParams(gamma=5.0 / 3.0)
    assert abs(gas.kappa - 3.0) <= 1e-12
    assert type(GasParams(gamma=2).gamma) is float
    assert type(GasParams(gamma=np.float32(1.5)).gamma) is float
    # the one gamma rule: a finite real number above 1
    for bad in (1.0, 0.5, float("nan"), float("inf"), "abc", None, 1.5j):
        with pytest.raises(ConstraintError, match="gamma"):
            GasParams(gamma=bad)


def test_state_vec_validation():
    with pytest.raises(ValueError):
        StateVec(a=-1.0, u=np.zeros(3))
    with pytest.raises(ValueError):
        StateVec(a=1.0, u=np.array([np.nan, 0.0, 0.0]))

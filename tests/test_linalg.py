"""Small dense kernels against independent oracles."""

import numpy as np
import pytest

from riemannwaves import linalg

from oracles import cayley_hamilton_residual, faddeev_coeffs


def charpoly_cofactor(m):
    """Coefficients p_1..p_n of det(lam I - m) by polynomial cofactor expansion.

    Entirely independent of the Faddeev recursion: entries of lam*I - m are
    degree <= 1 polynomials in lam; the determinant is expanded recursively
    along the first row with exact convolution arithmetic.
    """
    m = np.asarray(m, dtype=float)
    n = m.shape[0]
    # polynomial entries, ascending coefficients: entry (i, j) -> [c0, c1]
    entries = [[np.array([-m[i, j], 1.0 if i == j else 0.0]) for j in range(n)]
               for i in range(n)]

    def det_poly(rows, cols):
        if len(rows) == 1:
            return entries[rows[0]][cols[0]]
        acc = np.zeros(1)
        r0 = rows[0]
        for idx, c in enumerate(cols):
            sub = det_poly(rows[1:], cols[:idx] + cols[idx + 1:])
            term = np.convolve(entries[r0][c], sub)
            sign = 1.0 if idx % 2 == 0 else -1.0
            if len(acc) < len(term):
                acc = np.pad(acc, (0, len(term) - len(acc)))
            acc[:len(term)] += sign * term
        return acc

    poly = det_poly(list(range(n)), list(range(n)))  # ascending in lam
    # det(lam I - m) = lam^n - p1 lam^(n-1) - ... - pn
    p = np.empty(n)
    for i in range(1, n + 1):
        p[i - 1] = -poly[n - i]
    return p


def test_faddeev_identity_2x2():
    assert np.allclose(faddeev_coeffs(np.eye(2)), [2.0, -1.0])


def test_faddeev_nilpotent():
    assert np.allclose(faddeev_coeffs([[0.0, 1.0], [0.0, 0.0]]), [0.0, 0.0])


def test_faddeev_matches_cofactor_oracle_seeded_3x3():
    rng = np.random.default_rng(42)
    m = rng.normal(size=(3, 3))
    p = faddeev_coeffs(m)
    p_oracle = charpoly_cofactor(m)
    assert np.allclose(p, p_oracle, rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_faddeev_oracle_agreement_200_matrices(n):
    rng = np.random.default_rng(1000 + n)
    for _ in range(200):
        m = rng.normal(size=(n, n))
        p = faddeev_coeffs(m)
        p_oracle = charpoly_cofactor(m)
        scale = np.maximum(np.abs(p_oracle), 1.0)
        assert np.all(np.abs(p - p_oracle) <= 1e-10 * scale)


def test_faddeev_last_coefficient_is_signed_determinant():
    rng = np.random.default_rng(7)
    for n in range(2, 7):
        m = rng.normal(size=(n, n))
        p = faddeev_coeffs(m)
        det = linalg.determinant(m)
        assert abs(p[-1] - (-1.0) ** (n + 1) * det) <= 1e-10 * max(1.0, abs(det))


def test_cayley_hamilton_trivial_cases():
    assert cayley_hamilton_residual(np.eye(3)) <= 1e-14
    assert cayley_hamilton_residual(np.diag([2.0, 3.0])) <= 1e-12
    # diagonal case pins p1 = 5, p2 = -6
    assert np.allclose(faddeev_coeffs(np.diag([2.0, 3.0])), [5.0, -6.0])


def test_cayley_hamilton_random_4x4_bound():
    rng = np.random.default_rng(11)
    m = rng.normal(size=(4, 4))
    norm = np.max(np.abs(m))
    assert cayley_hamilton_residual(m) <= 1e-9 * (1.0 + norm**4)


def test_cayley_hamilton_similarity_invariance():
    rng = np.random.default_rng(13)
    for n in (2, 3, 4):
        m = rng.normal(size=(n, n))
        q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        base = cayley_hamilton_residual(m)
        rotated = cayley_hamilton_residual(q @ m @ q.T)
        bound = 1e-9 * (1.0 + np.max(np.abs(m)) ** n)
        assert base <= bound and rotated <= bound


def test_determinant_inverse_against_numpy():
    rng = np.random.default_rng(17)
    for n in range(1, 7):
        m = rng.normal(size=(n, n)) + 2 * np.eye(n)
        assert abs(linalg.determinant(m) - np.linalg.det(m)) <= 1e-9 * (1 + abs(np.linalg.det(m)))
        assert np.allclose(linalg.inverse(m), np.linalg.inv(m), atol=1e-10)


def test_dimension_errors():
    with pytest.raises(linalg.DimensionError):
        faddeev_coeffs(np.ones((2, 3)))
    with pytest.raises(linalg.DimensionError):
        faddeev_coeffs(np.eye(7))


# -- property tests ----------------------------------------------------------

from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays


def square_matrices(max_n=5):
    return st.integers(2, max_n).flatmap(
        lambda n: arrays(np.float64, (n, n),
                         elements=st.floats(-10, 10, allow_nan=False)))


@settings(max_examples=60, deadline=None)
@given(square_matrices())
def test_property_last_coefficient_signed_det(m):
    n = m.shape[0]
    p = faddeev_coeffs(m)
    det = linalg.determinant(m)
    scale = 1.0 + np.max(np.abs(m)) ** n
    assert abs(p[-1] - (-1.0) ** (n + 1) * det) <= 1e-9 * scale


@settings(max_examples=60, deadline=None)
@given(square_matrices())
def test_property_cayley_hamilton(m):
    n = m.shape[0]
    assert cayley_hamilton_residual(m) <= 1e-9 * (1.0 + np.max(np.abs(m)) ** n)

"""Small dense kernels against independent oracles."""

import numpy as np
import pytest

from riemannwaves import linalg


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
    assert np.allclose(linalg.faddeev_coeffs(np.eye(2)), [2.0, -1.0])


def test_faddeev_nilpotent():
    assert np.allclose(linalg.faddeev_coeffs([[0.0, 1.0], [0.0, 0.0]]), [0.0, 0.0])


def test_faddeev_matches_cofactor_oracle_seeded_3x3():
    rng = np.random.default_rng(42)
    m = rng.normal(size=(3, 3))
    p = linalg.faddeev_coeffs(m)
    p_oracle = charpoly_cofactor(m)
    assert np.allclose(p, p_oracle, rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_faddeev_oracle_agreement_200_matrices(n):
    rng = np.random.default_rng(1000 + n)
    for _ in range(200):
        m = rng.normal(size=(n, n))
        p = linalg.faddeev_coeffs(m)
        p_oracle = charpoly_cofactor(m)
        scale = np.maximum(np.abs(p_oracle), 1.0)
        assert np.all(np.abs(p - p_oracle) <= 1e-10 * scale)


def test_faddeev_last_coefficient_is_signed_determinant():
    rng = np.random.default_rng(7)
    for n in range(2, 7):
        m = rng.normal(size=(n, n))
        p = linalg.faddeev_coeffs(m)
        det = linalg.determinant(m)
        assert abs(p[-1] - (-1.0) ** (n + 1) * det) <= 1e-10 * max(1.0, abs(det))


def test_cayley_hamilton_trivial_cases():
    assert linalg.cayley_hamilton_residual(np.eye(3)) <= 1e-14
    assert linalg.cayley_hamilton_residual(np.diag([2.0, 3.0])) <= 1e-12
    # diagonal case pins p1 = 5, p2 = -6
    assert np.allclose(linalg.faddeev_coeffs(np.diag([2.0, 3.0])), [5.0, -6.0])


def test_cayley_hamilton_random_4x4_bound():
    rng = np.random.default_rng(11)
    m = rng.normal(size=(4, 4))
    norm = np.max(np.abs(m))
    assert linalg.cayley_hamilton_residual(m) <= 1e-9 * (1.0 + norm**4)


def test_cayley_hamilton_similarity_invariance():
    rng = np.random.default_rng(13)
    for n in (2, 3, 4):
        m = rng.normal(size=(n, n))
        q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        base = linalg.cayley_hamilton_residual(m)
        rotated = linalg.cayley_hamilton_residual(q @ m @ q.T)
        bound = 1e-9 * (1.0 + np.max(np.abs(m)) ** n)
        assert base <= bound and rotated <= bound


def test_determinant_inverse_against_numpy():
    rng = np.random.default_rng(17)
    for n in range(1, 7):
        m = rng.normal(size=(n, n)) + 2 * np.eye(n)
        assert abs(linalg.determinant(m) - np.linalg.det(m)) <= 1e-9 * (1 + abs(np.linalg.det(m)))
        assert np.allclose(linalg.inverse(m), np.linalg.inv(m), atol=1e-10)


def jacobi_singular_values_loop(m, max_sweeps=60, tol=1e-14):
    """One-sided Jacobi on one matrix, a column pair at a time: the scalar loop
    that ``linalg.singular_values`` runs on a whole stack at once."""
    a = np.array(m, dtype=float)
    a = a.T.copy() if a.shape[0] < a.shape[1] else a
    n = a.shape[1]
    for _ in range(max_sweeps):
        moved = False
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq, app, aqq = a[:, p] @ a[:, q], a[:, p] @ a[:, p], a[:, q] @ a[:, q]
                denom = np.sqrt(app * aqq)
                if denom == 0.0 or abs(apq) <= tol * denom:
                    continue
                moved = True
                tau = (aqq - app) / (2.0 * apq)
                t = 1.0 if tau == 0.0 else np.sign(tau) / (abs(tau) + np.sqrt(1.0 + tau * tau))
                c = 1.0 / np.sqrt(1.0 + t * t)
                ap = a[:, p].copy()
                a[:, p] = c * ap - c * t * a[:, q]
                a[:, q] = c * t * ap + c * a[:, q]
        if not moved:
            break
    return np.sort(np.sqrt(np.sum(a * a, axis=0)))[::-1]


def test_singular_values_match_numpy():
    rng = np.random.default_rng(19)
    for shape in [(4, 4), (3, 4), (6, 2)]:
        m = rng.normal(size=shape)
        sv = linalg.singular_values(m)
        ref = np.linalg.svd(m, compute_uv=False)
        assert np.allclose(sv, ref, atol=1e-12)
    # a stack: one row of values per matrix, equal to the matrix alone
    for shape in [(40, 4, 4), (25, 3, 5)]:
        stack = rng.normal(size=shape)
        stack[::4] *= 0.0                     # converged at once, beside ones that sweep
        sv = linalg.singular_values(stack)
        assert sv.shape == (shape[0], min(shape[1:]))
        assert np.allclose(sv, np.linalg.svd(stack, compute_uv=False), atol=1e-12)
        for m, row in zip(stack, sv):
            assert np.array_equal(linalg.singular_values(m), row)
            # the loop sums its dot products in another order: rounding only
            assert np.allclose(row, jacobi_singular_values_loop(m), rtol=0.0,
                               atol=1e-13 * (1.0 + row[0]))


def test_numerical_rank_of_a_stack_is_per_matrix():
    rng = np.random.default_rng(23)
    want = np.arange(60) % 5                  # ranks 0..4 of 4x4 products
    stack = np.array([rng.normal(size=(4, r)) @ rng.normal(size=(r, 4)) for r in want])
    ranks = linalg.numerical_rank(stack)
    assert np.array_equal(ranks, want)
    assert np.array_equal(ranks, [linalg.numerical_rank(m) for m in stack])


def test_numerical_rank_examples():
    assert linalg.numerical_rank(np.zeros((3, 3))) == 0
    v = np.array([1.0, -2.0, 0.5])
    w = np.array([0.3, 0.7, -1.1])
    assert linalg.numerical_rank(np.outer(v, w)) == 1
    assert linalg.numerical_rank(np.diag([1.0, 1e-14]), rel_tol=1e-8) == 1


def test_numerical_rank_rejects_bad_tolerance():
    with pytest.raises(ValueError):
        linalg.numerical_rank(np.eye(2), rel_tol=2.0)


def test_dimension_errors():
    with pytest.raises(linalg.DimensionError):
        linalg.faddeev_coeffs(np.ones((2, 3)))
    with pytest.raises(linalg.DimensionError):
        linalg.faddeev_coeffs(np.eye(7))


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
    p = linalg.faddeev_coeffs(m)
    det = linalg.determinant(m)
    scale = 1.0 + np.max(np.abs(m)) ** n
    assert abs(p[-1] - (-1.0) ** (n + 1) * det) <= 1e-9 * scale


@settings(max_examples=60, deadline=None)
@given(square_matrices())
def test_property_cayley_hamilton(m):
    n = m.shape[0]
    assert linalg.cayley_hamilton_residual(m) <= 1e-9 * (1.0 + np.max(np.abs(m)) ** n)

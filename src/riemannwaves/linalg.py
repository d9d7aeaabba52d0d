"""Small dense real matrix kernels (n <= 6).

What the wave machinery needs from linear algebra: determinant and
inverse by partial-pivot elimination (the per-point trace conditions),
singular values by one-sided Jacobi iteration with numerical rank and null
space (the rank checks), and the characteristic-polynomial coefficients
p_1..p_n computed through the Faddeev recursion

    k p_k = s_k - p_1 s_{k-1} - ... - p_{k-1} s_1,   s_k = tr(m^k),

so that det(lam*I - m) = lam^n - sum_i p_i lam^(n-i).  The matrices are
tiny (4x4 for the fluid system), so the hand-rolled kernels are both
adequate and easy to audit; tests cross-check them against independent
oracles.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "as_square",
    "determinant",
    "inverse",
    "faddeev_coeffs",
    "cayley_hamilton_residual",
    "singular_values",
    "numerical_rank",
    "null_space",
]

MAX_DIM = 6


class DimensionError(ValueError):
    """Input matrix has an unsupported shape."""


def as_square(m, max_dim: int = MAX_DIM) -> np.ndarray:
    """Validate and return ``m`` as a float square matrix of size <= max_dim."""
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] < 1 or a.shape[0] > max_dim:
        raise DimensionError(f"matrix dimension {a.shape[0]} outside 1..{max_dim}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    return a


def determinant(m) -> float:
    """Determinant via Gaussian elimination with partial pivoting."""
    a = as_square(m).copy()
    n = a.shape[0]
    det = 1.0
    for j in range(n):
        p = j + int(np.argmax(np.abs(a[j:, j])))
        if a[p, j] == 0.0:
            return 0.0
        if p != j:
            a[[j, p]] = a[[p, j]]
            det = -det
        det *= a[j, j]
        a[j + 1:] -= np.outer(a[j + 1:, j] / a[j, j], a[j])
    return float(det)


def inverse(m) -> np.ndarray:
    """Inverse via Gauss-Jordan elimination with partial pivoting."""
    a = as_square(m).copy()
    n = a.shape[0]
    aug = np.hstack([a, np.eye(n)])
    for j in range(n):
        p = j + int(np.argmax(np.abs(aug[j:, j])))
        if aug[p, j] == 0.0:
            raise np.linalg.LinAlgError("matrix is singular")
        if p != j:
            aug[[j, p]] = aug[[p, j]]
        aug[j] /= aug[j, j]
        for i in range(n):
            if i != j:
                aug[i] -= aug[i, j] * aug[j]
    return aug[:, n:].copy()


def faddeev_coeffs(m) -> np.ndarray:
    """Characteristic polynomial coefficients p_1..p_n by the Faddeev recursion.

    Convention: det(lam*I - m) = lam^n - p_1 lam^(n-1) - ... - p_n, so
    p_1 = tr(m) and p_n = (-1)^(n+1) det(m).
    """
    a = as_square(m)
    n = a.shape[0]
    powers = [a]
    for _ in range(n - 1):
        powers.append(powers[-1] @ a)
    s = np.array([np.trace(p) for p in powers])
    p = np.empty(n)
    for k in range(1, n + 1):
        acc = s[k - 1]
        for i in range(1, k):
            acc -= p[i - 1] * s[k - i - 1]
        p[k - 1] = acc / k
    return p


def cayley_hamilton_residual(m) -> float:
    """Max-norm of m^n - sum_i p_i(m) m^(n-i); ~0 by the Cayley-Hamilton theorem."""
    a = as_square(m)
    n = a.shape[0]
    p = faddeev_coeffs(a)
    res = np.linalg.matrix_power(a, n)
    for i in range(1, n + 1):
        res = res - p[i - 1] * np.linalg.matrix_power(a, n - i)
    return float(np.max(np.abs(res)))


def singular_values(m, max_sweeps: int = 60, tol: float = 1e-14) -> np.ndarray:
    """Singular values by one-sided Jacobi iteration, descending order.

    Accepts rectangular input; works on columns of the (tall) matrix and
    orthogonalizes column pairs until all off-diagonal Gram entries are
    below tol relative to the column norms.
    """
    a = np.asarray(m, dtype=float)
    if a.ndim != 2:
        raise DimensionError(f"expected a matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    if a.shape[0] < a.shape[1]:
        a = a.T
    a = a.copy()
    n = a.shape[1]
    for _ in range(max_sweeps):
        off = 0.0
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = float(a[:, p] @ a[:, q])
                app = float(a[:, p] @ a[:, p])
                aqq = float(a[:, q] @ a[:, q])
                denom = np.sqrt(app * aqq)
                if denom == 0.0 or abs(apq) <= tol * denom:
                    continue
                off = max(off, abs(apq) / denom)
                tau = (aqq - app) / (2.0 * apq)
                t = np.sign(tau) / (abs(tau) + np.sqrt(1.0 + tau * tau))
                if tau == 0.0:
                    t = 1.0
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = c * t
                ap = a[:, p].copy()
                a[:, p] = c * ap - s * a[:, q]
                a[:, q] = s * ap + c * a[:, q]
        if off <= tol:
            break
    sv = np.sqrt(np.sum(a * a, axis=0))
    sv.sort()
    return sv[::-1]


def numerical_rank(m, rel_tol: float = 1e-8) -> int:
    """Number of singular values above rel_tol * (largest singular value)."""
    if not 0.0 < rel_tol < 1.0:
        raise ValueError("rel_tol must lie in (0, 1)")
    sv = singular_values(m)
    if sv.size == 0 or sv[0] == 0.0:
        return 0
    return int(np.sum(sv > rel_tol * sv[0]))


def null_space(m, rel_tol: float = 1e-8) -> np.ndarray:
    """Orthonormal basis (columns) of the kernel of m, via SVD."""
    a = np.asarray(m, dtype=float)
    if a.ndim != 2:
        raise DimensionError(f"expected a matrix, got shape {a.shape}")
    u, sv, vt = np.linalg.svd(a)
    cutoff = rel_tol * (sv[0] if sv.size and sv[0] > 0 else 1.0)
    mask = np.concatenate([sv <= cutoff, np.ones(a.shape[1] - sv.size, dtype=bool)])
    return vt[mask].T.copy()

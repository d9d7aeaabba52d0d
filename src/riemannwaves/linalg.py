"""Small dense real matrix kernels (n <= 6).

What the wave machinery needs from linear algebra: the inverse by
partial-pivot elimination (the per-point trace conditions), the
determinant by the same elimination (the dispersion-relation audit),
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
JACOBI_MAX_SWEEPS = 60
JACOBI_TOL = 1e-14    # off-diagonal Gram entry relative to the column norms
NULL_REL_TOL = 1e-8   # kernel cutoff relative to the largest singular value


class DimensionError(ValueError):
    """Input matrix has an unsupported shape."""


def as_square(m) -> np.ndarray:
    """Validate and return ``m`` as a float square matrix of size <= MAX_DIM."""
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] < 1 or a.shape[0] > MAX_DIM:
        raise DimensionError(f"matrix dimension {a.shape[0]} outside 1..{MAX_DIM}")
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


def singular_values(m) -> np.ndarray:
    """Singular values by one-sided Jacobi iteration, descending order.

    Accepts a rectangular matrix, or a stack (N, m, n) of them with one row
    of values per matrix; works on columns of the (tall) matrices and
    orthogonalizes column pairs until all off-diagonal Gram entries are
    below JACOBI_TOL relative to the column norms.  Each rotation acts on the
    matrices of the stack that need it, so a matrix's values do not depend
    on its stack.
    """
    a = np.asarray(m, dtype=float)
    if a.ndim not in (2, 3):
        raise DimensionError(f"expected a matrix or a stack of them, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    single = a.ndim == 2
    a = a[None] if single else a
    a = (np.swapaxes(a, 1, 2) if a.shape[1] < a.shape[2] else a).copy()
    n = a.shape[2]
    for _ in range(JACOBI_MAX_SWEEPS):
        moved = False
        for p in range(n - 1):
            for q in range(p + 1, n):
                ap, aq = a[:, :, p], a[:, :, q]
                apq = np.einsum("ni,ni->n", ap, aq)
                app = np.einsum("ni,ni->n", ap, ap)
                aqq = np.einsum("ni,ni->n", aq, aq)
                denom = np.sqrt(app * aqq)
                rot = (denom != 0.0) & (np.abs(apq) > JACOBI_TOL * denom)
                if not rot.any():
                    continue
                moved = True
                tau = (aqq[rot] - app[rot]) / (2.0 * apq[rot])
                with np.errstate(over="ignore"):  # tau * tau = inf: t = 0, no rotation
                    t = np.sign(tau) / (np.abs(tau) + np.sqrt(1.0 + tau * tau))
                t[tau == 0.0] = 1.0
                c = (1.0 / np.sqrt(1.0 + t * t))[:, None]
                s = c * t[:, None]
                ap, aq = ap[rot], aq[rot]
                a[rot, :, p] = c * ap - s * aq
                a[rot, :, q] = s * ap + c * aq
        if not moved:
            break
    sv = np.sort(np.sqrt(np.sum(a * a, axis=1)), axis=1)[:, ::-1]
    return sv[0] if single else sv


def numerical_rank(m, rel_tol: float = 1e-8):
    """Number of singular values above rel_tol * (largest singular value):
    an int for a matrix, an (N,) array for a stack (N, m, n)."""
    if not 0.0 < rel_tol < 1.0:
        raise ValueError("rel_tol must lie in (0, 1)")
    sv = singular_values(m)
    rank = np.sum(sv > rel_tol * sv[..., :1], axis=-1)
    return int(rank) if sv.ndim == 1 else rank


def null_space(m) -> np.ndarray:
    """Orthonormal basis (columns) of the kernel of m, via SVD (cutoff NULL_REL_TOL)."""
    a = np.asarray(m, dtype=float)
    if a.ndim != 2:
        raise DimensionError(f"expected a matrix, got shape {a.shape}")
    u, sv, vt = np.linalg.svd(a)
    cutoff = NULL_REL_TOL * (sv[0] if sv.size and sv[0] > 0 else 1.0)
    mask = np.concatenate([sv <= cutoff, np.ones(a.shape[1] - sv.size, dtype=bool)])
    return vt[mask].T.copy()

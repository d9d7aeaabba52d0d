"""Small dense real matrix kernels (n <= 6).

What the wave machinery needs from linear algebra: the inverse by
partial-pivot elimination (the per-point trace conditions), the
determinant by the same elimination (the dispersion-relation audit), and
the null space by numpy's SVD (the wave-relation kernels).  The matrices
are tiny (4x4 for the fluid system), so the hand-rolled eliminations are
both adequate and easy to audit; tests cross-check them against numpy.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "as_square",
    "determinant",
    "inverse",
    "null_space",
]

MAX_DIM = 6
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


def null_space(m) -> np.ndarray:
    """Orthonormal basis (columns) of the kernel of m, via SVD (cutoff NULL_REL_TOL)."""
    a = np.asarray(m, dtype=float)
    if a.ndim != 2:
        raise DimensionError(f"expected a matrix, got shape {a.shape}")
    u, sv, vt = np.linalg.svd(a)
    cutoff = NULL_REL_TOL * (sv[0] if sv.size and sv[0] > 0 else 1.0)
    mask = np.concatenate([sv <= cutoff, np.ones(a.shape[1] - sv.size, dtype=bool)])
    return vt[mask].T.copy()

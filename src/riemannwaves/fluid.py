"""The isentropic compressible fluid model in (3+1) dimensions.

State is u = (a, u1, u2, u3): sound speed plus velocity.  The system in
evolution form is

    Da + a/kappa * div(u) = 0,    Du + kappa*a*grad(a) = 0,

with D the convective derivative and kappa = 2/(gamma-1).  This module owns
the coefficient matrices A^i, the dispersion relation

    det(lam0*I4 + lam_i A^i) = (lam0 + u.lam)^2 [(lam0 + u.lam)^2 - a^2 lam^2],

and its two root families (potential / acoustic and rotational / vortex wave
covectors) with their wave-relation kernels.  The covectors themselves are
built where the families run them (``catalog.base.PotentialWave`` /
``RotationalWave``).  Every function here takes the state as the array
(a, u1, u2, u3) and a covector as the row (lam0, lam1, lam2, lam3), one row
of a family's ``waves(u)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Real

import numpy as np

__all__ = [
    "ConstraintError",
    "GasParams",
    "NotACharacteristicError",
    "coefficient_matrices",
    "dispersion_matrix",
    "dispersion_det",
    "wave_kernel",
]


class ConstraintError(ValueError):
    """Parameters violate a structural constraint."""


class NotACharacteristicError(ValueError):
    """Covector is not a root of the dispersion relation."""


@dataclass(frozen=True)
class GasParams:
    """Adiabatic exponent, a finite real number above 1, and the derived
    kappa = 2/(gamma-1)."""

    gamma: float = 5.0 / 3.0

    def __post_init__(self):
        if not (isinstance(self.gamma, Real) and 1.0 < self.gamma < np.inf):
            raise ConstraintError(f"gamma must be a finite number above 1, got {self.gamma!r}")
        object.__setattr__(self, "gamma", float(self.gamma))

    @property
    def kappa(self) -> float:
        return 2.0 / (self.gamma - 1.0)


def coefficient_matrices(state, gas: GasParams = GasParams()):
    """The three 4x4 matrices A^i: u^i on the diagonal plus the acoustic coupling.

    A^i has a/kappa in row 1, column i+1 and kappa*a in row i+1, column 1
    (1-based), all other off-diagonal entries zero.
    """
    a, u, kappa = float(state[0]), state[1:], gas.kappa
    mats = []
    for i in range(3):
        m = np.eye(4) * u[i]
        m[0, i + 1] = a / kappa
        m[i + 1, 0] = kappa * a
        mats.append(m)
    return tuple(mats)


def dispersion_matrix(state, lam, gas: GasParams = GasParams()) -> np.ndarray:
    """lam0*I4 + lam_i A^i for a covector row lam."""
    a1, a2, a3 = coefficient_matrices(state, gas)
    return lam[0] * np.eye(4) + lam[1] * a1 + lam[2] * a2 + lam[3] * a3


def dispersion_det(state, lam) -> float:
    """Factorized dispersion determinant (lam0+u.lam)^2 [(lam0+u.lam)^2 - a^2 lam^2].

    Equals det(lam0*I4 + lam_i A^i) to rounding; the determinant route is
    exercised by the tests as the independent cross-check.
    """
    conv = float(lam[0]) + float(state[1:] @ lam[1:])
    return conv * conv * (conv * conv - float(state[0])**2 * float(lam[1:] @ lam[1:]))


def wave_kernel(state, lam, gas: GasParams = GasParams()) -> np.ndarray:
    """Orthonormal basis (columns) of ker(lam0*I4 + lam_i A^i) at a dispersion root.

    Potential roots carry one-dimensional kernels, rotational roots
    two-dimensional ones: the right singular vectors whose singular values
    are at most 1e-8 of the largest.  Raises NotACharacteristicError when
    the covector misses the dispersion variety.
    """
    mat = dispersion_matrix(state, lam, gas)
    scale = 1.0 + float(np.max(np.abs(lam))) * (1.0 + float(state[0]) + float(np.max(np.abs(state[1:]))))
    if abs(dispersion_det(state, lam)) > 1e-8 * scale**4:
        raise NotACharacteristicError("covector is not a root of the dispersion relation")
    _, sv, vt = np.linalg.svd(mat)
    basis = vt[sv <= 1e-8 * sv[0]].T.copy()
    if basis.shape[1] == 0:
        raise NotACharacteristicError("dispersion matrix has no numeric kernel at this state")
    return basis

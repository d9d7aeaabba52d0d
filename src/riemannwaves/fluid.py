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
``RotationalWave``); this module takes any covector as a pair (lam0, lam).
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Real

import numpy as np

from . import linalg

__all__ = [
    "ConstraintError",
    "GasParams",
    "StateVec",
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


@dataclass(frozen=True)
class StateVec:
    """Fluid state: sound speed a > 0 and velocity 3-vector."""

    a: float
    u: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "u", np.asarray(self.u, dtype=float).reshape(3))
        if not (np.isfinite(self.a) and self.a > 0.0):
            raise ValueError(f"sound speed must be positive and finite, got {self.a}")
        if not np.all(np.isfinite(self.u)):
            raise ValueError("velocity components must be finite")

    @classmethod
    def from_array(cls, arr) -> "StateVec":
        arr = np.asarray(arr, dtype=float).reshape(4)
        return cls(a=float(arr[0]), u=arr[1:].copy())


def coefficient_matrices(state: StateVec, gas: GasParams = GasParams()):
    """The three 4x4 matrices A^i: u^i on the diagonal plus the acoustic coupling.

    A^i has a/kappa in row 1, column i+1 and kappa*a in row i+1, column 1
    (1-based), all other off-diagonal entries zero.
    """
    a, u, kappa = state.a, state.u, gas.kappa
    mats = []
    for i in range(3):
        m = np.eye(4) * u[i]
        m[0, i + 1] = a / kappa
        m[i + 1, 0] = kappa * a
        mats.append(m)
    return tuple(mats)


def dispersion_matrix(state: StateVec, wv, gas: GasParams = GasParams()) -> np.ndarray:
    """lam0*I4 + lam_i A^i for a covector (lam0, lam)."""
    lam0, lam = _split_wv(wv)
    a1, a2, a3 = coefficient_matrices(state, gas)
    return lam0 * np.eye(4) + lam[0] * a1 + lam[1] * a2 + lam[2] * a3


def _split_wv(wv):
    lam0, lam = wv
    return float(lam0), np.asarray(lam, dtype=float).reshape(3)


def dispersion_det(state: StateVec, wv) -> float:
    """Factorized dispersion determinant (lam0+u.lam)^2 [(lam0+u.lam)^2 - a^2 lam^2].

    Equals det(lam0*I4 + lam_i A^i) to rounding; the determinant route is
    exercised by the tests as the independent cross-check.
    """
    lam0, lam = _split_wv(wv)
    conv = lam0 + float(state.u @ lam)
    return conv * conv * (conv * conv - state.a**2 * float(lam @ lam))


def wave_kernel(state: StateVec, wv, gas: GasParams = GasParams()) -> np.ndarray:
    """Orthonormal basis (columns) of ker(lam0*I4 + lam_i A^i) at a dispersion root.

    Potential roots carry one-dimensional kernels, rotational roots
    two-dimensional ones.  Raises NotACharacteristicError when the covector
    misses the dispersion variety.
    """
    mat = dispersion_matrix(state, wv, gas)
    lam0, lam = _split_wv(wv)
    scale = 1.0 + max(abs(lam0), float(np.max(np.abs(lam)))) * (1.0 + state.a + float(np.max(np.abs(state.u))))
    if abs(dispersion_det(state, wv)) > 1e-8 * scale**4:
        raise NotACharacteristicError("covector is not a root of the dispersion relation")
    basis = linalg.null_space(mat)
    if basis.shape[1] == 0:
        raise NotACharacteristicError("dispersion matrix has no numeric kernel at this state")
    return basis


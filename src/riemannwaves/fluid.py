"""The isentropic compressible fluid model in (3+1) dimensions.

State is u = (a, u1, u2, u3): sound speed plus velocity.  The system in
evolution form is

    Da + a/kappa * div(u) = 0,    Du + kappa*a*grad(a) = 0,

with D the convective derivative and kappa = 2/(gamma-1).  This module owns
the coefficient matrices A^i, the dispersion relation

    det(lam0*I4 + lam_i A^i) = (lam0 + u.lam)^2 [(lam0 + u.lam)^2 - a^2 lam^2],

and its two root families (potential / acoustic and rotational / vortex wave
covectors) with their wave-relation kernels.  ``potential_wave`` and
``rotational_wave`` are the reference form of the covectors that the catalog
families run (``catalog.base.PotentialWave`` / ``RotationalWave``).
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
    "WaveVector",
    "DegenerateWavesError",
    "NotACharacteristicError",
    "coefficient_matrices",
    "dispersion_matrix",
    "dispersion_det",
    "potential_wave",
    "rotational_wave",
    "wave_kernel",
]

UNIT_TOL = 1e-12
UNIT_FIX = 1e-9  # renormalize silently when within this of unit length


class ConstraintError(ValueError):
    """Parameters violate a structural constraint."""


class DegenerateWavesError(ValueError):
    """Wave vectors fail a linear-independence / nondegeneracy requirement."""


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


@dataclass(frozen=True)
class WaveVector:
    """Dispersion-root covector (lam0, lam1, lam2, lam3) with a kind tag.

    kind is "potential" (acoustic, carries epsilon and the unit direction e)
    or "rotational" (vortex, carries e; its spatial part is -e x m).
    """

    lam0: float
    lam: np.ndarray
    kind: str
    epsilon: int = 0
    e: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "lam", np.asarray(self.lam, dtype=float).reshape(3))
        if self.kind not in ("potential", "rotational"):
            raise ValueError(f"unknown wave kind {self.kind!r}")
        if np.allclose(self.lam, 0.0):
            raise DegenerateWavesError("spatial part of a wave covector must be nonzero")


def _unit(e) -> np.ndarray:
    e = np.asarray(e, dtype=float).reshape(3)
    norm = float(np.linalg.norm(e))
    if abs(norm - 1.0) > UNIT_FIX:
        raise ValueError(f"direction must be a unit vector, |e| = {norm}")
    if abs(norm - 1.0) > UNIT_TOL:
        e = e / norm
    return e


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
    """lam0*I4 + lam_i A^i for a covector (lam0, lam) or WaveVector."""
    lam0, lam = _split_wv(wv)
    a1, a2, a3 = coefficient_matrices(state, gas)
    return lam0 * np.eye(4) + lam[0] * a1 + lam[1] * a2 + lam[2] * a3


def _split_wv(wv):
    if isinstance(wv, WaveVector):
        return wv.lam0, wv.lam
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


def potential_wave(state: StateVec, e, epsilon: int = 1) -> WaveVector:
    """Acoustic covector (eps*a + u.e, -e) for a unit direction e and eps = +-1."""
    if epsilon not in (1, -1):
        raise ValueError(f"epsilon must be 1 or -1, got {epsilon!r}")
    e = _unit(e)
    lam0 = epsilon * state.a + float(state.u @ e)
    return WaveVector(lam0=lam0, lam=-e, kind="potential", epsilon=epsilon, e=e)


def rotational_wave(state: StateVec, e, m) -> WaveVector:
    """Vortex covector (det(u,e,m), -e x m) for unit e and m not parallel to e."""
    e = _unit(e)
    m = np.asarray(m, dtype=float).reshape(3)
    exm = np.cross(e, m)
    if np.linalg.norm(exm) < 1e-12:
        raise DegenerateWavesError("e and m are parallel; rotational direction degenerate")
    lam0 = float(np.linalg.det(np.vstack([state.u, e, m])))
    return WaveVector(lam0=lam0, lam=-exm, kind="rotational", e=e)


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


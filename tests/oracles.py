"""Reference forms and audit kernels that the tests compare the package against.

None of this runs in the package.  It holds:

* the Faddeev characteristic-polynomial coefficients and the
  Cayley-Hamilton residual built on them (criterion 03);
* the reference covector forms ``potential_wave`` and ``rotational_wave``,
  rows (lam0, lam1, lam2, lam3) at a state array (a, u1, u2, u3), which the
  catalog's ``PotentialWave`` / ``RotationalWave`` must reproduce (criteria
  01 and 02);
* stream-function presets with analytic Hessians and the Monge-Ampere
  residual they satisfy (criterion 11);
* the descending-Landen loop of ``jacobi_sn_cn_dn`` as first written (its
  ladder rebuilt per call, one ``np.clip`` and new arrays per step), which
  the cached, in-place descent must reproduce bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from riemannwaves.linalg import as_square

UNIT_TOL = 1e-12
UNIT_FIX = 1e-9  # renormalize silently when within this of unit length


# -- characteristic polynomial ------------------------------------------------

def faddeev_coeffs(m) -> np.ndarray:
    """Characteristic polynomial coefficients p_1..p_n by the Faddeev recursion

        k p_k = s_k - p_1 s_{k-1} - ... - p_{k-1} s_1,   s_k = tr(m^k).

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


# -- reference covectors ------------------------------------------------------

class DegenerateWavesError(ValueError):
    """Wave vectors fail a linear-independence / nondegeneracy requirement."""


def _unit(e) -> np.ndarray:
    e = np.asarray(e, dtype=float).reshape(3)
    norm = float(np.linalg.norm(e))
    if abs(norm - 1.0) > UNIT_FIX:
        raise ValueError(f"direction must be a unit vector, |e| = {norm}")
    if abs(norm - 1.0) > UNIT_TOL:
        e = e / norm
    return e


def potential_wave(state, e, epsilon: int = 1) -> np.ndarray:
    """Acoustic covector row (eps*a + u.e, -e) for a unit direction e and eps = +-1."""
    if epsilon not in (1, -1):
        raise ValueError(f"epsilon must be 1 or -1, got {epsilon!r}")
    e = _unit(e)
    lam0 = epsilon * float(state[0]) + float(state[1:] @ e)
    return np.concatenate([[lam0], -e])


def rotational_wave(state, e, m) -> np.ndarray:
    """Vortex covector row (det(u,e,m), -e x m) for unit e and m not parallel to e."""
    e = _unit(e)
    m = np.asarray(m, dtype=float).reshape(3)
    exm = np.cross(e, m)
    if np.linalg.norm(exm) < 1e-12:
        raise DegenerateWavesError("e and m are parallel; rotational direction degenerate")
    lam0 = float(np.linalg.det(np.vstack([state[1:], e, m])))
    return np.concatenate([[lam0], -exm])


# -- stream functions ---------------------------------------------------------

@dataclass(frozen=True)
class Stream:
    """Stream function (p, q) -> psi with partials (dp, dq) and an analytic
    ``hessian(p, q)`` returning (psi_pp, psi_qq, psi_pq)."""

    name: str
    f: Callable
    dp: Callable
    dq: Callable
    hessian: Callable


def quadratic_stream(c):
    """Stream function h = (c/2)(p^2 + q^2); h11 h22 - h12^2 = c^2."""

    def f(p, q):
        p = np.asarray(p, float)
        q = np.asarray(q, float)
        return 0.5 * c * (p * p + q * q)

    def hess(p, q):
        shape = np.broadcast(np.asarray(p, float), np.asarray(q, float)).shape
        return (np.full(shape, c), np.full(shape, c), np.zeros(shape))

    return Stream(f"quadratic(c={c:g})", f,
                  lambda p, q: c * np.asarray(p, float),
                  lambda p, q: c * np.asarray(q, float),
                  hessian=hess)


def npower_stream(n):
    """Degenerate stream function psi = -p^n q^(1-n); h11 h22 - h12^2 = 0.

    Generates the power-law velocity pair of the two-vortex family;
    homogeneous of degree one, hence an exact solution of the homogeneous
    Monge-Ampere equation.
    """
    n = int(n)

    def f(p, q):
        p, q = np.asarray(p, float), np.asarray(q, float)
        return -(p**n) * q ** (1 - n)

    def dp(p, q):
        p, q = np.asarray(p, float), np.asarray(q, float)
        return -n * p ** (n - 1) * q ** (1 - n)

    def dq(p, q):
        p, q = np.asarray(p, float), np.asarray(q, float)
        return (n - 1) * p**n * q ** (-n)

    def hess(p, q):
        p, q = np.asarray(p, float), np.asarray(q, float)
        hpp = -n * (n - 1) * p ** (n - 2) * q ** (1 - n)
        hqq = -n * (n - 1) * p**n * q ** (-1 - n)
        hpq = n * (n - 1) * p ** (n - 1) * q ** (-n)
        return hpp, hqq, hpq

    return Stream(f"npower(n={n})", f, dp, dq, hessian=hess)


def homogeneous_stream(g, dg, d2g):
    """psi(p, q) = p g(q/p): degree-one homogeneous, exact degenerate Hessian."""

    def f(p, q):
        p, q = np.asarray(p, float), np.asarray(q, float)
        return p * g(q / p)

    def dp(p, q):
        p, q = np.asarray(p, float), np.asarray(q, float)
        w = q / p
        return g(w) - w * dg(w)

    def dq(p, q):
        p, q = np.asarray(p, float), np.asarray(q, float)
        return dg(q / p)

    def hess(p, q):
        p, q = np.asarray(p, float), np.asarray(q, float)
        w = q / p
        return (w * w / p) * d2g(w), d2g(w) / p, -(w / p) * d2g(w)

    return Stream("homogeneous", f, dp, dq, hessian=hess)


def monge_ampere_residual(h, b1: float, samples) -> float:
    """max |h_pp h_qq - h_pq^2 - B1| over sample points (M, 2).

    ``h`` must carry an analytic ``hessian(p, q) -> (hpp, hqq, hpq)``, as the
    stream presets above do; raises ValueError otherwise.
    """
    hessian = getattr(h, "hessian", None)
    if hessian is None:
        raise ValueError(f"{getattr(h, 'name', h)!r} has no analytic hessian")
    samples = np.asarray(samples, dtype=float).reshape(-1, 2)
    hpp, hqq, hpq = hessian(samples[:, 0], samples[:, 1])
    res = hpp * hqq - hpq**2 - b1
    return float(np.max(np.abs(res)))


# -- Jacobi elliptic descent ----------------------------------------------------

def agm_ladder(kp: float):
    """AGM sequence for (1, k'); returns lists (a_n, c_n)."""
    a, b = 1.0, kp
    avals = [a]
    cvals = [(1.0 - kp * kp) ** 0.5]  # c_0 = k
    while cvals[-1] > 1e-15 and len(avals) < 32:
        an, bn, cn = 0.5 * (a + b), np.sqrt(a * b), 0.5 * (a - b)
        a, b = an, bn
        avals.append(an)
        cvals.append(cn)
    return avals, cvals


def sn_cn_dn_descent(u, k: float):
    """(sn, cn, dn) of finite u (N,) for 0 < k^2 < 1 - 1e-12 by the reference loop."""
    m = k * k
    avals, cvals = agm_ladder(np.sqrt(1.0 - m))
    n = len(avals) - 1
    phi = (2.0**n) * avals[n] * u
    for i in range(n, 0, -1):
        phi = 0.5 * (phi + np.arcsin(np.clip(cvals[i] / avals[i] * np.sin(phi), -1.0, 1.0)))
    sn = np.sin(phi)
    return sn, np.cos(phi), np.sqrt(1.0 - m * sn * sn)

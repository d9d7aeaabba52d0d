"""Jacobi elliptic functions sn, cn, dn for real argument and modulus.

The snoidal double-wave profiles need sn/cn/dn on 0 <= k^2 <= 1.  The
implementation is the classical descending-Landen / arithmetic-geometric-mean
scheme (Abramowitz & Stegun 16.4, DLMF 22.20): build the AGM ladder
a_{n+1} = (a_n+b_n)/2, b_{n+1} = sqrt(a_n b_n), c_{n+1} = (a_n-b_n)/2 until
c_N vanishes to machine precision, seed phi_N = 2^N a_N u and descend

    phi_{n-1} = (phi_n + asin(c_n/a_n * sin(phi_n))) / 2,

then sn = sin(phi_0), cn = cos(phi_0), dn = sqrt(1 - k^2 sn^2).  The scheme
is derivative-free and uniformly accurate over the admitted moduli; the
degenerate endpoints and a narrow band around k^2 = 1 use the trigonometric
and hyperbolic closed forms to avoid cancellation in the ladder.  The ladder
of each modulus is built once (as 2^N a_N and the ratios c_n/a_n), and the
descent runs in place, with the loop's arithmetic and bits.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = ["jacobi_sn_cn_dn"]

_AGM_TOL = 1e-15
_K1_BAND = 1e-12  # switch to hyperbolic forms when 1 - k^2 < this


def _validate_modulus(k: float) -> float:
    k = float(k)
    m = k * k
    if not np.isfinite(m) or m > 1.0:
        raise ValueError(f"elliptic modulus k={k} outside 0 <= k^2 <= 1")
    return k


@lru_cache(maxsize=32)  # a few moduli per process; bounded for a sweep over k
def _descent(m: float):
    """AGM ladder for (1, k'), k' = sqrt(1 - m), as the descent reads it: the
    seed scale 2^N a_N and the ratios c_n/a_n for n = N..1."""
    kp = np.sqrt(1.0 - m)
    a, b = 1.0, kp
    avals = [a]
    cvals = [(1.0 - kp * kp) ** 0.5]  # c_0 = k
    while cvals[-1] > _AGM_TOL and len(avals) < 32:
        an, bn, cn = 0.5 * (a + b), np.sqrt(a * b), 0.5 * (a - b)
        a, b = an, bn
        avals.append(an)
        cvals.append(cn)
    n = len(avals) - 1
    return (2.0**n) * avals[n], tuple(cvals[i] / avals[i] for i in range(n, 0, -1))


def jacobi_sn_cn_dn(u, k: float):
    """Evaluate (sn(u,k), cn(u,k), dn(u,k)) for real u; vectorized in u.

    Guarantees |sn| <= 1, |cn| <= 1 and dn in [sqrt(1-k^2), 1]; periodic in
    u with real period 4 K(k).  Raises ValueError when k^2 lies outside
    [0, 1].
    """
    k = _validate_modulus(k)
    u = np.asarray(u, dtype=float)
    scalar = u.ndim == 0
    u = np.atleast_1d(u)
    if not np.all(np.isfinite(u)):
        raise ValueError("argument u must be finite")

    m = k * k
    if m == 0.0:
        sn, cn, dn = np.sin(u), np.cos(u), np.ones_like(u)
    elif 1.0 - m < _K1_BAND:
        sn, cn = np.tanh(u), 1.0 / np.cosh(u)
        dn = cn.copy()
    else:
        scale, ratios = _descent(m)
        phi = scale * u
        step = np.empty_like(phi)
        for ratio in ratios:  # phi = (phi + asin(clip(ratio sin phi, -1, 1))) / 2, in place
            np.sin(phi, out=step)
            step *= ratio
            np.maximum(step, -1.0, out=step)
            np.minimum(step, 1.0, out=step)
            np.arcsin(step, out=step)
            phi += step
            phi *= 0.5
        sn = np.sin(phi)
        cn = np.cos(phi)
        dn = np.sqrt(1.0 - m * sn * sn)
    if scalar:
        return float(sn[0]), float(cn[0]), float(dn[0])
    return sn, cn, dn

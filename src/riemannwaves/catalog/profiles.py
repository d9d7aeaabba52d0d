"""Profile presets: the arbitrary functions the solution families ship with.

Each preset is a scalar function with its analytic first derivative,
vectorized over numpy arrays.  One-argument profiles feed the simple-wave
amplitudes; two-argument ones feed the mixed families (stream-like
couplings, concentric-wave phases).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..elliptic import jacobi_sn_cn_dn
from ..fluid import ConstraintError

__all__ = [
    "Fn1", "Fn2", "linear", "kink", "expkink", "sech_bump", "bump",
    "coshwell", "coshbump", "periodic_well", "snwell", "snkink", "kink2",
    "theta_concentric", "theta_solitary",
]


@dataclass(frozen=True)
class Fn1:
    """Scalar profile s -> f(s) with derivative df.

    A preset whose value and derivative share costly parts supplies
    ``jet(s) -> (f, df)``, mirroring ``Fn2.jet``.
    """

    f: Callable
    df: Callable
    jet: Callable | None = None

    def __call__(self, s):
        return self.f(s)

    def d(self, s):
        return self.df(s)

    def value_and_d(self, s):
        return self.jet(s) if self.jet else (self.f(s), self.df(s))


@dataclass(frozen=True)
class Fn2:
    """Two-argument profile (p, q) -> f with partial derivatives (dp, dq).

    A preset whose value and partials share costly parts supplies
    ``jet(p, q) -> (f, dp, dq)``.
    """

    f: Callable
    dp: Callable
    dq: Callable
    jet: Callable | None = None

    def __call__(self, p, q):
        return self.f(p, q)

    def value_and_partials(self, p, q):
        return self.jet(p, q) if self.jet else (self.f(p, q), self.dp(p, q), self.dq(p, q))


def linear(a):
    return Fn1(lambda s: a * np.asarray(s, float), lambda s: np.full_like(np.asarray(s, float), a))


def kink(a, b):
    """Algebraic kink A s (1 + B s^2)^(-1/2); bounded, monotone."""
    if b <= 0:
        raise ConstraintError("kink profile requires B > 0")

    def f(s):
        s = np.asarray(s, float)
        return a * s / np.sqrt(1.0 + b * s * s)

    def df(s):
        s = np.asarray(s, float)
        return a * (1.0 + b * s * s) ** -1.5

    return Fn1(f, df)


def expkink(a, b):
    """Exponential kink A (1 + exp(B s))^(-1/2)."""

    def f(s):
        s = np.asarray(s, float)
        return a / np.sqrt(1.0 + np.exp(b * s))

    def df(s):
        s = np.asarray(s, float)
        e = np.exp(b * s)
        return -0.5 * a * b * e * (1.0 + e) ** -1.5

    return Fn1(f, df)


def sech_bump(a):
    """Localized bump sech(A s)."""

    def f(s):
        return 1.0 / np.cosh(a * np.asarray(s, float))

    def df(s):
        s = np.asarray(s, float)
        return -a * np.tanh(a * s) / np.cosh(a * s)

    return Fn1(f, df)


def bump(a, b):
    """Algebraic bump A (1 + B (s - 1)^2)^(-1/2)."""
    if b <= 0:
        raise ConstraintError("bump profile requires B > 0")

    def f(s):
        d = np.asarray(s, float) - 1.0
        return a / np.sqrt(1.0 + b * d * d)

    def df(s):
        d = np.asarray(s, float) - 1.0
        return -a * b * d * (1.0 + b * d * d) ** -1.5

    return Fn1(f, df)


def coshwell(a, b, d):
    """A (1 + B cosh(D (s - 1)))^(-1/2); solitary hump for B > 0."""
    if b <= 0:
        raise ConstraintError("coshwell profile requires B > 0")

    def f(s):
        x = np.asarray(s, float) - 1.0
        return a / np.sqrt(1.0 + b * np.cosh(d * x))

    def df(s):
        x = np.asarray(s, float) - 1.0
        return -0.5 * a * b * d * np.sinh(d * x) * (1.0 + b * np.cosh(d * x)) ** -1.5

    return Fn1(f, df)


def coshbump(a, b, c):
    """A (1 + B (1 + cosh(C s)))^(-1/2); bounded hump centered at s = 0."""
    if b <= 0:
        raise ConstraintError("coshbump profile requires B > 0")

    def f(s):
        s = np.asarray(s, float)
        return a / np.sqrt(1.0 + b * (1.0 + np.cosh(c * s)))

    def df(s):
        s = np.asarray(s, float)
        return -0.5 * a * b * c * np.sinh(c * s) * (1.0 + b * (1.0 + np.cosh(c * s))) ** -1.5

    return Fn1(f, df)


def periodic_well(a, b, c):
    """A (1 - B cos(C s))^(-1/2), |B| < 1; smooth periodic profile."""
    if not abs(b) < 1.0:
        raise ConstraintError("periodic profile requires |B| < 1")

    def f(s):
        s = np.asarray(s, float)
        return a / np.sqrt(1.0 - b * np.cos(c * s))

    def df(s):
        s = np.asarray(s, float)
        return -0.5 * a * b * c * np.sin(c * s) * (1.0 - b * np.cos(c * s)) ** -1.5

    def jet(s):
        cs = c * np.asarray(s, float)  # f's and df's arithmetic, cos(C s) taken once
        well = 1.0 - b * np.cos(cs)
        return a / np.sqrt(well), -0.5 * a * b * c * np.sin(cs) * well ** -1.5

    return Fn1(f, df, jet=jet)


def _sn_cn_dn(beta, s, k):
    """sn, cn, dn at beta s, NaN where beta s is not finite: an overflowed
    invariant ends its point non-ok instead of raising for the batch."""
    u = beta * np.asarray(s, float)
    finite = np.isfinite(u)
    if finite.all():
        return jacobi_sn_cn_dn(u, k)
    out = np.full((3,) + u.shape, np.nan)
    out[:, finite] = jacobi_sn_cn_dn(u[finite], k)
    return out


def snwell(a, b, beta, k):
    """A (1 + B sn^2(beta s, k))^(-1/2); doubly periodic snoidal envelope."""
    if b <= 0:
        raise ConstraintError("snwell profile requires B > 0")

    def f(s):
        sn, _, _ = _sn_cn_dn(beta, s, k)
        return a / np.sqrt(1.0 + b * sn * sn)

    def df(s):
        sn, cn, dn = _sn_cn_dn(beta, s, k)
        return -a * b * beta * sn * cn * dn * (1.0 + b * sn * sn) ** -1.5

    return Fn1(f, df)


def snkink(a, b, beta, k):
    """A sn(beta s, k) (1 + B sn^2(beta s, k))^(-1/2)."""
    if b <= 0:
        raise ConstraintError("snkink profile requires B > 0")

    def f(s):
        sn, _, _ = _sn_cn_dn(beta, s, k)
        return a * sn / np.sqrt(1.0 + b * sn * sn)

    def df(s):
        sn, cn, dn = _sn_cn_dn(beta, s, k)
        return a * beta * cn * dn * (1.0 + b * sn * sn) ** -1.5

    return Fn1(f, df)


def kink2(d):
    """Two-argument kink D s (1+s^2)^(-1/2) along s = p + q/2."""

    def arg(p, q):
        return np.asarray(p, float) + 0.5 * np.asarray(q, float)

    def f(p, q):
        s = arg(p, q)
        with np.errstate(invalid="ignore"):  # s = +-inf gives nan, as for nan input
            return d * s / np.sqrt(1.0 + s * s)

    def slope(p, q):
        s = arg(p, q)
        return d * (1.0 + s * s) ** -1.5

    return Fn2(f, slope, lambda p, q: 0.5 * slope(p, q))


def theta_concentric(a2, b2, d1):
    """Concentric-wave phase A2 R^(-1/2) tan(y) (B2 + tan^2 y)^(-1/2), y = ln|D1 R|/2.

    R = p^2 + q^2.  Finite except at R = 0, with jump loci at
    ln|D1 R| = (2n+1) pi; callers mask a band around those circles.
    """
    if b2 <= 0:
        raise ConstraintError("concentric phase requires B2 > 0")

    def parts(p, q):
        p = np.asarray(p, float)
        q = np.asarray(q, float)
        r2 = p * p + q * q
        y = 0.5 * np.log(np.abs(d1 * r2))
        tau = np.tan(y)
        phi = tau / np.sqrt(b2 + tau * tau)
        # d(phi)/dy and the radial derivative of A2 R^(-1/2) phi(y)
        dphi = b2 / (np.cos(y) ** 2 * (b2 + tau * tau) ** 1.5)
        return r2, phi, dphi

    def f(p, q):
        r2, phi, _ = parts(p, q)
        return a2 * phi / np.sqrt(r2)

    def jet(p, q):
        r2, phi, dphi = parts(p, q)
        return (a2 * phi / np.sqrt(r2), a2 * np.asarray(p, float) * r2 ** -1.5 * (dphi - phi),
                a2 * np.asarray(q, float) * r2 ** -1.5 * (dphi - phi))

    return Fn2(f, lambda p, q: jet(p, q)[1], lambda p, q: jet(p, q)[2], jet=jet)


def theta_solitary(d1):
    """Solitary-wave phase D1 (1 + exp(h))^(-1/2) with h = p + q."""

    def f(p, q):
        h = np.asarray(p, float) + np.asarray(q, float)
        return d1 / np.sqrt(1.0 + np.exp(h))

    def slope(p, q):  # both partials
        h = np.asarray(p, float) + np.asarray(q, float)
        e = np.exp(h)
        return -0.5 * d1 * e * (1.0 + e) ** -1.5

    return Fn2(f, slope, slope)

"""Profile presets: the arbitrary functions the solution families ship with.

Each preset is a scalar function with its jet, the value and the analytic
first derivative from one evaluation, vectorized over numpy arrays.
One-argument profiles feed the simple-wave amplitudes; two-argument ones
feed the mixed families (stream-like couplings, concentric-wave phases).
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
    """Scalar profile s -> f(s) with its jet s -> (f(s), df/ds(s)).

    The jet computes the parts f and df share once, and its first part is
    f's value bit for bit; ``f`` serves the callers that read the value alone.
    """

    f: Callable
    jet: Callable

    def __call__(self, s):
        return self.f(s)


@dataclass(frozen=True)
class Fn2:
    """Two-argument profile (p, q) -> f with its jet (p, q) -> (f, df/dp, df/dq).

    As for ``Fn1``, the jet's first part is f's value bit for bit.
    """

    f: Callable
    jet: Callable

    def __call__(self, p, q):
        return self.f(p, q)


def linear(a):
    def jet(s):
        s = np.asarray(s, float)
        return a * s, np.full_like(s, a)

    return Fn1(lambda s: a * np.asarray(s, float), jet)


def _shared(parts, f, df):
    """Fn1 with f(s) = f(*parts(s)) and df(s) = df(*parts(s)): the parts f and
    df share (a cosh, an sn/cn/dn triple, the base of a power) are computed
    once by the jet, with each expression's own arithmetic."""

    def jet(s):
        p = parts(s)
        return f(*p), df(*p)

    return Fn1(lambda s: f(*parts(s)), jet)


def kink(a, b):
    """Algebraic kink A s (1 + B s^2)^(-1/2); bounded, monotone."""
    if b <= 0:
        raise ConstraintError("kink profile requires B > 0")

    def parts(s):
        s = np.asarray(s, float)
        return s, 1.0 + b * s * s

    return _shared(parts, lambda s, q: a * s / np.sqrt(q), lambda s, q: a * q ** -1.5)


def expkink(a, b):
    """Exponential kink A (1 + exp(B s))^(-1/2)."""
    return _shared(lambda s: (np.exp(b * np.asarray(s, float)),),
                   lambda e: a / np.sqrt(1.0 + e),
                   lambda e: -0.5 * a * b * e * (1.0 + e) ** -1.5)


def sech_bump(a):
    """Localized bump sech(A s)."""

    def parts(s):
        x = a * np.asarray(s, float)
        return x, np.cosh(x)

    return _shared(parts, lambda x, ch: 1.0 / ch, lambda x, ch: -a * np.tanh(x) / ch)


def bump(a, b):
    """Algebraic bump A (1 + B (s - 1)^2)^(-1/2)."""
    if b <= 0:
        raise ConstraintError("bump profile requires B > 0")

    def parts(s):
        d = np.asarray(s, float) - 1.0
        return d, 1.0 + b * d * d

    return _shared(parts, lambda d, q: a / np.sqrt(q), lambda d, q: -a * b * d * q ** -1.5)


def coshwell(a, b, d):
    """A (1 + B cosh(D (s - 1)))^(-1/2); solitary hump for B > 0."""
    if b <= 0:
        raise ConstraintError("coshwell profile requires B > 0")

    def parts(s):
        x = d * (np.asarray(s, float) - 1.0)
        return x, 1.0 + b * np.cosh(x)

    return _shared(parts, lambda x, q: a / np.sqrt(q),
                   lambda x, q: -0.5 * a * b * d * np.sinh(x) * q ** -1.5)


def coshbump(a, b, c):
    """A (1 + B (1 + cosh(C s)))^(-1/2); bounded hump centered at s = 0."""
    if b <= 0:
        raise ConstraintError("coshbump profile requires B > 0")

    def parts(s):
        x = c * np.asarray(s, float)
        return x, 1.0 + b * (1.0 + np.cosh(x))

    return _shared(parts, lambda x, q: a / np.sqrt(q),
                   lambda x, q: -0.5 * a * b * c * np.sinh(x) * q ** -1.5)


def periodic_well(a, b, c):
    """A (1 - B cos(C s))^(-1/2), |B| < 1; smooth periodic profile.

    Written out, not ``_shared``: v2's RK4 right-hand side reads this jet
    400 times per foot, where ``_shared``'s three extra Python frames per
    call cost about 1% of an FD request."""
    if not abs(b) < 1.0:
        raise ConstraintError("periodic profile requires |B| < 1")

    def f(s):
        return a / np.sqrt(1.0 - b * np.cos(c * np.asarray(s, float)))

    def jet(s):
        cs = c * np.asarray(s, float)  # f's arithmetic, cos(C s) taken once
        well = 1.0 - b * np.cos(cs)
        return a / np.sqrt(well), -0.5 * a * b * c * np.sin(cs) * well ** -1.5

    return Fn1(f, jet)


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


def _sn_parts(beta, k, b):
    def parts(s):
        sn, cn, dn = _sn_cn_dn(beta, s, k)
        return sn, cn, dn, 1.0 + b * sn * sn
    return parts


def snwell(a, b, beta, k):
    """A (1 + B sn^2(beta s, k))^(-1/2); doubly periodic snoidal envelope."""
    if b <= 0:
        raise ConstraintError("snwell profile requires B > 0")
    return _shared(_sn_parts(beta, k, b), lambda sn, cn, dn, q: a / np.sqrt(q),
                   lambda sn, cn, dn, q: -a * b * beta * sn * cn * dn * q ** -1.5)


def snkink(a, b, beta, k):
    """A sn(beta s, k) (1 + B sn^2(beta s, k))^(-1/2)."""
    if b <= 0:
        raise ConstraintError("snkink profile requires B > 0")
    return _shared(_sn_parts(beta, k, b), lambda sn, cn, dn, q: a * sn / np.sqrt(q),
                   lambda sn, cn, dn, q: a * beta * cn * dn * q ** -1.5)


def kink2(d):
    """Two-argument kink D s (1+s^2)^(-1/2) along s = p + q/2."""

    def arg(p, q):
        return np.asarray(p, float) + 0.5 * np.asarray(q, float)

    def f(p, q):
        s = arg(p, q)
        with np.errstate(invalid="ignore"):  # s = +-inf gives nan, as for nan input
            return d * s / np.sqrt(1.0 + s * s)

    def jet(p, q):
        s = arg(p, q)
        base = 1.0 + s * s
        with np.errstate(invalid="ignore"):
            value = d * s / np.sqrt(base)
        slope = d * base ** -1.5
        return value, slope, 0.5 * slope

    return Fn2(f, jet)


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
        return r2, y, tau, tau / np.sqrt(b2 + tau * tau)

    def f(p, q):
        r2, _, _, phi = parts(p, q)
        return a2 * phi / np.sqrt(r2)

    def jet(p, q):
        r2, y, tau, phi = parts(p, q)
        # d(phi)/dy and the radial derivative of A2 R^(-1/2) phi(y)
        dphi = b2 / (np.cos(y) ** 2 * (b2 + tau * tau) ** 1.5)
        return (a2 * phi / np.sqrt(r2), a2 * np.asarray(p, float) * r2 ** -1.5 * (dphi - phi),
                a2 * np.asarray(q, float) * r2 ** -1.5 * (dphi - phi))

    return Fn2(f, jet)


def theta_solitary(d1):
    """Solitary-wave phase D1 (1 + exp(h))^(-1/2) with h = p + q."""

    def f(p, q):
        h = np.asarray(p, float) + np.asarray(q, float)
        return d1 / np.sqrt(1.0 + np.exp(h))

    def jet(p, q):
        h = np.asarray(p, float) + np.asarray(q, float)
        e = np.exp(h)
        base = 1.0 + e
        slope = -0.5 * d1 * e * base ** -1.5  # both partials
        return d1 / np.sqrt(base), slope, slope

    return Fn2(f, jet)

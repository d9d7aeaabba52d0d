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

__all__ = [
    "Fn1", "Fn2", "linear", "const", "kink", "expkink", "sech_bump", "bump",
    "coshwell", "coshbump", "periodic_well", "snwell", "snkink", "kink2",
    "theta_concentric", "theta_solitary", "quadratic_stream", "npower_stream",
    "homogeneous_stream",
]


@dataclass(frozen=True)
class Fn1:
    """Scalar profile s -> f(s) with derivative df."""

    name: str
    f: Callable
    df: Callable

    def __call__(self, s):
        return self.f(s)

    def d(self, s):
        return self.df(s)


@dataclass(frozen=True)
class Fn2:
    """Two-argument profile (p, q) -> f with partial derivatives (dp, dq).

    Stream-function presets also carry an analytic ``hessian(p, q)`` map
    returning (f_pp, f_qq, f_pq); the Monge-Ampere residual uses it when
    present instead of finite differences.  A preset whose value and
    partials share costly parts supplies ``jet(p, q) -> (f, dp, dq)``.
    """

    name: str
    f: Callable
    dp: Callable
    dq: Callable
    hessian: Callable | None = None
    jet: Callable | None = None

    def __call__(self, p, q):
        return self.f(p, q)

    def value_and_partials(self, p, q):
        return self.jet(p, q) if self.jet else (self.f(p, q), self.dp(p, q), self.dq(p, q))


def linear(a):
    return Fn1(f"linear(A={a:g})", lambda s: a * np.asarray(s, float),
               lambda s: np.full_like(np.asarray(s, float), a))


def const(c):
    return Fn1(f"const({c:g})", lambda s: np.full_like(np.asarray(s, float), c),
               lambda s: np.zeros_like(np.asarray(s, float)))


def kink(a, b):
    """Algebraic kink A s (1 + B s^2)^(-1/2); bounded, monotone."""
    if b <= 0:
        raise ValueError("kink profile requires B > 0")

    def f(s):
        s = np.asarray(s, float)
        return a * s / np.sqrt(1.0 + b * s * s)

    def df(s):
        s = np.asarray(s, float)
        return a * (1.0 + b * s * s) ** -1.5

    return Fn1(f"kink(A={a:g},B={b:g})", f, df)


def expkink(a, b):
    """Exponential kink A (1 + exp(B s))^(-1/2)."""

    def f(s):
        s = np.asarray(s, float)
        return a / np.sqrt(1.0 + np.exp(b * s))

    def df(s):
        s = np.asarray(s, float)
        e = np.exp(b * s)
        return -0.5 * a * b * e * (1.0 + e) ** -1.5

    return Fn1(f"expkink(A={a:g},B={b:g})", f, df)


def sech_bump(a):
    """Localized bump sech(A s)."""

    def f(s):
        return 1.0 / np.cosh(a * np.asarray(s, float))

    def df(s):
        s = np.asarray(s, float)
        return -a * np.tanh(a * s) / np.cosh(a * s)

    return Fn1(f"sech(A={a:g})", f, df)


def bump(a, b, center=1.0):
    """Algebraic bump A (1 + B (s - c)^2)^(-1/2)."""
    if b <= 0:
        raise ValueError("bump profile requires B > 0")

    def f(s):
        d = np.asarray(s, float) - center
        return a / np.sqrt(1.0 + b * d * d)

    def df(s):
        d = np.asarray(s, float) - center
        return -a * b * d * (1.0 + b * d * d) ** -1.5

    return Fn1(f"bump(A={a:g},B={b:g},c={center:g})", f, df)


def coshwell(a, b, d, center=1.0):
    """A (1 + B cosh(D (s - c)))^(-1/2); solitary hump for B > 0."""
    if b <= 0:
        raise ValueError("coshwell profile requires B > 0")

    def f(s):
        x = np.asarray(s, float) - center
        return a / np.sqrt(1.0 + b * np.cosh(d * x))

    def df(s):
        x = np.asarray(s, float) - center
        return -0.5 * a * b * d * np.sinh(d * x) * (1.0 + b * np.cosh(d * x)) ** -1.5

    return Fn1(f"coshwell(A={a:g},B={b:g},D={d:g})", f, df)


def coshbump(a, b, c):
    """A (1 + B (1 + cosh(C s)))^(-1/2); bounded hump centered at s = 0."""
    if b <= 0:
        raise ValueError("coshbump profile requires B > 0")

    def f(s):
        s = np.asarray(s, float)
        return a / np.sqrt(1.0 + b * (1.0 + np.cosh(c * s)))

    def df(s):
        s = np.asarray(s, float)
        return -0.5 * a * b * c * np.sinh(c * s) * (1.0 + b * (1.0 + np.cosh(c * s))) ** -1.5

    return Fn1(f"coshbump(A={a:g},B={b:g},C={c:g})", f, df)


def periodic_well(a, b, c):
    """A (1 - B cos(C s))^(-1/2), |B| < 1; smooth periodic profile."""
    if not abs(b) < 1.0:
        raise ValueError("periodic profile requires |B| < 1")

    def f(s):
        s = np.asarray(s, float)
        return a / np.sqrt(1.0 - b * np.cos(c * s))

    def df(s):
        s = np.asarray(s, float)
        return -0.5 * a * b * c * np.sin(c * s) * (1.0 - b * np.cos(c * s)) ** -1.5

    return Fn1(f"periodic(A={a:g},B={b:g},C={c:g})", f, df)


def snwell(a, b, beta, k):
    """A (1 + B sn^2(beta s, k))^(-1/2); doubly periodic snoidal envelope."""
    if b <= 0:
        raise ValueError("snwell profile requires B > 0")

    def f(s):
        sn, _, _ = jacobi_sn_cn_dn(beta * np.asarray(s, float), k)
        return a / np.sqrt(1.0 + b * sn * sn)

    def df(s):
        sn, cn, dn = jacobi_sn_cn_dn(beta * np.asarray(s, float), k)
        return -a * b * beta * sn * cn * dn * (1.0 + b * sn * sn) ** -1.5

    return Fn1(f"snwell(A={a:g},B={b:g},beta={beta:g},k={k:g})", f, df)


def snkink(a, b, beta, k):
    """A sn(beta s, k) (1 + B sn^2(beta s, k))^(-1/2)."""
    if b <= 0:
        raise ValueError("snkink profile requires B > 0")

    def f(s):
        sn, _, _ = jacobi_sn_cn_dn(beta * np.asarray(s, float), k)
        return a * sn / np.sqrt(1.0 + b * sn * sn)

    def df(s):
        sn, cn, dn = jacobi_sn_cn_dn(beta * np.asarray(s, float), k)
        return a * beta * cn * dn * (1.0 + b * sn * sn) ** -1.5

    return Fn1(f"snkink(A={a:g},B={b:g},beta={beta:g},k={k:g})", f, df)


def kink2(d, w1=1.0, w2=0.5):
    """Two-argument kink D s (1+s^2)^(-1/2) along s = w1 p + w2 q."""

    def arg(p, q):
        return w1 * np.asarray(p, float) + w2 * np.asarray(q, float)

    def f(p, q):
        s = arg(p, q)
        with np.errstate(invalid="ignore"):  # s = +-inf gives nan, as for nan input
            return d * s / np.sqrt(1.0 + s * s)

    def slope(p, q):
        s = arg(p, q)
        return d * (1.0 + s * s) ** -1.5

    return Fn2(f"kink2(D={d:g},w=({w1:g},{w2:g}))", f,
               lambda p, q: w1 * slope(p, q), lambda p, q: w2 * slope(p, q))


def theta_concentric(a2, b2, d1):
    """Concentric-wave phase A2 R^(-1/2) tan(y) (B2 + tan^2 y)^(-1/2), y = ln|D1 R|/2.

    R = p^2 + q^2.  Finite except at R = 0, with jump loci at
    ln|D1 R| = (2n+1) pi; callers mask a band around those circles.
    """
    if b2 <= 0:
        raise ValueError("concentric phase requires B2 > 0")

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

    return Fn2(f"concentric(A2={a2:g},B2={b2:g},D1={d1:g})", f,
               lambda p, q: jet(p, q)[1], lambda p, q: jet(p, q)[2], jet=jet)


def theta_solitary(d1, hw1=1.0, hw2=1.0):
    """Solitary-wave phase D1 (1 + exp(h))^(-1/2) with h = hw1 p + hw2 q."""

    def f(p, q):
        h = hw1 * np.asarray(p, float) + hw2 * np.asarray(q, float)
        return d1 / np.sqrt(1.0 + np.exp(h))

    def slope(p, q):
        h = hw1 * np.asarray(p, float) + hw2 * np.asarray(q, float)
        e = np.exp(h)
        return -0.5 * d1 * e * (1.0 + e) ** -1.5

    return Fn2(f"solitary(D1={d1:g},h=({hw1:g},{hw2:g}))", f,
               lambda p, q: hw1 * slope(p, q), lambda p, q: hw2 * slope(p, q))


def quadratic_stream(c):
    """Stream function h = (c/2)(p^2 + q^2); h11 h22 - h12^2 = c^2."""

    def f(p, q):
        p = np.asarray(p, float)
        q = np.asarray(q, float)
        return 0.5 * c * (p * p + q * q)

    def hess(p, q):
        shape = np.broadcast(np.asarray(p, float), np.asarray(q, float)).shape
        return (np.full(shape, c), np.full(shape, c), np.zeros(shape))

    return Fn2(f"quadratic(c={c:g})", f,
               lambda p, q: c * np.asarray(p, float),
               lambda p, q: c * np.asarray(q, float),
               hessian=hess)


def npower_stream(n):
    """Degenerate stream function psi = -p^n q^(1-n); h11 h22 - h12^2 = 0.

    Generates the power-law velocity pair u1 = -(1-n) psi_q-style coupling of
    the two-vortex family; homogeneous of degree one, hence an exact solution
    of the homogeneous Monge-Ampere equation.
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

    return Fn2(f"npower(n={n})", f, dp, dq, hessian=hess)


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

    return Fn2("homogeneous", f, dp, dq, hessian=hess)

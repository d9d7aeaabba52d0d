"""Family registry: builders, defaults, constraints for all solution families.

Parameter names follow the conventional symbols (A1, B1, C1, gamma, e1, m2,
modulus_k, branch, ...).  ``make_family`` checks the rules every family
shares: known keys, numeric values where the default is numeric, and the
admissible values and the positive keys the registry table declares.  Each
builder then validates its structural constraints (unit directions, locked
angles, modulus bounds, nondegeneracy) and returns its family's own fields;
``make_family`` alone builds the FamilySpec from them.  Every violation
raises ConstraintError naming the constraint.
"""

from __future__ import annotations

from functools import partial
from numbers import Real

import numpy as np

from ..fluid import ConstraintError, GasParams
from . import profiles as pf
from .base import CustomWave, FamilySpec, PotentialWave, RotationalWave
from .transported import PlanarVelocity, RotatingPolarizationEvaluator, TransportedEvaluator

__all__ = ["REGISTRY_IDS", "make_family", "family_defaults", "family_info", "registry_entries"]

ANGLE_TOL = 1e-10


def _vec3(value, name):
    try:
        v = np.asarray(value, dtype=float).reshape(3)
        if np.all(np.isfinite(v)):
            return v
    except (TypeError, ValueError):
        pass
    raise ConstraintError(f"{name} must be a finite 3-vector, got {value!r}")


def _unit3(value, name):
    v = _vec3(value, name)
    norm = float(np.linalg.norm(v))
    if abs(norm - 1.0) > 1e-9:
        raise ConstraintError(f"{name} must be a unit vector (|{name}| = {norm:.3g})")
    return v / norm


def _check_angle(e_i, e_j, kappa, names):
    dot = float(e_i @ e_j)
    if abs(dot + 1.0 / kappa) > ANGLE_TOL:
        raise ConstraintError(
            f"angle constraint violated: {names[0]}.{names[1]} = {dot:.12g}, required -1/kappa = {-1.0/kappa:.12g}")


# the acoustic amplitude presets: (A_i, B_i) -> f_i
_ACOUSTIC_PROFILES = {"linear": lambda a, b: pf.linear(a), "kink": pf.kink, "expkink": pf.expkink}


# ---------------------------------------------------------------------------
# k = 1..3 acoustic simple waves, pairwise angle-locked
# ---------------------------------------------------------------------------

def _defaults_r1_e(gas):
    return {"A1": 0.25, "B1": 1.0, "e1": (1.0, 0.0, 0.0), "epsilon": 1, "profile": "linear"}


def _angled_pair(kappa):
    cosphi = -1.0 / kappa
    sinphi = np.sqrt(1.0 - cosphi**2)
    return (1.0, 0.0, 0.0), (cosphi, sinphi, 0.0)


def _defaults_r2_e1e2(gas):
    e1, e2 = _angled_pair(gas.kappa)
    return {"A1": 0.25, "A2": 0.25, "B1": 1.0, "B2": 1.0,
            "e1": e1, "e2": e2, "profile": "linear"}


def _defaults_r3_e1e2e3(gas):
    s2 = (2.0 / 3.0) * (1.0 + 1.0 / gas.kappa)
    s, c = np.sqrt(s2), np.sqrt(1.0 - s2)
    ang = 2.0 * np.pi / 3.0
    return {"A1": 0.25, "A2": 0.25, "A3": 0.25, "B1": 1.0, "B2": 1.0, "B3": 1.0,
            "e1": (s, 0.0, c),
            "e2": (s * np.cos(ang), s * np.sin(ang), c),
            "e3": (s * np.cos(2 * ang), s * np.sin(2 * ang), c),
            "profile": "linear"}


# per id: description, end of the default t-window, whether the probe ray
# -(e1 + ... + ek) is normalised
_ACOUSTIC = {
    "R1_E": ("rank-1 acoustic simple wave (linear or kink amplitude)", 0.5, False),
    "R2_E1E2": ("two acoustic waves superposed linearly; angle-locked directions", 0.45, False),
    "R3_E1E2E3": ("three acoustic waves, pairwise angle-locked (linear, kink or exp-kink)",
                  0.45, True),
}


def _build_acoustic(fid, p, gas):
    """k acoustic waves, k = the number of e1..e3 given, with e_i.e_j = -1/kappa.

    a = sum_i f_i(r_i) and u = eps kappa sum_i f_i(r_i) e_i.  A linear profile
    has the closed form r_i = -(x.e_i) / (1 - eps (1 + kappa) A_i t).
    """
    description, t_end, unit_probe = _ACOUSTIC[fid]
    kappa = gas.kappa
    ids = [i for i in (1, 2, 3) if f"e{i}" in p]
    k = len(ids)
    evecs = [_unit3(p[f"e{i}"], f"e{i}") for i in ids]
    for i in range(k):
        for j in range(i + 1, k):
            _check_angle(evecs[i], evecs[j], kappa, (f"e{i+1}", f"e{j+1}"))
    eps = int(p.get("epsilon", 1))
    eps_kappa, eps_1k = eps * kappa, eps * (1.0 + kappa)
    A, B = [p[f"A{i}"] for i in ids], [p[f"B{i}"] for i in ids]
    profs = [_ACOUSTIC_PROFILES[p["profile"]](a, b) for a, b in zip(A, B)]

    def jet(r, t):
        fr = np.empty((len(r), 4, k))
        for i in range(k):
            amp, d = profs[i].jet(r[:, i])
            fr[:, 0, i] = d
            fr[:, 1:, i] = eps_kappa * d[:, None] * evecs[i]
            if i == 0:  # the sums start from this term (a +0 start would turn -0 into +0)
                a, u = amp, amp[:, None] * evecs[0]
            else:
                a, u = a + amp, u + amp[:, None] * evecs[i]
        return np.column_stack([a, eps_kappa * u]), fr

    # per wave, the fold time of its steepest characteristic r_i = rstar_i; a wave
    # with A_i = 0 (or B_i = 0 for expkink) never steepens and has none
    if p["profile"] == "expkink":  # |f'| = |AB| e (1 + e)^-1.5 / 2, e = exp(Br), peaks at e = 2
        fold = [-3.0**1.5 / (eps_1k * a * b) if a * b != 0 else None for a, b in zip(A, B)]
        rstar = [np.log(2.0) / b if b != 0 else 0.0 for b in B]
    else:
        fold = [(eps_1k * a) ** -1.0 if a != 0 else None for a in A]
        rstar = [0.0] * k
    tsing = tuple(t for t in fold if t is not None)
    first = [(t, i) for i, t in enumerate(fold) if t is not None and t > 0]

    esum = sum(evecs[1:], evecs[0])
    probe_x = -esum / max(np.linalg.norm(esum), 1e-9) if unit_probe else -esum
    if p["profile"] != "linear" and first:
        # the waves decouple, r_i = eps (1 + kappa) f_i(r_i) t - e_i.x: at t* the
        # first wave to fold sits on its steepest characteristic and every other
        # one unit off its own; x is the least-norm solution of e_i.x = c_i
        tstar, i_first = min(first)
        r = np.array(rstar) + (np.arange(k) != i_first)
        c = [eps_1k * float(profs[i](r[i])) * tstar - r[i] for i in range(k)]
        emat = np.array(evecs)
        probe_x = emat.T @ np.linalg.solve(emat @ emat.T, c)

    def closed_form(t, x):
        return -(x @ np.transpose(evecs)) / (1.0 - eps_1k * np.multiply.outer(t, A))

    return dict(
        rank=k, description=description, profile=jet,
        wave_list=[PotentialWave(e=e, epsilon=eps) for e in evecs],
        singular_time_values=tsing,
        closed_form=closed_form if p["profile"] == "linear" else None,
        probe_x=probe_x,
        default_window={"t": (0.0, t_end)},
    )


# ---------------------------------------------------------------------------
# rank-1 vortex wave
# ---------------------------------------------------------------------------

def _defaults_r1_s(gas):
    return {"a0": 1.0, "C": 1.0, "A1": 1.0, "A2": 1.0,
            "e1": (1.0, 0.0, 0.0), "m1": (0.0, 1.0, 0.0), "profile": "sech"}


def _build_r1_s(p, gas):
    e1 = _unit3(p["e1"], "e1")
    m1 = _vec3(p["m1"], "m1")
    exm = np.cross(e1, m1)
    if abs(exm[2]) < 1e-12:
        raise ConstraintError("(e1 x m1)_3 must be nonzero so u3 can close the circulation")
    p1, p2 = pf.sech_bump(p["A1"]), pf.sech_bump(p["A2"])
    c, a0 = p["C"], p["a0"]

    def jet(r, t):
        s = r[:, 0]
        (u1, d1), (u2, d2) = p1.jet(s), p2.jet(s)
        u3 = (c - exm[0] * u1 - exm[1] * u2) / exm[2]
        fr = np.zeros((len(s), 4, 1))
        fr[:, 1, 0] = d1
        fr[:, 2, 0] = d2
        fr[:, 3, 0] = -(exm[0] * d1 + exm[1] * d2) / exm[2]
        return np.column_stack([np.full_like(s, a0), u1, u2, u3]), fr

    return dict(
        rank=1, description="rank-1 vortex wave with bounded sech profiles",
        profile=jet, wave_list=[RotationalWave(lsp=-exm)],
        default_window={"t": (0.0, 3.0)},
    )


# ---------------------------------------------------------------------------
# acoustic + vortex double wave
# ---------------------------------------------------------------------------

def _defaults_r2_e1s2(gas):
    phi = np.pi / 3.0
    return {"A1": 0.25, "B1": 1.0, "A2": 0.25, "B2": 1.0, "D2": 1.0,
            "C1": 1.0, "C2": 1.0, "a0": 1.0,
            "e1": (np.cos(phi), np.sin(phi), 0.0), "profile": "linear"}


def _e1s2_geometry(e1, c1, c2):
    """Derived coupling data: s covector direction, u2-line (1, E2, C1) and offset."""
    if abs(e1[1]) < 1e-12:
        raise ConstraintError("e1_2 must be nonzero for the vortex coupling")
    denom = c1 * e1[0] - e1[2]
    if abs(denom) < 1e-12:
        raise ConstraintError("C1 e1_1 - e1_3 must be nonzero")
    s = np.array([
        -(e1[0] * e1[2] + c1 * (1.0 - e1[0] ** 2)),
        -e1[1] * (e1[2] - c1 * e1[0]),
        1.0 - e1[2] ** 2 + c1 * e1[0] * e1[2],
    ])
    e2cap = -(c1 * e1[2] + e1[0]) / e1[1]
    f2 = -c2 / (e1[1] * denom)
    return s, np.array([1.0, e2cap, c1]), f2


def _build_r2_e1s2(p, gas):
    kappa = gas.kappa
    e1 = _unit3(p["e1"], "e1")
    s, dline, f2 = _e1s2_geometry(e1, p["C1"], p["C2"])
    a0 = p["a0"]
    if p["profile"] == "linear":
        pa, q = pf.linear(p["A1"]), pf.linear(p["A2"])
    else:  # soliton
        pa, q = pf.bump(p["A1"], p["B1"]), pf.coshwell(p["A2"], p["B2"], p["D2"])
    offset = np.array([0.0, f2 * 1.0, 0.0])  # u2-line offset: (0, F2, 0)

    def jet(r, t):
        (av, da), (qv, dq) = pa.jet(r[:, 0]), q.jet(r[:, 1])
        u = kappa * av[:, None] * e1 + qv[:, None] * dline + offset
        fr = np.empty((len(r), 4, 2))
        fr[:, 0, 0], fr[:, 0, 1] = da, 0.0
        fr[:, 1:, 0] = kappa * da[:, None] * e1
        fr[:, 1:, 1] = dq[:, None] * dline
        return np.column_stack([av + a0, u]), fr

    c0 = a0 + f2 * e1[1]  # constant part of the acoustic phase
    if p["profile"] == "linear":
        tsing = (((1.0 + kappa) * p["A1"]) ** -1.0,)
        probe_x = -0.5 * e1

        def closed_form(t, x):
            r1 = (c0 * t - x @ e1) / (1.0 - (1.0 + kappa) * p["A1"] * t)
            return np.column_stack([r1, p["C2"] * t + x @ s])
    else:
        # the bump's slope peaks at r* = 1 - sign(A1)/sqrt(2 B1), where
        # pa'(r*) = 2 |A1| sqrt(B1) / 3^1.5: that characteristic folds first
        tsing, probe_x, closed_form = (), None, None
        if p["A1"] != 0:
            rstar = 1.0 - np.sign(p["A1"]) / np.sqrt(2.0 * p["B1"])
            tstar = float(3.0**1.5 / (2.0 * (1.0 + kappa) * abs(p["A1"]) * np.sqrt(p["B1"])))
            tsing = (tstar,)
            # r1 = (c0 + (1 + kappa) pa(r1)) t - x.e1 puts r1 = r* on this ray at t*
            probe_x = float((c0 + (1.0 + kappa) * pa(rstar)) * tstar - rstar) * e1

    return dict(
        rank=2, description="acoustic + vortex double wave (trigonometric or solitary)",
        profile=jet,
        wave_list=[PotentialWave(e=e1), RotationalWave(lsp=s)],
        singular_time_values=tsing,
        closed_form=closed_form,
        probe_x=probe_x,
        default_window={"t": (0.0, 0.45)},
    )


# ---------------------------------------------------------------------------
# two vortex waves from a degenerate stream function (power-law)
# ---------------------------------------------------------------------------

def _defaults_r2_s1s2_ma(gas):
    return {"n": 2, "a0": 1.0, "D1": 1.0, "branch": "plus"}


def _build_r2_s1s2_ma(p, gas):
    if not float(p["n"]).is_integer() or p["n"] == 1:
        raise ConstraintError(f"power n must be an integer different from 1, got {p['n']!r}")
    n = int(p["n"])
    a0, d1 = p["a0"], p["D1"]
    branch = p["branch"]

    # r2 = 0 (and w = 0 for n < 2) gives non-finite fields; the point statuses record them
    def jet(r, t):
        fr = np.zeros((len(r), 4, 2))
        with np.errstate(divide="ignore", invalid="ignore"):
            w = r[:, 0] / r[:, 1]
            w_n1 = w ** (n - 1)
            u1 = (1.0 - n) * w**n
            u2 = -n * w_n1
            dw1 = 1.0 / r[:, 1]
            dw2 = -w / r[:, 1]
            du1 = (1.0 - n) * n * w_n1
            du2 = -n * (n - 1) * w ** (n - 2)
            fr[:, 1, 0], fr[:, 1, 1] = du1 * dw1, du1 * dw2
            fr[:, 2, 0], fr[:, 2, 1] = du2 * dw1, du2 * dw2
        fr[:, 3, 0] = d1
        return np.column_stack([np.full(len(r), a0), u1, u2, d1 * r[:, 0]]), fr

    def guess_fn(t, x):
        x1, x2 = x[:, 0], x[:, 1]
        disc = x2 * x2 + 4.0 * t * x1
        root = np.sqrt(np.maximum(disc, 0.0))
        if branch == "plus":        # u2 = (x2 + root)/t
            sigma = -1.0
        elif branch == "minus":     # u2 = (x2 - root)/t
            sigma = 1.0
        else:                       # auto: sheet continuous as t -> 0+
            sigma = np.where(x2 >= 0, 1.0, -1.0)
        w = (-x2 + sigma * root) / (2.0 * t)
        r1 = x1 + w * w * t
        r2 = x2 + 2.0 * w * t
        return np.column_stack([r1, r2])

    def validity_fn(t, x):
        disc = x[:, 1] ** 2 + 4.0 * t * x[:, 0]
        return (t > 1e-6) & (disc > 1e-10)

    return dict(
        rank=2,
        description="two vortex waves from a degenerate stream function (power-law, two sheets)",
        profile=jet,
        wave_list=[RotationalWave(lsp=np.array([1.0, 0, 0])),
                   RotationalWave(lsp=np.array([0, 1.0, 0]))],
        singular_time_values=(0.0,),
        guess_fn=guess_fn,
        closed_form=guess_fn if n == 2 else None,
        validity_fn=validity_fn,
        default_window={"t": (0.5, 1.5), "x1": (0.5, 1.5), "x2": (-0.5, 0.5), "x3": (-1.0, 1.0)},
    )


# ---------------------------------------------------------------------------
# two vortex waves, additive velocity split
# ---------------------------------------------------------------------------

def _defaults_r2_s1s2_add(gas):
    return {"a0": 1.0, "C1": 1.0, "C2": 1.0,
            "A1": 0.25, "B1": 1.0, "A2": 0.25, "B2": 1.0, "A3": 0.25, "B3": 1.0,
            "e1": (0.0, 0.0, 1.0), "m1": (0.0, -1.0, 0.0),
            "e2": (0.0, 1.0, 0.0), "m2": (-1.0, 0.0, 1.0),
            "profile": "kink"}


def _build_r2_s1s2_add(p, gas):
    a0, c1, c2 = p["a0"], p["C1"], p["C2"]
    l1 = np.cross(_unit3(p["e1"], "e1"), _vec3(p["m1"], "m1"))
    l2 = np.cross(_unit3(p["e2"], "e2"), _vec3(p["m2"], "m2"))
    if abs(l1[0]) < 1e-12 or abs(l2[0]) < 1e-12:
        raise ConstraintError("first components of e_i x m_i must be nonzero")
    eta_den = l1[0] * l2[2] - l1[2] * l2[0]
    if abs(eta_den) < 1e-12:
        raise ConstraintError("wave directions degenerate: l1_1 l2_3 - l1_3 l2_1 = 0")
    eta = (l2[0] * l1[1] - l1[0] * l2[1]) / eta_den
    q21 = pf.kink(p["A2"], p["B2"])
    q31 = pf.kink(p["A3"], p["B3"])
    q22 = pf.kink(p["A1"], p["B1"])

    def jet(r, t):
        (v21, d21), (v31, d31) = q21.jet(r[:, 0]), q31.jet(r[:, 0])
        v22, d22 = q22.jet(r[:, 1])
        u1 = (c1 - l1[1] * v21 - l1[2] * v31) / l1[0] \
            - ((l2[2] * eta + l2[1]) * v22 - c2) / l2[0]
        fr = np.zeros((len(r), 4, 2))
        fr[:, 1, 0] = -(l1[1] * d21 + l1[2] * d31) / l1[0]
        fr[:, 1, 1] = -(l2[2] * eta + l2[1]) * d22 / l2[0]
        fr[:, 2, 0], fr[:, 2, 1] = d21, d22
        fr[:, 3, 0], fr[:, 3, 1] = d31, eta * d22
        return np.column_stack([np.full(len(r), a0), u1, v21 + v22, v31 + eta * v22]), fr

    return dict(
        rank=2, description="two vortex waves, additive velocity split, kink profiles",
        profile=jet,
        wave_list=[RotationalWave(lsp=-l1), RotationalWave(lsp=-l2)],
        default_window={"t": (0.0, 3.0)},
    )


# ---------------------------------------------------------------------------
# two angle-locked acoustic waves + transverse vortex mode
# ---------------------------------------------------------------------------

def _defaults_r2_e1e2s3(gas):
    c = np.sqrt((1.0 + 1.0 / gas.kappa) / 2.0)
    s = np.sqrt(1.0 - c * c)
    return {"A1": 0.25, "D1": 1.0, "u30": 1.0,
            "e1": (c, s, 0.0), "e2": (-c, s, 0.0), "profile": "kink13"}


def _build_r2_e1e2s3(p, gas):
    kappa = gas.kappa
    e1, e2 = _unit3(p["e1"], "e1"), _unit3(p["e2"], "e2")
    _check_angle(e1, e2, kappa, ("e1", "e2"))
    if abs(e1[2]) > 1e-12 or abs(e2[2]) > 1e-12:
        raise ConstraintError("e1 and e2 must lie in the x1-x2 plane")
    a1c, u30 = p["A1"], p["u30"]
    u13 = pf.kink(p["D1"], 1.0)
    wdir = (e1 - e2)[:2]
    wdir = wdir / np.linalg.norm(wdir)

    def jet(r, t):
        base = kappa * a1c * (r[:, :1] * e1 + r[:, 1:2] * e2)
        w, dw = u13.jet(r[:, 2])
        fr = np.zeros((len(r), 4, 3))
        fr[:, 0, 0] = fr[:, 0, 1] = a1c
        fr[:, 1:3, 0] = kappa * a1c * e1[:2]
        fr[:, 1:3, 1] = kappa * a1c * e2[:2]
        fr[:, 1, 2] = dw * wdir[0]
        fr[:, 2, 2] = dw * wdir[1]
        return np.column_stack([a1c * (r[:, 0] + r[:, 1]),
                                base[:, 0] + w * wdir[0],
                                base[:, 1] + w * wdir[1],
                                np.full(len(r), u30)]), fr

    tval = ((1.0 + kappa) * a1c) ** -1.0

    def closed_form(t, x):
        r3 = x[:, 2] - u30 * t
        w = u13(r3)
        denom = 1.0 - (1.0 + kappa) * a1c * t
        r1 = (float(e1[:2] @ wdir) * w * t - x @ e1) / denom
        r2 = (float(e2[:2] @ wdir) * w * t - x @ e2) / denom
        return np.column_stack([r1, r2, r3])

    return dict(
        rank=2, description="two angle-locked acoustic waves plus a transverse vortex mode",
        profile=jet,
        wave_list=[PotentialWave(e=e1), PotentialWave(e=e2),
                   RotationalWave(lsp=np.array([0.0, 0.0, 1.0]))],
        singular_time_values=(tval,),
        closed_form=closed_form,
        probe_x=-(e1 + e2),
        default_window={"t": (0.0, 0.45)},
    )


# ---------------------------------------------------------------------------
# acoustic wave with two stationary shear modes
# ---------------------------------------------------------------------------

def _defaults_r2_e1s2s3(gas):
    return {"A1": 0.25, "C2": 1.0, "C3": 1.0, "C": 1.0, "b": 2.0,
            "l2": (1.0, 1.0, 1.0), "l31": 1.0}


def _build_r2_e1s2s3(p, gas):
    kappa = gas.kappa
    a1c = p["A1"]
    l2 = _vec3(p["l2"], "l2")
    l31 = float(p["l31"])
    b = float(p["b"])
    if abs(l2[0]) < 1e-12 or abs(l2[2]) < 1e-12 or abs(l31) < 1e-12:
        raise ConstraintError("l2_1, l2_3 and l3_1 must be nonzero")
    if abs(b * l2[0] - l31) < 1e-12:
        raise ConstraintError("b l2_1 - l3_1 must be nonzero (waves degenerate)")
    l3 = np.array([l31, b * l2[1], b * l2[2]])
    cconst = p["C2"] / l2[0] + p["C3"] / l31
    cc = p["C"]
    e1 = np.array([1.0, 0.0, 0.0])

    def jet(r, t):
        shear = cc * (l31 * r[:, 1] - l2[0] * r[:, 2])
        fr = np.zeros((len(r), 4, 3))
        fr[:, 0, 0] = a1c
        fr[:, 1, 0] = kappa * a1c
        fr[:, 2, 1], fr[:, 2, 2] = cc * l31, -cc * l2[0]
        fr[:, 3, 1], fr[:, 3, 2] = -(l2[1] / l2[2]) * cc * l31, (l2[1] / l2[2]) * cc * l2[0]
        return np.column_stack([a1c * r[:, 0], kappa * a1c * r[:, 0] + cconst,
                                shear, -(l2[1] / l2[2]) * shear]), fr

    tval = ((1.0 + kappa) * a1c) ** -1.0

    def closed_form(t, x):
        denom = 1.0 - (1.0 + kappa) * a1c * t
        r1 = (cconst * t - x[:, 0]) / denom
        u1 = kappa * a1c * r1 + cconst
        r2 = l2[0] * u1 * t - x @ l2
        r3 = l31 * u1 * t - x @ l3
        return np.column_stack([r1, r2, r3])

    def validity_fn(t, x):
        denom = 1.0 - (1.0 + kappa) * a1c * t
        return (cconst * t - x[:, 0]) / np.where(np.abs(denom) < 1e-12, np.nan, denom) > 0

    return dict(
        rank=2, description="acoustic wave with two stationary planar shear modes",
        profile=jet,
        wave_list=[PotentialWave(e=e1), RotationalWave(lsp=-l2), RotationalWave(lsp=-l3)],
        singular_time_values=(tval,),
        closed_form=closed_form,
        validity_fn=validity_fn,
        probe_x=np.array([-0.5, 0.0, 0.0]),
        default_window={"t": (0.05, 0.45), "x1": (-1.0, -0.1)},
    )


# ---------------------------------------------------------------------------
# three vortex directions, nilpotent coupling, snoidal profiles
# ---------------------------------------------------------------------------

def _defaults_r2_s1s2s3(gas):
    return {"a0": 1.0, "A1": 0.5, "B1": 1.0, "A2": 0.5, "B2": 1.0,
            "beta": 1.0, "n": 2, "modulus_k": np.sqrt(0.5), "profile": "snoidal"}


def _build_r2_s1s2s3(p, gas):
    a0 = p["a0"]
    k = float(p["modulus_k"])
    if not 0.0 < k * k < 1.0:
        raise ConstraintError(f"elliptic modulus must satisfy 0 < k^2 < 1, got k^2 = {k*k:.6g}")
    n = float(p["n"])
    if abs(n - 1.0) < 1e-12:
        raise ConstraintError("profile weight n must differ from 1 (rank drops)")
    bperp = pf.snwell(p["A1"], p["B1"], p["beta"], k)   # b(r2, r3) along r2 + n r3
    gdiag = pf.snkink(p["A2"], p["B2"], p["beta"], k)   # g(r2 - r3)

    # an invariant near the float range overflows these arguments to +-inf;
    # the profiles give NaN there and the point's status records it
    def jet(r, t):
        with np.errstate(over="ignore", invalid="ignore"):
            u1, db = bperp.jet(r[:, 1] + n * r[:, 2])
            g, dg = gdiag.jet(r[:, 1] - r[:, 2])
        fr = np.zeros((len(r), 4, 3))
        fr[:, 1, 1], fr[:, 1, 2] = db, n * db
        fr[:, 2, 1], fr[:, 2, 2] = dg, -dg
        fr[:, 3, 1], fr[:, 3, 2] = dg, -dg
        return np.column_stack([np.full(len(r), a0), u1, g, g]), fr

    return dict(
        rank=2, description="three vortex directions, nilpotent coupling, snoidal profiles",
        profile=jet,
        wave_list=[RotationalWave(lsp=lsp) for lsp in np.eye(3)],
        default_window={"t": (0.0, 3.0)},
    )


# ---------------------------------------------------------------------------
# acoustic + two vortex waves with a transported third invariant
# ---------------------------------------------------------------------------

def _defaults_r3_e1s2s3_v1(gas):
    return {"A1": 0.25, "B1": 1.0, "C1": 1.0, "A2": 1.0, "B2": 1.0,
            "D1": 0.5, "a0": 1.0, "u30": 1.0, "profile": "linear"}


def _build_r3_e1s2s3_v1(p, gas):
    kappa = gas.kappa
    a0, u30 = p["a0"], p["u30"]

    preset = p["profile"]
    r3_closed = None
    if preset == "linear":
        fshift = lambda s: p["A1"] * np.asarray(s, float) + p["B1"]
        fprof = pf.Fn1(fshift, lambda s: (fshift(s), np.full_like(np.asarray(s, float), p["A1"])))
        planar = PlanarVelocity(theta=pf.kink2(p["D1"]), cos_sign=-1.0)
        nu = kappa / (kappa + 1.0)
        beta = (1.0 + 1.0 / kappa) * p["A1"]
        shift = (p["B1"] + kappa * a0) / p["A1"]
        drift = kappa * a0 - u30

        def r3_closed(t, x3):
            e = 1.0 - beta * t
            core = x3 + drift * t - shift
            # e <= 0 past the singular time: non-finite r3 marks those points
            with np.errstate(divide="ignore", invalid="ignore"):
                g = e ** -nu * core
                dgdx = e ** -nu
                dgdt = nu * beta * e ** (-nu - 1.0) * core + e ** -nu * drift
            return g, dgdt, dgdx
        tsing = (((1.0 + 1.0 / kappa) * p["A1"]) ** -1.0,)
    elif preset == "concentric":
        fprof = pf.coshbump(p["A1"], p["B1"], p["C1"])
        theta = pf.theta_concentric(p["A2"], p["B2"], p["D1"])

        def post_valid(r2, r3):
            r2sq = r2 * r2 + r3 * r3
            y = 0.5 * np.log(np.abs(p["D1"] * r2sq))
            return (r2sq > 0.25) & (np.abs(np.cos(y)) > 0.2)
        planar = PlanarVelocity(theta=theta, cos_sign=-1.0, post_valid=post_valid)
        tsing = ()
    else:  # solitary
        fprof = pf.coshbump(p["A1"], p["B1"], p["C1"])
        planar = PlanarVelocity(theta=pf.theta_solitary(p["D1"]), cos_sign=+1.0)
        tsing = ()

    ev = TransportedEvaluator(fprof, planar, a0, u30, kappa, r3_closed=r3_closed)

    e1 = np.array([0.0, 0.0, 1.0])

    def lam2_fn(u):
        out = np.zeros((len(u), 4))
        out[:, 0] = 1.0
        out[:, 1] = -u[:, 1]
        out[:, 2] = -u[:, 2]
        return out

    def lam2_jac(u):
        out = np.zeros((len(u), 4, 4))
        out[:, 1, 1] = -1.0
        out[:, 2, 2] = -1.0
        return out

    win = {"t": (0.0, 1.0)} if preset == "linear" else \
          {"t": (0.0, 1.0), "x1": (-1.0, 1.0), "x2": (-1.0, 1.0), "x3": (1.0, 2.5)}
    return dict(
        rank=2, description="acoustic + two vortex waves with a transported third invariant",
        profile=ev.jet,
        wave_list=[PotentialWave(e=e1), CustomWave(lam_fn=lam2_fn, jac_fn=lam2_jac),
                   RotationalWave(lsp=np.array([0.0, 0.0, 1.0]))],
        singular_time_values=tsing,
        custom_eval=ev,
        probe_x=np.array([0.3, 0.3, -0.5]),
        default_window=win,
    )


# ---------------------------------------------------------------------------
# acoustic + two vortex waves, rotating polarization
# ---------------------------------------------------------------------------

def _defaults_r3_e1s2s3_v2(gas):
    return {"A1": 0.5, "B1": 0.5, "C1": 1.0, "D1": 1.0, "a0": 1.0, "profile": "periodic"}


def _build_r3_e1s2s3_v2(p, gas):
    kappa = gas.kappa
    fprof = pf.periodic_well(p["A1"], p["B1"], p["C1"])
    gprof = pf.kink(p["D1"], 1.0)

    def lam1_fn(u):
        out = np.zeros((len(u), 4))
        out[:, 0] = u[:, 0]
        out[:, 1] = u[:, 2]
        out[:, 2] = -u[:, 1]
        return out

    def lam1_jac(u):
        out = np.zeros((len(u), 4, 4))
        out[:, 0, 0] = 1.0
        out[:, 1, 2] = 1.0
        out[:, 2, 1] = -1.0
        return out

    ev = RotatingPolarizationEvaluator(fprof, gprof, p["a0"], kappa)

    return dict(
        rank=2, description="acoustic + two vortex waves with rotating polarization",
        profile=ev.jet,
        wave_list=[CustomWave(lam_fn=lam1_fn, jac_fn=lam1_jac),
                   RotationalWave(lsp=np.array([0.0, -1.0, 0.0])),
                   RotationalWave(lsp=np.array([1.0, 0.0, 0.0]))],
        custom_eval=ev,
        default_window={"t": (0.0, 0.6)},
    )


# ---------------------------------------------------------------------------
# free-streaming velocity with time-only sound speed
# ---------------------------------------------------------------------------

def _defaults_rk_time_a(gas):
    return {"A1": 1.0, "B1": 1.0, "C1": 1.0, "D1": 1.0, "profile": "quadratic"}


def _build_rk_time_a(p, gas):
    kappa = gas.kappa
    a1c = p["A1"]
    if p["profile"] == "quadratic":
        b1, c1 = p["B1"], p["C1"]
        if b1 < 0:
            raise ConstraintError("B1 must be nonnegative")
        ch = np.sqrt(b1)
        df_mat = np.array([[c1, ch], [-ch, c1]])
    else:  # nilpotent
        df_mat = np.array([[0.0, p["D1"]], [0.0, 0.0]])

    # sound-speed polynomial P(t) = 1 + tr(Df) t + det(Df) t^2
    trd = float(np.trace(df_mat))
    detd = float(np.linalg.det(df_mat))
    # du/dx has the velocity rows Df (I + t Df)^-1 and, where P varies, a's time row
    rank = int(np.linalg.matrix_rank(df_mat)) + int(trd != 0.0 or detd != 0.0)

    def pol(t):
        return 1.0 + trd * t + detd * t * t

    def a_of_t(t):
        return a1c * pol(t) ** (-1.0 / kappa)

    def jet(r, t):
        vel = r @ df_mat.T
        fr = np.zeros((len(r), 4, 2))
        fr[:, 1:3, :] = df_mat
        return np.column_stack([a_of_t(t), vel[:, 0], vel[:, 1], np.zeros(len(r))]), fr

    def extra_time_deriv(t):  # da/dt; on the t = 0 section -A1 tr(Df)/kappa
        out = np.zeros((len(t), 4))
        out[:, 0] = (a1c * (-1.0 / kappa) * pol(t) ** (-1.0 / kappa - 1.0)
                     * (trd + 2.0 * detd * t))
        return out

    roots = np.roots([detd, trd, 1.0]) if abs(detd) > 1e-14 else \
        (np.array([-1.0 / trd]) if abs(trd) > 1e-14 else np.array([]))
    tsing = tuple(float(r.real) for r in np.atleast_1d(roots)
                  if abs(np.imag(r)) < 1e-12)

    def closed_form(t, x):  # linear profile: solve (I + t Df) r = x_12 directly
        return np.linalg.solve(np.eye(2) + t[:, None, None] * df_mat, x[:, :2, None])[..., 0]

    return dict(
        rank=rank,
        description="free-streaming velocity with time-only sound speed (quadratic or nilpotent stream)",
        profile=jet,
        wave_list=[RotationalWave(lsp=np.array([1.0, 0, 0])),
                   RotationalWave(lsp=np.array([0, 1.0, 0]))],
        singular_time_values=tsing,
        extra_time_deriv=extra_time_deriv,
        closed_form=closed_form,
        default_window={"t": (0.0, 2.0)},
    )


# ---------------------------------------------------------------------------
# registry table
# ---------------------------------------------------------------------------

_ACOUSTIC_CHOICES = {"profile": tuple(_ACOUSTIC_PROFILES)}


# per id: the builder, (params, gas) -> the family's own FamilySpec fields;
# the defaults; the admissible values of each finitely-valued key; and the
# keys whose value has to be positive.  make_family checks both, then builds.
_REGISTRY = {
    "R1_E": (partial(_build_acoustic, "R1_E"), _defaults_r1_e,
             {**_ACOUSTIC_CHOICES, "epsilon": (1, -1)}, ()),
    "R1_S": (_build_r1_s, _defaults_r1_s, {"profile": ("sech",)}, ("a0",)),
    "R2_E1E2": (partial(_build_acoustic, "R2_E1E2"), _defaults_r2_e1e2, _ACOUSTIC_CHOICES, ()),
    "R2_E1S2": (_build_r2_e1s2, _defaults_r2_e1s2, {"profile": ("linear", "soliton")}, ()),
    "R2_S1S2_MA": (_build_r2_s1s2_ma, _defaults_r2_s1s2_ma,
                   {"branch": ("plus", "minus", "auto")}, ("a0",)),
    "R2_S1S2_ADD": (_build_r2_s1s2_add, _defaults_r2_s1s2_add, {"profile": ("kink",)}, ("a0",)),
    "R2_E1E2S3": (_build_r2_e1e2s3, _defaults_r2_e1e2s3, {"profile": ("kink13",)}, ()),
    "R2_E1S2S3": (_build_r2_e1s2s3, _defaults_r2_e1s2s3, {}, ()),
    "R2_S1S2S3": (_build_r2_s1s2s3, _defaults_r2_s1s2s3, {"profile": ("snoidal",)}, ("a0",)),
    "R3_E1E2E3": (partial(_build_acoustic, "R3_E1E2E3"), _defaults_r3_e1e2e3,
                  _ACOUSTIC_CHOICES, ()),
    "R3_E1S2S3_v1": (_build_r3_e1s2s3_v1, _defaults_r3_e1s2s3_v1,
                     {"profile": ("linear", "concentric", "solitary")}, ("a0",)),
    "R3_E1S2S3_v2": (_build_r3_e1s2s3_v2, _defaults_r3_e1s2s3_v2, {"profile": ("periodic",)},
                     ("a0",)),
    "RK_TIME_A": (_build_rk_time_a, _defaults_rk_time_a,
                  {"profile": ("quadratic", "nilpotent")}, ("A1",)),
}

REGISTRY_IDS = tuple(_REGISTRY)


def family_defaults(fid: str, gamma: float | None = None) -> dict:
    if fid not in _REGISTRY:
        raise KeyError(f"unknown family id {fid!r}; known: {', '.join(REGISTRY_IDS)}")
    gas = GasParams() if gamma is None else GasParams(gamma=gamma)
    d = {"gamma": gas.gamma}
    d.update(_REGISTRY[fid][1](gas))
    return d


def make_family(fid: str, overrides: dict | None = None, **kw) -> FamilySpec:
    """Build a validated FamilySpec; overrides merge over per-gamma defaults."""
    if fid not in _REGISTRY:
        raise KeyError(f"unknown family id {fid!r}; known: {', '.join(REGISTRY_IDS)}")
    build, defaults, choices, positive = _REGISTRY[fid]
    merged = dict(overrides or {})
    merged.update(kw)
    gas = GasParams(gamma=merged.pop("gamma", 5.0 / 3.0))
    params = defaults(gas)
    unknown = set(merged) - set(params)
    if unknown:
        raise ConstraintError(f"unknown parameters for {fid}: {sorted(unknown)}")
    for key, value in merged.items():
        if isinstance(params[key], Real) and (isinstance(value, bool)
                                              or not isinstance(value, Real)):
            raise ConstraintError(f"{key} must be a number, got {value!r}")
    params.update(merged)
    for key, options in choices.items():
        if not isinstance(params[key], (str, Real)) or params[key] not in options:
            raise ConstraintError(f"{key} must be one of {', '.join(map(str, options))} "
                                  f"for {fid}, got {params[key]!r}")
    for key in positive:
        if not params[key] > 0:
            raise ConstraintError(f"{key} must be positive")
    params["gamma"] = gas.gamma
    return FamilySpec(id=fid, params=params, gas=gas, **build(params, gas))


def family_info(fid: str) -> dict:
    spec = make_family(fid)
    return {
        "id": fid,
        "rank": spec.rank,
        "waves": spec.n_waves,
        "description": spec.description,
        "defaults": {k: (list(v) if isinstance(v, (tuple, np.ndarray)) else v)
                     for k, v in family_defaults(fid).items()},
        "singular_times": spec.singular_times(),
    }


def registry_entries():
    return [family_info(fid) for fid in REGISTRY_IDS]

"""Seeded workloads of the benchmark and the gates that judge each job.

A workload is an ordered list of jobs.  Every job calls the package's public
functions through module attributes (``rw.verify.residual_exact``, ...), so
the traced run sees the same calls, and returns an ``Outcome``: whether the
job met its gate, the deterministic fields of its result, and the point
counts the end-to-end metrics need.  All inputs come from the seed; the
package receives only the generated points, invariants and argv.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

WORKLOADS = ("grid-sweep", "custom-eval", "interactive")

# Families on the generic Newton path: every family except the two custom evaluators.
NEWTON_FAMILIES = (
    "R1_E", "R1_S", "R2_E1E2", "R2_E1S2", "R2_S1S2_MA", "R2_S1S2_ADD",
    "R2_E1E2S3", "R2_E1S2S3", "R2_S1S2S3", "R3_E1E2E3", "RK_TIME_A",
)
V1, V2 = "R3_E1S2S3_v1", "R3_E1S2S3_v2"
INTERACTIVE_FAMILIES = NEWTON_FAMILIES + (V1,)

# Points are stratified: one uniform point in each cell of a (t, x1, x2, x3)
# lattice over the family's default window.  Every seed then covers the whole
# window, so the Newton and ODE work per batch varies less from seed to seed.
GRID_COUNTS = (5, 11, 11, 11)          # 6655 points, the default verification grid's size
V2_EXACT_COUNTS = (10, 10, 10, 1)      # R3_E1S2S3_v2 ignores x3
V2_FD_COUNTS = (2, 5, 5, 1)
V2_CONDITIONS_SAMPLES = 3
V1_EXACT_COUNTS = (5, 5, 5, 8)
# FD lattices of the two 240-step ODE presets.  The concentric preset's FD
# defect sits on about 0.1% of points, so it keeps 1000 points to show it.
V1_FD_COUNTS = {"concentric": (5, 5, 5, 8), "solitary": (1, 5, 5, 4)}
V1_PRESETS = tuple(V1_FD_COUNTS)
CONDITIONS_SAMPLES = 25

FD_H = 1e-4
FD_STENCIL = 9                # centre plus +-h along four axes
EXACT_GATE = 1e-8
FD_GATE = 1e-5
REL_GAP_GATE = 0.01

# FD jobs that miss their gate because of a defect in the package, kept so the
# defect stays visible (see NOTES.md).  They count in `failed`; a failure is
# the known one only when it is that gate miss (see `_known_fd_miss`).
KNOWN_DEFECTS = {
    f"{V1}[concentric]/fd": "FD residual 1e-5..1e3 normalized: stencil points "
                            "re-solve to another r2 root; exact route passes",
}
# The known defect job skipped 20-28 of its 1000 points on seeds 0-9.
DEFECT_MAX_SKIP_FRAC = 0.05


@dataclass
class Outcome:
    """Result of one job: gate verdict plus the fields the metrics need."""

    ok: bool
    record: dict = field(default_factory=dict)   # deterministic result fields
    points: int = 0            # spacetime points solved (residual jobs only)
    skipped: int = 0           # points the report skipped
    attempted: int = 0         # points the report attempted
    output_bytes: int = 0      # CLI output size
    digest: str | None = None  # sha256 of `sample` output


@dataclass(frozen=True)
class Job:
    name: str                  # "<family>/<job>", unique within a workload
    residual: bool             # counts towards points_per_s
    run: Callable[[], Outcome]
    # for a job in KNOWN_DEFECTS: whether a failed outcome is the documented defect
    known_miss: Callable[[Outcome], bool] | None = None


def build(rw, workload, seed):
    """Jobs of one pass.  Every pass of a run repeats the same jobs and inputs."""
    rng = np.random.default_rng(seed)
    if workload == "grid-sweep":
        return _grid_sweep(rw, rng)
    if workload == "custom-eval":
        return _custom_eval(rw, rng)
    if workload == "interactive":
        return _interactive(rw, rng)
    raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")


# -- library jobs -------------------------------------------------------------

def _stratified_points(rng, window, counts):
    """One uniform point per lattice cell; returns (t (N,), x (N, 3))."""
    cells = np.meshgrid(*[np.arange(c) for c in counts], indexing="ij")
    axes = []
    for axis, (name, c) in enumerate(zip(("t", "x1", "x2", "x3"), counts)):
        lo, hi = window[name]
        cell = cells[axis].ravel()
        axes.append(lo + (hi - lo) * (cell + rng.uniform(size=cell.size)) / c)
    return axes[0], np.column_stack(axes[1:])


def _report_record(rep):
    return {"max_normalized": rep.max_normalized, "eq_max": rep.eq_max.tolist(),
            "eq_mean": rep.eq_mean.tolist(), "scale": rep.scale,
            "points": rep.n_points, "skipped": rep.n_skipped,
            "skip_reasons": dict(rep.skip_reasons)}


def _known_fd_miss(n):
    """The documented FD-gate miss: a report over all ``n`` points whose worst
    residual is finite and above the gate, with few points skipped.  Anything
    else (an exception, NaN, a report that skipped most points) is unexpected."""
    def matches(outcome):
        worst = outcome.record.get("max_normalized")
        return (worst is not None and math.isfinite(worst) and worst > FD_GATE
                and outcome.attempted == n and outcome.skipped <= DEFECT_MAX_SKIP_FRAC * n)
    return matches


def _residual_job(rw, fid, overrides, route, points, label=None):
    exact = route == "exact"
    n = len(points[0])
    name = f"{label or fid}/{route}"

    def run():
        spec = rw.catalog.make_family(fid, overrides)
        if exact:
            rep = rw.verify.residual_exact(spec, points=points)
        else:
            rep = rw.verify.residual_fd(spec, points=points, h=FD_H)
        gate = EXACT_GATE if exact else FD_GATE
        return Outcome(ok=bool(rep.max_normalized <= gate), record=_report_record(rep),
                       points=n if exact else FD_STENCIL * n, skipped=rep.n_skipped,
                       attempted=rep.n_points + rep.n_skipped)

    known_miss = _known_fd_miss(n) if name in KNOWN_DEFECTS and not exact else None
    return Job(name=name, residual=True, run=run, known_miss=known_miss)


def _grid_sweep(rw, rng):
    jobs = []
    for fid in NEWTON_FAMILIES:
        window = rw.catalog.make_family(fid).default_grid_window()
        points = _stratified_points(rng, window, GRID_COUNTS)
        jobs.append(_residual_job(rw, fid, {}, "exact", points))
        jobs.append(_residual_job(rw, fid, {}, "fd", points))
    return jobs


def _custom_eval(rw, rng):
    spec = rw.catalog.make_family(V2)
    window = spec.default_grid_window()
    jobs = [
        _residual_job(rw, V2, {}, "exact", _stratified_points(rng, window, V2_EXACT_COUNTS)),
        _residual_job(rw, V2, {}, "fd", _stratified_points(rng, window, V2_FD_COUNTS)),
        _cli_job(rw, f"{V2}/conditions",
                 ["conditions", "--family", V2, "--samples", str(V2_CONDITIONS_SAMPLES),
                  "--seed", str(int(rng.integers(0, 2**31 - 1)))], _check_conditions),
    ]
    for preset in V1_PRESETS:
        overrides = {"profile": preset}
        window = rw.catalog.make_family(V1, overrides).default_grid_window()
        label = f"{V1}[{preset}]"
        for route, counts in (("exact", V1_EXACT_COUNTS), ("fd", V1_FD_COUNTS[preset])):
            jobs.append(_residual_job(rw, V1, overrides, route,
                                      _stratified_points(rng, window, counts), label))
    return jobs


# -- CLI requests ---------------------------------------------------------------

def _cli_job(rw, name, argv, check, residual=False):
    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = rw.cli.main(argv)
        text = out.getvalue()
        if code != 0:
            result = Outcome(ok=False, record={"exit": code, "stderr": err.getvalue()[-500:]})
        else:
            result = check(text)
        result.output_bytes = len(text.encode("utf-8"))
        return result

    return Job(name=name, residual=residual, run=run)


def _check_verify(text):
    doc = json.loads(text)
    doc.pop("runtime_ms")
    n = doc["points"] + doc["skipped"]
    return Outcome(ok=bool(doc["pass"]), record=doc, points=n,
                   skipped=doc["skipped"], attempted=n)


def _check_conditions(text):
    doc = json.loads(text)
    return Outcome(ok=bool(doc["pass"]), record=doc)


def _check_catastrophe(text):
    doc = json.loads(text)
    gaps = [t["rel_gap"] for t in doc["times"] if "rel_gap" in t]
    ok = bool(gaps) and all(g <= REL_GAP_GATE for g in gaps)
    return Outcome(ok=ok, record=doc)


def _check_sample(text):
    lines = text.splitlines()
    bad = [i for i, line in enumerate(lines[1:], 1)
           if line.endswith(",ok") and "nan" in line.split(",")]
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    return Outcome(ok=not bad and len(lines) > 1, record={"rows": len(lines) - 1,
                                                          "nan_ok_rows": bad[:10]},
                   digest=digest)


def _locked_pair(rng, kappa):
    """A seeded rotation of an acoustic pair at the locked angle cos = -1/kappa."""
    c = -1.0 / kappa
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    pair = (q @ np.array([1.0, 0.0, 0.0]), q @ np.array([c, np.sqrt(1.0 - c * c), 0.0]))
    return ";".join(",".join(f"{v:.17g}" for v in e) for e in pair)


def _interactive(rw, rng):
    jobs = []
    for fid in INTERACTIVE_FAMILIES:
        spec = rw.catalog.make_family(fid)
        seed = str(int(rng.integers(0, 2**31 - 1)))
        jobs.append(_cli_job(rw, f"{fid}/verify",
                             ["verify", "--family", fid, "--method", "exact"],
                             _check_verify, residual=True))
        jobs.append(_cli_job(rw, f"{fid}/conditions",
                             ["conditions", "--family", fid, "--samples",
                              str(CONDITIONS_SAMPLES), "--seed", seed], _check_conditions))
        jobs.append(_cli_job(rw, f"{fid}/sample", ["sample", "--family", fid],
                             _check_sample))
        if any(t > 0 for t in spec.singular_times()):
            jobs.append(_cli_job(rw, f"{fid}/catastrophe",
                                 ["catastrophe", "--family", fid], _check_catastrophe))
    pair = _locked_pair(rng, rw.fluid.GasParams().kappa)
    seed = str(int(rng.integers(0, 2**31 - 1)))
    jobs.append(_cli_job(rw, "pair/conditions",
                         ["conditions", f"--pair={pair}", "--samples",
                          str(CONDITIONS_SAMPLES), "--seed", seed], _check_conditions))
    return jobs

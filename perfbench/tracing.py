"""In-memory span tracer for the benchmark's traced run.

Wrappers are installed from the benchmark, never inside the package, at the
names callers resolve when they call: ``from x import f`` binds ``f`` in the
importing module, so every such module attribute is replaced, and each built
``FamilySpec`` gets its callables wrapped on the instance.  A span records its
name, parent span, start, end, the points it was handed, the points that came
back converged, and the benchmark job that caused it.  Spans stay in memory
until the run ends; the run then writes those of the pass it reports.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

import numpy as np

# span record layout (a list, so the hot wrapper stays cheap)
NAME, PARENT, START, END, POINTS, OK, JOB = range(7)

# Reported layers.  The *_jac spans fold into the layer of their value call;
# "pass" and "job" spans are the benchmark's own code (the unattributed rest).
LAYERS = (
    "solver.newton", "solver.jacobi",
    "catalog.profile", "catalog.waves", "catalog.evaluate_batch", "catalog.custom_eval",
    "catalog.make_family", "elliptic.sn_cn_dn",
    "verify.residual_exact", "verify.residual_fd", "verify.pde_residual", "verify.probe",
    "conditions.trace_initial", "conditions.trace_higher", "conditions.bilinear",
    "fluid.coefficient_matrices", "linalg.determinant", "linalg.inverse",
    "cli",
)
FOLD = {"catalog.profile_jac": "catalog.profile", "catalog.waves_jac": "catalog.waves"}
BENCH_SPANS = ("pass", "job")


def _rows(args):
    return len(args[0])


def _size(args):
    return int(np.size(args[0]))


def _batch_rows(args):
    return len(args[4])


class Tracer:
    """Span recorder plus the patch set that routes layer calls through it."""

    def __init__(self):
        self.spans = []
        self.job = None
        self._stack = []
        self._patches = []
        self._status_ok = None

    def wrap(self, name, fn, points=None, ok=None):
        """Return ``fn`` recording one span per call."""
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, 0.0, 0.0,
                   points(args) if points is not None else 0, -1, self.job]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[END] = time.perf_counter()
                stack.pop()
            if ok is not None:
                rec[OK] = ok(out)
            return out

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def span(self, name):
        """Span around benchmark code (a pass or one job); yields its id."""
        sid = len(self.spans)
        rec = [name, self._stack[-1] if self._stack else -1, 0.0, 0.0, 0, -1, self.job]
        self._stack.append(sid)
        self.spans.append(rec)
        rec[START] = time.perf_counter()
        try:
            yield sid
        finally:
            rec[END] = time.perf_counter()
            self._stack.pop()

    # -- patching -------------------------------------------------------------

    def _ok_count(self, status):
        return int(np.count_nonzero(status == self._status_ok))

    def install(self, rw):
        """Wrap the layer entry points of the imported package ``rw``."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        self._status_ok = rw.solver.STATUS_OK
        traced_make = self.wrap("catalog.make_family", rw.catalog.make_family)

        def make_family(*args, **kwargs):
            return self.instrument(traced_make(*args, **kwargs))

        layer_of = {
            rw.catalog.base.newton_batch: self.wrap(
                "solver.newton", rw.catalog.base.newton_batch, _batch_rows,
                lambda out: self._ok_count(out[2])),
            rw.catalog.base.jacobi_batch: self.wrap(
                "solver.jacobi", rw.catalog.base.jacobi_batch, _batch_rows),
            rw.catalog.profiles.jacobi_sn_cn_dn: self.wrap(
                "elliptic.sn_cn_dn", rw.catalog.profiles.jacobi_sn_cn_dn, _size),
            rw.conditions.coefficient_matrices: self.wrap(
                "fluid.coefficient_matrices", rw.conditions.coefficient_matrices),
            rw.conditions.trace_condition_initial: self.wrap(
                "conditions.trace_initial", rw.conditions.trace_condition_initial),
            rw.conditions.trace_condition_higher: self.wrap(
                "conditions.trace_higher", rw.conditions.trace_condition_higher),
            rw.conditions.bilinear_rank2_condition: self.wrap(
                "conditions.bilinear", rw.conditions.bilinear_rank2_condition),
            rw.linalg.determinant: self.wrap("linalg.determinant", rw.linalg.determinant),
            rw.linalg.inverse: self.wrap("linalg.inverse", rw.linalg.inverse),
            rw.verify.residual_exact: self.wrap("verify.residual_exact", rw.verify.residual_exact),
            rw.verify.residual_fd: self.wrap("verify.residual_fd", rw.verify.residual_fd),
            rw.verify.pde_residual: self.wrap("verify.pde_residual", rw.verify.pde_residual, _rows),
            rw.verify.catastrophe_probe: self.wrap("verify.probe", rw.verify.catastrophe_probe),
            rw.cli.main: self.wrap("cli", rw.cli.main),
            rw.catalog.make_family: make_family,
        }
        targets = (
            (rw.catalog.base, "newton_batch"), (rw.catalog.base, "jacobi_batch"),
            (rw.catalog.profiles, "jacobi_sn_cn_dn"),
            (rw.conditions, "coefficient_matrices"),
            (rw.conditions, "trace_condition_initial"), (rw.conditions, "trace_condition_higher"),
            (rw.conditions, "bilinear_rank2_condition"),
            (rw.linalg, "determinant"), (rw.linalg, "inverse"),
            (rw.verify, "residual_exact"), (rw.verify, "residual_fd"),
            (rw.verify, "pde_residual"), (rw.verify, "catastrophe_probe"),
            (rw.cli, "make_family"), (rw.cli, "residual_exact"), (rw.cli, "residual_fd"),
            (rw.cli, "catastrophe_probe"), (rw.cli, "trace_condition_initial"),
            (rw.cli, "trace_condition_higher"), (rw.cli, "bilinear_rank2_condition"),
            (rw.cli, "main"),
            (rw.catalog, "make_family"),
        )
        for module, attr in targets:
            original = getattr(module, attr)
            self._patches.append((module, attr, original))
            setattr(module, attr, layer_of[original])

    def uninstall(self):
        """Restore every attribute ``install`` replaced."""
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def instrument(self, spec):
        """Wrap one built FamilySpec's callables on the instance."""
        spec.profile = self.wrap("catalog.profile", spec.profile, _rows)
        spec.profile_jac = self.wrap("catalog.profile_jac", spec.profile_jac, _rows)
        spec.waves = self.wrap("catalog.waves", spec.waves, _rows)
        spec.waves_jac = self.wrap("catalog.waves_jac", spec.waves_jac, _rows)
        if spec.custom_eval is not None:
            spec.custom_eval = self.wrap("catalog.custom_eval", spec.custom_eval, _rows)
        spec.evaluate_batch = self.wrap("catalog.evaluate_batch", spec.evaluate_batch, _size,
                                        lambda res: self._ok_count(res.status))
        return spec

    # -- output ---------------------------------------------------------------

    def write(self, path, root, job_names):
        """Write the spans of one pass as JSON lines (times in s from its start)."""
        t0 = self.spans[root][START]
        with open(path, "w", encoding="utf-8") as fh:
            for sid in range(root, pass_end(self.spans, root)):
                rec = self.spans[sid]
                fh.write(json.dumps({
                    "id": sid, "parent": rec[PARENT], "name": rec[NAME],
                    "start": rec[START] - t0, "end": rec[END] - t0,
                    "points": rec[POINTS], "ok": rec[OK],
                    "job": None if rec[JOB] is None else job_names[rec[JOB]],
                }) + "\n")


def pass_end(spans, root):
    """One past the last span of the pass rooted at ``root``."""
    end = root + 1
    while end < len(spans) and spans[end][START] < spans[root][END]:
        end += 1
    return end


def profile_pass(spans, root):
    """Per-layer totals for the pass whose root span id is ``root``.

    Self time is a span's duration minus the durations of its direct
    children; spans run on one thread, so children never overlap and the
    self times of a pass add up to its duration.
    """
    end = pass_end(spans, root)
    self_s = {}
    for i in range(root, end):
        rec = spans[i]
        self_s[i] = self_s.get(i, 0.0) + rec[END] - rec[START]
        if i != root:
            self_s[rec[PARENT]] = self_s.get(rec[PARENT], 0.0) - (rec[END] - rec[START])

    layers = {name: {"self_s": 0.0, "calls": 0, "points": 0, "ok": 0} for name in LAYERS}
    by_job = {}
    unattributed = 0.0
    newton_profile_points = 0
    probe_evals = 0
    in_probe = {root: False}
    for i in range(root, end):
        rec = spans[i]
        name = FOLD.get(rec[NAME], rec[NAME])
        parent = rec[PARENT]
        parent_name = spans[parent][NAME] if i != root else None
        in_probe[i] = i != root and (in_probe[parent] or parent_name == "verify.probe")
        if name in BENCH_SPANS:
            unattributed += self_s[i]
        else:
            stats = layers[name]
            stats["self_s"] += self_s[i]
            stats["calls"] += 1
            stats["points"] += rec[POINTS]
            stats["ok"] += max(rec[OK], 0)
        if rec[NAME] == "catalog.profile" and parent_name == "solver.newton":
            newton_profile_points += rec[POINTS]
        if name == "catalog.evaluate_batch" and in_probe[i]:
            probe_evals += 1
        if rec[JOB] is not None:
            job = by_job.setdefault(rec[JOB], {})
            key = "bench" if name in BENCH_SPANS else name
            job[key] = job.get(key, 0.0) + self_s[i]
            if name.startswith("conditions.trace_") and not parent_name.startswith("conditions.trace_"):
                job["trace_inclusive"] = job.get("trace_inclusive", 0.0) + rec[END] - rec[START]
            if name == "conditions.trace_initial":
                job["trace_points"] = job.get("trace_points", 0) + 1
    return {
        "pass_s": spans[root][END] - spans[root][START],
        "unattributed_s": unattributed,
        "layers": layers,
        "newton_profile_points": newton_profile_points,
        "probe_evals": probe_evals,
        "by_job": by_job,
    }

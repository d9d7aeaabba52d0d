"""Closed-loop pass runner and the benchmark's metrics.

One client runs a workload's jobs in order; the next job starts when the
previous one returns, and a pass is one run through every job.  A timed run
repeats passes with tracing off, times a host probe between jobs, and
reports the end-to-end metrics from probe-normalised job times; a traced run
alternates untraced and traced passes and reports the per-layer metrics of
the traced pass with the median duration.
"""

from __future__ import annotations

import gc
import hashlib
import resource
import statistics
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from .tracing import LAYERS, Tracer
from .workloads import FD_STENCIL, Outcome

END_TO_END = (
    ("setup_s", "s"), ("pass_s", "s"), ("points_per_s", "1/s"),
    ("request_p50_ms", "ms"), ("request_p90_ms", "ms"), ("peak_rss_mb", "MB"),
)

# (metric, unit): the per-layer metrics, in report order
PER_LAYER = tuple(
    [(f"{layer}.self_s", "s") for layer in LAYERS]
    + [(f"{layer}.points", "count") for layer in (
        "solver.newton", "solver.jacobi", "catalog.profile", "catalog.waves",
        "catalog.evaluate_batch", "catalog.custom_eval", "elliptic.sn_cn_dn")]
    + [(f"{layer}.calls", "count") for layer in (
        "conditions.trace_initial", "conditions.trace_higher", "conditions.bilinear",
        "fluid.coefficient_matrices", "linalg.determinant", "linalg.inverse")]
    + [("solver.newton.ok_frac", "frac"), ("catalog.evaluate_batch.ok_frac", "frac"),
       ("solver.newton.profile_evals_per_point", "evals/point"),
       ("verify.probe.evals_per_probe", "evals/probe"),
       ("verify.skip_frac", "frac"),
       ("cli.output_bytes", "bytes"),
       ("trace.pass_s", "s"), ("trace.unattributed_s", "s"), ("trace.overhead_frac", "frac")]
)


@dataclass
class PassResult:
    seconds: float
    outcomes: list            # one Outcome per job, in job order
    job_seconds: list         # wall time per job
    root: int | None = None   # root span id of a traced pass
    probes: list | None = None  # host-probe seconds before each job and after the last


def run_pass(jobs, tracer: Tracer | None = None, probe=None) -> PassResult:
    """Run every job once, in order; a job that raises counts as failed.

    ``probe()``, if given, runs before each job and after the last and returns
    the seconds it measured; its time is left out of the pass's duration.
    """
    outcomes, job_seconds, probes = [], [], []
    aside = 0.0

    def run_probe():
        nonlocal aside
        start = time.perf_counter()
        probes.append(probe())
        aside += time.perf_counter() - start

    def run_job(job):
        if probe is not None:
            run_probe()
        start = time.perf_counter()
        try:
            outcome = job.run()
        except Exception:  # a job boundary: record the failure and keep going
            outcome = Outcome(ok=False, record={"error": traceback.format_exc(limit=4)})
        job_seconds.append(time.perf_counter() - start)
        outcomes.append(outcome)

    gc.collect()
    start = time.perf_counter()
    if tracer is None:
        for job in jobs:
            run_job(job)
        if probe is not None:
            run_probe()
        return PassResult(time.perf_counter() - start - aside, outcomes, job_seconds,
                          probes=probes if probe is not None else None)
    with tracer.span("pass") as root:
        for i, job in enumerate(jobs):
            tracer.job = i
            with tracer.span("job"):
                run_job(job)
            tracer.job = None
    return PassResult(time.perf_counter() - start, outcomes, job_seconds, root)


@dataclass
class Ledger:
    """Gate verdicts over every pass of a run, one per job.

    A job fails when it misses its gate in any pass.  ``attempted`` and
    ``failed`` count jobs, not repeats, so they depend on the seed alone and
    not on how many passes fit into the run; ``runs`` counts the repeats.
    """

    jobs: list
    runs: int = 0                                     # job runs over every pass
    failed_jobs: set = field(default_factory=set)     # names of the failed jobs
    unexpected: dict = field(default_factory=dict)   # job name -> first failing record
    defects: dict = field(default_factory=dict)      # known-defect job -> failed passes
    defect_records: dict = field(default_factory=dict)  # known-defect job -> first record
    digests: dict = field(default_factory=dict)      # job name -> first `sample` digest

    def add(self, result: PassResult):
        for job, outcome in zip(self.jobs, result.outcomes):
            if outcome.digest is not None:
                first = self.digests.setdefault(job.name, outcome.digest)
                if outcome.digest != first:
                    outcome.ok = False
                    outcome.record["digest_mismatch"] = [first, outcome.digest]
            self.runs += 1
            if outcome.ok:
                continue
            self.failed_jobs.add(job.name)
            if self._is_known_defect(job, outcome):
                self.defects[job.name] = self.defects.get(job.name, 0) + 1
            else:
                self.unexpected.setdefault(job.name, outcome.record)

    def _is_known_defect(self, job, outcome):
        """The job's documented miss, with the same report as in its first pass."""
        if job.known_miss is None or not job.known_miss(outcome):
            return False
        return self.defect_records.setdefault(job.name, outcome.record) == outcome.record

    @property
    def attempted(self):
        return len(self.jobs) if self.runs else 0

    @property
    def failed(self):
        return len(self.failed_jobs)

    @property
    def correct(self):
        """Every job met its gate, apart from the documented known defects."""
        return not self.unexpected

    def sample_digest(self):
        """One sha256 over every `sample` output of a pass, in job order."""
        return hashlib.sha256("".join(self.digests[j.name] for j in self.jobs
                                      if j.name in self.digests).encode()).hexdigest()


def repeat(seconds, step):
    """Call ``step(i)`` until another call would end past ``seconds``.

    Runs at least twice, so a traced run always has one untraced and one
    traced pass.
    """
    start = time.perf_counter()
    durations = []
    while True:
        t0 = time.perf_counter()
        step(len(durations))
        durations.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if len(durations) >= 2 and elapsed + statistics.median(durations) > seconds:
            return


# Host-speed probe: a fixed numpy-and-Python kernel that never calls the
# package, timed before every job and after the last.  A job's normalised time
# is its wall time times HOST_PROBE_NOMINAL_S over the mean of the two probes
# around it, i.e. its time on a host that runs the probe in the nominal time
# (the probe's fastest reading on the 2-vCPU host the bounds were set on; see
# NOTES.md).
HOST_PROBE_NOMINAL_S = 0.025
_PROBE_RNG = np.random.default_rng(12345)
_PROBE_X = _PROBE_RNG.uniform(0.1, 1.0, (6655, 4))
_PROBE_M = _PROBE_RNG.uniform(0.1, 1.0, (6655, 4, 4)) + 4.0 * np.eye(4)


def host_probe():
    """Seconds for one run of the probe kernel (batched numpy, then a Python loop)."""
    start = time.perf_counter()
    for _ in range(8):
        y = np.sin(_PROBE_X) * np.exp(-_PROBE_X) + _PROBE_X * _PROBE_X
        np.linalg.solve(_PROBE_M, np.einsum("nij,nj->ni", _PROBE_M, y)[..., None])
    total = 0
    for i in range(100_000):
        total += (i * 7) % 13
    return time.perf_counter() - start


def normalised(seconds, before, after):
    """``seconds`` as on a host whose probe reads the nominal time."""
    return seconds * HOST_PROBE_NOMINAL_S / (0.5 * (before + after))


def job_times(result: PassResult, raw=False):
    """Per-job times of one probed pass, normalised unless ``raw``."""
    sec = np.asarray(result.job_seconds)
    if raw:
        return sec
    p = np.asarray(result.probes)
    return normalised(sec, p[:-1], p[1:])


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(jobs, passes, setup_times, raw=False):
    """End-to-end metrics (value, sample count) over the timed passes.

    Every time is probe-normalised (``raw`` keeps wall times).  Each job's
    time is its median over the passes; ``pass_s`` sums them over the
    workload's jobs (the typical pass, assembled job by job), ``points_per_s``
    divides the pass's points by their sum over the residual jobs, and the
    request percentiles are taken across the jobs.  ``setup_s`` is the median
    of the fresh-interpreter set-ups.
    """
    times = np.array([job_times(p, raw) for p in passes])      # passes x jobs
    residual = np.array([j.residual for j in jobs])
    points = sum(o.points for j, o in zip(jobs, passes[0].outcomes) if j.residual)
    per_job = np.median(times, axis=0)
    p50, p90 = np.percentile(1e3 * per_job, [50, 90])
    of_jobs = f"{len(jobs)} jobs, each the median of {len(passes)} passes"
    return {
        "setup_s": (float(np.median(setup_times)),
                    f"median of {len(setup_times)} fresh interpreters"),
        "pass_s": (float(per_job.sum()), f"sum over {of_jobs}"),
        "points_per_s": (points / float(per_job[residual].sum()),
                         f"{points} points per pass (exact x1, FD x{FD_STENCIL}) over the "
                         f"residual jobs' median times, {len(passes)} passes"),
        "request_p50_ms": (float(p50), of_jobs),
        "request_p90_ms": (float(p90), of_jobs),
        "peak_rss_mb": (peak_rss_mb(), "ru_maxrss of the benchmark process"),
    }


def skip_counts(jobs, result):
    """(skipped, attempted) points over the residual jobs of one pass."""
    pairs = [(o.skipped, o.attempted) for j, o in zip(jobs, result.outcomes) if j.residual]
    return sum(p[0] for p in pairs), sum(p[1] for p in pairs)


def counters(prof):
    """The exact counts of one traced pass; they must repeat run to run."""
    out = {name: (s["calls"], s["points"], s["ok"]) for name, s in prof["layers"].items()}
    out["newton_profile_points"] = prof["newton_profile_points"]
    out["probe_evals"] = prof["probe_evals"]
    return out


def per_layer(jobs, result, prof, overhead_frac):
    """Per-layer metrics of one traced pass and its profile."""
    layers = prof["layers"]
    skipped, attempted = skip_counts(jobs, result)

    def ratio(a, b):
        return a / b if b else 0.0

    newton = layers["solver.newton"]
    batch = layers["catalog.evaluate_batch"]
    values = {}
    for name, unit in PER_LAYER:
        layer, _, kind = name.rpartition(".")
        if layer in layers and kind in ("self_s", "points", "calls"):
            values[name] = layers[layer][kind]
    values.update({
        "solver.newton.ok_frac": ratio(newton["ok"], newton["points"]),
        "catalog.evaluate_batch.ok_frac": ratio(batch["ok"], batch["points"]),
        "solver.newton.profile_evals_per_point": ratio(prof["newton_profile_points"],
                                                       newton["points"]),
        "verify.probe.evals_per_probe": ratio(prof["probe_evals"],
                                              layers["verify.probe"]["calls"]),
        "verify.skip_frac": ratio(skipped, attempted),
        "cli.output_bytes": sum(o.output_bytes for o in result.outcomes),
        "trace.pass_s": prof["pass_s"],
        "trace.unattributed_s": prof["unattributed_s"],
        "trace.overhead_frac": overhead_frac,
    })
    return values


TABLE_COLUMNS = (
    ("newton", ("solver.newton",)), ("jacobi", ("solver.jacobi",)),
    ("profile", ("catalog.profile",)), ("waves", ("catalog.waves",)),
    ("eval", ("catalog.evaluate_batch",)), ("custom", ("catalog.custom_eval",)),
    ("sn_cn_dn", ("elliptic.sn_cn_dn",)),
    ("verify", ("verify.residual_exact", "verify.residual_fd", "verify.pde_residual")),
    ("probe", ("verify.probe",)),
    ("cond", ("conditions.trace_initial", "conditions.trace_higher", "conditions.bilinear",
              "fluid.coefficient_matrices", "linalg.determinant", "linalg.inverse")),
    ("cli", ("cli",)), ("make", ("catalog.make_family",)), ("bench", ("bench",)),
)


def family_table(jobs, result: PassResult, prof):
    """Per-job self time (ms) by layer for one traced pass, as text lines.

    ``trace/pt`` is the inclusive time of the trace-condition calls per
    ``trace_condition_initial`` call, in ms.
    """
    head = (f"{'job':34s} {'wall_ms':>9s} " + " ".join(f"{c:>8s}" for c, _ in TABLE_COLUMNS)
            + f" {'trace/pt':>8s}")
    lines = [head]
    for i, job in enumerate(jobs):
        by = prof["by_job"].get(i, {})
        cells = [1e3 * sum(by.get(layer, 0.0) for layer in group) for _, group in TABLE_COLUMNS]
        per_point = 1e3 * by.get("trace_inclusive", 0.0) / max(by.get("trace_points", 0), 1)
        lines.append(f"{job.name:34s} {1e3 * result.job_seconds[i]:9.1f} "
                     + " ".join(f"{c:8.1f}" for c in cells) + f" {per_point:8.2f}")
    return lines

"""Benchmark entry point.

    python3 perfbench/run.py --workload grid-sweep|custom-eval|interactive \
        --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ``src/``.  With
``--trace 0`` the run measures the end-to-end metrics with tracing off, each
time normalised by a package-free probe kernel timed just before and after
it (raw values are printed beside); with
``--trace 1`` it alternates untraced and traced passes and reports the
per-layer metrics.  Human-readable lines come first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Spans and a run record are written under
``.perfbench_out/``.  One process, one client, BLAS/OpenMP threads pinned to 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_REPEATS = 9
SETUP_TIMEOUT_S = 60


def parse_args(argv):
    from perfbench.workloads import WORKLOADS
    ap = argparse.ArgumentParser(description="riemannwaves layered benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_package():
    """Import riemannwaves from this checkout's src/, and only from there."""
    src = ROOT / "src"
    if not (src / "riemannwaves" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no package source at {src}/riemannwaves")
    sys.path.insert(0, str(src))
    import riemannwaves
    import riemannwaves.cli  # not imported by the package itself
    if Path(riemannwaves.__file__).resolve().parent != (src / "riemannwaves").resolve():
        raise SystemExit(f"perfbench: imported {riemannwaves.__file__}, not the checkout's copy")
    return riemannwaves


def measure_setup(workload, setups):
    """Time one fresh interpreter that imports the package and builds the specs,
    between two host probes."""
    from perfbench import harness

    cmd = [sys.executable, str(Path(__file__).with_name("setup_probe.py")), workload]
    before = harness.host_probe()
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=SETUP_TIMEOUT_S)
    wall = time.perf_counter() - t0
    after = harness.host_probe()
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: set-up probe failed:\n{proc.stderr}")
    setups.append({"wall_s": wall, "probes": [before, after],
                   "norm_s": harness.normalised(wall, before, after),
                   **json.loads(proc.stdout.splitlines()[-1])})


def environment(rw, args):
    import numpy as np
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(), "python": platform.python_version(),
        "numpy": np.__version__, "riemannwaves": rw.__version__,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "clients": 1, "loop": "closed",
    }


def timed_run(rw, args, env, lines):
    from perfbench import harness, workloads

    jobs = workloads.build(rw, args.workload, args.seed)
    ledger = harness.Ledger(jobs)
    passes, setups = [], []

    def step(_):
        # one set-up before each pass, so the set-ups sample the whole run
        if len(setups) < SETUP_REPEATS:
            measure_setup(args.workload, setups)
        result = harness.run_pass(jobs, probe=harness.host_probe)
        ledger.add(result)
        if passes:  # metrics read only the first pass's outcomes; memory stays flat
            result.outcomes = None
        passes.append(result)

    harness.repeat(args.seconds, step)
    while len(setups) < SETUP_REPEATS:
        measure_setup(args.workload, setups)
    values = harness.end_to_end(jobs, passes, [s["norm_s"] for s in setups])
    raw = harness.end_to_end(jobs, passes, [s["wall_s"] for s in setups], raw=True)
    probes = [x for p in passes for x in p.probes]
    lines.append(f"set-up in a fresh interpreter: import {statistics.median(s['import_s'] for s in setups):.4f} s, "
                 f"build {statistics.median(s['build_s'] for s in setups):.4f} s (medians)")
    lines.append(f"host probes: {len(probes)}, fastest {min(probes):.5f} s, median "
                 f"{statistics.median(probes):.5f} s, nominal {harness.HOST_PROBE_NOMINAL_S} s")
    for name, unit in harness.END_TO_END:
        value, count = values[name]
        lines.append(f"metric {name} = {value:.6g} {unit}  [{count}; raw {raw[name][0]:.6g}]")
    lines.append(f"pass wall times: median {statistics.median(p.seconds for p in passes):.4f} s, "
                 f"min {min(p.seconds for p in passes):.4f} s over {len(passes)} passes")
    skipped, attempted = harness.skip_counts(jobs, passes[0])
    lines.append(f"metric skip_frac = {skipped / attempted if attempted else 0.0:.6g} frac  "
                 f"[{skipped} of {attempted} points per pass]")
    lines.append(f"metric fail_frac = {ledger.failed / ledger.attempted:.6g} frac  "
                 f"[{ledger.failed} of {ledger.attempted} jobs, each run in {len(passes)} passes]")
    metrics = {name: {"value": values[name][0], "unit": unit} for name, unit in harness.END_TO_END}
    samples = {"setups": setups,
               "pass_seconds": [p.seconds for p in passes],
               "job_names": [j.name for j in jobs],
               "job_seconds": [p.job_seconds for p in passes],
               "probes": [p.probes for p in passes],
               "raw": {name: raw[name][0] for name, _ in harness.END_TO_END}}
    return ledger, metrics, samples


def traced_run(rw, args, env, lines):
    from perfbench import harness, tracing, workloads

    jobs = workloads.build(rw, args.workload, args.seed)
    ledger = harness.Ledger(jobs)
    tracer = tracing.Tracer()
    untraced, traced = [], []

    def step(i):
        if i % 2 == 0:
            result = harness.run_pass(jobs)
            untraced.append(result)
        else:
            tracer.install(rw)
            try:
                result = harness.run_pass(jobs, tracer)
            finally:
                tracer.uninstall()
            traced.append(result)
        ledger.add(result)

    harness.repeat(args.seconds, step)
    profiles = [tracing.profile_pass(tracer.spans, r.root) for r in traced]
    counts = [harness.counters(p) for p in profiles]
    if any(c != counts[0] for c in counts[1:]):
        ledger.unexpected["trace.counters"] = {"differ_between_passes": True}
    order = sorted(range(len(traced)), key=lambda i: traced[i].seconds)
    pick = order[len(order) // 2]
    prof, result = profiles[pick], traced[pick]
    overhead = (statistics.median(r.seconds for r in traced)
                / statistics.median(r.seconds for r in untraced) - 1.0)
    values = harness.per_layer(jobs, result, prof, overhead)

    lines.append(f"traced passes {len(traced)}, untraced passes {len(untraced)}; "
                 f"layer figures from the traced pass of median duration")
    lines.extend(harness.family_table(jobs, result, prof))
    for name, unit in harness.PER_LAYER:
        lines.append(f"metric {name} = {values[name]:.6g} {unit}")
    total = sum(s["self_s"] for s in prof["layers"].values()) + prof["unattributed_s"]
    lines.append(f"check: layer self times + unattributed = {total:.6f} s; "
                 f"traced pass_s = {prof['pass_s']:.6f} s")
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl", result.root,
                 [j.name for j in jobs])
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in harness.PER_LAYER}
    samples = {"counters": counts[0], "traced_pass_seconds": [r.seconds for r in traced],
               "untraced_pass_seconds": [r.seconds for r in untraced]}
    return ledger, metrics, samples


def main(argv=None):
    for var in THREAD_VARS:  # before numpy is first imported
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT))
    args = parse_args(argv)
    rw = import_package()
    env = environment(rw, args)
    lines = [f"env {json.dumps(env)}"]
    run = traced_run if args.trace else timed_run
    ledger, metrics, samples = run(rw, args, env, lines)

    if ledger.digests:
        lines.append(f"sample digest {ledger.sample_digest()} "
                     f"({len(ledger.digests)} outputs; a repeat that differs fails its job)")
    for name, n in ledger.defects.items():
        lines.append(f"known defect, counted as failed: {name} (missed its gate in {n} passes)")
    for name, record in ledger.unexpected.items():
        lines.append(f"FAILED {name}: {json.dumps(record, default=str)[:400]}")
    print("\n".join(lines))

    summary = {"correct": ledger.correct, "attempted": ledger.attempted,
               "failed": ledger.failed, "metrics": metrics}
    OUT_DIR.mkdir(exist_ok=True)
    record = dict(summary, env=env, samples=samples, defects=ledger.defects,
                  unexpected=ledger.unexpected)
    (OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str) + "\n", encoding="utf-8")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Tests of the benchmark itself.

Tracing must change no result, the exact counters must repeat for one seed,
the layer self times must add up to the traced pass, the gate ledger must
keep known defects visible, and the runner must refuse a checkout without
the package.  Run from the repository root:

    python -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import riemannwaves as rw  # noqa: E402
import riemannwaves.cli  # noqa: E402,F401
from perfbench import harness, tracing, workloads  # noqa: E402

# A small pass per workload: jobs that cover every layer the workload reaches.
SMALL = {
    "grid-sweep": ("R1_E/exact", "R1_E/fd", "R2_S1S2_MA/exact", "R2_S1S2S3/exact"),
    "custom-eval": ("R3_E1S2S3_v2/exact", "R3_E1S2S3_v2/conditions",
                    "R3_E1S2S3_v1[solitary]/exact"),
    "interactive": ("R1_E/verify", "R1_E/catastrophe", "R2_S1S2S3/conditions",
                    "R2_S1S2S3/sample", "R3_E1S2S3_v1/sample", "R3_E1S2S3_v1/catastrophe",
                    "pair/conditions"),
}
# per-layer metrics that are exact counts or ratios of counts (not cli.output_bytes:
# `verify` prints its runtime_ms, whose digit count varies)
EXACT = tuple(name for name, unit in harness.PER_LAYER
              if name.endswith((".points", ".calls", "ok_frac", "_per_point", "_per_probe",
                                "skip_frac")))


def small_jobs(workload, seed=5):
    jobs = [j for j in workloads.build(rw, workload, seed) if j.name in SMALL[workload]]
    assert [j.name for j in jobs] == list(SMALL[workload])
    return jobs


def traced_pass(jobs):
    tracer = tracing.Tracer()
    tracer.install(rw)
    try:
        result = harness.run_pass(jobs, tracer)
    finally:
        tracer.uninstall()
    return result, tracing.profile_pass(tracer.spans, result.root)


def fingerprint(result):
    """Every deterministic field of a pass's outcomes (records omit runtime_ms)."""
    return json.dumps([(o.ok, o.record, o.points, o.skipped, o.attempted, o.digest)
                       for o in result.outcomes], sort_keys=True)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tracing_changes_no_result(workload):
    jobs = small_jobs(workload)
    plain = harness.run_pass(jobs)
    traced, _ = traced_pass(jobs)
    assert all(o.ok for o in plain.outcomes)
    assert fingerprint(traced) == fingerprint(plain)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_exact_counters_repeat_for_one_seed(workload):
    runs = []
    for _ in range(2):
        jobs = small_jobs(workload)
        result, prof = traced_pass(jobs)
        values = harness.per_layer(jobs, result, prof, 0.0)
        runs.append((harness.counters(prof), {k: values[k] for k in EXACT}))
    assert runs[0] == runs[1]


def test_self_times_add_up_and_wrappers_are_removed():
    originals = (rw.verify.residual_exact, rw.cli.make_family, rw.catalog.base.newton_batch,
                 rw.catalog.profiles.jacobi_sn_cn_dn, rw.linalg.inverse, rw.cli.main)
    result, prof = traced_pass(small_jobs("interactive"))
    total = sum(s["self_s"] for s in prof["layers"].values()) + prof["unattributed_s"]
    assert total == pytest.approx(prof["pass_s"], rel=1e-9, abs=1e-9)
    assert prof["pass_s"] == pytest.approx(result.seconds, rel=0.05)
    assert originals == (rw.verify.residual_exact, rw.cli.make_family,
                         rw.catalog.base.newton_batch, rw.catalog.profiles.jacobi_sn_cn_dn,
                         rw.linalg.inverse, rw.cli.main)


def test_wrappers_sit_where_callers_resolve():
    _, prof = traced_pass(small_jobs("interactive"))
    layers = prof["layers"]
    assert layers["cli"]["calls"] == len(SMALL["interactive"])
    assert layers["catalog.make_family"]["calls"] == len(SMALL["interactive"]) - 1  # no spec for --pair
    assert layers["verify.probe"]["calls"] == 2
    assert layers["verify.residual_exact"]["calls"] == 1
    assert layers["conditions.bilinear"]["calls"] == workloads.CONDITIONS_SAMPLES
    assert layers["elliptic.sn_cn_dn"]["points"] > 0          # snoidal family R2_S1S2S3
    assert layers["catalog.custom_eval"]["calls"] > 0         # R3_E1S2S3_v1
    assert layers["fluid.coefficient_matrices"]["calls"] > 0
    assert prof["probe_evals"] > 0 and prof["newton_profile_points"] > 0


def test_known_defect_job_carries_its_miss_rule():
    defect = next(iter(workloads.KNOWN_DEFECTS))
    jobs = {j.name: j for j in workloads.build(rw, "custom-eval", 0)}
    assert jobs[defect].known_miss is not None
    assert all(j.known_miss is None for name, j in jobs.items() if name != defect)


def miss(worst=6e-4, skipped=24, attempted=1000):
    """An outcome shaped like the known FD-gate miss on 1000 points."""
    return workloads.Outcome(ok=False, record={"max_normalized": worst, "skipped": skipped},
                             skipped=skipped, attempted=attempted)


def test_ledger_keeps_known_defects_visible():
    defect = next(iter(workloads.KNOWN_DEFECTS))
    jobs = [workloads.Job(defect, True, None, known_miss=workloads._known_fd_miss(1000)),
            workloads.Job("a/sample", False, None), workloads.Job("b/exact", True, None)]

    def result(defect_outcome, digest, ok_b):
        outs = [defect_outcome, workloads.Outcome(ok=True, digest=digest),
                workloads.Outcome(ok=ok_b)]
        return harness.PassResult(1.0, outs, [0.1, 0.1, 0.1])

    ledger = harness.Ledger(jobs)
    ledger.add(result(miss(), "d1", True))
    assert (ledger.attempted, ledger.failed, ledger.correct) == (3, 1, True)
    ledger.add(result(miss(), "d1", True))        # counts are per job, not per pass
    assert (ledger.attempted, ledger.failed, ledger.correct) == (3, 1, True)
    assert (ledger.runs, ledger.defects) == (6, {defect: 2})
    ledger.add(result(miss(), "d2", True))        # `sample` bytes changed between passes
    assert (ledger.failed, ledger.correct) == (2, False)
    assert "a/sample" in ledger.unexpected and defect not in ledger.unexpected
    ledger = harness.Ledger(jobs)
    ledger.add(result(miss(), "d1", False))
    assert (ledger.failed, ledger.correct) == (2, False)


@pytest.mark.parametrize("outcome", [
    workloads.Outcome(ok=False, record={"error": "Traceback ... EmptyReportError"}),
    miss(worst=float("nan")),
    miss(worst=float("inf")),
    miss(worst=1e-6),                 # failed, yet under the FD gate
    miss(skipped=900),                # most points skipped
    miss(attempted=10),               # not the job's points
], ids=["raises", "nan", "inf", "under-gate", "skips", "size"])
def test_ledger_flags_other_failures_of_the_defect_job(outcome):
    defect = next(iter(workloads.KNOWN_DEFECTS))
    ledger = harness.Ledger([workloads.Job(defect, True, None,
                                           known_miss=workloads._known_fd_miss(1000))])
    ledger.add(harness.PassResult(1.0, [outcome], [0.1]))
    assert (ledger.failed, ledger.correct) == (1, False)
    assert defect in ledger.unexpected


def test_ledger_flags_a_defect_report_that_changes_between_passes():
    defect = next(iter(workloads.KNOWN_DEFECTS))
    ledger = harness.Ledger([workloads.Job(defect, True, None,
                                           known_miss=workloads._known_fd_miss(1000))])
    ledger.add(harness.PassResult(1.0, [miss()], [0.1]))
    ledger.add(harness.PassResult(1.0, [miss(skipped=25)], [0.1]))
    assert (ledger.failed, ledger.correct) == (1, False)


def test_host_probes_stay_out_of_timings_and_scale_them():
    jobs = [workloads.Job("a/exact", True, lambda: workloads.Outcome(ok=True, points=10)),
            workloads.Job("b/sample", False, lambda: workloads.Outcome(ok=True))]
    slow = 2 * harness.HOST_PROBE_NOMINAL_S      # a host running at half the nominal speed

    def probe():
        time.sleep(0.05)
        return slow

    result = harness.run_pass(jobs, probe=probe)
    assert result.probes == [slow] * 3
    assert result.seconds < 0.05 and max(result.job_seconds) < 0.05
    raw = harness.end_to_end(jobs, [result], [0.2], raw=True)
    norm = harness.end_to_end(jobs, [result], [harness.normalised(0.2, slow, slow)])
    for name in ("setup_s", "pass_s", "request_p50_ms", "request_p90_ms"):
        assert norm[name][0] == pytest.approx(raw[name][0] / 2)
    assert norm["points_per_s"][0] == pytest.approx(raw["points_per_s"][0] * 2)


def test_benchmark_json_names_the_reported_metrics():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(harness.END_TO_END)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == list(harness.PER_LAYER)
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)


def test_runner_refuses_a_checkout_without_the_package(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "interactive",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

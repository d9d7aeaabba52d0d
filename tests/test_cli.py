"""CLI: determinism, exit statuses, round-trips."""

import contextlib
import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riemannwaves import cli, conditions, linalg
from riemannwaves.cli import config_from_family, main, parse_grid, parse_value
from riemannwaves.conditions import (
    bilinear_rank2_condition,
    trace_condition_higher,
    trace_condition_initial,
)
from riemannwaves.verify import residual_fd
from riemannwaves.catalog import REGISTRY_IDS, make_family

from test_catalog import POSITIVE_KEYS
from test_conditions import acoustic_pair_config, kernel_columns


def run(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_list_contains_registry(capsys):
    code, out, _ = run(["list"], capsys)
    assert code == 0
    assert "R2_E1E2" in out and "RK_TIME_A" in out
    code, out, _ = run(["list", "--format", "json"], capsys)
    entries = json.loads(out)
    assert len(entries) >= 13
    ids = [e["id"] for e in entries]
    assert len(ids) == len(set(ids))


def test_sample_deterministic_and_constant_family(tmp_path, capsys):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    args = ["sample", "--family", "R1_S", "--set", "A1=0", "--set", "A2=0",
            "--grid", "t=0:1:2,x1=0:1:2,x2=0:1:2,x3=0:1:2"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    b1, b2 = out1.read_bytes(), out2.read_bytes()
    assert b1 == b2
    lines = b1.decode().strip().splitlines()
    assert len(lines) == 17  # header + 16 rows
    # constant family: all field columns equal across rows
    cells = [ln.split(",") for ln in lines[1:]]
    acol = {c[5] for c in cells}
    assert len(acol) == 1


def test_sample_near_singular_rows_marked(tmp_path):
    out = tmp_path / "s.csv"
    args = ["sample", "--family", "R1_E",
            "--grid", "t=0.9999990:0.9999999:3,x1=-1:-1:1,x2=0:0:1,x3=0:0:1",
            "--out", str(out)]
    assert main(args) == 0
    text = out.read_text()
    assert "near_catastrophe" in text or "invalid" in text


def test_exit_statuses_malformed_matrix(capsys, tmp_path):
    cases = [
        (["verify", "--family", "R2_E1E2", "--grid", "bogus"], 2),          # malformed grid
        (["verify", "--family", "R2_E1E2", "--grid", "q=0:1:2"], 2),        # unknown axis
        (["verify", "--family", "NOPE"], 2),                                # unknown family
        (["sample", "--family", "R1_E", "--set", "oops"], 2),               # malformed --set
        (["verify", "--family", "R2_E1E2", "--set", "e2=1,0,0"], 3),        # angle violated
        (["sample", "--family", "R2_S1S2S3", "--set", "modulus_k=1.3"], 3), # modulus
        (["verify", "--family", "R2_S1S2_MA", "--set", "branch=plus",
          "--grid", "t=-0.5:-0.1:3"], 4),                                   # empty report
        (["sample", "--family", "R1_E", "--set", "nope=3"], 3),             # unknown key
        (["sample", "--family", "R2_S1S2_MA", "--branch", "plus"], 2),      # no --branch flag
        (["sample", "--family", "R2_S1S2_MA", "--set", "branch=bogus"], 3), # unknown sheet
        (["verify", "--family", "R2_S1S2_MA", "--set", "branch=bogus"], 3), # unknown sheet
        (["sample", "--family", "R1_E", "--seed", "1"], 2),                 # --seed: conditions only
    ]
    for args, expected in cases:
        code = main(args)
        capsys.readouterr()
        assert code == expected, (args, code, expected)


@pytest.mark.parametrize("bad", [
    ["--method", "fd", "--h=1"],          # grid closer than the stencils' 4h
    ["--method", "fd", "--h", "0"],
    ["--method", "fd", "--h", "nan"],
    ["--method", "fd", "--h=-1e-4"],
    ["--method", "fd", "--h", "inf"],
    ["--threshold", "nan"],
    ["--threshold=-1"],
    ["--method", "fd", "--threshold", "inf"],
], ids=["h-above-spacing", "h-zero", "h-nan", "h-negative", "h-inf",
        "threshold-nan", "threshold-negative", "threshold-inf"])
def test_verify_rejects_bad_step_and_threshold(bad, capsys):
    code, out, err = run(["verify", "--family", "R1_E", *bad], capsys)
    assert code == 2, err
    assert out == "" and "error" in err and "Traceback" not in err


def _verify_csv_agrees(args, doc, code, capsys):
    """The --format csv report of args holds the JSON report doc's numbers,
    its pass flag, and exits with the same code."""
    code_csv, out, _ = run(args + ["--format", "csv"], capsys)
    lines = out.splitlines()
    assert lines[0] == "equation,max,mean"
    for i, line in enumerate(lines[1:5]):
        eq = doc["residuals"][f"eq{i + 1}"]
        assert line == f"eq{i + 1},{eq['max']:.17g},{eq['mean']:.17g}"
    assert lines[5:] == [f"# pass={doc['pass']} max_normalized={doc['max_normalized']:.17g}"]
    assert code_csv == code


def test_verify_pass_and_fail(tmp_path, capsys):
    args = ["verify", "--family", "R2_E1E2", "--grid", "t=0:0.4:3,x1=-1:1:5,x2=-1:1:5,x3=-1:1:5"]
    code, out, _ = run(args, capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"] is True
    assert set(doc["residuals"]) == {"eq1", "eq2", "eq3", "eq4"}
    _verify_csv_agrees(args, doc, code, capsys)
    # absurdly tight threshold forces a verification failure (exit 1)
    args += ["--method", "fd", "--threshold", "1e-16"]
    code, out, _ = run(args, capsys)
    assert code == 1
    doc = json.loads(out)
    assert doc["pass"] is False
    _verify_csv_agrees(args, doc, code, capsys)


def test_sheet_is_the_reported_parameter(capsys):
    code, out, _ = run(["verify", "--family", "R2_S1S2_MA", "--set", "branch=minus",
                        "--grid", "t=0.5:1.5:3,x1=0.5:1.5:3,x2=-0.5:0.5:3,x3=0:0:1"], capsys)
    assert code == 0
    assert json.loads(out)["params"]["branch"] == "minus"


def test_non_finite_profile_points_write_nothing_to_stderr():
    # n = -1 makes w = r1/r2 blow up at r2 = 0; the point statuses record those
    # points, so numpy must not warn.  The FD gate miss (exit 1) is a known defect.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-m", "riemannwaves.cli", "verify",
                          "--family", "R2_S1S2_MA", "--set", "n=-1", "--method", "fd"],
                         capture_output=True, text=True, env=env)
    assert out.returncode == 1
    assert out.stderr == ""


def test_sample_with_singular_lu_brackets_writes_nothing_to_stderr():
    # n = -2: on the sample grid some brackets reach 1e8 with an exact zero
    # LU pivot behind a closed-form determinant above the floor; those points
    # stop as near_catastrophe instead of raising for the whole batch
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-m", "riemannwaves.cli", "sample",
                          "--family", "R2_S1S2_MA", "--set", "n=-2"],
                         capture_output=True, text=True, env=env)
    assert out.returncode == 0
    assert out.stderr == ""
    rows = [line.split(",") for line in out.stdout.splitlines()[1:]]
    assert len(rows) == 3 * 5 * 5 * 5
    assert "near_catastrophe" in {row[-1] for row in rows}
    assert all("nan" not in row for row in rows if row[-1] == "ok")


def test_sample_with_an_overflowed_invariant_writes_nothing_to_stderr():
    # x3 = -1.7e308 overflows the snoidal argument r2 + n r3; the point ends
    # non-ok instead of raising for the batch
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-m", "riemannwaves.cli", "sample",
                          "--family", "R2_S1S2S3",
                          "--grid", "t=0.5:0.5:1,x1=0:0:1,x2=0:0:1,x3=-1.7e308:-1.7e308:1"],
                         capture_output=True, text=True, env=env)
    assert out.returncode == 0
    assert out.stderr == ""
    (row,) = [line.split(",") for line in out.stdout.splitlines()[1:]]
    assert row[-1] != "ok"


@pytest.mark.parametrize("fid,key", POSITIVE_KEYS)
def test_a_nonpositive_declared_key_exits_3(fid, key, capsys):
    for value in ("0", "-1", "nan"):
        code, _, err = run(["sample", "--family", fid, "--set", f"{key}={value}"], capsys)
        assert code == 3 and f"{key} must be positive" in err, (value, code, err)


def test_conditions_family_and_pair(capsys):
    code, out, _ = run(["conditions", "--family", "R2_E1E2", "--samples", "10"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"] is True
    code, out, _ = run(["conditions", "--family", "R1_E", "--samples", "5"], capsys)
    doc = json.loads(out)
    assert doc["higher_order"] == "identically satisfied"
    # locked pair passes, perturbed pair fails with visible rows
    kappa = 3.0
    c = -1.0 / kappa
    s = np.sqrt(1 - c * c)
    code, out, _ = run(["conditions", "--pair", f"1,0,0;{c},{s},0", "--samples", "5"], capsys)
    assert code == 0 and json.loads(out)["pass"] is True
    phi = np.arccos(c) + 0.1
    code, out, _ = run(["conditions", "--pair",
                        f"1,0,0;{np.cos(phi)},{np.sin(phi)},0", "--samples", "5"], capsys)
    doc = json.loads(out)
    assert code == 1 and doc["pass"] is False
    assert any(not row["pass"] for row in doc["rows"])


def _max_abs(res):
    return float(np.max(np.abs(res))) if res.size else 0.0


def _family_rows_one_by_one(fid, samples, seed):
    """`conditions` rows with each sample's profile jet evaluated on its own
    r[None], in the per-sample draw order."""
    spec = make_family(fid)
    cfg, jet = config_from_family(spec)
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(samples):
        r = rng.uniform(-0.8, 0.8, spec.n_waves)[None, :]
        (u,), (fr,) = jet(r, np.zeros(1))
        if not u[0] > 0:
            continue
        initial = _max_abs(trace_condition_initial(cfg, u, fr))
        higher = _max_abs(trace_condition_higher(cfg, u, fr))
        tol = 1e-10 * (1.0 + np.max(np.abs(u)))
        rows.append({"sample": i, "initial_max": initial, "higher_max": higher,
                     "pass": initial <= tol and higher <= tol})
    return rows


@pytest.mark.parametrize("seed", [3, 289607014])
@pytest.mark.parametrize("fid", REGISTRY_IDS)
def test_conditions_batch_equals_samples_one_by_one(fid, seed, capsys):
    # one profile evaluation per request gives every row bit for bit
    code, out, _ = run(["conditions", "--family", fid, "--seed", str(seed)], capsys)
    doc = json.loads(out)
    expected = _family_rows_one_by_one(fid, 25, seed)
    assert doc["rows"] == expected
    assert code == (0 if expected and all(row["pass"] for row in expected) else 1)


@settings(max_examples=50, derandomize=True, deadline=None, database=None)
@given(preset=st.sampled_from(["quadratic", "nilpotent"]), c1=st.floats(-3.0, 3.0),
       b1=st.floats(0.0, 4.0), a1=st.floats(0.01, 4.0), d1=st.floats(-3.0, 3.0),
       gamma=st.floats(1.0, 3.0, exclude_min=True))
def test_property_rk_time_a_conditions_pass_off_defaults(preset, c1, b1, a1, d1, gamma):
    # explicit time is one more invariant: every row of an exact time-dependent
    # solution passes both orders, wherever its parameters sit
    overrides = [f"profile={preset}", f"C1={c1!r}", f"B1={b1!r}", f"A1={a1!r}",
                 f"D1={d1!r}", f"gamma={gamma!r}"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["conditions", "--family", "RK_TIME_A", *(f"--set={kv}" for kv in overrides)])
    doc = json.loads(out.getvalue())
    assert doc["rows"] and all(row["pass"] for row in doc["rows"]), overrides
    assert code == 0


def test_conditions_pair_equals_samples_one_by_one(capsys):
    e1, e2 = np.array([1.0, 0.0, 0.0]), np.array([-0.6, 0.8, 0.0])
    cfg, fr = acoustic_pair_config(e1, e2), kernel_columns(e1, e2)
    rng = np.random.default_rng(5)
    expected = []
    for i in range(25):
        u = np.concatenate([[rng.uniform(0.5, 2.0)], rng.normal(0, 0.5, 3)])
        rng.uniform(-0.8, 0.8, 2)
        res = [trace_condition_initial(cfg, u, fr), trace_condition_higher(cfg, u, fr),
               bilinear_rank2_condition(cfg, u)]
        worst = [_max_abs(x) for x in res]
        tol = 1e-10 * (1.0 + np.max(np.abs(u)))
        expected.append({"sample": i, "initial_max": worst[0], "higher_max": worst[1],
                         "bilinear_max": worst[2], "pass": all(w <= tol for w in worst)})
    _, out, _ = run(["conditions", "--pair=1,0,0;-0.6,0.8,0", "--seed", "5"], capsys)
    assert json.loads(out)["rows"] == expected


def test_conditions_nan_higher_residual_fails_its_row(monkeypatch, capsys):
    # a NaN covector derivative makes every higher residual NaN: no row may pass
    def nan_jac_family(fid, params):
        spec = make_family(fid, params)
        spec.waves_jac = lambda u: np.full((len(u), spec.n_waves, 4, 4), np.nan)
        return spec

    monkeypatch.setattr(cli, "make_family", nan_jac_family)
    code, out, _ = run(["conditions", "--family", "R2_S1S2S3", "--samples", "5"], capsys)
    doc = json.loads(out)
    assert code == 1 and doc["rows"]
    assert not any(row["pass"] for row in doc["rows"])
    assert all(np.isnan(row["higher_max"]) for row in doc["rows"])


@pytest.mark.parametrize("fid, waves, reason", [
    ("R2_E1E2", np.nan, "wave covectors are not finite"),
    ("R1_E", np.inf, "wave covectors are not finite"),
    ("R2_E1E2", 0.0, "wave covectors have no invertible pivot block"),
])
def test_conditions_degenerate_covectors_fail_their_rows(fid, waves, reason, monkeypatch,
                                                          capsys):
    # a sample without usable covectors is a failing row with its reason, and
    # the request still prints its JSON and exits 1
    def patched_family(fid, params):
        spec = make_family(fid, params)
        spec.waves = lambda u: np.full((len(u), spec.n_waves, 4), waves)
        return spec

    monkeypatch.setattr(cli, "make_family", patched_family)
    code, out, _ = run(["conditions", "--family", fid, "--samples", "3"], capsys)
    doc = json.loads(out)
    assert code == 1 and doc["rows"] and not doc["pass"]
    assert all(row == {"sample": row["sample"], "reason": reason, "pass": False}
               for row in doc["rows"])


def test_conditions_nan_bilinear_residual_fails_its_row(monkeypatch, capsys):
    monkeypatch.setattr(cli, "bilinear_rank2_condition", lambda cfg, u: np.full((4, 3), np.nan))
    code, out, _ = run(["conditions", "--pair=1,0,0;-0.333333333333333,0.942809041582063,0",
                        "--samples", "5"], capsys)
    doc = json.loads(out)
    assert code == 1 and doc["rows"]
    assert not any(row["pass"] for row in doc["rows"])


@pytest.mark.parametrize("argv", [["--family", "R3_E1E2E3"], ["--pair=1,0,0;-0.6,0.8,0"]])
def test_conditions_normalizes_once_per_sample(argv, monkeypatch, capsys):
    # every higher order comes from one normalization at the sample's state,
    # and the pivot choice takes no per-block determinant
    calls = {"_normalize": 0, "determinant": 0}

    def counted(module, name):
        fn = getattr(module, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        monkeypatch.setattr(module, name, wrapper)

    counted(conditions, "_normalize")
    counted(linalg, "determinant")
    _, out, _ = run(["conditions", *argv, "--samples", "12"], capsys)
    doc = json.loads(out)
    assert doc["samples"] > 0
    assert calls == {"_normalize": doc["samples"], "determinant": 0}


def test_catastrophe_command(capsys):
    code, out, _ = run(["catastrophe", "--family", "R1_E"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["applicable"] is True
    entry = doc["times"][0]
    assert abs(entry["formula"] - 1.0) <= 1e-12
    assert entry["rel_gap"] <= 0.01
    # bounded family: informational success with an empty table
    code, out, _ = run(["catastrophe", "--family", "R1_S"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["applicable"] is False and doc["times"] == []
    assert doc["note"] == "no positive singular time; bounded family"
    # catastrophes at t <= 0 only: not a bounded family
    for fid, sets in (("R2_S1S2_MA", []), ("R1_E", ["--set", "epsilon=-1"]),
                      ("R1_E", ["--set", "profile=expkink"])):
        code, out, _ = run(["catastrophe", "--family", fid, *sets], capsys)
        doc = json.loads(out)
        assert code == 0 and doc["applicable"] is False and doc["times"], fid
        assert all(e["formula"] <= 0 for e in doc["times"]), fid
        assert doc["note"] == "no positive singular time; catastrophe at t <= 0", fid
    # negative times flagged as outside the default window
    code, out, _ = run(["catastrophe", "--family", "R3_E1E2E3",
                        "--set", "profile=expkink"], capsys)
    doc = json.loads(out)
    assert all("outside default window" in e.get("note", "") for e in doc["times"])


def test_csv_round_trip_fd_residual(tmp_path, capsys):
    # parse a sampled CSV, differentiate the fields on the grid stencil, and
    # compare with the verifier's fd path at the same step
    spacing = 0.01
    n = 5
    fam = "R2_S1S2_ADD"
    grid_arg = (f"t=0.2:{0.2 + spacing * (n - 1)}:{n},"
                f"x1=0:{spacing * (n - 1)}:{n},x2=0:{spacing * (n - 1)}:{n},"
                f"x3=0:{spacing * (n - 1)}:{n}")
    out = tmp_path / "fields.csv"
    assert main(["sample", "--family", fam, "--grid", grid_arg, "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    header = lines[0].split(",")
    data = np.array([[float(v) for v in ln.split(",")[:-1]] for ln in lines[1:]])
    fields = data[:, header.index("a"):header.index("a") + 4].reshape(n, n, n, n, 4)

    # central differences on interior points of the parsed lattice
    interior = fields[1:-1, 1:-1, 1:-1, 1:-1]
    grads = np.stack([(np.roll(fields, -1, axis=ax) - np.roll(fields, 1, axis=ax))[1:-1, 1:-1, 1:-1, 1:-1] / (2 * spacing)
                      for ax in range(4)], axis=-1)
    from riemannwaves.verify import pde_residual
    spec = make_family(fam)
    res_csv = pde_residual(interior.reshape(-1, 4), grads.reshape(-1, 4, 4), spec.gas.kappa)
    max_csv = np.max(np.abs(res_csv))

    rep = residual_fd(spec, points=(data[:, 0].reshape(n, n, n, n)[1:-1, 1:-1, 1:-1, 1:-1].ravel(),
                                    data[:, 1:4].reshape(n, n, n, n, 3)[1:-1, 1:-1, 1:-1, 1:-1].reshape(-1, 3)),
                      h=spacing)
    # same stencil step: both routes see the same truncation error scale
    assert abs(max_csv - rep.max_residual) <= 5e-2 * max(max_csv, rep.max_residual) + 1e-12


def test_parse_helpers():
    axes = parse_grid("t=0:1:3,x1=-1:1:5")
    assert axes["t"] == (0.0, 1.0, 3) and axes["x1"] == (-1.0, 1.0, 5)
    assert parse_value("2.5") == 2.5
    assert parse_value("3") == 3
    assert parse_value("1,0,0") == (1.0, 0.0, 0.0)
    assert parse_value("soliton") == "soliton"


def test_config_file_precedence(tmp_path, capsys):
    cfg = tmp_path / "params.cfg"
    cfg.write_text("A1 = 0.5\n# comment\nB1 = 2.0\n")
    code, out, _ = run(["sample", "--family", "R1_E", "--config", str(cfg),
                        "--set", "A1=0.125", "--format", "json",
                        "--grid", "t=0:0:1,x1=-1:-1:1,x2=0:0:1,x3=0:0:1"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["params"]["A1"] == 0.125  # flag beats config file
    assert doc["params"]["B1"] == 2.0    # config beats registry default


@pytest.mark.parametrize("key", ["A1", "epsilon"])
@pytest.mark.parametrize("text", ['{{"{key}": true}}', "{key} = true\n"], ids=["json", "key-value"])
def test_config_file_boolean_for_a_numeric_key_exits_3(tmp_path, capsys, key, text):
    # a JSON true is a bool, which Python counts as an int: it is still no number
    cfg = tmp_path / "params.cfg"
    cfg.write_text(text.format(key=key))
    code, out, err = run(["sample", "--family", "R1_E", "--config", str(cfg),
                          "--grid", "t=0:0:1,x1=-1:-1:1,x2=0:0:1,x3=0:0:1"], capsys)
    assert code == 3 and f"{key} must be a number" in err and out == ""


def test_sample_prints_every_non_finite_cell_as_nan(monkeypatch, tmp_path):
    # NaN, +inf and -inf in r, the state and cond_det all print as nan; the
    # other rows keep their bytes
    args = ["sample", "--family", "R2_E1E2", "--grid", "t=0:0.2:2,x1=-1:1:2,x2=0:0:1,x3=0:0:1"]
    assert main([*args, "--out", str(tmp_path / "plain.csv")]) == 0
    spec = make_family("R2_E1E2", {})
    evaluate = spec.evaluate_batch

    def patched(*a, **kw):
        res = evaluate(*a, **kw)
        res.r[1] = [np.nan, np.inf]
        res.state[1] = [-np.inf, np.nan, np.inf, -np.inf]
        res.cond_det[1] = np.inf
        return res

    spec.evaluate_batch = patched
    monkeypatch.setattr(cli, "make_family", lambda *_: spec)
    assert main([*args, "--out", str(tmp_path / "patched.csv")]) == 0
    plain = (tmp_path / "plain.csv").read_text().splitlines()
    patched_lines = (tmp_path / "patched.csv").read_text().splitlines()
    assert patched_lines[2].split(",")[4:-1] == ["nan"] * 7
    assert patched_lines[:2] + patched_lines[3:] == plain[:2] + plain[3:]
    assert patched_lines[2].split(",")[:4] == plain[2].split(",")[:4]

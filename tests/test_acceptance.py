"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to stream the per-criterion
lines.  Tolerances are pinned here; nothing is deferred to calibration.
"""

import numpy as np
import pytest

from riemannwaves import linalg
from riemannwaves.catalog import REGISTRY_IDS, ConstraintError, make_family
from riemannwaves.catalog.base import PotentialWave, RotationalWave
from riemannwaves.cli import config_from_family, main as cli_main
from riemannwaves.conditions import (
    bilinear_rank2_condition,
    trace_condition_higher,
    trace_condition_initial,
)
from riemannwaves.elliptic import jacobi_sn_cn_dn
from riemannwaves.fluid import (
    GasParams,
    dispersion_det,
    dispersion_matrix,
    wave_kernel,
)
from riemannwaves.solver import bracket_det
from riemannwaves.verify import GridSpec, catastrophe_probe, residual_exact, residual_fd

from oracles import (
    cayley_hamilton_residual,
    faddeev_coeffs,
    homogeneous_stream,
    monge_ampere_residual,
    potential_wave,
    rotational_wave,
)
from test_catalog import family_stream, stream_profile_gap
from test_conditions import acoustic_pair_config, locked_pair, perturbed_pair
from test_elliptic import ORACLE_CN_1_05, ORACLE_DN_1_05, ORACLE_SN_1_05
from test_linalg import charpoly_cofactor

GAS = GasParams()


def report(num, ok, text):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {text}")
    assert ok, f"criterion {num}: {text}"


def random_state(rng):
    return np.concatenate([[rng.uniform(0.3, 2.5)], rng.normal(0.0, 1.0, 3)])


def catalog_covectors(st, e, epsilon, m):
    """The covector rows the families run (catalog.base) for the waves of the
    reference forms potential_wave(st, e, epsilon) and rotational_wave(st, e, m)."""
    u = st[None]
    return (PotentialWave(e=e, epsilon=epsilon).lam(u)[0],
            RotationalWave(lsp=-np.cross(e, m)).lam(u)[0])


def covector_gap(refs, lives):
    """max |live - reference| relative to 1 + max |reference| over covector rows."""
    return max(float(np.max(np.abs(live - ref))) / (1.0 + float(np.max(np.abs(ref))))
               for ref, live in zip(refs, lives))


def test_criterion_01_dispersion_consistency():
    rng = np.random.default_rng(101)
    worst_root, worst_rel, worst_live = 0.0, 0.0, 0.0
    for _ in range(500):
        st = random_state(rng)
        e = rng.normal(size=3)
        e /= np.linalg.norm(e)
        eps = 1 if rng.uniform() < 0.5 else -1
        m = rng.normal(size=3)
        refs = (potential_wave(st, e, eps), rotational_wave(st, e, m))
        lives = catalog_covectors(st, e, eps, m)
        worst_live = max(worst_live, covector_gap(refs, lives))
        for wv in refs + lives:
            mat = dispersion_matrix(st, wv, GAS)
            scale = (1.0 + float(np.max(np.abs(mat)))) ** 4
            det = linalg.determinant(mat)
            worst_root = max(worst_root, abs(det) / (1.0 + scale))
            fact = dispersion_det(st, wv)
            worst_rel = max(worst_rel, abs(fact - det) / (1.0 + abs(fact) + abs(det)))
        # generic (non-root) covector: factorized form against the determinant
        wv = np.concatenate([[rng.normal(0, 2)], rng.normal(size=3)])
        fact = dispersion_det(st, wv)
        det = linalg.determinant(dispersion_matrix(st, wv, GAS))
        worst_rel = max(worst_rel, abs(fact - det) / (1.0 + abs(fact) + abs(det)))
    report(1, worst_root <= 1e-12 and worst_rel <= 1e-10 and worst_live <= 1e-15,
           f"dispersion roots vanish ({worst_root:.2e}), factorized = det ({worst_rel:.2e}), "
           f"catalog covectors = reference form ({worst_live:.1e})")


def test_criterion_02_kernel_multiplicities():
    rng = np.random.default_rng(102)
    ok = True
    worst, worst_live = 0.0, 0.0
    for _ in range(200):
        st = random_state(rng)
        e = rng.normal(size=3)
        e /= np.linalg.norm(e)
        m = rng.normal(size=3)
        refs = (potential_wave(st, e, 1), rotational_wave(st, e, m))
        lives = catalog_covectors(st, e, 1, m)
        worst_live = max(worst_live, covector_gap(refs, lives))
        for wv, dim in zip(refs + lives, (1, 2, 1, 2)):
            kern = wave_kernel(st, wv, GAS)
            ok &= kern.shape[1] == dim
            worst = max(worst, float(np.max(np.abs(dispersion_matrix(st, wv, GAS) @ kern))))
    report(2, ok and worst <= 1e-10 and worst_live <= 1e-15,
           f"potential kernels 1-dim, rotational 2-dim, residual {worst:.2e}; "
           f"catalog covectors = reference form ({worst_live:.1e})")


def test_criterion_03_faddeev_oracle():
    # the package's determinants (linalg's elimination; the solver's closed
    # form, k <= 3) against the oracle's det(m) = (-1)^(n+1) p_n
    rng = np.random.default_rng(103)
    worst_rel, worst_ch, worst_det = 0.0, 0.0, 0.0
    for n in (2, 3, 4, 5):
        for _ in range(200):
            m = rng.normal(size=(n, n))
            p = faddeev_coeffs(m)
            p_oracle = charpoly_cofactor(m)
            worst_rel = max(worst_rel, float(np.max(np.abs(p - p_oracle) /
                                                    np.maximum(np.abs(p_oracle), 1.0))))
            bound = 1e-9 * (1.0 + float(np.max(np.abs(m))) ** n)
            worst_ch = max(worst_ch, cayley_hamilton_residual(m) / bound)
            det = (-1.0) ** (n + 1) * p[-1]
            dets = [linalg.determinant(m)] + ([bracket_det(m[None])[0]] if n <= 3 else [])
            worst_det = max([worst_det] + [abs(d - det) / max(abs(det), 1.0) for d in dets])
    report(3, worst_rel <= 1e-10 and worst_ch <= 1.0 and worst_det <= 1e-10,
           f"Faddeev vs cofactor oracle rel {worst_rel:.2e}, CH within bound x{worst_ch:.2f}, "
           f"package determinants rel {worst_det:.2e}")


def test_criterion_04_angle_condition():
    spec2 = make_family("R2_E1E2")
    spec3 = make_family("R3_E1E2E3")
    gamma = spec2.gas.gamma
    target = (1.0 - gamma) / 2.0
    worst = abs(np.asarray(spec2.params["e1"]) @ np.asarray(spec2.params["e2"]) - target)
    for i in range(3):
        for j in range(i + 1, 3):
            ei = np.asarray(spec3.params[f"e{i+1}"])
            ej = np.asarray(spec3.params[f"e{j+1}"])
            worst = max(worst, abs(ei @ ej - target))
    rejected = False
    try:
        make_family("R2_E1E2", e2=(1.0, 0.0, 0.0))
    except ConstraintError:
        rejected = True
    try:
        make_family("R3_E1E2E3", e3=(0.0, 0.0, 1.0))
        rejected3 = False
    except ConstraintError:
        rejected3 = True
    report(4, worst <= 1e-12 and abs(target + 1.0 / 3.0) <= 1e-12 and rejected and rejected3,
           f"locked cosine (1-gamma)/2 = -1/3 realized to {worst:.2e}; violations rejected")


def test_criterion_05_pde_residuals_all_families():
    rows = []
    ok = True
    # every family at its defaults, and the acoustic families' exp-kink preset
    cases = [(fid, {}) for fid in REGISTRY_IDS] + [
        (fid, {"profile": "expkink"}) for fid in ("R1_E", "R2_E1E2", "R3_E1E2E3")]
    for fid, params in cases:
        spec = make_family(fid, **params)
        grid = GridSpec.from_window(spec.default_grid_window(), counts=(5, 11, 11, 11))
        rex = residual_exact(spec, grid=grid)
        rfd = residual_fd(spec, grid=grid, h=1e-4)
        entry_ok = rex.max_normalized <= 1e-8 and rfd.max_normalized <= 1e-5
        order = None
        if rfd.max_residual > 1e-9:  # above the rounding floor: order measurable
            small = GridSpec.from_window(spec.default_grid_window(), counts=(3, 5, 5, 5))
            r1 = residual_fd(spec, grid=small, h=1e-4)
            r2 = residual_fd(spec, grid=small, h=5e-5)
            order = float(np.log2(r1.max_residual / r2.max_residual))
            entry_ok &= 1.7 <= order <= 2.3
        ok &= entry_ok
        rows.append(f"{fid}{params or ''}: exact {rex.max_normalized:.1e}, fd {rfd.max_normalized:.1e}"
                    + (f", order {order:.2f}" if order is not None else ", order n/a"))
    report(5, ok, "PDE residuals within 1e-8 (exact) / 1e-5 (fd), order in [1.7, 2.3] | "
           + "; ".join(rows))


def test_criterion_06_rank_verification():
    rng = np.random.default_rng(106)
    ok = True
    fractions = []
    for fid in REGISTRY_IDS:
        spec = make_family(fid)
        win = spec.default_grid_window()
        lo, hi = win["t"]
        t = rng.uniform(lo + 0.02 * (hi - lo), hi, 1400)
        x = np.column_stack([rng.uniform(*win[f"x{i}"], 1400) for i in (1, 2, 3)])
        res = spec.evaluate_batch(t, x)
        good = res.status == 0
        idx = np.nonzero(good)[0][:1000]
        assert len(idx) >= 600, fid
        ranks = np.linalg.matrix_rank(res.jac[idx], rtol=1e-8)
        frac = float(np.mean(ranks == spec.rank))
        fractions.append(f"{fid}:{frac:.3f}")
        ok &= frac >= 0.95
    report(6, ok, "declared rank realized at >= 95% of seeded points | " + "; ".join(fractions))


def test_criterion_07_trace_conditions():
    rng = np.random.default_rng(107)
    ok = True
    worst_all = 0.0
    for fid in REGISTRY_IDS:
        spec = make_family(fid)
        cfg, jet = config_from_family(spec)
        # the first 100 of up to 400 draws with a finite state and a > 0;
        # one profile jet takes them all (one chart for R3_E1S2S3_v2), and
        # each row holds the bits of the row evaluated alone
        stream = rng.bit_generator.state
        r = rng.uniform(-0.8, 0.8, (400, spec.n_waves))
        states, jacs = jet(r, np.zeros(len(r)))
        kept = np.flatnonzero(np.isfinite(states).all(axis=1) & (states[:, 0] > 0))[:100]
        # the stream moves on past the draws a one-by-one loop would have made
        rng.bit_generator.state = stream
        rng.uniform(-0.8, 0.8, (kept[-1] + 1 if len(kept) == 100 else len(r), spec.n_waves))
        for u, fr in zip(states[kept], jacs[kept]):
            scale = 1.0 + float(np.max(np.abs(u)))
            res = np.vstack([trace_condition_initial(cfg, u, fr),
                             trace_condition_higher(cfg, u, fr)])
            worst_all = max(worst_all, float(np.max(np.abs(res))) / scale)
            ok &= bool(np.all(np.abs(res) <= 1e-10 * scale))  # a NaN fails
        ok &= len(kept) == 100
    # bilinear pair check
    good_cfg = acoustic_pair_config(*locked_pair())
    bad_cfg = acoustic_pair_config(*perturbed_pair(0.1))
    good_worst, bad_worst = 0.0, 0.0
    for _ in range(100):
        u = np.concatenate([[rng.uniform(0.5, 2.0)], rng.normal(0, 0.6, 3)])
        good_worst = max(good_worst, float(np.max(np.abs(bilinear_rank2_condition(good_cfg, u)))))
        bad_worst = max(bad_worst, float(np.max(np.abs(bilinear_rank2_condition(bad_cfg, u)))))
    ok &= good_worst <= 1e-10 and bad_worst > 1e-3
    report(7, ok, f"trace residuals <= 1e-10*scale on all families (worst {worst_all:.2e}); "
           f"bilinear locked {good_worst:.2e}, perturbed {bad_worst:.2e}")


def test_criterion_08_catastrophe_times():
    targets = [
        ("R1_E", {}),
        ("R2_E1E2", {}),
        ("R2_E1S2", dict(profile="soliton", A1=1.0, B1=1.0)),
        ("R2_E1E2S3", {}),
        ("R2_E1S2S3", {}),
    ]
    ok = True
    gaps = []
    for fid, ov in targets:
        spec = make_family(fid, **ov)
        rep = catastrophe_probe(spec)
        ok &= rep.applicable and rep.rel_gap <= 0.01
        finite = np.isfinite(rep.jac_norms)
        ok &= bool(np.max(rep.jac_norms[finite]) > 1e3)
        gaps.append(f"{fid}:{rep.rel_gap:.1e}")
    # bounded families: fields bounded by twice the initial max while the
    # derivative norms are free to blow up
    bounded = [
        ("R1_S", {}, 3.0),
        ("R2_E1E2", dict(profile="kink"), None),
        ("R3_E1E2E3", dict(profile="kink"), None),
        ("R2_S1S2_ADD", {}, 3.0),
        ("R2_S1S2S3", {}, 3.0),
        ("R2_E1S2", dict(profile="soliton", A1=1.0, B1=1.0), None),
    ]
    rng = np.random.default_rng(108)
    for fid, ov, horizon in bounded:
        spec = make_family(fid, **ov)
        tpos = [v for v in spec.singular_times() if v > 0]
        tmax = 3.0 * min(tpos) if (horizon is None and tpos) else (horizon or 3.0)
        x = rng.uniform(-3, 3, (300, 3))
        res0 = spec.evaluate_batch(np.zeros(300), x)
        keep0 = res0.status == 0
        m0 = float(np.max(np.abs(res0.state[keep0])))
        worst_ratio = 0.0
        for tv in np.linspace(0.1 * tmax, tmax, 7):
            res = spec.evaluate_batch(np.full(300, tv), x, ignore_validity=True)
            keep = res.status == 0
            if keep.any():
                worst_ratio = max(worst_ratio, float(np.max(np.abs(res.state[keep]))) / m0)
        ok &= worst_ratio <= 2.0
        gaps.append(f"{fid}(bounded):x{worst_ratio:.2f}")
    report(8, ok, "blow-up within 1%, norms exceed 1e3; bounded fields <= 2x initial | "
           + "; ".join(gaps))


def test_criterion_09_time_only_structure():
    rng = np.random.default_rng(109)
    spec = make_family("RK_TIME_A")
    b1, c1, a1 = spec.params["B1"], spec.params["C1"], spec.params["A1"]
    # measure Df by finite differences of the registered velocity profile
    worst_tr, worst_det = 0.0, 0.0
    h = 1e-6
    for _ in range(1000):
        r = rng.uniform(-2, 2, 2)
        df = np.empty((2, 2))
        for j in range(2):
            rp, rm = r.copy(), r.copy()
            rp[j] += h
            rm[j] -= h
            up = spec.profile(rp[None, :], np.zeros(1))[0][0, 1:3]
            um = spec.profile(rm[None, :], np.zeros(1))[0][0, 1:3]
            df[:, j] = (up - um) / (2 * h)
        worst_tr = max(worst_tr, abs(np.trace(df) - 2 * c1))
        worst_det = max(worst_det, abs(np.linalg.det(df) - (b1 + c1**2)))
    t = np.linspace(0, 2, 101)
    a_expected = a1 * ((1 + c1 * t) ** 2 + b1 * t**2) ** (-1.0 / spec.gas.kappa)
    res = spec.evaluate_batch(t, np.zeros((101, 3)))
    worst_a = float(np.max(np.abs(res.state[:, 0] - a_expected)))
    nil = make_family("RK_TIME_A", profile="nilpotent")
    resn = nil.evaluate_batch(t, np.zeros((101, 3)))
    worst_nil = float(np.max(np.abs(resn.state[:, 0] - nil.params["A1"])))
    ok = worst_tr <= 1e-8 and worst_det <= 1e-8 and worst_a <= 1e-12 and worst_nil <= 1e-12
    report(9, ok, f"tr(Df)=2C1 ({worst_tr:.1e}), det(Df)=B1+C1^2 ({worst_det:.1e}), "
           f"a(t) law {worst_a:.1e}, nilpotent flat {worst_nil:.1e}")


def test_criterion_10_elliptic_functions():
    rng = np.random.default_rng(110)
    worst_id = 0.0
    for _ in range(1000):
        u = float(rng.uniform(-10, 10))
        k = float(np.sqrt(rng.uniform(0.0, 1.0)))
        sn, cn, dn = jacobi_sn_cn_dn(u, k)
        worst_id = max(worst_id, abs(sn**2 + cn**2 - 1), abs(dn**2 + (k * sn) ** 2 - 1))
    u = np.linspace(-5, 5, 64)
    sn0, cn0, dn0 = jacobi_sn_cn_dn(u, 0.0)
    worst_deg = max(np.max(np.abs(sn0 - np.sin(u))), np.max(np.abs(cn0 - np.cos(u))),
                    np.max(np.abs(dn0 - 1.0)))
    sn1, cn1, dn1 = jacobi_sn_cn_dn(u, 1.0)
    worst_deg = max(worst_deg, np.max(np.abs(sn1 - np.tanh(u))),
                    np.max(np.abs(cn1 - 1 / np.cosh(u))), np.max(np.abs(dn1 - 1 / np.cosh(u))))
    sn, cn, dn = jacobi_sn_cn_dn(1.0, 0.5)
    worst_val = max(abs(sn - ORACLE_SN_1_05), abs(cn - ORACLE_CN_1_05), abs(dn - ORACLE_DN_1_05))
    ok = worst_id <= 1e-12 and worst_deg <= 1e-12 and worst_val <= 1e-12
    report(10, ok, f"identities {worst_id:.1e}, degenerate limits {worst_deg:.1e}, "
           f"AGM-oracle value {worst_val:.1e}")


def test_criterion_11_monge_ampere():
    rng = np.random.default_rng(111)
    ma = make_family("R2_S1S2_MA")
    pts_pos = np.column_stack([rng.uniform(0.5, 2.5, 300), rng.uniform(0.5, 2.5, 300)])
    res_stream = monge_ampere_residual(*family_stream(ma), pts_pos)
    psi = homogeneous_stream(np.cos, lambda w: -np.sin(w), lambda w: -np.cos(w))
    res_homog = monge_ampere_residual(psi, 0.0, pts_pos)
    rk = make_family("RK_TIME_A")
    pts = rng.uniform(-2, 2, (300, 2))
    res_rk = monge_ampere_residual(*family_stream(rk), pts)
    # the streams are the families' own: their gradients give the velocity profiles
    gap = max(stream_profile_gap(ma, pts_pos), stream_profile_gap(rk, pts))
    ok = res_stream <= 1e-8 and res_homog <= 1e-8 and res_rk <= 1e-8 and gap <= 1e-13
    report(11, ok, f"stream functions: power-law {res_stream:.1e}, homogeneous {res_homog:.1e}, "
           f"time-only profile {res_rk:.1e}; stream = profile to {gap:.1e}")


def test_criterion_12_cli_determinism_and_exit_codes(tmp_path, capsys):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["sample", "--family", "R2_E1E2",
            "--grid", "t=0:0.3:3,x1=-1:-0.2:4,x2=-0.5:0.5:3,x3=0:0:1"]
    assert cli_main(args + ["--out", str(out1)]) == 0
    assert cli_main(args + ["--out", str(out2)]) == 0
    identical = out1.read_bytes() == out2.read_bytes()
    cases = [
        (["verify", "--family", "R2_E1E2", "--grid", "nonsense"], 2),
        (["verify", "--family", "R2_E1E2", "--grid", "zz=0:1:2"], 2),
        (["verify", "--family", "NOT_THERE"], 2),
        (["sample", "--family", "R1_E", "--set", "broken"], 2),
        (["verify", "--family", "R2_E1E2", "--set", "e2=1,0,0"], 3),
        (["sample", "--family", "R2_S1S2S3", "--set", "modulus_k=1.4"], 3),
        (["sample", "--family", "R1_E", "--set", "bogus_key=1"], 3),
        (["verify", "--family", "R2_S1S2_MA", "--set", "branch=plus", "--grid", "t=-1:-0.5:3"], 4),
        (["verify", "--family", "R1_E", "--set", "gamma=abc"], 3),
        (["verify", "--family", "R1_E", "--set", "gamma=1"], 3),
        (["verify", "--family", "R1_E", "--set", "A1=abc"], 3),
        (["verify", "--family", "R1_E", "--set", "e1=1,0"], 3),
        (["sample", "--family", "R2_S1S2_MA", "--set", "n=abc"], 3),
        (["sample", "--family", "R1_E", "--grid", "t=0:1:1"], 2),
        (["sample", "--family", "R1_E", "--grid", "t=nan:1:3"], 2),
        (["verify", "--family", "R1_E", "--config", str(tmp_path / "missing.cfg")], 2),
        # preset constraints, --pair through the same rules, integer n, no samples
        (["sample", "--family", "R1_E", "--set", "profile=kink", "--set", "B1=-1"], 3),
        (["sample", "--family", "R2_S1S2_ADD", "--set", "B1=0"], 3),
        (["sample", "--family", "R2_S1S2S3", "--set", "B1=-1"], 3),
        (["verify", "--family", "R3_E1S2S3_v1", "--set", "profile=concentric",
          "--set", "B2=0"], 3),
        (["sample", "--family", "R2_E1S2", "--set", "profile=soliton", "--set", "B2=-1"], 3),
        (["conditions", "--pair", "1,0,0;0,1,0", "--set", "gamma=abc"], 3),
        (["conditions", "--pair", "1,0,0;0,1,0", "--set", "gamma=1"], 3),
        (["conditions", "--pair", "1,0,0;0,1,0", "--set", "A1=2"], 3),
        (["conditions", "--pair", "0,0,0;1,0,0"], 3),
        (["conditions", "--pair", "a,b,c;1,0,0"], 2),
        (["sample", "--family", "R2_S1S2_MA", "--set", "n=2.5"], 3),
        (["conditions", "--family", "R1_E", "--samples", "0"], 2),
    ]
    codes_ok = True
    for args_i, expected in cases:
        code = cli_main(args_i)
        capsys.readouterr()
        codes_ok &= code == expected
    # pass/fail exits on the verify path
    ok_exit = cli_main(["verify", "--family", "R2_E1E2",
                        "--grid", "t=0:0.4:3,x1=-1:1:5,x2=-1:1:5,x3=-1:1:5"])
    capsys.readouterr()
    fail_exit = cli_main(["verify", "--family", "R2_E1E2", "--method", "fd",
                          "--grid", "t=0:0.4:3,x1=-1:1:5,x2=-1:1:5,x3=-1:1:5",
                          "--threshold", "1e-16"])
    capsys.readouterr()
    ok = identical and codes_ok and ok_exit == 0 and fail_exit == 1
    report(12, ok, f"byte-identical CSV ({identical}); {len(cases)} malformed cases "
           f"hit documented exit codes ({codes_ok}); verify exits 0/1")

"""Batch front end: list families, sample fields, verify residuals, probe blow-up.

Exit codes: 0 pass, 1 verification failure, 2 usage error, 3 family
constraint violation, 4 empty report (every point skipped).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys

import numpy as np

from .catalog import (
    ConstraintError,
    REGISTRY_IDS,
    STATUS_LABELS,
    make_family,
    registry_entries,
)
from .conditions import (
    AnsatzConfig,
    DegenerateSampleError,
    bilinear_rank2_condition,
    trace_condition_higher,
    trace_condition_initial,
)
from .fluid import GasParams
from .verify import (
    DEFAULT_H,
    EmptyReportError,
    GridSpec,
    catastrophe_probe,
    residual_exact,
    residual_fd,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_CONSTRAINT = 3
EXIT_EMPTY = 4

_GRID_AXES = ("t", "x1", "x2", "x3")


class UsageError(ValueError):
    pass


def _spacing(text: str) -> float:
    """--h: a finite step above 0."""
    v = float(text)
    if not (np.isfinite(v) and v > 0.0):
        raise argparse.ArgumentTypeError(f"needs a finite number > 0, got {text!r}")
    return v


def _threshold(text: str) -> float:
    """--threshold: a finite bound of at least 0."""
    v = float(text)
    if not (np.isfinite(v) and v >= 0.0):
        raise argparse.ArgumentTypeError(f"needs a finite number >= 0, got {text!r}")
    return v


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def parse_grid(text: str) -> dict:
    """Parse "t=a:b:n,x1=a:b:n,..."; unknown axis names are rejected."""
    axes = {}
    for part in text.split(","):
        if "=" not in part:
            raise UsageError(f"bad grid component {part!r} (expected axis=start:stop:count)")
        name, rng = part.split("=", 1)
        name = name.strip()
        if name not in _GRID_AXES:
            raise UsageError(f"unknown grid axis {name!r} (use {', '.join(_GRID_AXES)})")
        pieces = rng.split(":")
        if len(pieces) != 3:
            raise UsageError(f"bad grid range {rng!r} (expected start:stop:count)")
        try:
            lo, hi, n = float(pieces[0]), float(pieces[1]), int(pieces[2])
        except ValueError as exc:
            raise UsageError(f"bad grid range {rng!r}: {exc}") from None
        axes[name] = (lo, hi, n)
    return axes


def parse_value(text: str):
    """Scalar, comma-separated vector, or string parameter value."""
    if "," in text:
        try:
            return tuple(float(p) for p in text.split(","))
        except ValueError:
            raise UsageError(f"bad vector value {text!r}") from None
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    return text


def load_config_file(path: str) -> dict:
    """Flat key-value document: JSON object or 'key = value' lines."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read config file {path!r}: {exc}") from None
    try:
        data = json.loads(text)
        if not isinstance(data, dict):
            raise UsageError("config file must hold a flat object")
        return data
    except json.JSONDecodeError:
        pass
    out = {}
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"bad config line {line!r}")
        key, val = line.split("=", 1)
        out[key.strip()] = parse_value(val.strip())
    return out


def gather_params(args) -> dict:
    params = {}
    if getattr(args, "config", None):
        params.update(load_config_file(args.config))
    for item in getattr(args, "set", None) or []:
        if "=" not in item:
            raise UsageError(f"bad --set {item!r} (expected key=value)")
        key, val = item.split("=", 1)
        params[key.strip()] = parse_value(val.strip())
    return params


def build_grid(args, spec, counts=(5, 11, 11, 11)) -> GridSpec:
    grid = GridSpec.from_window(spec.default_grid_window(), counts)
    if getattr(args, "grid", None):
        axes = parse_grid(args.grid)
        try:
            grid = dataclasses.replace(grid, **axes)
        except ValueError as exc:  # GridSpec's own checks
            raise UsageError(str(exc)) from None
    return grid


def _emit(text: str, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_params(spec) -> dict:
    out = {}
    for key, val in spec.params.items():
        if isinstance(val, (tuple, list, np.ndarray)):
            out[key] = [float(v) for v in val]
        elif isinstance(val, (np.floating, np.integer)):
            out[key] = float(val)
        else:
            out[key] = val
    return out


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_list(args) -> int:
    entries = registry_entries()
    if args.format == "json":
        _emit(json.dumps(entries, indent=2, default=float) + "\n", args.out)
        return EXIT_OK
    lines = [f"{'id':<16s} {'rank':>4s} {'waves':>5s}  description"]
    for e in entries:
        lines.append(f"{e['id']:<16s} {e['rank']:>4d} {e['waves']:>5d}  {e['description']}")
        ts = ", ".join(f"{v:g}" for v in e["singular_times"]) or "none"
        lines.append(f"{'':<27s}  singular times: {ts}")
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_sample(args) -> int:
    spec = make_family(args.family, gather_params(args))
    grid = build_grid(args, spec, counts=(3, 5, 5, 5))
    tv, xv = grid.points()
    res = spec.evaluate_batch(tv, xv, jacobian=False)
    k = spec.n_waves
    cond = res.cond_det
    if res.bracket is not None:  # LAPACK's determinant; nan where the closed form is not finite
        with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
            cond = np.where(np.isfinite(cond), np.linalg.det(res.bracket), cond)

    if args.format == "json":
        rows = []
        for i in range(len(tv)):
            rows.append({
                "t": tv[i], "x1": xv[i, 0], "x2": xv[i, 1], "x3": xv[i, 2],
                "r": [None if not np.isfinite(v) else v for v in res.r[i]],
                "a": None if not np.isfinite(res.state[i, 0]) else res.state[i, 0],
                "u": [None if not np.isfinite(v) else v for v in res.state[i, 1:]],
                "cond_det": None if not np.isfinite(cond[i]) else cond[i],
                "status": STATUS_LABELS[int(res.status[i])],
            })
        _emit(json.dumps({"family": spec.id, "params": _json_params(spec),
                          "grid": grid.as_dict(), "rows": rows}, indent=2, default=float) + "\n",
              args.out)
        return EXIT_OK

    header = ["t", "x1", "x2", "x3"] + [f"r{j+1}" for j in range(k)] + \
             ["a", "u1", "u2", "u3", "cond_det", "status"]
    cols = np.column_stack([tv, xv, res.r, res.state, cond])
    cols[~np.isfinite(cols)] = np.nan  # "%.17g" prints NaN as nan, an infinity as inf
    row = ",".join(["%.17g"] * cols.shape[1]) + ",%s"
    lines = [",".join(header)]
    lines += [row % (*vals, STATUS_LABELS[code])
              for vals, code in zip(cols.tolist(), res.status.tolist())]
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    spec = make_family(args.family, gather_params(args))
    grid = build_grid(args, spec)
    if args.method == "exact":
        report = residual_exact(spec, grid=grid)
        threshold = args.threshold if args.threshold is not None else 1e-8
    else:
        try:
            report = residual_fd(spec, grid=grid, h=args.h)
        except ValueError as exc:  # the grid is closer than the stencils allow
            raise UsageError(str(exc)) from None
        threshold = args.threshold if args.threshold is not None else 1e-5
    doc = report.as_dict()
    doc["family"] = spec.id
    doc["params"] = _json_params(spec)
    doc["threshold"] = threshold
    doc["pass"] = report.passed(threshold)
    if args.format == "csv":
        lines = ["equation,max,mean"]
        for i in range(4):
            lines.append(f"eq{i+1},{_fmt(report.eq_max[i])},{_fmt(report.eq_mean[i])}")
        lines.append(f"# pass={doc['pass']} max_normalized={_fmt(report.max_normalized)}")
        _emit("\n".join(lines) + "\n", args.out)
    else:
        _emit(json.dumps(doc, indent=2, default=float) + "\n", args.out)
    return EXIT_OK if doc["pass"] else EXIT_FAIL


def _pair_config(pair_text: str, params: dict):
    """Raw acoustic-pair configuration 'e1x,e1y,e1z;e2x,e2y,e2z' and its
    constant (4, 2) profile Jacobian, the normalised kernel directions.

    The directions need not be angle-locked, only finite and nonzero;
    ``gamma`` is the one parameter the pair takes."""
    from .catalog.base import PotentialWave, stack_waves
    from .catalog.registry import _vec3
    unknown = set(params) - {"gamma"}
    if unknown:
        raise ConstraintError(f"unknown parameters for --pair: {sorted(unknown)}")
    gas = GasParams(**params)
    parts = pair_text.split(";")
    if len(parts) != 2:
        raise UsageError("--pair expects 'e1x,e1y,e1z;e2x,e2y,e2z'")
    evecs = []
    for i, part in enumerate(parts, 1):
        v = _vec3(parse_value(part), f"--pair direction {i}")
        norm = np.linalg.norm(v)
        if not norm > 0:
            raise ConstraintError(f"--pair direction {i} must be nonzero")
        evecs.append(v / norm)
    kappa = gas.kappa
    waves, waves_jac, _ = stack_waves([PotentialWave(e=e) for e in evecs])
    gammas = np.stack([np.concatenate([[1.0], kappa * e]) for e in evecs], axis=1)
    gammas /= np.linalg.norm(gammas, axis=0)
    return AnsatzConfig(waves, waves_jac, gas), gammas


def config_from_family(spec):
    """The family's config and its jet (r, t) -> (u, profile Jacobian).

    A spec with an explicit time rate gets the covectors [e0, lam^1..lam^k]
    (e0's waves_jac row is zero) and the Jacobian [df/dt | df/dr].
    """
    if spec.extra_time_deriv is None:
        return AnsatzConfig(spec.waves, spec.waves_jac, spec.gas), spec.profile
    waves, waves_jac, jet, rate = spec.waves, spec.waves_jac, spec.profile, spec.extra_time_deriv

    def time_waves(u):
        return np.concatenate([np.broadcast_to(np.eye(1, 4), (len(u), 1, 4)), waves(u)], axis=1)

    def time_waves_jac(u):
        return np.concatenate([np.zeros((len(u), 1, 4, 4)), waves_jac(u)], axis=1)

    def time_jet(r, t):
        u, fr = jet(r, t)
        return u, np.concatenate([rate(t)[:, :, None], fr], axis=2)

    return AnsatzConfig(time_waves, time_waves_jac, spec.gas), time_jet


_ROW_MAXIMA = ("initial_max", "higher_max", "bilinear_max")  # the last for --pair only


def _max_abs(res) -> float:
    return float(np.max(np.abs(res))) if res.size else 0.0


def cmd_conditions(args) -> int:
    n = args.samples
    if n < 1:
        raise UsageError(f"--samples needs a count >= 1, got {n}")
    rng = np.random.default_rng(args.seed)
    if args.pair:
        cfg, fr = _pair_config(args.pair, gather_params(args))
        fam_label = f"pair({args.pair})"
        states, jacs = [], [fr] * n
        for _ in range(n):
            states.append(np.concatenate([[rng.uniform(0.5, 2.0)], rng.normal(0, 0.5, 3)]))
            rng.uniform(-0.8, 0.8, 2)  # r: unused (fr is constant), drawn to keep the stream
    else:
        spec = make_family(args.family, gather_params(args))
        cfg, jet = config_from_family(spec)
        fam_label = spec.id
        # one profile jet for the request: the draws are the per-sample stream,
        # and each row of the jet is the row evaluated alone
        r = rng.uniform(-0.8, 0.8, (n, spec.n_waves))
        states, jacs = jet(r, np.zeros(n))

    rows = []
    for i, (u, fr) in enumerate(zip(states, jacs)):
        if not u[0] > 0:
            continue
        tol = 1e-10 * (1.0 + float(np.max(np.abs(u))))
        try:
            worst = [_max_abs(trace_condition_initial(cfg, u, fr)),
                     _max_abs(trace_condition_higher(cfg, u, fr))]
            if args.pair:
                worst.append(_max_abs(bilinear_rank2_condition(cfg, u)))
        except DegenerateSampleError as exc:
            rows.append({"sample": i, "reason": str(exc), "pass": False})
            continue
        # NaN compares false, so a non-finite residual fails its row
        rows.append({"sample": i, **dict(zip(_ROW_MAXIMA, worst)),
                     "pass": all(w <= tol for w in worst)})

    doc = {"family": fam_label, "samples": len(rows),
           "tolerance_rule": "1e-10 * (1 + max field magnitude)",
           "higher_order": "identically satisfied" if jacs[0].shape[1] == 1 else None,
           "rows": rows, "pass": bool(rows) and all(r["pass"] for r in rows)}
    _emit(json.dumps(doc, indent=2, default=float) + "\n", args.out)
    return EXIT_OK if doc["pass"] else EXIT_FAIL


def cmd_catastrophe(args) -> int:
    spec = make_family(args.family, gather_params(args))
    report = catastrophe_probe(spec)
    times = []
    for tv in report.formula_times:
        entry = {"formula": tv}
        if tv <= 0:
            entry["note"] = "outside default window (nonpositive time)"
        elif report.applicable and abs(tv - report.probe_time) < 1e-12:
            entry["empirical"] = report.empirical_time
            entry["rel_gap"] = report.rel_gap
        times.append(entry)
    doc = {"family": spec.id, "applicable": report.applicable, "times": times}
    if report.applicable:
        doc["ray"] = [float(v) for v in report.ray]
        doc["jac_norm_schedule"] = {
            "t": [float(v) for v in report.schedule],
            "norm": [None if not np.isfinite(v) else float(v) for v in report.jac_norms],
        }
    else:
        doc["note"] = "no positive singular time; " + (
            "catastrophe at t <= 0" if times else "bounded family")
    _emit(json.dumps(doc, indent=2, default=float) + "\n", args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and reused by every later call."""
    ap = argparse.ArgumentParser(
        prog="riemannwaves",
        description="construct, evaluate and verify rank-k wave solutions of the "
                    "isentropic fluid equations")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, family_required=True):
        if family_required:
            p.add_argument("--family", required=True, choices=REGISTRY_IDS)
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="parameter override (repeatable)")
        p.add_argument("--config", help="flat key=value or JSON parameter file")
        p.add_argument("--out", help="output path (default stdout)")

    p = sub.add_parser("list", help="list registry families")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_list)

    p = sub.add_parser("sample", help="evaluate fields on a grid and write rows")
    common(p)
    p.add_argument("--grid", help='axis ranges, e.g. "t=0:0.4:3,x1=-1:1:5"')
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(fn=cmd_sample)

    p = sub.add_parser("verify", help="residual verification on a grid")
    common(p)
    p.add_argument("--grid")
    p.add_argument("--method", choices=("exact", "fd"), default="exact")
    p.add_argument("--h", type=_spacing, default=DEFAULT_H)
    p.add_argument("--threshold", type=_threshold, default=None)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("conditions", help="trace condition residuals")
    common(p, family_required=False)
    p.add_argument("--family", choices=REGISTRY_IDS)
    p.add_argument("--pair", help="raw acoustic pair 'e1x,e1y,e1z;e2x,e2y,e2z'")
    p.add_argument("--samples", type=int, default=25)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_conditions)

    p = sub.add_parser("catastrophe", help="predicted vs empirical blow-up times")
    common(p)
    p.set_defaults(fn=cmd_catastrophe)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        if args.command == "conditions" and not (args.family or args.pair):
            raise UsageError("conditions requires --family or --pair")
        return args.fn(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ConstraintError as exc:
        print(f"constraint error: {exc}", file=sys.stderr)
        return EXIT_CONSTRAINT
    except (KeyError,) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except EmptyReportError as exc:
        print(f"empty report: {exc}", file=sys.stderr)
        return EXIT_EMPTY


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end: config handling, dispatch, report emission.

One entry point with subcommands::

    maghardy [--config FILE] [--out DIR] [--seed N] [--pretty] SUBCOMMAND [flags]

Subcommands: flux | weight | vnorm | identity-check | probe-zero |
probe-infinity | hardy | count | sweep | bound.

Configuration is a JSON file with the sections below; command-line flags
override file values (flags win).  Every run writes one JSON report
(config echo, results, tool version, wall clock, collected warnings) plus
CSV plot data, with file names derived from the subcommand and a hash of the
resolved config.  Identical configs produce byte-identical JSON payloads
apart from the wall-clock field.

Config schema (keys with their defaults)::

    field:     kind zero|example1|example2|bump|sum|custom,
               b0, gamma, total_flux, r1, parts (sum), path, integrability
    potential: kind zero|vsigma|gaussian|step|custom,
               sigma, depth, width, radius, path
    weight:    kind log_squared|log_power|flux_augmented|shifted_log|
               aharonov_bohm|slow_log,  b, t_eta, r0, mu
    grid:      kind uniform|geometric|auto, t_min, t_max, n
    lambda, lambdas {min,max,n}, method inertia|prufer|phase,
    m_range [lo,hi], refine, a, t_min_cap, cap_doublings, cap_schedule,
    r | t, b, alpha, cuts [...], alpha_exp, n_list [...], bad_weight, r0,
    out, seed

Exit status: 0 success, 2 success with collected warnings, 1 error.
"""

import argparse
import hashlib
import json
import math
import sys
import time
import warnings
from pathlib import Path

import numpy as np

from . import __version__, counting, profiles, quadform, spectral, weights
from .errors import (
    ConfigError,
    MagHardyError,
    ScanResolutionWarning,
    UnboundedWarning,
    ZeroPivotWarning,
)
from .grids import Grid

_REPORT_WARNINGS = (
    ZeroPivotWarning,
    ScanResolutionWarning,
    UnboundedWarning,
)

SUBCOMMANDS = (
    "flux",
    "weight",
    "vnorm",
    "identity-check",
    "probe-zero",
    "probe-infinity",
    "hardy",
    "count",
    "sweep",
    "bound",
)


# ---------------------------------------------------------------------------
# Builders from config sections
# ---------------------------------------------------------------------------


def build_field(spec: dict | None) -> profiles.RadialField:
    spec = dict(spec or {"kind": "zero"})
    kind = spec.get("kind", "zero")
    try:
        if kind == "zero":
            return profiles.ZeroField()
        if kind == "example1":
            return profiles.LogPowerField(b0=float(spec["b0"]), gamma=float(spec["gamma"]))
        if kind == "example2":
            return profiles.LogLogPowerField(
                b0=float(spec["b0"]), gamma=float(spec["gamma"])
            )
        if kind == "bump":
            return profiles.BumpField(
                flux=float(spec["total_flux"]), r1=float(spec.get("r1", 1.0))
            )
        if kind == "sum":
            return profiles.SumField(tuple(build_field(p) for p in spec["parts"]))
        if kind == "custom":
            t, b = profiles.load_custom_columns(spec["path"])
            return profiles.CustomField(t, b, integrability=spec.get("integrability"))
    except KeyError as exc:
        raise ConfigError(f"field.{exc.args[0]}: required for kind {kind!r}") from exc
    raise ConfigError(f"field.kind: unknown kind {kind!r}")


def build_potential(spec: dict | None) -> profiles.Potential:
    spec = dict(spec or {"kind": "zero"})
    kind = spec.get("kind", "zero")
    try:
        if kind == "zero":
            return profiles.ZeroPotential()
        if kind == "vsigma":
            return profiles.VSigma(sigma=float(spec["sigma"]))
        if kind == "gaussian":
            return profiles.GaussianWell(
                depth=float(spec.get("depth", 1.0)), width=float(spec.get("width", 1.0))
            )
        if kind == "step":
            return profiles.StepWell(
                depth=float(spec.get("depth", 1.0)), radius=float(spec.get("radius", 1.0))
            )
        if kind == "custom":
            t, v = profiles.load_custom_columns(spec["path"])
            return profiles.CustomPotential(t, v)
    except KeyError as exc:
        raise ConfigError(f"potential.{exc.args[0]}: required for kind {kind!r}") from exc
    raise ConfigError(f"potential.kind: unknown kind {kind!r}")


def build_weight(spec: dict | None, field=None) -> weights.Weight:
    spec = dict(spec or {"kind": "log_squared"})
    kind = spec.get("kind", "log_squared")
    try:
        if kind == "log_squared":
            return weights.LogSquaredWeight()
        if kind == "log_power":
            return weights.LogPowerWeight(b=float(spec["b"]))
        if kind == "flux_augmented":
            if field is None:
                raise ConfigError("flux_augmented weight needs a field section")
            t_eta = spec.get("t_eta")
            if t_eta is None:
                t_eta = weights.select_eta_log(field)
            return weights.FluxAugmentedWeight(field=field, t_eta=float(t_eta))
        if kind == "shifted_log":
            return weights.ShiftedLogWeight(r0=float(spec["r0"]))
        if kind == "aharonov_bohm":
            return weights.AharonovBohmWeight(mu=float(spec["mu"]))
        if kind == "slow_log":
            return quadform.slow_log_weight()
    except KeyError as exc:
        raise ConfigError(f"weight.{exc.args[0]}: required for kind {kind!r}") from exc
    raise ConfigError(f"weight.kind: unknown kind {kind!r}")


def build_grid(spec: dict | None, default=(-8.0, 8.0, 801)) -> Grid:
    spec = dict(spec or {})
    t_min = float(spec.get("t_min", default[0]))
    t_max = float(spec.get("t_max", default[1]))
    n = int(spec.get("n", default[2]))
    kind = spec.get("kind", "uniform")
    if kind == "uniform":
        return Grid.uniform(t_min, t_max, n)
    if kind == "geometric":
        return Grid.geometric(t_min, t_max, n)
    if kind == "auto":
        return Grid.auto(t_min, t_max, n)
    raise ConfigError(f"grid.kind: unknown kind {kind!r}")


def _parse_float(value, key):
    if isinstance(value, str):
        if value.strip() in ("e", "E"):
            return math.e
        try:
            return float(value)
        except ValueError as exc:
            raise ConfigError(f"{key}: cannot parse {value!r} as a number") from exc
    return float(value)


def _resolve_t(config):
    if config.get("t") is not None:
        return float(config["t"])
    if config.get("r") is not None:
        r = _parse_float(config["r"], "r")
        if r <= 0:
            raise ConfigError("r: must be positive")
        return math.log(r)
    raise ConfigError("r or t: one radius is required")


# ---------------------------------------------------------------------------
# Subcommand implementations: each returns (results dict, tables dict)
# ---------------------------------------------------------------------------


def _run_flux(config):
    field = build_field(config.get("field"))
    t = _resolve_t(config)
    alpha = float(profiles.flux(field, t=t))
    result = {
        "t": t,
        "r": math.exp(t) if t < 700 else None,
        "alpha": alpha,
        "phi": float(profiles.phi(field, t=t)) if abs(t) < 700 else None,
        "class": profiles.singularity_class(field),
    }
    tables = {}
    scan = config.get("scan")
    if scan:
        ts = np.linspace(float(scan["t_min"]), float(scan["t_max"]), int(scan.get("n", 200)))
        tables["flux_scan"] = {
            "columns": ["t", "alpha"],
            "rows": [[float(x), float(profiles.flux(field, t=x))] for x in ts],
        }
    return result, tables


def _run_weight(config):
    field = build_field(config.get("field")) if config.get("field") else None
    w = build_weight(config.get("weight"), field=field)
    t = _resolve_t(config)
    result = {
        "t": t,
        "value": float(weights.eval_weight(w, t=t)),
        "mass_density": float(w.mass_density(np.array(t))),
        "kind": w.kind,
    }
    return result, {}


def _run_vnorm(config):
    V = build_potential(config.get("potential"))
    a = float(config.get("a", 2.0))
    t_min_cap = float(config.get("t_min_cap", -1e4))
    res = weights.v_norm_a(
        V,
        a,
        t_min_cap=t_min_cap,
        cap_doublings=int(config.get("cap_doublings", 1)),
        cap_schedule=config.get("cap_schedule", "double"),
    )
    taus, curve = weights.threshold_curve(V, a, t_min_cap=t_min_cap)
    tables = {
        "vnorm_curve": {
            "columns": ["tau", "tau_pow_a_times_measure"],
            "rows": [[float(x), float(y)] for x, y in zip(taus, curve)],
        }
    }
    return res.as_dict(), tables


def _run_identity_check(config):
    r0 = _parse_float(config.get("r0", math.e), "r0")
    n = int(config.get("grid", {}).get("n", config.get("n", 1000)))
    t_max = float(np.log(r0)) - 0.1
    grid = Grid.uniform(-6.0, t_max, n)
    residual = quadform.check_f_identity(r0, grid)
    return {"r0": r0, "max_residual": residual, "grid_n": n}, {}


def _run_probe_zero(config):
    field = build_field(config.get("field"))
    b = float(config.get("b", 1.5))
    alpha = float(config.get("alpha", 0.4))
    cuts = [float(x) for x in config.get("cuts", [8, 16, 32, 64])]
    records = quadform.hardy_probe_at_zero(field, b, alpha, cuts)
    slope = quadform.fit_loglog_slope(
        [r.parameter for r in records], [r.ratio for r in records]
    )
    result = {
        "b": b,
        "alpha": alpha,
        "fitted_slope": slope,
        "expected_slope_closed_form": 2.0 * alpha - b + 1.0,
        "records": [
            {"k": r.parameter, "numerator": r.numerator, "denominator": r.denominator, "ratio": r.ratio}
            for r in records
        ],
    }
    tables = {
        "probe_zero": {
            "columns": ["k", "numerator", "denominator", "ratio"],
            "rows": [[r.parameter, r.numerator, r.denominator, r.ratio] for r in records],
        }
    }
    return result, tables


def _run_probe_infinity(config):
    field_spec = config.get("field") or {"kind": "bump", "total_flux": 1.0}
    field = build_field(field_spec)
    bad = config.get("bad_weight", "slow_log")
    w = build_weight({"kind": bad} if isinstance(bad, str) else bad, field=field)
    alpha_exp = float(config.get("alpha_exp", 0.5))
    n_list = [float(x) for x in config.get("n_list", [1e2, 1e3, 1e4])]
    records = quadform.infinity_probe(field, w, alpha_exp, n_list)
    slope = quadform.fit_loglog_slope(
        [r.parameter for r in records], [r.ratio for r in records]
    )
    result = {
        "alpha_exp": alpha_exp,
        "bad_weight": w.kind,
        "ratio_slope_vs_n": slope,
        "records": [
            {"n": r.parameter, "Q": r.denominator, "weighted_norm": r.numerator, "ratio": r.ratio}
            for r in records
        ],
    }
    tables = {
        "probe_infinity": {
            "columns": ["n", "numerator", "denominator", "ratio"],
            "rows": [[r.parameter, r.numerator, r.denominator, r.ratio] for r in records],
        }
    }
    return result, tables


def _run_hardy(config):
    field = build_field(config.get("field"))
    w = build_weight(config.get("weight"), field=field)
    grid = build_grid(config.get("grid"))
    lo, hi = config.get("m_range", [-3, 3])
    est = spectral.hardy_constant(
        field,
        w,
        grid,
        m_range=range(int(lo), int(hi) + 1),
        refine_levels=int(config.get("refine", 1)),
    )
    tables = {
        "per_mode": {
            "columns": ["m", "mu"],
            "rows": [[m, v] for m, v in sorted(est.per_mode_minima.items())],
        }
    }
    return est.as_dict(), tables


def _run_count(config):
    field = build_field(config.get("field"))
    V = build_potential(config.get("potential"))
    lam = float(config.get("lambda", 1.0))
    method = config.get("method", "inertia")
    grid = None
    if method != "phase" or config.get("grid"):
        grid = build_grid(config.get("grid"), default=(-40.0, 2.0, 2001))
    report = counting.count_total(field, V, lam, grid, method=method)
    tables = {
        "per_mode": {
            "columns": ["m", "count"],
            "rows": [[m, v] for m, v in sorted(report.per_mode.items())],
        }
    }
    return report.as_dict(), tables


def _lambda_ladder(config):
    lam_spec = config.get("lambdas", {"min": 10.0, "max": 1e4, "n": 7})
    return np.geomspace(
        float(lam_spec["min"]), float(lam_spec["max"]), int(lam_spec.get("n", 7))
    )


def _run_sweep(config):
    field_spec = config.get("field") or {"kind": "bump", "total_flux": 0.5}
    field = build_field(field_spec)
    V = build_potential(config.get("potential") or {"kind": "vsigma", "sigma": 2.0})
    method = config.get("method", "phase")
    grid = build_grid(config["grid"]) if config.get("grid") else None
    sweep = counting.sweep_exponent(field, V, _lambda_ladder(config), method=method, grid=grid)
    result = {
        "fitted_exponent": sweep.fitted_exponent,
        "fit_window": list(sweep.fit_window),
        "residual": sweep.residual,
    }
    tables = {
        "sweep": {
            "columns": ["lambda", "N", "method", "m_max"],
            "rows": [[r.lam, r.total, r.method, r.m_max] for r in sweep.reports],
        }
    }
    return result, tables


def _run_bound(config):
    V = build_potential(config.get("potential") or {"kind": "vsigma", "sigma": 2.0})
    bound = counting.bound_jst(V, t_min_cap=float(config.get("t_min_cap", -1e4)))
    result = {"log_weight_bound": bound.as_dict()}
    tables = {}
    if config.get("a") is not None:
        field_spec = config.get("field") or {"kind": "bump", "total_flux": 0.5}
        field = build_field(field_spec)
        table = counting.verify_counting_bound(
            field,
            V,
            float(config["a"]),
            _lambda_ladder(config),
            method=config.get("method", "phase"),
        )
        result["counting_bound"] = {
            "a": table["a"],
            "v_norm": table["v_norm"],
            "max_ratio": max((row["ratio"] for row in table["rows"]), default=0.0),
        }
        tables["bound_table"] = {
            "columns": ["lambda", "N", "va_pow_a", "ratio"],
            "rows": [
                [row["lambda"], row["N"], row["va_pow_a"], row["ratio"]]
                for row in table["rows"]
            ],
        }
    return result, tables


_RUNNERS = {
    "flux": _run_flux,
    "weight": _run_weight,
    "vnorm": _run_vnorm,
    "identity-check": _run_identity_check,
    "probe-zero": _run_probe_zero,
    "probe-infinity": _run_probe_infinity,
    "hardy": _run_hardy,
    "count": _run_count,
    "sweep": _run_sweep,
    "bound": _run_bound,
}


# ---------------------------------------------------------------------------
# Report plumbing
# ---------------------------------------------------------------------------


def config_hash(config: dict) -> str:
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:12]


def run(config: dict):
    """Execute one subcommand; returns (report dict, exit code)."""
    sub = config.get("subcommand")
    if sub not in _RUNNERS:
        raise ConfigError(f"subcommand: unknown or missing ({sub!r})")
    start = time.monotonic()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        results, tables = _RUNNERS[sub](config)
    warn_list = sorted(
        {
            f"{w.category.__name__}: {w.message}"
            for w in caught
            if issubclass(w.category, _REPORT_WARNINGS)
        }
    )
    report = {
        "tool": "maghardy",
        "version": __version__,
        "config": config,
        "results": results,
        "warnings": warn_list,
        "wall_clock_s": time.monotonic() - start,
    }
    code = 2 if warn_list else 0
    return report, tables, code


def emit_plotdata(tables: dict, out_dir: Path, stem: str) -> list[Path]:
    """Write each table as CSV with a header row, 17 significant digits."""
    paths = []
    for name, table in tables.items():
        path = out_dir / f"{stem}-{name}.csv"
        lines = [",".join(table["columns"])]
        for row in table["rows"]:
            lines.append(
                ",".join(
                    f"{x:.17g}" if isinstance(x, float) else str(x) for x in row
                )
            )
        path.write_text("\n".join(lines) + "\n")
        paths.append(path)
    return paths


def write_report(report: dict, tables: dict, out_dir: Path) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{report['config']['subcommand']}-{config_hash(report['config'])}"
    path = out_dir / f"{stem}.json"
    path.write_text(json.dumps(report, sort_keys=True, indent=1) + "\n")
    emit_plotdata(tables, out_dir, stem)
    return path


def _pretty(results: dict, indent=0):
    pad = "  " * indent
    for key, val in results.items():
        if isinstance(val, dict):
            print(f"{pad}{key}:")
            _pretty(val, indent + 1)
        elif isinstance(val, list) and len(val) > 6:
            print(f"{pad}{key}: [{len(val)} rows]")
        else:
            print(f"{pad}{key}: {val}")


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _add_common(sp):
    sp.add_argument("--field", dest="field_kind")
    sp.add_argument("--b0", type=float)
    sp.add_argument("--gamma", type=float)
    sp.add_argument("--total-flux", type=float)
    sp.add_argument("--r1", type=float)
    sp.add_argument("--potential", dest="potential_kind")
    sp.add_argument("--sigma", type=float)
    sp.add_argument("--depth", type=float)
    sp.add_argument("--width", type=float)
    sp.add_argument("--radius", type=float)
    sp.add_argument("--weight", dest="weight_kind")
    sp.add_argument("--t-eta", type=float)
    sp.add_argument("--mu", type=float)
    sp.add_argument("--t-min", type=float)
    sp.add_argument("--t-max", type=float)
    sp.add_argument("--grid", type=int, help="number of grid nodes")
    sp.add_argument("--grid-kind", choices=["uniform", "geometric", "auto"])


def _add_shared(p):
    p.add_argument("--config", help="JSON config file; flags override its values")
    p.add_argument("--out", help="output directory")
    p.add_argument("--seed", type=int)
    p.add_argument("--pretty", action="store_true", help="print a readable table")


def build_parser():
    p = argparse.ArgumentParser(
        prog="maghardy",
        description="Flux profiles, Hardy weights and negative-eigenvalue "
        "counting for two-dimensional magnetic Schroedinger operators.",
    )
    _add_shared(p)
    p.set_defaults(seed=0)
    # The subcommands accept the global options too.  Their copies have no
    # defaults, so a flag given before the subcommand is not reset.
    shared = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    _add_shared(shared)
    subs = p.add_subparsers(dest="subcommand")

    def add_parser(name, **kw):
        return subs.add_parser(name, parents=[shared], **kw)

    sp = add_parser("flux", help="flux function of a radial field")
    _add_common(sp)
    sp.add_argument("--r")
    sp.add_argument("--t", type=float)

    sp = add_parser("weight", help="evaluate a Hardy weight")
    _add_common(sp)
    sp.add_argument("--r")
    sp.add_argument("--t", type=float)
    sp.add_argument("--b", type=float)
    sp.add_argument("--r0")

    sp = add_parser("vnorm", help="capped sup-functional of a potential")
    _add_common(sp)
    sp.add_argument("--a", type=float, default=2.0)
    sp.add_argument("--t-min-cap", type=float, default=-1e4)
    sp.add_argument("--cap-doublings", type=int, default=1)
    sp.add_argument("--cap-schedule", choices=["double", "square"], default="double")

    sp = add_parser("identity-check", help="algebraic identity residual")
    sp.add_argument("--r0", default="e")
    sp.add_argument("--grid", type=int, default=1000)

    sp = add_parser("probe-zero", help="weight optimality probe at the origin")
    _add_common(sp)
    sp.add_argument("--b", type=float, default=1.5)
    sp.add_argument("--alpha", type=float, default=0.4)
    sp.add_argument("--cuts", default="8,16,32,64")

    sp = add_parser("probe-infinity", help="weight optimality probe at infinity")
    _add_common(sp)
    sp.add_argument("--alpha-exp", type=float, default=0.5)
    sp.add_argument("--n-list", default="100,1000,10000")
    sp.add_argument("--bad-weight", default="slow_log")

    sp = add_parser("hardy", help="discrete Hardy-constant estimate")
    _add_common(sp)
    sp.add_argument("--m-range", default="-3:3")
    sp.add_argument("--refine", type=int, default=1)

    sp = add_parser("count", help="negative-eigenvalue count at one coupling")
    _add_common(sp)
    sp.add_argument("--lambda", dest="lam", type=float, default=1.0)
    sp.add_argument("--method", choices=["inertia", "prufer", "phase"], default="inertia")

    sp = add_parser("sweep", help="coupling sweep and exponent fit")
    _add_common(sp)
    sp.add_argument("--lambda-min", type=float, default=10.0)
    sp.add_argument("--lambda-max", type=float, default=1e4)
    sp.add_argument("--lambda-n", type=int, default=7)
    sp.add_argument("--method", choices=["inertia", "prufer", "phase"], default="phase")

    sp = add_parser("bound", help="integral bound and counting-bound table")
    _add_common(sp)
    sp.add_argument("--a", type=float)
    sp.add_argument("--t-min-cap", type=float, default=-1e4)
    sp.add_argument("--lambda-min", type=float, default=10.0)
    sp.add_argument("--lambda-max", type=float, default=1e4)
    sp.add_argument("--lambda-n", type=int, default=7)
    sp.add_argument("--method", choices=["inertia", "prufer", "phase"], default="phase")
    return p


def _merge_args(config: dict, args) -> dict:
    """Overlay parsed flags onto the config dict (flags win)."""
    cfg = dict(config)
    cfg["subcommand"] = args.subcommand or cfg.get("subcommand")
    cfg.setdefault("seed", args.seed)
    if args.seed:
        cfg["seed"] = args.seed

    def section(name):
        sec = dict(cfg.get(name) or {})
        cfg[name] = sec
        return sec

    a = vars(args)
    if a.get("field_kind"):
        section("field")["kind"] = a["field_kind"]
    for key, sec_key in (
        ("b0", "b0"),
        ("gamma", "gamma"),
        ("total_flux", "total_flux"),
        ("r1", "r1"),
    ):
        if a.get(key) is not None:
            section("field")[sec_key] = a[key]
    if a.get("potential_kind"):
        section("potential")["kind"] = a["potential_kind"]
    for key in ("sigma", "depth", "width", "radius"):
        if a.get(key) is not None:
            section("potential")[key] = a[key]
    if a.get("weight_kind"):
        section("weight")["kind"] = a["weight_kind"]
    if a.get("t_eta") is not None:
        section("weight")["t_eta"] = a["t_eta"]
    if a.get("mu") is not None:
        section("weight")["mu"] = a["mu"]
    if args.subcommand == "weight" and a.get("b") is not None:
        section("weight")["b"] = a["b"]
    if args.subcommand == "weight" and a.get("r0") is not None:
        section("weight")["r0"] = _parse_float(a["r0"], "r0")
    for key in ("t_min", "t_max"):
        if a.get(key) is not None:
            section("grid")[key] = a[key]
    if a.get("grid") is not None:
        section("grid")["n"] = a["grid"]
    if a.get("grid_kind"):
        section("grid")["kind"] = a["grid_kind"]

    for key in (
        "r",
        "t",
        "a",
        "t_min_cap",
        "cap_doublings",
        "cap_schedule",
        "alpha",
        "alpha_exp",
        "bad_weight",
        "refine",
        "method",
    ):
        if a.get(key) is not None:
            cfg[key] = a[key]
    if args.subcommand == "probe-zero" and a.get("b") is not None:
        cfg["b"] = a["b"]
    if args.subcommand == "identity-check":
        if a.get("r0") is not None:
            cfg["r0"] = a["r0"]
        if a.get("grid") is not None:
            cfg["n"] = a["grid"]
    if a.get("lam") is not None:
        cfg["lambda"] = a["lam"]
    if a.get("cuts"):
        cfg["cuts"] = [float(x) for x in str(a["cuts"]).split(",") if x]
    if a.get("n_list"):
        cfg["n_list"] = [float(x) for x in str(a["n_list"]).split(",") if x]
    if a.get("m_range"):
        lo, hi = str(a["m_range"]).split(":")
        cfg["m_range"] = [int(lo), int(hi)]
    if a.get("lambda_min") is not None:
        cfg["lambdas"] = {
            "min": a["lambda_min"],
            "max": a["lambda_max"],
            "n": a["lambda_n"],
        }
    if not cfg.get("grid"):
        cfg.pop("grid", None)
    return cfg


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        base = {}
        if args.config:
            base = json.loads(Path(args.config).read_text())
        config = _merge_args(base, args)
        if not config.get("subcommand"):
            parser.print_help()
            return 1
        report, tables, code = run(config)
        out_dir = Path(args.out or config.get("out") or "maghardy-out")
        path = write_report(report, tables, out_dir)
        if args.pretty:
            _pretty(report["results"])
        else:
            print(json.dumps(report["results"], sort_keys=True))
        for w in report["warnings"]:
            print(f"warning: {w}", file=sys.stderr)
        print(f"report: {path}", file=sys.stderr)
        return code
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except MagHardyError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

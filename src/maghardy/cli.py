"""Command-line front end: config handling, dispatch, report emission.

One entry point with subcommands::

    maghardy [--config FILE] [--out DIR] [--pretty] SUBCOMMAND [flags]

Subcommands: flux | weight | vnorm | identity-check | probe-zero |
probe-infinity | hardy | count | sweep | bound.

Configuration is a JSON file with the sections below.  A flag given on the
command line replaces the one config value it maps to (``_FLAGS``); every
other file value is kept, and a value given nowhere takes the runner's
default.  Every run writes one JSON report (the config as given, results,
tool version, wall clock, collected warnings) plus CSV plot data, with file
names derived from the subcommand and a hash of that config.  Identical
configs produce byte-identical JSON payloads apart from the wall-clock field.

Config schema::

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
    out

The sections each subcommand reads, and so the section flags it takes::

    flux, probe-zero, probe-infinity   field
    weight                             field, weight
    vnorm                              potential
    identity-check                     grid.n (its --grid sets the top-level n)
    hardy                              field, weight, grid
    count, sweep, bound                field, potential, grid

Any other section flag, and any abbreviated flag, is a usage error.

Exit status: 0 success, 2 success with collected warnings, 1 error (usage
and config errors included).
"""

import argparse
import hashlib
import json
import math
import os
import sys
import time
import warnings
from pathlib import Path

import numpy as np

from . import __version__, profiles  # each runner imports the other modules it uses
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


# ---------------------------------------------------------------------------
# Builders from config sections
# ---------------------------------------------------------------------------


def _build(section: str, spec: dict | None, default_kind: str, makers: dict):
    """``makers[kind](spec)`` for a config section, ``default_kind`` where it
    names none; an unknown kind or a key the maker misses is a ConfigError."""
    spec = dict(spec or {"kind": default_kind})
    kind = spec.get("kind", default_kind)
    maker = makers.get(kind) if isinstance(kind, str) else None
    if maker is None:
        raise ConfigError(f"{section}.kind: unknown kind {kind!r}")
    try:
        return maker(spec)
    except KeyError as exc:
        raise ConfigError(f"{section}.{exc.args[0]}: required for kind {kind!r}") from exc


_FIELD_KINDS = {
    "zero": lambda s: profiles.ZeroField(),
    "example1": lambda s: profiles.LogPowerField(b0=float(s["b0"]), gamma=float(s["gamma"])),
    "example2": lambda s: profiles.LogLogPowerField(b0=float(s["b0"]), gamma=float(s["gamma"])),
    "bump": lambda s: profiles.BumpField(flux=float(s["total_flux"]), r1=float(s.get("r1", 1.0))),
    "sum": lambda s: profiles.SumField(tuple(build_field(p) for p in s["parts"])),
    "custom": lambda s: profiles.CustomField(
        *profiles.load_custom_columns(s["path"]), integrability=s.get("integrability")
    ),
}

_POTENTIAL_KINDS = {
    "zero": lambda s: profiles.ZeroPotential(),
    "vsigma": lambda s: profiles.VSigma(sigma=float(s["sigma"])),
    "gaussian": lambda s: profiles.GaussianWell(
        depth=float(s.get("depth", 1.0)), width=float(s.get("width", 1.0))
    ),
    "step": lambda s: profiles.StepWell(
        depth=float(s.get("depth", 1.0)), radius=float(s.get("radius", 1.0))
    ),
    "custom": lambda s: profiles.CustomPotential(*profiles.load_custom_columns(s["path"])),
}


def build_field(spec: dict | None) -> profiles.RadialField:
    return _build("field", spec, "zero", _FIELD_KINDS)


def build_potential(spec: dict | None) -> profiles.Potential:
    return _build("potential", spec, "zero", _POTENTIAL_KINDS)


def build_weight(spec: dict | None, field=None):
    from . import weights

    def slow_log(s):
        from .quadform import slow_log_weight
        return slow_log_weight()

    def flux_augmented(s):
        if field is None:
            raise ConfigError("flux_augmented weight needs a field section")
        t_eta = s.get("t_eta")
        if t_eta is None:
            t_eta = weights.select_eta_log(field)
        return weights.FluxAugmentedWeight(field=field, t_eta=float(t_eta))

    kinds = {
        "log_squared": lambda s: weights.LogSquaredWeight(),
        "log_power": lambda s: weights.LogPowerWeight(b=float(s["b"])),
        "flux_augmented": flux_augmented,
        "shifted_log": lambda s: weights.ShiftedLogWeight(r0=_parse_float(s["r0"], "weight.r0")),
        "aharonov_bohm": lambda s: weights.AharonovBohmWeight(mu=float(s["mu"])),
        "slow_log": slow_log,
    }
    return _build("weight", spec, "log_squared", kinds)


def build_grid(spec: dict | None, default=(-8.0, 8.0, 801)) -> Grid:
    def maker(make):
        return lambda s: make(
            float(s.get("t_min", default[0])),
            float(s.get("t_max", default[1])),
            int(s.get("n", default[2])),
        )

    kinds = {"uniform": Grid.uniform, "geometric": Grid.geometric, "auto": Grid.auto}
    return _build("grid", spec, "uniform", {k: maker(make) for k, make in kinds.items()})


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
        t = float(config["t"])
        if math.isnan(t):
            raise ConfigError("t: must be a number, not NaN")
        # strict JSON has no token for an infinite t
        if math.isinf(t):
            raise ConfigError("t: must be finite")
        return t
    if config.get("r") is not None:
        r = _parse_float(config["r"], "r")
        if not r > 0:  # NaN as well
            raise ConfigError("r: must be positive")
        if math.isinf(r):
            raise ConfigError("r: must be finite")
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
    from . import weights
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
    from . import weights
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
    from . import quadform
    r0 = _parse_float(config.get("r0", math.e), "r0")
    n = int(config.get("n", (config.get("grid") or {}).get("n", 1000)))
    t_max = float(np.log(r0)) - 0.1
    grid = Grid.uniform(-6.0, t_max, n)
    residual = quadform.check_f_identity(r0, grid)
    return {"r0": r0, "max_residual": residual, "grid_n": n}, {}


def _run_probe_zero(config):
    from . import quadform
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
    from . import quadform
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
    from . import spectral
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
    from . import counting
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
    lam_spec = config.get("lambdas", {})
    if not isinstance(lam_spec, dict):
        raise ConfigError("lambdas: expected an object with keys min, max, n")
    lam_spec = {"min": 10.0, "max": 1e4, "n": 7, **lam_spec}
    return np.geomspace(float(lam_spec["min"]), float(lam_spec["max"]), int(lam_spec["n"]))


def _run_sweep(config):
    from . import counting
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
    from . import counting
    V = build_potential(config.get("potential") or {"kind": "vsigma", "sigma": 2.0})
    t_min_cap = float(config.get("t_min_cap", -1e4))
    bound = counting.bound_jst(V, t_min_cap=t_min_cap)
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
            grid=build_grid(config["grid"]) if config.get("grid") else None,
            t_min_cap=t_min_cap,
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


def _floats(text):
    """``8,16,32`` -> [8.0, 16.0, 32.0]."""
    try:
        return [float(x) for x in text.split(",") if x]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected numbers like 8,16,32, got {text!r}") from None


def _int_range(text):
    """``-3:3`` -> [-3, 3]."""
    lo, _, hi = text.partition(":")
    try:
        return [int(lo), int(hi)]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected LO:HI like -3:3, got {text!r}") from None


_FLOAT = {"type": float}
_INT = {"type": int}
_FIELD_FLAGS = (
    ("--field", "field.kind", {}),
    ("--b0", "field.b0", _FLOAT),
    ("--gamma", "field.gamma", _FLOAT),
    ("--total-flux", "field.total_flux", _FLOAT),
    ("--r1", "field.r1", _FLOAT),
)
_POTENTIAL_FLAGS = (
    ("--potential", "potential.kind", {}),
    ("--sigma", "potential.sigma", _FLOAT),
    ("--depth", "potential.depth", _FLOAT),
    ("--width", "potential.width", _FLOAT),
    ("--radius", "potential.radius", _FLOAT),
)
_WEIGHT_FLAGS = (
    ("--weight", "weight.kind", {}),
    ("--t-eta", "weight.t_eta", _FLOAT),
    ("--mu", "weight.mu", _FLOAT),
)
_GRID_FLAGS = (
    ("--t-min", "grid.t_min", _FLOAT),
    ("--t-max", "grid.t_max", _FLOAT),
    ("--grid", "grid.n", {"type": int, "help": "number of grid nodes"}),
    ("--grid-kind", "grid.kind", {"choices": ("uniform", "geometric", "auto")}),
)
_COUNT_FLAGS = _FIELD_FLAGS + _POTENTIAL_FLAGS + _GRID_FLAGS
_RADIUS_FLAGS = (("--r", "r", {}), ("--t", "t", _FLOAT))
_LAMBDA_FLAGS = (
    ("--lambda-min", "lambdas.min", _FLOAT),
    ("--lambda-max", "lambdas.max", _FLOAT),
    ("--lambda-n", "lambdas.n", _INT),
)
_METHOD_FLAG = ("--method", "method", {"choices": ("inertia", "prufer", "phase")})

# The one map from flag to config key, per subcommand: (flag, key, argparse
# keywords).  A dotted key is an entry of a section, e.g. potential.sigma;
# --b, --r0 and --grid map to different keys in different subcommands.  No
# flag has a default: an absent flag leaves the config value, and the runner
# supplies the default.  A subcommand takes only the sections its runner
# builds, so any other flag is a usage error, not a silently ignored value.
_FLAGS = {
    "flux": ("flux function of a radial field", _FIELD_FLAGS + _RADIUS_FLAGS),
    "weight": (
        "evaluate a Hardy weight",
        _FIELD_FLAGS
        + _WEIGHT_FLAGS
        + _RADIUS_FLAGS
        + (("--b", "weight.b", _FLOAT), ("--r0", "weight.r0", {})),
    ),
    "vnorm": (
        "capped sup-functional of a potential",
        _POTENTIAL_FLAGS
        + (
            ("--a", "a", _FLOAT),
            ("--t-min-cap", "t_min_cap", _FLOAT),
            ("--cap-doublings", "cap_doublings", _INT),
            ("--cap-schedule", "cap_schedule", {"choices": ("double", "square")}),
        ),
    ),
    "identity-check": ("algebraic identity residual", (("--r0", "r0", {}), ("--grid", "n", _INT))),
    "probe-zero": (
        "weight optimality probe at the origin",
        _FIELD_FLAGS
        + (
            ("--b", "b", _FLOAT),
            ("--alpha", "alpha", _FLOAT),
            ("--cuts", "cuts", {"type": _floats}),
        ),
    ),
    "probe-infinity": (
        "weight optimality probe at infinity",
        _FIELD_FLAGS
        + (
            ("--alpha-exp", "alpha_exp", _FLOAT),
            ("--n-list", "n_list", {"type": _floats}),
            ("--bad-weight", "bad_weight", {}),
        ),
    ),
    "hardy": (
        "discrete Hardy-constant estimate",
        _FIELD_FLAGS
        + _WEIGHT_FLAGS
        + _GRID_FLAGS
        + (("--m-range", "m_range", {"type": _int_range}), ("--refine", "refine", _INT)),
    ),
    "count": (
        "negative-eigenvalue count at one coupling",
        _COUNT_FLAGS + (("--lambda", "lambda", _FLOAT), _METHOD_FLAG),
    ),
    "sweep": ("coupling sweep and exponent fit", _COUNT_FLAGS + _LAMBDA_FLAGS + (_METHOD_FLAG,)),
    "bound": (
        "integral bound and counting-bound table",
        _COUNT_FLAGS
        + (("--a", "a", _FLOAT), ("--t-min-cap", "t_min_cap", _FLOAT))
        + _LAMBDA_FLAGS
        + (_METHOD_FLAG,),
    ),
}


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1: exit status 2 means "ok with warnings".  Any
    token that float() or ``_int_range`` reads is a value, not a flag:
    argparse by itself reads only -5 and -.5 as negative numbers, not -1e3,
    -inf or the mode range -1:1.  A flag is read only under its full name:
    an abbreviation would read ``vnorm --t-min`` as ``--t-min-cap``."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def _parse_optional(self, arg_string):
        for read in (float, _int_range):
            try:
                read(arg_string)
            except (ValueError, argparse.ArgumentTypeError):
                continue
            return None
        return super()._parse_optional(arg_string)

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_shared(p):
    p.add_argument("--config", help="JSON config file; flags override its values")
    p.add_argument("--out", help="output directory")
    p.add_argument("--pretty", action="store_true", help="print a readable table")


def build_parser():
    p = _Parser(
        prog="maghardy",
        description="Flux profiles, Hardy weights and negative-eigenvalue "
        "counting for two-dimensional magnetic Schroedinger operators.",
    )
    _add_shared(p)
    # The subcommands accept the global options too.  Their copies have no
    # defaults, so a flag given before the subcommand is not reset.
    shared = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    _add_shared(shared)
    subs = p.add_subparsers(dest="subcommand")
    for name, (help_text, flags) in _FLAGS.items():
        sp = subs.add_parser(
            name, parents=[shared], help=help_text, argument_default=argparse.SUPPRESS
        )
        for flag, key, kwargs in flags:
            sp.add_argument(flag, dest=key, **kwargs)
    return p


def _merge_args(config: dict, args) -> dict:
    """Write each flag given onto its config key (flags win)."""
    cfg = dict(config)
    cfg["subcommand"] = args.subcommand or cfg.get("subcommand")
    for key, value in vars(args).items():
        if key in ("config", "out", "pretty", "subcommand"):
            continue
        section, _, name = key.rpartition(".")
        if section:
            cfg[section] = {**(cfg.get(section) or {}), name: value}
        else:
            cfg[name] = value
    return cfg


def _load_config(path) -> dict:
    try:
        config = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"{path}: {exc.strerror}") from exc
    except ValueError as exc:
        raise ConfigError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(config, dict):
        raise ConfigError(f"{path}: the top level must be a JSON object")
    for section in ("field", "potential", "weight", "grid"):
        if config.get(section) is not None and not isinstance(config[section], dict):
            raise ConfigError(f"{section}: expected a JSON object")
    return config


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _merge_args(_load_config(args.config) if args.config else {}, args)
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
    except (MagHardyError, ValueError, TypeError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def console_main() -> int:
    """``main()``, then exit without interpreter teardown.  If stdout or
    stderr fails to flush, the code is returned and the interpreter's own
    exit reports the failed write, as it would without this entry."""
    code = main()
    try:
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:  # None where the descriptor is closed
                stream.flush()
    except OSError:
        return code
    os._exit(code)


if __name__ == "__main__":
    sys.exit(console_main())

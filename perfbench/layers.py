"""Wrappers around maghardy's layer boundaries, and the per-layer metrics.

``install`` replaces every name through which a caller reaches a wrapped
function (module attributes, the package namespace and names imported into
other maghardy modules), and returns a function that puts the originals
back.  Names missing at the measured commit are reported by ``absent``
instead of raising, so the benchmark keeps running as the roadmap deletes
or renames code.
"""

import functools
import inspect
import sys

import numpy as np

from .tracer import self_times, union_length

LAYERS = ("_kernels", "spectral", "profiles", "weights", "counting", "quadform", "grids", "cli")

# Kernels are wrapped by name; the counters they feed come from their
# return values: (negative count, zero pivots) and (angle, fail flag).
KERNELS = ("tridiag_inertia", "tridiag_inertia_shifted", "prufer_sweep")

# Methods evaluated per scalar inside quad/brentq callbacks: counted only.
PROFILE_EVALS = ("alpha", "e2t_v", "vplus_density")

# Names the per-layer metrics depend on; any missing one is listed as absent.
EXPECTED = (
    "_kernels.tridiag_inertia",
    "_kernels.tridiag_inertia_shifted",
    "_kernels.prufer_sweep",
    "spectral.assemble_mode",
    "spectral.count_negative",
    "spectral.mode_truncation",
    "spectral.smallest_generalized_mu",
    "spectral.hardy_constant",
    "spectral.prufer_count",
    "spectral.phase_integral_count",
    "spectral.integrate",
    "spectral.optimize",
    "weights.v_norm_a",
    "weights.threshold_curve",
    "weights._intervals_above",
    "weights.optimize",
    "counting.count_total",
    "counting.sweep_exponent",
    "counting.bound_jst",
    "counting.verify_counting_bound",
    "cli.write_report",
)


def _modules():
    return [m for name, m in sys.modules.items() if name == "maghardy" or name.startswith("maghardy.")]


def _layer(name):
    return sys.modules.get(f"maghardy.{name}")


def absent():
    """Expected wrapped names that do not exist in the loaded maghardy."""
    out = []
    for dotted in EXPECTED:
        mod_name, attr = dotted.split(".")
        mod = _layer(mod_name)
        if mod is None or not hasattr(mod, attr):
            out.append(dotted)
    return out


class _ModuleProxy:
    """Stands in for a module imported by one layer, overriding some names."""

    def __init__(self, module, **overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


def _span_wrapper(tracer, name, fn, after=None):
    """Span around each call; ``name`` may be a function of the arguments."""
    name_of = name if callable(name) else (lambda args, kwargs: name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = tracer.begin(name_of(args, kwargs))
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(span)
        if after is not None:
            after(args, result)
        return result

    return wrapper


def _count_wrapper(tracer, name, fn, points=False):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.count(f"{name}.calls")
        if points and len(args) > 1:
            tracer.count(f"{name}.points", int(np.size(args[1])))
        return fn(*args, **kwargs)

    return wrapper


def _brentq_wrapper(tracer, name, fn, spanned):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.count(f"{name}.calls")
        span = tracer.begin(name) if spanned else None
        try:
            return fn(*args, **kwargs)
        except ValueError:
            tracer.count(f"{name}.errors")
            raise
        finally:
            if span is not None:
                tracer.end(span)

    return wrapper


def _kernel_after(tracer, name):
    def after(args, result):
        if name == "prufer_sweep":
            tracer.count("kernels.prufer_sweep.fails", int(result[1]))
        else:
            tracer.count(f"kernels.{name}.rows", int(np.shape(args[0])[0]))
            tracer.count("kernels.zero_pivots", int(result[1]))

    return after


def _count_total_after(tracer):
    def after(args, report):
        per_mode = getattr(report, "per_mode", {}) or {}
        tracer.count("counting.modes_evaluated", len(per_mode))
        tracer.count("counting.modes_nonzero", sum(1 for v in per_mode.values() if v))

    return after


def _count_total_name(fn):
    """Span name with the counting method, which tells the grid-count path
    (inertia, Pruefer) from the phase path."""
    params = list(inspect.signature(fn).parameters.values())
    pos = next((i for i, p in enumerate(params) if p.name == "method"), None)
    default = params[pos].default if pos is not None else None

    def name(args, kwargs):
        positional = args[pos] if pos is not None and len(args) > pos else default
        return f"counting.count_total[{kwargs.get('method', positional)}]"

    return name


def _public_functions(mod):
    for attr, value in list(vars(mod).items()):
        if attr.startswith("_") or not inspect.isfunction(value):
            continue
        if value.__module__ == mod.__name__:
            yield attr, value


def install(tracer):
    """Wrap the layer boundaries of the loaded maghardy; returns the undo."""
    for name in LAYERS:
        __import__(f"maghardy.{name}")
    replace = {}  # id(original) -> (original, wrapper)
    direct = []  # (owner, attr, wrapper) set on one owner only

    def wrap(orig, wrapper):
        replace[id(orig)] = (orig, wrapper)

    kernels = _layer("_kernels")
    for k in KERNELS:
        fn = getattr(kernels, k, None)
        if fn is not None:
            wrap(fn, _span_wrapper(tracer, f"kernels.{k}", fn, _kernel_after(tracer, k)))

    for layer in ("spectral", "weights", "counting", "quadform", "cli", "profiles"):
        mod = _layer(layer)
        for attr, fn in _public_functions(mod):
            if (layer, attr) == ("counting", "count_total"):
                wrap(fn, _span_wrapper(tracer, _count_total_name(fn), fn, _count_total_after(tracer)))
            else:
                wrap(fn, _span_wrapper(tracer, f"{layer}.{attr}", fn))

    weights = _layer("weights")
    scan = getattr(weights, "_intervals_above", None)
    if scan is not None:
        wrap(scan, _count_wrapper(tracer, "weights.level_set", scan))

    spectral = _layer("spectral")
    if hasattr(spectral, "integrate") and hasattr(spectral, "optimize"):
        direct.append(
            (spectral, "integrate", _ModuleProxy(
                spectral.integrate,
                quad=_span_wrapper(tracer, "spectral.scipy.quad", spectral.integrate.quad),
            ))
        )
        direct.append(
            (spectral, "optimize", _ModuleProxy(
                spectral.optimize,
                brentq=_brentq_wrapper(tracer, "spectral.scipy.brentq", spectral.optimize.brentq, True),
            ))
        )
    if hasattr(weights, "optimize"):
        direct.append(
            (weights, "optimize", _ModuleProxy(
                weights.optimize,
                brentq=_brentq_wrapper(tracer, "weights.scipy.brentq", weights.optimize.brentq, False),
            ))
        )

    profiles = _layer("profiles")
    for cls in vars(profiles).values():
        if not (inspect.isclass(cls) and cls.__module__ == profiles.__name__):
            continue
        for meth in PROFILE_EVALS:
            fn = cls.__dict__.get(meth)
            if inspect.isfunction(fn):
                direct.append((cls, meth, _count_wrapper(tracer, "profiles.eval", fn, points=True)))

    grid_cls = getattr(_layer("grids"), "Grid", None)
    if grid_cls is not None:
        for attr, raw in list(vars(grid_cls).items()):
            if attr.startswith("_"):
                continue
            if isinstance(raw, classmethod):
                span = _span_wrapper(tracer, f"grids.{attr}", raw.__func__)
                direct.append((grid_cls, attr, classmethod(span)))
            elif inspect.isfunction(raw):
                direct.append((grid_cls, attr, _span_wrapper(tracer, f"grids.{attr}", raw)))

    undo = []
    for owner, attr, wrapper in direct:
        undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)
    for mod in _modules():
        for attr, value in list(vars(mod).items()):
            hit = replace.get(id(value))
            if hit is not None and hit[0] is value:
                undo.append((mod, attr, value))
                setattr(mod, attr, hit[1])

    def restore():
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)

    return restore


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

# (metric name, unit); every name is printed on every workload, 0 where idle.
SPAN_FIELDS = (
    ("kernels.tridiag_inertia_shifted", ("calls", "self_s")),
    ("spectral.smallest_generalized_mu", ("calls", "self_s")),
    ("spectral.hardy_constant", ("self_s",)),
    ("kernels.tridiag_inertia", ("calls", "self_s")),
    ("spectral.assemble_mode", ("calls", "self_s")),
    ("spectral.count_negative", ("self_s",)),
    ("spectral.mode_truncation", ("self_s",)),
    ("kernels.prufer_sweep", ("calls", "self_s")),
    ("spectral.prufer_count", ("self_s",)),
    ("spectral.phase_integral_count", ("calls", "self_s")),
    ("spectral.scipy.quad", ("calls", "self_s")),
    ("spectral.scipy.brentq", ("calls", "self_s")),
    ("weights.v_norm_a", ("calls", "self_s")),
    ("weights.threshold_curve", ("self_s",)),
    ("counting.count_total", ("calls", "self_s")),
    ("counting.sweep_exponent", ("self_s",)),
    ("counting.bound_jst", ("self_s",)),
    ("counting.verify_counting_bound", ("self_s",)),
    ("cli.write_report", ("self_s",)),
)

COUNTER_METRICS = (
    "kernels.tridiag_inertia_shifted.rows",
    "kernels.tridiag_inertia.rows",
    "kernels.zero_pivots",
    "kernels.prufer_sweep.fails",
    "profiles.eval.calls",
    "profiles.eval.points",
    "weights.level_set.calls",
    "weights.scipy.brentq.calls",
    "weights.scipy.brentq.errors",
    "counting.modes_evaluated",
)

# Groups of spans whose covered wall time, as a share of the traced passes,
# shows which layer a workload exercises.
SHARES = {
    "share.hardy_bisection": ("spectral.smallest_generalized_mu",),
    "share.phase_path": ("counting.count_total[phase]",),
    "share.grid_count_path": ("counting.count_total[inertia]", "counting.count_total[prufer]"),
    "share.kernels": ("kernels.",),
    "share.spectral": ("spectral.",),
    "share.weights": ("weights.",),
    "share.counting": ("counting.",),
    "share.quadform": ("quadform.",),
    "share.grids": ("grids.",),
    "share.cli": ("cli.",),
}


def _matches(name, patterns):
    return any(name == p or (p.endswith(".") and name.startswith(p)) for p in patterns)


def metric_units():
    """Every per-layer metric name with its unit, in print order."""
    units = {}
    for name, fields in SPAN_FIELDS:
        for f in fields:
            units[f"{name}.{f}"] = "count" if f == "calls" else "s"
    for name in COUNTER_METRICS:
        units[name] = "count"
    units.update(
        {
            "spectral.bisection_steps_per_solve": "steps",
            "profiles.eval.points_per_call": "points",
            "counting.pool_threads": "count",
            "counting.modes_nonzero_ratio": "ratio",
            "quadform.self_s": "s",
            "grids.self_s": "s",
            "cli.interp_s": "s",
            "cli.import_s": "s",
            "cli.startup_s": "s",
            "cli.compute_s": "s",
            "cli.nonzero_exits": "count",
            "trace.overhead_ratio": "ratio",
        }
    )
    for name in SHARES:
        units[name] = "ratio"
    return units


def span_metrics(spans, counters, traced_wall):
    """Per-pass layer metrics from the traced passes.

    ``traced_wall`` is the list of traced pass wall times; counts and self
    times are divided by the number of traced passes.
    """
    passes = max(len(traced_wall), 1)
    selfs = self_times(spans)
    calls, self_s = {}, {}
    for s in spans:
        base = s.name.split("[")[0]
        calls[base] = calls.get(base, 0) + 1
        self_s[base] = self_s.get(base, 0.0) + selfs[s.id]
    out = {}
    for name, fields in SPAN_FIELDS:
        if "calls" in fields:
            out[f"{name}.calls"] = calls.get(name, 0) / passes
        if "self_s" in fields:
            out[f"{name}.self_s"] = self_s.get(name, 0.0) / passes
    for name in COUNTER_METRICS:
        out[name] = counters.get(name, 0) / passes
    solves = calls.get("spectral.smallest_generalized_mu", 0)
    out["spectral.bisection_steps_per_solve"] = (
        calls.get("kernels.tridiag_inertia_shifted", 0) / solves if solves else 0.0
    )
    evals = counters.get("profiles.eval.calls", 0)
    out["profiles.eval.points_per_call"] = counters.get("profiles.eval.points", 0) / evals if evals else 0.0
    out["counting.pool_threads"] = len({s.tid for s in spans if s.name.startswith(("counting.", "spectral.", "kernels."))})
    modes = counters.get("counting.modes_evaluated", 0)
    out["counting.modes_nonzero_ratio"] = counters.get("counting.modes_nonzero", 0) / modes if modes else 0.0
    for layer in ("quadform", "grids"):
        out[f"{layer}.self_s"] = sum(v for k, v in self_s.items() if k.startswith(layer + ".")) / passes
    total_wall = sum(traced_wall)
    for share, patterns in SHARES.items():
        covered = union_length((s.start, s.end) for s in spans if _matches(s.name, patterns))
        out[share] = covered / total_wall if total_wall > 0 else 0.0
    return out

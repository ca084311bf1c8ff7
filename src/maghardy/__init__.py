"""Numerics for two-dimensional magnetic Hardy inequalities.

Flux profiles and Hardy weights for radial magnetic fields, quadratic-form
probes for weight optimality at zero and at infinity, per-mode
Sturm-Liouville counting of negative eigenvalues, and strong-coupling
sweeps — all in the log coordinate t = log r so that borderline potentials
with structure at radii like e^{-1e6} remain representable.

Each public name loads its submodule on first use (PEP 562), so a caller,
and a CLI subcommand, pays only for the modules it runs.
"""

from importlib import import_module as _import_module

_EXPORTS = {
    "grids": "Grid",
    "profiles": "BumpField CustomField CustomPotential GaussianWell LogLogPowerField "
    "LogPowerField Potential RadialField ScaledPotential StepWell SumField VSigma ZeroField "
    "ZeroPotential flux flux_quadrature phi singularity_class",
    "weights": "AharonovBohmWeight CustomWeight FluxAugmentedWeight LevelSet LogPowerWeight "
    "LogSquaredWeight ShiftedLogWeight Weight eval_weight level_set log_moment select_eta_log "
    "v_norm_a",
    "quadform": "CustomTestFunction ModeBump OriginProbe TailProbe check_f_identity "
    "fit_loglog_slope hardy_probe_at_zero infinity_probe lambda_bounds_check qform "
    "qform_checked radial_1d_inequality_check slow_log_weight weighted_norm",
    "spectral": "HardyEstimate ModeOperator assemble_mode count_modes count_negative "
    "hardy_constant mode_truncation phase_integral_count phase_integral_counts prufer_count",
    "counting": "BoundValue CountReport SweepResult bound_jst count_ladder count_total "
    "sweep_exponent verify_counting_bound",
}
_SUBMODULES = ("errors", *_EXPORTS)
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted([*_SUBMODULES, *_HOME])
__version__ = "0.1.0"


def __getattr__(name):
    # Not cached: each access reads the submodule's attribute, so a wrapper
    # set on the submodule shows here and leaves with it.
    if name in _SUBMODULES:
        return _import_module(f"{__name__}.{name}")
    if name in _HOME:
        return getattr(_import_module(f"{__name__}.{_HOME[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})

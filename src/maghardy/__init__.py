"""Numerics for two-dimensional magnetic Hardy inequalities.

Flux profiles and Hardy weights for radial magnetic fields, quadratic-form
probes for weight optimality at zero and at infinity, per-mode
Sturm-Liouville counting of negative eigenvalues, and strong-coupling
sweeps — all in the log coordinate t = log r so that borderline potentials
with structure at radii like e^{-1e6} remain representable.
"""

from .grids import Grid
from .profiles import (
    BumpField,
    CustomField,
    CustomPotential,
    GaussianWell,
    LogLogPowerField,
    LogPowerField,
    Potential,
    RadialField,
    ScaledPotential,
    StepWell,
    SumField,
    VSigma,
    ZeroField,
    ZeroPotential,
    flux,
    flux_quadrature,
    phi,
    singularity_class,
)
from .weights import (
    AharonovBohmWeight,
    CustomWeight,
    FluxAugmentedWeight,
    LevelSet,
    LogPowerWeight,
    LogSquaredWeight,
    ShiftedLogWeight,
    Weight,
    eval_weight,
    level_set,
    log_moment,
    select_eta_log,
    v_norm_a,
)
from .quadform import (
    CustomTestFunction,
    ModeBump,
    OriginProbe,
    TailProbe,
    check_f_identity,
    fit_loglog_slope,
    hardy_probe_at_zero,
    infinity_probe,
    lambda_bounds_check,
    qform,
    qform_checked,
    radial_1d_inequality_check,
    slow_log_weight,
    weighted_norm,
)
from .spectral import (
    HardyEstimate,
    ModeOperator,
    assemble_mode,
    count_modes,
    count_negative,
    hardy_constant,
    mode_truncation,
    phase_integral_count,
    phase_integral_counts,
    prufer_count,
)
from .counting import (
    BoundValue,
    CountReport,
    SweepResult,
    bound_jst,
    count_ladder,
    count_total,
    sweep_exponent,
    verify_counting_bound,
)

__version__ = "0.1.0"

"""End-to-end negative-eigenvalue counting for (i grad + A)^2 - lam V.

Per-mode counts (inertia, oscillation, or phase-integral) are truncated at
the mode bound and summed.  A coupling ladder is counted by ``count_ladder``
in one batched phase-integral call (inertia and oscillation counts go
coupling by coupling); ``count_total`` is its one-coupling case.  Coupling
sweeps fit the growth exponent of N(lam) on the largest decade with at least
10 eigenvalues.  The integral bound
int V_+ (1 + |log r|) r dr up to r = e^30 (on the sin^2-mapped Gauss panels,
its deep tail in s = log|t|) and the sup-functional route are provided for
bound verification.  Both detect divergence for borderline potentials by
the one cap sweep of ``weights``: the caps and the 1% saturation rule.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InsufficientGrowth
from .grids import Grid
from .profiles import Potential, RadialField
from .spectral import (
    _check_coupling,
    count_modes,
    forbidden_margin,
    mode_truncation,
    phase_integral_counts,
    prufer_count,
)
from .weights import _T_MAX, _caps, _saturation, _sin2_gauss_panels, v_norm_a

METHOD_INERTIA = "inertia"
METHOD_PRUFER = "prufer"
METHOD_PHASE = "phase"


@dataclass(frozen=True)
class CountReport:
    lam: float
    per_mode: dict
    m_max: int
    total: float
    method: str
    grid_meta: dict | None
    forbidden_margin: float | None

    def as_dict(self):
        return {
            "lambda": self.lam,
            "per_mode": {str(k): v for k, v in self.per_mode.items()},
            "m_max": self.m_max,
            "total": self.total,
            "method": self.method,
            "grid": self.grid_meta,
            "forbidden_margin": self.forbidden_margin,
        }


@dataclass(frozen=True)
class SweepResult:
    reports: tuple
    fitted_exponent: float
    fit_window: tuple
    residual: float

    def as_dict(self):
        return {
            "reports": [r.as_dict() for r in self.reports],
            "fitted_exponent": self.fitted_exponent,
            "fit_window": list(self.fit_window),
            "residual": self.residual,
        }


def count_total(
    field: RadialField,
    V: Potential,
    lam: float,
    grid: Grid | None,
    method: str = METHOD_INERTIA,
) -> CountReport:
    """Mode-truncated total count for coupling lam by the chosen method.

    Inertia and oscillation counts require a grid (Dirichlet-truncated
    domain; omitted regions only ever under-count).  The phase method also
    accepts grid=None, in which case it integrates to the true turning
    points — the regime used for strong-coupling exponent fits.  This is the
    one-coupling case of ``count_ladder``.
    """
    return count_ladder(field, V, [lam], grid, method)[0]


def count_ladder(
    field: RadialField,
    V: Potential,
    lams,
    grid: Grid | None,
    method: str = METHOD_INERTIA,
) -> list[CountReport]:
    """``count_total`` for every coupling of a ladder, in order.

    Every coupling is checked before any count runs.  The phase method makes
    one ``phase_integral_counts`` call for the whole ladder; inertia and
    oscillation counts run coupling by coupling.  With grid=None the mode
    truncation of every coupling reads one probe grid.
    """
    lams = list(lams)
    _check_coupling(*lams)
    if method not in (METHOD_INERTIA, METHOD_PRUFER, METHOD_PHASE):
        raise ValueError(f"unknown method {method!r}")
    if grid is None and method != METHOD_PHASE:
        raise ValueError("inertia and oscillation methods require a grid")
    grid_meta = grid.meta() if grid else None
    live = [lam for lam in lams if lam != 0.0]
    truncation_grid = grid
    if grid is None and live:
        truncation_grid = Grid.auto(-1e7, 1.0, 2000)
    m_max = [mode_truncation(field, V, truncation_grid, lam) for lam in live]
    modes = [list(range(-m, m + 1)) for m in m_max]

    if method == METHOD_INERTIA:
        counts = [count_modes(field, V, ms, grid, lam) for lam, ms in zip(live, modes)]
    elif method == METHOD_PRUFER:
        span = (grid.t_min, grid.t_max)
        counts = [
            [prufer_count(field, V, m, span, lam=lam) for m in ms] for lam, ms in zip(live, modes)
        ]
    else:
        dom = (grid.t_min, grid.t_max) if grid is not None else None
        counts = phase_integral_counts(field, V, list(zip(live, modes)), t_domain=dom)

    def report(lam, m, ms, per_lam):
        per_mode = dict(zip(ms, per_lam))
        total = sum(per_mode.values())
        margin = None
        if grid is not None and ms:
            margin = forbidden_margin(field, V, grid, lam, ms)
        return CountReport(
            lam=float(lam),
            per_mode=per_mode,
            m_max=m,
            total=total if method == METHOD_PHASE else int(total),
            method=method,
            grid_meta=grid_meta,
            forbidden_margin=margin,
        )

    reports = map(report, live, m_max, modes, counts)
    return [
        CountReport(0.0, {}, 0, 0, method, grid_meta, None) if lam == 0.0 else next(reports)
        for lam in lams
    ]


# ---------------------------------------------------------------------------
# Integral bound and its verification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundValue:
    value: float
    unbounded: bool
    cap_sequence: tuple

    def as_dict(self):
        return {
            "value": self.value,
            "unbounded": self.unbounded,
            "cap_sequence": [list(x) for x in self.cap_sequence],
        }


def _log_weight_integral(V: Potential, t_min: float, t_max: float) -> float:
    """int V_+(t) e^{2t} (1+|t|) dt on Gauss panels; the tail below -e runs in
    s = log|t|, and in both coordinates the panels end at the support edge,
    where V_+ may jump."""
    sup = V.support_t_max

    def integral(lo, hi, edge, density):
        pts = np.unique([lo, hi] + ([edge] if lo < edge < hi else []))
        return float(np.sum(_sin2_gauss_panels(lambda x, _: density(x), pts[:-1], pts[1:])))

    def tail(s):
        t = -np.exp(s)
        return V.vplus_density(t) * (1.0 + np.abs(t)) * np.exp(s)

    t_inner = max(t_min, -np.e)
    total = 0.0
    if t_min < -np.e:
        edge = np.log(-sup) if sup is not None and sup < -np.e else np.nan
        total += integral(1.0, np.log(-t_min), edge, tail)
    edge = np.nan if sup is None else sup
    return total + integral(t_inner, t_max, edge, lambda t: V.vplus_density(t) * (1.0 + np.abs(t)))


def bound_jst(V: Potential, t_min_cap: float = -1e4, cap_doublings: int = 3) -> BoundValue:
    """Constant-free value of int V_+ (1 + |log r|) r dr with cap sweep.

    The integral runs from each lower cap of ``v_norm_a``'s doubling sweep up
    to r = e^30.  The ``unbounded`` flag is raised when every doubling still
    grows the value by 1% or more — the signature of the borderline
    potentials this bound cannot handle.
    """
    caps = _caps(t_min_cap, cap_doublings)
    values = [_log_weight_integral(V, cap, _T_MAX) for cap in caps]
    _, unbounded = _saturation(values, "log-weighted potential integral grows without saturating")
    return BoundValue(
        value=float(values[-1]),
        unbounded=unbounded,
        cap_sequence=tuple(zip(caps, values)),
    )


def verify_counting_bound(
    field: RadialField,
    V: Potential,
    a: float,
    lambda_list,
    method: str = METHOD_PHASE,
    grid: Grid | None = None,
    t_min_cap: float = -1e4,
):
    """Table of (lam, N, [lam V]_a^a, ratio) over the coupling ladder.

    The sup-functional is evaluated once and scaled by homogeneity
    [lam V]_a = lam [V]_a; the ratio N / [lam V]_a^a estimates the bound
    constant from below and must stay bounded along the ladder.
    """
    base = v_norm_a(V, a, t_min_cap=t_min_cap)
    lams = list(lambda_list)
    reports = count_ladder(field, V, [float(lam) for lam in lams], grid, method=method)
    rows = []
    for lam, rep in zip(lams, reports):
        denom = (lam * base.value) ** a
        ratio = rep.total / denom if denom > 0 else 0.0
        rows.append(
            {
                "lambda": float(lam),
                "N": rep.total,
                "va_pow_a": float(denom),
                "ratio": float(ratio),
            }
        )
    return {"rows": rows, "v_norm": base.as_dict(), "a": a}


def sweep_exponent(
    field: RadialField,
    V: Potential,
    lambda_list,
    method: str = METHOD_PHASE,
    grid: Grid | None = None,
) -> SweepResult:
    """Fit the growth exponent of log N against log lam.

    The ladder must be geometric with at least 5 points; the fit window is
    the largest decade of the ladder on which every count is >= 10.
    """
    lams = np.asarray(sorted(float(x) for x in lambda_list))
    if lams.size < 5:
        raise ValueError("need at least 5 ladder points")
    ratios = lams[1:] / lams[:-1]
    if np.max(ratios) / np.min(ratios) > 1.2:
        raise ValueError("ladder must be geometric")

    reports = count_ladder(field, V, lams, grid, method=method)
    totals = np.array([r.total for r in reports], dtype=float)

    eligible = totals >= 10.0
    if not np.any(eligible):
        raise InsufficientGrowth("counts stayed below 10 over the whole ladder")
    window = None
    for hi in range(lams.size - 1, -1, -1):
        lo_val = lams[hi] / 10.0
        sel = (lams >= lo_val * (1 - 1e-9)) & (lams <= lams[hi])
        if np.sum(sel) >= 2 and np.all(totals[sel] >= 10.0):
            window = sel
            break
    if window is None:
        window = eligible
    x = np.log(lams[window])
    y = np.log(totals[window])
    slope, intercept = np.polyfit(x, y, 1)
    resid = float(np.sqrt(np.mean((y - (slope * x + intercept)) ** 2)))
    return SweepResult(
        reports=tuple(reports),
        fitted_exponent=float(slope),
        fit_window=(float(np.exp(x[0])), float(np.exp(x[-1]))),
        residual=resid,
    )

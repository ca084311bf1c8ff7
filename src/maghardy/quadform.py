"""Quadratic-form evaluation in the single-mode reduction, plus probes.

For u(r, theta) = f(r) e^{i m theta} and a radial field in the azimuthal
gauge, the magnetic Dirichlet form collapses to

    Q[u] = 2 pi * int ( |d f/dt|^2 + (m - alpha(t))^2 |f|^2 ) dt,

with t = log r.  The derivative term is computed cell-wise from node
differences (exact for piecewise-linear samples, O(h^2) for smooth ones);
zero-order terms use the trapezoid rule; ``qform_checked`` accepts a value
when the midpoint-refined grid agrees to 1e-6 relative.  The probes below
drive explicit test-function families through this form, each on its own
fixed grid, to exhibit the failure of too-singular weights at the origin and
of too-slow log weights at infinity.
"""

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    FluxNotInteger,
    ParameterError,
    PreconditionError,
    QuadratureFailure,
    SupportError,
)
from .grids import Grid
from .profiles import RadialField, _as_array
from .weights import CustomWeight, LogPowerWeight, Weight


class TestFunction:
    """Radial profile f(t) in a single angular mode m, compactly supported."""

    m = 0

    def values(self, t):
        raise NotImplementedError


@dataclass(frozen=True)
class ModeBump(TestFunction):
    """Polynomial bump (1-x^2)^2 on (t_lo, t_hi), mode m."""

    m: int = 0
    t_lo: float = -1.0
    t_hi: float = 1.0

    def values(self, t):
        t = _as_array(t)
        x = (2.0 * t - (self.t_lo + self.t_hi)) / (self.t_hi - self.t_lo)
        inside = np.abs(x) < 1.0
        out = np.zeros_like(t)
        out[inside] = (1.0 - x[inside] ** 2) ** 2
        return out


@dataclass(frozen=True)
class OriginProbe(TestFunction):
    """|t|^alpha on [t_cut, 0), ramped linearly to zero on [2 t_cut, t_cut]; mode 0.

    This is the log-power family that witnesses the failure of weights more
    singular than 1/(r^2 log^2 r) at the origin.  The inner tail is replaced
    by an O(|t_cut|)-wide linear ramp whose derivative cost vanishes as
    |t_cut| grows, matching the H^1-convergent tail it stands in for.
    """

    alpha: float
    t_cut: float

    def __post_init__(self):
        if not (0.0 < self.alpha < 0.5):
            raise ParameterError("alpha must lie in (0, 1/2) for an H^1 probe")
        if self.t_cut >= 0.0:
            raise ParameterError("t_cut must be negative")

    def values(self, t):
        t = _as_array(t)
        out = np.zeros_like(t)
        core = (t >= self.t_cut) & (t < 0.0)
        out[core] = np.abs(t[core]) ** self.alpha
        ramp = (t >= 2.0 * self.t_cut) & (t < self.t_cut)
        peak = np.abs(self.t_cut) ** self.alpha
        out[ramp] = peak * (t[ramp] - 2.0 * self.t_cut) / (-self.t_cut)
        return out


@dataclass(frozen=True)
class TailProbe(TestFunction):
    """(log_+ r)^{a/2} log_+(n/r)/log n in mode m; support 0 <= t <= log n."""

    n: float
    alpha_exp: float
    m: int = 0

    def __post_init__(self):
        if self.n < 2:
            raise ParameterError("n must be at least 2")
        if self.alpha_exp >= 1.0:
            raise ParameterError("alpha_exp must be below 1")

    @property
    def log_n(self):
        return float(np.log(self.n))

    def values(self, t):
        t = _as_array(t)
        L = self.log_n
        out = np.zeros_like(t)
        inside = (t > 0.0) & (t < L)
        out[inside] = t[inside] ** (0.5 * self.alpha_exp) * (L - t[inside]) / L
        return out


@dataclass(frozen=True)
class CustomTestFunction(TestFunction):
    """Arbitrary callable profile in a declared mode."""

    fn: object
    m: int = 0

    def values(self, t):
        return np.asarray(self.fn(_as_array(t)), dtype=float)


@dataclass(frozen=True)
class QuadFormValue:
    radial_part: float
    angular_part: float

    @property
    def total(self):
        return self.radial_part + self.angular_part


def _sampled(u: TestFunction, grid: Grid):
    vals = u.values(grid.t)
    if abs(vals[0]) > 0 or abs(vals[-1]) > 0:
        raise SupportError(
            f"test function is nonzero at the grid boundary "
            f"({grid.t_min:.3g}, {grid.t_max:.3g})"
        )
    return vals


def qform(field: RadialField, u: TestFunction, grid: Grid) -> QuadFormValue:
    """Single-mode magnetic form 2 pi * int (|u'|^2 + (m-alpha)^2 u^2) dt."""
    vals = _sampled(u, grid)
    h = grid.steps
    radial = float(np.sum(np.diff(vals) ** 2 / h))
    lam2 = (u.m - field.alpha(grid.t)) ** 2  # the squared angular eigenvalue
    angular = float(np.trapezoid(lam2 * vals**2, grid.t))
    return QuadFormValue(2.0 * np.pi * radial, 2.0 * np.pi * angular)


def qform_checked(field, u, grid):
    """qform with a Richardson consistency check on the midpoint-refined grid.

    Returns the refined value; raises QuadratureFailure when the two levels
    disagree by more than 1e-6 relative.  Only meaningful for profiles smooth
    on the grid.
    """
    coarse = qform(field, u, grid).total
    fine = qform(field, u, grid.refine())
    if abs(fine.total - coarse) > 1e-6 * max(abs(fine.total), 1e-300):
        raise QuadratureFailure(
            f"composite quadrature not converged: {coarse!r} vs {fine.total!r}"
        )
    return fine


def weighted_norm(u: TestFunction, w: Weight, grid: Grid) -> float:
    """2 pi * int w(t) |u|^2 e^{2t} dt over the grid."""
    vals = u.values(grid.t)
    return float(2.0 * np.pi * np.trapezoid(w.mass_density(grid.t) * vals**2, grid.t))


# ---------------------------------------------------------------------------
# Algebraic identity and sandwich probes
# ---------------------------------------------------------------------------


def check_f_identity(r0: float, grid: Grid) -> float:
    """Max relative residual of f' + f/r - f^2 = 1/(4 r^2 log^2(r/r0)).

    f(r) = -1/(2 r log(r/r0)), differentiated analytically.  The grid is in
    t = log r and must avoid r = r0.
    """
    t = grid.t
    if np.any(np.abs(t - np.log(r0)) < 1e-12):
        raise ValueError("grid touches r = r0 where f is singular")
    r = np.exp(t)
    L = t - np.log(r0)  # log(r/r0)
    f = -1.0 / (2.0 * r * L)
    fp = (L + 1.0) / (2.0 * r**2 * L**2)
    lhs = fp + f / r - f**2
    rhs = 1.0 / (4.0 * r**2 * L**2)
    return float(np.max(np.abs(lhs - rhs) / np.abs(rhs)))


def lambda_bounds_check(m, alpha) -> bool:
    """Sandwich (m^2+alpha^2)/2 <= (m-alpha)^2 <= 2(m^2+alpha^2) for |alpha|<=1/4."""
    m = np.asarray(m, dtype=float)
    alpha = np.asarray(alpha, dtype=float)
    if np.any(np.abs(alpha) > 0.25):
        raise PreconditionError("the sandwich is only guaranteed for |alpha| <= 1/4")
    lam2 = (m - alpha) ** 2
    base = m * m + alpha * alpha
    return bool(np.all(0.5 * base <= lam2) and np.all(lam2 <= 2.0 * base))


# ---------------------------------------------------------------------------
# Optimality probes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProbeRecord:
    parameter: float
    numerator: float
    denominator: float

    @property
    def ratio(self):
        return self.numerator / self.denominator


def hardy_probe_at_zero(
    field: RadialField, b: float, alpha: float, cut_list: Sequence[float]
) -> list[ProbeRecord]:
    """Weighted-norm / form ratios of the origin probe for weight 1/(r^2|log r|^b).

    The grid is geometric in |t| on [-2.5 max|t_cut|, -1e-3] (4096 nodes)
    plus a corner up to t = 0.

    For b < 2 and alpha in ((b-1)/2, 1/2) the ratio diverges like
    |t_cut|^{2 alpha - b + 1} (no Hardy inequality with that weight); for
    b >= 2 the same probe saturates.  The closed-form antiderivatives of both
    sides are the oracle for the growth exponent.
    """
    if not (0.0 < alpha < 0.5):
        raise ParameterError("alpha must lie in (0, 1/2); the probe needs u in H^1")
    cuts = [float(k) for k in cut_list]
    if any(k <= 0 for k in cuts):
        raise ParameterError("cut list entries are |t_cut| values and must be positive")
    grid = Grid.concat(Grid.geometric(-2.5 * max(cuts), -1e-3, 4096), Grid.uniform(-1e-3, 0.0, 3))
    w = LogPowerWeight(b)
    neg = Grid(grid.t[grid.t < 0.0])
    records = []
    for k in cuts:
        u = OriginProbe(alpha=alpha, t_cut=-k)
        num = weighted_norm(u, w, neg)
        den = qform(field, u, grid).total
        records.append(ProbeRecord(parameter=k, numerator=num, denominator=den))
    return records


def infinity_probe(
    field: RadialField, bad_weight: Weight, alpha_exp: float, n_list: Sequence[float]
) -> list[ProbeRecord]:
    """Tail-probe ladder u_n against a candidate weight at infinity.

    Requires integer total flux (within 1e-9); the probe is built in the mode
    matching the flux so the angular term vanishes outside the field support
    and Q[u_n] stays bounded, while for weights violating the log-moment
    criterion the weighted norm grows along the ladder.  The grid is uniform
    with step 0.01 on [-0.25, log max(n) + 0.5].
    """
    total = field.total_flux()
    if total is None:
        raise FluxNotInteger("field has no well-defined total flux")
    m = round(total)
    if abs(total - m) > 1e-9:
        raise FluxNotInteger(f"total flux {total} is not an integer")
    ns = [float(n) for n in n_list]
    t_hi = float(np.log(max(ns))) + 0.5
    grid = Grid.uniform(-0.25, t_hi, int(np.ceil((t_hi + 0.25) / 0.01)) + 1)
    records = []
    for n in ns:
        u = TailProbe(n=n, alpha_exp=alpha_exp, m=m)
        q = qform(field, u, grid).total
        wn = weighted_norm(u, bad_weight, grid)
        records.append(ProbeRecord(parameter=n, numerator=wn, denominator=q))
    return records


def slow_log_weight() -> Weight:
    """w1 = 1/(r^2 log r loglog r) for log r >= 2, zero below.

    The canonical weight that decays too slowly at infinity: its log-moment
    with exponent 1 diverges, and the tail probe exhibits the divergence.
    """
    def density(t):
        t = _as_array(t)
        out = np.zeros_like(t)
        mask = t >= 2.0
        out[mask] = 1.0 / (t[mask] * np.log(t[mask]))
        return out

    return CustomWeight(density=density, kind="slow_log")


def fit_loglog_slope(xs, ys) -> float:
    """Least-squares slope of log y against log x.  ValueError unless the x
    are at least two distinct positive finite values and every y is positive
    and finite: otherwise the fit is rank-deficient or takes a log of 0."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    srt = np.sort(xs)
    if not (xs.size >= 2 and 0.0 < srt[0] and srt[-1] < np.inf and np.all(srt[1:] > srt[:-1])):
        raise ValueError("x must hold at least two distinct positive finite values")
    if not (ys.shape == xs.shape and np.all((ys > 0.0) & (ys < np.inf))):
        raise ValueError("y must hold one positive finite value per x")
    return float(np.polyfit(np.log(xs), np.log(ys), 1)[0])


def radial_1d_inequality_check(samples: Sequence[TestFunction]) -> float:
    """min over samples of [int |f'|^2 r dr + 1/2 int_0^e |f|^2 r dr] / RHS,

    RHS = int_e^inf |f|^2 / (r log^2 r) dr.  In t the three pieces are
    int |f_t|^2 dt, int_{t<=1} f^2 e^{2t} dt and int_{t>=1} f^2/t^2 dt, on
    the uniform grid of 4801 nodes over [-8, 16].  Samples whose RHS vanishes
    (support inside r < e) are excluded.
    """
    grid = Grid.uniform(-8.0, 16.0, 4801)
    t = grid.t
    h = grid.steps
    inner = t <= 1.0
    outer = t >= 1.0
    t2_outer = t[outer] ** 2
    best = np.inf
    for f in samples:
        vals = f.values(t)
        stiff = float(np.sum(np.diff(vals) ** 2 / h))
        lhs = stiff + 0.5 * float(
            np.trapezoid(np.where(inner, vals**2 * np.exp(2.0 * t), 0.0), t)
        )
        # the quotient only on t >= 1: t = 0 may be a node
        tail = np.zeros_like(t)
        tail[outer] = vals[outer] ** 2 / t2_outer
        rhs = float(np.trapezoid(tail, t))
        if rhs <= 1e-12 * max(lhs, 1.0):
            continue
        best = min(best, lhs / rhs)
    return float(best)

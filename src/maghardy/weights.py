"""Hardy weight families, level sets, and the capped sup-functional.

Weights are radial, and every family is given by one formula: its "mass
density" w(e^t) e^{2t}, which is the factor multiplying |u(t)|^2 dt in
weighted norms after the change of variables r dr -> e^{2t} dt.  The mass
density is the overflow-safe form (e.g. the baseline log-squared weight has
mass density 1/(1+t^2)); the raw value w(r) = mass density * e^{-2t} is
derived from it once, in ``Weight.value``.

The sup-functional over thresholds tau,

    ([V]_a)^a = sup_{tau>0} tau^a * int_{ {V > tau w0} } w0(r) (1+|log r|) r dr

with w0 the baseline weight, is evaluated from one scan of V/w0 per cap.  A
batch of thresholds searches only the scan segments whose value range meets
the batch's threshold range, a bracketed root solve refines all their
crossings, and the measures are closed form.  A geometric tau grid brackets
the best tau, a zoom of 32 log-spaced thresholds per round narrows the
bracket, and sweeping the lower domain cap detects divergence.  DomainError
is raised where the grid's top threshold, or tau^a times a positive
measure, is not finite.  The scans of a sweep's caps are one table, and
each round makes one bracket search, root solve and zoom step for every
cap still searching.

One cap sweep serves this functional and ``counting.bound_jst``: the caps
(``_caps``), the 1% saturation rule (``_saturation``) and the upper end
t = 30 (r = e^30), or the potential's support edge, of every scan and bound
integral.

The sin^2-mapped Gauss panels (``_sin2_gauss_panels``) integrate every
closed-form density of the library: the log moments here, the phase
integral and the log-weighted potential bound.
"""

import functools
import warnings
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import DomainError, QuadratureFailure, ScanResolutionWarning, UnboundedWarning
from .grids import _sorted_unique
from .profiles import Potential, RadialField, _as_array, _resolve_t

# refinement limits per Gauss panel: halvings of one theta-interval, and
# intervals open at once (the old adaptive limit of 300 subintervals), which
# bounds memory
_MAX_HALVINGS = 50
_MAX_OPEN = 300
# interior thresholds per zoom round of the [V]_a search
_ZOOM_POINTS = 32
# upper end t = log r of every scan and bound integral: r = e^30
_T_MAX = 30.0
# lowest cap of a scan or a bound integral: down to it, t^2 and 1/t^2 are
# normal doubles
_CAP_FLOOR = -(2.0**510)
# a cap sweep saturates when its last step changes the value by less than 1%
_SATURATION_TOL = 0.01


class Weight:
    """Base class for radial weights w(r) > 0, accessed via t = log r; a
    family defines ``mass_density``, and the raw value is derived from it."""

    kind = "abstract"

    def mass_density(self, t):
        """w(e^t) e^{2t}, overflow-safe."""
        raise NotImplementedError

    def value(self, t):
        """Raw w(e^t) = mass_density(t) e^{-2t}; may overflow at extreme t."""
        t = _as_array(t)
        return self.mass_density(t) * np.exp(-2.0 * t)


@dataclass(frozen=True)
class LogSquaredWeight(Weight):
    """Baseline weight 1/(r^2 (1 + log^2 r)); mass density 1/(1+t^2)."""

    kind: ClassVar[str] = "log_squared"

    def mass_density(self, t):
        t = _as_array(t)
        return 1.0 / (1.0 + t * t)


@dataclass(frozen=True)
class LogPowerWeight(Weight):
    """1/(r^2 |log r|^b), defined away from r = 1 (t = 0)."""

    b: float
    kind: ClassVar[str] = "log_power"

    def mass_density(self, t):
        t = _as_array(t)
        if np.any(t == 0.0):
            raise DomainError("log-power weight is undefined at r = 1 (t = 0)")
        return np.abs(t) ** (-self.b)


@dataclass(frozen=True)
class FluxAugmentedWeight(Weight):
    """Baseline weight plus Phi^2 below the matching radius eta = e^{t_eta}.

    mass density = 1/(1+t^2) + alpha(t)^2 for t <= t_eta  (Phi^2 e^{2t}
    collapses to alpha^2, so the singular part never touches an exponential).
    The matching radius is carried in log units because the quarter-flux rule
    can place it at radii that underflow a linear float.
    """

    field: RadialField
    t_eta: float
    kind: ClassVar[str] = "flux_augmented"

    def mass_density(self, t):
        t = _as_array(t)
        base = 1.0 / (1.0 + t * t)
        a2 = self.field.alpha(t) ** 2
        return np.where(t <= self.t_eta, base + a2, base)


@dataclass(frozen=True)
class ShiftedLogWeight(Weight):
    """1/(r^2 [1 + (log_+(r0/r))^2]) for a matching radius r0 > 1."""

    r0: float
    kind: ClassVar[str] = "shifted_log"

    def __post_init__(self):
        if self.r0 <= 1.0:
            raise ValueError("r0 must exceed 1")

    def mass_density(self, t):
        t = _as_array(t)
        s = np.maximum(np.log(self.r0) - t, 0.0)
        return 1.0 / (1.0 + s * s)


@dataclass(frozen=True)
class AharonovBohmWeight(Weight):
    """min_k |mu - k|^2 / r^2 — the point-flux weight."""

    mu: float
    kind: ClassVar[str] = "aharonov_bohm"

    @property
    def coefficient(self):
        frac = self.mu - np.floor(self.mu)
        return float(min(frac, 1.0 - frac) ** 2)

    def mass_density(self, t):
        t = _as_array(t)
        return np.full_like(t, self.coefficient)


@dataclass(frozen=True)
class CustomWeight(Weight):
    """Weight given by a closed-form mass density callable."""

    density: object
    kind: str = "custom"

    def mass_density(self, t):
        return self.density(_as_array(t))


def eval_weight(w: Weight, t=None, r=None):
    """Raw weight value at t = log r (pass exactly one of t, r)."""
    return w.value(_resolve_t(t, r))


def select_eta_log(field: RadialField) -> float:
    """Quarter-flux matching radius in log units: the largest t_eta <= 0 with
    sup_{s <= t_eta + log 2} |alpha(s)| <= 1/4, found by bisection on
    [-1e9, 0].

    Returned in log units (eta = e^{t_eta}) since slowly decaying fluxes
    push the matching radius to radii that underflow a linear float.
    """
    t_lo, t_hi = -1e9, 0.0

    def sup_alpha(t):
        s = np.linspace(min(t_lo, t + np.log(2.0) - 1.0), t + np.log(2.0), 4096)
        return float(np.max(np.abs(field.alpha(s))))

    if sup_alpha(t_hi) <= 0.25:
        return float(t_hi)
    lo, hi = t_lo, t_hi
    if sup_alpha(lo) > 0.25:
        raise ValueError("flux exceeds 1/4 even at the lower search bound")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if sup_alpha(mid) <= 0.25:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-12 * max(1.0, abs(lo)):
            break
    return float(lo)


# ---------------------------------------------------------------------------
# Level sets of V / w0 and the capped sup-functional
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LevelSet:
    """t-intervals where the ratio V/w0 exceeds a threshold.

    ``truncated_left`` is set when the region still exceeded the threshold at
    the lower scan cap (the interval is cut off, not closed).
    """

    threshold: float
    intervals: tuple
    truncated_left: bool

    @property
    def is_empty(self):
        return len(self.intervals) == 0


_SMALLEST_SUBNORMAL = 5e-324


def _roots(ratio, a, b, fa, fb, tau):
    """Roots of ratio - tau in brackets [a, b] whose ends straddle tau, all at once.

    Illinois steps (regula falsi halving the end kept twice in a row) held
    tol/2 inside the bracket, so a step next to the root lands across it, and
    bisection where two steps did not halve the bracket.  Each bracket shrinks
    to brentq's tolerance 1e-9 + 8.9e-16 |t|; a last secant step through its
    ends gives the root.  Every step is finite: the end values have opposite
    signs, f1 > 0 is never halved, and the Illinois denominator is floored at
    the smallest subnormal.

    A converged bracket never moves again, so an open one moved an end at
    every step: the previous step's masks tell which (a NaN value moves
    neither end).  The ends are the two rows of one array each for x, f and
    g, updated in place.  The caps of a ``_LevelScan`` share one call, which
    works bracket by bracket, so each root is that of a solve of its own.
    """
    up = fa > 0
    X = np.array([np.where(up, b, a), np.where(up, a, b)])  # ratio <= tau at x0, > tau at x1
    F = np.array([np.where(up, fb, fa), np.where(up, fa, fb)])
    G = F.copy()  # the values the Illinois steps use, halved where an end is kept
    (x0, x1), (f0, f1), (g0, g1) = X, F, G
    moved = np.zeros(X.shape, bool)  # row 0 (1): the last step moved x0 (x1)
    h1 = h2 = np.full(up.shape, np.inf)  # half-widths one and two steps back
    while True:
        d = x1 - x0
        w, mid = np.abs(d), 0.5 * (x0 + x1)
        tol = 1e-9 + 8.9e-16 * np.abs(mid)
        active = w > tol
        if not active.any():
            return x0 - f0 * d / (f1 - f0)
        # g1 >= 0 >= g0 keeps the quotient below w + 0.5; the floor turns the
        # 0/0 of two values halved to 0 into a step to x0
        step = x0 - g0 * d / np.maximum(g1 - g0, _SMALLEST_SUBNORMAL)
        x = np.where(w > h2, mid, step)
        half = 0.5 * tol
        x = np.minimum(np.maximum(x, np.minimum(x0, x1) + half), np.maximum(x0, x1) - half)
        x = np.where(active, x, mid)  # converged brackets: evaluate inside, keep as is
        fx = ratio(x) - tau
        # halve the g of the end the last step kept: where this step moves
        # that end, the copy below replaces it, so only an end kept twice in
        # a row stays halved (a converged bracket's g is never used again)
        np.multiply(G, 0.5, out=G, where=moved[::-1])
        np.less_equal(fx, 0.0, out=moved[0])
        np.greater(fx, 0.0, out=moved[1])
        moved &= active
        np.copyto(X, x, where=moved)
        np.copyto(F, fx, where=moved)
        np.copyto(G, fx, where=moved)
        h1, h2 = 0.5 * w, h1


@functools.cache
def _gauss_legendre_24():
    """The 24-point Gauss-Legendre rule on [-1, 1], read-only.  Built on
    first use rather than at import: building it pages in numpy's LAPACK
    (about 1 MB of resident memory) and takes about 0.5 ms."""
    nodes, weights = np.polynomial.legendre.leggauss(24)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _sin2_gauss_panels(integrand, a, b):
    """Integrals of ``integrand`` over the panels [a_p, b_p], all at once.

    ``integrand(x, rows)`` takes flat points x, point j lying in panel
    ``rows[j]``.  Each panel is mapped by x = a + (b - a) sin^2(theta),
    theta in [0, pi/2], which makes square-root endpoint behaviour smooth.
    Every theta-interval is compared with the sum of its two 24-point Gauss
    halves; it is accepted where they differ by at most max(1e-11, 1e-10 |I|)
    and halved otherwise, and QuadratureFailure is raised when a panel needs
    more than 50 halvings or 300 open intervals.  Each interval reduces row
    by row and each panel adds its accepted intervals in a fixed order, so a
    panel's value does not depend on the other panels of the call.
    """
    width = b - a
    nodes, weights = _gauss_legendre_24()

    def rule(lo, hi, rows):
        half = 0.5 * (hi - lo)
        theta = (lo + half)[:, None] + half[:, None] * nodes
        s = np.sin(theta)
        x = a[rows, None] + width[rows, None] * (s * s)
        f = integrand(x.ravel(), np.repeat(rows, nodes.size)).reshape(x.shape)
        f = f * (width[rows, None] * np.sin(2.0 * theta))
        return half * np.sum(f * weights, axis=1)

    rows = np.arange(a.size)
    lo, hi = np.zeros(a.size), np.full(a.size, 0.5 * np.pi)
    whole = rule(lo, hi, rows)
    done_rows, done_vals = [rows[:0]], [whole[:0]]
    depth = 0
    while rows.size:
        if depth == _MAX_HALVINGS or np.bincount(rows).max() > _MAX_OPEN:
            p = int(np.argmax(np.bincount(rows)))
            raise QuadratureFailure(
                f"quadrature did not converge on [{float(a[p])!r}, {float(b[p])!r}] within "
                f"{_MAX_HALVINGS} halvings and {_MAX_OPEN} open intervals per panel"
            )
        mid = 0.5 * (lo + hi)
        n = rows.size
        halves = rule(np.concatenate([lo, mid]), np.concatenate([mid, hi]), np.tile(rows, 2))
        both = halves[:n] + halves[n:]
        ok = np.abs(both - whole) <= np.maximum(1e-11, 1e-10 * np.abs(both))
        done_rows.append(rows[ok])
        done_vals.append(both[ok])
        split = ~ok
        lo, hi = np.concatenate([lo[split], mid[split]]), np.concatenate([mid[split], hi[split]])
        whole = np.concatenate([halves[:n][split], halves[n:][split]])
        rows = np.tile(rows[split], 2)
        depth += 1
    return np.bincount(np.concatenate(done_rows), np.concatenate(done_vals), minlength=a.size)


def _ratio(V: Potential):
    """V/w0 = e^{2t} V (1 + t^2) as a function of t; DomainError where it is
    not finite."""

    def ratio(t):
        vals = V.vplus_density(t) * (1.0 + t * t)
        if not np.isfinite(vals).all():
            raise DomainError(f"V/w0 is not finite at t = {float(t[~np.isfinite(vals)][0])!r}")
        return vals

    return ratio


class _LevelScan:
    """The scans of V/w0 of the caps of a sweep, each from its cap to
    _T_MAX, and their level sets, as one table.

    A scan ends at V's support edge where that lies below _T_MAX (and at the
    cap where the edge lies at or below it): the edge is its last node, so a
    set that reaches the edge closes there exactly, with no root solve across
    the jump of V.  The table holds each cap's nodes and values in t order,
    padded on each side with a copy of its end node of value -inf, so an open
    end counts as a crossing and ends at that node.  Segment s joins entries
    s and s + 1; the one joining two caps has both values -inf and is never
    crossed.  The scans are built in cap order, so the first cap whose scan
    fails raises.

    ``levels(taus, caps)`` gives, for thresholds ``taus[r]`` of cap
    ``caps[r]``, the ends of all intervals of {V/w0 > tau} as one flat array
    (start, end, start, ...), each threshold's level-set measure and whether
    its set reaches the lower cap.  It makes one bracket search, one bracketed
    root solve and one sum of measures for every cap, and each root is that
    of a solve of its own.  A ScanResolutionWarning is emitted once for each
    cap whose thresholds hold a tau < rmax (that cap's scan maximum) that the
    midpoint-refined scan crosses another number of times.  A segment with
    node values lo <= hi is crossed iff lo <= tau < hi, and so is each half;
    with m its midpoint value, the halves cross as often as the segment except
    twice on [hi, m) if m > hi and on [m, lo) if m < lo.  So the counts
    differ exactly on these ``overshoot`` intervals, m clipped at rmax and
    empty ones dropped; each kept one has start < end, so #(starts <= tau) -
    #(ends <= tau) counts those holding tau.
    """

    def __init__(self, V: Potential, caps, scan_n: int = 4000):
        self.ratio = _ratio(V)
        sup = V.support_t_max
        ts, vs, rmax, self.overshoot = [], [], [], []
        for cap in caps:
            if cap < _CAP_FLOOR:
                raise ValueError(f"t_min_cap={cap!r} lies below -2^510, the lowest cap a scan takes")
            pieces = [np.linspace(max(cap, -2.0), _T_MAX, max(scan_n // 4, 16))]
            if cap < -2.0:
                pieces.insert(0, -np.geomspace(2.0, -cap, scan_n)[::-1])
            t = _sorted_unique(np.concatenate(pieces))
            # V vanishes past its support edge, so the scan ends there, no
            # lower than the cap
            end = _T_MAX if sup is None else max(min(_T_MAX, sup), cap)
            t = np.append(t[t < end], end)
            # nodes and midpoints interleaved in t order, so one ratio call
            # names the first non-finite t (a rounded midpoint lies between
            # its nodes unless their sum overflows, and the ratio rejects
            # that -inf)
            fine_t = np.empty(2 * t.size - 1)
            fine_t[0::2], fine_t[1::2] = t, 0.5 * (t[:-1] + t[1:])
            fine = self.ratio(fine_t)
            v, mid = fine[0::2], fine[1::2]
            ts.append(t)
            vs.append(v)
            rmax.append(np.max(v))
            lo, hi = np.minimum(v[:-1], v[1:]), np.maximum(v[:-1], v[1:])
            up, down = mid > hi, lo > mid
            start = np.concatenate([hi[up], mid[down]])
            stop = np.concatenate([np.minimum(mid[up], rmax[-1]), lo[down]])
            self.overshoot.append((np.sort(start[start < stop]), np.sort(stop[start < stop])))
        self.rmax = np.array(rmax)
        # cap k's entries are bounds[k] .. bounds[k + 1] - 1, its first node
        # bounds[k] + 1
        self.bounds = np.cumsum([0] + [t.size + 2 for t in ts])
        self.nodes, self.vals = nodes, vals = np.empty(self.bounds[-1]), np.empty(self.bounds[-1])
        for at, t, v in zip(self.bounds, ts, vs):
            end = at + t.size + 1
            nodes[at], nodes[at + 1 : end], nodes[end] = t[0], t, t[-1]
            vals[at], vals[at + 1 : end], vals[end] = -np.inf, v, -np.inf
        self.seg_lo, self.seg_hi = np.minimum(vals[:-1], vals[1:]), np.maximum(vals[:-1], vals[1:])

    def _rows(self, taus, caps):
        """Thresholds as one row per cap, and the caps; by default one row
        for every cap of the table."""
        caps = np.arange(self.rmax.size) if caps is None else np.asarray(caps)
        return np.asarray(taus, dtype=float).reshape(caps.size, -1), caps

    def brackets(self, taus, caps=None):
        """The segments each threshold crosses, in increasing order, their
        owners (indices into the flat ``taus``) and the root solve's (a, b,
        fa, fb, tau) of the crossings inside a segment of two nodes."""
        taus, caps = self._rows(taus, caps)
        m = taus.shape[1]
        order = np.argsort(taus, axis=1)
        st = taus[np.arange(caps.size)[:, None], order]  # each cap's thresholds in increasing order
        # np.searchsorted has no batched form, so each row searches its own
        # cap's segments and overshoot intervals; the rest is one array
        # program for all rows
        parts = []
        for r, k in enumerate(caps):
            start, end = self.overshoot[k]
            if start.size and np.any(np.searchsorted(start, st[r], "right") > np.searchsorted(end, st[r], "right")):
                msg = "ratio oscillates faster than the level-set scan grid"
                warnings.warn(msg, ScanResolutionWarning)
            # segment s of cap k is crossed by its thresholds of sorted rank
            # first_s .. first_s + hits_s - 1.  Only a segment whose value
            # range meets the cap's threshold range can be crossed.
            s0, s1 = self.bounds[k], self.bounds[k + 1] - 1
            cand = s0 + np.flatnonzero((self.seg_lo[s0:s1] <= st[r, -1]) & (self.seg_hi[s0:s1] > st[r, 0]))
            first = np.searchsorted(st[r], self.seg_lo[cand])
            hits = np.searchsorted(st[r], self.seg_hi[cand]) - first
            parts.append((cand, hits, first + r * m))
        # owner is each crossing's threshold, an index into the flat taus
        cand, hits, first = (np.concatenate(x) for x in zip(*parts))
        seg = np.repeat(cand, hits)
        order = (order + m * np.arange(caps.size)[:, None]).ravel()
        owner = order[np.arange(seg.size) - np.repeat(np.cumsum(hits) - hits - first, hits)]
        by_tau = np.lexsort((seg, owner))  # each threshold's crossings in increasing order
        seg, owner = seg[by_tau], owner[by_tau]
        inner = self.seg_lo[seg] > -np.inf  # a padding entry's crossing ends at its node
        i, lvl = seg[inner], taus.ravel()[owner[inner]]
        nodes, vals = self.nodes, self.vals
        return seg, owner, (nodes[i], nodes[i + 1], vals[i] - lvl, vals[i + 1] - lvl, lvl)

    def levels(self, taus, caps=None):
        taus, caps = self._rows(taus, caps)
        seg, owner, solve = self.brackets(taus, caps)
        ends = self.nodes[seg]  # both nodes of a padding segment are its cap's end node
        ends[self.seg_lo[seg] > -np.inf] = _roots(self.ratio, *solve)
        F = _measure_antiderivative(ends)
        measure = np.bincount(owner[0::2], weights=F[1::2] - F[0::2], minlength=taus.size)
        return ends, measure, (self.vals[self.bounds[caps] + 1, None] > taus).ravel()


def level_set(V: Potential, t_val: float, t_min_cap: float = -1e6, scan_n: int = 4000) -> LevelSet:
    """Level set {V > t_val * w0} on [t_min_cap, 30] (r up to e^30), from a
    scan and a bracketed root solve.

    Each end is refined until its bracket is at most 1e-9 + 8.9e-16 |t| wide
    (brentq's tolerance, attainable at any float magnitude); an end at V's
    support edge is the edge itself.  A ScanResolutionWarning is emitted
    exactly when t_val lies below the scan maximum and the midpoint-refined
    scan crosses it another number of times; a larger ``scan_n`` (at least
    16, the node floor of the t-side piece) refines the scan.  A non-finite
    V/w0 on the scan raises DomainError.
    """
    if not t_val > 0:
        raise ValueError("threshold must be positive")
    if not -np.inf < t_min_cap < _T_MAX:
        raise ValueError("the scan needs finite t_min_cap < t_max = 30")
    if not scan_n >= 16:
        raise ValueError("scan_n must be at least 16")
    ends, _, truncated = _LevelScan(V, [t_min_cap], scan_n).levels(t_val)
    intervals = tuple(zip(ends[0::2].tolist(), ends[1::2].tolist()))
    return LevelSet(threshold=float(t_val), intervals=intervals, truncated_left=bool(truncated[0]))


def _measure_antiderivative(t):
    """Antiderivative of (1+|t|)/(1+t^2) dt, the level-set measure density."""
    return np.arctan(t) + 0.5 * np.sign(t) * np.log1p(t * t)


@dataclass(frozen=True)
class VNormResult:
    value: float
    arg_t: float
    saturated: bool
    cap_sequence: tuple

    def as_dict(self):
        return {
            "value": self.value,
            "arg_t": self.arg_t,
            "saturated": self.saturated,
            "cap_sequence": list(self.cap_sequence),
        }


def _tau_a_measure(taus, a, measure):
    """tau^a * measure, and 0 where the measure is 0: above rmax every level
    set is empty, and tau^a may overflow there.  DomainError where the
    product is not finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        vals = np.where(measure > 0, taus**a * measure, 0.0)
    if not np.isfinite(vals).all():
        bad = float(taus[~np.isfinite(vals)][0])
        raise DomainError(f"tau^a * measure is not finite at tau = {bad!r}")
    return vals


def _sup_over_thresholds(V: Potential, a: float, caps):
    """(largest tau^a * measure seen, its tau) for each lower cap; (0, 0)
    where V/w0 vanishes on the scan or its level sets have measure 0.

    Each cap searches from its scan maximum rmax.  A geometric grid of 512
    thresholds over rmax * [1e-8, 1e8] brackets the best tau; each zoom
    round then takes _ZOOM_POINTS equally spaced interior points of the
    log-tau bracket and keeps the argmax's two neighbours, until the bracket
    is narrower than 1e-10.  A grid of zero values ends the search at (0, 0):
    level sets shrink as tau grows, so every set a zoom could ask for has
    measure 0 too.  DomainError when rmax * 1e8 overflows.  The caps are an
    array axis: a round is one ``levels`` call on one table for the (caps
    still searching) x thresholds array, and one zoom step for all of them.
    """
    scan = _LevelScan(V, caps)
    sups = np.zeros((len(caps), 2))
    live = np.flatnonzero(scan.rmax > 0.0)
    if not live.size:
        return [tuple(s) for s in sups.tolist()]
    rmax = scan.rmax[live]
    with np.errstate(over="ignore"):
        top = rmax * 1e8
    if not np.isfinite(top).all():
        bad = float(rmax[~np.isfinite(top)][0])
        raise DomainError(f"the threshold grid rmax * [1e-8, 1e8] overflows: rmax = {bad!r}")

    def values(taus, rows_of):  # tau^a * measure for the thresholds taus[r] of cap rows_of[r]
        return _tau_a_measure(taus, a, scan.levels(taus, rows_of)[1].reshape(taus.shape))

    taus = np.geomspace(rmax * 1e-8, top, 512, axis=1)
    vals = values(taus, live)
    found = vals.any(axis=1)
    live, taus, vals = live[found], taus[found], vals[found]
    rows = np.arange(live.size)
    k = np.argmax(vals, axis=1)
    best, arg_t = vals[rows, k], taus[rows, k]
    pick = np.stack([np.maximum(k - 1, 0), np.minimum(k + 1, taus.shape[1] - 1)], axis=1)
    x, v = np.log(taus[rows[:, None], pick]), vals[rows[:, None], pick]
    while True:
        going = x[:, 1] - x[:, 0] >= 1e-10
        if not going.all():
            sups[live[~going]] = np.stack([best, arg_t], axis=1)[~going]
            live, x, v, best, arg_t = (z[going] for z in (live, x, v, best, arg_t))
            rows = np.arange(live.size)
        if not live.size:
            return [tuple(s) for s in sups.tolist()]
        xs = np.linspace(x[:, 0], x[:, 1], _ZOOM_POINTS + 2, axis=1)
        ts = np.exp(xs[:, 1:-1])
        vs = np.hstack([v[:, :1], values(ts, live), v[:, 1:]])
        j = np.argmax(vs, axis=1)
        peak = vs[rows, j]
        better = peak > best  # the ends are old values, so j is an interior point there
        best = np.where(better, peak, best)
        arg_t = np.where(better, ts[rows, np.minimum(j, _ZOOM_POINTS) - 1], arg_t)
        pick = np.stack([np.maximum(j - 1, 0), np.minimum(j + 1, xs.shape[1] - 1)], axis=1)
        x, v = xs[rows[:, None], pick], vs[rows[:, None], pick]


def _check_exponent(a: float):
    if not 1.0 < a < np.inf:
        raise ValueError("the functional needs a finite a > 1")


def _check_cap(t_min_cap: float):
    if not -np.inf < t_min_cap < 0.0:
        raise ValueError("t_min_cap must be negative and finite")


def _caps(t_min_cap: float, cap_doublings: int, cap_schedule: str = "double") -> list:
    """The lower caps of a sweep: t_min_cap and ``cap_doublings`` extensions
    of it, each doubling t ("double") or squaring |t| ("square", which needs
    t_min_cap < -1); a sweep whose last cap lies below _CAP_FLOOR is a
    ValueError."""
    _check_cap(t_min_cap)
    if cap_doublings < 0:
        raise ValueError("cap_doublings must be nonnegative")
    try:
        if cap_schedule == "double":
            caps = [t_min_cap * (2.0**k) for k in range(cap_doublings + 1)]
        elif cap_schedule == "square":
            if t_min_cap >= -1.0:
                raise ValueError("cap_schedule 'square' needs t_min_cap < -1")
            caps = [-((-t_min_cap) ** (2.0**k)) for k in range(cap_doublings + 1)]
        else:
            raise ValueError("cap_schedule must be 'double' or 'square'")
    except OverflowError:  # a float power past the largest double
        caps = [-np.inf]
    if not caps[-1] >= _CAP_FLOOR:
        raise ValueError(
            f"the cap sweep from t_min_cap={t_min_cap!r} with {cap_doublings} {cap_schedule} "
            f"extension(s) leaves the finite range: its last cap {caps[-1]!r} lies below -2^510"
        )
    return caps


def _saturation(values, message: str):
    """(saturated, kept growing) of a cap sweep's values, from each step's
    change relative to its newer value: saturated when the last step (if
    any) is below _SATURATION_TOL, kept growing, with an UnboundedWarning
    carrying ``message``, when every step is at or above it."""
    steps = [abs(v2 - v1) / v2 if v2 > 0 else 0.0 for v1, v2 in zip(values[:-1], values[1:])]
    growing = bool(steps) and all(s >= _SATURATION_TOL for s in steps)
    if growing:
        warnings.warn(message, UnboundedWarning)
    return bool(not steps or steps[-1] < _SATURATION_TOL), growing


def v_norm_a(
    V: Potential,
    a: float,
    t_min_cap: float = -1e4,
    cap_doublings: int = 1,
    cap_schedule: str = "double",
) -> VNormResult:
    """Capped sup-functional [V]_a with divergence detection.

    The value carries the 1/a-th root, so [lam*V]_a = lam*[V]_a exactly.
    ``saturated`` is True when the last cap extension changes the value by
    less than 1%; ``cap_sequence`` records the (cap, value) pairs of the
    sweep.  ``cap_schedule`` extends the cap by doubling t ("double") or by
    squaring |t| ("square"); the latter is the natural sweep for potentials
    whose level sets grow doubly exponentially in the inverse threshold, and
    it needs t_min_cap < -1.  An UnboundedWarning is emitted when the value
    grows by 1% or more at every step of the sweep.
    """
    _check_exponent(a)
    caps = _caps(t_min_cap, cap_doublings, cap_schedule)
    sups = _sup_over_thresholds(V, a, caps)
    values = [raw ** (1.0 / a) if raw > 0 else 0.0 for raw, _ in sups]
    saturated, _ = _saturation(values, "sup-functional kept growing across every cap doubling")
    return VNormResult(
        value=float(values[-1]),
        arg_t=float(sups[-1][1]),
        saturated=saturated,
        cap_sequence=tuple(zip(caps, values)),
    )


def threshold_curve(V: Potential, a: float, t_min_cap: float = -1e4):
    """(tau, tau^a * measure(level set)) at 200 thresholds geometric over
    rmax * [1e-6, 1], for plotting the sup search."""
    _check_exponent(a)
    _check_cap(t_min_cap)
    scan = _LevelScan(V, [t_min_cap])
    rmax = scan.rmax[0]
    if rmax <= 0:
        return np.zeros(0), np.zeros(0)
    taus = np.geomspace(rmax * 1e-6, rmax, 200)
    return taus, _tau_a_measure(taus, a, scan.levels(taus)[1])


def log_moment(w: Weight, alpha: float, R: float) -> float:
    """2 pi * int_1^R w(r) (log r)^alpha r dr, by Gauss panels in t."""
    if R <= 1.0:
        raise ValueError("R must exceed 1")
    val = _sin2_gauss_panels(
        lambda t, _: w.mass_density(t) * t**alpha, np.zeros(1), np.array([np.log(R)])
    )
    return 2.0 * np.pi * float(val[0])

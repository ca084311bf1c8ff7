"""Hardy weight families, level sets, and the capped sup-functional.

Weights are radial; every family exposes both the raw value w(r) and the
"mass density" w(e^t) e^{2t}, which is the factor multiplying |u(t)|^2 dt in
weighted norms after the change of variables r dr -> e^{2t} dt.  The mass
density is always the overflow-safe form (e.g. the baseline log-squared
weight has mass density 1/(1+t^2)).

The sup-functional over thresholds tau,

    ([V]_a)^a = sup_{tau>0} tau^a * int_{ {V > tau w0} } w0(r) (1+|log r|) r dr

with w0 the baseline weight, is evaluated from one scan of V/w0 per cap.  The
scan segments crossed by every threshold of a batch are found in one pass
(sorted thresholds against each segment's value range), a bracketed root
solve refines all those crossings, and the measures are closed form.  A
geometric tau grid brackets the best tau, a zoom of 32 log-spaced thresholds
per round narrows the bracket, and sweeping the lower domain cap detects
divergence.  The caps of a sweep search in lockstep, so one root solve per
round refines the crossings of every cap still searching.

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

import numpy as np

from .errors import DomainError, QuadratureFailure, ScanResolutionWarning, UnboundedWarning
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
# a cap sweep saturates when its last step changes the value by less than 1%
_SATURATION_TOL = 0.01


class Weight:
    """Base class for radial weights w(r) > 0, accessed via t = log r."""

    kind = "abstract"

    def value(self, t):
        """Raw w(e^t); may overflow at extreme t."""
        raise NotImplementedError

    def mass_density(self, t):
        """w(e^t) e^{2t}, overflow-safe."""
        raise NotImplementedError

    def check_domain(self, t):
        """Raise DomainError if any node is outside the weight's domain."""
        return None


@dataclass(frozen=True)
class LogSquaredWeight(Weight):
    """Baseline weight 1/(r^2 (1 + log^2 r)); mass density 1/(1+t^2)."""

    kind: str = "log_squared"

    def value(self, t):
        t = _as_array(t)
        return np.exp(-2.0 * t) / (1.0 + t * t)

    def mass_density(self, t):
        t = _as_array(t)
        return 1.0 / (1.0 + t * t)


@dataclass(frozen=True)
class LogPowerWeight(Weight):
    """1/(r^2 |log r|^b), defined away from r = 1 (t = 0)."""

    b: float
    kind: str = "log_power"

    def value(self, t):
        t = _as_array(t)
        self.check_domain(t)
        return np.exp(-2.0 * t) * np.abs(t) ** (-self.b)

    def mass_density(self, t):
        t = _as_array(t)
        self.check_domain(t)
        return np.abs(t) ** (-self.b)

    def check_domain(self, t):
        if np.any(_as_array(t) == 0.0):
            raise DomainError("log-power weight is undefined at r = 1 (t = 0)")


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
    kind: str = "flux_augmented"

    @property
    def eta(self):
        return float(np.exp(self.t_eta))

    def value(self, t):
        t = _as_array(t)
        base = np.exp(-2.0 * t) / (1.0 + t * t)
        phi2 = (self.field.alpha(t) * np.exp(-t)) ** 2
        return np.where(t <= self.t_eta, base + phi2, base)

    def mass_density(self, t):
        t = _as_array(t)
        base = 1.0 / (1.0 + t * t)
        a2 = self.field.alpha(t) ** 2
        return np.where(t <= self.t_eta, base + a2, base)


@dataclass(frozen=True)
class ShiftedLogWeight(Weight):
    """1/(r^2 [1 + (log_+(r0/r))^2]) for a matching radius r0 > 1."""

    r0: float
    kind: str = "shifted_log"

    def __post_init__(self):
        if self.r0 <= 1.0:
            raise ValueError("r0 must exceed 1")

    def value(self, t):
        t = _as_array(t)
        s = np.maximum(np.log(self.r0) - t, 0.0)
        return np.exp(-2.0 * t) / (1.0 + s * s)

    def mass_density(self, t):
        t = _as_array(t)
        s = np.maximum(np.log(self.r0) - t, 0.0)
        return 1.0 / (1.0 + s * s)


@dataclass(frozen=True)
class AharonovBohmWeight(Weight):
    """min_k |mu - k|^2 / r^2 — the point-flux weight."""

    mu: float
    kind: str = "aharonov_bohm"

    @property
    def coefficient(self):
        frac = self.mu - np.floor(self.mu)
        return float(min(frac, 1.0 - frac) ** 2)

    def value(self, t):
        t = _as_array(t)
        return self.coefficient * np.exp(-2.0 * t)

    def mass_density(self, t):
        t = _as_array(t)
        return np.full_like(t, self.coefficient)


@dataclass(frozen=True)
class CustomWeight(Weight):
    """Weight given by a closed-form mass density callable."""

    density: object
    kind: str = "custom"

    def value(self, t):
        t = _as_array(t)
        return self.density(t) * np.exp(-2.0 * t)

    def mass_density(self, t):
        return self.density(_as_array(t))


def eval_weight(w: Weight, t=None, r=None):
    """Raw weight value at t = log r (pass exactly one of t, r)."""
    return w.value(_resolve_t(t, r))


def select_eta_log(field: RadialField, t_lo: float = -1e9, t_hi: float = 0.0) -> float:
    """Quarter-flux matching radius in log units: the largest t_eta with
    sup_{s <= t_eta + log 2} |alpha(s)| <= 1/4, found by bisection.

    Returned in log units (eta = e^{t_eta}) since slowly decaying fluxes
    push the matching radius to radii that underflow a linear float.
    """

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
    truncated_left: bool = False

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
    """
    up = fa > 0
    x0, x1 = np.where(up, b, a), np.where(up, a, b)  # ratio <= tau at x0, > tau at x1
    f0, f1 = np.where(up, fb, fa), np.where(up, fa, fb)
    g0, g1 = f0, f1  # the values the Illinois steps use, halved where an end is kept
    side = np.zeros(x0.shape)  # +1 (-1): the last step moved x1 (x0)
    w1 = w2 = np.full(x0.shape, np.inf)  # widths one and two steps back
    while True:
        w, mid = np.abs(x1 - x0), 0.5 * (x0 + x1)
        tol = 1e-9 + 8.9e-16 * np.abs(mid)
        active = w > tol
        if not active.any():
            return x0 - f0 * (x1 - x0) / (f1 - f0)
        # g1 >= 0 >= g0 keeps the quotient below w + 0.5; the floor turns the
        # 0/0 of two values halved to 0 into a step to x0
        step = x0 - g0 * (x1 - x0) / np.maximum(g1 - g0, _SMALLEST_SUBNORMAL)
        x = np.where(w > 0.5 * w2, mid, step)
        x = np.clip(x, np.minimum(x0, x1) + 0.5 * tol, np.maximum(x0, x1) - 0.5 * tol)
        x = np.where(active, x, mid)  # converged brackets: evaluate inside, keep as is
        fx = ratio(x) - tau
        move1, move0 = active & (fx > 0), active & (fx <= 0)
        g0 = np.where(move1 & (side > 0), 0.5 * g0, g0)
        g1 = np.where(move0 & (side < 0), 0.5 * g1, g1)
        x1, f1, g1 = np.where(move1, x, x1), np.where(move1, fx, f1), np.where(move1, fx, g1)
        x0, f0, g0 = np.where(move0, x, x0), np.where(move0, fx, f0), np.where(move0, fx, g0)
        side = np.where(move1, 1.0, np.where(move0, -1.0, side))
        w1, w2 = w, w1


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
    """One scan of V/w0 from the lower cap to t_max, and its level sets.

    The scan ends at V's support edge where that lies below t_max (and at
    the cap where the edge lies at or below it): the edge is its last node,
    so a set that reaches the edge closes there exactly, with no root solve
    across the jump of V.

    ``levels(taus)`` gives, for a threshold grid, the ends of all intervals of
    {V/w0 > tau} as one flat array (start, end, start, ...), each threshold's
    level-set measure and whether its set reaches the lower cap.  It runs in
    two steps around one bracketed root solve: ``brackets`` finds the
    crossings (the scan's sign changes) and the solve's brackets, and
    ``finish`` turns the roots into ends and measures.  A caller may solve
    the brackets of several scans of one V in one ``_roots`` call: the solve
    works bracket by bracket, so each root is that of a solve of its own.
    A ScanResolutionWarning is emitted when, for a threshold below the scan
    maximum, the midpoint-refined scan sees another crossing count.
    """

    def __init__(self, V: Potential, t_min_cap: float, t_max: float = _T_MAX, scan_n: int = 4000):
        self.ratio = _ratio(V)
        pieces = [np.linspace(max(t_min_cap, -2.0), t_max, max(scan_n // 4, 16))]
        if t_min_cap < -2.0:
            pieces.insert(0, -np.geomspace(2.0, -t_min_cap, scan_n)[::-1])
        nodes = np.unique(np.concatenate(pieces))
        # V vanishes past its support edge, so the scan ends there, no lower
        # than the cap
        sup = V.support_t_max
        end = t_max if sup is None else max(min(t_max, sup), t_min_cap)
        self.nodes = nodes = np.append(nodes[nodes < end], end)
        fine_t = np.sort(np.concatenate([nodes, 0.5 * (nodes[:-1] + nodes[1:])]))  # interleaved
        fine = self.ratio(fine_t)
        self.vals = vals = np.ascontiguousarray(fine[0::2])
        self.rmax = float(np.max(vals))
        # segment i is crossed by tau iff min(v_i, v_i+1) <= tau < max(v_i, v_i+1)
        self.spans = [
            np.sort(f(v[:-1], v[1:])) for v in (vals, fine) for f in (np.minimum, np.maximum)
        ]
        padded = np.concatenate([[-np.inf], vals, [-np.inf]])  # so open ends count as crossings
        self.seg_lo = np.minimum(padded[:-1], padded[1:])
        self.seg_hi = np.maximum(padded[:-1], padded[1:])

    def brackets(self, taus):
        """Each threshold's cuts in increasing order, their owners (indices
        into ``taus``) and the root solve's (a, b, fa, fb, tau) of the cuts
        that lie between two nodes."""

        def crossings(lo, hi):
            return np.searchsorted(lo, taus, "right") - np.searchsorted(hi, taus, "right")

        # at or above rmax the scan's level set is empty by construction
        differ = crossings(*self.spans[:2]) != crossings(*self.spans[2:])
        if np.any(differ & (taus < self.rmax)):
            msg = "ratio oscillates faster than the level-set scan grid"
            warnings.warn(msg, ScanResolutionWarning)
        # padded segment j (cut j-1) is crossed by the taus of sorted rank
        # first_j .. first_j + hits_j - 1; owner is each crossing's tau index
        order = np.argsort(taus)
        first = np.searchsorted(taus[order], self.seg_lo)
        hits = np.searchsorted(taus[order], self.seg_hi) - first
        seg = np.repeat(np.arange(hits.size), hits)
        owner = order[np.arange(seg.size) - np.repeat(np.cumsum(hits) - hits - first, hits)]
        by_tau = np.lexsort((seg, owner))  # each threshold's cuts in increasing order
        cut, owner = seg[by_tau] - 1, owner[by_tau]
        # cut -1 opens at the cap, cut n-1 closes at t_max, other ends lie in (cut, cut+1)
        inner = (cut >= 0) & (cut < self.nodes.size - 1)
        i, lvl = cut[inner], taus[owner[inner]]
        nodes, vals = self.nodes, self.vals
        return cut, owner, (nodes[i], nodes[i + 1], vals[i] - lvl, vals[i + 1] - lvl, lvl)

    def finish(self, taus, cut, owner, roots):
        """Ends, measures and truncation flags from ``brackets``' cuts and owners
        and the roots of its solve."""
        ends = np.where(cut < 0, self.nodes[0], self.nodes[-1])
        ends[(cut >= 0) & (cut < self.nodes.size - 1)] = roots
        F = _measure_antiderivative(ends)
        measure = np.bincount(owner[0::2], weights=F[1::2] - F[0::2], minlength=taus.size)
        return ends, measure, self.vals[0] > taus

    def levels(self, taus):
        taus = np.atleast_1d(np.asarray(taus, dtype=float))
        cut, owner, solve = self.brackets(taus)
        return self.finish(taus, cut, owner, _roots(self.ratio, *solve))


def _scan_levels(V: Potential, t_min_cap: float, t_max: float = _T_MAX, scan_n: int = 4000):
    """Scan V/w0 once (``_LevelScan``); return its maximum and ``levels``."""
    scan = _LevelScan(V, t_min_cap, t_max, scan_n)
    return scan.rmax, scan.levels


def level_set(
    V: Potential,
    t_val: float,
    t_min_cap: float = -1e6,
    t_max: float = _T_MAX,
    scan_n: int = 4000,
) -> LevelSet:
    """Level set {V > t_val * w0} from a cached scan and a bracketed root solve.

    Each end is refined until its bracket is at most 1e-9 + 8.9e-16 |t| wide
    (brentq's tolerance, attainable at any float magnitude); an end at V's
    support edge is the edge itself.  A 2x finer scan that sees a different
    crossing count emits a ScanResolutionWarning (never silently dropped); a
    non-finite V/w0 on the scan raises DomainError.
    The scan needs ``scan_n`` >= 16, the node floor of its t-side piece.
    """
    if not t_val > 0:
        raise ValueError("threshold must be positive")
    if not -np.inf < t_min_cap < t_max < np.inf:
        raise ValueError("the scan needs finite t_min_cap < t_max")
    if not scan_n >= 16:
        raise ValueError("scan_n must be at least 16")
    _, levels = _scan_levels(V, t_min_cap, t_max, scan_n)
    ends, _, truncated = levels(t_val)
    intervals = tuple(zip(ends[0::2].tolist(), ends[1::2].tolist()))
    return LevelSet(threshold=float(t_val), intervals=intervals, truncated_left=bool(truncated[0]))


def _measure_antiderivative(t):
    """Antiderivative of (1+|t|)/(1+t^2) dt, the level-set measure density."""
    return np.arctan(t) + 0.5 * np.sign(t) * np.log1p(t * t)


def level_measure(ls: LevelSet) -> float:
    """int over the level set of w0(r)(1+|log r|) r dr, in closed form."""
    F = _measure_antiderivative(np.reshape(ls.intervals, -1))
    return float(np.sum(F[1::2] - F[0::2]))


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


def _sup_search(rmax: float, tau_grid_n: int):
    """One cap's search for the largest tau^a * measure, as a generator: it
    yields threshold arrays, is sent their tau^a * measure, and returns the
    largest value seen and its tau.  A geometric grid brackets the best tau;
    each zoom round then asks for _ZOOM_POINTS equally spaced interior points
    of the log-tau bracket and keeps the argmax's two neighbours, until the
    bracket is narrower than 1e-10."""
    taus = np.geomspace(rmax * 1e-8, rmax * 1e8, tau_grid_n)
    vals = yield taus
    k = int(np.argmax(vals))
    best, arg_t = float(vals[k]), float(taus[k])
    lo, hi = max(k - 1, 0), min(k + 1, taus.size - 1)
    x, v = np.log(taus[[lo, hi]]), vals[[lo, hi]]
    while x[1] - x[0] >= 1e-10:
        xs = np.linspace(x[0], x[1], _ZOOM_POINTS + 2)
        ts = np.exp(xs[1:-1])
        vs = np.concatenate([v[:1], (yield ts), v[1:]])
        j = int(np.argmax(vs))
        if vs[j] > best:  # the ends are old values, so j is an interior point
            best, arg_t = float(vs[j]), float(ts[j - 1])
        lo, hi = max(j - 1, 0), min(j + 1, xs.size - 1)
        x, v = xs[[lo, hi]], vs[[lo, hi]]
    return best, arg_t


def _sup_over_thresholds(V: Potential, a: float, caps, tau_grid_n: int = 512):
    """(largest tau^a * measure seen, its tau) for each lower cap; (0, 0)
    where V/w0 vanishes on the scan.

    Every cap runs ``_sup_search``, all in lockstep: a round's level sets of
    every cap still searching share one ``_roots`` call, since every scan is
    of the same V/w0.  The scans are built in cap order, so the first cap
    whose scan fails raises.
    """
    scans = [_LevelScan(V, cap) for cap in caps]
    ratio = _ratio(V)
    sups = [(0.0, 0.0)] * len(scans)
    searches = {
        k: _sup_search(scan.rmax, tau_grid_n) for k, scan in enumerate(scans) if scan.rmax > 0.0
    }
    asked = {k: next(search) for k, search in searches.items()}
    while asked:
        parts = [scans[k].brackets(taus) for k, taus in asked.items()]
        solve = [np.concatenate(args) for args in zip(*(solve for _, _, solve in parts))]
        sizes = np.cumsum([solve[0].size for _, _, solve in parts])
        roots = np.split(_roots(ratio, *solve), sizes[:-1])
        for (k, taus), (cut, owner, _), r in zip(list(asked.items()), parts, roots):
            try:
                asked[k] = searches[k].send(taus**a * scans[k].finish(taus, cut, owner, r)[1])
            except StopIteration as done:
                sups[k] = done.value
                del asked[k]
    return sups


def _check_exponent(a: float):
    if not 1.0 < a < np.inf:
        raise ValueError("the functional needs a finite a > 1")


def _check_cap(t_min_cap: float):
    if not -np.inf < t_min_cap < 0.0:
        raise ValueError("t_min_cap must be negative and finite")


def _caps(t_min_cap: float, cap_doublings: int, cap_schedule: str = "double") -> list:
    """The lower caps of a sweep: t_min_cap and ``cap_doublings`` extensions
    of it, each doubling t ("double") or squaring |t| ("square", which needs
    t_min_cap < -1)."""
    _check_cap(t_min_cap)
    if cap_doublings < 0:
        raise ValueError("cap_doublings must be nonnegative")
    if cap_schedule == "double":
        return [t_min_cap * (2.0**k) for k in range(cap_doublings + 1)]
    if cap_schedule == "square":
        if t_min_cap >= -1.0:
            raise ValueError("cap_schedule 'square' needs t_min_cap < -1")
        return [-((-t_min_cap) ** (2.0**k)) for k in range(cap_doublings + 1)]
    raise ValueError("cap_schedule must be 'double' or 'square'")


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


def threshold_curve(V: Potential, a: float, t_min_cap: float = -1e4, n: int = 200):
    """(tau, tau^a * measure(level set)) samples for plotting the sup search."""
    _check_exponent(a)
    _check_cap(t_min_cap)
    rmax, levels = _scan_levels(V, t_min_cap)
    if rmax <= 0:
        return np.zeros(0), np.zeros(0)
    taus = np.geomspace(rmax * 1e-6, rmax, n)
    return taus, taus**a * levels(taus)[1]


def log_moment(w: Weight, alpha: float, R: float) -> float:
    """2 pi * int_1^R w(r) (log r)^alpha r dr, by Gauss panels in t."""
    if R <= 1.0:
        raise ValueError("R must exceed 1")
    val = _sin2_gauss_panels(
        lambda t, _: w.mass_density(t) * t**alpha, np.zeros(1), np.array([np.log(R)])
    )
    return 2.0 * np.pi * float(val[0])

"""Per-mode radial operators: assembly, inertia counts, phase methods.

The mode-m quadratic form in t = log r,

    q_m[u] = int ( |u'|^2 + (m - alpha(t))^2 |u|^2 - e^{2t} V(t) |u|^2 ) dt,

is discretized with cell-difference stiffness and trapezoid-lumped zero-order
terms on a Dirichlet grid, giving a symmetric tridiagonal matrix whose
inertia yields exact negative-eigenvalue counts.  Rows where (m - alpha)^2
outweighs the potential are diagonally dominant; each count sweeps the
matrix in the direction that leaves the longer such run last, and stops
inside it once a pivot dominates its coupling (``_inertia_counter``, which
squares the couplings once for every mode).  The same matrices drive the
Hardy-constant estimator: the lowest generalized eigenvalue against a
lumped weight mass, for every mode on the last refinement level, as the
least double at which LAPACK's LDL^T factorization (dpttrf) of K - mu M
fails.  The approach (``_approach``) brackets it and closes in on it:
inverse iteration (dpttrs) on the factorization at a shift certified below
it, after a bisection from a Rayleigh bound on the first level, and from
the coarser level's Rayleigh quotient and eigenvector, interpolated in t,
on each finer one.  The end stage, a gallop from the Rayleigh quotient and
a bisection to adjacent doubles, pins it; a midpoint whose shifted
diagonal equals an end's takes that end's outcome without a factorization.
A coarser level needs only the minimum over modes, so it runs the end
stage in the order of the modes' Rayleigh quotients and skips each mode
whose factorization at the best value so far proves it no lower
(``_least_minimum``).  Oscillation
(Pruefer) and phase-integral counts provide independent cross-checks of
the inertia route.  The Pruefer count
samples its coefficients once for any number of modes, on a table of 8192
points, and its RK4 steps hold a tolerance of 1e-6 each.  The phase
integral of every well, the borderline one in s = log|t|, runs on the
sin^2-mapped Gauss panels of ``weights._sin2_gauss_panels``, between each
mode's turning points and the fixed breaks, which one lexsort orders for
all modes (``_mode_panels``).
The turning points are bracketed on a probe that ends at the potential's
support edge, so no bracket straddles its jump, and without a pass per mode:
at one node the modes with a positive radicand are one run of the sorted
modes, so each node's run ends, settled by the exact radicand, give every
sign change (``_mode_brackets``).  Couplings are a batch axis as well: for a ladder of
(coupling, modes) jobs, one root solve refines every turning point and one
panel call integrates every panel (``phase_integral_counts``).
"""

import warnings
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cache

import numpy as np

from . import _kernels
from .errors import (
    DomainError,
    NoTruncation,
    StiffnessFailure,
    ZeroPivotWarning,
)
from .grids import Grid
from .profiles import Potential, RadialField, ScaledPotential, VSigma
from .weights import Weight, _roots, _sin2_gauss_panels


@dataclass(frozen=True)
class ModeOperator:
    """Symmetric tridiagonal discretization of the mode-m form (interior nodes)."""

    m: int
    diag: np.ndarray
    offdiag: np.ndarray


def _check_coupling(*lams):
    if not all(0.0 <= lam < np.inf for lam in lams):
        raise ValueError("coupling must be finite and nonnegative")


def _check_modes(modes):
    if not np.isfinite(np.asarray(modes, dtype=float)).all():
        raise ValueError("modes must be finite")


def _lumps(grid: Grid) -> np.ndarray:
    h = grid.steps
    return 0.5 * (h[:-1] + h[1:])


def _mode_terms(grid: Grid):
    """The interior nodes, the off-diagonal and the diagonal stiff + q * lump
    as a function of q = (m - alpha)^2 - lam e^{2t} V: every mode's matrix of
    the grid, bit for bit, whichever function assembles it."""
    h = grid.steps
    stiff = 1.0 / h[:-1] + 1.0 / h[1:]
    lump = _lumps(grid)
    return grid.t[1:-1], -1.0 / h[1:-1], lambda q: stiff + q * lump


def assemble_mode(
    field: RadialField,
    V: Potential,
    m: int,
    grid: Grid,
    lam: float = 1.0,
    angular_override=None,
) -> ModeOperator:
    """Tridiagonal matrix of the mode form with Dirichlet ends.

    ``angular_override`` replaces the (m - alpha)^2 coefficient with given
    values at interior nodes (scalar or array); used for the discrete-angular
    cross-check against the full two-dimensional operator.
    """
    _check_coupling(lam)
    _check_modes(m)
    ti, off, diag = _mode_terms(grid)
    if angular_override is None:
        ang = (m - field.alpha(ti)) ** 2
    else:
        ang = np.broadcast_to(np.asarray(angular_override, dtype=float), ti.shape)
    return ModeOperator(m=int(m), diag=diag(ang - lam * V.e2t_v(ti)), offdiag=off)


def count_negative(op: ModeOperator) -> int:
    """Exact negative-eigenvalue count by LDL^T inertia (Sturm sequence).

    A NaN or infinite entry raises ValueError: the count would be meaningless.
    """
    if not (np.isfinite(op.diag).all() and np.isfinite(op.offdiag).all()):
        raise ValueError("mode operator entries must be finite")
    return _inertia_counter(op.offdiag)(op.diag)


def count_modes(field: RadialField, V: Potential, modes, grid: Grid, lam: float = 1.0) -> list[int]:
    """Per-mode inertia counts, equal to ``count_negative(assemble_mode(field,
    V, m, grid, lam))`` for each m in ``modes``.

    Everything that does not depend on the mode (alpha, the potential and
    ``_mode_terms``) is evaluated once.
    """
    _check_coupling(lam)
    modes = list(modes)
    _check_modes(modes)
    ti, off, diag = _mode_terms(grid)
    alpha = field.alpha(ti)
    lv = lam * V.e2t_v(ti)
    count = _inertia_counter(off)
    return [count(diag((m - alpha) ** 2 - lv)) for m in modes]


# a strong row's margin over the sum of its couplings
_STRONG = 1.0 + 2.0**-40
# couplings whose square is a normal double: b*b keeps its relative error
_TAME = (2.0**-500, 2.0**500)


def _inertia_counter(off):
    """The negative-pivot count of the tridiagonal (diag, off) as a function of
    diag, warning (ZeroPivotWarning) when an exact zero pivot was perturbed.

    The lists of the off-diagonal and of its squares, forward and reversed,
    its largest square and the bound each row's diagonal must exceed are
    made once, for every diagonal counted against it.  Row k is *strong*
    when diag_k > (1 + 2^-40)(|off_{k-1}| + |off_k|) and each of those
    couplings is 0 or within _TAME; a NaN row never is.
    A matrix with no weak row counts 0 without a sweep.  Otherwise the sweep
    runs forward, or over the reversed matrix when the leading strong run is
    strictly longer than the trailing one, so the longer run comes last.
    The kernel ends it at the first clamped pivot d >= |b| at or after the
    last weak row, b the coupling to the next row.

    Why that is exact: let the pivot satisfy d >= |b|, so d > 0 (a clamped
    pivot is never 0), and let the next row be strong, a > (1 + 2^-40)(|b| +
    |c|) with c its own coupling.  With b tame, fl(fl(b*b) / d) <= |b|(1 +
    2^-53)^2, and rounding the strength bound costs at most a factor (1 -
    2^-53)^2; the 2^-40 margin covers both, so a - fl(b*b / d) > |c| >= 0
    exactly, and rounding keeps the next pivot >= |c| and nonzero, a clamp
    to pivmin only raising it.  By induction every later pivot is positive:
    the skipped rows add no negative and no zero pivot, whatever the grid
    spacing.  Before the first row, d = 1 against a zero coupling, so a
    wholly strong matrix counts 0.  pivmin stays that of the whole matrix.
    """
    off_list = off.tolist()
    off_reversed = off_list[::-1]
    # numpy's squares equal Python's b * b to the bit
    squares = off * off
    off2_list = squares.tolist()
    off2_reversed = off2_list[::-1]
    # the one entry whose square is _pivmin's off-diagonal term
    peak = off[[np.argmax(squares)]] if off.size else off
    n = off.size + 1
    couplings = np.abs(off)
    bound = _STRONG * (np.r_[couplings, 0.0] + np.r_[0.0, couplings])
    # no row next to a coupling outside _TAME (or NaN) is strong
    wild = ~((couplings == 0.0) | ((couplings >= _TAME[0]) & (couplings <= _TAME[1])))
    bound[:-1][wild] = np.inf
    bound[1:][wild] = np.inf

    def count(diag):
        weak = np.flatnonzero(~(diag > bound))
        if not weak.size:
            return 0
        first, last = int(weak[0]), int(weak[-1])
        if first > n - 1 - last:
            diag, stop = diag[::-1], n - 1 - first
            off_sweep, off2_sweep = off_reversed, off2_reversed
        else:
            off_sweep, off2_sweep, stop = off_list, off2_list, last
        # the kernel reads Python floats (IEEE doubles), which a memoryview
        # hands out one at a time: the same count as on the array, faster
        neg, zero_pivots = _kernels.tridiag_inertia(
            memoryview(diag), off_sweep, off2_sweep, _pivmin(diag, peak), stop
        )
        if zero_pivots:
            warnings.warn(
                f"{zero_pivots} exact zero pivot(s) perturbed in inertia count",
                ZeroPivotWarning,
            )
        return int(neg)

    return count


def _pivmin(diag, off):
    """Pivot floor: large enough to stop e^2/d overflow, far below any
    physically meaningful pivot."""
    scale = 1.0
    if diag.size:
        scale = max(scale, float(np.max(np.abs(diag))))
    if off.size:
        scale = max(scale, float(np.max(off * off)))
    return scale * 1e-292


def mode_truncation(field: RadialField, V: Potential, grid: Grid, lam: float = 1.0) -> int:
    """Smallest M with (m - alpha)^2 >= lam e^{2t} V on the grid for |m| > M.

    Modes beyond M see a pointwise nonnegative form and contribute no
    negative eigenvalues.  Raises NoTruncation when the claimed-forbidden
    modes are not actually forbidden at the grid edges (potential decaying
    too slowly for this domain).
    """
    _check_coupling(lam)
    t = grid.t
    vt = lam * V.vplus_density(t)
    if not np.any(vt > 0):
        return 0
    v_max = float(np.max(vt))
    # the grid-wise criterion says nothing about |t| beyond the grid; it is
    # only trustworthy when the potential has already decayed at the edges
    if vt[0] > 0.1 * v_max or vt[-1] > 0.1 * v_max:
        raise NoTruncation(
            "potential has not decayed at the grid edges; the mode bound "
            "cannot be certified — extend the grid"
        )
    alpha = field.alpha(t)
    a_max = float(np.max(np.abs(alpha)))
    bound = int(np.ceil(a_max + np.sqrt(v_max))) + 1
    # from the outside in: the first |m| with an allowed mode is M
    for k in range(bound, 0, -1):
        if not (np.all((k - alpha) ** 2 >= vt) and np.all((-k - alpha) ** 2 >= vt)):
            return k
    return 0


def forbidden_margin(field, V, grid, lam, m_values) -> float:
    """Signed edge margin ((m-a)^2 - v)/((m-a)^2 + v) minimized over modes."""
    edges = np.array([grid.t_min, grid.t_max])
    v = lam * V.vplus_density(edges)
    lam2 = (np.asarray(m_values, dtype=float).reshape(-1, 1) - field.alpha(edges)) ** 2
    denom = lam2 + v
    frac = np.where(denom > 0, (lam2 - v) / np.where(denom > 0, denom, 1.0), 1.0)
    # 1.0 goes first: a NaN margin (V_+ or alpha infinite at an edge, the
    # same for every mode) leaves 1.0
    return min(1.0, float(np.min(frac, initial=1.0)))


# ---------------------------------------------------------------------------
# Hardy-constant estimation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HardyEstimate:
    per_mode_minima: dict
    mu_star: float
    grid_meta: dict
    refinement_history: tuple

    def as_dict(self):
        return {
            "mu_star": self.mu_star,
            "per_mode_minima": {str(k): v for k, v in self.per_mode_minima.items()},
            "refinement_history": [list(x) for x in self.refinement_history],
            "grid": self.grid_meta,
        }


def smallest_generalized_mu(kdiag, off, mdiag) -> float:
    """Smallest mu with K - mu M singular; ``inf`` when M vanishes.

    K is symmetric tridiagonal positive definite and M diagonal nonnegative,
    all finite, or ValueError.  The result is the least double at which
    LAPACK's LDL^T factorization (dpttrf) of K - mu M fails (``_factor``),
    whatever path found it: the pivots fall monotonically in mu in floating
    point too (Demmel, Dhillon & Ren, ETNA 3, 1995), so the factorization
    fails there and passes at every lower shift.

    A bracket [lo, hi] with a passing lo and a failing hi starts at 0, which
    factoring K certifies, and at the Rayleigh quotient of x = K^{-1} M^{1/2} 1
    > 0 (K is a Stieltjes matrix; one inverse iteration of M^{-1/2} K M^{-1/2}
    from 1), doubled until it fails.  Bisection narrows it to 3% of hi, and
    inverse iteration runs on the factorization at lo, a shift certified
    below mu_1, until two Rayleigh quotients rho agree to 1e-12 relative
    (``_inverse_iteration``).  When rho contracts by less than 10x a step,
    mu_1 has a close neighbour: the bracket is halved 6 more times and the
    iteration resumes.  A factorization at rho tells which side of it the
    threshold lies, a gallop from rho brackets it, and bisection ends the
    bracket at adjacent doubles, factoring only the midpoints that neither
    end decides (``_least_failing_double``).  It returns hi.

    This is the cold composition of the two stages, ``_approach`` and
    ``_least_failing_double``.  ``hardy_constant`` runs them itself, from
    warm starts, on pencils it has checked once per level.
    """
    kdiag, off, mdiag = (np.asarray(a, dtype=float) for a in (kdiag, off, mdiag))
    if not all(np.isfinite(a).all() for a in (kdiag, off, mdiag)) or (mdiag < 0.0).any():
        raise ValueError("pencil entries must be finite and the masses nonnegative")
    if not (mdiag > 0.0).any():
        return np.inf
    pencil = (kdiag, off, mdiag)
    lo, hi, rho, _ = _approach(pencil)
    return _least_failing_double(pencil, lo, hi, rho)


def _approach(pencil, start=None):
    """(lo, hi, rho, x) for a valid pencil with some mass: ``_factor`` passes
    at lo and fails at hi > lo, and x is an inverse-iteration vector with
    Rayleigh quotient rho.  hi is infinite only when lo < rho, where
    ``_least_failing_double`` factors at rho first and so finds a failing
    shift itself.

    Cold (no start, or a start vector with no mass): the bracket and
    iteration of ``smallest_generalized_mu``.  From a start (rho0, x0), such
    as a coarser grid's: factor at sigma = rho0 (1 - 1e-4), each failing
    sigma becoming hi and the offset growing 16x (sigma = 0 once it reaches
    1), and iterate from x0 on the passing factorization.  When rho stalls,
    as in a close cluster, hi is made finite from rho, doubled while it
    passes (rho >= mu_1 in exact arithmetic), and the cold path's retry
    halves the bracket 6 times before each further iteration.  A rho that
    is not in (lo, inf) starts the approach again, cold.
    """
    mass = pencil[2]
    warm = start is not None and mass @ (start[1] * start[1]) > 0.0
    if warm:
        lo, hi, factors = _warm_bracket(pencil, start[0])
        rho, x, converged = _inverse_iteration(factors, lo, mass, start[1])
        if converged and lo < rho:
            return lo, hi, rho, x
        if not lo < rho < np.inf:
            return _approach(pencil)
        mu = rho
        while mu < hi and (found := _factor(*pencil, mu)) is not None:
            lo, factors, mu = mu, found, 2.0 * mu
        hi = min(hi, mu)
        width = (hi - lo) / 64.0
    else:
        factors = _factor(*pencil, 0.0)
        if factors is None:
            raise ValueError("K must be symmetric tridiagonal positive definite")
        root = np.sqrt(mass)
        x = _lapack().dpttrs(*factors, root)[0]
        with np.errstate(all="ignore"):
            lo, hi = 0.0, float(root @ x / (mass @ (x * x)))
        if not 0.0 < hi < np.inf:
            raise ValueError("the pencil's Rayleigh bound over- or underflows")
        while (found := _factor(*pencil, hi)) is not None:
            lo, hi, factors = hi, 2.0 * hi, found
        width = 0.03 * hi
    while True:
        lo, hi, factors = _bisect(pencil, lo, hi, factors, width)
        rho, x, converged = _inverse_iteration(factors, lo, mass, x)
        if converged or not lo < 0.5 * (lo + hi) < hi:
            return lo, hi, rho, x
        width = (hi - lo) / 64.0


def _warm_bracket(pencil, rho):
    """(lo, hi, the factorization at lo): lo the first of rho (1 - 1e-4),
    rho (1 - 1.6e-3), ... at which ``_factor`` passes, 0 once the offset
    reaches 1, and hi the last shift tried before it (inf if none)."""
    hi, offset = np.inf, 1e-4
    while True:
        sigma = rho * (1.0 - offset) if offset < 1.0 else 0.0
        factors = _factor(*pencil, sigma)
        if factors is not None:
            return sigma, hi, factors
        if sigma == 0.0:
            raise ValueError("K must be symmetric tridiagonal positive definite")
        hi, offset = sigma, 16.0 * offset


# the coupling scipy's dpttrf wants of a 1 x 1 matrix
_NO_COUPLING = np.zeros(1)


@cache
def _lapack():  # imported on first use: slow to import, and only Hardy solves need it
    from scipy.linalg import lapack
    return lapack


def _factor(kdiag, off, mass, mu):
    """LAPACK's LDL^T factorization (dpttrf) of K - mu M as (d, e), or None
    when a pivot is not positive: then mu is no lower than the pencil's
    lowest eigenvalue.  Massless rows form a positive definite block, so by
    Haynsworth's inertia additivity they need no elimination."""
    d, e, info = _lapack().dpttrf(kdiag - mu * mass, off if off.size else _NO_COUPLING, overwrite_d=1)
    return None if info else (d, e)


def _bisect(pencil, lo, hi, factors, width):
    """Halve [lo, hi] until it is at most ``width`` wide or its ends are
    adjacent doubles: (lo, hi, the factorization at lo)."""
    while hi - lo > width and lo < (mid := 0.5 * (lo + hi)) < hi:
        found = _factor(*pencil, mid)
        if found is None:
            hi = mid
        else:
            lo, factors = mid, found
    return lo, hi, factors


def _least_failing_double(pencil, lo, hi, rho):
    """The least double in (lo, hi] at which ``_factor`` fails, given that it
    passes at lo and fails at hi, whatever rho is.  A rho inside the bracket
    is factored to see which side it lies on; steps of 128 ulps of rho, 4x
    wider each time, then gallop away from it until the outcome flips.
    Bisection ends the bracket at adjacent doubles.  fl(k - fl(mu m)) is
    monotone in mu for m >= 0, so a midpoint's shifted diagonal agrees with
    both ends' on every row where theirs agree; one whose bytes equal an
    end's on the other rows is that end's bit for bit, and takes its outcome
    without a factorization."""
    if lo < rho < hi:
        below = _factor(*pencil, rho) is not None
        lo, hi = (rho, hi) if below else (lo, rho)
        step = 128.0 * np.spacing(rho)
        while lo < (mu := rho + step if below else rho - step) < hi:
            passes = _factor(*pencil, mu) is not None
            lo, hi = (mu, hi) if passes else (lo, mu)
            if passes != below:
                break
            step *= 4.0
    kdiag, _, mass = pencil
    rows = kdiag - lo * mass != kdiag - hi * mass
    kdiag, mass = kdiag[rows], mass[rows]
    at_lo, at_hi = (kdiag - lo * mass).tobytes(), (kdiag - hi * mass).tobytes()
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        at_mid = (kdiag - mid * mass).tobytes()
        if at_mid == at_lo:
            lo = mid
        elif at_mid == at_hi or _factor(*pencil, mid) is None:
            hi, at_hi = mid, at_mid
        else:
            lo, at_lo = mid, at_mid
    return hi


def _inverse_iteration(factors, sigma, mass, x):
    """Inverse iteration from x on the factorization (d, e) of K - sigma M,
    sigma below the lowest eigenvalue: (rho, x, converged).  Each step solves
    (K - sigma M) y = M x (LAPACK dpttrs), takes the Rayleigh quotient
    rho = sigma + y'Mx / y'My and M-normalizes y into x.  It stops converged
    when two successive rho agree to 1e-12 relative, and unconverged when rho
    contracts by less than 10x in a step, or is NaN."""
    rho = change = np.inf
    while True:
        mx = mass * x
        y = _lapack().dpttrs(*factors, mx)[0]
        my = mass * y
        norm2 = y @ my
        new = sigma + float(y @ mx / norm2)
        x = y / np.sqrt(norm2)
        new_change = abs(rho - new)
        if new_change <= 1e-12 * new:
            return new, x, True
        if not new_change <= 0.1 * change:
            return new, x, False
        rho, change = new, new_change


def hardy_constant(
    field: RadialField,
    w: Weight,
    grid: Grid,
    m_range=range(-3, 4),
    refine_levels: int = 1,
) -> HardyEstimate:
    """Discrete Hardy constant: min over modes of the smallest Rayleigh quotient

        mu_m = min_u [ int |u'|^2 + (m-alpha)^2 u^2 dt ] / [ int w e^{2t} u^2 dt ]

    on the Dirichlet grid, with the stiffness by cell differences and the
    weight mass lumped to the nodes (trapezoid).  ``mu_star`` is the minimum
    over modes.  It approximates the Dirichlet constant on ``[t_min,
    t_max]``, which is an upper bound on the whole-line constant.  The lumped
    mass makes it no Rayleigh-Ritz bound: the values rise under refinement
    (midpoint-nested grids), from below the continuum value and like O(h^2)
    for a smooth weight, e.g. 0.39915180, 0.39915527, 0.39915613 for the
    bump on [-8, 8].

    Every level runs ``_approach`` for every mode: the first from a cold
    start, each finer one from the coarser level's Rayleigh quotient and
    vector of the same mode, interpolated in t onto the new nodes with zero
    Dirichlet ends.  The last level runs the end stage
    (``_least_failing_double``) for every mode, giving ``per_mode_minima``:
    each is the least double at which LAPACK's dpttrf fails to factor
    K - mu M, the value ``smallest_generalized_mu`` returns.  A coarser level
    enters only ``refinement_history``: it takes its modes in the order of
    their Rayleigh quotients and runs the end stage only for a mode whose
    factorization at the least minimum so far fails.  Its value is the
    same, ties included: a skipped mode's factorization passes at that
    minimum, and each end stage returns a shift at which it fails.  K and M
    are checked once per level, not per mode.

    The modes are integers (angular Fourier modes), or ValueError: the
    minima are keyed by the integer mode.

    The domain error need not decay like 1/|t_min|.  For fields with
    alpha -> 0 at the origin (t -> -inf) under ``LogSquaredWeight`` the
    weight is Hardy-critical there, and the error decays only like
    ``|t_min|^{-2 sqrt(1/4 - mu*)}`` with mu* the whole-line constant
    (about |t_min|^{-0.38} for ``BumpField(flux=0.5)``).

    A node of zero weight mass is allowed; an infinite, negative or NaN mass
    raises DomainError.
    """
    if refine_levels < 0:
        raise ValueError("refine_levels must be nonnegative")
    m_range = list(m_range)
    if not m_range:
        raise ValueError("m_range must hold at least one mode")
    _check_modes(m_range)
    # the per-mode minima are keyed by the integer mode
    if any(m % 1 for m in m_range):
        raise ValueError("modes must be integers")
    modes = list(dict.fromkeys(int(m) for m in m_range))
    history, g, starts = [], grid, {}
    for level in range(refine_levels + 1):
        ti, off, diag = _mode_terms(g)
        mass = w.mass_density(ti) * _lumps(g)
        bad = ~((mass >= 0.0) & (mass < np.inf))
        if bad.any():
            raise DomainError(f"weight mass is infinite, negative or NaN at t = {float(ti[bad][0])!r}")
        alpha = field.alpha(ti)
        # row by row, no mode's K exceeds that of the mode farthest from
        # alpha: one check stands for every mode's
        farthest = np.maximum((min(modes) - alpha) ** 2, (max(modes) - alpha) ** 2)
        if not np.isfinite(diag(farthest)).all():
            raise ValueError("pencil entries must be finite and the masses nonnegative")
        solves = {}
        if (mass > 0.0).any():
            for m in modes:
                pencil = (diag((m - alpha) ** 2), off, mass)
                start = starts.get(m)
                if start is not None:
                    rho, x, t = start
                    start = rho, np.interp(ti, t, np.r_[0.0, x, 0.0])
                solves[m] = pencil, _approach(pencil, start)
        if level == refine_levels:
            per_mode = {
                m: _least_failing_double(pencil, *approach[:3])
                for m, (pencil, approach) in solves.items()
            } or dict.fromkeys(modes, np.inf)
            mu_star = float(min(per_mode.values()))
        else:
            mu_star = _least_minimum(solves.values())
            starts = {m: (rho, x, g.t) for m, (_, (_, _, rho, x)) in solves.items()}
        history.append((g.n, mu_star))
        if level < refine_levels:
            g = g.refine()
    return HardyEstimate(
        per_mode_minima=per_mode,
        mu_star=mu_star,
        grid_meta=grid.meta(),
        refinement_history=tuple(history),
    )


def _least_minimum(solves) -> float:
    """The least end stage of (pencil, approach) pairs, inf for none.  They
    go in the order of their Rayleigh quotients, which puts the minimizing
    mode first in most problems; the value does not depend on the order.
    Once one gave mu_best, a later one runs its end stage only when
    ``_factor`` fails at mu_best; where it passes, that mode's minimum lies
    above mu_best."""
    best = np.inf
    for pencil, (lo, hi, rho, _) in sorted(solves, key=lambda solve: solve[1][2]):
        if best == np.inf or _factor(*pencil, best) is None:
            best = min(best, _least_failing_double(pencil, lo, hi, rho))
    return best


# ---------------------------------------------------------------------------
# Pruefer oscillation count
# ---------------------------------------------------------------------------


def prufer_count(
    field: RadialField,
    V: Potential,
    m: int | Sequence[int],
    t_range: tuple,
    lam: float = 1.0,
) -> int | list[int]:
    """Node count of the zero-energy solution across t_range.

    Integrates the phase of -u'' + ((m-alpha)^2 - lam e^{2t} V) u = 0 with
    u(t0) = 0; the number of pi-crossings equals the Dirichlet negative-
    eigenvalue count on the interval up to boundary effects of +-1.  The
    RK4 steps hold a tolerance of 1e-6 per step, from a first step of
    span/1024; StiffnessFailure is raised when a step would fall below
    span * 1e-12.

    ``m`` is one mode or a sequence of modes; a sequence gives the list of
    per-mode counts, equal to the one-mode calls.  alpha and lam e^{2t} V are
    sampled once for all of them, on a table of 8192 equally spaced points
    (the coefficient is interpolated linearly between them).
    """
    t0, t1 = float(t_range[0]), float(t_range[1])
    if not t1 > t0:
        raise ValueError("t_range must be increasing")
    # an infinite span makes every step infinite and every error NaN
    if not np.isfinite(t1 - t0):
        raise ValueError("t_range must have finite ends and a finite span")
    _check_coupling(lam)
    modes = [m] if np.ndim(m) == 0 else list(m)
    _check_modes(modes)
    tq = np.linspace(t0, t1, 8192)
    alpha = field.alpha(tq)
    lv = lam * V.e2t_v(tq)
    span = t1 - t0
    counts = []
    for mode in modes:
        theta, fail = _kernels.prufer_sweep(
            tq, (mode - alpha) ** 2 - lv, t0, t1, 1e-6, span / 1024.0, span * 1e-12
        )
        if fail:
            raise StiffnessFailure("adaptive phase integration underflowed its step size")
        counts.append(int(np.floor(theta / np.pi)))
    return counts[0] if np.ndim(m) == 0 else counts


# ---------------------------------------------------------------------------
# Phase-integral (semiclassical) count
# ---------------------------------------------------------------------------


def _unwrap_scaled(V: Potential, lam: float):
    while isinstance(V, ScaledPotential):
        lam *= V.lam
        V = V.base
    return V, lam


def phase_integral_count(
    field: RadialField,
    V: Potential,
    m: int | Sequence[int],
    lambda_coupling: float,
    critical_shift: bool = True,
    t_domain: tuple | None = None,
) -> float | list[float]:
    """(1/pi) int sqrt( (lam e^{2t} V - (m-alpha)^2 - kappa)_+ ) dt.

    kappa = 1/(4(1+t^2)) is the critical marginal coupling (enabled by
    default): without it the integral diverges for borderline r^{-2}-type
    potentials, and with it the borderline family reproduces the lam^sigma
    counting law with a finite turning point.  Set critical_shift=False for
    closed-form cross-checks on compact wells.

    All modes are integrated at once: the per-node mode runs of one shared
    4001-node probe bracket the turning points, one batched root solve
    refines them, and the panels between turning points, domain ends,
    support edge and field kinks are mapped by x = a + (b - a) sin^2(theta)
    and summed by a 24-point Gauss rule with adaptive halving
    (QuadratureFailure if that does not converge; DomainError if the
    integrand is not finite).  Wells are integrated in t, except the
    borderline well, which runs in s = log|t| on a geometric probe, so
    turning points at astronomically large |t| cost O(1) nodes.

    ``m`` is one mode or a sequence of modes; a sequence gives the list of
    per-mode counts, equal to the one-mode calls.  This is the one-job case
    of ``phase_integral_counts``.
    """
    modes = [m] if np.ndim(m) == 0 else list(m)
    [counts] = phase_integral_counts(
        field, V, [(lambda_coupling, modes)], critical_shift, t_domain
    )
    return counts[0] if np.ndim(m) == 0 else counts


def phase_integral_counts(
    field: RadialField,
    V: Potential,
    jobs,
    critical_shift: bool = True,
    t_domain: tuple | None = None,
) -> list[list[float]]:
    """Per-mode phase-integral counts for each (coupling, modes) job.

    Each job's list equals ``phase_integral_count(field, V, modes, coupling,
    critical_shift, t_domain)``.  Each job has its own probe, but one root
    solve refines the turning points of every job and one Gauss panel call
    integrates the panels of every job.  Both work bracket by bracket and
    panel by panel, so a job's counts do not depend on the other jobs.
    """
    jobs = [(lam, list(modes)) for lam, modes in jobs]
    _check_coupling(*(lam for lam, _ in jobs))
    _check_modes([m for _, modes in jobs for m in modes])
    base, _ = _unwrap_scaled(V, 1.0)
    if isinstance(base, VSigma):
        # the borderline well runs on the unwrapped potential and coupling
        terms, span = _loglog_coordinate(field, base, critical_shift, t_domain)
        jobs = [(_unwrap_scaled(V, lam)[1], modes) for lam, modes in jobs]
    else:
        terms, span = _direct_coordinate(field, V, critical_shift, t_domain)
    return _phase_panels(terms, [(lam, modes, span(lam)) for lam, modes in jobs])


def _direct_coordinate(field, V, critical_shift, t_domain):
    """The phase integrand in t: ``terms(t, lam)``, and ``span(lam)``, the
    probe and breaks, which do not depend on the coupling; None when the
    range is empty.  The range ends at a finite support edge of V, past which
    the radicand is at most 0, and a probe ending there brackets no turning
    point at the jump."""
    sup = V.support_t_max
    if t_domain is None:
        t_lo, t_hi = -60.0, (2.0 if sup is None else sup)
    else:
        t_lo, t_hi = float(min(t_domain)), float(max(t_domain))
    if sup is not None:
        t_hi = min(t_hi, sup)

    def terms(t, lam):
        barrier = 1.0 / (4.0 * (1.0 + t * t)) if critical_shift else 0.0
        return lam * V.e2t_v(t), field.alpha(t), 1.0, barrier

    if t_hi <= t_lo:
        return terms, lambda lam: None
    # split at the field's kinks so no quadrature panel straddles one
    fixed = [t_lo, t_hi, *field.kinks]
    probe = np.linspace(t_lo, t_hi, 4001)
    return terms, lambda lam: (probe, fixed)


def _loglog_coordinate(field, V: VSigma, critical_shift, t_domain):
    """The borderline well's phase integrand in s = log|t|, t = -e^s <= -2.

    dt = -e^s ds turns the radicand into lam s^{-1/sigma} - (e^s |m - alpha|)^2
    - 1/(4(1 + e^{-2s})).  Returns ``terms(s, lam)``, and ``span(lam)``, the
    probe and breaks of a coupling, None when its s-range is empty.
    """

    def span(lam):
        s_lo, s_hi = np.log(2.0), np.inf
        if critical_shift:
            # turning point of lam s^{-1/sigma} = 1/4 caps the s-range
            s_hi = (4.0 * lam) ** V.sigma
        if t_domain is not None:
            t_lo, t_hi = float(min(t_domain)), float(max(t_domain))
            if t_lo >= -2.0:
                return None
            s_hi = min(s_hi, np.log(-t_lo))
            if t_hi < -2.0:
                s_lo = np.log(-t_hi)
        if not np.isfinite(s_hi):
            raise ValueError(
                "phase integral without the critical shift needs a finite t-domain "
                "for the borderline potential"
            )
        if s_hi <= s_lo:
            return None
        # the support edge t = -2 is s = log 2, at or below s_lo
        fixed = [s_lo, s_hi, *(np.log(-k) for k in field.kinks if k < 0.0)]
        return np.geomspace(s_lo, s_hi, 4001), fixed

    def terms(s, lam):
        with np.errstate(over="ignore", invalid="ignore"):
            es = np.exp(s)  # inf beyond s = 709: the forbidden limit wherever m != alpha
            alpha = field.alpha(-es)
        barrier = 1.0 / (4.0 * (1.0 + np.exp(-2.0 * s))) if critical_shift else 0.0
        return lam * s ** (-1.0 / V.sigma), alpha, es, barrier

    return terms, span


def _phase_panels(terms, jobs):
    """Per-mode (1/pi) int sqrt(max(well - (g |m - alpha|)^2 - barrier, 0)) dx
    for each job (lam, modes, span), from ``terms(x, lam) = (well, alpha, g,
    barrier)``, lam a scalar or one value per point.  ``span`` is (probe,
    fixed), None for an empty range, and the integral runs over the probe's
    extent.  ``fixed`` lists known jumps and kinks; those outside the extent
    are ignored."""

    def finite_terms(x, lam):
        well, alpha, g, barrier = terms(x, lam)
        bad = ~(np.isfinite(well) & np.isfinite(alpha))
        if bad.any():
            raise DomainError(f"phase integrand is not finite at {float(x[bad][0])!r}")
        return well, alpha, g, barrier

    def w_neg(x, m, lam):
        """The radicand at points x of modes m and couplings lam (one shape)."""
        return _radicand(m, *finite_terms(x, lam))

    # sign changes on each job's probe bracket its turning points.  Job j's
    # mode k is row offsets[j] + k of the results.
    offsets = np.cumsum([0] + [len(modes) for _, modes, _ in jobs])
    brackets, open_jobs = [], []
    for j, (lam, modes, span) in enumerate(jobs):
        if span is None:
            continue
        probe, fixed = span
        (lo, hi, f_lo, f_hi, k), open_k = _mode_brackets(probe, finite_terms(probe, lam), modes)
        if open_k.size:
            brackets.append((lo, hi, f_lo, f_hi, offsets[j] + k))
            x_lo, x_hi = probe[0], probe[-1]
            fixed = np.array([x for x in fixed if x_lo <= x <= x_hi], dtype=float)
            open_jobs.append((j, offsets[j] + open_k, fixed))
    if not open_jobs:
        return [[0.0] * len(modes) for _, modes, _ in jobs]
    m_of = np.concatenate([np.asarray(modes, dtype=float) for _, modes, _ in jobs])
    lam_of = np.repeat([float(lam) for lam, _, _ in jobs], np.diff(offsets))
    lo, hi, f_lo, f_hi, bracket_row = (np.concatenate(c) for c in zip(*brackets))
    m_bracket, lam_bracket = m_of[bracket_row], lam_of[bracket_row]
    edges = _roots(lambda x: w_neg(x, m_bracket, lam_bracket), lo, hi, f_lo, f_hi, 0.0)

    # each job's panels, row by row, each row's panels ascending
    panels = []
    for j, open_rows, fixed in open_jobs:
        mine = (offsets[j] <= bracket_row) & (bracket_row < offsets[j + 1])
        panels.append(_mode_panels(edges[mine], bracket_row[mine], open_rows, fixed))
    a, b, row = (np.concatenate(c) for c in zip(*panels))
    keep = w_neg(0.5 * (a + b), m_of[row], lam_of[row]) > 0
    a, b, row = a[keep], b[keep], row[keep]
    m_panel, lam_panel = m_of[row], lam_of[row]
    vals = _sin2_gauss_panels(
        lambda x, rows: np.sqrt(np.maximum(w_neg(x, m_panel[rows], lam_panel[rows]), 0.0)), a, b
    )
    # each row's panels are added in ascending order, as in a one-mode call
    counts = (np.bincount(row, weights=vals, minlength=offsets[-1]) / np.pi).tolist()
    return [counts[offsets[j] : offsets[j + 1]] for j in range(len(jobs))]


def _radicand(m, well, alpha, g, barrier):
    """The phase radicand well - (g |m - alpha|)^2 - barrier, elementwise."""
    am = np.abs(m - alpha)
    # g = e^s may be inf: (g am)^2 overflows to the forbidden limit, and
    # am == 0 is short-circuited
    with np.errstate(over="ignore", invalid="ignore"):
        return well - np.where(am > 0.0, (g * am) ** 2, 0.0) - barrier


def _mode_brackets(probe, terms, modes):
    """Every sign change of every mode's radicand on the probe.

    Returns the brackets (lo, hi, f_lo, f_hi, k), k the mode's index in
    ``modes``, ordered by k and then by node, with f the radicand at lo and
    hi; and the ascending indices of the modes positive at some node.  They
    equal those of a scan that builds each mode's radicand on the whole
    probe, but no such row is built.

    At one node the computed radicand is non-increasing in |m - alpha|:
    every IEEE operation in it is monotone under rounding, and so is |m -
    alpha| on either side of alpha.  So the modes positive at a node are one
    run [start, stop) of the sorted unique modes u, around c, the first
    position with u >= alpha.  A float guess of each run's ends,
    alpha -+ sqrt(well - barrier) / g, is settled with the exact radicand at
    its neighbours (``_settle``): four probe-length passes, however many
    modes there are.  A mode changes sign between nodes i and i + 1 exactly
    when its position lies in one of their runs and not in the other.
    """
    well, alpha, g, barrier = np.broadcast_arrays(*terms)
    u, inverse = np.unique(np.asarray(modes, dtype=float), return_inverse=True)
    if not u.size:
        none = probe[:0]
        return (none, none, none, none, inverse), inverse

    def positive(k, node):
        return _radicand(u[k], well[node], alpha[node], g[node], barrier[node]) > 0.0

    c = np.searchsorted(u, alpha)  # u[:c] < alpha <= u[c:]
    # no mode is positive where m = alpha is not: there the run is [c, c)
    top = well - barrier
    reach = np.sqrt(np.maximum(top, 0.0)) / g  # 0 where g = inf: only m = alpha
    guess_stop = np.maximum(np.searchsorted(u, alpha + reach, side="right"), c)
    guess_start = np.minimum(np.searchsorted(u, alpha - reach), c)
    # stop: the first position from c on that is not positive; start: the
    # first position before c that is
    stop = _settle(
        np.where(top > 0.0, guess_stop, c), c, np.full_like(c, u.size),
        lambda k, node: ~positive(k, node),
    )
    start = _settle(np.where(top > 0.0, guess_start, c), np.zeros_like(c), c, positive)

    # the positions in exactly one of the runs of nodes i and i + 1: where the
    # runs overlap, those between their starts and between their stops;
    # otherwise each run whole (an empty run adds nothing)
    i = np.flatnonzero((start[:-1] != start[1:]) | (stop[:-1] != stop[1:]))
    s0, s1, e0, e1 = start[i], start[i + 1], stop[i], stop[i + 1]
    overlap = np.maximum(s0, s1) < np.minimum(e0, e1)
    lo = np.concatenate([np.where(overlap, np.minimum(s0, s1), s0),
                         np.where(overlap, np.minimum(e0, e1), s1)])
    hi = np.concatenate([np.where(overlap, np.maximum(s0, s1), e0),
                         np.where(overlap, np.maximum(e0, e1), e1)])
    pos, node = _expand(lo, hi - lo, np.concatenate([i, i]))
    order = np.lexsort((node, pos))
    pos, node = pos[order], node[order]
    both = np.concatenate([node, node + 1])
    f = _radicand(u[np.concatenate([pos, pos])], well[both], alpha[both], g[both], barrier[both])

    # each index of modes takes its position's brackets, a repeated mode once
    # per index
    per_position = np.bincount(pos, minlength=u.size)
    first = np.cumsum(per_position) - per_position
    b, k = _expand(first[inverse], per_position[inverse], np.arange(inverse.size))
    i = node[b]
    brackets = (probe[i], probe[i + 1], f[: pos.size][b], f[pos.size :][b], k)

    # a position is open when some run covers it
    runs = np.bincount(start, minlength=u.size + 1) - np.bincount(stop, minlength=u.size + 1)
    return brackets, np.flatnonzero(np.cumsum(runs)[inverse] > 0)


def _expand(first, count, owner):
    """first[j], first[j] + 1, ... (count[j] values) for each j in turn, and
    owner[j] repeated alongside."""
    start = np.cumsum(count) - count
    return np.repeat(first - start, count) + np.arange(count.sum()), np.repeat(owner, count)


def _settle(pos, lo, hi, pred):
    """Each guess pos in [lo, hi] moved to the first k in [lo, hi) with
    pred(k, i), hi when there is none, where pred(., i) is false and then
    true on [lo, hi) and i is the guess's index.  Each pass evaluates pred at
    pos and pos - 1 of every guess still moving; the first pass takes the
    guesses whole (i a full slice), and any later pass only those it moved."""
    pos = pos.copy()
    index = np.arange(pos.size)
    moving = slice(None)
    while True:
        at, lo_at, hi_at = pos[moving], lo[moving], hi[moving]
        # a neighbour outside [lo, hi) is evaluated at hi - 1 or pos - 1, in
        # [-1, hi - 1], and ignored
        up = (at < hi_at) & ~pred(np.minimum(at, hi_at - 1), moving)
        down = (at > lo_at) & pred(at - 1, moving)
        if not (up.any() or down.any()):
            return pos
        pos[moving] = at + up - down
        moving = index[moving][up | down]


def _mode_panels(edges, edge_mode, open_modes, fixed):
    """Panels (a, b, mode) between each open mode's neighbouring distinct
    points, its edges (``edges`` where ``edge_mode`` is the mode) and every
    fixed point; mode by mode in ``open_modes``' ascending order, each mode's
    panels ascending.  One lexsort by (mode, x) orders all points at once."""
    x = np.concatenate([edges, np.tile(fixed, len(open_modes))])
    mode = np.concatenate([edge_mode, np.repeat(open_modes, fixed.size)])
    order = np.lexsort((x, mode))
    x, mode = x[order], mode[order]
    # a point equal to the one before it in the same mode adds no panel
    new = np.r_[True, (x[1:] != x[:-1]) | (mode[1:] != mode[:-1])]
    x, mode = x[new], mode[new]
    pair = mode[1:] == mode[:-1]
    return x[:-1][pair], x[1:][pair], mode[1:][pair]

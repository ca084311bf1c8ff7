"""Per-mode radial operators: assembly, inertia counts, Hardy minima, phase methods.

The mode-m quadratic form in t = log r,

    q_m[u] = int ( |u'|^2 + (m - alpha(t))^2 |u|^2 - e^{2t} V(t) |u|^2 ) dt,

is discretized with cell-difference stiffness and trapezoid-lumped zero-order
terms on a Dirichlet grid, giving a symmetric tridiagonal matrix.  Every
factorization is LAPACK's LDL^T (dpttrf), loaded without importing
scipy.linalg (``_lapack``).  The contracts:

- An inertia count (``count_negative``, ``count_modes``) is the number of
  negative pivots, exact for the assembled matrix (Sylvester's law of
  inertia), with LAPACK's pivot floor PIVMIN (``_pivmin``); an exact zero
  pivot counts as non-negative and emits a ZeroPivotWarning.
- A Pruefer count (``prufer_count``) is exact for the coefficient held at
  its cell mean on each cell of an 8192-point table: the same counter runs
  on that coefficient's exact-element tridiagonal, and a cell too long for
  its coefficient raises StiffnessFailure.
- A Hardy minimum (``hardy_constant``) is the least double mu at which
  dpttrf of K - mu M fails on the last refinement level; the minima rise
  under refinement, from below the continuum value.
- The phase integral (``phase_integral_count``), an independent
  cross-check, is the semiclassical count (1/pi) int sqrt((lam e^{2t} V -
  (m - alpha)^2 - kappa)_+) dt with the critical tail shift kappa.
- A NaN, infinite or negative coupling, a NaN or infinite mode, and a
  non-finite operator or table raise ValueError; a non-finite lam e^{2t} V+
  in ``mode_truncation`` and an infinite, negative or NaN weight mass in
  ``hardy_constant`` raise DomainError.

How each path gets there is in the docstrings of ``_inertia_counter``,
``count_modes``, ``hardy_constant``, ``prufer_count`` and ``_mode_brackets``.
"""

import sys
import warnings
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cache, partial

import numpy as np

from . import _kernels
from .errors import (
    DomainError,
    NoTruncation,
    StiffnessFailure,
    ZeroPivotWarning,
)
from .grids import Grid, _sorted_unique
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
    """The interior nodes, the off-diagonal, and the stiffness and lumps of
    the diagonal stiff + q * lump, q = (m - alpha)^2 - lam e^{2t} V: every
    mode's matrix of the grid, bit for bit, whichever function assembles it."""
    h = grid.steps
    return grid.t[1:-1], -1.0 / h[1:-1], 1.0 / h[:-1] + 1.0 / h[1:], _lumps(grid)


def _diagonal(m, stiff, alpha, lv, lump, out=None):
    """Mode m's diagonal stiff + ((m - alpha)^2 - lv) lump, lv = lam e^{2t} V,
    written into ``out`` when it is given: the one writer of every mode
    diagonal, so that each is the same to the bit whichever function needs
    it."""
    d = np.subtract(m, alpha, out=out)
    np.square(d, out=d)
    np.subtract(d, lv, out=d)
    np.multiply(d, lump, out=d)
    return np.add(stiff, d, out=d)


def assemble_mode(field: RadialField, V: Potential, m: int, grid: Grid, lam: float = 1.0) -> ModeOperator:
    """Tridiagonal matrix of the mode form with Dirichlet ends."""
    _check_coupling(lam)
    _check_modes(m)
    ti, off, stiff, lump = _mode_terms(grid)
    diag = _diagonal(m, stiff, field.alpha(ti), lam * V.e2t_v(ti), lump)
    return ModeOperator(m=int(m), diag=diag, offdiag=off)


# the coupling scipy's dpttrf wants of a 1 x 1 matrix
_NO_COUPLING = np.zeros(1)


@cache
def _lapack():
    """SciPy's LAPACK routines, dpttrf and dpttrs among them: the extension
    ``scipy.linalg._flapack``, loaded from its file on first use.  Importing
    it through ``scipy.linalg`` would cost more than numpy's own import.  A
    copy already imported is reused, and ``scipy.linalg.lapack``, which
    holds the same routines, stands in when the file is missing or fails to
    load."""
    import os
    from importlib import machinery, util

    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    spec = util.find_spec("scipy")
    for suffix in machinery.EXTENSION_SUFFIXES if spec else ():
        path = os.path.join(spec.submodule_search_locations[0], "linalg", "_flapack" + suffix)
        if not os.path.isfile(path):
            continue
        loader = machinery.ExtensionFileLoader(name, path)
        try:
            module = util.module_from_spec(util.spec_from_loader(name, loader))
            loader.exec_module(module)
        except ImportError:
            break
        # the loader may register the module without its package: a later
        # import of scipy.linalg then imports it afresh, as a submodule
        if sys.modules.get(name) is module:
            del sys.modules[name]
        return module
    from scipy.linalg import lapack

    return lapack


def count_negative(op: ModeOperator) -> int:
    """Exact negative-eigenvalue count by LDL^T inertia (Sturm sequence).

    The count runs on the rows that can change it (``_inertia_counter``): a
    matrix with no weak row counts 0 without a sweep; otherwise dpttrf sweeps
    from the end with the shorter strong run, through the last weak row, and
    stops at the first pivot that dominates its coupling to the next row.

    A NaN or infinite entry raises ValueError: the count would be meaningless.
    """
    return _count_diagonal(_inertia_counter(op.offdiag), op.diag)


def _count_diagonal(counter, diag):
    """The count of an assembled diagonal against the counter's couplings."""
    bound, count = counter
    if not np.isfinite(diag).all():
        raise ValueError("mode operator entries must be finite")
    weak = np.flatnonzero(diag <= bound)
    if not weak.size:
        return 0
    return count(weak[0], weak[-1], lambda reverse: (diag[::-1] if reverse else diag, None))


def count_modes(field: RadialField, V: Potential, modes, grid: Grid, lam: float = 1.0) -> list[int]:
    """Per-mode inertia counts, equal to ``count_negative(assemble_mode(field,
    V, m, grid, lam))`` for each m in ``modes``.

    Everything that does not depend on the mode (alpha, the potential and
    ``_mode_terms``) is evaluated once, and each mode's diagonal
    (``_diagonal``) only on the rows its sweep reads (``_inertia_counter``).
    Every IEEE operation of the diagonal is monotone in |m - alpha|, which
    gives bounds shared by all modes:

    - Row by row, no diagonal of a mode above (below) alpha on every row lies
      below that of the listed mode next nearer alpha on that side.  The
      first mode on each side looks for its weak rows in all rows, and each
      later one only in the weak rows of the one before it.
    - The same chain of operations on max |m| + max |alpha|, max |lam e^{2t}
      V| and the largest stiffness and lump bounds every entry of every
      mode.  When it is finite, so is every diagonal.  When it is not, each
      mode's whole diagonal is assembled and checked, as ``count_negative``
      checks it.
    """
    _check_coupling(lam)
    modes = list(modes)
    _check_modes(modes)
    ti, off, stiff, lump = _mode_terms(grid)
    alpha = field.alpha(ti)
    lv = lam * V.e2t_v(ti)
    counter = bound, count = _inertia_counter(off)
    n = ti.size
    if not modes:
        return []
    low, high = float(alpha.min()), float(alpha.max())
    reach = float(np.abs(np.asarray(modes, dtype=float)).max()) + max(high, -low)
    largest = float(stiff.max()) + (reach * reach + max(float(lv.max()), -float(lv.min()))) * float(lump.max())
    if not np.isfinite(largest):
        return [_count_diagonal(counter, _diagonal(m, stiff, alpha, lv, lump)) for m in modes]
    # the mode-independent terms and buffers, in both sweep orientations
    terms = (stiff, alpha, lv, lump)
    oriented = (terms, tuple(x[::-1] for x in terms))
    buffers = (np.empty(n), np.empty(n))

    def assemble(m, reverse, out, a, b):
        # mode m's diagonal on the oriented rows [a, b)
        s, al, v, u = oriented[reverse]
        _diagonal(m, s[a:b], al[a:b], v[a:b], u[a:b], out=out[a:b])

    def rows(m, a, b, reverse):
        # the sweep's buffer for mode m, its rows [a, b) in place, and the
        # function that assembles the others
        d = buffers[reverse]
        start, end = (n - b, n - a) if reverse else (a, b)
        if reverse:
            d[start:end] = buffers[0][a:b][::-1]

        def fill(x, y):
            for x, y in ((x, min(y, start)), (max(x, end), y)):
                if x < y:
                    assemble(m, reverse, d, x, y)

        return d, fill

    # outward from alpha: on either side, each mode searches only the weak
    # rows of the one before it
    side = [int(m >= high) - int(m <= low) for m in modes]
    spans, counts = {}, [0] * len(modes)
    for i in sorted(range(len(modes)), key=lambda i: abs(modes[i] - (low + high) / 2)):
        m = modes[i]
        a, b = spans.get(side[i], (0, n))
        if a == b:
            continue
        # those rows, assembled once for the weak test and the sweep
        assemble(m, False, buffers[0], a, b)
        weak = buffers[0][a:b] <= bound[a:b]
        first = int(weak.argmax())
        if not weak[first]:
            if side[i]:
                spans[side[i]] = (a, a)
            continue
        last = b - 1 - int(weak[::-1].argmax())
        if side[i]:
            spans[side[i]] = (a + first, last + 1)
        counts[i] = count(a + first, last, partial(rows, m, a, b))
    return counts


# a strong row's margin over the sum of its couplings
_STRONG = 1.0 + 2.0**-40
# couplings whose square is a normal double: a row beside any other nonzero
# coupling is weak
_TAME = (2.0**-500, 2.0**500)
# rows a sweep first takes past the last weak row before it looks for its stop
_PAST_LAST = 64


def _inertia_counter(off):
    """(strong-row bound, count) for tridiagonals with the couplings ``off``.
    A NaN or infinite coupling raises ValueError.

    Row k is *strong* when diag_k > bound_k = (1 + 2^-40)(|off_{k-1}| +
    |off_k|) and each of those couplings is 0 or within _TAME.  ``count(first,
    last, rows)`` takes the first and last weak rows of a diagonal and returns
    its negative-pivot count (``_negative_pivots``), with the pivot floor
    ``_pivmin(off)``, warning (ZeroPivotWarning) when an exact zero pivot was
    perturbed.  The sweep runs forward, or over the reversed matrix when the
    leading strong run is strictly longer than the trailing one, so that the
    longer run comes last; ``rows(reverse)`` gives that orientation's diagonal
    buffer and the function that assembles rows of it (None when it is
    whole).  The sweep ends at the first pivot p >= |b| at or after the last
    weak row, b the coupling to the next row; the rows after it are never
    assembled.

    Why that is exact: dpttrf computes the next pivot as a - fl(fl(b / p) b).
    Let p >= |b|, so p > 0 (a clamped pivot is never 0), and let the next row
    be strong, a > fl((1 + 2^-40) fl(|b| + |c|)) with c its own coupling.
    Then |b / p| <= 1, so |fl(b / p)| <= 1 and 0 <= fl(fl(b / p) b) <= |b|:
    rounding is monotone and 1 and |b| are doubles.  With b and c zero or
    tame, the two roundings of the strength bound cost at most a factor (1 -
    2^-53)^2, which the 2^-40 margin covers, so a - |b| > |c| exactly.  The
    next pivot, a rounded difference above |c|, is >= |c| and never 0 (an
    exact positive difference of doubles does not round to 0), so no clamp
    touches it.  By induction every later pivot is positive: the skipped rows
    add no negative and no zero pivot, whatever the grid spacing.  Before the
    first row, a pivot of 1 meets a zero coupling, so a wholly strong matrix
    counts 0.
    """
    if not np.isfinite(off).all():
        raise ValueError("mode operator entries must be finite")
    pivmin = _pivmin(off)
    couplings = np.abs(off)
    bound = np.zeros(off.size + 1)
    bound[:-1] = couplings
    bound[1:] += couplings
    bound *= _STRONG
    if off.size and not _TAME[0] <= couplings.min() <= couplings.max() <= _TAME[1]:
        # no row next to a nonzero coupling outside _TAME is strong
        wild = (couplings != 0.0) & ((couplings < _TAME[0]) | (couplings > _TAME[1]))
        bound[:-1][wild] = np.inf
        bound[1:][wild] = np.inf
    swept = (off, off[::-1])
    n = bound.size

    def count(first, last, rows):
        reverse = bool(first > n - 1 - last)
        d, fill = rows(reverse)
        neg, zero_pivots = _negative_pivots(d, swept[reverse], pivmin, n - 1 - first if reverse else last, fill)
        if zero_pivots:
            warnings.warn(
                f"{zero_pivots} exact zero pivot(s) perturbed in inertia count",
                ZeroPivotWarning,
            )
        return neg

    return bound, count


def _negative_pivots(diag, off, pivmin, last=None, fill=None):
    """(negative pivots, zero pivots) of the LDL^T factorization of the finite
    tridiagonal (diag, off); by Sylvester's law of inertia the first is the
    number of negative eigenvalues.  LAPACK's dpttrf runs the recurrence
    d' = a - (b / d) b until a pivot is not positive, and returns its row.
    That pivot is counted: an exact zero becomes +pivmin and is reported as
    perturbed, and one in (-pivmin, 0) becomes -pivmin, so that no quotient
    b / d overflows.  It is folded into the next row's diagonal, and dpttrf
    resumes on the rows after it.  A pivot in (0, pivmin) stays as it is: a
    quotient that overflows makes the next pivot -inf, its sign in exact
    arithmetic, and the one after it that row's own diagonal.  Folds run on
    Python floats, which overflow to +-inf without a warning.

    With ``last``, every row after it strong (``_inertia_counter``), the
    sweep stops at the first pivot at or after ``last`` that dominates its
    coupling to the next row.  With ``fill``, ``diag`` is a buffer, written
    over, whose rows [a, b) ``fill(a, b)`` assembles before the sweep reads
    them."""
    n = diag.size
    if fill is None:
        diag = np.array(diag, dtype=float)
    last = n - 1 if last is None else last
    # dpttrf writes its multipliers over the couplings it reads
    e = np.empty(max(n - 1, 0))
    row = end = neg = zero_pivots = 0
    dpttrf = _lapack().dpttrf
    while row < n:
        if row == end:
            # the next rows: _PAST_LAST past last, then as many again as the
            # sweep has gone past it
            end = min(n, max(end, last + 1) + max(_PAST_LAST, end - last))
            if fill is not None:
                fill(row, end)
            e[row : end - 1] = off[row : end - 1]
            if row:
                # the previous row's pivot, folded as dpttrf folds it
                b = off.item(row - 1)
                diag[row] = diag.item(row) - b / pivot * b
        # the rows from row to end, factored in place up to the failing one
        # (overwrite_d and overwrite_e, passed by position)
        pivots, _, info = dpttrf(diag[row:end], e[row : end - 1] if end - row > 1 else _NO_COUPLING, 1, 1)
        if not info:
            if end == n:
                break
            # a pivot at or after last that dominates its coupling
            k, row, pivot = max(row, last), end, pivots.item(-1)
            if (pivots[k - end :] >= np.abs(off[k:end])).any():
                break
            continue
        row += info
        pivot = pivots.item(info - 1)
        if pivot == 0.0:
            pivot, zero_pivots = pivmin, zero_pivots + 1
        elif pivot > -pivmin:
            pivot = -pivmin
        if pivot < 0.0:
            neg += 1
        elif row - 1 >= last and row < n and pivot >= abs(off.item(row - 1)):
            break
        if row < end:
            b = off.item(row - 1)
            diag[row] = diag.item(row) - b / pivot * b
    return neg, zero_pivots


def _pivmin(off):
    """LAPACK's pivot floor PIVMIN (dstebz; Demmel, Dhillon & Ren, ETNA 3,
    1995): the smallest normal double times max(1, max b^2) over the
    couplings b, so that no quotient b / pivot overflows.  The scale is
    capped at the largest double, so that a coupling whose square overflows
    leaves it finite."""
    # a Python float square overflows to inf without a warning
    b = float(np.max(np.abs(off))) if off.size else 0.0
    return min(max(1.0, b * b), sys.float_info.max) * sys.float_info.min


def mode_truncation(field: RadialField, V: Potential, grid: Grid, lam: float = 1.0) -> int:
    """Smallest M with (m - alpha)^2 >= lam e^{2t} V on the grid for |m| > M.

    Modes beyond M see a pointwise nonnegative form and contribute no
    negative eigenvalues.  Raises NoTruncation when the claimed-forbidden
    modes are not actually forbidden at the grid edges (potential decaying
    too slowly for this domain).  Raises DomainError where lam e^{2t} V_+ is
    not finite.
    """
    _check_coupling(lam)
    t = grid.t
    vt = lam * V.vplus_density(t)
    bad = ~np.isfinite(vt)
    if bad.any():
        raise DomainError(f"lam e^(2t) V_+ is not finite at t = {float(t[bad][0])!r}")
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
        ti, off, stiff, lump = _mode_terms(g)
        mass = w.mass_density(ti) * lump
        bad = ~((mass >= 0.0) & (mass < np.inf))
        if bad.any():
            raise DomainError(f"weight mass is infinite, negative or NaN at t = {float(ti[bad][0])!r}")
        alpha = field.alpha(ti)
        # row by row, no mode's K exceeds that of the mode farthest from
        # alpha: one check stands for every mode's
        farthest = np.maximum((min(modes) - alpha) ** 2, (max(modes) - alpha) ** 2)
        if not np.isfinite(stiff + farthest * lump).all():
            raise ValueError("pencil entries must be finite and the masses nonnegative")
        solves = {}
        if (mass > 0.0).any():
            for m in modes:
                pencil = (_diagonal(m, stiff, alpha, 0.0, lump), off, mass)
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
    """Node count in (t0, t1) of the zero-energy solution of -u'' + Q u = 0,
    Q = (m - alpha)^2 - lam e^{2t} V, u(t0) = 0: by Sturm's oscillation
    theorem, the Dirichlet negative-eigenvalue count on t_range.

    ``m`` is one mode or a sequence of modes; a sequence gives the list of
    per-mode counts, equal to the one-mode calls.  alpha and lam e^{2t} V are
    sampled once for all of them, on a table of 8192 equally spaced points; a
    NaN or infinite sample raises ValueError.  Each cell takes the mean q of
    the linear interpolant of Q on it, and the count is that of this
    piecewise-constant coefficient, exactly: the negative pivots of its
    exact-element tridiagonal (``_kernels.cell_entries``), counted as
    ``count_negative`` counts.

    Why that is exact: when every cell has q h^2 > -pi^2 (h its length),
    H^1_0 splits, orthogonally for the form, into the functions that solve
    the equation on each cell, fixed by their nodal values, and those that
    vanish at every node.  The form is positive definite on the second part,
    each cell being shorter than half a wavelength, and is the tridiagonal on
    the first; so the Dirichlet negative index is the tridiagonal's
    (Haynsworth).  A cell with q h^2 <= -pi^2 could hold a node of its own
    and raises StiffnessFailure.
    """
    t0, t1 = float(t_range[0]), float(t_range[1])
    if not t1 > t0:
        raise ValueError("t_range must be increasing")
    if not np.isfinite(t1 - t0):
        raise ValueError("t_range must have finite ends and a finite span")
    _check_coupling(lam)
    modes = [m] if np.ndim(m) == 0 else list(m)
    _check_modes(modes)
    tq = np.linspace(t0, t1, 8192)
    alpha = field.alpha(tq)
    lv = lam * V.e2t_v(tq)
    if not (np.isfinite(alpha).all() and np.isfinite(lv).all()):
        raise ValueError("mode operator entries must be finite")
    h = np.diff(tq)
    counts = []
    for mode in modes:
        # a coefficient past the largest double only makes its cell stronger
        with np.errstate(over="ignore"):
            q = np.square(mode - alpha) - lv
            z = np.minimum(0.5 * (q[:-1] + q[1:]) * h * h, sys.float_info.max)
        long = np.flatnonzero(z <= -np.pi**2)
        if long.size:
            raise StiffnessFailure(
                f"the cell at t = {tq[long[0]]:.6g} is too long for the table spacing {(t1 - t0) / 8191:.6g}: "
                f"q h^2 = {z[long[0]]:.6g} <= -pi^2, so it could hold a node"
            )
        f, g = _kernels.cell_entries(z)
        counts.append(_count_diagonal(_inertia_counter(-g[1:-1]), f[:-1] + f[1:]))
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
    modes = np.asarray(modes, dtype=float)
    u = _sorted_unique(modes)
    inverse = np.searchsorted(u, modes)  # modes are finite, so each finds itself
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

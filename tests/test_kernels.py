"""The LAPACK inertia count against LAPACK and dense counts and a mirror of
dpttrf's recurrence; the exact-element Pruefer count against an RK4 stepper
of the continuum phase."""

import sys
import warnings
from bisect import bisect_left

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eigvalsh_tridiagonal

import maghardy as mh
from maghardy import spectral
from maghardy.errors import ZeroPivotWarning
from maghardy.spectral import ModeOperator, _negative_pivots, _pivmin


def _lapack_negatives(d, e):
    """Negative eigenvalues by LAPACK; None when one sits too close to 0 to
    count robustly (the LDL^T and LAPACK counts may then legitimately differ)."""
    w = eigvalsh_tridiagonal(d, e)
    scale = max(1.0, float(np.max(np.abs(w))))
    if np.min(np.abs(w)) < 1e-9 * scale:
        return None
    return int(np.sum(w < 0.0))


@st.composite
def _tridiagonals(draw):
    """Gaussian entries at a drawn scale, some couplings cut to zero."""
    n = draw(st.integers(1, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([1e-3, 1.0, 1e3]))
    d = scale * rng.normal(size=n)
    e = scale * rng.normal(size=n - 1)
    cuts = draw(st.sets(st.integers(0, n - 2), max_size=3)) if n > 1 else set()
    e[list(cuts)] = 0.0
    return d, e


@st.composite
def _near_zero_pivots(draw):
    """Diagonals chosen so that some pivots of the recurrence come out zero
    or within a few ulps of it.  The last pivot, and pivots ahead of a cut
    coupling, are left alone: there a zero pivot makes the matrix singular
    and the count moot."""
    d, e = draw(_tridiagonals().filter(lambda m: m[0].size >= 2))
    hits = draw(st.sets(st.integers(0, d.size - 2), min_size=1, max_size=3))
    eps = draw(st.sampled_from([0.0, 1e-300, -1e-300, 1e-17, -1e-17, 1e-9]))
    bound = 100.0 * float(np.max(np.abs(d)))
    piv = 1.0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for i in range(d.size):
            fill = e[i - 1] * e[i - 1] / piv if i > 0 else 0.0
            if i in hits and e[i] != 0.0 and abs(fill) < bound:
                d[i] = fill + eps
            piv = d[i] - fill
    return d, e


@settings(max_examples=200, deadline=None)
@given(_tridiagonals())
def test_inertia_matches_lapack(mat):
    d, e = mat
    want = _lapack_negatives(d, e)
    if want is not None:
        assert _negative_pivots(d, e, _pivmin(e))[0] == want


@settings(max_examples=200, deadline=None)
@given(_near_zero_pivots())
def test_inertia_near_zero_pivots_matches_lapack(mat):
    d, e = mat
    want = _lapack_negatives(d, e)
    if want is not None:
        assert _negative_pivots(d, e, _pivmin(e))[0] == want


@settings(max_examples=100, deadline=None)
@given(
    st.integers(2, 60).flatmap(
        lambda n: st.tuples(
            st.lists(st.floats(0.0, 5.0), min_size=n, max_size=n),
            st.lists(st.floats(-3.0, 3.0), min_size=n - 1, max_size=n - 1),
            st.lists(st.floats(0.0, 2.0), min_size=n, max_size=n),
        )
    ),
    st.floats(0.0, 10.0),
)
def test_shifted_inertia_matches_lapack(mats, mu):
    # K - mu M with K diagonally dominant (positive semidefinite) and M a
    # nonnegative diagonal, as in the shifted Hardy pencil
    kd, e, md = (np.array(x) for x in mats)
    kd = kd + np.abs(np.r_[e, 0.0]) + np.abs(np.r_[0.0, e])
    shifted = kd - mu * md
    want = _lapack_negatives(shifted, e)
    if want is not None:
        assert _negative_pivots(shifted, e, _pivmin(e))[0] == want


def _dpttrf_inertia(diag, off, pivmin):
    """(negative pivots, zero pivots) of the LDL^T recurrence as LAPACK's
    dpttrf computes it, e = b / d and d' = a - e b, on Python floats, with a
    pivot that is not positive clamped as ``spectral._negative_pivots``
    clamps it: an exact zero to +pivmin, reported, and one in (-pivmin, 0)
    to -pivmin.  The counter's oracle, and the Hardy certificate's in
    tests/test_mpmath_oracles.py, written apart from LAPACK."""
    diag, off = [float(a) for a in diag], [float(b) for b in off]
    neg = zero_pivots = 0
    # a zero coupling ahead of the first row makes its pivot a - 0 = a
    d = 1.0
    for a, b in zip(diag, [0.0, *off]):
        d = a - (b / d) * b
        if d == 0.0:
            d, zero_pivots = pivmin, zero_pivots + 1
        elif d < 0.0:
            d, neg = min(d, -pivmin), neg + 1
    return neg, zero_pivots


# "+piv" and "-piv" stand for +-pivmin, so that pivots land on it exactly
_EDGE_ENTRIES = (0.0, -0.0, 1e-300, -1e-300, 5e-324, -5e-324, "+piv", "-piv")
_EDGE_VALUES = np.array([0.0 if isinstance(x, str) else x for x in _EDGE_ENTRIES])
_EDGE_PIV_SIGNS = np.array([{"+piv": 1.0, "-piv": -1.0}.get(x, 0.0) for x in _EDGE_ENTRIES])
# doubles that hypothesis's floats() favours, among them the largest one
_NASTY = np.array([sys.float_info.max, sys.float_info.min, 2.0**53, 1e6, 1.0, 0.5, 1e-6])


def _edge_values(rng, size):
    """A third each: one of _EDGE_ENTRIES, a value in [-1e3, 1e3], and any
    finite double (random bits, or one of _NASTY with a random sign).
    Returns the values, 0 for +-pivmin, and the sign of each +-pivmin."""
    pick = rng.integers(0, len(_EDGE_ENTRIES), size)
    bits = np.frombuffer(rng.bytes(8 * size), dtype=np.float64)
    bits = np.where(np.isfinite(bits), bits, np.copysign(sys.float_info.max, bits))
    nasty = rng.choice(_NASTY, size) * rng.choice([-1.0, 1.0], size)
    wild = np.where(rng.random(size) < 0.25, nasty, bits)
    kind = rng.integers(0, 3, size)
    values = np.choose(kind, [_EDGE_VALUES[pick], rng.uniform(-1e3, 1e3, size), wild])
    return values, np.where(kind == 0, _EDGE_PIV_SIGNS[pick], 0.0)


@st.composite
def _edge_tridiagonals(draw):
    """Finite entries at the recurrence's edges: zeros, subnormals, the
    largest doubles and +-pivmin itself, in both the diagonal and the
    couplings; couplings are zero half the time, so that a drawn +-pivmin
    reaches the pivot unchanged.  Built with numpy from one drawn seed:
    hypothesis's own draws cost more than the sweep they feed."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = int(rng.integers(1, 13))
    d, d_piv = _edge_values(rng, n)
    e, e_piv = _edge_values(rng, n - 1)
    zero = rng.random(n - 1) < 0.5
    e[zero], e_piv[zero] = 0.0, 0.0
    pivmin = [None, 1e-290, 1.0][int(rng.integers(0, 3))]
    if pivmin is None:
        pivmin = _pivmin(e)
    return np.where(d_piv != 0.0, d_piv * pivmin, d), np.where(e_piv != 0.0, e_piv * pivmin, e), pivmin


@settings(max_examples=400, deadline=None)
@given(_edge_tridiagonals())
def test_inertia_equals_reference_recurrence(mat):
    d, e, pivmin = mat
    assert _negative_pivots(d, e, pivmin) == _dpttrf_inertia(d, e, pivmin)


def test_inertia_empty_matrix():
    # a 0x0 matrix has no negative eigenvalue
    assert _negative_pivots(np.zeros(0), np.zeros(0), 1e-290) == (0, 0)
    assert mh.count_negative(ModeOperator(0, np.zeros(0), np.zeros(0))) == 0


def test_zero_pivot_counted_nonnegative():
    # matrix diag(0): the zero pivot is perturbed positive and reported
    assert _negative_pivots(np.zeros(3), np.zeros(2), 1e-290) == (0, 3)


@pytest.mark.parametrize(
    "diag, off, negatives",
    [
        # det = 1e-310 - 1e-300 < 0; clamping the first pivot up to pivmin
        # = 1e-292 once counted 0
        ([1e-310, 1.0], [1e-150], 1),
        # det = b (2.1e-162 - b) > 0; b * b, subnormal, rounds up by 23%, and
        # squaring b before dividing once counted 1
        ([2e-162, 2.1e-162], [2e-162], 0),
        # a pivot floor that grew with the largest diagonal entry, max(1,
        # max |d|, max b^2) 1e-292, clamped the ordinary pivot -1 (or -1e-3)
        # to a larger negative value, whose fold turned the next pivot
        # negative: each of these once counted 2
        ([-1.0, -1e300], [1e153], 1),
        ([-1e-3, -1.0, 1e300, 1.0], [1.0, 0.0, 0.0], 1),
        ([-1.0, -1e295], [1e150], 1),
        ([1.0, 1e300, -1.0, -1e-3], [0.0, 0.0, 1.0], 1),
        # the fold of -2e16 into 1.79e308 overflows to +inf, its sign in
        # exact arithmetic; on a numpy scalar it once warned
        ([-2e16, 1.79e308], [1.34e161], 1),
    ],
    ids=[
        "subnormal-pivot",
        "subnormal-square",
        "huge-fold",
        "huge-diagonal-after",
        "huge-fold-1e295",
        "huge-diagonal-before",
        "overflowing-fold",
    ],
)
def test_count_follows_the_exact_determinant_at_pivmin_scale(diag, off, negatives):
    # both orientations, through count_negative and the recurrence's mirror
    # at LAPACK's pivot floor, count as LAPACK's eigensolver does
    for d, e in ((diag, off), (diag[::-1], off[::-1])):
        d, e = np.array(d), np.array(e)
        assert int(np.sum(eigvalsh_tridiagonal(d, e) < 0.0)) == negatives
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert mh.count_negative(ModeOperator(0, d, e)) == negatives
            assert _dpttrf_inertia(d, e, _pivmin(e)) == (negatives, 0)


@pytest.mark.parametrize("reverse", [False, True], ids=["forward", "reversed"])
def test_pivmin_stays_finite_when_a_coupling_square_overflows(reverse):
    # 1e200 squared overflows: pivmin was once inf, so that the negative
    # pivot -2e200 was clamped to -inf and the next pivot was -1, 2 counted;
    # reversed, the clamp made the next pivot 0, a spurious zero pivot
    diag, off = np.array([5e199, 0.0, -1.0]), np.array([1e200, 1e200])
    if reverse:
        diag = diag[::-1].copy()
    assert int(np.sum(eigvalsh_tridiagonal(diag, off) < 0.0)) == 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pivmin = _pivmin(off)
        assert np.isfinite(pivmin)
        assert mh.count_negative(ModeOperator(0, diag, off)) == 1
        assert _dpttrf_inertia(diag, off, pivmin) == (1, 0)


_FIELDS = st.one_of(
    st.just(mh.ZeroField()),
    st.floats(-3.0, 3.0).map(mh.BumpField),
    st.floats(1.5, 3.0).map(lambda gamma: mh.LogPowerField(1.0, gamma)),
)
_POTENTIALS = st.one_of(
    st.builds(mh.GaussianWell, st.floats(0.1, 3.0), st.floats(0.3, 2.0)),
    st.builds(mh.StepWell, st.floats(0.1, 3.0), st.floats(0.3, 2.0)),
    st.floats(1.5, 3.0).map(mh.VSigma),
)


@st.composite
def _assembled_modes(draw, max_n=400):
    """Mode matrices as count_modes assembles them, on uniform and auto grids."""
    field, V = draw(_FIELDS), draw(_POTENTIALS)
    n = draw(st.integers(3, max_n))
    t_min = draw(st.floats(-14.0, -2.0))
    if draw(st.booleans()):
        grid = mh.Grid.uniform(t_min, 3.0, n)
    else:
        grid = mh.Grid.auto(-40.0, 0.5, max(n, 8))
    lam = draw(st.floats(0.0, 2000.0))
    m = draw(st.integers(-25, 25))
    op = mh.assemble_mode(field, V, m, grid, lam=lam)
    return op.diag, op.offdiag


def _dense(diag, off):
    return np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)


@settings(max_examples=100, deadline=None)
@given(_assembled_modes(max_n=300))
def test_mode_count_matches_dense_eigvalsh(mat):
    diag, off = mat
    w = np.linalg.eigvalsh(_dense(diag, off))
    scale = max(1.0, float(np.max(np.abs(w))))
    if np.min(np.abs(w)) >= 1e-8 * scale:
        assert mh.count_negative(ModeOperator(0, diag, off)) == int(np.sum(w < 0.0))


def _strong_rows(diag, off):
    """The strong-row rule written out row by row: diag_k exceeds
    (1 + 2^-40)(|off_{k-1}| + |off_k|), and each of those couplings is 0 or
    between 2^-500 and 2^500 in magnitude."""
    n = len(diag)

    def tame(b):
        return b == 0.0 or 2.0**-500 <= abs(b) <= 2.0**500

    out = []
    for k in range(n):
        left = float(off[k - 1]) if k > 0 else 0.0
        right = float(off[k]) if k < n - 1 else 0.0
        bound = (1.0 + 2.0**-40) * (abs(left) + abs(right))
        out.append(tame(left) and tame(right) and float(diag[k]) > bound)
    return out


def _planned_sweep(diag, off):
    """(diag, off, last) of the sweep the orientation rule asks for, or None
    for a matrix with no weak row."""
    strong = _strong_rows(diag, off)
    if all(strong):
        return None
    n = len(diag)
    first, last = strong.index(False), n - 1 - strong[::-1].index(False)
    if first > n - 1 - last:
        return diag[::-1], off[::-1], n - 1 - first
    return diag, off, last


def _count_with_sweeps(diag, off, past_last):
    """count_negative of (diag, off), with the sweep's first rows past the
    last weak row set to ``past_last``, and each ``_negative_pivots`` call it
    made, as (diag, off, pivmin, last, result)."""
    sweep, calls = spectral._negative_pivots, []

    def recording(d, e, pivmin, last=None, fill=None):
        got = (np.array(d), np.array(e), pivmin, last)
        result = sweep(d, e, pivmin, last, fill)
        calls.append((*got, result))
        return result

    with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
        warnings.simplefilter("ignore", ZeroPivotWarning)
        mp.setattr(spectral, "_negative_pivots", recording)
        mp.setattr(spectral, "_PAST_LAST", past_last)
        with np.errstate(over="ignore", invalid="ignore"):
            neg = mh.count_negative(ModeOperator(0, diag, off))
    return neg, calls


def _assert_stop_equals_full_sweep(diag, off, past_last=64):
    diag, off = np.asarray(diag, dtype=float), np.asarray(off, dtype=float)
    neg, calls = _count_with_sweeps(diag, off, past_last)
    pivmin = _pivmin(off)
    plan = _planned_sweep(diag, off)
    if plan is None:
        # no sweep at all, and the full forward sweep finds nothing either
        assert calls == [] and neg == 0
        assert _dpttrf_inertia(diag, off, pivmin) == (0, 0)
        return
    want_diag, want_off, want_last = plan
    [(got_diag, got_off, got_pivmin, last, result)] = calls
    assert got_diag.tobytes() == want_diag.tobytes()
    assert got_off.tobytes() == want_off.tobytes()
    assert (got_pivmin, last) == (pivmin, want_last)
    # the stopped sweep counts what the full sweep of the same orientation
    # counts, zero pivots included
    assert result == _dpttrf_inertia(want_diag, want_off, pivmin)
    assert neg == result[0]


# finite only: the counter rejects NaN and infinite entries before any sweep
_SPECIAL_ROWS = [0.0, -0.0, -1.0, 1e-300, 5e-324, -5e-324]
_SPECIAL_COUPLINGS = [0.0, -0.0, 2e-162, 1e-170, 1e200, 2.0**-500, 2.0**500, 1e-310]


@st.composite
def _dominant_runs(draw):
    """Rows at, an ulp or two around and just above the strong bound, with
    zero, subnormal and negative rows, and couplings that are zero or so
    small or large that they fall outside _TAME."""
    n = draw(st.integers(1, 40))
    scale = draw(st.sampled_from([1e-3, 1.0, 1e3]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    off = scale * rng.normal(size=n - 1)
    for k in draw(st.sets(st.integers(0, max(n - 2, 0)), max_size=4)) if n > 1 else ():
        off[k] = draw(st.sampled_from(_SPECIAL_COUPLINGS)) * draw(st.sampled_from([1.0, -1.0]))
    factors = st.sampled_from([0.5, 1.0, 1.0 + 2.0**-41, 2.0, 10.0])
    factors = np.array(draw(st.lists(factors, min_size=n, max_size=n)))
    with np.errstate(over="ignore"):
        couplings = np.abs(np.r_[off, 0.0]) + np.abs(np.r_[0.0, off])
        diag = (1.0 + 2.0**-40) * couplings * factors
    for k, ulps in enumerate(draw(st.lists(st.sampled_from([-2, -1, 0, 0, 1, 2]), min_size=n, max_size=n))):
        for _ in range(abs(ulps)):
            diag[k] = np.nextafter(diag[k], np.inf if ulps > 0 else -np.inf)
    for k in draw(st.sets(st.integers(0, n - 1), max_size=4)):
        diag[k] = draw(st.sampled_from(_SPECIAL_ROWS))
    return np.where(np.isfinite(diag), diag, 1.0), off


def _finite(mat):
    return all(np.isfinite(x).all() for x in mat)


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        _assembled_modes(), _dominant_runs(), _edge_tridiagonals().map(lambda m: m[:2]).filter(_finite)
    ),
    st.sampled_from([1, 2, 64]),
)
def test_early_exit_equals_full_sweep_of_same_orientation(mat, past_last):
    # past_last = 1 or 2 makes the sweep stop and fold at rows right after
    # the last weak one
    _assert_stop_equals_full_sweep(*mat, past_last)


@settings(max_examples=200, deadline=None)
@given(st.one_of(_tridiagonals(), _near_zero_pivots(), _assembled_modes(max_n=200)))
def test_both_orientations_match_lapack(mat):
    # each orientation's full sweep, and the stopped sweep, count LAPACK's
    # negative eigenvalues
    d, e = mat
    want = _lapack_negatives(d, e)
    if want is not None:
        pivmin = _pivmin(e)
        assert _negative_pivots(d, e, pivmin)[0] == want
        assert _negative_pivots(d[::-1], e[::-1], pivmin)[0] == want
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ZeroPivotWarning)
            assert mh.count_negative(ModeOperator(0, d, e)) == want


@pytest.mark.parametrize("past_last", [1, 64])
def test_negative_pivot_right_after_last_weak_row(past_last):
    # row 0 is weak, rows 1 and 2 are strong, and row 1's pivot is
    # 3 - 1 / 0.01 < 0: ending the sweep at the last weak row would miss it
    diag, off = np.array([0.01, 3.0, 3.0]), np.array([1.0, 1.0])
    assert _strong_rows(diag, off) == [False, True, True]
    pivmin = _pivmin(off)
    assert _negative_pivots(diag[:1], off[:0], pivmin) == (0, 0)
    assert _negative_pivots(diag, off, pivmin, last=0) == (1, 0)
    assert mh.count_negative(ModeOperator(0, diag, off)) == 1
    assert int(np.sum(np.linalg.eigvalsh(_dense(diag, off)) < 0.0)) == 1
    _assert_stop_equals_full_sweep(diag, off, past_last)


@pytest.mark.parametrize("past_last", [1, 64])
def test_negative_pivot_far_into_the_strong_tail(past_last):
    # row 0 is the only weak row, and rows 1 on are strong by a margin of
    # 2^-38: the pivots, from 0.99, stay positive and below their coupling,
    # and fall slowly, until one turns negative about 100 rows on
    n = 300
    diag, off = np.full(n, 2.0 * (1.0 + 2.0**-38)), np.full(n - 1, -1.0)
    diag[0] = 0.99
    assert _strong_rows(diag, off) == [False] + [True] * (n - 1)
    pivmin = _pivmin(off)
    assert _negative_pivots(diag[:66], off[:65], pivmin) == (0, 0)
    assert _dpttrf_inertia(diag, off, pivmin) == (1, 0)
    assert _lapack_negatives(diag, off) == 1
    _assert_stop_equals_full_sweep(diag, off, past_last)


def test_coupling_with_subnormal_square_keeps_rows_weak():
    # b * b = 4e-324 is subnormal, so b lies outside _TAME and no row beside
    # it is strong, though row 1 exceeds the bound; the matrix is positive
    # definite, and dpttrf's (b / b) b keeps its next pivot 1e-163 exact
    b = 2e-162
    diag, off = np.array([b, 2.1e-162]), np.array([b])
    assert _strong_rows(diag, off) == [False, False]
    assert _dpttrf_inertia(diag, off, _pivmin(off)) == (0, 0)
    _assert_stop_equals_full_sweep(diag, off)


# A continuum oracle for prufer_count: the Pruefer angle of the linearly
# interpolated coefficient, by step doubling whose three RK4 steps each
# compute their own slopes and look Q up afresh, on np.sin and np.cos.


def _reference_prufer_sweep(t_nodes, q_nodes, t0, t1, tol, h_init, h_min):
    """Integrate the Pruefer angle for -u'' + Q(t) u = 0 from t0 to t1.

    theta' = cos^2(theta) - Q(t) sin^2(theta), theta(t0) = 0 (u(t0) = 0).
    Q is linearly interpolated from (t_nodes, q_nodes).  Steps are RK4 with
    doubling-based error control at ``tol`` per step.  Returns the final
    angle and a failure flag (1 if the step size underflowed h_min).
    """

    def rk4_step(t, theta, h):
        k1 = _theta_rhs(t_nodes, q_nodes, n, t, theta)
        k2 = _theta_rhs(t_nodes, q_nodes, n, t + 0.5 * h, theta + 0.5 * h * k1)
        k3 = _theta_rhs(t_nodes, q_nodes, n, t + 0.5 * h, theta + 0.5 * h * k2)
        k4 = _theta_rhs(t_nodes, q_nodes, n, t + h, theta + h * k3)
        return theta + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    theta = 0.0
    t = t0
    h = h_init
    n = t_nodes.shape[0]
    t_nodes, q_nodes = t_nodes.tolist(), q_nodes.tolist()
    while t < t1:
        if t + h > t1:
            h = t1 - t
        accepted = False
        while not accepted:
            big = rk4_step(t, theta, h)
            half = rk4_step(t, theta, 0.5 * h)
            two = rk4_step(t + 0.5 * h, half, 0.5 * h)
            err = abs(big - two)
            if err <= tol:
                theta = two
                t = t + h
                accepted = True
                if err < 0.03125 * tol and h < 0.25 * (t1 - t0):
                    h = 2.0 * h
            else:
                h = 0.5 * h
                if h < h_min:
                    return theta, 1
    return theta, 0


def _theta_rhs(t_nodes, q_nodes, n, t, theta):
    q = _interp(t_nodes, q_nodes, n, t)
    s = np.sin(theta)
    c = np.cos(theta)
    return c * c - q * s * s


def _interp(t_nodes, q_nodes, n, t):
    """Linear interpolation of q at t, constant beyond the ends; the nodes
    are sorted lists, and bisect_left finds np.searchsorted's index."""
    if t <= t_nodes[0]:
        return q_nodes[0]
    if t >= t_nodes[n - 1]:
        return q_nodes[n - 1]
    i = bisect_left(t_nodes, t) - 1
    if i < 0:
        i = 0
    if i > n - 2:
        i = n - 2
    w = (t - t_nodes[i]) / (t_nodes[i + 1] - t_nodes[i])
    return q_nodes[i] * (1.0 - w) + q_nodes[i + 1] * w


def test_prufer_count_equals_the_rk4_phase_on_the_benchmark_table():
    # the count workload's Pruefer op at seed 4242: each mode's exact-element
    # count equals floor(theta / pi) of the RK4 phase on the same 8192-point
    # table, the interpolated coefficient's node count
    rng = np.random.default_rng(4242)
    bump = mh.BumpField(float(rng.uniform(0.2, 0.8)))
    depth, width = float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.5, 1.2))
    well, lam = mh.GaussianWell(depth, width), 1e2 / (depth * width * width)
    per_mode = mh.count_total(bump, well, lam, mh.Grid.uniform(-12.0, 3.0, 3001), method="prufer").per_mode
    tq = np.linspace(-12.0, 3.0, 8192)
    assert len(per_mode) == 13 and sum(per_mode.values()) == 25
    for m, count in per_mode.items():
        q = (m - bump.alpha(tq)) ** 2 - lam * well.e2t_v(tq)
        theta, fail = _reference_prufer_sweep(tq, q, -12.0, 3.0, 1e-6, 15.0 / 1024.0, 15e-12)
        assert not fail and count == int(np.floor(theta / np.pi))

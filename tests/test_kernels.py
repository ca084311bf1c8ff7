"""The scalar kernels against LAPACK counts and closed forms."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eigvalsh_tridiagonal

from maghardy import _kernels
from maghardy.spectral import _pivmin


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
        assert _kernels.tridiag_inertia(d, e, _pivmin(d, e))[0] == want


@settings(max_examples=200, deadline=None)
@given(_near_zero_pivots())
def test_inertia_near_zero_pivots_matches_lapack(mat):
    d, e = mat
    want = _lapack_negatives(d, e)
    if want is not None:
        assert _kernels.tridiag_inertia(d, e, _pivmin(d, e))[0] == want


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
        assert _kernels.tridiag_inertia(shifted, e, _pivmin(kd, e))[0] == want


def test_zero_pivot_counted_nonnegative():
    # matrix diag(0): the zero pivot is perturbed positive and reported
    d = np.zeros(3)
    e = np.zeros(2)
    neg, zero_pivots = _kernels.tridiag_inertia(d, e, 1e-290)
    assert neg == 0 and zero_pivots == 3


def test_prufer_harmonic_oscillator_node_count():
    # -u'' = k^2 u on (0, L): theta(L) = k L exactly for Q = -k^2
    k = 3.0
    L = np.pi
    tq = np.linspace(0.0, L, 100)
    qq = np.full_like(tq, -(k**2))
    theta, fail = _kernels.prufer_sweep(tq, qq, 0.0, L, 1e-9, 0.01, 1e-14)
    assert fail == 0
    assert abs(theta - k * L) < 1e-6
    assert int(np.floor(theta / np.pi)) == 2  # sin(3t) has nodes at pi/3, 2pi/3


def test_interp_lookup_equals_searchsorted():
    # the Pruefer coefficient lookup bisects a node list; it must pick the
    # interval np.searchsorted picks, so theta stays the same to the bit
    rng = np.random.default_rng(11)
    nodes = np.sort(rng.uniform(-8.0, 2.0, 257))
    vals = rng.normal(size=nodes.size)
    n = nodes.size

    def searchsorted_interp(t):
        if t <= nodes[0]:
            return vals[0]
        if t >= nodes[n - 1]:
            return vals[n - 1]
        i = min(max(int(np.searchsorted(nodes, t)) - 1, 0), n - 2)
        w = (t - nodes[i]) / (nodes[i + 1] - nodes[i])
        return vals[i] * (1.0 - w) + vals[i + 1] * w

    points = np.concatenate([rng.uniform(-8.0, 2.0, 2000), nodes, [-9.0, -8.0, 2.0, 3.0, 1e300]])
    t_list, q_list = nodes.tolist(), vals.tolist()
    for t in points.tolist():
        assert _kernels._interp(t_list, q_list, n, t) == searchsorted_interp(t)

"""Closed forms against mpmath at 30 digits: fluxes, VSigma, level measures;
the Hardy pencil's lowest eigenvalue by a 40-digit Sturm bisection; and the
exact-element cell entries and the Pruefer count they give.

Each oracle is an mpmath evaluation of the defining formula: the flux is the
integral of the field's t-density from -infinity, and the level measure the
integral of (1+|t|)/(1+t^2) over each interval.  Every such comparison
asserts a relative error of at most 1e-13.  The Hardy oracle bisects the
float pencil K - sigma M, exactly as assembled, on its LDL^T pivots at 40
digits, and the solve must agree within 1e-12 relative.  The cell entries
are the closed forms at 40 digits, and the count of a table of cell
constants is the number of sign changes of the zero-energy solution,
propagated cell by cell in mpmath.
"""

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import maghardy as mh
from maghardy import _kernels
from maghardy.profiles import ZeroPotential
from maghardy.spectral import _lumps, _pivmin, assemble_mode, smallest_generalized_mu

from closed_forms import CallablePotential, level_measure
from test_kernels import _dpttrf_inertia

RTOL = 1e-13


@pytest.fixture(autouse=True)
def _thirty_digits():
    with mp.workdps(30):
        yield


def _log_power_density(b0, gamma):
    return lambda s: b0 * mp.fabs(s) ** (-gamma) if s <= -1 else mp.mpf(0)


def _log_log_power_density(b0, gamma):
    return lambda s: b0 / (mp.fabs(s) * mp.log(mp.fabs(s)) ** gamma) if s <= -2 else mp.mpf(0)


def _flux_oracle(density, t, kink):
    """int_{-inf}^{t} density(s) ds, in u = log|s| (s = -e^u) on s <= kink."""
    upper = min(t, kink)
    return mp.quad(lambda u: density(-mp.exp(u)) * mp.exp(u), [mp.log(-upper), mp.inf])


def _close(value, exact):
    return abs(mp.mpf(float(value)) - exact) <= RTOL * abs(exact)


_TS = (-1e8, -1e5, -1e3, -10.0, -2.5, -2.0, -1.5, -1.0, -0.5, 0.0, 3.0)


@pytest.mark.parametrize(
    "field, density, kink",
    [
        *[(mh.LogPowerField(b0, g), _log_power_density(b0, g), -1.0)
          for b0, g in ((1.0, 1.2), (0.7, 2.0), (2.0, 3.5))],
        *[(mh.LogLogPowerField(b0, g), _log_log_power_density(b0, g), -2.0)
          for b0, g in ((1.0, 1.5), (0.7, 2.0), (2.0, 3.0))],
    ],
)
def test_closed_form_flux_matches_mpmath_quad(field, density, kink):
    ts = np.array(_TS)
    alpha = field.alpha(ts)
    rho = field.b_log_density(ts)
    for t, a, r in zip(_TS, alpha, rho):
        assert _close(r, density(mp.mpf(t))) or r == density(mp.mpf(t)) == 0
        assert _close(a, _flux_oracle(density, t, kink)), (t, a)


@pytest.mark.parametrize("sigma", [1.5, 2.0, 3.0])
def test_vsigma_density_at_astronomic_radii_matches_mpmath(sigma):
    ts = np.array([-1e6, -1e12, -1e100])
    got = mh.VSigma(sigma).e2t_v(ts)
    for t, value in zip(ts, got):
        at = mp.fabs(mp.mpf(float(t)))
        assert _close(value, at**-2 * mp.log(at) ** (-1 / mp.mpf(sigma))), (t, value)


def _measure_oracle(lo, hi):
    """int_lo^hi (1+|t|)/(1+t^2) dt, split at 0 and at geometric points."""
    f = lambda t: (1 + mp.fabs(t)) / (1 + t * t)
    pts = sorted({lo, hi, *(p for p in (0.0,) if lo < p < hi)})
    total = mp.mpf(0)
    for a, b in zip(pts[:-1], pts[1:]):
        if a * b > 0:  # one sign: geometric points resolve the 1/|t| decay
            mag = np.geomspace(abs(a), abs(b), 16)
            inner = [mp.mpf(float(np.sign(a) * m)) for m in mag]
        else:
            inner = [mp.mpf(a), mp.mpf(b)]
        inner[0], inner[-1] = mp.mpf(a), mp.mpf(b)
        total += mp.quad(f, inner)
    return total


_WELLS = [
    (mh.VSigma(2.0), 0.5),
    (mh.VSigma(1.5), 0.9),
    (mh.VSigma(3.0), 1e-3),
    (mh.GaussianWell(1.3, 0.8), 0.2),
    (mh.StepWell(2.0, 0.01), 0.5),
]
# about twenty intervals; deeper caps would give thousands, at a quad each
_OSCILLATING = CallablePotential(density=lambda t: (1.1 + np.sin(t)) / (1.0 + t * t))


@pytest.mark.parametrize(
    "V, rel_tau, cap",
    [*[(V, r, cap) for V, r in _WELLS for cap in (-100.0, -1e4, -1e8)], (_OSCILLATING, 0.3, -100.0)],
)
def test_level_measure_matches_mpmath_quad(V, rel_tau, cap):
    rmax = mh.weights._LevelScan(V, [cap]).rmax[0]
    ls = mh.level_set(V, rel_tau * rmax, t_min_cap=cap)
    assert not ls.is_empty
    exact = sum(_measure_oracle(lo, hi) for lo, hi in ls.intervals)
    assert _close(level_measure(ls), exact), ls.intervals


def _pencil(field, w, grid, m):
    op = assemble_mode(field, ZeroPotential(), m, grid)
    return op.diag, op.offdiag, w.mass_density(grid.t[1:-1]) * _lumps(grid)


def _sturm_mu(kdiag, off, mass, hi):
    """Lowest eigenvalue of the pencil (K, M) by bisection on the LDL^T
    pivots of K - sigma M at 40 digits, from [0, hi], to a width of 1e-17 hi.
    A massless row stays in the recurrence: it changes no count."""
    rows = [(mp.mpf(float(k)), mp.mpf(float(m))) for k, m in zip(kdiag, mass)]
    squares = [mp.mpf(0)] + [mp.mpf(float(b)) ** 2 for b in off]

    def below(sigma):
        d = mp.mpf(1)
        for (k, m), b2 in zip(rows, squares):
            d = k - sigma * m - b2 / d
            if d <= 0:
                return False
        return True

    lo, hi = mp.mpf(0), mp.mpf(hi)
    assert below(lo) and not below(hi)
    while hi - lo > hi * mp.mpf(10) ** -17:
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if below(mid) else (lo, mid)
    return (lo + hi) / 2


def _singular_case():
    field = mh.LogPowerField(b0=1.0, gamma=1.3)
    w = mh.FluxAugmentedWeight(field=field, t_eta=mh.select_eta_log(field))
    return field, w, mh.Grid.geometric(-1e8, -1e-2, 800), 0, 0


@pytest.mark.parametrize(
    "case",
    [
        lambda: (mh.BumpField(0.5), mh.LogSquaredWeight(), mh.Grid.uniform(-8.0, 8.0, 401), 0, 0),
        # slow_log has no mass for t < 2
        lambda: (mh.BumpField(0.5), mh.slow_log_weight(), mh.Grid.uniform(-8.0, 8.0, 401), 1, 249),
        _singular_case,
    ],
    ids=["bump", "slow-log-massless", "singular-m0-cluster"],
)
def test_smallest_generalized_mu_matches_mpmath_sturm_bisection(case):
    field, w, grid, m, massless = case()
    kdiag, off, mass = _pencil(field, w, grid, m)
    assert (mass == 0.0).sum() == massless
    mu = smallest_generalized_mu(kdiag, off, mass)
    with mp.workdps(40):
        exact = _sturm_mu(kdiag, off, mass, 2.0 * mu)
        assert abs(mp.mpf(mu) - exact) <= 1e-12 * exact, (mu, exact)
    # the test-side mirror of dpttrf's recurrence certifies it from both
    # sides, apart from the dpttrf the solve and count_negative both run
    def count(shift):
        shifted = kdiag - shift * mass
        return _dpttrf_inertia(shifted, off, _pivmin(off))[0]

    assert count(mu * (1.0 - 1e-11)) == 0 and count(mu * (1.0 + 1e-11)) >= 1


def _cell_entries_oracle(z):
    """(sqrt(z) coth sqrt(z), sqrt(z) / sinh sqrt(z)) at the double z, with
    their continuations k cot k and k / sin k, k = sqrt(-z), below 0."""
    z = mp.mpf(float(z))
    if z > 0:
        x = mp.sqrt(z)
        return x * mp.coth(x), x / mp.sinh(x)
    if z < 0:
        k = mp.sqrt(-z)
        return k * mp.cot(k), k / mp.sin(k)
    return mp.mpf(1), mp.mpf(1)


def test_cell_entries_match_mpmath():
    # 1e-12 relative, or absolute where the entry is below 1 in size (F
    # changes sign at z = -pi^2 / 4); the series switch at |z| = 1e-4 is
    # probed an ulp away on both sides
    rng = np.random.default_rng(3)
    switch = [np.nextafter(1e-4, x) for x in (0.0, 1.0)] + [1e-4]
    z = np.concatenate([
        [0.0, 5e-324, -5e-324, 1e-300, -1e-300, -9.86, -np.pi**2 / 4, 1e300],
        switch, np.negative(switch),
        np.logspace(-20, 300, 400), -np.logspace(-20, np.log10(9.86), 300),
        rng.uniform(-9.86, 40.0, 300), rng.uniform(-1e-3, 1e-3, 100),
    ])
    f, g = _kernels.cell_entries(z)
    with mp.workdps(40):
        for x, got in zip(z.tolist(), zip(f.tolist(), g.tolist())):
            for value, exact in zip(got, _cell_entries_oracle(x)):
                assert abs(mp.mpf(value) - exact) <= 1e-12 * max(1, abs(exact)), (x, value, exact)


# a table of 8192 points on (0, 8191/256): every cell has length 1/256
# exactly, so each cell constant is the exact mean of its integer nodes and
# k h < pi for every node value above -(256 pi)^2
_H = 1.0 / 256.0
_NODES = st.one_of(
    st.sampled_from([0, 1, -1, 60, -40, -2000, -60000, -600000]), st.integers(-600000, 60)
)


@st.composite
def _cell_tables(draw):
    """Node values that are constant on up to six runs of the table."""
    breaks = sorted(draw(st.sets(st.integers(1, 8191), max_size=5)))
    q = np.empty(8192)
    for a, b in zip([0, *breaks], [*breaks, 8192]):
        q[a:b] = draw(_NODES)
    return q


def _sign_changes(q):
    """(sign changes of u at the nodes, |u| / |(u, u')| at the last node) of
    the solution of u'' = q u with u = 0 and u' = 1 at the first node, on
    cells of length _H with the mean of their nodes as constant: no cell
    with k h < pi holds two zeros, so each zero is one sign change."""
    h, steps = mp.mpf(_H), {}
    u, p, changes = mp.mpf(0), mp.mpf(1), 0
    for a, b in zip(q[:-1].tolist(), q[1:].tolist()):
        c = mp.mpf(a + b) / 2
        if c not in steps:
            r = mp.sqrt(abs(c))
            if c > 0:
                steps[c] = (mp.cosh(r * h), mp.sinh(r * h) / r, r * mp.sinh(r * h))
            elif c < 0:
                steps[c] = (mp.cos(r * h), mp.sin(r * h) / r, -r * mp.sin(r * h))
            else:
                steps[c] = (mp.mpf(1), h, mp.mpf(0))
        cos, sin, slope = steps[c]
        before = u
        u, p = cos * u + sin * p, slope * u + cos * p
        changes += before * u < 0
    return changes, abs(u) / mp.sqrt(u * u + p * p)


@settings(max_examples=30, deadline=None)
@given(_cell_tables())
def test_prufer_count_of_cell_constants_equals_the_sign_changes(q):
    V = CallablePotential(lambda t: -q)
    changes, end = _sign_changes(q)
    # a solution that nearly vanishes at the last node sits at a Dirichlet
    # eigenvalue of 0, where rounding may decide the count
    if end > 1e-9:
        assert mh.prufer_count(mh.ZeroField(), V, 0, (0.0, 8191 * _H)) == changes

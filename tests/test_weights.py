"""Weight families, level sets, the sup-functional, log moments."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize

import maghardy as mh
from maghardy.errors import DomainError, ScanResolutionWarning, UnboundedWarning
from maghardy.weights import _measure_antiderivative, _roots, level_measure


def test_baseline_weight_values():
    w = mh.LogSquaredWeight()
    assert mh.eval_weight(w, r=1.0) == pytest.approx(1.0, rel=1e-15)
    assert mh.eval_weight(w, r=np.e) == pytest.approx(1.0 / (2.0 * np.e**2), rel=1e-14)


def test_flux_augmented_weight_value():
    # field with flux 1/(gamma-1)|t|^{1-gamma}: at r = e^{-2} the two summands
    # are rho0 = e^4/5 and Phi^2 = (0.5 e^2)^2, evaluated independently here
    f = mh.LogPowerField(b0=1.0, gamma=2.0)
    w = mh.FluxAugmentedWeight(field=f, t_eta=-1.0)
    t = -2.0
    rho0 = np.exp(-2 * t) / (1 + t * t)
    phi2 = (0.5 * np.exp(2.0)) ** 2
    assert rho0 == pytest.approx(0.2 * np.e**4, rel=1e-14)
    assert phi2 == pytest.approx(0.25 * np.e**4, rel=1e-14)
    assert mh.eval_weight(w, t=t) == pytest.approx(0.45 * np.e**4, rel=1e-12)
    # above the matching radius only the baseline survives
    assert mh.eval_weight(w, t=-0.5) == pytest.approx(
        np.exp(1.0) / 1.25, rel=1e-12
    )


def test_flux_augmented_dominates_baseline():
    f = mh.LogPowerField(b0=1.0, gamma=1.5)
    w = mh.FluxAugmentedWeight(field=f, t_eta=-2.0)
    base = mh.LogSquaredWeight()
    ts = np.linspace(-50.0, 3.0, 200)
    assert np.all(w.mass_density(ts) >= base.mass_density(ts) - 1e-15)
    above = ts[ts > -2.0]
    assert np.allclose(w.mass_density(above), base.mass_density(above), rtol=0)


def test_log_power_domain_error():
    w = mh.LogPowerWeight(b=1.5)
    with pytest.raises(DomainError):
        mh.eval_weight(w, t=0.0)
    assert mh.eval_weight(w, t=-1.0) == pytest.approx(np.e**2, rel=1e-14)


def test_aharonov_bohm_weight():
    w = mh.AharonovBohmWeight(mu=2.3)
    assert w.coefficient == pytest.approx(0.09, rel=1e-12)
    w2 = mh.AharonovBohmWeight(mu=-0.5)
    assert w2.coefficient == pytest.approx(0.25, rel=1e-12)
    assert mh.eval_weight(w, t=-1.0) == pytest.approx(0.09 * np.e**2, rel=1e-13)


def test_shifted_log_weight():
    w = mh.ShiftedLogWeight(r0=10.0)
    # at r = r0 the log_+ term vanishes
    assert mh.eval_weight(w, r=10.0) == pytest.approx(1.0 / 100.0, rel=1e-13)
    assert mh.eval_weight(w, r=100.0) == pytest.approx(1.0 / 100.0**2, rel=1e-13)


def test_select_eta_log_quarter_rule():
    f = mh.LogPowerField(b0=1.0, gamma=1.2)
    t_eta = mh.select_eta_log(f)
    # alpha = 5 |t|^{-0.2} <= 1/4 at t + log 2 requires |t| >= 20^5 = 3.2e6
    assert t_eta == pytest.approx(-(20.0**5) - np.log(2.0), rel=1e-6)
    assert mh.flux(f, t=t_eta + np.log(2.0)) <= 0.25 + 1e-12
    # a bump with small flux never exceeds 1/4
    assert mh.select_eta_log(mh.BumpField(flux=0.2)) == 0.0


def test_level_set_zero_and_constant_ratio():
    assert mh.level_set(mh.ZeroPotential(), 1.0).is_empty
    # V = 2 * rho0 has constant ratio 2
    dbl = mh.profiles.CallablePotential(density=lambda t: 2.0 / (1.0 + t * t))
    ls_lo = mh.level_set(dbl, 1.0, t_min_cap=-100.0)
    assert not ls_lo.is_empty and ls_lo.truncated_left
    lo, hi = ls_lo.intervals[0]
    assert lo == -100.0 and hi == pytest.approx(30.0)
    assert mh.level_set(dbl, 3.0, t_min_cap=-100.0).is_empty


def test_level_set_vsigma_crossing_matches_scalar_root():
    V = mh.VSigma(sigma=2.0)
    tau = 0.1
    # cap below the crossing: single interval from the deep crossing up to
    # the support edge at t = -2
    ls = mh.level_set(V, tau, t_min_cap=-1e60)
    assert len(ls.intervals) == 1 and not ls.truncated_left
    t_deep, t_edge = ls.intervals[0]
    assert t_edge == -2.0
    # oracle: solve (1+t^2)/(t^2 sqrt(log|t|)) = tau for t = -e^s
    fn = lambda s: (1.0 + np.exp(2 * s)) / (np.exp(2 * s) * np.sqrt(s)) - tau
    s_root = optimize.brentq(fn, 1.0, 130.0, xtol=1e-13)
    assert np.log(-t_deep) == pytest.approx(s_root, rel=1e-9)
    # the closed-form root sits at log|t| ~ 1/tau^2 = 100
    assert s_root == pytest.approx(100.0, rel=0.01)
    # with the default cap above the crossing the interval is truncated
    ls_cap = mh.level_set(V, tau, t_min_cap=-1e6)
    assert len(ls_cap.intervals) == 1 and ls_cap.truncated_left


def test_level_set_reaches_the_support_edge_above_the_node_maximum():
    # V/w0 rises up to the jump at log 0.01, where it is 0.63% above its
    # largest value on the scan nodes below the jump; a threshold in that gap
    # once gave an empty set
    V = mh.StepWell(2.0, 0.01)
    edge = np.log(0.01)
    ratio = lambda t: 2.0 * np.exp(2.0 * t) * (1.0 + t * t)
    node_max = float(np.max(mh.weights._LevelScan(V, -1e4).vals[:-1]))
    assert 1.006 * node_max < ratio(edge) < 1.007 * node_max
    tau = 0.5 * (node_max + ratio(edge))
    ls = mh.level_set(V, tau, t_min_cap=-1e4)
    assert len(ls.intervals) == 1 and not ls.truncated_left
    t_lo, t_hi = ls.intervals[0]
    assert t_hi == edge
    want = optimize.brentq(lambda t: ratio(t) - tau, edge - 1.0, edge, xtol=1e-13)
    assert abs(t_lo - want) <= 1e-9


def test_support_edge_at_or_below_the_cap_gives_zero_results():
    # the scan of [cap, 30] is the cap alone: V/w0 there is 0, or, with the
    # edge at the cap, positive on a set of measure 0
    cases = [
        (mh.VSigma(2.0), -1.0),
        (mh.VSigma(2.0), -2.0),
        (mh.StepWell(1.0, 0.01), -3.0),
        (mh.ZeroPotential(), -100.0),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for V, cap in cases:
            for tau in (1e-6, 1.0, 1e6):
                ls = mh.level_set(V, tau, t_min_cap=cap)
                assert all(t == cap for ends in ls.intervals for t in ends)
                assert level_measure(ls) == 0.0
            taus, vals = mh.weights.threshold_curve(V, 2.0, t_min_cap=cap)
            assert np.isfinite(taus).all() and not np.any(vals)
            res = mh.v_norm_a(V, 2.0, t_min_cap=cap, cap_doublings=0)
            assert res.value == 0.0 and res.cap_sequence == ((cap, 0.0),)


def test_v_norm_solves_no_bracket_across_the_support_edge(monkeypatch):
    # every level set of VSigma ends at its jump t = -2; brackets there once
    # took up to 34 Illinois steps, and each lockstep solve waited for them
    roots, evals = mh.weights._roots, []

    def counted(ratio, *args):
        evals.append(0)

        def counted_ratio(t):
            evals[-1] += 1
            return ratio(t)

        return roots(counted_ratio, *args)

    monkeypatch.setattr(mh.weights, "_roots", counted)
    mh.v_norm_a(mh.VSigma(2.0), 2.0, -100.0, 3)
    assert evals and max(evals) <= 8


# ---------------------------------------------------------------------------
# Reference: the scalar scan loop with one brentq per crossing that the
# batched level-set engine replaced, kept here as an oracle for it.
# ---------------------------------------------------------------------------


def _ref_scan(V, t_min_cap):
    def ratio(t):
        t = np.asarray(t, dtype=float)
        return V.vplus_density(t) * (1.0 + t * t)

    pieces = [np.linspace(max(t_min_cap, -2.0), 30.0, 1000)]
    if t_min_cap < -2.0:
        pieces.insert(0, -np.geomspace(2.0, -t_min_cap, 4000)[::-1])
    nodes = np.unique(np.concatenate(pieces))
    # the scan ends at the support edge, or at the cap if the edge is below it
    sup = V.support_t_max
    end = 30.0 if sup is None else max(min(30.0, sup), t_min_cap)
    nodes = np.append(nodes[nodes < end], end)
    return ratio, nodes, ratio(nodes)


def _ref_intervals(ratio, nodes, vals, t_val):
    above = vals > t_val

    # the brackets are sign changes of the scan, so brentq cannot fail on them;
    # the engine's old midpoint fallback is left out so that a failure shows
    def refine(a, b):
        f = lambda t: float(ratio(t) - t_val)
        return float(optimize.brentq(f, a, b, xtol=1e-9, rtol=8.9e-16))

    intervals = []
    truncated = bool(above[0])
    open_left = nodes[0] if above[0] else None
    for i in range(len(nodes) - 1):
        if above[i + 1] and not above[i]:
            open_left = refine(nodes[i], nodes[i + 1])
        elif above[i] and not above[i + 1]:
            intervals.append((open_left, refine(nodes[i], nodes[i + 1])))
            open_left = None
    if open_left is not None:
        intervals.append((open_left, nodes[-1]))
    return intervals, truncated


def _ref_sup(V, a, t_min_cap):
    F = lambda t: np.arctan(t) + 0.5 * np.sign(t) * np.log1p(t * t)
    ratio, nodes, vals = _ref_scan(V, t_min_cap)
    rmax = float(np.max(vals))
    if rmax <= 0.0:
        return 0.0

    def g(tau):
        intervals, _ = _ref_intervals(ratio, nodes, vals, tau)
        return tau**a * sum(float(F(hi) - F(lo)) for lo, hi in intervals)

    taus = np.geomspace(rmax * 1e-8, rmax * 1e8, 512)
    grid_vals = np.array([g(tau) for tau in taus])
    k = int(np.argmax(grid_vals))
    x_lo, x_hi = np.log(taus[max(k - 1, 0)]), np.log(taus[min(k + 1, len(taus) - 1)])
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    c = x_hi - invphi * (x_hi - x_lo)
    d = x_lo + invphi * (x_hi - x_lo)
    gc, gd = g(np.exp(c)), g(np.exp(d))
    for _ in range(60):
        if gc < gd:
            x_lo, c, gc = c, d, gd
            d = x_lo + invphi * (x_hi - x_lo)
            gd = g(np.exp(d))
        else:
            x_hi, d, gd = d, c, gc
            c = x_hi - invphi * (x_hi - x_lo)
            gc = g(np.exp(c))
        if x_hi - x_lo < 1e-10:
            break
    return max(g(np.exp(0.5 * (x_lo + x_hi))), float(np.max(grid_vals)))


_potentials = st.one_of(
    st.builds(mh.VSigma, st.floats(1.2, 3.5)),
    st.builds(mh.GaussianWell, st.floats(0.1, 10.0), st.floats(0.3, 3.0)),
    # V/w0 increases up to the jump at log(radius); past t_max = 30 the set stays open
    st.builds(mh.StepWell, st.floats(1e-3, 10.0), st.floats(1.0, 60.0).map(np.exp)),
)
_caps = st.floats(np.log10(50.0), 8.0).map(lambda e: -(10.0**e))


@settings(max_examples=60, deadline=None)
@given(_potentials, _caps, st.floats(-8.0, 2.0))
def test_level_set_matches_scalar_reference(V, cap, log_rel_tau):
    ratio, nodes, vals = _ref_scan(V, cap)
    tau = float(np.max(vals)) * 10.0**log_rel_tau
    want, truncated = _ref_intervals(ratio, nodes, vals, tau)
    got = mh.level_set(V, tau, t_min_cap=cap)
    assert len(got.intervals) == len(want)
    assert got.truncated_left == truncated
    for ends, ref_ends in zip(got.intervals, want):
        for t, t_ref in zip(ends, ref_ends):
            assert abs(t - t_ref) <= 2e-9 * max(1.0, abs(t_ref))


@settings(max_examples=3, deadline=None)
@given(_potentials, _caps, st.floats(1.2, 3.5))
def test_v_norm_matches_scalar_reference(V, cap, a):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UnboundedWarning)
        res = mh.v_norm_a(V, a, t_min_cap=cap, cap_doublings=1)
    for cap_k, value in res.cap_sequence:
        want = _ref_sup(V, a, cap_k) ** (1.0 / a)
        assert value == pytest.approx(want, rel=1e-7)


def test_non_finite_ratio_raises_domain_error():
    # NaN on -5 < t < -3 only: the scan must not read it as "below threshold"
    holed = mh.profiles.CallablePotential(
        density=lambda t: np.where((t > -5.0) & (t < -3.0), np.nan, 2.0 / (1.0 + t * t))
    )
    with pytest.raises(DomainError, match=r"t = -4\.99"):
        mh.level_set(holed, 1.0, t_min_cap=-100.0)
    with pytest.raises(DomainError):
        mh.v_norm_a(holed, 2.0, t_min_cap=-100.0)
    with pytest.raises(DomainError):
        mh.weights.threshold_curve(holed, 2.0, t_min_cap=-100.0)


def test_level_set_scan_resolution_warning():
    osc = mh.profiles.CallablePotential(
        density=lambda t: (1.1 + np.sin(40.0 * t)) / (1.0 + t * t)
    )
    calls = (
        lambda: mh.level_set(osc, 1.0, t_min_cap=-30.0, scan_n=40),
        lambda: mh.v_norm_a(osc, 2.0, t_min_cap=-30.0, cap_doublings=0),
        lambda: mh.weights.threshold_curve(osc, 2.0, t_min_cap=-30.0),
    )
    for call in calls:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            call()
        assert any(issubclass(w.category, ScanResolutionWarning) for w in caught)


def test_threshold_at_scan_maximum_does_not_warn():
    # the midpoint scan of this well peaks above the node maximum, the curve's
    # last threshold; the empty level set there is no sign of a coarse scan
    with warnings.catch_warnings():
        warnings.simplefilter("error", ScanResolutionWarning)
        _, curve = mh.weights.threshold_curve(mh.GaussianWell(1.0, 1.0), 2.0)
    assert curve[-1] == 0.0


def test_level_set_nesting_property():
    V = mh.GaussianWell(depth=5.0, width=1.0)
    rng = np.random.default_rng(11)
    for _ in range(20):
        t1, t2 = np.sort(rng.uniform(0.05, 4.0, size=2))
        if t1 == t2:
            continue
        outer = mh.level_set(V, t1, t_min_cap=-50.0)
        inner = mh.level_set(V, t2, t_min_cap=-50.0)
        for a, b in inner.intervals:
            assert any(
                lo - 1e-8 <= a and b <= hi + 1e-8 for lo, hi in outer.intervals
            )


def test_v_norm_zero_potential():
    res = mh.v_norm_a(mh.ZeroPotential(), 2.0)
    assert res.value == 0.0


def test_v_norm_homogeneity():
    V = mh.VSigma(sigma=2.0)
    base = mh.v_norm_a(V, 2.0, t_min_cap=-100.0, cap_doublings=0)
    for lam in (2.0, 10.0):
        scaled = mh.v_norm_a(
            mh.ScaledPotential(V, lam), 2.0, t_min_cap=-100.0, cap_doublings=0
        )
        assert scaled.value == pytest.approx(lam * base.value, rel=1e-6)


def test_v_norm_homogeneity_random_property():
    V = mh.GaussianWell(depth=3.0, width=0.8)
    rng = np.random.default_rng(5)
    for _ in range(5):
        lam = float(rng.uniform(0.1, 100.0))
        a = float(rng.uniform(1.01, 4.0))
        base = mh.v_norm_a(V, a, t_min_cap=-50.0, cap_doublings=0)
        scaled = mh.v_norm_a(
            mh.ScaledPotential(V, lam), a, t_min_cap=-50.0, cap_doublings=0
        )
        assert scaled.value == pytest.approx(lam * base.value, rel=1e-6)


def test_v_norm_nonincreasing_in_a():
    V = mh.VSigma(sigma=2.0)
    values = [
        mh.v_norm_a(V, a, t_min_cap=-100.0, cap_doublings=0).value
        for a in (1.3, 1.7, 2.0, 3.0)
    ]
    assert all(v1 >= v2 - 1e-9 for v1, v2 in zip(values[:-1], values[1:]))


def test_v_norm_saturation_flags():
    V = mh.VSigma(sigma=2.0)
    sat = mh.v_norm_a(V, 2.0, t_min_cap=-100.0, cap_doublings=2)
    assert sat.saturated
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        unsat = mh.v_norm_a(V, 1.5, t_min_cap=-100.0, cap_doublings=2)
    assert not unsat.saturated
    assert any(issubclass(w.category, UnboundedWarning) for w in caught)


def test_level_measure_closed_form():
    # measure density (1+|t|)/(1+t^2): check one interval against quadrature
    from scipy import integrate

    ls = mh.LevelSet(threshold=1.0, intervals=((-30.0, -2.0),))
    val, _ = integrate.quad(lambda t: (1 + abs(t)) / (1 + t * t), -30.0, -2.0)
    assert level_measure(ls) == pytest.approx(val, rel=1e-10)


def test_log_moment_alpha0_arctan_oracle():
    w = mh.LogSquaredWeight()
    for R in (np.exp(2.0), np.exp(5.0), np.exp(40.0)):
        expect = 2.0 * np.pi * np.arctan(np.log(R))
        assert mh.log_moment(w, 0.0, R) == pytest.approx(expect, rel=1e-9)
    # tends to 2 pi * pi/2 from below
    assert mh.log_moment(w, 0.0, np.exp(500.0)) < np.pi**2


def test_log_moment_alpha1_log_divergence():
    w = mh.LogSquaredWeight()
    # closed form: 2 pi * 0.5 log(1 + T^2)
    for T in (np.e**2, np.e**4):
        expect = np.pi * np.log1p(T * T)
        assert mh.log_moment(w, 1.0, float(np.exp(T))) == pytest.approx(expect, rel=1e-8)
    # divergent: each squaring of log R adds ~ 2 pi log T
    v1 = mh.log_moment(w, 1.0, float(np.exp(np.e**2)))
    v2 = mh.log_moment(w, 1.0, float(np.exp(np.e**4)))
    assert v2 - v1 > 4.0


def test_log_moment_alpha09_converges():
    w = mh.LogSquaredWeight()
    R = float(np.exp(np.e**6))
    v1 = mh.log_moment(w, 0.9, R)
    v2 = mh.log_moment(w, 0.9, 2.0 * R)
    assert abs(v2 - v1) / v1 < 0.01


# ---------------------------------------------------------------------------
# References for the batched threshold search: the level-set scan with one
# greater/flatnonzero pass per threshold, and golden section on log tau.
# ---------------------------------------------------------------------------


def _levels_loop_reference(V, t_min_cap: float, t_max: float = 30.0, scan_n: int = 4000):
    """Scan V/w0 = e^{2t} V (1 + t^2) once; return its maximum and ``levels``.

    ``levels(taus)`` gives, for a threshold grid, the ends of all intervals of
    {V/w0 > tau} as one flat array (start, end, start, ...), each threshold's
    level-set measure and whether its set reaches the lower cap.  Crossings
    are the scan's sign changes, refined by one bracketed solve for the grid.
    A ScanResolutionWarning is emitted when, for a threshold below the scan
    maximum, the midpoint-refined scan sees another crossing count.
    """

    def ratio(t):
        vals = V.vplus_density(t) * (1.0 + t * t)
        if not np.isfinite(vals).all():
            raise DomainError(f"V/w0 is not finite at t = {float(t[~np.isfinite(vals)][0])!r}")
        return vals

    pieces = [np.linspace(max(t_min_cap, -2.0), t_max, max(scan_n // 4, 16))]
    if t_min_cap < -2.0:
        pieces.insert(0, -np.geomspace(2.0, -t_min_cap, scan_n)[::-1])
    nodes = np.unique(np.concatenate(pieces))
    # the scan ends at the support edge, or at the cap if the edge is below it
    sup = V.support_t_max
    end = t_max if sup is None else max(min(t_max, sup), t_min_cap)
    nodes = np.append(nodes[nodes < end], end)
    fine_t = np.sort(np.concatenate([nodes, 0.5 * (nodes[:-1] + nodes[1:])]))  # interleaved
    fine = ratio(fine_t)
    vals = np.ascontiguousarray(fine[0::2])
    rmax = float(np.max(vals))
    # segment i is crossed by tau iff min(v_i, v_i+1) <= tau < max(v_i, v_i+1)
    spans = [np.sort(f(v[:-1], v[1:])) for v in (vals, fine) for f in (np.minimum, np.maximum)]
    above = np.zeros(nodes.size + 2, dtype=bool)  # padded, so open ends count as crossings

    def crossings(lo, hi, taus):
        return np.searchsorted(lo, taus, "right") - np.searchsorted(hi, taus, "right")

    def levels(taus):
        taus = np.atleast_1d(np.asarray(taus, dtype=float))
        # at or above rmax the scan's level set is empty by construction
        differ = crossings(*spans[:2], taus) != crossings(*spans[2:], taus)
        if np.any(differ & (taus < rmax)):
            msg = "ratio oscillates faster than the level-set scan grid"
            warnings.warn(msg, ScanResolutionWarning)
        cuts = []
        for tau in taus:
            np.greater(vals, tau, out=above[1:-1])
            cuts.append(np.flatnonzero(above[1:] != above[:-1]) - 1)
        cut = np.concatenate(cuts)
        # cut -1 opens at the cap, cut n-1 closes at t_max, other ends lie in (cut, cut+1)
        ends = np.where(cut < 0, nodes[0], nodes[-1])
        inner = (cut >= 0) & (cut < nodes.size - 1)
        i, lvl = cut[inner], np.repeat(taus, [c.size for c in cuts])[inner]
        ends[inner] = _roots(ratio, nodes[i], nodes[i + 1], vals[i] - lvl, vals[i + 1] - lvl, lvl)
        F = _measure_antiderivative(ends)
        owner = np.repeat(np.arange(taus.size), [c.size // 2 for c in cuts])
        measure = np.bincount(owner, weights=F[1::2] - F[0::2], minlength=taus.size)
        return ends, measure, vals[0] > taus

    return rmax, levels


def _golden_sup_reference(V, a: float, t_min_cap: float, tau_grid_n: int = 512):
    rmax, levels = mh.weights._scan_levels(V, t_min_cap)
    if rmax <= 0.0:
        return 0.0, 0.0

    def g(taus):
        return taus**a * levels(taus)[1]

    taus = np.geomspace(rmax * 1e-8, rmax * 1e8, tau_grid_n)
    grid_vals = g(taus)
    k = int(np.argmax(grid_vals))

    # golden-section on log tau around the grid argmax
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    x_lo, x_hi = np.log(taus[max(k - 1, 0)]), np.log(taus[min(k + 1, len(taus) - 1)])
    c, d = x_hi - invphi * (x_hi - x_lo), x_lo + invphi * (x_hi - x_lo)
    gc, gd = g(np.exp([c, d]))
    for _ in range(60):
        if gc < gd:
            x_lo, c, gc = c, d, gd
            d = x_lo + invphi * (x_hi - x_lo)
            gd = g(np.exp(d))[0]
        else:
            x_hi, d, gd = d, c, gc
            c = x_hi - invphi * (x_hi - x_lo)
            gc = g(np.exp(c))[0]
        if x_hi - x_lo < 1e-10:
            break
    x_best = 0.5 * (x_lo + x_hi)
    best = max(g(np.exp(x_best))[0], float(np.max(grid_vals)))
    return best, float(np.exp(x_best))


_oscillating = st.floats(1.0, 60.0).map(
    lambda k: mh.profiles.CallablePotential(
        density=lambda t: (1.1 + np.sin(k * t)) / (1.0 + t * t)
    )
)
# a threshold relative to rmax (up to 10 rmax), rmax itself, or the ratio at a
# scan node (its index as a fraction)
_tau_draws = st.lists(
    st.one_of(
        st.tuples(st.just("rel"), st.floats(-8.0, 1.0)),
        st.just(("rmax", 0.0)),
        st.tuples(st.just("node"), st.floats(0.0, 1.0)),
    ),
    min_size=1,
    max_size=12,
)


def _outcome(call):
    """The call's result or DomainError text, and its ScanResolutionWarnings."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            out = call()
        except DomainError as exc:  # a subnormal threshold can fail the root solve
            out = str(exc)
    return out, sum(issubclass(w.category, ScanResolutionWarning) for w in caught)


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(_potentials, _oscillating),
    st.one_of(_caps, st.sampled_from([-1.0, -2.0, -30.0])),
    _tau_draws,
    st.randoms(use_true_random=False),
)
def test_levels_equals_loop_reference(V, cap, draws, rnd):
    rmax, levels = mh.weights._scan_levels(V, cap)
    ref_rmax, ref_levels = _levels_loop_reference(V, cap)
    assert rmax == ref_rmax
    scale = rmax or 1.0  # a cap above the support of VSigma scans V/w0 = 0
    _, _, vals = _ref_scan(V, cap)
    vals = vals[vals > 0] if rmax > 0 else np.array([scale])  # thresholds are positive
    taus = []
    for kind, u in draws:
        if kind == "rel":
            taus.append(scale * 10.0**u)
        elif kind == "rmax":
            taus.append(scale)
        else:
            taus.append(float(vals[int(u * (vals.size - 1))]))
    taus = taus + rnd.sample(taus, min(3, len(taus)))  # repeated thresholds
    rnd.shuffle(taus)
    got, n_warn = _outcome(lambda: levels(taus))
    want, ref_warn = _outcome(lambda: ref_levels(taus))
    assert n_warn == ref_warn
    assert type(got) is type(want)
    if isinstance(want, str):
        assert got == want
        return
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape and g.tobytes() == w.tobytes()


# VSigma on the caps of the double and of the square schedule from -100
_ZOOM_CASES = [
    *[(mh.VSigma(s), s, cap) for s in (1.5, 2.0, 3.0) for cap in (-100.0, -200.0, -400.0)],
    *[(mh.VSigma(s), 0.75 * s + 0.5, cap) for s in (1.5, 2.0, 3.0) for cap in (-1e4, -1e8)],
    (mh.GaussianWell(1.3, 0.8), 2.0, -100.0),
    (mh.GaussianWell(0.5, 1.2), 3.0, -1e4),
    (mh.StepWell(2.0, 0.01), 2.0, -1e4),  # the maximum sits on the kink
    (mh.ZeroPotential(), 2.0, -100.0),
]


@pytest.mark.parametrize("V, a, cap", _ZOOM_CASES)
def test_zoom_matches_golden_section(V, a, cap, monkeypatch):
    scan = mh.weights._scan_levels
    brackets = mh.weights._LevelScan.brackets
    calls = []

    def counted(self, taus):  # one call per round: the grid or a zoom
        calls.append(np.size(taus))
        return brackets(self, taus)

    monkeypatch.setattr(mh.weights._LevelScan, "brackets", counted)
    [(value, arg_t)] = mh.weights._sup_over_thresholds(V, a, [cap])
    assert len(calls) <= 10
    monkeypatch.undo()
    want, _ = _golden_sup_reference(V, a, cap)
    rmax, levels = scan(V, cap)
    if rmax <= 0.0:
        assert (value, arg_t) == (0.0, 0.0) and want == 0.0
        return
    assert value == pytest.approx(want, rel=1e-9)
    taus = np.geomspace(rmax * 1e-8, rmax * 1e8, 512)
    assert value >= np.max(taus**a * levels(taus)[1])
    assert value == np.array([arg_t]) ** a * levels([arg_t])[1][0]


def test_square_schedule_and_cap_doublings_validation():
    V = mh.VSigma(2.0)
    with pytest.raises(ValueError, match="cap_doublings must be nonnegative"):
        mh.v_norm_a(V, 2.0, cap_doublings=-1)
    with pytest.raises(ValueError, match="cap_doublings must be nonnegative"):
        mh.counting.bound_jst(V, cap_doublings=-1)
    # a cap at or above 0 doubles to caps that never reach the origin
    for cap in (0.0, 5.0):
        with pytest.raises(ValueError, match="t_min_cap must be negative"):
            mh.counting.bound_jst(mh.GaussianWell(1.0, 0.5), t_min_cap=cap)
    for cap in (-0.5, -1.0):
        with pytest.raises(ValueError, match="square"):
            mh.v_norm_a(V, 2.0, t_min_cap=cap, cap_doublings=2, cap_schedule="square")
    # zero doublings is a one-cap sweep; just below -1 the square schedule grows the cap
    assert mh.v_norm_a(V, 2.0, t_min_cap=-100.0, cap_doublings=0).saturated
    with pytest.warns(UnboundedWarning, match="kept growing"):
        res = mh.v_norm_a(V, 2.0, -1.5, 2, cap_schedule="square")
    assert [c for c, _ in res.cap_sequence] == [-1.5, -2.25, -(1.5**4)]


def test_subnormal_threshold_level_set_is_finite():
    # the ratio at the last positive scan node: the Illinois halving takes
    # the subnormal bracket values to 0, and the secant step through them
    # must not be 0/0
    tau = 1.6433e-320
    ls = mh.level_set(mh.GaussianWell(1.0, 0.5), tau, t_min_cap=-100.0)
    [(lo, hi)] = ls.intervals
    assert np.isfinite(lo) and np.isfinite(hi)
    assert lo == -100.0 and 2.0 < hi < 3.0


# ---------------------------------------------------------------------------
# Reference for the caps batched into one root solve per round: the search of
# one cap at a time, each round with a root solve of its own.
# ---------------------------------------------------------------------------


def _per_cap_sup_reference(V, a: float, t_min_cap: float, tau_grid_n: int = 512):
    """Largest tau^a * measure seen and its tau: a geometric grid, then a zoom.

    Each zoom round evaluates _ZOOM_POINTS equally spaced interior points of
    the log-tau bracket in one ``levels`` call and keeps the argmax's two
    neighbours, until the bracket is narrower than 1e-10.
    """
    rmax, levels = mh.weights._scan_levels(V, t_min_cap)
    if rmax <= 0.0:
        return 0.0, 0.0

    def g(taus):
        return taus**a * levels(taus)[1]

    taus = np.geomspace(rmax * 1e-8, rmax * 1e8, tau_grid_n)
    vals = g(taus)
    k = int(np.argmax(vals))
    best, arg_t = float(vals[k]), float(taus[k])
    lo, hi = max(k - 1, 0), min(k + 1, taus.size - 1)
    x, v = np.log(taus[[lo, hi]]), vals[[lo, hi]]
    while x[1] - x[0] >= 1e-10:
        xs = np.linspace(x[0], x[1], mh.weights._ZOOM_POINTS + 2)
        ts = np.exp(xs[1:-1])
        vs = np.concatenate([v[:1], g(ts), v[1:]])
        j = int(np.argmax(vs))
        if vs[j] > best:  # the ends are old values, so j is an interior point
            best, arg_t = float(vs[j]), float(ts[j - 1])
        lo, hi = max(j - 1, 0), min(j + 1, xs.size - 1)
        x, v = xs[[lo, hi]], vs[[lo, hi]]
    return best, arg_t


def _counted_roots(monkeypatch):
    """Patch weights._roots to record the number of brackets of each call."""
    roots = mh.weights._roots
    sizes = []

    def counted(ratio, a, b, fa, fb, tau):
        sizes.append(a.size)
        return roots(ratio, a, b, fa, fb, tau)

    monkeypatch.setattr(mh.weights, "_roots", counted)
    return sizes


def _v_norm_outcome(call, monkeypatch, per_cap):
    """repr of the call's result (or exception) and the categories of its
    warnings, with the batched or the per-cap search."""
    if per_cap:
        monkeypatch.setattr(
            mh.weights,
            "_sup_over_thresholds",
            lambda V, a, caps: [_per_cap_sup_reference(V, a, cap) for cap in caps],
        )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            out = repr(call())
        except DomainError as exc:
            out = f"DomainError: {exc}"
    monkeypatch.undo()
    return out, [w.category.__name__ for w in caught]


_oscillating_15 = mh.profiles.CallablePotential(
    density=lambda t: (1.1 + np.sin(15.0 * t)) / (1.0 + t * t)
)
# finite above t = -150 only: the caps' scans fail from the second on
_nan_below_150 = mh.profiles.CallablePotential(
    density=lambda t: np.where(t < -150.0, np.nan, 2.0 / (1.0 + t * t))
)
_SWEEP_CASES = [
    *[(*case, "double", 3) for case in _ZOOM_CASES],
    *[(*case, "square", 2) for case in _ZOOM_CASES],
    (mh.ScaledPotential(mh.VSigma(2.0), 7.5), 2.0, -100.0, "double", 3),
    (mh.ScaledPotential(mh.GaussianWell(1.3, 0.8), 0.2), 3.0, -100.0, "square", 2),
    # a ScanResolutionWarning in every round, and an UnboundedWarning
    (_oscillating_15, 2.0, -30.0, "double", 2),
    (_oscillating_15, 2.0, -10.0, "square", 1),
    (_nan_below_150, 2.0, -100.0, "double", 3),
    (_nan_below_150, 2.0, -100.0, "square", 1),
]


@pytest.mark.parametrize("V, a, cap, schedule, doublings", _SWEEP_CASES)
def test_batched_caps_equal_per_cap_search(V, a, cap, schedule, doublings, monkeypatch):
    def call():
        return mh.v_norm_a(V, a, cap, doublings, cap_schedule=schedule)

    got, got_warnings = _v_norm_outcome(call, monkeypatch, per_cap=False)
    want, want_warnings = _v_norm_outcome(call, monkeypatch, per_cap=True)
    assert got == want  # value, arg_t and cap_sequence to the bit, or the same error
    assert sorted(got_warnings) == sorted(want_warnings)
    if got.startswith("DomainError"):
        return
    # one root solve per round, as many rounds as the longest search of one cap
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        result = mh.v_norm_a(V, a, cap, doublings, cap_schedule=schedule)
        caps = [c for c, _ in result.cap_sequence]
        rounds = []
        for c in caps:
            sizes = _counted_roots(monkeypatch)
            mh.weights._sup_over_thresholds(V, a, [c])
            monkeypatch.undo()
            rounds.append(len(sizes))
        sizes = _counted_roots(monkeypatch)
        mh.weights._sup_over_thresholds(V, a, caps)
    assert len(sizes) == max(rounds)


@pytest.mark.parametrize("bad", [np.nan, np.inf, 1.0, 0.5, -np.inf])
def test_exponent_must_be_finite_and_above_1(bad):
    V = mh.VSigma(2.0)
    for call in (
        lambda: mh.v_norm_a(V, bad),
        lambda: mh.weights.threshold_curve(V, bad),
        lambda: mh.verify_counting_bound(mh.BumpField(0.5), V, bad, [10.0]),
    ):
        with pytest.raises(ValueError, match="the functional needs a finite a > 1"):
            call()


@pytest.mark.parametrize("cap", [np.nan, -np.inf, 0.0, 3.0])
def test_cap_must_be_negative_and_finite(cap):
    V = mh.VSigma(2.0)
    for call in (
        lambda: mh.v_norm_a(V, 2.0, t_min_cap=cap),
        lambda: mh.weights.threshold_curve(V, 2.0, t_min_cap=cap),
        lambda: mh.counting.bound_jst(V, t_min_cap=cap),
        lambda: mh.verify_counting_bound(mh.BumpField(0.5), V, 2.0, [10.0], t_min_cap=cap),
    ):
        with pytest.raises(ValueError, match="t_min_cap must be negative and finite"):
            call()


def test_level_set_rejects_nan_threshold_and_bad_scan_range():
    V = mh.VSigma(2.0)
    for tau in (np.nan, 0.0, -1.0):
        with pytest.raises(ValueError, match="threshold must be positive"):
            mh.level_set(V, tau)
    for kw in ({"t_min_cap": np.nan}, {"t_min_cap": -np.inf}, {"t_max": np.nan},
               {"t_min_cap": 40.0}, {"t_max": np.inf}):
        with pytest.raises(ValueError, match="finite t_min_cap < t_max"):
            mh.level_set(V, 0.1, **kw)
    # an infinite threshold is above every ratio: the empty set
    assert mh.level_set(V, np.inf).is_empty


@pytest.mark.parametrize("scan_n", [0, 1, 15])
def test_level_set_rejects_scan_n_below_16(scan_n):
    # scan_n=0 once dropped the whole log-side piece: ((-2.0, -1.9999999995),)
    with pytest.raises(ValueError, match="scan_n must be at least 16"):
        mh.level_set(mh.VSigma(2.0), 0.1, scan_n=scan_n)
    assert mh.level_set(mh.VSigma(2.0), 0.1, scan_n=16).intervals[0][0] < -2.0


@pytest.mark.parametrize("r", [np.nan, 0.0, -1.0, [1.0, np.nan]])
def test_eval_weight_rejects_radius_not_positive(r):
    with pytest.raises(ValueError, match="r must be positive"):
        mh.eval_weight(mh.LogSquaredWeight(), r=r)

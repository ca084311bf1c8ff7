"""End-to-end counting: oracles, bound checks, coupling sweeps."""

import warnings

import numpy as np
import pytest

import maghardy as mh
from maghardy.errors import DomainError, InsufficientGrowth, UnboundedWarning
from maghardy.spectral import _lumps, assemble_mode


@pytest.mark.parametrize("lam", [np.nan, np.inf, -np.inf, -1.0])
@pytest.mark.parametrize("method", ["inertia", "prufer", "phase"])
def test_count_total_rejects_non_finite_or_negative_coupling(method, lam):
    # a NaN coupling once counted 0 by inertia, and inf failed deep inside
    g = mh.Grid.auto(-400.0, 0.5, 600)
    with pytest.raises(ValueError, match="coupling must be finite and nonnegative"):
        mh.count_total(mh.BumpField(0.5), mh.VSigma(2.0), lam, g, method=method)


def test_count_total_zero_coupling():
    g = mh.Grid.uniform(-10.0, 2.0, 501)
    rep = mh.count_total(mh.ZeroField(), mh.GaussianWell(), 0.0, g)
    assert rep.total == 0
    # small positive coupling below the first bound state
    rep2 = mh.count_total(mh.ZeroField(), mh.GaussianWell(), 1e-3, g)
    assert rep2.total == 0


def test_count_total_against_2d_dense_polar_oracle():
    """The mode sum must equal a dense eigensolve of the full 2D operator.

    The 2D polar-grid operator with n_theta azimuthal nodes block-
    diagonalizes over the discrete angular modes with eigenvalues
    2(1-cos(2 pi k/n))/dtheta^2, so both sides see identical spectra.
    """
    zero = mh.ZeroField()
    V = mh.GaussianWell(depth=1.0, width=1.0)
    lam = 40.0
    g = mh.Grid.uniform(-5.0, 2.5, 61)
    n_theta = 16
    dtheta = 2.0 * np.pi / n_theta

    mode_sum = 0
    for k in range(n_theta):
        c = 2.0 * (1.0 - np.cos(2.0 * np.pi * k / n_theta)) / dtheta**2
        op = assemble_mode(zero, V, 0, g, lam=lam, angular_override=c)
        mode_sum += mh.count_negative(op)

    # independent dense build of the same 2D operator
    t = g.t
    h = np.diff(t)
    ti = t[1:-1]
    lump = _lumps(g)
    T = (
        np.diag(1.0 / h[:-1] + 1.0 / h[1:] - lam * V.e2t_v(ti) * lump)
        + np.diag(-1.0 / h[1:-1], 1)
        + np.diag(-1.0 / h[1:-1], -1)
    )
    M = np.diag(lump)
    C = np.zeros((n_theta, n_theta))
    for k in range(n_theta):
        C[k, k] = 2.0 / dtheta**2
        C[k, (k + 1) % n_theta] = -1.0 / dtheta**2
        C[k, (k - 1) % n_theta] = -1.0 / dtheta**2
    A2 = np.kron(np.eye(n_theta), T) + np.kron(C, M)
    dense = int(np.sum(np.linalg.eigvalsh(A2) < 0))
    assert mode_sum == dense


def test_magnetic_count_not_above_nonmagnetic():
    V = mh.GaussianWell(depth=1.0, width=1.0)
    g = mh.Grid.uniform(-12.0, 3.0, 1501)
    for lam in (20.0, 60.0):
        n_mag = mh.count_total(mh.BumpField(flux=0.5), V, lam, g).total
        n_free = mh.count_total(mh.ZeroField(), V, lam, g).total
        assert n_mag <= n_free


def test_count_methods_agree_within_mode_tolerance():
    V = mh.VSigma(sigma=2.0)
    bump = mh.BumpField(flux=0.5)
    g = mh.Grid.auto(-400.0, 0.5, 6000)
    for lam in (10.0, 30.0):
        ri = mh.count_total(bump, V, lam, g, method="inertia")
        rp = mh.count_total(bump, V, lam, g, method="prufer")
        assert abs(ri.total - rp.total) <= 1 + ri.m_max


def test_bound_integral_zero_and_gaussian():
    assert mh.bound_jst(mh.ZeroPotential()).value == 0.0
    res = mh.bound_jst(mh.GaussianWell(depth=1.0, width=1.0))
    assert not res.unbounded
    # self-consistency of the quadrature value across cap extensions
    caps = [v for _, v in res.cap_sequence]
    assert abs(caps[-1] - caps[-2]) <= 1e-8 * caps[-1]


@pytest.mark.parametrize("radius", [0.01, 0.5], ids=["edge-in-s", "edge-in-t"])
def test_bound_integral_step_well_closed_form(radius):
    # int_{-inf}^L D e^{2t} (1 - t) dt = D e^{2L} (3/4 - L/2) for L = log radius
    # <= 0; the edge lies in the s = log|t| tail for L < -e, else in t
    D, L = 2.0, np.log(radius)
    want = D * np.exp(2.0 * L) * (0.75 - 0.5 * L)
    for cap, value in mh.bound_jst(mh.StepWell(D, radius)).cap_sequence:
        assert value == pytest.approx(want, rel=1e-12), cap


def test_bound_integral_linearity():
    V = mh.GaussianWell(depth=1.3, width=0.9)
    v1 = mh.bound_jst(V).value
    v2 = mh.bound_jst(mh.ScaledPotential(V, 2.0)).value
    assert v2 == pytest.approx(2.0 * v1, rel=1e-10)


def test_bound_integral_flags_borderline_potential():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        res = mh.bound_jst(mh.VSigma(sigma=2.0))
    assert res.unbounded
    assert any(issubclass(w.category, UnboundedWarning) for w in caught)


def test_verify_counting_bound_zero_potential():
    out = mh.verify_counting_bound(
        mh.BumpField(flux=0.5), mh.ZeroPotential(), 2.0, [1.0, 10.0]
    )
    assert all(row["ratio"] == 0.0 for row in out["rows"])


def test_verify_counting_bound_homogeneity():
    V = mh.VSigma(sigma=2.0)
    a = 2.0
    base = mh.v_norm_a(V, a, t_min_cap=-1e4, cap_doublings=0)
    for lam in (3.0, 30.0):
        direct = mh.v_norm_a(
            mh.ScaledPotential(V, lam), a, t_min_cap=-1e4, cap_doublings=0
        )
        assert direct.value**a == pytest.approx((lam * base.value) ** a, rel=1e-5)


def test_verify_counting_bound_ratio_stays_bounded():
    V = mh.VSigma(sigma=2.0)
    bump = mh.BumpField(flux=0.5)
    lams = np.geomspace(10.0, 1e4, 7)
    out = mh.verify_counting_bound(bump, V, 2.0, lams, method="phase")
    ratios = [row["ratio"] for row in out["rows"]]
    # no monotone growth over the final decade of the ladder
    final = [r for row, r in zip(out["rows"], ratios) if row["lambda"] >= lams[-1] / 10.0]
    assert not all(b > a for a, b in zip(final[:-1], final[1:]))
    assert max(ratios) < 10.0 * min(r for r in ratios if r > 0)


def test_sweep_exponent_borderline_quadratic():
    sweep = mh.sweep_exponent(
        mh.BumpField(flux=0.5),
        mh.VSigma(sigma=2.0),
        np.geomspace(10.0, 1e4, 7),
        method="phase",
    )
    assert 1.6 <= sweep.fitted_exponent <= 2.2
    totals = [r.total for r in sweep.reports]
    assert all(b >= a for a, b in zip(totals[:-1], totals[1:]))


def test_sweep_exponent_weyl_regime():
    sweep = mh.sweep_exponent(
        mh.ZeroField(),
        mh.GaussianWell(depth=1.0, width=1.0),
        np.geomspace(100.0, 1e4, 5),
        method="phase",
    )
    assert sweep.fitted_exponent == pytest.approx(1.0, abs=0.15)


def test_sweep_requires_geometric_ladder():
    with pytest.raises(ValueError):
        mh.sweep_exponent(
            mh.ZeroField(), mh.GaussianWell(), [1.0, 2.0, 10.0, 11.0, 200.0]
        )


def test_sweep_insufficient_growth():
    with pytest.raises(InsufficientGrowth):
        mh.sweep_exponent(
            mh.ZeroField(),
            mh.GaussianWell(depth=1.0, width=1.0),
            np.geomspace(0.01, 0.1, 5),
            method="phase",
        )


def test_inertia_sweep_monotone_totals():
    V = mh.GaussianWell(depth=1.0, width=1.0)
    g = mh.Grid.uniform(-12.0, 3.0, 1201)
    totals = [
        mh.count_total(mh.ZeroField(), V, lam, g).total
        for lam in np.geomspace(5.0, 200.0, 6)
    ]
    assert all(b >= a for a, b in zip(totals[:-1], totals[1:]))


def test_no_truncation_propagates():
    from maghardy.errors import NoTruncation

    g = mh.Grid.uniform(-4.0, 0.0, 101)  # grid cuts through the well
    with pytest.raises(NoTruncation):
        mh.count_total(mh.ZeroField(), mh.StepWell(depth=5.0, radius=2.0), 1.0, g)


def test_count_report_serialization():
    g = mh.Grid.uniform(-10.0, 2.0, 301)
    rep = mh.count_total(mh.ZeroField(), mh.GaussianWell(), 30.0, g)
    d = rep.as_dict()
    assert d["total"] == rep.total
    assert set(d) >= {"lambda", "per_mode", "m_max", "total", "method", "grid"}


# ---------------------------------------------------------------------------
# Reference for the coupling ladder as a batch axis: count_total coupling by
# coupling, each phase integral with a root solve and a panel call of its own.
# ---------------------------------------------------------------------------


def _reference_count_total(field, V, lam, grid, method="inertia"):
    """count_total of one coupling, by the phase integral of one coupling."""
    if not 0.0 <= lam < np.inf:
        raise ValueError("coupling must be finite and nonnegative")
    if method not in ("inertia", "prufer", "phase"):
        raise ValueError(f"unknown method {method!r}")
    if grid is None and method != "phase":
        raise ValueError("inertia and oscillation methods require a grid")
    if lam == 0.0:
        return mh.counting.CountReport(
            lam=0.0,
            per_mode={},
            m_max=0,
            total=0,
            method=method,
            grid_meta=grid.meta() if grid else None,
            forbidden_margin=None,
        )

    if grid is not None:
        m_max = mh.spectral.mode_truncation(field, V, grid, lam)
    else:
        probe = mh.Grid.auto(-1e7, 1.0, 2000)
        m_max = mh.spectral.mode_truncation(field, V, probe, lam)
    modes = list(range(-m_max, m_max + 1))

    if method == "inertia":
        counts = mh.spectral.count_modes(field, V, modes, grid, lam)
    elif method == "prufer":
        span = (grid.t_min, grid.t_max)
        counts = [mh.spectral.prufer_count(field, V, m, span, lam=lam) for m in modes]
    else:
        dom = (grid.t_min, grid.t_max) if grid is not None else None
        counts = _reference_phase_integral_count(field, V, modes, lam, t_domain=dom)
    per_mode = dict(zip(modes, counts))
    total = sum(per_mode.values())
    margin = None
    if grid is not None and modes:
        margin = mh.spectral.forbidden_margin(field, V, grid, lam, modes)
    return mh.counting.CountReport(
        lam=float(lam),
        per_mode=per_mode,
        m_max=m_max,
        total=total if method == "phase" else int(total),
        method=method,
        grid_meta=grid.meta() if grid else None,
        forbidden_margin=margin,
    )


def _reference_phase_integral_count(
    field, V, m, lambda_coupling, critical_shift=True, t_domain=None
):
    """The phase integral of one coupling, on a probe, a root solve and a
    panel call of its own."""
    if not 0.0 <= lambda_coupling < np.inf:
        raise ValueError("coupling must be finite and nonnegative")
    modes = [m] if np.ndim(m) == 0 else list(m)
    base, lam = mh.spectral._unwrap_scaled(V, lambda_coupling)
    if isinstance(base, mh.VSigma):
        coordinate = _reference_loglog_coordinate(field, base, lam, critical_shift, t_domain)
    else:
        coordinate = _reference_direct_coordinate(
            field, V, lambda_coupling, critical_shift, t_domain
        )
    if coordinate is None:
        counts = [0.0] * len(modes)
    else:
        counts = _reference_phase_panels(modes, *coordinate)
    return counts[0] if np.ndim(m) == 0 else counts


def _reference_direct_coordinate(field, V, lam, critical_shift, t_domain):
    """The phase integrand in t: probe, breaks and mode-independent terms."""
    if t_domain is None:
        sup = V.support_t_max
        t_lo, t_hi = -60.0, (2.0 if sup is None else max(sup + 1.0, 1.0))
    else:
        t_lo, t_hi = float(min(t_domain)), float(max(t_domain))

    def terms(t):
        barrier = 1.0 / (4.0 * (1.0 + t * t)) if critical_shift else 0.0
        return lam * V.e2t_v(t), field.alpha(t), 1.0, barrier

    # split at known jumps so no quadrature panel straddles a discontinuity
    fixed = [t_lo, t_hi, V.support_t_max, *field.kinks]
    return np.linspace(t_lo, t_hi, 4001), terms, fixed


def _reference_loglog_coordinate(field, V, lam, critical_shift, t_domain):
    """The borderline well's phase integrand in s = log|t|, t = -e^s <= -2.

    dt = -e^s ds turns the radicand into lam s^{-1/sigma} - (e^s |m - alpha|)^2
    - 1/(4(1 + e^{-2s})); None when the s-range is empty.
    """
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

    def terms(s):
        with np.errstate(over="ignore", invalid="ignore"):
            es = np.exp(s)  # inf beyond s = 709: the forbidden limit wherever m != alpha
            alpha = field.alpha(-es)
        barrier = 1.0 / (4.0 * (1.0 + np.exp(-2.0 * s))) if critical_shift else 0.0
        return lam * s ** (-1.0 / V.sigma), alpha, es, barrier

    # the support edge t = -2 is s = log 2, at or below s_lo
    fixed = [s_lo, s_hi, *(np.log(-k) for k in field.kinks if k < 0.0)]
    return np.geomspace(s_lo, s_hi, 4001), terms, fixed


def _reference_phase_panels(modes, probe, terms, fixed):
    """Per-mode (1/pi) int sqrt(max(well - (g |m - alpha|)^2 - barrier, 0)) dx
    over the probe's span, from ``terms(x) = (well, alpha, g, barrier)``.
    ``fixed`` lists known jumps and kinks; those outside the span are ignored."""
    x_lo, x_hi = probe[0], probe[-1]

    def finite_terms(x):
        well, alpha, g, barrier = terms(x)
        bad = ~(np.isfinite(well) & np.isfinite(alpha))
        if bad.any():
            raise DomainError(f"phase integrand is not finite at {float(x[bad][0])!r}")
        return well, alpha, g, barrier

    def radicand(m, well, alpha, g, barrier):
        am = np.abs(m - alpha)
        # g = e^s may be inf: (g am)^2 overflows to the forbidden limit, and
        # am == 0 is short-circuited
        with np.errstate(over="ignore", invalid="ignore"):
            return well - np.where(am > 0.0, (g * am) ** 2, 0.0) - barrier

    def w_neg(x, m):
        """The radicand at points x of modes m (x and m of one shape)."""
        return radicand(m, *finite_terms(x))

    # sign changes on the probe bracket the turning points; a mode's row is
    # built from the shared terms by w_neg's own formula, so signs agree with it
    shared = finite_terms(probe)
    brackets, open_modes = [], []
    for k, m in enumerate(modes):
        vals = radicand(m, *shared)
        sign = vals > 0
        if not sign.any():
            continue
        i = np.flatnonzero(sign[:-1] != sign[1:])
        brackets.append((i, vals[i], vals[i + 1], np.full(i.size, k)))
        open_modes.append(k)
    if not open_modes:
        return [0.0] * len(modes)
    i_lo, f_lo, f_hi, bracket_mode = (np.concatenate(c) for c in zip(*brackets))
    m_of = np.asarray(modes, dtype=float)
    edges = mh.weights._roots(
        lambda x: w_neg(x, m_of[bracket_mode]), probe[i_lo], probe[i_lo + 1], f_lo, f_hi, 0.0
    )

    fixed = np.array([x for x in fixed if x is not None and x_lo <= x <= x_hi], dtype=float)
    a, b, panel_mode = mh.spectral._mode_panels(edges, bracket_mode, open_modes, fixed)
    keep = w_neg(0.5 * (a + b), m_of[panel_mode]) > 0
    a, b, panel_mode = a[keep], b[keep], panel_mode[keep]
    vals = mh.weights._sin2_gauss_panels(
        lambda x, rows: np.sqrt(np.maximum(w_neg(x, m_of[panel_mode[rows]]), 0.0)), a, b
    )
    # each mode's panels are added in ascending order, as in a one-mode call
    counts = np.bincount(panel_mode, weights=vals, minlength=len(modes))
    return (counts / np.pi).tolist()


def _ladder_outcome(call, monkeypatch, per_coupling):
    """repr of the call's result (or error) and its warnings' categories, with
    the ladder or the per-coupling reference."""
    if per_coupling:
        monkeypatch.setattr(
            mh.counting,
            "count_ladder",
            lambda field, V, lams, grid, method: [
                _reference_count_total(field, V, lam, grid, method) for lam in lams
            ],
        )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            out = repr(call())
        except (InsufficientGrowth, DomainError, ValueError) as exc:
            out = f"{type(exc).__name__}: {exc}"
    monkeypatch.undo()
    return out, sorted(w.category.__name__ for w in caught)


_BUMP = mh.BumpField(0.5)
_WELL = mh.GaussianWell(1.3, 0.8)
_WELL_LADDER = np.geomspace(1e2, 1e4, 5) / (1.3 * 0.8**2)
_LADDER_CASES = [
    # (potential, ladder, grid, method)
    (mh.VSigma(2.0), np.geomspace(10.0, 1e4, 7), None, "phase"),
    (mh.VSigma(2.7), np.geomspace(10.0, 1e4, 7), None, "phase"),
    (mh.VSigma(2.0), np.geomspace(10.0, 1e3, 5), mh.Grid.auto(-400.0, 0.5, 1500), "phase"),
    (_WELL, _WELL_LADDER, None, "phase"),
    (mh.StepWell(2.0, 0.5), np.geomspace(10.0, 1e3, 5), None, "phase"),
    (mh.ScaledPotential(mh.VSigma(2.0), 3.0), np.geomspace(10.0, 1e4, 7), None, "phase"),
    (mh.ScaledPotential(_WELL, 2.0), _WELL_LADDER, None, "phase"),
    # no open mode on any coupling
    (mh.ZeroPotential(), np.geomspace(10.0, 1e4, 7), None, "phase"),
    # t_min >= -2: the borderline well has no s-coordinate on the grid
    (mh.VSigma(2.0), np.geomspace(10.0, 1e4, 7), mh.Grid.uniform(-1.5, 0.5, 201), "phase"),
    (_WELL, _WELL_LADDER, mh.Grid.uniform(-12.0, 3.0, 1201), "inertia"),
    (_WELL, np.array([5.0, 30.0]), mh.Grid.uniform(-12.0, 3.0, 601), "prufer"),
]


@pytest.mark.parametrize("V, lams, grid, method", _LADDER_CASES)
def test_ladder_equals_per_coupling_reference(V, lams, grid, method, monkeypatch):
    calls = [
        lambda: mh.verify_counting_bound(_BUMP, V, 2.0, lams, method=method, grid=grid),
        lambda: mh.verify_counting_bound(_BUMP, V, 2.5, [0.0, *lams], method=method, grid=grid),
    ]
    if lams.size >= 5:
        calls.append(lambda: mh.sweep_exponent(_BUMP, V, lams, method=method, grid=grid))
    for call in calls:
        got = _ladder_outcome(call, monkeypatch, per_coupling=False)
        want = _ladder_outcome(call, monkeypatch, per_coupling=True)
        assert got == want  # every report and row to the bit, and the same warnings


def _counted(monkeypatch, module, name):
    """Patch module.name to record its calls' positional arguments."""
    fn = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_phase_ladder_makes_one_root_solve_and_one_panel_call(monkeypatch):
    roots = _counted(monkeypatch, mh.spectral, "_roots")
    panels = _counted(monkeypatch, mh.spectral, "_sin2_gauss_panels")
    auto = _counted(monkeypatch, mh.Grid, "auto")
    reports = mh.count_ladder(_BUMP, mh.VSigma(2.0), np.geomspace(10.0, 1e4, 7), None, "phase")
    assert len(roots) == len(panels) == len(auto) == 1
    assert auto[0] == (-1e7, 1.0, 2000)
    # every coupling's brackets are in the one solve
    assert roots[0][1].size > 7
    assert [r.lam for r in reports] == np.geomspace(10.0, 1e4, 7).tolist()


def test_prufer_ladder_samples_the_coefficient_table_once_per_coupling(monkeypatch):
    samples = []
    e2t_v = type(_WELL).e2t_v
    monkeypatch.setattr(
        type(_WELL), "e2t_v", lambda self, t: samples.append(np.size(t)) or e2t_v(self, t)
    )
    reports = mh.count_ladder(_BUMP, _WELL, [5.0, 30.0], mh.Grid.uniform(-12.0, 3.0, 601), "prufer")
    assert samples.count(8192) == 2
    assert all(len(r.per_mode) > 1 for r in reports)


def test_count_ladder_checks_every_coupling_first(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("a count ran before the couplings were checked")

    monkeypatch.setattr(mh.counting, "mode_truncation", fail)
    g = mh.Grid.uniform(-12.0, 3.0, 601)
    for method in ("inertia", "prufer", "phase"):
        with pytest.raises(ValueError, match="coupling must be finite and nonnegative"):
            mh.count_ladder(_BUMP, _WELL, [10.0, 20.0, np.nan], g, method)
    # a ladder of zero couplings runs no count
    reports = mh.count_ladder(_BUMP, _WELL, [0.0, 0.0], None, "phase")
    assert [r.total for r in reports] == [0, 0] and reports[0].per_mode is not reports[1].per_mode

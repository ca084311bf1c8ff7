"""End-to-end counting: oracles, bound checks, coupling sweeps."""

import warnings

import numpy as np
import pytest

import maghardy as mh
from maghardy.errors import DomainError, InsufficientGrowth, UnboundedWarning
from maghardy.spectral import ModeOperator, _mode_terms


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
    V = mh.GaussianWell(depth=1.0, width=1.0)
    lam = 40.0
    g = mh.Grid.uniform(-5.0, 2.5, 61)
    n_theta = 16
    dtheta = 2.0 * np.pi / n_theta

    # each discrete angular mode k's matrix: the mode form with its
    # eigenvalue c in place of (m - alpha)^2
    ti, off, stiff, lump = _mode_terms(g)
    mode_sum = 0
    for k in range(n_theta):
        c = 2.0 * (1.0 - np.cos(2.0 * np.pi * k / n_theta)) / dtheta**2
        op = ModeOperator(0, stiff + (c - lam * V.e2t_v(ti)) * lump, off)
        mode_sum += mh.count_negative(op)

    # independent dense build of the same 2D operator
    h = np.diff(g.t)
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
# The coupling ladder as a batch axis, against its one-coupling case: each
# coupling counted by a ladder of its own, as count_total does.
# ---------------------------------------------------------------------------


def _ladder_outcome(call, monkeypatch, per_coupling):
    """repr of the call's result (or error) and its warnings' categories, with
    the ladder or with one-coupling ladders."""
    if per_coupling:
        ladder = mh.counting.count_ladder
        monkeypatch.setattr(
            mh.counting,
            "count_ladder",
            lambda field, V, lams, grid, method: [
                ladder(field, V, [lam], grid, method)[0] for lam in lams
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

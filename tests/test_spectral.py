"""Mode-operator assembly, inertia counting, phase methods, Hardy constants."""

import hashlib
import warnings
from functools import cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh_tridiagonal, eigvalsh_tridiagonal
from scipy.linalg import lapack as scipy_lapack

import maghardy as mh
from maghardy import _kernels
from maghardy.errors import (
    DomainError,
    NoTruncation,
    QuadratureFailure,
    StiffnessFailure,
    ZeroPivotWarning,
)
from maghardy.profiles import ZeroPotential
from maghardy.spectral import (
    HardyEstimate,
    ModeOperator,
    _bisect,
    _factor,
    _least_failing_double,
    _lumps,
    _mode_brackets,
    _mode_panels,
    _pivmin,
    assemble_mode,
    count_modes,
    forbidden_margin,
    smallest_generalized_mu,
)


def test_assemble_zero_zero_is_laplacian():
    g = mh.Grid.uniform(0.0, 1.0, 11)
    op = assemble_mode(mh.ZeroField(), ZeroPotential(), 0, g)
    h = 0.1
    assert np.allclose(op.diag, 2.0 / h, rtol=1e-12)
    assert np.allclose(op.offdiag, -1.0 / h, rtol=1e-12)
    assert mh.count_negative(op) == 0


def test_mode1_zero_field_shifted_positive():
    # m=1, zero field: generalized spectrum vs the trapezoid mass is >= 1
    g = mh.Grid.uniform(-4.0, 4.0, 401)
    op = assemble_mode(mh.ZeroField(), ZeroPotential(), 1, g)
    mass = _lumps(g)
    ev = eigh_tridiagonal(
        op.diag / mass, op.offdiag / np.sqrt(mass[:-1] * mass[1:]), eigvals_only=True
    )
    assert ev[0] >= 1.0 - 1e-10


def test_assemble_bump_diagonal_spot_check():
    field = mh.BumpField(flux=0.5)
    g = mh.Grid.uniform(-4.0, 2.0, 121)
    op = assemble_mode(field, ZeroPotential(), 0, g)
    h = g.steps
    ti = g.t[1:-1]
    lump = 0.5 * (h[:-1] + h[1:])
    expect = 1.0 / h[:-1] + 1.0 / h[1:] + field.alpha(ti) ** 2 * lump
    assert np.allclose(op.diag, expect, rtol=1e-13)
    # the flux-squared profile rises from ~0 to 0.25 across the support
    alpha2 = field.alpha(ti) ** 2
    assert alpha2[0] < 1e-6 and abs(alpha2[-1] - 0.25) < 1e-12


def test_count_negative_matches_dense_on_random_instances():
    rng = np.random.default_rng(7)
    fields = [mh.ZeroField(), mh.BumpField(flux=0.5), mh.LogPowerField(1.0, 2.0)]
    for _ in range(50):
        field = fields[rng.integers(0, 3)]
        V = mh.StepWell(
            depth=float(rng.uniform(0.5, 30.0)), radius=float(rng.uniform(0.5, 2.0))
        )
        m = int(rng.integers(-3, 4))
        n = int(rng.integers(20, 200))
        g = mh.Grid.uniform(-6.0, 3.0, n)
        op = assemble_mode(field, V, m, g, lam=float(rng.uniform(0.5, 4.0)))
        dense = int(np.sum(eigh_tridiagonal(op.diag, op.offdiag, eigvals_only=True) < 0))
        assert mh.count_negative(op) == dense


def test_count_monotone_in_depth():
    g = mh.Grid.uniform(-6.0, 2.0, 400)
    prev = -1
    for depth in (1.0, 5.0, 10.0, 25.0, 60.0):
        op = assemble_mode(mh.ZeroField(), mh.StepWell(depth=depth, radius=1.0), 0, g)
        now = mh.count_negative(op)
        assert now >= prev
        prev = now


def test_count_zero_for_zero_potential():
    rng = np.random.default_rng(1)
    for field in (mh.ZeroField(), mh.BumpField(flux=1.2), mh.LogPowerField(1.0, 1.5)):
        m = int(rng.integers(-4, 5))
        g = mh.Grid.uniform(-8.0, 2.0, 301)
        assert mh.count_negative(assemble_mode(field, ZeroPotential(), m, g)) == 0


def test_diamagnetic_diagonal_ordering():
    # replacing the angular weight by zero only lowers the diagonal, hence
    # the bottom eigenvalue (matrix ordering)
    g = mh.Grid.uniform(-4.0, 2.0, 201)
    for m in (1, -2):
        op_m = assemble_mode(mh.BumpField(flux=0.5), ZeroPotential(), m, g)
        op_0 = assemble_mode(mh.ZeroField(), ZeroPotential(), 0, g)
        ev_m = eigh_tridiagonal(op_m.diag, op_m.offdiag, eigvals_only=True)[0]
        ev_0 = eigh_tridiagonal(op_0.diag, op_0.offdiag, eigvals_only=True)[0]
        assert ev_m >= ev_0 - 1e-12


# ---------------------------------------------------------------------------
# mode truncation
# ---------------------------------------------------------------------------


def test_truncation_zero_potential():
    g = mh.Grid.uniform(-6.0, 2.0, 101)
    assert mh.mode_truncation(mh.ZeroField(), ZeroPotential(), g) == 0


@pytest.mark.parametrize("depth", [4.0, 10.0, 30.0])
def test_truncation_step_well_sqrt_rule(depth):
    g = mh.Grid.uniform(-8.0, 2.0, 2001)
    m_max = mh.mode_truncation(mh.ZeroField(), mh.StepWell(depth=depth, radius=1.0), g)
    assert abs(m_max - np.sqrt(depth)) <= 1.0


def test_truncation_uses_shifted_flux():
    # D = 0.9: without field |m|=1 is forbidden (1 >= 0.9); with flux 1/2 the
    # m=+1 channel sees (1-alpha)^2 < 0.9 near the support and stays active
    g = mh.Grid.uniform(-8.0, 2.0, 2001)
    V = mh.StepWell(depth=0.9, radius=1.0)
    assert mh.mode_truncation(mh.ZeroField(), V, g) == 0
    assert mh.mode_truncation(mh.BumpField(flux=0.5), V, g) == 1


def test_truncation_requires_decayed_edges():
    g = mh.Grid.uniform(-4.0, 0.0, 101)  # cuts through the step support
    with pytest.raises(NoTruncation):
        mh.mode_truncation(mh.ZeroField(), mh.StepWell(depth=5.0, radius=2.0), g)


def test_forbidden_margin_sign():
    g = mh.Grid.uniform(-20.0, 2.0, 301)
    V = mh.StepWell(depth=2.0, radius=1.0)
    margin = forbidden_margin(mh.ZeroField(), V, g, 1.0, [1, -1, 2, -2])
    assert margin > 0.9  # edges deeply forbidden for |m| >= 1


def test_zero_pivot_warning_reported():
    import warnings as _warnings

    from maghardy.errors import ZeroPivotWarning
    from maghardy.spectral import ModeOperator

    op = ModeOperator(m=0, diag=np.zeros(4), offdiag=np.zeros(3))
    with _warnings.catch_warnings(record=True) as caught:
        _warnings.simplefilter("always")
        assert mh.count_negative(op) == 0
    assert any(issubclass(w.category, ZeroPivotWarning) for w in caught)


def _with_zero_pivot_warnings(fn):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = fn()
    return result, sum(issubclass(w.category, ZeroPivotWarning) for w in caught)


# V = 2 at t = 0 only: mode 0's first pivot is 1 + 1 + (0 - 2) * 1 = 0 exactly
_SPIKE = mh.CustomPotential(np.array([-0.5, 0.0, 0.5]), np.array([0.0, 2.0, 0.0]))
_GAUSS = mh.GaussianWell(1.3, 0.8)


@pytest.mark.parametrize(
    "field, V, grid, lam, zero_pivots",
    [
        *(
            (mh.BumpField(flux=0.5), _GAUSS, mh.Grid.uniform(-12.0, 3.0, 6001), lam, 0)
            for lam in np.geomspace(1e2, 1e4, 5) / (1.3 * 0.8 * 0.8)
        ),
        (mh.BumpField(flux=0.5), mh.VSigma(sigma=2.0), mh.Grid.auto(-400.0, 0.5, 6000), 50.0, 0),
        (mh.ZeroField(), mh.StepWell(3.0, 1.0), mh.Grid.uniform(-8.0, 2.0, 2001), 40.0, 0),
        (mh.ZeroField(), _SPIKE, mh.Grid.uniform(-1.0, 3.0, 5), 1.0, 1),
    ],
    ids=[*(f"gauss-ladder{k}" for k in range(5)), "vsigma", "step-zero-field", "zero-pivot"],
)
def test_count_modes_equals_count_negative_per_mode(
    monkeypatch, field, V, grid, lam, zero_pivots
):
    # the counter sees the same oriented diagonal, off-diagonal, last weak row
    # and pivmin, to the bit, and pivmin is _pivmin's of the couplings;
    # count_modes takes its modes outward from alpha, so the calls are
    # compared as sets
    counter, inputs = mh.spectral._negative_pivots, []

    def recording(diag, off, pivmin, last=None, fill=None):
        if fill is not None:
            fill(0, diag.size)
        assert pivmin == _pivmin(off)
        digest = hashlib.sha256(diag.tobytes())
        digest.update(off.tobytes())
        inputs.append((digest.hexdigest(), int(last), pivmin))
        return counter(diag, off, pivmin, last, fill)

    monkeypatch.setattr(mh.spectral, "_negative_pivots", recording)
    m_max = mh.mode_truncation(field, V, grid, lam)
    modes = list(range(-m_max - 1, m_max + 2))
    many = _with_zero_pivot_warnings(lambda: count_modes(field, V, modes, grid, lam))
    many_inputs = sorted(inputs)
    inputs.clear()
    single = _with_zero_pivot_warnings(
        lambda: [mh.count_negative(assemble_mode(field, V, m, grid, lam=lam)) for m in modes]
    )
    assert many == single
    assert many_inputs == sorted(inputs)
    assert sum(many[0]) > 0 and many[1] == zero_pivots


def _sweeps_of(monkeypatch, call):
    """call()'s result, its ZeroPivotWarnings, and per _negative_pivots call
    the pivmin it was given and the rows [x, y) it asked its fill to
    assemble."""
    counter, sweeps = mh.spectral._negative_pivots, []

    def recording(diag, off, pivmin, last=None, fill=None):
        seen = {"pivmin": pivmin, "filled": []}
        sweeps.append(seen)
        if fill is not None:
            lazy_fill = fill

            def fill(x, y):
                seen["filled"].append((x, y))
                lazy_fill(x, y)

        return counter(diag, off, pivmin, last, fill)

    monkeypatch.setattr(mh.spectral, "_negative_pivots", recording)
    result = _with_zero_pivot_warnings(call)
    monkeypatch.undo()
    return result, sweeps


def test_count_modes_clamps_with_the_whole_matrix_pivmin(monkeypatch):
    # mode 1's first pivot is 2 + (1 - 3) * 1 = 0 exactly, and is clamped to
    # pivmin, which both paths take from the couplings alone: the diagonal of
    # 1e31 at t = 151 (row 151), in the strong tail that the sweep stops
    # before and never assembles, leaves it at LAPACK's floor
    grid = mh.Grid.uniform(-1.0, 199.0, 201)
    V = mh.CustomPotential(
        np.array([-0.5, 0.0, 0.5, 150.0, 151.0, 152.0]),
        np.array([0.0, 3.0, 0.0, 0.0, -1e31 * np.exp(-302.0), 0.0]),
    )
    op = assemble_mode(mh.ZeroField(), V, 1, grid)
    assert op.diag[0] == 0.0 and int(np.argmax(np.abs(op.diag))) == 151
    floor = _pivmin(op.offdiag)
    assert floor == np.finfo(float).tiny
    (counts, warned), [sweep] = _sweeps_of(monkeypatch, lambda: count_modes(mh.ZeroField(), V, [1], grid))
    assert max(y for _, y in sweep["filled"]) <= 151
    (count, single_warned), [single] = _sweeps_of(monkeypatch, lambda: mh.count_negative(op))
    assert counts == [count] == [1] and warned == single_warned == 1
    assert sweep["pivmin"] == single["pivmin"] == floor


def test_count_modes_counts_beside_a_huge_repulsive_spike():
    # mode 1's pivots are -1 and -0.5 - 1 / -1 = 0.5 at t = 0 and 1, and a
    # repulsive spike makes the diagonal 1e300 at t = 50; a pivot floor that
    # grew with the largest diagonal entry, 1e300 * 1e-292, clamped -1 to
    # -1e8, so that the next pivot stayed negative: 2 counted, 1 exact
    grid = mh.Grid.uniform(-1.0, 99.0, 101)
    V = mh.CustomPotential(
        np.array([-0.5, 0.0, 1.0, 1.5, 49.5, 50.0, 50.5]),
        np.array([0.0, 4.0, 3.5 * np.exp(-2.0), 0.0, 0.0, -1e300 * np.exp(-100.0), 0.0]),
    )
    op = assemble_mode(mh.ZeroField(), V, 1, grid)
    assert float(np.max(op.diag)) > 1e299
    want = int(np.sum(eigvalsh_tridiagonal(op.diag, op.offdiag) < 0.0))
    assert count_modes(mh.ZeroField(), V, [1], grid) == [mh.count_negative(op)] == [want] == [1]


# the count benchmark's largest inertia op, from seed 4242's draws: bump flux
# 0.66935, a Gaussian well of depth 1.50723 and width 0.66617, and
# lam depth width^2 = 1e4, with its 123 modes on a 6001-node grid
_COUNT_CASE = (
    mh.BumpField(0.6693508851539307),
    mh.GaussianWell(1.507230064548501, 0.6661666324297678),
    list(range(-61, 62)),
    mh.Grid.uniform(-12.0, 3.0, 6001),
    np.geomspace(1e2, 1e4, 5)[-1] / (1.507230064548501 * 0.6661666324297678 * 0.6661666324297678),
)


def test_count_modes_falls_back_when_the_entry_bound_overflows():
    # (1e154)^2 plus a potential of 1e308 overflows the bound on every
    # entry, though each mode's own diagonal is finite
    grid, field = mh.Grid.uniform(-1.0, 1.0, 41), mh.BumpField(0.5)
    V = mh.CustomPotential(np.array([-1.0, 1.0]), np.array([1e308, 1e308]) * np.exp(-2.0))
    modes = [0, 1e154, -3]
    want = [mh.count_negative(assemble_mode(field, V, m, grid)) for m in modes]
    assert count_modes(field, V, modes, grid) == want and sum(want) > 0


def test_count_cost_in_lapack_rows(monkeypatch):
    # rows dpttrf swept (its info when a pivot fails, else the rows passed):
    # 244343 in 2632 calls, against 737877 in 2626 when every mode was
    # assembled and swept over all 5999 rows
    lapack, cost = mh.spectral._lapack(), {"rows": 0, "calls": 0}
    dpttrf = lapack.dpttrf

    def counted(d, *args):
        out = dpttrf(d, *args)
        cost["calls"] += 1
        cost["rows"] += out[2] or len(d)
        return out

    monkeypatch.setattr(lapack, "dpttrf", counted)
    field, V, modes, grid, lam = _COUNT_CASE
    assert mh.mode_truncation(field, V, grid, lam) == 61
    assert sum(count_modes(*_COUNT_CASE)) > 2000
    assert cost["rows"] <= 300_000 and cost["calls"] <= 2_900, cost


def _mode_truncation_loop(field, V, grid, lam):
    """mode_truncation as a loop over every |m| <= bound, kept as the
    reference for its early exit."""
    t = grid.t
    vt = lam * V.vplus_density(t)
    if not np.any(vt > 0):
        return 0
    v_max = float(np.max(vt))
    if vt[0] > 0.1 * v_max or vt[-1] > 0.1 * v_max:
        raise NoTruncation("edges")
    alpha = field.alpha(t)
    bound = int(np.ceil(float(np.max(np.abs(alpha))) + np.sqrt(v_max))) + 1
    m_max = 0
    for m in range(-bound, bound + 1):
        if not np.all((m - alpha) ** 2 >= vt):
            m_max = max(m_max, abs(m))
    return m_max


def _forbidden_margin_loop(field, V, grid, lam, m_values):
    """forbidden_margin as a loop over the modes, kept as the reference for
    its one array over modes and edges."""
    edges = np.array([grid.t_min, grid.t_max])
    v = lam * V.vplus_density(edges)
    worst = 1.0
    for m in m_values:
        lam2 = (m - field.alpha(edges)) ** 2
        denom = lam2 + v
        frac = np.where(denom > 0, (lam2 - v) / np.where(denom > 0, denom, 1.0), 1.0)
        worst = min(worst, float(np.min(frac)))
    return worst


@pytest.mark.parametrize(
    "field",
    [
        mh.ZeroField(),
        mh.BumpField(flux=0.5),
        mh.BumpField(flux=2.7),
        mh.BumpField(flux=-2.7),
        mh.LogPowerField(1.0, 2.0),
    ],
    ids=["zero", "bump0.5", "bump2.7", "bump-2.7", "logpower"],
)
@pytest.mark.parametrize(
    "V, grid",
    [
        (mh.StepWell(depth=0.9, radius=1.0), mh.Grid.uniform(-8.0, 2.0, 2001)),
        (mh.GaussianWell(1.3, 0.8), mh.Grid.uniform(-12.0, 3.0, 1501)),
        (mh.VSigma(sigma=2.0), mh.Grid.auto(-400.0, 0.5, 1500)),
        (ZeroPotential(), mh.Grid.uniform(-6.0, 2.0, 101)),
    ],
    ids=["step", "gauss", "vsigma", "zero"],
)
@pytest.mark.parametrize("lam", [0.3, 1.0, 7.0, 50.0, 1e3, 1e4])
def test_truncation_and_margin_equal_loop_references(field, V, grid, lam):
    m_max = mh.mode_truncation(field, V, grid, lam)
    assert m_max == _mode_truncation_loop(field, V, grid, lam)
    for modes in ([0], range(-m_max, m_max + 1), range(-m_max - 3, m_max + 4)):
        assert forbidden_margin(field, V, grid, lam, modes) == _forbidden_margin_loop(
            field, V, grid, lam, modes
        )
    assert forbidden_margin(field, V, grid, lam, []) == 1.0


# ---------------------------------------------------------------------------
# Hardy constant
# ---------------------------------------------------------------------------


def test_smallest_generalized_mu_vs_dense():
    rng = np.random.default_rng(3)
    g = mh.Grid.uniform(-6.0, 6.0, 301)
    w = mh.LogSquaredWeight()
    mass = w.mass_density(g.t[1:-1]) * _lumps(g)
    for field in (mh.ZeroField(), mh.BumpField(flux=0.5)):
        for m in (0, 1):
            op = assemble_mode(field, ZeroPotential(), m, g)
            mine = smallest_generalized_mu(op.diag, op.offdiag, mass)
            A = (np.diag(op.diag) + np.diag(op.offdiag, 1) + np.diag(op.offdiag, -1))
            scale = 1.0 / np.sqrt(mass)
            dense = np.linalg.eigvalsh(A * scale[None, :] * scale[:, None])[0]
            assert mine == pytest.approx(dense, rel=1e-10)


@pytest.mark.parametrize(
    "massless",
    [slice(0, 40), slice(120, 150), slice(260, 299), [0, 1, 77, 78, 79, 200, 297, 298]],
    ids=["leading", "interior", "trailing", "mixed"],
)
def test_smallest_generalized_mu_massless_nodes_vs_dense_schur(massless):
    g = mh.Grid.uniform(-6.0, 6.0, 301)
    op = assemble_mode(mh.BumpField(flux=0.5), ZeroPotential(), 1, g)
    mass = mh.LogSquaredWeight().mass_density(g.t[1:-1]) * _lumps(g)
    mass[massless] = 0.0
    mine = smallest_generalized_mu(op.diag, op.offdiag, mass)
    # dense oracle: K_PP - K_PZ K_ZZ^{-1} K_ZP against the positive masses
    A = np.diag(op.diag) + np.diag(op.offdiag, 1) + np.diag(op.offdiag, -1)
    P, Z = mass > 0, mass == 0
    schur = A[np.ix_(P, P)] - A[np.ix_(P, Z)] @ np.linalg.solve(A[np.ix_(Z, Z)], A[np.ix_(Z, P)])
    scale = 1.0 / np.sqrt(mass[P])
    dense = np.linalg.eigvalsh(schur * scale[None, :] * scale[:, None])[0]
    assert mine == pytest.approx(dense, rel=1e-10)
    assert smallest_generalized_mu(op.diag, op.offdiag, np.zeros_like(mass)) == np.inf


def test_smallest_generalized_mu_one_node_and_no_mass():
    # scipy's dpttrf rejects the empty coupling of a 1 x 1 pencil
    assert smallest_generalized_mu(np.array([3.0]), np.array([]), np.array([1.0])) == 3.0
    assert smallest_generalized_mu(np.array([3.0]), np.array([]), np.array([0.0])) == np.inf
    assert smallest_generalized_mu(np.array([]), np.array([]), np.array([])) == np.inf


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("which", [0, 1, 2], ids=["kdiag", "off", "mass"])
def test_smallest_generalized_mu_rejects_non_finite_entries(which, bad):
    pencil = [np.full(5, 2.0), np.full(4, -1.0), np.ones(5)]
    pencil[which][1] = bad
    with pytest.raises(ValueError, match="must be finite"):
        smallest_generalized_mu(*pencil)


@pytest.mark.parametrize(
    "kdiag, mass, message",
    [
        # eigenvalues 2 - 2 cos(k pi / 6) - 1.5: the lowest is negative
        (np.full(5, 0.5), np.ones(5), "positive definite"),
        (np.full(5, 2.0), np.r_[1.0, -1.0, 1.0, 1.0, 1.0], "masses nonnegative"),
        # m x^2 = 1e-200 (1e-100)^2 underflows to 0: no finite Rayleigh bound
        (np.full(5, 2.0), np.full(5, 1e-200), "Rayleigh bound"),
    ],
    ids=["indefinite-K", "negative-mass", "underflow"],
)
def test_smallest_generalized_mu_rejects_pencils_outside_its_contract(kdiag, mass, message):
    with pytest.raises(ValueError, match=message):
        smallest_generalized_mu(kdiag, np.full(4, -1.0), mass)


@pytest.mark.parametrize("lam", [np.nan, np.inf, -np.inf, -1.0])
def test_per_mode_functions_reject_non_finite_or_negative_coupling(lam):
    # a NaN coupling once counted [0, 0, 0] and truncated at M = 0
    bump, well, g = mh.BumpField(0.5), mh.GaussianWell(), mh.Grid.uniform(-12.0, 3.0, 601)
    for call in (
        lambda: mh.assemble_mode(bump, well, 0, g, lam=lam),
        lambda: mh.count_modes(bump, well, [-1, 0, 1], g, lam=lam),
        lambda: mh.mode_truncation(bump, well, g, lam=lam),
        lambda: mh.phase_integral_counts(bump, well, [(10.0, [0]), (lam, [0])]),
    ):
        with pytest.raises(ValueError, match="coupling must be finite and nonnegative"):
            call()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("V", [mh.GaussianWell(1.0, 1.0), mh.VSigma(2.0)], ids=["gauss", "vsigma"])
def test_mode_functions_reject_non_finite_modes_before_any_work(monkeypatch, V, bad):
    # a NaN mode once gave a phase count of 3.889, NaN and infinite modes an
    # inertia count of 0 and a Pruefer StiffnessFailure
    def no_work(*args, **kwargs):
        raise AssertionError("work ran before the modes were checked")

    field, grid = mh.BumpField(0.5), mh.Grid.uniform(-8.0, 2.0, 101)
    for module, name in [
        (mh.spectral, "_mode_terms"),
        (mh.spectral, "_phase_panels"),
        (mh.spectral, "_direct_coordinate"),
        (mh.spectral, "_loglog_coordinate"),
        (_kernels, "prufer_sweep"),
        (type(field), "alpha"),
    ]:
        monkeypatch.setattr(module, name, no_work)
    for call in (
        lambda: mh.phase_integral_count(field, V, bad, 100.0),
        lambda: mh.phase_integral_count(field, V, [0, 1, bad], 100.0),
        lambda: mh.phase_integral_counts(field, V, [(10.0, [0]), (100.0, [1, bad])]),
        lambda: mh.count_modes(field, V, [bad], grid, 10.0),
        lambda: mh.count_modes(field, V, [0, 1, bad], grid, 10.0),
        lambda: mh.prufer_count(field, V, bad, (-8.0, 2.0), 10.0),
        lambda: mh.prufer_count(field, V, [0, bad], (-8.0, 2.0), 10.0),
        lambda: mh.assemble_mode(field, V, bad, grid, 10.0),
        lambda: mh.hardy_constant(field, mh.LogSquaredWeight(), grid, [0, bad]),
    ):
        with pytest.raises(ValueError, match="modes must be finite"):
            call()


def test_mode_functions_keep_non_integer_modes():
    field, V, grid = mh.BumpField(0.5), mh.GaussianWell(1.0, 1.0), mh.Grid.uniform(-8.0, 2.0, 401)
    half = mh.phase_integral_count(field, V, 0.5, 100.0)
    assert half > 0.0 and half == mh.phase_integral_count(field, V, [0.25, 0.5], 100.0)[1]
    assert mh.count_modes(field, V, [0.5], grid, 100.0) == [
        mh.count_negative(assemble_mode(field, V, 0.5, grid, 100.0))
    ]
    assert mh.prufer_count(field, V, 0.5, (-8.0, 2.0), 100.0) >= 1
    # hardy_constant keys its minima by the integer mode and rejects these
    # (tests/test_validation.py)


@pytest.mark.parametrize(
    "diag, off",
    [
        ([np.nan] * 5, [-1.0] * 4),
        ([2.0, np.inf, 2.0, 2.0, 2.0], [-1.0] * 4),
        ([2.0] * 5, [-1.0, np.nan, -1.0, -1.0]),
        ([2.0] * 5, [-1.0, -1.0, -np.inf, -1.0]),
    ],
    ids=["diag-nan", "diag-inf", "off-nan", "off-inf"],
)
def test_count_negative_rejects_non_finite_operator(diag, off):
    # an all-NaN diagonal once counted 0
    op = ModeOperator(0, np.array(diag), np.array(off))
    with pytest.raises(ValueError, match="mode operator entries must be finite"):
        mh.count_negative(op)


# infinite at the nodes with |t| < 0.5, zero elsewhere
_INFINITE_WELL = mh.profiles.CallablePotential(lambda t: np.where(np.abs(t) < 0.5, np.inf, 0.0))


def test_count_modes_rejects_non_finite_rows():
    # rows with a diagonal of -inf once counted [39] here, while count_negative
    # raised on the same rows
    field, grid = mh.BumpField(0.5), mh.Grid.uniform(-8.0, 2.0, 401)
    with pytest.raises(ValueError, match="mode operator entries must be finite"):
        count_modes(field, _INFINITE_WELL, [0], grid, 10.0)
    with pytest.raises(ValueError, match="mode operator entries must be finite"):
        mh.count_negative(assemble_mode(field, _INFINITE_WELL, 0, grid, 10.0))


@pytest.mark.parametrize("method", ["inertia", "prufer", "phase"])
def test_count_total_rejects_an_infinite_potential(method):
    # mode_truncation once ended every method with an OverflowError
    grid = mh.Grid.uniform(-8.0, 2.0, 401)
    with pytest.raises(DomainError, match=r"lam e\^\(2t\) V_\+ is not finite at t = -0\.4"):
        mh.count_total(mh.BumpField(0.5), _INFINITE_WELL, 10.0, grid, method)


def test_hardy_constant_rejects_negative_refinement_and_empty_modes():
    args = (mh.BumpField(0.5), mh.LogSquaredWeight(), mh.Grid.uniform(-8.0, 8.0, 101))
    # refine_levels=-1 once gave mu_star = inf and an empty history
    with pytest.raises(ValueError, match="refine_levels must be nonnegative"):
        mh.hardy_constant(*args, refine_levels=-1)
    with pytest.raises(ValueError, match="m_range must hold at least one mode"):
        mh.hardy_constant(*args, m_range=range(3, -2))
    # a generator of modes is read once
    est = mh.hardy_constant(*args, m_range=(m for m in (0, 1)), refine_levels=0)
    assert sorted(est.per_mode_minima) == [0, 1]


def test_hardy_zero_field_minimum_decays_with_domain():
    w = mh.LogSquaredWeight()
    mus = []
    for L, n in ((4.0, 401), (8.0, 801), (16.0, 1601)):
        est = mh.hardy_constant(
            mh.ZeroField(), w, mh.Grid.uniform(-L, L, n), m_range=range(-1, 2),
            refine_levels=0,
        )
        mus.append(est.mu_star)
    assert mus[0] > mus[1] > mus[2]


def test_hardy_aharonov_bohm_weight_equals_discrete_laplacian_eigenvalue():
    # mu = 1/2 gives the constant mass density 1/4; with no field, mode m's
    # matrix is the Dirichlet Laplacian plus m^2, against a uniform mass, so
    # each minimum is 4 [(4/h^2) sin^2(pi h / 16) + m^2] on [-4, 4]
    grid = mh.Grid.uniform(-4.0, 4.0, 101)
    h = 0.08
    est = mh.hardy_constant(mh.ZeroField(), mh.AharonovBohmWeight(0.5), grid, refine_levels=0)
    for m, mu in est.per_mode_minima.items():
        want = 4.0 * (4.0 / h**2 * np.sin(np.pi * h / 16.0) ** 2 + m * m)
        assert mu == pytest.approx(want, rel=1e-12)
    assert est.mu_star == est.per_mode_minima[0]
    # an integer flux has coefficient 0: every node is massless
    massless = mh.hardy_constant(mh.ZeroField(), mh.AharonovBohmWeight(1.0), grid, refine_levels=0)
    assert massless.mu_star == np.inf


def test_hardy_refinement_history_nonincreasing():
    est = mh.hardy_constant(
        mh.BumpField(flux=0.5),
        mh.LogSquaredWeight(),
        mh.Grid.uniform(-8.0, 8.0, 401),
        m_range=range(-2, 3),
        refine_levels=2,
    )
    history = [mu for _, mu in est.refinement_history]
    # the lumped-mass values rise like O(h^2) under refinement (0.39915180,
    # 0.39915527, 0.39915613); the 2e-4 slack covers that rise
    for a, b in zip(history[:-1], history[1:]):
        assert b <= a * (1.0 + 2e-4)
    assert est.mu_star > 0


def test_hardy_singular_field_witness():
    f = mh.LogPowerField(b0=1.0, gamma=1.2)
    t_eta = mh.select_eta_log(f)
    w = mh.FluxAugmentedWeight(field=f, t_eta=t_eta)
    g = mh.Grid.geometric(-1e8, -1e-2, 2000)
    est = mh.hardy_constant(f, w, g, m_range=range(-2, 3), refine_levels=1)
    assert est.mu_star > 0
    (n1, mu1), (n2, mu2) = est.refinement_history
    assert abs(mu2 - mu1) / mu1 < 0.05


def _hardy_constant_per_mode_loop(field, w, grid, m_range, refine_levels):
    """Reference: the per-mode Hardy loop, one ``assemble_mode`` call (zero
    potential) per mode and refinement level."""
    history, g = [], grid
    for level in range(refine_levels + 1):
        mass = w.mass_density(g.t[1:-1]) * _lumps(g)
        per_mode = {}
        for m in m_range:
            op = assemble_mode(field, ZeroPotential(), m, g)
            per_mode[int(m)] = smallest_generalized_mu(op.diag, op.offdiag, mass)
        mu_star = float(min(per_mode.values()))
        history.append((g.n, mu_star))
        if level < refine_levels:
            g = g.refine()
    return HardyEstimate(per_mode, mu_star, grid.meta(), tuple(history))


def _singular_hardy_case():
    f = mh.LogPowerField(b0=1.0, gamma=1.3)
    w = mh.FluxAugmentedWeight(field=f, t_eta=mh.select_eta_log(f))
    return f, w, mh.Grid.geometric(-1e8, -1e-2, 800)


@pytest.mark.parametrize(
    "case",
    [
        lambda: (mh.BumpField(0.5), mh.LogSquaredWeight(), mh.Grid.uniform(-8.0, 8.0, 401)),
        _singular_hardy_case,
        lambda: (mh.BumpField(0.5), mh.slow_log_weight(), mh.Grid.uniform(-8.0, 8.0, 401)),
    ],
    ids=["bump", "singular-flux-augmented", "slow-log"],
)
def test_hardy_constant_equals_per_mode_loop(case):
    # slow_log has zero weight mass for t < 2: such nodes stay allowed
    field, w, grid = case()
    est = mh.hardy_constant(field, w, grid, m_range=range(-3, 4), refine_levels=1)
    ref = _hardy_constant_per_mode_loop(field, w, grid, range(-3, 4), 1)
    assert est.as_dict() == ref.as_dict()


def _record_stages(monkeypatch):
    """The stages ``hardy_constant`` runs, in order: ("approach", n, warm)
    for each ``_approach``, warm when it has a start, and ("end", n) for
    each ``_least_failing_double``, n the pencil's size."""
    stages = []
    approach, end = mh.spectral._approach, mh.spectral._least_failing_double

    def spy_approach(pencil, start=None):
        stages.append(("approach", pencil[0].size, start is not None))
        return approach(pencil, start)

    def spy_end(pencil, lo, hi, rho):
        stages.append(("end", pencil[0].size))
        return end(pencil, lo, hi, rho)

    monkeypatch.setattr(mh.spectral, "_approach", spy_approach)
    monkeypatch.setattr(mh.spectral, "_least_failing_double", spy_end)
    return stages


# alpha = 1/2 exactly for t >= 1: flux 1 * (1 + 0) / 2 from the one cell [0, 1]
_HALF_FLUX = mh.CustomField(np.array([0.0, 1.0]), np.array([1.0, 0.0]), "regular")


@pytest.mark.parametrize(
    "case",
    [
        # modes -1 and 1 assemble equal matrices: a check at the other's minimum
        lambda: (mh.ZeroField(), mh.LogSquaredWeight(), mh.Grid.uniform(-8.0, 8.0, 201), (-1, 1), 1),
        lambda: (_HALF_FLUX, mh.LogSquaredWeight(), mh.Grid.uniform(1.0, 9.0, 201), (0, 1), 1),
        lambda: (mh.BumpField(0.5), mh.LogSquaredWeight(), mh.Grid.uniform(-8.0, 8.0, 201),
                 range(-3, 4), 2),
        # mu_best = inf: no check may form inf * 0
        lambda: (mh.BumpField(0.5), mh.CustomWeight(np.zeros_like), mh.Grid.uniform(-8.0, 8.0, 201),
                 range(-1, 2), 1),
        # one interior node: K - 3 M = 3 - 3 * 1 is an exact zero pivot
        lambda: (mh.ZeroField(), mh.CustomWeight(np.ones_like), mh.Grid.uniform(0.0, 2.0, 3),
                 (-1, 1), 1),
    ],
    ids=["mirror-modes", "half-flux-modes-0-1", "refine-2", "zero-mass", "one-node-zero-pivot"],
)
def test_hardy_coarse_levels_equal_per_mode_loop_on_edge_cases(case, monkeypatch):
    field, w, grid, modes, levels = case()
    ref = _hardy_constant_per_mode_loop(field, w, grid, modes, levels)
    grids = [grid]
    for _ in range(levels):
        grids.append(grids[-1].refine())
    # each level's per-mode minima, one per-mode solve each
    minima = [list(_hardy_constant_per_mode_loop(field, w, g, modes, 0).per_mode_minima.values())
              for g in grids]
    stages = _record_stages(monkeypatch)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        est = mh.hardy_constant(field, w, grid, m_range=modes, refine_levels=levels)
    assert [str(c.message) for c in caught] == []
    assert est.as_dict() == ref.as_dict()
    # every level approaches every mode, warm from the second level on; the
    # last level runs the end stage for every mode, a coarser one only for
    # the modes whose screening factorization fails: those that tie the
    # level's minimum.  A pencil with no mass runs neither stage.
    plan = []
    for k, (g, level) in enumerate(zip(grids, minima)):
        if min(level) < np.inf:
            ends = len(modes) if k == levels else level.count(min(level))
            plan += [("approach", g.n - 2, k > 0)] * len(modes) + [("end", g.n - 2)] * ends
    assert stages == plan
    if grid.n == 3:
        # the zero pivot makes the screen run the second mode's end stage
        assert [s[1] for s in stages if s[0] == "end"] == [1, 1, 3, 3]


def test_hardy_coarse_level_solves_a_mode_its_order_ranks_second(monkeypatch):
    # mode 1 is the lowest on the 201-node level (0.56951, mode 0 0.58099):
    # the Rayleigh quotients put it first, and every other screen passes
    field, w, grid = mh.BumpField(0.7), mh.LogSquaredWeight(), mh.Grid.uniform(-8.0, 8.0, 201)
    ref = _hardy_constant_per_mode_loop(field, w, grid, range(-3, 4), 1)
    stages = _record_stages(monkeypatch)
    assert mh.hardy_constant(field, w, grid, refine_levels=1).as_dict() == ref.as_dict()
    assert stages.count(("end", 199)) == 1
    # ranked behind mode 0 (a Rayleigh quotient above mode 0's), mode 1's
    # screen at mode 0's minimum must fail and run its end stage
    ti, off, stiff, lump = mh.spectral._mode_terms(grid)
    mass = w.mass_density(ti) * _lumps(grid)
    pencils = [(stiff + (m - field.alpha(ti)) ** 2 * lump, off, mass) for m in (0, 1)]
    solves = [(pencil, mh.spectral._approach(pencil)) for pencil in pencils]
    lo, hi, rho, x = solves[1][1]
    solves[1] = pencils[1], (lo, hi, 2.0 * solves[0][1][2], x)
    want = smallest_generalized_mu(*pencils[1])
    stages.clear()
    assert mh.spectral._least_minimum(solves) == want
    assert stages == [("end", 199), ("end", 199)]


def test_hardy_coarse_level_solves_only_modes_a_count_cannot_rule_out(monkeypatch):
    stages = _record_stages(monkeypatch)
    args = (mh.BumpField(0.5), mh.LogSquaredWeight(), mh.Grid.uniform(-8.0, 8.0, 401), range(-3, 4))
    mh.hardy_constant(*args, refine_levels=1)
    # both levels approach all 7 modes, the 799-node one from the 399-node
    # one's; the last level runs all 7 end stages, and without the screening
    # factorizations the 399-node level would run 7 too
    assert stages[:7] == [("approach", 399, False)] * 7
    assert stages[8:15] == [("approach", 799, True)] * 7
    assert stages.count(("end", 799)) == 7 and stages.count(("end", 399)) == 1
    stages.clear()
    mh.hardy_constant(*args, refine_levels=0)
    assert stages == [("approach", 399, False)] * 7 + [("end", 399)] * 7


@pytest.mark.parametrize(
    "density, t_bad",
    [
        (lambda t: -np.ones_like(t), -8.0 + 16.0 / 200),
        (lambda t: np.where(t > 0.0, np.nan, 1.0 / (1.0 + t * t)), 16.0 / 200),
    ],
    ids=["negative", "nan-half"],
)
def test_hardy_constant_rejects_negative_or_nan_weight_mass(density, t_bad):
    # once read as massless and eliminated: mu_star = inf for the negative
    # weight, and 0.5407 from the t < 0 half alone for the NaN one
    grid = mh.Grid.uniform(-8.0, 8.0, 201)
    with pytest.raises(DomainError, match=f"negative or NaN at t = {t_bad!r}"):
        mh.hardy_constant(mh.BumpField(0.5), mh.CustomWeight(density), grid, range(-1, 2))


def test_hardy_constant_rejects_infinite_weight_mass():
    # once mu_star = 0.0 for every mode, with two RuntimeWarnings from inf * 0
    w = mh.CustomWeight(lambda t: np.where(t == 0, np.inf, 1.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="infinite, negative or NaN at t = 0.0"):
            mh.hardy_constant(mh.BumpField(0.5), w, mh.Grid.uniform(-8, 8, 801), range(-1, 2), 1)


def _count_factorizations(monkeypatch):
    """Counts of the LAPACK calls on the pencil: "dpttrf" (LDL^T
    factorizations) and "dpttrs" (solves with one), "rows" (the summed
    sizes of both), the factorizations made "in stages" (inside
    ``_approach`` or ``_least_failing_double``) and the "end stages" run."""
    lapack = mh.spectral._lapack()
    calls = {"dpttrf": 0, "dpttrs": 0, "rows": 0, "in stages": 0, "end stages": 0}
    depth = [0]

    def counted(name):
        routine = getattr(lapack, name)

        def call(*args, **kwargs):
            calls[name] += 1
            calls["rows"] += len(args[0])
            calls["in stages"] += name == "dpttrf" and depth[0] > 0
            return routine(*args, **kwargs)

        monkeypatch.setattr(lapack, name, call)

    def staged(name):
        stage = getattr(mh.spectral, name)

        def call(*args):
            calls["end stages"] += name == "_least_failing_double"
            depth[0] += 1
            try:
                return stage(*args)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(mh.spectral, name, call)

    counted("dpttrf")
    counted("dpttrs")
    staged("_approach")
    staged("_least_failing_double")
    return calls


def _benchmark_hardy_problem(name):
    """A problem of the hardy benchmark, on the grid it refines once: the
    bump at L = 16 (1601 nodes, 3201 refined) and the singular problem
    (3000 nodes, 5999 refined)."""
    if name == "bump":
        return mh.BumpField(0.5), mh.LogSquaredWeight(), mh.Grid.uniform(-16.0, 16.0, 1601)
    return (*_singular_hardy_case()[:2], mh.Grid.geometric(-1e8, -1e-2, 3000))


@pytest.mark.parametrize("problem, cap", [("bump", 160), ("singular", 245)], ids=["bump-3199", "singular-5997"])
def test_hardy_solve_cost_in_factorizations(problem, cap, monkeypatch):
    # a solve bisects a bracket within 2x of mu to 3%, iterates on the
    # factorization at its lower end, gallops from the Rayleigh quotient to
    # a bracket of a few hundred ulps and bisects it to adjacent doubles,
    # mostly without factoring (150 and 235 calls, at most 42 dpttrf in a
    # solve).  Singular modes 0 and +-1 have a second
    # eigenvalue 1.8e-10 and about 2e-3 above mu (relative): the iteration
    # stalls there until more halvings bring its shift closer
    field, w, grid = _benchmark_hardy_problem(problem)
    grid = grid.refine()
    calls = _count_factorizations(monkeypatch)
    mass = w.mass_density(grid.t[1:-1]) * _lumps(grid)
    for m in range(-3, 4):
        op = assemble_mode(field, ZeroPotential(), m, grid)
        before = dict(calls)
        mh.spectral.smallest_generalized_mu(op.diag, op.offdiag, mass)
        factorizations, solves = (calls[k] - before[k] for k in ("dpttrf", "dpttrs"))
        assert factorizations <= 46 and solves <= 16, (m, factorizations, solves)
    assert calls["dpttrf"] + calls["dpttrs"] <= cap, calls


def _assert_least_failing_double(kdiag, off, mass, mu):
    """mu is the least double at which LAPACK's dpttrf fails to factor
    K - mu M: it fails at mu and succeeds at the next double below."""
    off = off if off.size else np.zeros(1)
    assert scipy_lapack.dpttrf(kdiag - mu * mass, off)[2] != 0, mu
    assert scipy_lapack.dpttrf(kdiag - np.nextafter(mu, 0.0) * mass, off)[2] == 0, mu


@pytest.mark.parametrize("problem", ["bump", "singular"])
def test_hardy_minima_are_exact_dpttrf_thresholds_at_benchmark_size(problem):
    # at n = 3199 the minima can lie 1.5e-12 from a 40-digit bisection of
    # the same pencil; the factorization test holds with no tolerance
    field, w, grid = _benchmark_hardy_problem(problem)
    est = mh.hardy_constant(field, w, grid, range(-3, 4), refine_levels=1)
    fine = grid.refine()
    mass = w.mass_density(fine.t[1:-1]) * _lumps(fine)
    for m, mu in est.per_mode_minima.items():
        op = assemble_mode(field, ZeroPotential(), m, fine)
        _assert_least_failing_double(op.diag, op.offdiag, mass, mu)


@st.composite
def _pencils(draw):
    """A small diagonally dominant K and a mass M >= 0 with some zeros and
    at least one positive entry."""
    n = draw(st.integers(1, 24))
    values = lambda lo, hi: np.array(draw(st.lists(st.floats(lo, hi), min_size=n, max_size=n)))
    off = -values(0.01, 10.0)[:-1]
    kdiag = np.r_[0.0, -off] + np.r_[-off, 0.0] + values(1e-3, 10.0)
    mass = values(1e-3, 1e3) * np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    mass[draw(st.integers(0, n - 1))] = draw(st.floats(1e-3, 1e3))
    return kdiag, off, mass


@settings(max_examples=60, deadline=None)
@given(_pencils())
def test_smallest_generalized_mu_is_the_least_failing_double(pencil):
    _assert_least_failing_double(*pencil, smallest_generalized_mu(*pencil))


@cache
def _bump_pencil():
    """The benchmark bump's m = 0 pencil on its refined grid (3199 nodes)."""
    field, w, grid = _benchmark_hardy_problem("bump")
    grid = grid.refine()
    op = assemble_mode(field, ZeroPotential(), 0, grid)
    return op.diag, op.offdiag, w.mass_density(grid.t[1:-1]) * _lumps(grid)


@st.composite
def _end_stages(draw):
    """A pencil, small or the bump's, a bracket [lo, hi] about its threshold
    mu, and an estimate rho: inside the bracket, within 5000 ulps of mu,
    outside the bracket, at either end, or NaN."""
    pencil = draw(st.one_of(_pencils(), st.just(_bump_pencil())))
    mu = smallest_generalized_mu(*pencil)
    lo = min(mu * draw(st.floats(0.0, 1.0)), np.nextafter(mu, 0.0))
    hi = mu * draw(st.floats(1.0, 2.0))
    rho = draw(
        st.one_of(
            st.floats(lo, hi),
            st.integers(-5000, 5000).map(lambda k: mu + k * np.spacing(mu)),
            st.floats(-1.0, lo),
            st.floats(hi, 2.0 * hi + 1.0),
            st.sampled_from([lo, hi, np.nan]),
        )
    )
    return pencil, lo, hi, rho


@settings(max_examples=80, deadline=None)
@given(_end_stages())
def test_end_stage_returns_the_bisections_double(case):
    pencil, lo, hi, rho = case
    assert _factor(*pencil, lo) is not None and _factor(*pencil, hi) is None
    assert _least_failing_double(pencil, lo, hi, rho) == _bisect(pencil, lo, hi, None, 0.0)[1]


def test_end_stage_settles_midpoints_an_end_decides(monkeypatch):
    # at n = 3199 a shift moves the diagonal in the last bits of a few rows
    # only, so many midpoints near mu repeat an end's diagonal exactly: from
    # the wider bracket the lower end's (6 of 48), from the narrower the
    # upper end's (8 of 43)
    pencil = _bump_pencil()
    mu = smallest_generalized_mu(*pencil)
    calls = _count_factorizations(monkeypatch)
    for lo, hi in [(0.97 * mu, 1.03 * mu), (0.999 * mu, 1.001 * mu)]:
        before = calls["dpttrf"]
        assert _bisect(pencil, lo, hi, None, 0.0)[1] == mu
        halvings = calls["dpttrf"] - before
        assert _least_failing_double(pencil, lo, hi, np.nan) == mu
        settled = 2 * halvings - (calls["dpttrf"] - before)
        assert settled >= 4, (lo, halvings, settled)
    # a rho 200 ulps off: one factorization at rho, a short gallop, and a
    # bisection of a few hundred ulps
    before = calls["dpttrf"]
    assert _least_failing_double(pencil, 0.97 * mu, 1.03 * mu, mu + 200 * np.spacing(mu)) == mu
    assert calls["dpttrf"] - before <= 6, calls["dpttrf"] - before


def test_hardy_coarse_level_screens_a_mode_with_one_factorization(monkeypatch):
    calls = _count_factorizations(monkeypatch)
    args = (mh.BumpField(0.5), mh.LogSquaredWeight(), mh.Grid.uniform(-8.0, 8.0, 401), range(-3, 4))
    mh.hardy_constant(*args, refine_levels=1)
    # 7 end stages on the last level; of the 7 coarse modes, the first runs
    # its end stage and each other one runs it or is screened out, by one
    # factorization outside the stages
    screened = 14 - calls["end stages"]
    assert screened >= 5 and calls["dpttrf"] - calls["in stages"] == screened


@pytest.mark.parametrize("problem, cap", [("bump", 395_000), ("singular", 1_250_000)])
def test_hardy_constant_cost_in_lapack_rows(problem, cap, monkeypatch):
    # rows swept by dpttrf and dpttrs in one two-level call: 387027 (bump)
    # and 1223306 (singular), against 523023 and 1604165 when each fine
    # mode started cold
    calls = _count_factorizations(monkeypatch)
    mh.hardy_constant(*_benchmark_hardy_problem(problem), range(-3, 4), refine_levels=1)
    assert calls["rows"] <= cap, calls


def test_hardy_finer_level_starts_from_the_coarser_vector_in_t(monkeypatch):
    # on a geometric grid: each 1597-node mode starts from the 798-node
    # mode's Rayleigh quotient and vector, interpolated in t with zero ends
    field, w, grid = _singular_hardy_case()
    approach, seen = mh.spectral._approach, []

    def spy(pencil, start=None):
        found = approach(pencil, start)
        seen.append((start, found))
        return found

    monkeypatch.setattr(mh.spectral, "_approach", spy)
    mh.hardy_constant(field, w, grid, range(-3, 4), refine_levels=1)
    fine_t = grid.refine().t[1:-1]
    for (start, (_, _, rho, x)), (fine_start, _) in zip(seen[:7], seen[7:]):
        assert start is None and fine_start[0] == rho
        np.testing.assert_array_equal(fine_start[1], np.interp(fine_t, grid.t, np.r_[0.0, x, 0.0]))


@st.composite
def _warm_starts(draw):
    """A pencil, small or the bump's, its cold minimum mu and a start (rho0,
    x0): rho0 above mu, far below it, at it, 0 or subnormal, and x0 of
    random signs, all zeros, constant, or so large that its iteration
    overflows to NaN."""
    pencil = draw(st.one_of(_pencils(), st.just(_bump_pencil())))
    mu = smallest_generalized_mu(*pencil)
    rho = draw(
        st.one_of(
            st.floats(1.0, 8.0).map(lambda f: f * mu),
            st.floats(1e-12, 0.5).map(lambda f: f * mu),
            st.sampled_from([mu, 0.0, 5e-324, 1e-310]),
        )
    )
    n = pencil[0].size
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = draw(st.sampled_from([rng.standard_normal(n), np.zeros(n), np.ones(n), np.full(n, 1e200)]))
    return pencil, mu, (rho, x)


def _assert_warm_start_gives(pencil, mu, start):
    """The approach from ``start`` holds its contract, and with the end
    stage gives mu, the least double at which dpttrf fails."""
    lo, hi, rho, x = mh.spectral._approach(pencil, start)
    # lo passes; hi fails, or is inf and rho lies above lo for the end stage
    assert _factor(*pencil, lo) is not None
    assert (hi == np.inf and lo < rho) or _factor(*pencil, hi) is None
    # the iteration converged, unless the bracket is two adjacent doubles
    assert abs(rho - mu) <= 1e-9 * mu or hi == np.nextafter(lo, np.inf), (lo, hi, rho, mu)
    found = _least_failing_double(pencil, lo, hi, rho)
    assert found == mu
    _assert_least_failing_double(*pencil, found)


_OVERFLOWS = pytest.mark.filterwarnings(
    "ignore:overflow:RuntimeWarning", "ignore:invalid value:RuntimeWarning"
)


@_OVERFLOWS
@settings(max_examples=80, deadline=None)
@given(_warm_starts())
def test_warm_approach_and_end_stage_return_the_cold_minimum(case):
    _assert_warm_start_gives(*case)


@cache
def _singular_m0_pencil():
    """The benchmark singular problem's m = 0 pencil on its refined grid
    (5997 nodes), whose lowest eigenvalues lie 2.3e-11 apart (relative)."""
    field, w, grid = _benchmark_hardy_problem("singular")
    grid = grid.refine()
    op = assemble_mode(field, ZeroPotential(), 0, grid)
    return op.diag, op.offdiag, w.mass_density(grid.t[1:-1]) * _lumps(grid)


_RHO0 = [
    pytest.param(lambda mu: 3.0 * mu, id="above"),
    pytest.param(lambda mu: 1e-6 * mu, id="far-below"),
    pytest.param(lambda mu: mu, id="at"),
    pytest.param(lambda mu: 0.0, id="zero"),
    pytest.param(lambda mu: 5e-324, id="subnormal"),
]


@_OVERFLOWS
@pytest.mark.parametrize("x0", ["signs", "zeros", "ones", "huge"])
@pytest.mark.parametrize("rho0", _RHO0)
@pytest.mark.parametrize("pencil", [_bump_pencil, _singular_m0_pencil], ids=["bump", "singular-m0"])
def test_warm_approach_from_each_kind_of_start(pencil, rho0, x0):
    # every kind of start on two benchmark pencils, whatever hypothesis
    # draws; from far below, the singular cluster stalls the iteration
    pencil = pencil()
    mu, n = smallest_generalized_mu(*pencil), pencil[0].size
    x = {"signs": np.random.default_rng(5).standard_normal(n), "zeros": np.zeros(n),
         "ones": np.ones(n), "huge": np.full(n, 1e200)}[x0]
    _assert_warm_start_gives(pencil, mu, (rho0(mu), x))


# ---------------------------------------------------------------------------
# Pruefer and phase-integral methods
# ---------------------------------------------------------------------------


def test_prufer_zero_potential_no_nodes():
    assert mh.prufer_count(mh.ZeroField(), ZeroPotential(), 0, (-6.0, 2.0)) == 0
    assert mh.prufer_count(mh.BumpField(flux=0.5), ZeroPotential(), 1, (-6.0, 2.0)) == 0


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"lam": np.nan}, "coupling must be finite and nonnegative"),
        ({"lam": np.inf}, "coupling must be finite and nonnegative"),
        ({"lam": -1.0}, "coupling must be finite and nonnegative"),
        ({"t_range": (-np.inf, 2.0)}, "t_range must have finite ends"),
        ({"t_range": (-8.0, np.inf)}, "t_range must have finite ends"),
        ({"t_range": (-1e308, 1e308)}, "t_range must have finite ends"),
        ({"t_range": (2.0, -8.0)}, "t_range must be increasing"),
        ({"t_range": (np.nan, 2.0)}, "t_range must be increasing"),
    ],
    ids=[
        "lam-nan", "lam-inf", "lam-negative", "t-min-inf", "t-max-inf", "span-overflows",
        "t-decreasing", "t-nan",
    ],
)
def test_prufer_count_rejects_bad_input_before_sweeping(monkeypatch, kwargs, message):
    # an infinite span once hung the sweep
    def no_sweep(*args):
        raise AssertionError("the sweep ran")

    monkeypatch.setattr(_kernels, "prufer_sweep", no_sweep)
    args = {"t_range": (-8.0, 2.0), **kwargs}
    with pytest.raises(ValueError, match=message):
        mh.prufer_count(mh.ZeroField(), mh.GaussianWell(), 0, **args)


def test_prufer_count_raises_when_its_step_underflows():
    # Q = -1e200 turns theta faster than any step above span * 1e-12 can follow
    V = mh.profiles.CallablePotential(lambda t: np.full_like(t, 1e200))
    with pytest.raises(StiffnessFailure, match="underflowed its step size"):
        mh.prufer_count(mh.ZeroField(), V, 0, (0.0, 1.0))


def test_prufer_count_of_modes_equals_one_mode_sweeps(monkeypatch):
    # the coefficient table is sampled once for every mode, and each mode's
    # theta is the sweep of its own (m - alpha)^2 - lam e^{2t} V, to the bit
    field, V, lam, span = mh.BumpField(0.5), mh.GaussianWell(1.3, 0.8), 150.0, (-12.0, 3.0)
    modes = [-4, 0, 2, 2, 7]
    tq = np.linspace(*span, 8192)
    want = []
    for m in modes:
        theta, fail = _kernels.prufer_sweep(
            tq, (m - field.alpha(tq)) ** 2 - lam * V.e2t_v(tq), *span, 1e-6, 15.0 / 1024.0, 15.0e-12
        )
        assert not fail
        want.append(int(np.floor(theta / np.pi)))
    samples = []
    e2t_v = type(V).e2t_v
    monkeypatch.setattr(
        type(V), "e2t_v", lambda self, t: samples.append(np.size(t)) or e2t_v(self, t)
    )
    got = mh.prufer_count(field, V, modes, span, lam)
    assert got == want and samples == [8192]
    assert [mh.prufer_count(field, V, m, span, lam) for m in modes] == want


def test_prufer_matches_inertia_step_well():
    # depth tuned for ~5 bound states in the m=0 channel
    V = mh.StepWell(depth=260.0, radius=1.0)
    g = mh.Grid.uniform(-8.0, 2.0, 4001)
    ni = mh.count_negative(assemble_mode(mh.ZeroField(), V, 0, g))
    npr = mh.prufer_count(mh.ZeroField(), V, 0, (-8.0, 2.0))
    assert ni >= 5
    assert abs(ni - npr) <= 1


def test_prufer_matches_inertia_borderline_potential():
    V = mh.VSigma(sigma=2.0)
    bump = mh.BumpField(flux=0.5)
    g = mh.Grid.auto(-400.0, 0.5, 6000)
    for m in (0, 1, -1):
        ni = mh.count_negative(assemble_mode(bump, V, m, g, lam=20.0))
        npr = mh.prufer_count(bump, V, m, (g.t_min, g.t_max), lam=20.0)
        assert abs(ni - npr) <= 1


def test_phase_integral_step_well_closed_form():
    # zero field, critical shift off: int sqrt(lam D e^{2t} - m^2) dt has the
    # elementary antiderivative g - sqrt(b) atan(g/sqrt(b)), g = sqrt(a e^{2t} - b)
    lam, D = 7.0, 3.0
    V = mh.StepWell(depth=D, radius=1.0)

    def closed_form(m):
        a = lam * D
        b = float(m * m)
        if b == 0.0:
            return np.sqrt(a) / np.pi  # int_{-inf}^0 sqrt(a) e^t dt
        if a <= b:
            return 0.0
        g1 = np.sqrt(a - b)
        return (g1 - np.sqrt(b) * np.arctan(g1 / np.sqrt(b))) / np.pi

    for m in (0, 1, 2):
        got = mh.phase_integral_count(
            mh.ZeroField(), V, m, lam, critical_shift=False
        )
        assert got == pytest.approx(closed_form(m), rel=1e-6)


def test_phase_integral_threshold_for_borderline_potential():
    bump = mh.BumpField(flux=0.5)
    V = mh.VSigma(sigma=2.0)
    # the m=0 channel opens once lam (log 2)^{-1/2}... exceeds the 1/4 barrier
    assert mh.phase_integral_count(bump, V, 0, 0.15) == 0.0
    assert mh.phase_integral_count(bump, V, 0, 0.5) > 0.0


@pytest.mark.parametrize(
    "V, lam, kw",
    [
        (mh.VSigma(sigma=2.0), 300.0, {}),
        (mh.VSigma(sigma=1.5), 40.0, {"t_domain": (-50.0, 1.0)}),
        (mh.VSigma(sigma=2.0), 300.0, {"t_domain": (-1.5, 1.0)}),  # t_min >= -2
        (mh.VSigma(sigma=2.0), 0.05, {}),  # s-range empty below the barrier
        (
            mh.ScaledPotential(mh.VSigma(sigma=2.0), 3.0),
            100.0,
            {"critical_shift": False, "t_domain": (-1e6, 0.0)},
        ),
        (mh.GaussianWell(depth=2.0, width=0.8), 60.0, {}),
        (mh.StepWell(3.0, 1.0), 7.0, {"critical_shift": False}),
        (mh.VSigma(sigma=3.0), 1e3, {}),
    ],
)
def test_phase_integral_mode_sequence_equals_single_modes(V, lam, kw):
    bump = mh.BumpField(flux=0.5)
    modes = list(range(-6, 7))
    many = mh.phase_integral_count(bump, V, modes, lam, **kw)
    single = [mh.phase_integral_count(bump, V, m, lam, **kw) for m in modes]
    assert isinstance(many, list) and len(many) == len(modes)
    assert many == single  # exact, not approximate
    assert isinstance(single[0], float)


def test_phase_integral_quadratic_growth():
    bump = mh.BumpField(flux=0.5)
    V = mh.VSigma(sigma=2.0)
    for lam in (100.0, 1000.0):
        n = mh.phase_integral_count(bump, V, 0, lam)
        assert n / lam**2 == pytest.approx(2.0, rel=0.01)


def test_phase_probe_ends_at_the_support_edge(monkeypatch):
    # past the jump of the step the radicand is negative: a probe that ran on
    # to t = 1 bracketed the jump once per open mode, and those brackets
    # took 66 evaluations against 7 for a Gaussian well.  A t_domain that
    # reaches past the edge is cut there too: uncut, its probe made 780
    # evaluated points against 42
    roots, evals = mh.spectral._roots, []

    def counted(w_neg, *args):
        evals.append(0)

        def counted_w_neg(x):
            evals[-1] += 1
            return w_neg(x)

        return roots(counted_w_neg, *args)

    monkeypatch.setattr(mh.spectral, "_roots", counted)
    args = (mh.BumpField(0.5), mh.StepWell(2.0, 0.5), range(-3, 4), 50.0)
    counts = mh.phase_integral_count(*args, critical_shift=False)
    assert any(counts) and evals and max(evals) <= 12
    uncut, evals[:] = list(evals), []
    assert mh.phase_integral_count(*args, critical_shift=False, t_domain=(-60.0, 5.0)) == counts
    assert evals == uncut


def test_phase_jobs_integrate_only_their_own_turning_points():
    # in both jobs m = 0 has turning points; a bracket mask one row too wide
    # let the first job integrate the second job's m = 0 as well, which then
    # read 15.75 instead of 7.876
    field, V = mh.BumpField(0.5), mh.GaussianWell(1.0, 1.0)
    jobs = [(200.0, [0, 1]), (400.0, [0, 1])]
    want = [mh.phase_integral_count(field, V, modes, lam) for lam, modes in jobs]
    assert mh.phase_integral_counts(field, V, jobs) == want


def test_phase_integral_borderline_without_shift_needs_a_t_domain():
    with pytest.raises(ValueError, match="needs a finite t-domain"):
        mh.phase_integral_count(mh.BumpField(0.5), mh.VSigma(2.0), 0, 10.0, critical_shift=False)


def _phase_direct_reference(field, V, m, lam, critical_shift=True, t_domain=None):
    """One mode of the direct phase integral by scalar brentq and quad: the
    probe, the break rule and the integrand of the batched path, solved
    independently."""
    from scipy import integrate, optimize

    sup = V.support_t_max
    if t_domain is None:
        t_lo, t_hi = -60.0, (2.0 if sup is None else sup)
    else:
        t_lo, t_hi = float(min(t_domain)), float(max(t_domain))
    # the probe ends at the support edge, past which the radicand is at most 0
    if sup is not None:
        t_hi = min(t_hi, sup)
    if t_hi <= t_lo:
        return 0.0

    def w_neg(t):
        t = np.asarray(t, dtype=float)
        barrier = 1.0 / (4.0 * (1.0 + t * t)) if critical_shift else 0.0
        return lam * V.e2t_v(t) - (m - field.alpha(t)) ** 2 - barrier

    probe = np.linspace(t_lo, t_hi, 4001)
    vals = w_neg(probe)
    if np.all(vals <= 0):
        return 0.0
    sign = vals > 0
    breaks = {t_lo, t_hi}
    for i in range(len(probe) - 1):
        if sign[i] != sign[i + 1]:
            breaks.add(float(optimize.brentq(lambda x: float(w_neg(x)), probe[i], probe[i + 1])))
    breaks.update(float(k) for k in field.kinks if t_lo < k < t_hi)
    pts = sorted(breaks)
    total = 0.0
    for a, b in zip(pts[:-1], pts[1:]):
        if w_neg(0.5 * (a + b)) <= 0:
            continue
        total += integrate.quad(
            lambda x: float(np.sqrt(max(w_neg(x), 0.0))), a, b,
            epsabs=1e-12, epsrel=1e-10, limit=300,
        )[0]
    return total / np.pi


@pytest.mark.parametrize(
    "field, V, lam, modes, kw",
    [
        # the count workload's ladder: lam depth width^2 = 1e2, 1e3, 1e4
        (mh.BumpField(flux=0.5), mh.GaussianWell(1.0, 0.8), 1e2 / 0.64, range(-10, 11), {}),
        (mh.BumpField(flux=0.5), mh.GaussianWell(1.0, 0.8), 1e3 / 0.64, range(-32, 33, 3), {}),
        (mh.BumpField(flux=0.5), mh.GaussianWell(1.0, 0.8), 1e4 / 0.64, range(-99, 100, 9), {}),
        (mh.ZeroField(), mh.StepWell(3.0, 1.0), 7.0, range(-5, 6), {"critical_shift": False}),
        (mh.ZeroField(), mh.StepWell(3.0, 1.0), 7.0, range(-5, 6), {}),
        (
            mh.BumpField(flux=0.5), mh.StepWell(3.0, 1.0), 40.0, range(-12, 13),
            {"t_domain": (-8, 2)},
        ),
    ],
    ids=["gauss1e2", "gauss1e3", "gauss1e4", "step-noshift", "step-shift", "step-domain"],
)
def test_phase_integral_matches_quad_reference(field, V, lam, modes, kw):
    modes = list(modes)
    got = mh.phase_integral_count(field, V, modes, lam, **kw)
    want = [_phase_direct_reference(field, V, m, lam, **kw) for m in modes]
    assert any(want) and not all(want)  # open and closed modes both checked
    assert got == pytest.approx(want, rel=1e-9)


def test_phase_integral_non_finite_potential_raises():
    # +inf on a band inside the open region: quad would integrate it to inf
    band = mh.profiles.CallablePotential(
        density=lambda t: np.where(np.abs(t + 1.0) < 0.3, np.inf, np.exp(2.0 * t))
    )
    with pytest.raises(DomainError, match="not finite"):
        mh.phase_integral_count(mh.ZeroField(), band, 0, 50.0)


@pytest.mark.parametrize("lam", [np.nan, np.inf, -np.inf, -1.0])
@pytest.mark.parametrize("V", [mh.GaussianWell(), mh.VSigma(2.0)], ids=["gauss", "vsigma"])
def test_phase_integral_rejects_non_finite_or_negative_coupling(V, lam):
    # a NaN coupling once blamed a missing critical shift
    with pytest.raises(ValueError, match="coupling must be finite and nonnegative"):
        mh.phase_integral_count(mh.BumpField(0.5), V, [0, 1], lam)


def _per_mode_panels(edges, edge_mode, open_modes, fixed):
    """``_mode_panels`` mode by mode: its one-mode case."""
    mine = [edge_mode == k for k in open_modes]
    panels = [_mode_panels(edges[m], edge_mode[m], [k], fixed) for m, k in zip(mine, open_modes)]
    return tuple(np.concatenate(c) for c in zip(*panels))


# a few shared values make repeated edges and fixed points equal to edges common
_PANEL_POINTS = st.one_of(st.sampled_from([-3.0, -1.5, 0.0, 0.25, 2.0]), st.floats(-5.0, 5.0))


@st.composite
def _panel_inputs(draw):
    """Edges of open modes, some of them with no bracket, in any order, and
    at least one fixed point, repeats included."""
    n_modes = draw(st.integers(1, 6))
    open_modes = sorted(draw(st.sets(st.integers(0, n_modes - 1), min_size=1)))
    edges, edge_mode = [], []
    for k in open_modes:
        xs = draw(st.lists(_PANEL_POINTS, max_size=6))
        edges += xs
        edge_mode += [k] * len(xs)
    order = draw(st.permutations(range(len(edges))))
    # the span's two ends are always among the fixed points; one is enough here
    fixed = draw(st.lists(_PANEL_POINTS, min_size=1, max_size=4))
    return (
        np.array(edges, dtype=float)[order],
        np.array(edge_mode, dtype=np.int64)[order],
        open_modes,
        np.array(fixed, dtype=float),
    )


@settings(max_examples=300, deadline=None)
@given(_panel_inputs())
def test_mode_panels_equal_per_mode_unique(inputs):
    got, want = _mode_panels(*inputs), _per_mode_panels(*inputs)
    # equal as numbers: of a -0.0 and a 0.0 either may be kept, by either
    # method, and the panel sums are the same with both
    for g, w in zip(got, want):
        assert g.dtype == w.dtype
        assert np.array_equal(g, w)


def _per_mode_brackets(probe, terms, modes):
    """``_mode_brackets`` mode by mode: its one-mode case, whose runs are at
    most one position long."""
    none = np.zeros(0, np.int64)
    brackets, open_k = [(probe[:0], probe[:0], probe[:0], probe[:0], none)], [none]
    for k, m in enumerate(modes):
        (*ends, one), open_one = _mode_brackets(probe, terms, [m])
        brackets.append((*ends, one + k))
        open_k.append(open_one + k)
    return tuple(np.concatenate(c) for c in zip(*brackets)), np.concatenate(open_k)


def _assert_brackets_equal(probe, terms, modes):
    (got, got_open), (want, want_open) = (
        _mode_brackets(probe, terms, modes),
        _per_mode_brackets(probe, terms, modes),
    )
    for g, w in zip((*got, got_open), (*want, want_open)):
        assert g.dtype == w.dtype
        assert np.array_equal(g, w)


@st.composite
def _scan_inputs(draw):
    """A probe's terms (well, alpha, g, barrier) and a mode list: unsorted,
    sparse, repeated and non-integer modes; nodes with well <= barrier, with
    g = inf (s beyond 709 in s = log|t|), with alpha on a mode, and with a
    radicand exactly 0 for one of the modes.  Built with numpy from one drawn
    seed: hypothesis's own draws cost more than the scan they feed."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def quarters(size):
        # integral and half-integral values make am == 0 and exact zeros common
        return rng.integers(-24, 25, size) / 4.0

    def floats(lo, hi, size):
        # uniform, with the range's ends and 0.0 mixed in
        x = rng.uniform(lo, hi, size)
        ends = rng.random(size) < 0.1
        x[ends] = rng.choice([lo, hi, 0.0], ends.sum())
        return x

    k = int(rng.integers(0, 13))
    kind = rng.integers(0, 3, k)
    values = np.choose(kind, [rng.integers(-8, 9, k), quarters(k), floats(-8.0, 8.0, k)])
    modes = [int(v) if c == 0 else float(v) for c, v in zip(kind, values)]
    n = int(rng.integers(2, 17))
    kind = rng.choice(["free", "free", "closed", "g-inf", "zero"], n)
    alpha = np.where(rng.random(n) < 0.5, quarters(n), floats(-9.0, 9.0, n))
    barrier = rng.choice([0.0, 0.25, 0.125], n)
    g = rng.choice([1.0, 1.0, 0.5, 3.0, 1e200], n)
    well = np.where(rng.random(n) < 0.5, floats(-5.0, 80.0, n), np.where(rng.random(n) < 0.5, 1e300, barrier))
    closed = kind == "closed"
    well[closed] = barrier[closed] - floats(0.0, 5.0, n)[closed]
    g[kind == "g-inf"] = np.inf
    if modes:
        # dyadic values: (m - alpha)^2 + barrier and the radicand are exact
        zero = kind == "zero"
        alpha[zero], g[zero] = quarters(n)[zero], 1.0
        well[zero] = (rng.choice(np.array(modes, dtype=float), n)[zero] - alpha[zero]) ** 2 + barrier[zero]
    terms = [well, alpha, g, barrier]
    # the direct coordinate passes g = 1 and a zero barrier as scalars
    if rng.random() < 0.5:
        terms[2] = 1.0
    if rng.random() < 0.5:
        terms[3] = 0.0
    probe = np.linspace(-3.0, 5.0, n)
    return probe, tuple(terms), modes


@settings(max_examples=300, deadline=None)
@given(_scan_inputs())
def test_mode_runs_equal_per_mode_scan(inputs):
    _assert_brackets_equal(*inputs)


def test_mode_runs_settle_guesses_many_positions_off():
    # modes an ulp apart: the float guess of a run's end lands several
    # positions off and is walked to the exact end
    modes = [1.0 + k * 2.0**-52 for k in range(40)][::-1]
    probe = np.linspace(0.0, 1.0, 7)
    alpha = np.zeros(7)
    well = 1.0 + np.array([-4, -1, 0, 1, 5, 17, 39]) * 2.0**-51
    _assert_brackets_equal(probe, (well, alpha, 1.0, 0.0), modes)


def test_mode_runs_evaluate_a_fixed_number_of_probe_rows(monkeypatch):
    # the count workload's Gaussian well at lam depth width^2 = 1e4: 200 modes
    # cost the scan no more probe-length radicand passes than 5 modes
    field, V, lam = mh.BumpField(flux=0.5), mh.GaussianWell(1.0, 0.8), 1e4 / 0.64
    terms, span = mh.spectral._direct_coordinate(field, V, True, None)
    probe, _ = span(lam)
    shared = terms(probe, lam)
    radicand = mh.spectral._radicand
    for modes in (range(-2, 3), range(-100, 100)):
        sizes = []

        def counted(m, *args):
            sizes.append(np.size(m))
            return radicand(m, *args)

        monkeypatch.setattr(mh.spectral, "_radicand", counted)
        (*_, k), open_k = _mode_brackets(probe, shared, list(modes))
        monkeypatch.undo()
        assert open_k.size >= 5 and k.size >= open_k.size
        assert sum(size >= probe.size for size in sizes) <= 4
        assert sum(sizes) <= 5 * probe.size
        _assert_brackets_equal(probe, shared, list(modes))


@pytest.mark.parametrize(
    "density",
    [
        lambda t: np.exp(2.0 * t) * (2.0 + np.sin(1e6 * t)),  # unresolvable oscillation
        lambda t: np.exp(2.0 * t) * np.where(t < -1.0, 1e20, 1.0),  # huge jump inside a panel
    ],
    ids=["oscillation", "jump"],
)
def test_phase_integral_unconverged_quadrature_raises(density):
    # scipy's quad gives a number and a warning on these; the Gauss panels
    # must raise at their depth or open-interval limit
    V = mh.profiles.CallablePotential(density=density)
    with pytest.raises(QuadratureFailure):
        mh.phase_integral_count(mh.ZeroField(), V, 0, 50.0)


def _phase_vsigma_reference(field, sigma, m, lam, critical_shift=True, t_domain=None):
    """One mode of the borderline well's phase integral by scalar brentq and
    quad in u = log s, s = log|t| (t = -e^s, so dt = -e^s ds and ds = s du),
    with turning points bracketed on a 4001-node probe in u."""
    from scipy import integrate, optimize

    s_lo, s_hi = np.log(2.0), np.inf
    if critical_shift:
        s_hi = (4.0 * lam) ** sigma
    if t_domain is not None:
        t_lo, t_hi = min(t_domain), max(t_domain)
        if t_lo >= -2.0:
            return 0.0
        s_hi = min(s_hi, np.log(-t_lo))
        if t_hi < -2.0:
            s_lo = np.log(-t_hi)
    if s_hi <= s_lo:
        return 0.0

    def w_neg(u):
        """The radicand in s, at s = e^u."""
        s = np.exp(np.asarray(u, dtype=float))
        with np.errstate(over="ignore", invalid="ignore"):
            es = np.exp(s)
            am = np.abs(m - field.alpha(-es))
            ang = np.where(am > 0.0, (es * am) ** 2, 0.0)
        barrier = 1.0 / (4.0 * (1.0 + np.exp(-2.0 * s))) if critical_shift else 0.0
        return lam * s ** (-1.0 / sigma) - ang - barrier

    u_lo, u_hi = np.log(s_lo), np.log(s_hi)
    probe = np.linspace(u_lo, u_hi, 4001)
    vals = w_neg(probe)
    breaks = {u_lo, u_hi}
    for i in np.flatnonzero((vals[:-1] > 0) != (vals[1:] > 0)):
        # array and scalar evaluations may differ by an ulp where the radicand
        # vanishes at a node; then the node itself is the turning point
        if (w_neg(probe[i]) > 0) != (w_neg(probe[i + 1]) > 0):
            breaks.add(optimize.brentq(lambda u: float(w_neg(u)), probe[i], probe[i + 1], xtol=1e-14))
    pts = sorted(breaks)
    total = 0.0
    for a, b in zip(pts[:-1], pts[1:]):
        if w_neg(0.5 * (a + b)) <= 0:
            continue
        total += integrate.quad(
            lambda u: float(np.sqrt(max(w_neg(u), 0.0)) * np.exp(u)), a, b,
            epsabs=0.0, epsrel=1e-12, limit=500,
        )[0]
    return total / np.pi


@pytest.mark.parametrize("lam", [10.0, 1e3, 1e4])
@pytest.mark.parametrize("sigma", [1.5, 2.0, 3.0])
def test_phase_integral_vsigma_matches_quad_reference(sigma, lam):
    bump = mh.BumpField(flux=0.5)
    m_max = int(np.sqrt(lam * np.log(2.0) ** (-1.0 / sigma))) + 2
    modes = sorted({0, 1, -1, *np.linspace(-m_max, m_max, 15).astype(int).tolist()})
    got = mh.phase_integral_count(bump, mh.VSigma(sigma), modes, lam)
    want = [_phase_vsigma_reference(bump, sigma, m, lam) for m in modes]
    assert any(want) and not all(want)  # open and closed modes both checked
    assert got == pytest.approx(want, rel=1e-9)


@pytest.mark.parametrize(
    "kw",
    [
        {"critical_shift": False, "t_domain": (-1e6, 0.0)},
        {"t_domain": (-50.0, -10.0)},  # the upper end cuts the s-range
        {"t_domain": (-50.0, -49.9)},
    ],
    ids=["no-shift", "upper-cut", "sliver"],
)
def test_phase_integral_vsigma_t_domain_matches_quad_reference(kw):
    bump = mh.BumpField(flux=0.5)
    modes = list(range(-6, 7))
    got = mh.phase_integral_count(bump, mh.VSigma(2.0), modes, 300.0, **kw)
    want = [_phase_vsigma_reference(bump, 2.0, m, 300.0, **kw) for m in modes]
    assert any(want)
    assert got == pytest.approx(want, rel=1e-9)

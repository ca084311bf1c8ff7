"""Quadratic-form probes: identity, sandwich, Parseval reduction, optimality."""

import numpy as np
import pytest
from scipy import integrate

import maghardy as mh
from maghardy.errors import (
    FluxNotInteger,
    ParameterError,
    PreconditionError,
    QuadratureFailure,
    SupportError,
)

# ---------------------------------------------------------------------------
# identity and sandwich
# ---------------------------------------------------------------------------

def test_f_identity_hand_value_at_r1():
    # r0 = e, r = 1: f = 1/2 and both sides equal 1/4
    t = 0.0
    r = 1.0
    L = t - 1.0
    f = -1.0 / (2.0 * r * L)
    assert f == 0.5
    rhs = 1.0 / (4.0 * r**2 * L**2)
    assert rhs == 0.25
    g = mh.Grid.uniform(-6.0, 0.9, 1001)
    assert mh.check_f_identity(np.e, g) < 1e-12

def test_f_identity_r0_10_hand_value():
    # at r = 1, r0 = 10 the right-hand side is 1/(4 ln^2 10)
    rhs = 1.0 / (4.0 * np.log(10.0) ** 2)
    assert rhs == pytest.approx(0.047152, rel=1e-4)
    g = mh.Grid.uniform(-6.0, np.log(10.0) - 0.1, 1000)
    assert mh.check_f_identity(10.0, g) < 1e-10

@pytest.mark.parametrize("r0", [np.e, 10.0, 100.0])
def test_f_identity_residual_small(r0):
    g = mh.Grid.uniform(-6.0, np.log(r0) - 0.1, 1000)
    assert mh.check_f_identity(r0, g) < 1e-10

def test_lambda_sandwich_examples():
    assert mh.lambda_bounds_check(0, 0.0)
    # m=1, alpha=1/4: 0.53125 <= 0.5625 <= 2.125
    assert 0.5 * (1 + 0.0625) == 0.53125
    assert (1 - 0.25) ** 2 == 0.5625
    assert 2.0 * (1 + 0.0625) == 2.125
    assert mh.lambda_bounds_check(1, 0.25)

def test_lambda_sandwich_random_property():
    rng = np.random.default_rng(123)
    m = rng.integers(-50, 51, size=10_000)
    alpha = rng.uniform(-0.25, 0.25, size=10_000)
    assert mh.lambda_bounds_check(m, alpha)

def test_lambda_sandwich_precondition():
    with pytest.raises(PreconditionError):
        mh.lambda_bounds_check(1, 0.3)

# ---------------------------------------------------------------------------
# qform and the two-dimensional oracle
# ---------------------------------------------------------------------------

def _raw_b(field, r):
    """B(r) of the zero, bump and log-power fields, from their definitions."""
    if isinstance(field, mh.ZeroField):
        return np.zeros_like(r)
    if isinstance(field, mh.BumpField):
        q = (r / field.r1) ** 2
        return np.where(q < 1.0, 6.0 * field.flux / field.r1**2 * (1.0 - q) ** 2, 0.0)
    if isinstance(field, mh.LogPowerField):
        out = np.zeros_like(r)
        inner = r <= np.exp(-1.0)
        out[inner] = field.b0 / (r[inner] ** 2 * np.abs(np.log(r[inner])) ** field.gamma)
        return out
    raise TypeError(f"no raw profile for {field!r}")

def qform_2d_oracle(field, u, n_r=20000, n_theta=64):
    """Direct polar-grid quadrature of |(i grad + A) f e^{im theta}|^2.

    Works in the r variable: radial derivative by central differences on a
    uniform r-grid, azimuthal part from the gauge field a(r) obtained by
    cumulative trapezoid of the raw profile B(s) s (independent of the
    closed-form flux).  This validates the single-mode reduction and the
    t = log r change of variables.  ``u`` is a ModeBump, supported on
    (t_lo, t_hi).
    """
    t_lo, t_hi = u.t_lo, u.t_hi
    r = np.geomspace(np.exp(t_lo), np.exp(t_hi), n_r)
    kinks = [np.exp(k) for k in field.kinks if t_lo < k < t_hi]
    r = np.unique(np.concatenate([r, np.asarray(kinks)]))
    f = u.values(np.log(r))
    df = np.gradient(f, r, edge_order=2)
    # flux by midpoint cumulative sum: second order and exact across the
    # field kinks once those radii are grid nodes
    r_mid = 0.5 * (r[:-1] + r[1:])
    inc = _raw_b(field, r_mid) * r_mid * np.diff(r)
    alpha_q = np.concatenate([[0.0], np.cumsum(inc)])
    alpha_q += float(field.alpha(np.array([np.log(r[0])]))[0])
    a = alpha_q / r
    integrand = df**2 + (a - u.m / r) ** 2 * f**2
    radial_int = np.trapezoid(integrand * r, r)
    theta = np.linspace(0.0, 2.0 * np.pi, n_theta + 1)
    return float(np.trapezoid(np.full_like(theta, radial_int), theta))

def test_qform_zero_field_mode0_radial_only():
    u = mh.ModeBump(m=0, t_lo=-1.0, t_hi=1.0)
    g = mh.Grid.uniform(-2.0, 2.0, 4001)
    q = mh.qform(mh.ZeroField(), u, g)
    assert q.angular_part == 0.0
    # oracle: analytic derivative of (1-x^2)^2, x = t on (-1, 1)
    val, _ = integrate.quad(lambda t: (4.0 * t * (1.0 - t * t)) ** 2 / 4.0, -1, 1)
    # d/dt (1-t^2)^2 = -4t(1-t^2)
    val = 2.0 * np.pi * val * 4.0
    assert q.radial_part == pytest.approx(val, rel=1e-5)

def test_qform_zero_field_mode1_adds_mass():
    u = mh.ModeBump(m=1, t_lo=-1.0, t_hi=1.0)
    g = mh.Grid.uniform(-2.0, 2.0, 4001)
    q = mh.qform(mh.ZeroField(), u, g)
    mass, _ = integrate.quad(lambda t: (1.0 - t * t) ** 4, -1, 1)
    assert q.angular_part == pytest.approx(2.0 * np.pi * mass, rel=1e-6)
    oracle = qform_2d_oracle(mh.ZeroField(), u)
    assert q.total == pytest.approx(oracle, rel=1e-5)

def test_qform_2d_oracle_random_instances():
    rng = np.random.default_rng(2024)
    fields = [mh.ZeroField(), mh.BumpField(flux=0.5), mh.LogPowerField(1.0, 2.0)]
    for _ in range(8):
        field = fields[rng.integers(0, len(fields))]
        m = int(rng.integers(-2, 3))
        mid = rng.uniform(-1.0, 1.0)
        half = rng.uniform(0.4, 1.2)
        u = mh.ModeBump(m=m, t_lo=mid - half, t_hi=mid + half)
        g = mh.Grid.uniform(mid - half - 0.5, mid + half + 0.5, 6001)
        q = mh.qform(field, u, g).total
        oracle = qform_2d_oracle(field, u)
        assert q == pytest.approx(oracle, rel=1e-5)

def test_qform_support_error():
    u = mh.ModeBump(m=0, t_lo=-3.0, t_hi=3.0)
    g = mh.Grid.uniform(-2.0, 2.0, 101)
    with pytest.raises(SupportError):
        mh.qform(mh.ZeroField(), u, g)

def test_qform_checked_richardson():
    u = mh.ModeBump(m=1, t_lo=-1.0, t_hi=1.0)
    g = mh.Grid.uniform(-2.0, 2.0, 8001)
    out = mh.qform_checked(mh.ZeroField(), u, g)
    assert out.total > 0
    coarse = mh.Grid.uniform(-2.0, 2.0, 9)
    with pytest.raises(QuadratureFailure):
        mh.qform_checked(mh.ZeroField(), u, coarse)

# ---------------------------------------------------------------------------
# weighted norms
# ---------------------------------------------------------------------------

def test_weighted_norm_plateau_against_closed_form():
    # plateau ~ 1 on (0, 1) with narrow ramps; weight mass 1/(1+t^2)
    eps = 0.01

    def plateau(t):
        up = np.clip(t / eps, 0.0, 1.0)
        down = np.clip((1.0 - t) / eps, 0.0, 1.0)
        return np.minimum(up, down)

    u = mh.CustomTestFunction(fn=plateau, m=0)
    g = mh.Grid.uniform(-0.5, 1.5, 8001)
    val = mh.weighted_norm(u, mh.LogSquaredWeight(), g)
    assert val == pytest.approx(2.0 * np.pi * np.arctan(1.0), rel=2e-2)

def test_weighted_norm_zero_function():
    u = mh.CustomTestFunction(fn=lambda t: np.zeros_like(t), m=0)
    g = mh.Grid.uniform(-1.0, 1.0, 101)
    assert mh.weighted_norm(u, mh.LogSquaredWeight(), g) == 0.0

def test_weighted_norm_origin_probe_growth():
    # int_{h}^{k} s^{2a-b} ds grows like k^{0.3}/0.3 for a=0.4, b=1.5
    w = mh.LogPowerWeight(b=1.5)
    vals = {}
    for k in (16.0, 64.0):
        u = mh.OriginProbe(alpha=0.4, t_cut=-k)
        g = mh.Grid.geometric(-2.5 * 64.0, -1e-3, 4096)
        vals[k] = mh.weighted_norm(u, w, g)
    # both the core and its ramp scale like k^{0.3}
    assert vals[64.0] / vals[16.0] == pytest.approx(4.0**0.3, rel=0.04)

# ---------------------------------------------------------------------------
# optimality probes
# ---------------------------------------------------------------------------

def test_probe_zero_divergence_slope():
    recs = mh.hardy_probe_at_zero(mh.ZeroField(), b=1.5, alpha=0.4, cut_list=[8, 16, 32, 64])
    ratios = [r.ratio for r in recs]
    assert all(r2 > r1 for r1, r2 in zip(ratios[:-1], ratios[1:]))
    slope = mh.fit_loglog_slope([r.parameter for r in recs], ratios)
    assert slope == pytest.approx(0.30, abs=0.05)

def test_probe_zero_control_saturates():
    recs = mh.hardy_probe_at_zero(mh.ZeroField(), b=2.5, alpha=0.4, cut_list=[8, 16, 32, 64])
    slope = mh.fit_loglog_slope([r.parameter for r in recs], [r.ratio for r in recs])
    assert abs(slope) < 0.05

def test_probe_zero_boundary_case():
    recs = mh.hardy_probe_at_zero(
        mh.ZeroField(), b=1.99, alpha=0.49, cut_list=[8, 16, 32, 64]
    )
    slope = mh.fit_loglog_slope([r.parameter for r in recs], [r.ratio for r in recs])
    assert abs(slope) < 0.07

def test_probe_zero_parameter_window():
    with pytest.raises(ParameterError):
        mh.hardy_probe_at_zero(mh.ZeroField(), b=1.5, alpha=0.6, cut_list=[8])
    with pytest.raises(ParameterError):
        mh.OriginProbe(alpha=0.0, t_cut=-8.0)

def test_infinity_probe_bounded_form_and_divergent_ratio():
    bump = mh.BumpField(flux=1.0)
    recs = mh.infinity_probe(bump, mh.slow_log_weight(), 0.5, [1e2, 1e3, 1e4])
    qs = [r.denominator for r in recs]
    assert max(qs) / min(qs) < 1.02  # form stays flat along the ladder
    ratios = [r.ratio for r in recs]
    assert ratios[0] < ratios[1] < ratios[2]
    # growth follows (log n)^{1/2}/loglog n up to the window factor
    assert ratios[2] / ratios[0] > 2.5

def test_infinity_probe_good_weight_control():
    bump = mh.BumpField(flux=1.0)
    recs = mh.infinity_probe(bump, mh.LogSquaredWeight(), 0.5, [1e2, 1e3, 1e4])
    ratios = [r.ratio for r in recs]
    assert ratios[2] / ratios[0] < 1.6

def test_infinity_probe_flux_must_be_integer():
    with pytest.raises(FluxNotInteger):
        mh.infinity_probe(mh.BumpField(flux=0.5), mh.slow_log_weight(), 0.5, [100])

def test_infinity_probe_small_n_sanity():
    recs = mh.infinity_probe(mh.BumpField(flux=1.0), mh.slow_log_weight(), 0.5, [2.0])
    assert np.isfinite(recs[0].denominator) and recs[0].denominator > 0

# ---------------------------------------------------------------------------
# one-dimensional reduction inequality
# ---------------------------------------------------------------------------

def _random_bumps(rng, n, t_window=(-2.0, 8.0)):
    out = []
    for _ in range(n):
        parts = []
        for _ in range(rng.integers(1, 4)):
            mid = rng.uniform(*t_window)
            half = rng.uniform(0.3, 2.0)
            amp = rng.uniform(0.2, 2.0)
            parts.append((mid, half, amp))

        def f(t, parts=tuple(parts)):
            total = np.zeros_like(t)
            for mid, half, amp in parts:
                x = (t - mid) / half
                inside = np.abs(x) < 1.0
                total[inside] += amp * (1.0 - x[inside] ** 2) ** 2
            return total

        out.append(mh.CustomTestFunction(fn=f, m=0))
    return out

def test_radial_inequality_inner_support_excluded():
    inner = mh.ModeBump(m=0, t_lo=-1.0, t_hi=0.5)  # support inside r < e
    assert mh.radial_1d_inequality_check([inner]) == np.inf

def test_radial_inequality_single_outer_bump():
    outer = mh.ModeBump(m=0, t_lo=1.0, t_hi=3.0)  # support in (e, e^3)
    ratio = mh.radial_1d_inequality_check([outer])
    assert 0.0 < ratio < np.inf

def test_radial_inequality_random_family_vs_rayleigh_oracle():
    rng = np.random.default_rng(99)
    samples = _random_bumps(rng, 200)
    min_ratio = mh.radial_1d_inequality_check(samples)
    assert min_ratio > 0.01
    # oracle: Rayleigh minimization of the same quotient over the full grid
    # subspace bounds every sample ratio from below
    from maghardy.spectral import _mode_terms, smallest_generalized_mu

    g = mh.Grid.uniform(-8.0, 16.0, 4801)
    ti, off, stiff, lump = _mode_terms(g)
    # the mode form with this coefficient in place of (m - alpha)^2
    angular = np.where(ti <= 1.0, 0.5 * np.exp(2.0 * ti), 0.0)
    outer = ti >= 1.0
    inv_t2 = np.zeros_like(ti)
    inv_t2[outer] = 1.0 / ti[outer] ** 2
    mass = inv_t2 * lump
    theta_star = smallest_generalized_mu(stiff + angular * lump, off, mass)
    assert theta_star > 0.01
    assert min_ratio >= theta_star * (1.0 - 1e-6)
    # enriching the family can only lower the minimum, never below the oracle
    smaller = mh.radial_1d_inequality_check(samples[:100])
    assert smaller >= min_ratio >= theta_star * (1.0 - 1e-6)

"""Flux-profile oracles: closed forms vs quadrature, classification, shapes."""

import numpy as np
import pytest
from scipy import integrate

import maghardy as mh
from maghardy.errors import NonIntegrableField, UnknownClass


def test_example1_closed_form_flux_value():
    # alpha(r) = b0/(gamma-1) |log r|^{1-gamma}; at |log r| = 2, b0=1, gamma=2
    f = mh.LogPowerField(b0=1.0, gamma=2.0)
    assert mh.flux(f, r=np.exp(-2.0)) == pytest.approx(0.5, rel=1e-12)
    assert mh.flux(f, t=-2.0) == pytest.approx(0.5, rel=1e-12)


@pytest.mark.parametrize("r", [np.nan, 0.0, -1.0, [0.5, np.nan]])
def test_radius_functions_reject_radius_not_positive(r):
    f = mh.BumpField(flux=0.5)
    for fn in (mh.flux, mh.phi, mh.flux_quadrature):
        with pytest.raises(ValueError, match="r must be positive"):
            fn(f, r=r)


def test_zero_field_flux_trivial():
    z = mh.ZeroField()
    for t in (-5.0, 0.0, 3.0):
        assert mh.flux(z, t=t) == 0.0
        assert mh.phi(z, t=t) == 0.0


def test_bump_full_flux_past_support():
    b = mh.BumpField(flux=0.5, r1=1.0)
    assert mh.flux(b, t=0.0) == pytest.approx(0.5, rel=1e-14)
    assert mh.flux(b, t=4.0) == pytest.approx(0.5, rel=1e-14)
    # phi = alpha/r drops past the support
    b1 = mh.BumpField(flux=1.0, r1=1.0)
    assert mh.phi(b1, r=10.0) == pytest.approx(0.1, rel=1e-12)


def test_phi_example1_value():
    f = mh.LogPowerField(b0=1.0, gamma=2.0)
    assert mh.phi(f, r=np.exp(-2.0)) == pytest.approx(0.5 * np.e**2, rel=1e-12)


def test_azimuthal_gauge_equals_phi_and_matches_direct_quadrature():
    f = mh.LogPowerField(b0=1.0, gamma=2.0)
    t = -2.0
    gauge = mh.azimuthal_gauge(f, t=t)
    assert gauge == pytest.approx(mh.phi(f, t=t), rel=0, abs=0)
    assert gauge == pytest.approx(3.6945280494, rel=1e-9)
    # independent oracle in r space on a compactly supported field:
    # a(r) = (1/r) int_0^r B(s) s ds by quadrature on the raw profile
    b = mh.BumpField(flux=0.7, r1=1.0)
    for r in (0.3, 0.9, 2.5):
        val, _ = integrate.quad(
            lambda s: float(b.b(np.log(s))) * s, 0.0, min(r, 1.0), epsrel=1e-11
        )
        assert mh.azimuthal_gauge(b, r=r) == pytest.approx(val / r, rel=1e-9)


@pytest.mark.parametrize(
    "field",
    [
        mh.LogPowerField(b0=1.0, gamma=2.0),
        mh.LogPowerField(b0=-0.7, gamma=1.5),
        mh.LogLogPowerField(b0=1.0, gamma=2.0),
        mh.BumpField(flux=0.5, r1=1.0),
        mh.BumpField(flux=2.0, r1=0.3),
    ],
)
def test_closed_form_vs_quadrature_on_100_radii(field):
    ts = np.linspace(-30.0, 2.0, 100)
    closed = mh.flux(field, t=ts)
    quad = mh.flux_quadrature(field, t=ts)
    scale = np.maximum(np.abs(closed), 1e-30)
    assert np.max(np.abs(closed - quad) / scale) < 1e-8


def test_flux_derivative_matches_field_density():
    # d alpha/dt = B(e^t) e^{2t}, finite differences away from kinks
    for field in (mh.LogPowerField(1.0, 2.0), mh.BumpField(flux=0.7, r1=1.0)):
        ts = np.linspace(-8.0, -1.2, 40)
        h = 1e-5
        fd = (field.alpha(ts + h) - field.alpha(ts - h)) / (2 * h)
        exact = field.b_log_density(ts)
        mask = exact > 1e-12
        assert np.max(np.abs(fd[mask] - exact[mask]) / exact[mask]) < 1e-5


def test_flux_monotone_for_nonnegative_fields():
    rng = np.random.default_rng(42)
    fields = [mh.LogPowerField(1.0, 2.0), mh.BumpField(flux=1.5), mh.LogLogPowerField(2.0, 3.0)]
    for _ in range(300):
        f = fields[rng.integers(0, len(fields))]
        t1, t2 = np.sort(rng.uniform(-40.0, 3.0, size=2))
        assert mh.flux(f, t=t1) <= mh.flux(f, t=t2) + 1e-14


def test_sum_field_additivity():
    parts = (mh.LogPowerField(1.0, 2.0), mh.BumpField(flux=0.5))
    s = mh.SumField(parts)
    ts = np.linspace(-12.0, 1.0, 17)
    expect = sum(p.alpha(ts) for p in parts)
    assert np.allclose(s.alpha(ts), expect, rtol=1e-14)
    assert np.allclose(mh.flux_quadrature(s, t=np.array([-3.0])), s.alpha(np.array([-3.0])), rtol=1e-9)


def test_classification():
    assert mh.singularity_class(mh.BumpField(flux=1.0)) == "Regular"
    assert mh.singularity_class(mh.ZeroField()) == "Regular"
    assert mh.singularity_class(mh.LogPowerField(1.0, 2.0)) == "Singular"
    assert mh.singularity_class(mh.LogPowerField(1.0, 0.5)) == "NotLocallyIntegrable"
    assert mh.singularity_class(mh.LogLogPowerField(1.0, 1.5)) == "Singular"
    s = mh.SumField((mh.BumpField(flux=1.0), mh.LogPowerField(1.0, 1.2)))
    assert mh.singularity_class(s) == "Singular"


def test_nonintegrable_divergence():
    f = mh.LogPowerField(b0=1.0, gamma=0.5)
    with pytest.raises(NonIntegrableField):
        mh.flux(f, t=-2.0)
    with pytest.raises(NonIntegrableField):
        mh.flux_quadrature(f, t=-2.0)
    # quadrature divergence witness: partial fluxes grow without bound as the
    # inner cutoff shrinks
    partials = []
    for t_lo in (-1e2, -1e4, -1e8):
        val, _ = integrate.quad(
            lambda s: float(f.b_log_density(np.array(s))), t_lo, -2.0, limit=400
        )
        partials.append(val)
    assert partials[1] > 2.0 * partials[0]
    assert partials[2] > 2.0 * partials[1]


def test_custom_field_requires_declaration():
    ts = np.linspace(-5, 0, 50)
    bs = np.exp(ts)
    c = mh.CustomField(ts, bs)
    with pytest.raises(UnknownClass):
        mh.singularity_class(c)
    c2 = mh.CustomField(ts, bs, integrability="regular")
    assert mh.singularity_class(c2) == "Regular"


def test_custom_field_flux_matches_trapezoid():
    ts = np.linspace(-6, 0, 400)
    bs = np.exp(-2 * ts) * 0.1  # B e^{2t} = 0.1 constant density
    c = mh.CustomField(ts, bs, integrability="regular")
    # alpha(t) = 0.1 (t - t_min) on the sample range
    assert c.alpha(np.array([-3.0]))[0] == pytest.approx(0.1 * 3.0, rel=1e-4)


def test_custom_columns_loader(tmp_path):
    p = tmp_path / "field.txt"
    p.write_text("-2.0 1.0\n-1.0 2.0\n0.0 0.5\n")
    t, v = mh.profiles.load_custom_columns(p)
    assert t.shape == (3,)
    p2 = tmp_path / "bad.txt"
    p2.write_text("-1.0 1.0\n-1.0 2.0\n")
    with pytest.raises(ValueError):
        mh.profiles.load_custom_columns(p2)


def test_example2_closed_form():
    # alpha(t) = b0/(gamma-1) (log|t|)^{1-gamma} for t <= -2
    f = mh.LogLogPowerField(b0=2.0, gamma=3.0)
    t = -50.0
    expect = 2.0 / 2.0 * np.log(50.0) ** (-2.0)
    assert mh.flux(f, t=t) == pytest.approx(expect, rel=1e-12)
    assert mh.flux_quadrature(f, t=t) == pytest.approx(expect, rel=1e-8)


def test_potentials_basic():
    v = mh.VSigma(sigma=2.0)
    t = np.array([-10.0])
    assert v.e2t_v(t)[0] == pytest.approx(0.01 * np.log(10.0) ** -0.5, rel=1e-12)
    assert v.e2t_v(np.array([-1.0]))[0] == 0.0
    with pytest.raises(ValueError):
        mh.VSigma(sigma=0.9)
    s = mh.StepWell(depth=3.0, radius=2.0)
    assert s.v(np.array([0.0]))[0] == 3.0
    assert s.v(np.array([1.0]))[0] == 0.0
    g = mh.GaussianWell(depth=2.0, width=1.0)
    assert g.e2t_v(np.array([0.0]))[0] == pytest.approx(2.0 * np.exp(-1.0))
    sc = mh.ScaledPotential(g, 3.0)
    assert sc.e2t_v(np.array([0.0]))[0] == pytest.approx(6.0 * np.exp(-1.0))

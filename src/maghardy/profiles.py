"""Radial magnetic-field and potential models with flux functions.

Everything is evaluated in the log coordinate t = log r.  The normalized
flux through the ball of radius r is

    alpha(r) = int_0^r B(s) s ds,      Phi(r) = alpha(r) / r,

which in t becomes alpha(t) = int_{-inf}^t B(e^s) e^{2s} ds.  Field kinds
with singular profiles near the origin carry closed-form fluxes; the
quadrature route is kept alongside as an independent cross-check.  Combined
quantities such as B(e^t) e^{2t} and V(e^t) e^{2t} are provided as closed
forms so that radii as extreme as e^{-1e6} never touch an exponential.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NonIntegrableField, QuadratureFailure, UnknownClass

REGULAR = "Regular"
SINGULAR = "Singular"
NOT_LOCALLY_INTEGRABLE = "NotLocallyIntegrable"

_QUAD_RTOL = 1e-10


def _as_array(t):
    return np.asarray(t, dtype=float)


class RadialField:
    """Base class: a radial magnetic field B(r), accessed via t = log r."""

    kind = "abstract"
    #: t-values where the profile is only piecewise smooth
    kinks: tuple = ()

    def b(self, t):
        """Raw field value B(e^t); may overflow for extreme t."""
        raise NotImplementedError

    def b_log_density(self, t):
        """B(e^t) e^{2t}, the flux density in t (stable at extreme t)."""
        raise NotImplementedError

    def u_tail_density(self, u):
        """Flux density pulled back to u = log(-t): b_log_density(-e^u) e^u.

        Used for the deep-tail quadrature.  The guarded default suits fields
        whose density decays faster than 1/t; kinds with slow tails override
        it with a closed form.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            val = self.b_log_density(-np.exp(u)) * np.exp(u)
        return np.where(np.isfinite(val), val, 0.0)

    def alpha(self, t):
        """Normalized flux alpha(e^t); kinds with a closed form override it."""
        return self.alpha_quadrature(t)

    def alpha_quadrature(self, t):
        """Flux by adaptive quadrature of the t-density, rel. tol 1e-10."""
        t = _as_array(t)
        scalar = t.ndim == 0
        vals = np.array([self._alpha_quad_scalar(float(tt)) for tt in np.atleast_1d(t)])
        return float(vals[0]) if scalar else vals

    def _alpha_quad_scalar(self, t):
        from scipy import integrate  # on use: it would dominate the package's import time

        self._check_integrable()
        points = sorted(k for k in self.kinks if k < t)
        total = 0.0
        edges = [-np.inf] + points + [t]
        for a, b in zip(edges[:-1], edges[1:]):
            if a == b:
                continue
            if np.isinf(a):
                # deep tail in u = log(-s): slowly decaying densities become
                # plain power tails there and the improper quadrature is robust
                cut = min(b, -1.0)
                val, err = integrate.quad(
                    lambda u: float(self.u_tail_density(np.array(u))),
                    np.log(-cut),
                    np.inf,
                    epsabs=0.0,
                    epsrel=_QUAD_RTOL,
                    limit=400,
                )
                if cut < b:
                    v2, e2 = integrate.quad(
                        lambda s: float(self.b_log_density(s)),
                        cut,
                        b,
                        epsabs=0.0,
                        epsrel=_QUAD_RTOL,
                        limit=400,
                    )
                    val, err = val + v2, err + e2
            else:
                val, err = integrate.quad(
                    lambda s: float(self.b_log_density(s)),
                    a,
                    b,
                    epsabs=0.0,
                    epsrel=_QUAD_RTOL,
                    limit=400,
                )
            if not np.isfinite(val):
                raise QuadratureFailure(f"flux quadrature diverged on ({a}, {b})")
            if abs(err) > 1000 * _QUAD_RTOL * max(abs(val), 1e-300):
                raise QuadratureFailure(
                    f"flux quadrature error {err:.2e} exceeds tolerance on ({a}, {b})"
                )
            total += val
        return total

    def _check_integrable(self):
        pass

    def phi(self, t):
        """Phi = alpha / r = alpha(t) e^{-t}; overflows for very negative t."""
        t = _as_array(t)
        return self.alpha(t) * np.exp(-t)

    def total_flux(self):
        """Limit of alpha(t) as t -> +inf, or None if not constant at infinity."""
        return None

    def classify(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class ZeroField(RadialField):
    kind: str = "zero"

    def b(self, t):
        return np.zeros_like(_as_array(t))

    def b_log_density(self, t):
        return np.zeros_like(_as_array(t))

    def alpha(self, t):
        return np.zeros_like(_as_array(t))

    def total_flux(self):
        return 0.0

    def classify(self):
        return REGULAR


@dataclass(frozen=True)
class LogPowerField(RadialField):
    """B = b0 / (r^2 |log r|^gamma) for r <= 1/e, zero outside.

    Locally integrable iff gamma > 1, with flux
    alpha(r) = b0/(gamma-1) |log r|^{1-gamma} for r <= 1/e.
    Config kind string: ``example1``.
    """

    b0: float
    gamma: float
    kind: str = "example1"

    @property
    def kinks(self):
        return (-1.0,)

    def b(self, t):
        t = _as_array(t)
        out = np.zeros_like(t)
        mask = t <= -1.0
        out[mask] = self.b0 * np.exp(-2.0 * t[mask]) * np.abs(t[mask]) ** (-self.gamma)
        return out

    def b_log_density(self, t):
        t = _as_array(t)
        out = np.zeros_like(t)
        mask = t <= -1.0
        out[mask] = self.b0 * np.abs(t[mask]) ** (-self.gamma)
        return out

    def u_tail_density(self, u):
        u = _as_array(u)
        return np.where(u >= 0.0, self.b0 * np.exp((1.0 - self.gamma) * u), 0.0)

    def _check_integrable(self):
        if self.gamma <= 1.0:
            raise NonIntegrableField(
                f"gamma={self.gamma} <= 1: the flux integral diverges at the origin"
            )

    def alpha(self, t):
        self._check_integrable()
        t = _as_array(t)
        plateau = self.b0 / (self.gamma - 1.0)
        out = np.full_like(t, plateau)
        mask = t <= -1.0
        out[mask] = plateau * np.abs(t[mask]) ** (1.0 - self.gamma)
        return out

    def total_flux(self):
        self._check_integrable()
        return self.b0 / (self.gamma - 1.0)

    def classify(self):
        if self.gamma <= 1.0:
            return NOT_LOCALLY_INTEGRABLE
        return SINGULAR


@dataclass(frozen=True)
class LogLogPowerField(RadialField):
    """B = b0 / (r^2 |log r| (log|log r|)^gamma) for r <= e^{-2}, zero outside.

    Flux alpha(r) = b0/(gamma-1) (log|log r|)^{1-gamma} for r <= e^{-2};
    integrable iff gamma > 1.  Config kind string: ``example2``.
    """

    b0: float
    gamma: float
    kind: str = "example2"

    @property
    def kinks(self):
        return (-2.0,)

    def b(self, t):
        t = _as_array(t)
        out = np.zeros_like(t)
        mask = t <= -2.0
        at = np.abs(t[mask])
        out[mask] = (
            self.b0 * np.exp(-2.0 * t[mask]) / (at * np.log(at) ** self.gamma)
        )
        return out

    def b_log_density(self, t):
        t = _as_array(t)
        out = np.zeros_like(t)
        mask = t <= -2.0
        at = np.abs(t[mask])
        out[mask] = self.b0 / (at * np.log(at) ** self.gamma)
        return out

    def u_tail_density(self, u):
        u = _as_array(u)
        out = np.zeros_like(u)
        mask = u >= np.log(2.0)
        out[mask] = self.b0 * u[mask] ** (-self.gamma)
        return out

    def _check_integrable(self):
        if self.gamma <= 1.0:
            raise NonIntegrableField(
                f"gamma={self.gamma} <= 1: the flux integral diverges at the origin"
            )

    def alpha(self, t):
        self._check_integrable()
        t = _as_array(t)
        plateau = self.b0 / (self.gamma - 1.0) * np.log(2.0) ** (1.0 - self.gamma)
        out = np.full_like(t, plateau)
        mask = t <= -2.0
        out[mask] = (
            self.b0
            / (self.gamma - 1.0)
            * np.log(np.abs(t[mask])) ** (1.0 - self.gamma)
        )
        return out

    def total_flux(self):
        self._check_integrable()
        return self.b0 / (self.gamma - 1.0) * np.log(2.0) ** (1.0 - self.gamma)

    def classify(self):
        if self.gamma <= 1.0:
            return NOT_LOCALLY_INTEGRABLE
        return SINGULAR


@dataclass(frozen=True)
class BumpField(RadialField):
    """Smooth compactly supported field B = c (1 - (r/r1)^2)^2 on r < r1.

    The normalization constant c = 6 * total_flux / r1^2 makes the total
    normalized flux exactly ``total_flux``; the flux function is
    alpha(r) = total_flux * (1 - (1 - (r/r1)^2)^3) for r <= r1.
    """

    flux: float
    r1: float = 1.0
    kind: str = "bump"

    def __post_init__(self):
        if self.r1 <= 0:
            raise ValueError("r1 must be positive")

    @property
    def kinks(self):
        return (float(np.log(self.r1)),)

    def _q(self, t):
        # q = (r/r1)^2 = e^{2(t - log r1)}
        return np.exp(2.0 * (_as_array(t) - np.log(self.r1)))

    def b(self, t):
        t = _as_array(t)
        q = self._q(t)
        c = 6.0 * self.flux / self.r1**2
        out = np.where(q < 1.0, c * (1.0 - q) ** 2, 0.0)
        return out

    def b_log_density(self, t):
        t = _as_array(t)
        q = self._q(t)
        # B e^{2t} = c (1-q)^2 q r1^2 = 6 flux (1-q)^2 q
        return np.where(q < 1.0, 6.0 * self.flux * (1.0 - q) ** 2 * q, 0.0)

    def alpha(self, t):
        q = self._q(t)
        qc = np.minimum(q, 1.0)
        # 1 - (1-q)^3 = q (3 - 3q + q^2), stable for q -> 0
        return self.flux * qc * (3.0 - 3.0 * qc + qc * qc)

    def total_flux(self):
        return self.flux

    def classify(self):
        return REGULAR


@dataclass(frozen=True)
class SumField(RadialField):
    """Pointwise sum of component fields; flux is the sum of fluxes."""

    parts: tuple
    kind: str = "sum"

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(self.parts))

    @property
    def kinks(self):
        ks = set()
        for p in self.parts:
            ks.update(p.kinks)
        return tuple(sorted(ks))

    def b(self, t):
        return sum(p.b(t) for p in self.parts)

    def b_log_density(self, t):
        return sum(p.b_log_density(t) for p in self.parts)

    def u_tail_density(self, u):
        return sum(p.u_tail_density(u) for p in self.parts)

    def alpha(self, t):
        return sum(p.alpha(t) for p in self.parts)

    def total_flux(self):
        fluxes = [p.total_flux() for p in self.parts]
        if any(f is None for f in fluxes):
            return None
        return float(sum(fluxes))

    def classify(self):
        classes = [p.classify() for p in self.parts]
        if NOT_LOCALLY_INTEGRABLE in classes:
            return NOT_LOCALLY_INTEGRABLE
        if SINGULAR in classes:
            return SINGULAR
        return REGULAR


@dataclass(frozen=True)
class CustomField(RadialField):
    """Tabulated field: two columns (t, B) with strictly increasing t.

    Classification never guesses from samples: construction requires an
    explicit ``integrability`` declaration ('regular' or 'singular'), else
    ``classify`` raises UnknownClass.
    """

    t_samples: np.ndarray
    b_samples: np.ndarray
    integrability: str | None = None
    kind: str = "custom"

    def __post_init__(self):
        ts = np.asarray(self.t_samples, dtype=float)
        bs = np.asarray(self.b_samples, dtype=float)
        if ts.ndim != 1 or ts.shape != bs.shape:
            raise ValueError("custom field needs matching 1-d (t, B) columns")
        if not np.all(np.diff(ts) > 0):
            raise ValueError("custom field t-column must be strictly increasing")
        object.__setattr__(self, "t_samples", ts)
        object.__setattr__(self, "b_samples", bs)

    def b(self, t):
        t = _as_array(t)
        return np.interp(t, self.t_samples, self.b_samples, left=0.0, right=0.0)

    def b_log_density(self, t):
        t = _as_array(t)
        return self.b(t) * np.exp(2.0 * t)

    def alpha(self, t):
        t = _as_array(t)
        d = self.b_samples * np.exp(2.0 * self.t_samples)
        # cumulative trapezoid, in scipy's cumulative_trapezoid operation order
        cum = np.concatenate([[0.0], np.cumsum(np.diff(self.t_samples) * (d[1:] + d[:-1]) / 2.0)])
        return np.interp(t, self.t_samples, cum, left=0.0, right=cum[-1])

    def total_flux(self):
        dens = self.b_samples * np.exp(2.0 * self.t_samples)
        return float(np.trapezoid(dens, self.t_samples))

    def classify(self):
        if self.integrability == "regular":
            return REGULAR
        if self.integrability == "singular":
            return SINGULAR
        raise UnknownClass(
            "custom field carries no integrability declaration; refusing to guess"
        )


# ---------------------------------------------------------------------------
# Operations (free functions mirroring the field methods)
# ---------------------------------------------------------------------------


def flux(field: RadialField, t=None, r=None):
    """alpha at t = log r (pass exactly one of t, r)."""
    t = _resolve_t(t, r)
    return field.alpha(t)


def flux_quadrature(field: RadialField, t=None, r=None):
    """Quadrature-backed flux, independent of any closed form."""
    t = _resolve_t(t, r)
    return field.alpha_quadrature(t)


def phi(field: RadialField, t=None, r=None):
    """Phi(r) = alpha(r)/r."""
    t = _resolve_t(t, r)
    return field.phi(t)


def azimuthal_gauge(field: RadialField, t=None, r=None):
    """Azimuthal vector-potential component a(r) = alpha(r)/r (radial fields)."""
    return phi(field, t=t, r=r)


def singularity_class(field: RadialField) -> str:
    """One of Regular / Singular / NotLocallyIntegrable."""
    return field.classify()


def _resolve_t(t, r):
    if (t is None) == (r is None):
        raise ValueError("pass exactly one of t or r")
    if t is not None:
        return _as_array(t)
    r = _as_array(r)
    if not np.all(r > 0):  # NaN as well
        raise ValueError("r must be positive")
    return np.log(r)


# ---------------------------------------------------------------------------
# Potentials
# ---------------------------------------------------------------------------


class Potential:
    """Radial electric potential; for radial V the angular sup is V_+ itself."""

    kind = "abstract"
    #: largest t past which the potential vanishes (None = unbounded support)
    support_t_max: float | None = None

    def v(self, t):
        """Raw V(e^t); may overflow for extreme t."""
        raise NotImplementedError

    def e2t_v(self, t):
        """V(e^t) e^{2t} in combined, overflow-safe form."""
        raise NotImplementedError

    def vplus_density(self, t):
        """max(V, 0) e^{2t}, the positive-part density used in counting."""
        return np.maximum(self.e2t_v(t), 0.0)


@dataclass(frozen=True)
class ZeroPotential(Potential):
    kind: str = "zero"
    support_t_max = -np.inf

    def v(self, t):
        return np.zeros_like(_as_array(t))

    def e2t_v(self, t):
        return np.zeros_like(_as_array(t))


@dataclass(frozen=True)
class VSigma(Potential):
    """Borderline singular potential producing non-semiclassical counting.

    V = r^{-2} |log r|^{-2} (log|log r|)^{-1/sigma} for r < e^{-2}, zero
    outside; in t:  V e^{2t} = t^{-2} (log|t|)^{-1/sigma} for t <= -2.
    """

    sigma: float
    kind: str = "vsigma"

    def __post_init__(self):
        if self.sigma <= 1.0:
            raise ValueError("sigma must exceed 1")

    @property
    def support_t_max(self):
        return -2.0

    def v(self, t):
        return self.e2t_v(t) * np.exp(-2.0 * _as_array(t))

    def e2t_v(self, t):
        t = _as_array(t)
        out = np.zeros_like(t)
        mask = t <= -2.0
        at = np.abs(t[mask])
        out[mask] = at ** (-2.0) * np.log(at) ** (-1.0 / self.sigma)
        return out


@dataclass(frozen=True)
class GaussianWell(Potential):
    """V = depth * exp(-(r/width)^2)."""

    depth: float = 1.0
    width: float = 1.0
    kind: str = "gaussian"

    def v(self, t):
        t = _as_array(t)
        return self.depth * np.exp(-np.exp(2.0 * t) / self.width**2)

    def e2t_v(self, t):
        t = _as_array(t)
        return self.depth * np.exp(2.0 * t - np.exp(2.0 * t) / self.width**2)


@dataclass(frozen=True)
class StepWell(Potential):
    """V = depth on r <= radius, zero outside."""

    depth: float = 1.0
    radius: float = 1.0
    kind: str = "step"

    @property
    def support_t_max(self):
        return float(np.log(self.radius))

    def v(self, t):
        t = _as_array(t)
        return np.where(t <= np.log(self.radius), self.depth, 0.0)

    def e2t_v(self, t):
        t = _as_array(t)
        return np.where(t <= np.log(self.radius), self.depth * np.exp(2.0 * t), 0.0)


@dataclass(frozen=True)
class CustomPotential(Potential):
    """Tabulated potential: columns (t, V), strictly increasing t."""

    t_samples: np.ndarray
    v_samples: np.ndarray
    kind: str = "custom"

    def __post_init__(self):
        ts = np.asarray(self.t_samples, dtype=float)
        vs = np.asarray(self.v_samples, dtype=float)
        if ts.ndim != 1 or ts.shape != vs.shape:
            raise ValueError("custom potential needs matching 1-d (t, V) columns")
        if not np.all(np.diff(ts) > 0):
            raise ValueError("custom potential t-column must be strictly increasing")
        object.__setattr__(self, "t_samples", ts)
        object.__setattr__(self, "v_samples", vs)

    def v(self, t):
        t = _as_array(t)
        return np.interp(t, self.t_samples, self.v_samples, left=0.0, right=0.0)

    def e2t_v(self, t):
        t = _as_array(t)
        return self.v(t) * np.exp(2.0 * t)


@dataclass(frozen=True)
class ScaledPotential(Potential):
    """lam * base, used for coupling sweeps and homogeneity checks."""

    base: Potential
    lam: float
    kind: str = "scaled"

    @property
    def support_t_max(self):
        return self.base.support_t_max

    def v(self, t):
        return self.lam * self.base.v(t)

    def e2t_v(self, t):
        return self.lam * self.base.e2t_v(t)


@dataclass(frozen=True)
class CallablePotential(Potential):
    """Potential defined by a closed-form density e^{2t} V(t)."""

    density: Callable
    kind: str = "callable"

    def v(self, t):
        t = _as_array(t)
        return self.density(t) * np.exp(-2.0 * t)

    def e2t_v(self, t):
        return self.density(_as_array(t))


def load_custom_columns(path) -> tuple[np.ndarray, np.ndarray]:
    """Read a two-column (t, value) text file, validating monotone t."""
    data = np.loadtxt(path, dtype=float)
    if data.ndim != 2 or data.shape[1] != 2:
        raise ValueError(f"{path}: expected two columns (t, value)")
    t, v = data[:, 0], data[:, 1]
    if not np.all(np.diff(t) > 0):
        raise ValueError(f"{path}: t column must be strictly increasing")
    return t, v

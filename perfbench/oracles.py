"""Independent checks of the benchmark's results, run outside the timed region.

The mode matrices are assembled here again from the profile functions
(cell-difference stiffness, trapezoid-lumped zero-order terms, Dirichlet
ends), and LAPACK counts or solves them.  Phase integrals are redone by
dense trapezoid quadrature.  Each check returns a list of failure messages;
an empty list means the result passed.
"""

import json

import numpy as np
from scipy.linalg import eigvalsh_tridiagonal

HARDY_RTOL = 1e-4  # the bisection's own relative tolerance
PHASE_RTOL = 1e-4
HOMOGENEITY_RTOL = 1e-6
BOUND_RTOL = 1e-6


def refine(t):
    return np.union1d(t, 0.5 * (t[:-1] + t[1:]))


def mode_matrix(t, q):
    """Tridiagonal (diag, off) of -u'' + q u on nodes t, Dirichlet ends.

    ``q`` holds the zero-order coefficient at the interior nodes t[1:-1].
    """
    h = np.diff(t)
    lump = 0.5 * (h[:-1] + h[1:])
    return 1.0 / h[:-1] + 1.0 / h[1:] + q * lump, -1.0 / h[1:-1]


def lapack_negative_count(diag, off):
    """Number of eigenvalues below zero, by LAPACK bisection (stebz).

    stebz finds how many eigenvalues lie in (lower, 0] from Sturm counts at
    the two ends before it bisects, so a coarse tolerance keeps the count
    exact and skips resolving each eigenvalue.
    """
    radius = np.abs(np.concatenate([off, [0.0]])) + np.abs(np.concatenate([[0.0], off]))
    lower = float(np.min(diag - radius)) - 1.0
    if lower >= 0.0:
        return 0
    vals = eigvalsh_tridiagonal(
        diag, off, select="v", select_range=(lower, 0.0), lapack_driver="stebz", tol=-lower
    )
    return int(vals.size)


def mode_q(field, V, m, ti, lam):
    return (m - field.alpha(ti)) ** 2 - lam * V.e2t_v(ti)


def check_inertia(field, V, lam, t, per_mode):
    """Each per-mode inertia count must equal the LAPACK count exactly."""
    ti = t[1:-1]
    bad = []
    for m, count in per_mode.items():
        want = lapack_negative_count(*mode_matrix(t, mode_q(field, V, int(m), ti, lam)))
        if count != want:
            bad.append(f"inertia count m={m} lam={lam:.6g}: {count} != LAPACK {want}")
    return bad


def check_prufer(field, V, lam, t, per_mode):
    """Each per-mode oscillation count must be within 1 of the LAPACK count."""
    ti = t[1:-1]
    bad = []
    for m, count in per_mode.items():
        want = lapack_negative_count(*mode_matrix(t, mode_q(field, V, int(m), ti, lam)))
        if abs(count - want) > 1:
            bad.append(f"Pruefer count m={m} lam={lam:.6g}: {count} vs LAPACK {want}")
    return bad


def hardy_mu(field, weight, t, m):
    """Smallest eigenvalue of M^{-1/2} K M^{-1/2} for mode m on nodes t."""
    ti = t[1:-1]
    kd, ko = mode_matrix(t, (m - field.alpha(ti)) ** 2)
    h = np.diff(t)
    mass = weight.mass_density(ti) * 0.5 * (h[:-1] + h[1:])
    scale = 1.0 / np.sqrt(mass)
    d = kd * scale * scale
    e = ko * scale[:-1] * scale[1:]
    # The mass spans many decades on singular problems, so the scaled matrix
    # has a huge norm; stebz's default tolerance (eps * norm) would then be
    # coarser than the bisection under test.  Bisect to full precision.
    return float(
        eigvalsh_tridiagonal(
            d, e, select="i", select_range=(0, 0), lapack_driver="stebz",
            tol=np.finfo(float).tiny,
        )[0]
    )


def check_hardy(field, weight, t, refine_levels, per_mode_minima):
    """Per-mode minima of the finest level against LAPACK, within 1e-4."""
    for _ in range(refine_levels):
        t = refine(t)
    bad = []
    for m, mu in per_mode_minima.items():
        want = hardy_mu(field, weight, t, int(m))
        if not abs(mu - want) <= HARDY_RTOL * abs(want):
            bad.append(f"Hardy mu m={m}: {mu:.8g} vs LAPACK {want:.8g}")
    return bad


def _trapezoid_window(x, y):
    """Trapezoid integral of y over x where y is non-zero, plus neighbours."""
    nz = np.flatnonzero(y)
    if nz.size == 0:
        return 0.0
    lo, hi = max(nz[0] - 1, 0), min(nz[-1] + 2, y.size)
    return float(np.trapezoid(y[lo:hi], x[lo:hi]))


def dense_phase_direct(field, V, lam, modes, t_lo, t_hi, n=400_001):
    """(1/pi) int sqrt((lam e^{2t}V - (m-alpha)^2 - 1/(4(1+t^2)))_+) dt per mode."""
    t = np.linspace(t_lo, t_hi, n)
    base = lam * V.e2t_v(t) - 1.0 / (4.0 * (1.0 + t * t))
    keep = base > 0.0
    out = {}
    if not np.any(keep):
        return {m: 0.0 for m in modes}
    idx = np.flatnonzero(keep)
    lo, hi = max(idx[0] - 1, 0), min(idx[-1] + 2, n)
    t, base = t[lo:hi], base[lo:hi]
    alpha = field.alpha(t)
    for m in modes:
        y = np.sqrt(np.maximum(base - (m - alpha) ** 2, 0.0))
        out[m] = _trapezoid_window(t, y) / np.pi
    return out


def dense_phase_vsigma(field, sigma, lam, modes, n=200_001):
    """The same integral for V e^{2t} = t^-2 (log|t|)^(-1/sigma), t <= -2.

    Substituting t = -e^s, s = e^u turns it into an integral over u from
    log log 2 to the point where the well falls to the barrier's limit 1/4,
    s = (4 lam)^sigma.
    """
    u = np.linspace(np.log(np.log(2.0)), sigma * np.log(4.0 * lam), n)
    s = np.exp(u)
    with np.errstate(over="ignore", invalid="ignore"):
        es = np.exp(s)
        alpha = field.alpha(-es)
    base = lam * s ** (-1.0 / sigma) - 1.0 / (4.0 * (1.0 + np.exp(-2.0 * s)))
    out = {}
    for m in modes:
        am = np.abs(m - alpha)
        ang = np.zeros_like(s)
        pos = am > 0.0
        with np.errstate(over="ignore", invalid="ignore"):
            ang[pos] = (es[pos] * am[pos]) ** 2
        y = np.sqrt(np.maximum(base - ang, 0.0)) * s
        out[m] = _trapezoid_window(u, y) / np.pi
    return out


def check_phase(field, V, lam, per_mode, vsigma=None):
    """Phase total against dense quadrature of the same integrand.

    ``vsigma`` is sigma for the borderline well, else None (the well is
    integrated over the default domain [-60, 2] of wells without a support
    edge).  Totals are compared, not single modes: the high modes of the
    borderline well live on a sliver of the program's log-spaced nodes.
    """
    modes = [int(m) for m in per_mode]
    if vsigma is not None:
        want = dense_phase_vsigma(field, vsigma, lam, modes)
    else:
        want = dense_phase_direct(field, V, lam, modes, -60.0, 2.0)
    total = sum(per_mode.values())
    ref = sum(want.values())
    if not abs(total - ref) <= PHASE_RTOL * max(abs(ref), 1.0):
        return [f"phase total lam={lam:.6g}: {total:.10g} vs dense {ref:.10g}"]
    return []


def check_phase_total(field, sigma, lam, total):
    """A phase total of the borderline well, modes taken from the integrand.

    Outside the barrier region e^s >= 2, so mode m is forbidden once
    4 (m - alpha)^2 exceeds the well's peak lam (log 2)^(-1/sigma); the
    range below covers every mode that can contribute, with margin.
    """
    m_max = int(np.sqrt(lam * np.log(2.0) ** (-1.0 / sigma))) + 2
    want = dense_phase_vsigma(field, sigma, lam, range(-m_max, m_max + 1))
    ref = sum(want.values())
    if not abs(total - ref) <= PHASE_RTOL * max(abs(ref), 1.0):
        return [f"phase total lam={lam:.6g}: {total:.10g} vs dense {ref:.10g}"]
    return []


def check_homogeneity(value, scaled_value, lam):
    """[lam V]_a must equal lam [V]_a."""
    want = lam * value
    if not abs(scaled_value - want) <= HOMOGENEITY_RTOL * abs(want):
        return [f"homogeneity: [lam V]_a={scaled_value:.12g} vs lam [V]_a={want:.12g}"]
    return []


def check_curve_homogeneity(curve, scaled_curve, lam, a):
    """threshold_curve of lam V: thresholds times lam, values times lam^a."""
    taus, vals = curve
    taus2, vals2 = scaled_curve
    if taus.shape != taus2.shape:
        return ["threshold curve of lam V has another length"]
    bad = []
    if not np.allclose(taus2, lam * taus, rtol=HOMOGENEITY_RTOL, atol=0.0):
        bad.append("threshold curve: thresholds of lam V are not lam times those of V")
    if not np.allclose(vals2, lam**a * vals, rtol=HOMOGENEITY_RTOL, atol=0.0):
        bad.append("threshold curve: values of lam V are not lam^a times those of V")
    return bad


def dense_log_weight_integral(V, t_min, t_max, n=400_001):
    """int V_+ e^{2t} (1+|t|) dt; the tail below -e runs in s = log|t|, and the
    rest stops at the support edge, where V_+ jumps to zero."""
    total = 0.0
    t_inner = max(t_min, -np.e)
    if t_min < -np.e:
        s = np.linspace(1.0, np.log(-t_min), n)
        t = -np.exp(s)
        total += float(np.trapezoid(V.vplus_density(t) * (1.0 + np.abs(t)) * np.exp(s), s))
    edge = V.support_t_max
    hi = t_max if edge is None else min(t_max, max(edge, t_inner))
    t = np.linspace(t_inner, hi, n)
    total += float(np.trapezoid(V.vplus_density(t) * (1.0 + np.abs(t)), t))
    return total


def check_bound(V, cap_sequence, t_max=30.0):
    bad = []
    for cap, value in cap_sequence:
        want = dense_log_weight_integral(V, cap, t_max)
        if not abs(value - want) <= BOUND_RTOL * abs(want):
            bad.append(f"log-weight integral cap={cap:.6g}: {value:.12g} vs dense {want:.12g}")
    return bad


def check_cli(code, stdout):
    """Exit status 0 or 2 and a JSON document on stdout."""
    bad = []
    if code not in (0, 2):
        bad.append(f"exit status {code}")
    try:
        json.loads(stdout)
    except ValueError:
        bad.append("stdout is not JSON")
    return bad

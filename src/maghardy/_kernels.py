"""Hot scalar kernels: tridiagonal inertia and the Pruefer phase sweep.

Both loops are inherently sequential recurrences over one mode's nodes, run
on Python floats (IEEE doubles, so results equal those on float64 arrays).
The inertia loop gives the common case, a pivot at or above pivmin, one
comparison per row; zero, tiny, negative and -inf pivots are sorted out
inside that comparison's branch, and NaN and +inf pass it untouched.  Its
caller orients each sweep so that the longer run of strong (diagonally
dominant) rows comes last, and names the last weak row: past it, the loop
ends at the first pivot that dominates its coupling to the next row, as no
later pivot can then be negative or zero.  The Pruefer step doubling shares
the slope at the step's start among the full step, its first half step and
every retry.  Its right-hand side uses math.sin and math.cos, which keep the
angle a Python float; the tests compare them bit for bit with np.sin and
np.cos.
"""

from bisect import bisect_left
from itertools import chain, islice
from math import cos, sin


def tridiag_inertia(diag, off, pivmin, stop=None):
    """Count negative eigenvalues of a symmetric tridiagonal matrix.

    LDL^T recurrence d_i = a_i - b_{i-1}^2 / d_{i-1}; the number of negative
    pivots equals the number of negative eigenvalues (Sylvester).  Exact zero
    pivots are replaced by +pivmin (they count as non-negative) and reported;
    small nonzero pivots are clamped sign-preservingly so the recurrence never
    divides by zero.  An empty matrix has no negative eigenvalue: (0, 0).

    ``stop`` is the index of the last weak row, when every later row is
    strong in the sense of ``spectral._inertia_counter``.  From that row on,
    the sweep ends at the first clamped pivot d with d >= |b|, b its coupling
    to the next row: from there no later pivot is negative or zero, so the
    counts equal those of the full sweep.
    """
    neg = 0
    zero_pivots = 0
    n = len(diag)
    rows = zip(diag, chain((0.0,), off))
    swept = 0
    # all rows up to the last weak one, then one at a time
    take = n if stop is None else stop + 1
    # a zero coupling ahead of the first row makes its pivot a - 0 / 1 = a
    d = 1.0
    while True:
        for a, b in islice(rows, take):
            d = a - b * b / d
            # a positive pivot, +inf and NaN pass untouched and count non-negative
            if d < pivmin:
                if d == 0.0:
                    d = pivmin
                    zero_pivots += 1
                elif d > -pivmin:
                    d = pivmin if d > 0.0 else -pivmin
                if d < 0.0:
                    neg += 1
        swept += take
        if swept >= n or d >= abs(off[swept - 1]):
            return neg, zero_pivots
        take = 1


def prufer_sweep(t_nodes, q_nodes, t0, t1, tol, h_init, h_min):
    """Integrate the Pruefer angle for -u'' + Q(t) u = 0 from t0 to t1.

    theta' = cos^2(theta) - Q(t) sin^2(theta), theta(t0) = 0 (u(t0) = 0).
    Q is linearly interpolated from (t_nodes, q_nodes).  Steps are RK4 with
    doubling-based error control at ``tol`` per step.  Returns the final
    angle and a failure flag (1 if the step size underflowed h_min).
    """
    theta = 0.0
    t = t0
    h = h_init
    fail = 0
    n = t_nodes.shape[0]
    # Python lists: a scalar bisect and list indexing beat numpy's per-call cost
    t_nodes, q_nodes = t_nodes.tolist(), q_nodes.tolist()

    while t < t1:
        if t + h > t1:
            h = t1 - t
        # the slope at (t, theta) starts the full step and its first half
        # step, and every retry with a halved h
        k1 = _theta_rhs(t_nodes, q_nodes, n, t, theta)
        accepted = False
        while not accepted:
            big = _rk4_step(t_nodes, q_nodes, n, t, theta, h, k1)
            half = _rk4_step(t_nodes, q_nodes, n, t, theta, 0.5 * h, k1)
            mid = t + 0.5 * h
            k1_mid = _theta_rhs(t_nodes, q_nodes, n, mid, half)
            two = _rk4_step(t_nodes, q_nodes, n, mid, half, 0.5 * h, k1_mid)
            err = abs(big - two)
            if err <= tol:
                theta = two
                t = t + h
                accepted = True
                if err < 0.03125 * tol and h < 0.25 * (t1 - t0):
                    h = 2.0 * h
            else:
                h = 0.5 * h
                if h < h_min:
                    fail = 1
                    return theta, fail
    return theta, fail


def _rk4_step(t_nodes, q_nodes, n, t, theta, h, k1):
    """One RK4 step of size h from (t, theta), whose slope k1 is given."""
    k2 = _theta_rhs(t_nodes, q_nodes, n, t + 0.5 * h, theta + 0.5 * h * k1)
    k3 = _theta_rhs(t_nodes, q_nodes, n, t + 0.5 * h, theta + 0.5 * h * k2)
    k4 = _theta_rhs(t_nodes, q_nodes, n, t + h, theta + h * k3)
    return theta + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _theta_rhs(t_nodes, q_nodes, n, t, theta):
    q = _interp(t_nodes, q_nodes, n, t)
    s = sin(theta)
    c = cos(theta)
    return c * c - q * s * s


def _interp(t_nodes, q_nodes, n, t):
    """Linear interpolation of q at t, constant beyond the ends; the nodes
    are sorted lists, and bisect_left finds np.searchsorted's index."""
    if t <= t_nodes[0]:
        return q_nodes[0]
    if t >= t_nodes[n - 1]:
        return q_nodes[n - 1]
    i = bisect_left(t_nodes, t) - 1
    if i < 0:
        i = 0
    if i > n - 2:
        i = n - 2
    w = (t - t_nodes[i]) / (t_nodes[i + 1] - t_nodes[i])
    return q_nodes[i] * (1.0 - w) + q_nodes[i + 1] * w

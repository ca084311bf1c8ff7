"""Hot scalar kernels: tridiagonal inertia and the Pruefer phase sweep.

Both loops are inherently sequential recurrences over one mode's nodes, run
on Python floats (IEEE doubles, so results equal those on float64 arrays).
The inertia loop reads each coupling's square, made once per off-diagonal
by its caller, so a row costs d = a - b^2 / d and, in the common case of a
pivot at or above pivmin, one comparison; zero, tiny, negative and -inf
pivots are sorted out inside that comparison's branch, and NaN and +inf
pass it untouched.  The caller orients each sweep so that the longer run of
strong (diagonally dominant) rows comes last, and names the last weak row:
past it, the loop ends at the first pivot that dominates its coupling |b|
to the next row, as no later pivot can then be negative or zero.  The
Pruefer sweep is one function with its slopes written inline: one step
doubling attempt looks Q up at five points, the slope at the step's start
serves the full step, its first half step and every retry, and Q at a
step's end is Q at the next step's start.  The slopes use math.sin and
math.cos, which keep the angle a Python float; the tests compare them bit
for bit with np.sin and np.cos.
"""

from bisect import bisect_left
from itertools import chain, islice
from math import cos, sin


def tridiag_inertia(diag, off, off2, pivmin, stop=None):
    """Count negative eigenvalues of a symmetric tridiagonal matrix.

    LDL^T recurrence d_i = a_i - b_{i-1}^2 / d_{i-1}, the squares b^2 given
    as ``off2`` beside the couplings ``off``; the number of negative
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
    rows = zip(diag, chain((0.0,), off2))
    swept = 0
    # all rows up to the last weak one, then one at a time
    take = n if stop is None else stop + 1
    # a zero coupling ahead of the first row makes its pivot a - 0 / 1 = a
    d = 1.0
    while True:
        for a, b2 in islice(rows, take):
            d = a - b2 / d
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

    One attempt of step h from t compares a full RK4 step with two half
    steps; their slopes need Q at five points, t + h/4, mid = t + h/2,
    mid + h/4, mid + h/2 and t + h, each looked up once.  Q at t and the
    slope there carry over from the previous step and across retries.
    """
    theta = 0.0
    t = t0
    h = h_init
    n = t_nodes.shape[0]
    # Python lists: a scalar bisect and list indexing beat numpy's per-call cost
    t_nodes, q_nodes = t_nodes.tolist(), q_nodes.tolist()
    t_first, t_last, q_first, q_last = t_nodes[0], t_nodes[n - 1], q_nodes[0], q_nodes[n - 1]

    def q_at(x):
        """Q at x, constant beyond the ends; bisect_left finds the interval
        np.searchsorted finds."""
        if x <= t_first:
            return q_first
        if x >= t_last:
            return q_last
        i = bisect_left(t_nodes, x) - 1
        if i < 0:
            i = 0
        if i > n - 2:
            i = n - 2
        w = (x - t_nodes[i]) / (t_nodes[i + 1] - t_nodes[i])
        return q_nodes[i] * (1.0 - w) + q_nodes[i + 1] * w

    q_t = q_at(t)
    while t < t1:
        if t + h > t1:
            h = t1 - t
        s, c = sin(theta), cos(theta)
        k1 = c * c - q_t * s * s
        while True:
            hh = 0.5 * h
            mid = t + 0.5 * h
            q_quarter, q_mid = q_at(t + 0.5 * hh), q_at(mid)
            q_three_quarters, q_mid_end, q_end = q_at(mid + 0.5 * hh), q_at(mid + hh), q_at(t + h)
            # the full step
            x = theta + 0.5 * h * k1
            s, c = sin(x), cos(x)
            k2 = c * c - q_mid * s * s
            x = theta + 0.5 * h * k2
            s, c = sin(x), cos(x)
            k3 = c * c - q_mid * s * s
            x = theta + h * k3
            s, c = sin(x), cos(x)
            k4 = c * c - q_end * s * s
            big = theta + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            # the first half step, from the same slope k1
            x = theta + 0.5 * hh * k1
            s, c = sin(x), cos(x)
            k2 = c * c - q_quarter * s * s
            x = theta + 0.5 * hh * k2
            s, c = sin(x), cos(x)
            k3 = c * c - q_quarter * s * s
            x = theta + hh * k3
            s, c = sin(x), cos(x)
            k4 = c * c - q_mid * s * s
            half = theta + (hh / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            # the second half step, from mid
            s, c = sin(half), cos(half)
            k1_mid = c * c - q_mid * s * s
            x = half + 0.5 * hh * k1_mid
            s, c = sin(x), cos(x)
            k2 = c * c - q_three_quarters * s * s
            x = half + 0.5 * hh * k2
            s, c = sin(x), cos(x)
            k3 = c * c - q_three_quarters * s * s
            x = half + hh * k3
            s, c = sin(x), cos(x)
            k4 = c * c - q_mid_end * s * s
            two = half + (hh / 6.0) * (k1_mid + 2.0 * k2 + 2.0 * k3 + k4)
            err = abs(big - two)
            if err <= tol:
                theta = two
                t = t + h
                q_t = q_end
                if err < 0.03125 * tol and h < 0.25 * (t1 - t0):
                    h = 2.0 * h
                break
            h = 0.5 * h
            if h < h_min:
                return theta, 1
    return theta, 0

"""Hot scalar kernel: the Pruefer phase sweep.

The sweep is an inherently sequential recurrence over one mode's nodes, run
on Python floats (IEEE doubles, so results equal those on float64 arrays).
It is one function with its slopes written inline: one step doubling
attempt looks Q up at five points, the slope at the step's start serves the
full step, its first half step and every retry, and Q at a step's end is Q
at the next step's start.  A retry's step ends at the failed attempt's
midpoint and has its midpoint at the failed attempt's quarter point, so
those two lookups carry over too.  A lookup computes its cell from the mean
node spacing and checks it against the two nodes around it; only where the
check fails does it bisect.  The node tables are read through memoryviews
of their arrays, not copied to lists.  The slopes use math.sin and math.cos,
which keep the angle a Python float; the tests compare them bit for bit
with np.sin and np.cos.  Inertia counts run on LAPACK
(``spectral._negative_pivots``).
"""

from bisect import bisect_left
from math import cos, inf, sin

import numpy as np


def prufer_sweep(t_nodes, q_nodes, t0, t1, tol, h_init, h_min):
    """Integrate the Pruefer angle for -u'' + Q(t) u = 0 from t0 to t1.

    theta' = cos^2(theta) - Q(t) sin^2(theta), theta(t0) = 0 (u(t0) = 0).
    Q is linearly interpolated from (t_nodes, q_nodes), t_nodes sorted.
    Steps are RK4 with doubling-based error control at ``tol`` per step.
    Returns the final angle and a failure flag (1 if the step size
    underflowed h_min).

    One attempt of step h from t compares a full RK4 step with two half
    steps; their slopes need Q at five points, t + h/4, mid = t + h/2,
    mid + h/4, mid + h/2 and t + h, each looked up once, and mid + h/2 not
    at all where it rounds to t + h.  Q at t and the slope there carry over
    from the previous step and across retries.
    """
    theta = 0.0
    t = t0
    h = h_init
    n = t_nodes.shape[0]
    t_nodes = memoryview(np.ascontiguousarray(t_nodes, dtype=float))
    q_nodes = memoryview(np.ascontiguousarray(q_nodes, dtype=float))
    t_first, t_last, q_first, q_last = t_nodes[0], t_nodes[n - 1], q_nodes[0], q_nodes[n - 1]
    # on equal spacing, x inside the table lies in cell int((x - t_first) *
    # scale); a table without a finite scale bisects throughout
    span = t_last - t_first
    scale = (n - 1) / span if 0.0 < span < inf else inf
    inner = t_last if scale < inf else t_first
    last_cell = n - 2

    def q_at(x, t_first=t_first, inner=inner, scale=scale, last_cell=last_cell, t_nodes=t_nodes, q_nodes=q_nodes):
        """Q at x, constant beyond the ends.  Inside, a sorted table has one
        cell with t[i] < x <= t[i + 1], so a computed i that passes that
        check is the cell bisect_left (np.searchsorted) finds."""
        if t_first < x < inner:
            i = int((x - t_first) * scale)
            if i <= last_cell:
                lo, hi = t_nodes[i], t_nodes[i + 1]
                if lo < x <= hi:
                    w = (x - lo) / (hi - lo)
                    return q_nodes[i] * (1.0 - w) + q_nodes[i + 1] * w
        elif x <= t_first:
            return q_first
        elif x >= t_last:
            return q_last
        # an index the check refuses, a table without a scale, or NaN
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
        end = t + h
        q_end = q_at(end)
        mid = t + 0.5 * h
        q_mid = q_at(mid)
        while True:
            hh = 0.5 * h
            q_quarter = q_at(t + 0.5 * hh)
            q_three_quarters = q_at(mid + 0.5 * hh)
            mid_end = mid + hh
            q_mid_end = q_end if mid_end == end else q_at(mid_end)
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
                t = end
                q_t = q_end
                if err < 0.03125 * tol and h < 0.25 * (t1 - t0):
                    h = 2.0 * h
                break
            h = 0.5 * h
            if h < h_min:
                return theta, 1
            # the halved step ends at the old midpoint, and its midpoint is
            # the old quarter point: the same float expressions
            end, q_end = mid, q_mid
            mid, q_mid = t + 0.5 * h, q_quarter
    return theta, 0

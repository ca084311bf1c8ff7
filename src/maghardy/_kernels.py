"""The exact-element entries of a cell with a constant coefficient.

On a cell of length h where -u'' + q u = 0 with q constant, the solution
with nodal values u0 and u1 has the energy int u'^2 + q u^2 = c (u0^2 +
u1^2) - 2 s u0 u1.  With z = q h^2, h c = F(z) and h s = G(z) (Pruess, SIAM
J. Numer. Anal. 10, 1973).  ``spectral.prufer_count`` assembles its
tridiagonals from them.
"""

import numpy as np


def cell_entries(z):
    """(F(z), G(z)) for an array z of finite doubles above -pi^2:

    - z > 0: F = sqrt(z) coth sqrt(z) and G = sqrt(z) / sinh sqrt(z), written
      with expm1(-2 sqrt(z)) and exp(-sqrt(z)), so that no z overflows;
    - z < 0: F = k cot k and G = k / sin k, k = sqrt(-z) < pi;
    - |z| < 1e-4: the series 1 + z/3 - z^2/45 and 1 - z/6 + 7 z^2/360, whose
      first omitted terms are below 2.2e-15.
    """
    f, g = np.empty_like(z), np.empty_like(z)
    small = np.abs(z) < 1e-4
    f[small] = 1.0 + z[small] * (1.0 / 3.0 - z[small] / 45.0)
    g[small] = 1.0 + z[small] * (-1.0 / 6.0 + z[small] * (7.0 / 360.0))
    up = ~small & (z > 0.0)
    x = np.sqrt(z[up])
    em = -np.expm1(-2.0 * x)
    f[up] = x * (2.0 - em) / em
    g[up] = 2.0 * x * np.exp(-x) / em
    down = ~small & (z < 0.0)
    k = np.sqrt(-z[down])
    f[down] = k / np.tan(k)
    g[down] = k / np.sin(k)
    return f, g

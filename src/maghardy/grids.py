"""Grids in the log coordinate t = log r.

All radial machinery works on strictly increasing node sets in t.  Two basic
constructors are provided: uniform spacing, and geometric spacing in |t|
(needed for potentials whose level sets reach |t| ~ 1e6 and beyond).  The
``auto`` constructor glues a linear core on [-1, 1] onto geometric tails so
one grid can span, say, t in [-1e7, 5] without wasting nodes; an interval
beyond +-1 gets a tail alone.
"""

from dataclasses import dataclass, field

import numpy as np


def _sorted_unique(x):
    """The sorted distinct values of a 1-D float sequence, as ``np.unique``
    gives them for finite values, without loading ``numpy.ma`` (which
    ``np.unique`` does): sort, then keep each entry that differs from its
    predecessor.  The inputs are a few sorted runs, which timsort
    ("stable") merges faster than quicksort."""
    s = np.sort(np.asarray(x, dtype=float), kind="stable")
    keep = np.ones(s.shape, dtype=bool)
    keep[1:] = s[1:] != s[:-1]
    return s[keep]


@dataclass(frozen=True)
class Grid:
    """Strictly increasing t-nodes; Dirichlet conditions apply at both ends."""

    t: np.ndarray = field(repr=False)

    def __post_init__(self):
        t = np.asarray(self.t, dtype=float)
        if t.ndim != 1 or t.size < 3:
            raise ValueError("grid needs at least 3 nodes")
        if not np.all(np.isfinite(t)):
            raise ValueError("grid nodes must be finite")
        if not np.all(np.diff(t) > 0):
            raise ValueError("grid nodes must be strictly increasing")
        object.__setattr__(self, "t", t)

    @classmethod
    def uniform(cls, t_min: float, t_max: float, n: int) -> "Grid":
        return cls(np.linspace(t_min, t_max, n))

    @classmethod
    def geometric(cls, t_min: float, t_max: float, n: int) -> "Grid":
        """Nodes log-spaced in |t|; t_min and t_max must share a sign."""
        if t_min >= t_max:
            raise ValueError("t_min must be < t_max")
        if t_min > 0:
            nodes = np.geomspace(t_min, t_max, n)
        elif t_max < 0:
            nodes = -np.geomspace(-t_max, -t_min, n)[::-1]
        else:
            raise ValueError("geometric grid cannot straddle or touch t = 0")
        return cls(nodes)

    @classmethod
    def auto(cls, t_min: float, t_max: float, n: int) -> "Grid":
        """Linear nodes on [-1, 1], geometric tails outside.

        Only the pieces that meet [t_min, t_max] are built: a tail runs from
        |t| = 1, or from the interval's end nearer 0 where that lies beyond
        1, to its far end.  The node budget is split in proportion to the
        log-extent of each piece (2 for the core), so wide tails are resolved
        without starving the core.  ``n`` is that budget, not the node count:
        each piece gets at least 8 nodes, its share is rounded, and pieces
        that meet share their node at -1 or 1.  ``Grid.auto(-100, 100, 100)``
        gives 33 nodes to each piece and has 97 nodes.
        """
        pieces = []
        lo = max(t_min, -1.0)
        hi = min(t_max, 1.0)
        spans = []
        if t_min < -1.0:
            spans.append(("left", np.log10(-t_min) - np.log10(max(-t_max, 1.0))))
        if hi > lo:
            spans.append(("core", 2.0))
        if t_max > 1.0:
            spans.append(("right", np.log10(t_max) - np.log10(max(t_min, 1.0))))
        total = sum(s for _, s in spans)
        counts = {name: max(8, int(round(n * s / total))) for name, s in spans}
        if t_min < -1.0:
            pieces.append(-np.geomspace(max(-t_max, 1.0), -t_min, counts["left"])[::-1])
        if hi > lo:
            pieces.append(np.linspace(lo, hi, counts["core"]))
        if t_max > 1.0:
            pieces.append(np.geomspace(max(t_min, 1.0), t_max, counts["right"]))
        nodes = _sorted_unique(np.concatenate(pieces))
        nodes[0] = t_min
        nodes[-1] = t_max
        return cls(nodes)

    @classmethod
    def concat(cls, *grids: "Grid") -> "Grid":
        nodes = _sorted_unique(np.concatenate([g.t for g in grids]))
        return cls(nodes)

    def refine(self) -> "Grid":
        """Insert midpoints; the refined node set contains the original one."""
        mids = 0.5 * (self.t[:-1] + self.t[1:])
        return Grid(_sorted_unique(np.concatenate([self.t, mids])))

    @property
    def n(self) -> int:
        return self.t.size

    @property
    def t_min(self) -> float:
        return float(self.t[0])

    @property
    def t_max(self) -> float:
        return float(self.t[-1])

    @property
    def steps(self) -> np.ndarray:
        return np.diff(self.t)

    @property
    def max_step(self) -> float:
        return float(np.max(self.steps))

    def meta(self) -> dict:
        return {
            "n": self.n,
            "t_min": self.t_min,
            "t_max": self.t_max,
            "max_step": self.max_step,
        }

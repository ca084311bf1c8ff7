"""Closed-form inputs and oracles that only the tests use."""

from dataclasses import dataclass
from typing import Callable

import numpy as np

from maghardy.profiles import Potential, _as_array
from maghardy.weights import LevelSet, _measure_antiderivative


@dataclass(frozen=True)
class CallablePotential(Potential):
    """Potential defined by a closed-form density e^{2t} V(t)."""

    density: Callable

    def e2t_v(self, t):
        return self.density(_as_array(t))


def level_measure(ls: LevelSet) -> float:
    """int over the level set of w0(r)(1+|log r|) r dr, in closed form."""
    F = _measure_antiderivative(np.reshape(ls.intervals, -1))
    return float(np.sum(F[1::2] - F[0::2]))

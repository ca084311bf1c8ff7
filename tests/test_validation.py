"""Input validation that no other test reaches: each bad input raises its
documented exception type with its documented message, before any work."""

import numpy as np
import pytest

import maghardy as mh
from maghardy.errors import ParameterError

_NOT_INCREASING = "grid nodes must be strictly increasing"
_STRADDLES = "geometric grid cannot straddle or touch t = 0"
_NEEDS_GRID = "inertia and oscillation methods require a grid"
_CUT = "cut list entries are |t_cut| values and must be positive"
_NAN_FIELD = mh.CustomField(np.array([0.0, 1.0]), np.array([np.nan, 0.0]), "regular")


def _ladder(grid, method):
    return mh.count_ladder(mh.ZeroField(), mh.VSigma(2.0), [10.0], grid, method)


CASES = [
    pytest.param(lambda: mh.Grid(np.array([0.0, 1.0])), ValueError, "grid needs at least 3 nodes",
                 id="grid-two-nodes"),
    pytest.param(lambda: mh.Grid(np.array([0.0, np.nan, 1.0])), ValueError, "grid nodes must be finite",
                 id="grid-nan-node"),
    pytest.param(lambda: mh.Grid(np.array([0.0, 1.0, np.inf])), ValueError, "grid nodes must be finite",
                 id="grid-inf-node"),
    pytest.param(lambda: mh.Grid(np.array([0.0, 2.0, 1.0])), ValueError, _NOT_INCREASING,
                 id="grid-decreasing"),
    pytest.param(lambda: mh.Grid(np.array([0.0, 1.0, 1.0])), ValueError, _NOT_INCREASING,
                 id="grid-repeated"),
    pytest.param(lambda: mh.Grid.geometric(1.0, 1.0, 5), ValueError, "t_min must be < t_max",
                 id="geometric-empty-range"),
    pytest.param(lambda: mh.Grid.geometric(-1.0, 1.0, 5), ValueError, _STRADDLES,
                 id="geometric-straddles-0"),
    pytest.param(lambda: mh.Grid.geometric(-1.0, 0.0, 5), ValueError, _STRADDLES,
                 id="geometric-touches-0"),
    pytest.param(lambda: _ladder(mh.Grid.uniform(-5.0, -2.5, 50), "wkb"), ValueError,
                 "unknown method 'wkb'", id="ladder-unknown-method"),
    pytest.param(lambda: _ladder(None, "inertia"), ValueError, _NEEDS_GRID,
                 id="ladder-inertia-without-grid"),
    pytest.param(lambda: _ladder(None, "prufer"), ValueError, _NEEDS_GRID,
                 id="ladder-prufer-without-grid"),
    pytest.param(lambda: mh.ShiftedLogWeight(r0=1.0), ValueError, "r0 must exceed 1",
                 id="shifted-log-r0-1"),
    pytest.param(lambda: mh.v_norm_a(mh.VSigma(2.0), 2.0, cap_schedule="triple"), ValueError,
                 "cap_schedule must be 'double' or 'square'", id="vnorm-unknown-schedule"),
    pytest.param(lambda: mh.log_moment(mh.LogSquaredWeight(), 0.0, 1.0), ValueError,
                 "R must exceed 1", id="log-moment-R-1"),
    pytest.param(lambda: mh.OriginProbe(alpha=0.4, t_cut=0.0), ParameterError,
                 "t_cut must be negative", id="origin-probe-cut-0"),
    pytest.param(lambda: mh.TailProbe(n=1.5, alpha_exp=0.5), ParameterError,
                 "n must be at least 2", id="tail-probe-n-below-2"),
    pytest.param(lambda: mh.TailProbe(n=10.0, alpha_exp=1.0), ParameterError,
                 "alpha_exp must be below 1", id="tail-probe-alpha-1"),
    pytest.param(lambda: mh.hardy_probe_at_zero(mh.ZeroField(), b=1.5, alpha=0.4, cut_list=[8, 0]),
                 ParameterError, _CUT, id="probe-zero-cut-0"),
    pytest.param(lambda: mh.check_f_identity(10.0, mh.Grid.uniform(-1.0, np.log(10.0), 5)),
                 ValueError, "grid touches r = r0 where f is singular", id="f-identity-grid-at-log-r0"),
    # once merged by int(m): mu_star = 1.4649, mode -0.5 alone (0.5 alone gives 0.2323)
    pytest.param(lambda: mh.hardy_constant(mh.BumpField(0.5), mh.LogSquaredWeight(),
                                           mh.Grid.uniform(-8, 8, 201), [0.5, -0.5], 0),
                 ValueError, "modes must be integers", id="hardy-non-integer-modes"),
    # a NaN flux density makes alpha, and every mode's K, NaN
    pytest.param(lambda: mh.hardy_constant(_NAN_FIELD, mh.LogSquaredWeight(), mh.Grid.uniform(-2, 2, 41)),
                 ValueError, "pencil entries must be finite and the masses nonnegative",
                 id="hardy-non-finite-field"),
]


@pytest.mark.parametrize("call, exc_type, message", CASES)
def test_bad_input_raises_its_documented_error(call, exc_type, message):
    with pytest.raises(exc_type) as info:
        call()
    assert type(info.value) is exc_type
    assert str(info.value) == message

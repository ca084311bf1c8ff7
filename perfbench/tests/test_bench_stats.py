"""The rule that picks the tail percentile."""

import pytest

from perfbench import stats


@pytest.mark.parametrize(
    "n, pct, beyond",
    [
        (19, 50.0, 9),
        (20, 50.0, 10),
        (37, 50.0, 18),
        (38, 75.0, 10),
        (40, 75.0, 10),
        (99, 90.0, 10),
        (100, 90.0, 10),
        (200, 95.0, 10),
        (1000, 99.0, 10),
        (10000, 99.9, 10),
    ],
)
def test_tail_is_highest_ladder_percentile_with_ten_beyond(n, pct, beyond):
    values = [float(i) for i in range(n)]
    p, value, got_beyond = stats.tail(values)
    assert (p, got_beyond) == (pct, beyond)
    assert value == pytest.approx(stats.percentile(values, pct))
    assert sum(v > value for v in values) == beyond


def test_percentile_interpolates():
    assert stats.percentile([1.0, 2.0, 3.0, 4.0], 50) == pytest.approx(2.5)
    assert stats.percentile([5.0], 90) == 5.0

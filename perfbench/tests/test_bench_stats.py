import pytest

import stats


@pytest.mark.parametrize("n", [0, 1, 10])
def test_tail_needs_more_than_ten_samples(n):
    assert stats.tail(range(n)) is None


@pytest.mark.parametrize("n", [11, 12, 37, 100, 1000])
def test_tail_leaves_exactly_ten_samples_beyond(n):
    values = [float(x) for x in reversed(range(n))]
    value, percentile, count = stats.tail(values)
    assert count == n
    assert sum(v > value for v in values) == 10
    assert percentile == pytest.approx(100.0 * (n - 10) / n)


def test_tail_of_hundred_is_p90():
    value, percentile, _ = stats.tail(range(1, 101))
    assert (value, percentile) == (90, 90.0)


def test_quartile_spread_is_relative_to_median():
    assert stats.quartile_spread([10.0] * 10) == 0.0
    assert stats.quartile_spread([1, 2, 3, 4, 5, 6, 7, 8, 9, 10]) == pytest.approx(
        (8.25 - 2.75) / 5.5)

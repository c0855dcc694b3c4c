import pytest

from stats import (
    UnsupportedPercentile, min_samples, percentile, self_time, union_length,
)


@pytest.mark.parametrize(
    "q, needed", [(10, 101), (25, 41), (50, 20), (90, 100), (99, 1000)]
)
def test_percentile_needs_ten_samples_beyond_it(q, needed):
    assert min_samples(q) == needed
    with pytest.raises(UnsupportedPercentile):
        percentile(list(range(needed - 1)), q)
    values = list(range(needed))
    result = percentile(values, q)
    beyond = [v for v in values if (v < result if q < 50 else v > result)]
    assert len(beyond) >= 10


def test_percentile_is_nearest_rank():
    values = [float(v) for v in range(1, 101)]
    assert percentile(values, 50) == 50.0
    assert percentile(values, 90) == 90.0


def test_union_counts_overlaps_once():
    assert union_length([(0, 2), (1, 3), (5, 6)]) == pytest.approx(4.0)
    assert union_length([(0, 10), (2, 3)]) == pytest.approx(10.0)
    assert union_length([]) == 0.0


def test_self_time_never_subtracts_an_instant_twice():
    # Two overlapping children on the span's thread and one parallel
    # child on an executor thread together cover [1, 6] once.
    children = [(1.0, 4.0), (2.0, 5.0), (3.0, 6.0)]
    assert self_time(0.0, 10.0, children) == pytest.approx(5.0)


def test_self_time_clips_children_to_the_span():
    assert self_time(2.0, 4.0, [(0.0, 3.0), (3.5, 9.0), (5.0, 6.0)]) == (
        pytest.approx(0.5)
    )
    assert self_time(0.0, 1.0, []) == pytest.approx(1.0)

"""The percentile rule and interval arithmetic of ``benchstats``."""

import pytest

from benchstats import (
    describe,
    median,
    nearest_rank,
    tail_percentile,
    union_length,
)


def test_median_odd_and_even():
    assert median([3.0, 1.0, 2.0]) == 2.0
    assert median([4.0, 1.0, 3.0, 2.0]) == 2.5
    with pytest.raises(ValueError):
        median([])


def test_nearest_rank():
    values = [float(v) for v in range(1, 101)]
    assert nearest_rank(values, 50) == 50.0
    assert nearest_rank(values, 90) == 90.0
    assert nearest_rank(values, 100) == 100.0
    assert nearest_rank([7.0], 99) == 7.0
    with pytest.raises(ValueError):
        nearest_rank(values, 0)


def test_tail_percentile_needs_ten_samples_beyond():
    # Under 20 samples not even the median has ten beyond it.
    assert tail_percentile([float(v) for v in range(19)]) is None
    assert tail_percentile([float(v) for v in range(20)]) == (50.0, 9.0)
    # 40 samples: p75 leaves exactly ten above, p90 only four.
    assert tail_percentile([float(v) for v in range(40)]) == (75.0, 29.0)
    # 100 samples: p90 leaves ten above; p95 only five.
    assert tail_percentile([float(v) for v in range(100)]) == (90.0, 89.0)
    assert tail_percentile([float(v) for v in range(1000)])[0] == 99.0


def test_tail_percentile_counts_strictly_greater_samples():
    # Ties at the percentile value are not "beyond" it.
    assert tail_percentile([1.0] * 95 + [2.0] * 5) is None
    assert tail_percentile([1.0] * 80 + [2.0] * 20) == (75.0, 1.0)


def test_describe_mentions_tail_only_when_there_is_one():
    assert describe([1.0, 2.0, 3.0]) == "median=2 n=3"
    assert "p90=" in describe([float(v) for v in range(100)])


def test_union_length_merges_and_clips():
    assert union_length([]) == 0.0
    assert union_length([(0.0, 1.0), (2.0, 3.0)]) == 2.0
    assert union_length([(0.0, 2.0), (1.0, 3.0)]) == 3.0
    assert union_length([(0.0, 5.0), (1.0, 2.0)]) == 5.0
    assert union_length([(0.0, 5.0), (4.0, 9.0)], lo=1.0, hi=6.0) == 5.0
    assert union_length([(7.0, 9.0)], lo=0.0, hi=5.0) == 0.0

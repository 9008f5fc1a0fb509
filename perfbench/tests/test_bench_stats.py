"""The percentile rule: median plus the highest percentile with at least
ten samples beyond it."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from stats import percentile, summarize, tail_percentile  # noqa: E402


@pytest.mark.parametrize(
    "n, expected",
    [(1, None), (19, None), (20, 50.0), (39, 50.0), (40, 75.0), (99, 75.0),
     (100, 90.0), (199, 90.0), (200, 95.0), (1000, 99.0), (9999, 99.0), (10000, 99.9)],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected


def test_summarize_reports_tail_only_when_it_has_ten_beyond():
    small = summarize(range(10))
    assert small == {"n": 10, "min": 0, "max": 9, "mean": 4.5, "median": 4.5}
    big = summarize(range(100))
    assert big["n"] == 100 and big["tail_p"] == 90.0
    assert big["tail"] == pytest.approx(89.1)
    assert sum(1 for v in range(100) if v > big["tail"]) >= 10


def test_percentile_needs_two_samples():
    with pytest.raises(ValueError):
        percentile([1.0], 50)

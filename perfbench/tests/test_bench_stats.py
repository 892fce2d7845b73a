"""Percentiles and tail-percentile selection."""

import numpy as np
import pytest

from common import latency_summary, percentile, tail_percentile

LADDER = (50, 90, 99, 99.9)


@pytest.mark.parametrize("n, expected", [
    (1, 50), (19, 50), (20, 50), (99, 50), (100, 90), (999, 90), (1000, 99),
    (9999, 99), (10000, 99.9), (50000, 99.9)])
def test_tail_is_highest_rung_with_ten_samples_beyond(n, expected):
    assert tail_percentile(n, LADDER, 10) == expected


def test_percentile_matches_numpy_linear():
    values = np.random.default_rng(3).exponential(size=257).tolist()
    for pct in (0, 25, 50, 90, 95, 99, 99.9, 100):
        assert percentile(values, pct) == pytest.approx(
            np.percentile(values, pct), rel=1e-12)


def test_latency_summary_reports_tail_rung_and_count():
    values = list(range(1, 1001))
    p50, tail, pct, n = latency_summary(values, LADDER, 10)
    assert (p50, pct, n) == (500.5, 99, 1000)
    assert tail == pytest.approx(np.percentile(values, 99))

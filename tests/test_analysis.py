"""Tests for the analysis helpers and report formatting."""

import pytest

from repro.analysis import (
    empirical_cdf,
    format_table,
    growth_ratios,
    mean,
    median,
    percentile,
    slowdown,
    stddev,
)


def test_mean_median_stddev_basic():
    assert mean([1, 2, 3]) == 2
    assert mean([]) == 0.0
    assert median([5, 1, 3]) == 3
    assert median([1, 2, 3, 4]) == 2.5
    assert stddev([2, 2, 2]) == 0.0
    assert stddev([1]) == 0.0


def test_percentile_interpolates_and_validates():
    values = [10, 20, 30, 40]
    assert percentile(values, 0.5) == 25
    with pytest.raises(ValueError):
        percentile(values, 1.5)


def test_empirical_cdf_monotone():
    cdf = empirical_cdf([3, 1, 2])
    assert [p.value for p in cdf] == [1, 2, 3]
    assert cdf[-1].fraction == 1.0


def test_slowdown_relative_to_baseline():
    assert slowdown([10, 10, 10], [11, 11, 11]) == pytest.approx(0.1)
    assert slowdown([], [1]) == 0.0


def test_growth_ratios():
    assert growth_ratios([1, 2, 8]) == [2.0, 4.0]
    assert growth_ratios([0, 5]) == []


def test_format_table_aligns_and_titles():
    text = format_table(["a", "bb"], [[1, 2.5], ["xxx", "y"]], title="T")
    lines = text.splitlines()
    assert lines[0] == "T"
    assert "a" in lines[1] and "bb" in lines[1]
    assert len(lines) == 5

"""Statistics and reporting helpers for the benchmark harness."""

from .reporting import format_table
from .stats import (
    CdfPoint,
    empirical_cdf,
    growth_ratios,
    mean,
    median,
    percentile,
    slowdown,
    stddev,
)

__all__ = [
    "format_table",
    "CdfPoint",
    "empirical_cdf",
    "growth_ratios",
    "mean",
    "median",
    "percentile",
    "slowdown",
    "stddev",
]

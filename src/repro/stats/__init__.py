"""Statistics substrate: descriptive stats, Welch's t-test, CDFs, histograms.

Everything here is implemented from first principles on numpy (the t-test's
p-value uses an incomplete-beta evaluation of the Student-t survival
function); tests cross-check against scipy where it is available.
"""

from repro.stats.cdf import EmpiricalCDF, cdf_dominates
from repro.stats.descriptive import (
    gini_coefficient,
    iqr,
    median,
    percentile,
    summarize,
    top_share,
)
from repro.stats.histogram import Histogram, linear_histogram, log_histogram
from repro.stats.timeseries import (
    WEEK_SECONDS,
    bucket_by_day,
    bucket_by_week,
    cumulative_series,
    day_of_week,
    week_index,
)
from repro.stats.ttest import TTestResult, welch_t_test

__all__ = [
    "EmpiricalCDF",
    "Histogram",
    "TTestResult",
    "WEEK_SECONDS",
    "bucket_by_day",
    "bucket_by_week",
    "cdf_dominates",
    "cumulative_series",
    "day_of_week",
    "gini_coefficient",
    "iqr",
    "linear_histogram",
    "log_histogram",
    "median",
    "percentile",
    "summarize",
    "top_share",
    "week_index",
    "welch_t_test",
]

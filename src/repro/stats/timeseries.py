"""Calendar bucketing for the weekly/daily time-series plots.

All timestamps in the reproduction are seconds since the *marketplace epoch*,
which is defined to be **Monday, July 2, 2012, 00:00** — the start of the
first week covered by the dataset.  Keeping the epoch on a Monday makes
day-of-week arithmetic trivial.
"""

from __future__ import annotations

import datetime as _dt

import numpy as np

from repro.tables import Table, group_by

DAY_SECONDS = 86_400
WEEK_SECONDS = 7 * DAY_SECONDS

#: Marketplace epoch as a real calendar date (Monday).
EPOCH_DATE = _dt.date(2012, 7, 2)

DAY_NAMES = ("Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun")


def week_index(timestamps) -> np.ndarray:
    """Week number (0-based) of each timestamp since the marketplace epoch."""
    t = np.asarray(timestamps, dtype=np.int64)
    if np.any(t < 0):
        raise ValueError("timestamps must be non-negative (seconds since epoch)")
    return t // WEEK_SECONDS


def day_index(timestamps) -> np.ndarray:
    """Day number (0-based) of each timestamp since the marketplace epoch."""
    t = np.asarray(timestamps, dtype=np.int64)
    if np.any(t < 0):
        raise ValueError("timestamps must be non-negative (seconds since epoch)")
    return t // DAY_SECONDS


def day_of_week(timestamps) -> np.ndarray:
    """0=Mon .. 6=Sun for each timestamp (the epoch is a Monday)."""
    return day_index(timestamps) % 7


def week_start_date(week: int) -> _dt.date:
    """Calendar date of the Monday starting the given week index."""
    return EPOCH_DATE + _dt.timedelta(weeks=int(week))


def date_to_timestamp(date: _dt.date) -> int:
    """Seconds since the marketplace epoch at midnight of ``date``."""
    delta = date - EPOCH_DATE
    if delta.days < 0:
        raise ValueError(f"{date} precedes the marketplace epoch {EPOCH_DATE}")
    return delta.days * DAY_SECONDS


def bucket_by_week(timestamps, *, num_weeks: int | None = None,
                   weights=None) -> np.ndarray:
    """Per-week totals: counts, or sums of ``weights`` when provided.

    The result has ``num_weeks`` entries (default: enough to cover the data).
    """
    weeks = week_index(timestamps)
    if num_weeks is None:
        num_weeks = int(weeks.max()) + 1 if weeks.size else 0
    if weights is None:
        return np.bincount(weeks, minlength=num_weeks).astype(np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    return np.bincount(weeks, weights=weights, minlength=num_weeks)


def distinct_by_bucket(buckets, values, *, num_buckets: int) -> np.ndarray:
    """Distinct ``values`` per bucket, as floats of length ``num_buckets``.

    ``buckets`` holds each row's non-negative bucket index (a week index
    from :func:`week_index`, or a week and class folded into one code);
    entry ``b`` is ``len(np.unique(values[buckets == b]))``, 0 for a bucket
    without rows.  Rows of buckets past ``num_buckets`` are dropped.  One
    grouped ``nunique`` counts every bucket at once.
    """
    per_bucket = group_by(
        Table({"bucket": buckets, "value": values}, copy=False), "bucket"
    ).agg({"distinct": ("value", "nunique")})
    out = np.zeros(num_buckets)
    in_range = per_bucket["bucket"] < num_buckets
    out[per_bucket["bucket"][in_range]] = per_bucket["distinct"][in_range]
    return out


def bucket_by_day(timestamps, *, num_days: int | None = None,
                  weights=None) -> np.ndarray:
    """Per-day totals, analogous to :func:`bucket_by_week`."""
    days = day_index(timestamps)
    if num_days is None:
        num_days = int(days.max()) + 1 if days.size else 0
    if weights is None:
        return np.bincount(days, minlength=num_days).astype(np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    return np.bincount(days, weights=weights, minlength=num_days)


def day_of_week_totals(timestamps) -> np.ndarray:
    """Total event counts per weekday (length-7 array, Mon..Sun)."""
    return np.bincount(day_of_week(timestamps), minlength=7).astype(np.float64)


def cumulative_series(timestamps, *, num_weeks: int | None = None) -> np.ndarray:
    """Cumulative event count by the end of each week (Figures 8 and 12)."""
    weekly = bucket_by_week(timestamps, num_weeks=num_weeks)
    return np.cumsum(weekly)

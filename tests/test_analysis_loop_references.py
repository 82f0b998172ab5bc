"""The grouped analysis kernels against frozen copies of their old loops.

``worker_profiles``, ``weekly_active_workers``, ``engagement_split`` and
the distinct-tasks series of ``weekly_arrivals`` once looped in Python,
with one ``np.unique`` per worker or per week.  They now run grouped
kernels (``group_by(...).agg`` with ``nunique``, ``min``/``max`` and
integer-second sums).  The loops are copied here verbatim and every output
array must be equal element for element, floats included, on the tiny and
small studies.  ``source_statistics`` once recomputed the per-batch median
durations from the instance log; it now reads ``batch_table.task_time``,
and the two must agree on every instance.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import marketplace as mkt
from repro.analysis import workers as wk
from repro.stats.timeseries import DAY_SECONDS, week_index
from repro.study import build_study


def _loop_worker_profiles(released):
    instances = released.instances
    workers = instances["worker_id"]
    start = instances["start_time"]
    duration = (instances["end_time"] - start).astype(np.float64)
    days = start // DAY_SECONDS
    trust = instances["trust"]

    order = np.argsort(workers, kind="stable")
    sw = workers[order]
    starts = np.flatnonzero(np.r_[True, sw[1:] != sw[:-1]])
    ends = np.r_[starts[1:], len(sw)]

    n = len(starts)
    out_ids = sw[starts]
    num_tasks = (ends - starts).astype(np.int64)
    lifetime = np.empty(n, dtype=np.int64)
    working = np.empty(n, dtype=np.int64)
    hours = np.empty(n)
    mean_trust = np.empty(n)
    days_ordered = days[order]
    duration_ordered = duration[order]
    trust_ordered = trust[order]
    for i, (s, e) in enumerate(zip(starts, ends)):
        d = days_ordered[s:e]
        lifetime[i] = int(d.max() - d.min()) + 1
        working[i] = len(np.unique(d))
        hours[i] = duration_ordered[s:e].sum() / wk.SECONDS_PER_HOUR
        mean_trust[i] = trust_ordered[s:e].mean()

    return wk.WorkerProfiles(
        worker_id=out_ids.astype(np.int64),
        num_tasks=num_tasks,
        lifetime_days=lifetime,
        working_days=working,
        total_hours=hours,
        mean_trust=mean_trust,
    )


def _loop_weekly_active_workers(released, *, num_weeks):
    weeks = week_index(released.instances["start_time"])
    workers = released.instances["worker_id"]
    out = np.zeros(num_weeks)
    order = np.argsort(weeks, kind="stable")
    sorted_weeks = weeks[order]
    starts = np.flatnonzero(np.r_[True, sorted_weeks[1:] != sorted_weeks[:-1]])
    ends = np.r_[starts[1:], len(sorted_weeks)]
    for s, e in zip(starts, ends):
        w = int(sorted_weeks[s])
        if w < num_weeks:
            out[w] = len(np.unique(workers[order[s:e]]))
    return out


def _loop_engagement_split(released, *, num_weeks):
    instances = released.instances
    workers = instances["worker_id"]
    counts_per_worker = np.bincount(workers)
    ranked = np.argsort(counts_per_worker)[::-1]
    active_ids = ranked[counts_per_worker[ranked] > 0]
    cut = max(1, int(round(0.10 * len(active_ids))))
    top_set = np.zeros(counts_per_worker.size, dtype=bool)
    top_set[active_ids[:cut]] = True

    weeks = week_index(instances["start_time"])
    in_range = weeks < num_weeks
    weeks = weeks[in_range]
    is_top = top_set[workers[in_range]]
    durations = (
        instances["end_time"][in_range] - instances["start_time"][in_range]
    ).astype(np.float64)

    tasks_top = np.bincount(weeks[is_top], minlength=num_weeks).astype(np.float64)
    tasks_bot = np.bincount(weeks[~is_top], minlength=num_weeks).astype(np.float64)

    def mean_active_time(mask):
        time_total = np.bincount(
            weeks[mask], weights=durations[mask], minlength=num_weeks
        )
        distinct = np.zeros(num_weeks)
        wk_ = weeks[mask]
        ids = workers[in_range][mask]
        order = np.argsort(wk_, kind="stable")
        sw = wk_[order]
        starts = np.flatnonzero(np.r_[True, sw[1:] != sw[:-1]])
        ends = np.r_[starts[1:], len(sw)]
        for s, e in zip(starts, ends):
            distinct[sw[s]] = len(np.unique(ids[order[s:e]]))
        with np.errstate(invalid="ignore", divide="ignore"):
            return np.where(distinct > 0, time_total / distinct, 0.0)

    return mkt.EngagementSplit(
        tasks_top10=tasks_top,
        tasks_bottom90=tasks_bot,
        active_time_top10=mean_active_time(is_top),
        active_time_bottom90=mean_active_time(~is_top),
    )


def _loop_distinct_tasks_issued(enriched, *, num_weeks):
    batch_table = enriched.batch_table
    weeks = week_index(batch_table["created_at"])
    clusters = batch_table["cluster_id"]
    distinct = np.zeros(num_weeks)
    for w in range(num_weeks):
        mask = weeks == w
        if mask.any():
            distinct[w] = len(np.unique(clusters[mask]))
    return distinct


def _assert_fields_equal(got, expected, fields):
    for field in fields:
        a, b = getattr(got, field), getattr(expected, field)
        assert a.dtype == b.dtype, field
        assert np.array_equal(a, b), field


@pytest.fixture(scope="module", params=["tiny", "small"])
def loop_study(request):
    if request.param == "tiny":
        return request.getfixturevalue("study")
    # Uncached, so no other test's study turns into a warm load.
    return build_study(request.param, seed=7, cache=False)


def test_worker_profiles_match_loop(loop_study):
    _assert_fields_equal(
        wk.worker_profiles(loop_study.released),
        _loop_worker_profiles(loop_study.released),
        ("worker_id", "num_tasks", "lifetime_days", "working_days",
         "total_hours", "mean_trust"),
    )


def test_weekly_active_workers_match_loop(loop_study):
    num_weeks = loop_study.config.num_weeks
    got = mkt.weekly_active_workers(loop_study.released, num_weeks=num_weeks)
    expected = _loop_weekly_active_workers(
        loop_study.released, num_weeks=num_weeks
    )
    assert got.dtype == expected.dtype
    assert np.array_equal(got, expected)


def test_engagement_split_matches_loop(loop_study):
    num_weeks = loop_study.config.num_weeks
    _assert_fields_equal(
        mkt.engagement_split(loop_study.released, num_weeks=num_weeks),
        _loop_engagement_split(loop_study.released, num_weeks=num_weeks),
        ("tasks_top10", "tasks_bottom90", "active_time_top10",
         "active_time_bottom90"),
    )


def test_distinct_tasks_issued_match_loop(loop_study):
    num_weeks = loop_study.config.num_weeks
    got = mkt.weekly_arrivals(
        loop_study.released, loop_study.enriched, num_weeks=num_weeks
    ).distinct_tasks_issued
    expected = _loop_distinct_tasks_issued(
        loop_study.enriched, num_weeks=num_weeks
    )
    assert np.array_equal(got, expected)


def test_short_horizon_drops_later_weeks(loop_study):
    # A horizon shorter than the data: weeks past it are dropped, as the
    # loop skips them.
    released = loop_study.released
    for num_weeks in (loop_study.config.num_weeks // 2, 1):
        assert np.array_equal(
            mkt.weekly_active_workers(released, num_weeks=num_weeks),
            _loop_weekly_active_workers(released, num_weeks=num_weeks),
        )


def test_engagement_split_before_the_first_instance_is_zero(loop_study):
    # No instance starts within the horizon.  The loop raised IndexError
    # on the empty class; the grouped count reads 0 for every week.
    released = loop_study.released
    num_weeks = int(week_index(released.instances["start_time"]).min())
    split = mkt.engagement_split(released, num_weeks=num_weeks)
    for series in (split.tasks_top10, split.tasks_bottom90,
                   split.active_time_top10, split.active_time_bottom90):
        assert np.array_equal(series, np.zeros(num_weeks))


def _recomputed_batch_medians(released):
    """The per-instance batch median ``source_statistics`` once computed."""
    from repro.tables import Table, group_by

    instances = released.instances
    duration = (instances["end_time"] - instances["start_time"]).astype(
        np.float64
    )
    batch = instances["batch_id"]
    per_batch = group_by(
        Table({"batch_id": batch, "duration": duration}, copy=False),
        "batch_id",
    ).agg({"median": ("duration", "median")})
    return per_batch["median"][np.searchsorted(per_batch["batch_id"], batch)]


def test_batch_table_holds_the_batch_medians(loop_study):
    released, enriched = loop_study.released, loop_study.enriched
    batch_table = enriched.batch_table
    lookup = np.full(int(batch_table["batch_id"].max()) + 1, np.nan)
    lookup[batch_table["batch_id"]] = batch_table["task_time"]
    got = lookup[released.instances["batch_id"]]
    expected = _recomputed_batch_medians(released)
    assert got.dtype == expected.dtype
    assert got.tobytes() == expected.tobytes()


def test_source_statistics_match_recomputed_medians(loop_study):
    released = loop_study.released
    instances = released.instances
    duration = (instances["end_time"] - instances["start_time"]).astype(
        np.float64
    )
    relative = duration / np.maximum(_recomputed_batch_medians(released), 1e-9)
    from repro.tables import Table, group_by

    expected = group_by(
        Table(
            {"source": instances.column("source"), "relative_time": relative},
            copy=False,
        ),
        "source",
    ).agg({"mean_relative_task_time": ("relative_time", "mean")})
    stats = wk.source_statistics(released, loop_study.enriched)
    assert np.array_equal(stats["source"], expected["source"])
    assert (
        stats["mean_relative_task_time"].tobytes()
        == expected["mean_relative_task_time"].tobytes()
    )

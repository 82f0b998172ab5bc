"""Marketplace-dynamics analyses (paper §3).

All functions consume the released/enriched data only.  "Task instances
arriving" follow the batch creation time (work becomes available when its
batch is posted); completions follow instance end times.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dataset.release import ReleasedDataset
from repro.enrichment.labels import split_labels
from repro.enrichment.pipeline import EnrichedDataset
from repro.stats.timeseries import (
    bucket_by_day,
    bucket_by_week,
    distinct_by_bucket,
    week_index,
)
from repro.tables import dict_encode
from repro.taxonomy.labels import (
    is_complex_data,
    is_complex_goal,
    is_complex_operator,
)


# --------------------------------------------------------------------- #
# §3.1 Task arrivals
# --------------------------------------------------------------------- #

@dataclass(frozen=True)
class ArrivalSeries:
    """Weekly marketplace-load series (Figures 1, 2)."""

    instances_issued: np.ndarray  # per week, by batch creation
    instances_completed: np.ndarray  # per week, by instance end time
    batches_issued: np.ndarray
    distinct_tasks_issued: np.ndarray  # clusters with >= 1 batch that week
    median_pickup_time: np.ndarray  # per week, NaN when no batch


def weekly_arrivals(
    released: ReleasedDataset, enriched: EnrichedDataset, *, num_weeks: int
) -> ArrivalSeries:
    """All weekly §3.1 series in one pass."""
    batch_table = enriched.batch_table
    created = batch_table["created_at"]
    instances_per_batch = batch_table["num_instances"].astype(np.float64)

    issued = bucket_by_week(created, num_weeks=num_weeks, weights=instances_per_batch)
    batches = bucket_by_week(created, num_weeks=num_weeks)

    completed = bucket_by_week(
        np.minimum(released.instances["end_time"], num_weeks * 7 * 86400 - 1),
        num_weeks=num_weeks,
    )

    # Distinct tasks (clusters) per week.
    weeks = week_index(created)
    distinct = distinct_by_bucket(
        weeks, batch_table["cluster_id"], num_buckets=num_weeks
    )

    # Median pickup time per week (across batches created that week).
    pickup = batch_table["pickup_time"]
    median_pickup = np.full(num_weeks, np.nan)
    order = np.argsort(weeks, kind="stable")
    sorted_weeks = weeks[order]
    starts = np.flatnonzero(np.r_[True, sorted_weeks[1:] != sorted_weeks[:-1]])
    ends = np.r_[starts[1:], len(sorted_weeks)]
    for s, e in zip(starts, ends):
        median_pickup[sorted_weeks[s]] = float(np.median(pickup[order[s:e]]))

    return ArrivalSeries(
        instances_issued=issued,
        instances_completed=completed,
        batches_issued=batches,
        distinct_tasks_issued=distinct,
        median_pickup_time=median_pickup,
    )


@dataclass(frozen=True)
class LoadVariation:
    """§3.1's headline load-variation statistics (daily granularity)."""

    median_daily_instances: float
    busiest_day_instances: float
    lightest_day_instances: float
    busiest_over_median: float
    lightest_over_median: float


def load_variation(
    enriched: EnrichedDataset, *, start_week: int, num_weeks: int
) -> LoadVariation:
    """Daily instance-arrival variation within the active regime."""
    batch_table = enriched.batch_table
    created = batch_table["created_at"]
    weights = batch_table["num_instances"].astype(np.float64)
    daily = bucket_by_day(created, num_days=num_weeks * 7, weights=weights)
    regime = daily[start_week * 7:]
    active = regime[regime > 0]
    if active.size == 0:
        raise ValueError("no activity in the requested regime window")
    med = float(np.median(active))
    busiest = float(active.max())
    lightest = float(active.min())
    return LoadVariation(
        median_daily_instances=med,
        busiest_day_instances=busiest,
        lightest_day_instances=lightest,
        busiest_over_median=busiest / med,
        lightest_over_median=lightest / med,
    )


def weekday_totals(enriched: EnrichedDataset) -> np.ndarray:
    """Instances issued per day-of-week, Mon..Sun (Figure 3)."""
    batch_table = enriched.batch_table
    weights = batch_table["num_instances"].astype(np.float64)
    days = (batch_table["created_at"] // 86400) % 7
    return np.bincount(days.astype(np.int64), weights=weights, minlength=7)


# --------------------------------------------------------------------- #
# §3.2 Worker availability & engagement
# --------------------------------------------------------------------- #

def weekly_active_workers(released: ReleasedDataset, *, num_weeks: int) -> np.ndarray:
    """Distinct workers performing work each week (Figure 4)."""
    return distinct_by_bucket(
        week_index(released.instances["start_time"]),
        released.instances["worker_id"],
        num_buckets=num_weeks,
    )


@dataclass(frozen=True)
class EngagementSplit:
    """Weekly top-10% vs bottom-90% worker series (Figure 5b)."""

    tasks_top10: np.ndarray
    tasks_bottom90: np.ndarray
    active_time_top10: np.ndarray  # mean active seconds per top-10% worker
    active_time_bottom90: np.ndarray


def engagement_split(released: ReleasedDataset, *, num_weeks: int) -> EngagementSplit:
    """Split weekly completions by overall worker rank (top 10% by tasks)."""
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
    active = workers[in_range]
    # One bucket per (week, class): 2 * week, plus 1 for the top 10%.
    bucket = 2 * weeks[in_range] + top_set[active]
    durations = (
        instances["end_time"][in_range] - instances["start_time"][in_range]
    ).astype(np.float64)

    num_buckets = 2 * num_weeks
    tasks = np.bincount(bucket, minlength=num_buckets).astype(np.float64)
    time_total = np.bincount(bucket, weights=durations, minlength=num_buckets)
    # Distinct workers of each class active per week.
    distinct = distinct_by_bucket(bucket, active, num_buckets=num_buckets)
    with np.errstate(invalid="ignore", divide="ignore"):
        active_time = np.where(distinct > 0, time_total / distinct, 0.0)

    return EngagementSplit(
        tasks_top10=tasks[1::2],
        tasks_bottom90=tasks[0::2],
        active_time_top10=active_time[1::2],
        active_time_bottom90=active_time[0::2],
    )


def weekly_backlog(
    released: ReleasedDataset, enriched: EnrichedDataset, *, num_weeks: int
) -> np.ndarray:
    """Open-work backlog at each week's end: instances posted but not yet
    completed.

    §3.1 frames the push mechanism as a way to "clear backlogged tasks";
    this series makes the backlog visible.  Posting time is the batch
    creation time; completion is the instance end time (clamped into the
    calendar, so the series ends at zero for fully-drained marketplaces).
    """
    issued = bucket_by_week(
        enriched.batch_table["created_at"],
        num_weeks=num_weeks,
        weights=enriched.batch_table["num_instances"].astype(np.float64),
    )
    horizon = num_weeks * 7 * 86400 - 1
    completed = bucket_by_week(
        np.minimum(released.instances["end_time"], horizon),
        num_weeks=num_weeks,
    )
    return np.cumsum(issued) - np.cumsum(completed)


def internal_external_split(
    released: ReleasedDataset, *, num_weeks: int
) -> tuple[np.ndarray, np.ndarray]:
    """Weekly completions split by the marketplace's own pool vs external
    sources (§3.2's observation that "internal workers account for a very
    small fraction of tasks").

    Returns ``(internal_weekly, external_weekly)``.
    """
    instances = released.instances
    weeks = week_index(instances["start_time"])
    source = dict_encode(instances.column("source"))
    is_internal = (source.uniques == "internal")[source.codes]
    in_range = weeks < num_weeks
    internal = np.bincount(
        weeks[in_range & is_internal], minlength=num_weeks
    ).astype(np.float64)
    external = np.bincount(
        weeks[in_range & ~is_internal], minlength=num_weeks
    ).astype(np.float64)
    return internal, external


# --------------------------------------------------------------------- #
# §3.3 Cluster / heavy-hitter structure
# --------------------------------------------------------------------- #

def cluster_size_distribution(enriched: EnrichedDataset) -> np.ndarray:
    """Batches per cluster, one entry per cluster (Figure 6's sample)."""
    return enriched.cluster_table["num_batches"].astype(np.float64)


def tasks_per_cluster_distribution(enriched: EnrichedDataset) -> np.ndarray:
    """Instances per cluster, one entry per cluster (Figure 7's sample)."""
    return enriched.cluster_table["num_instances"].astype(np.float64)


def heavy_hitter_curves(
    enriched: EnrichedDataset, *, num_weeks: int, top: int = 10
) -> dict[int, np.ndarray]:
    """Cumulative instances issued per week for the top clusters (Figure 8).

    Clusters ranked by number of batches; returns ``cluster_id ->
    cumulative weekly instance counts``.
    """
    ct = enriched.cluster_table
    order = np.argsort(ct["num_batches"])[::-1][:top]
    chosen = set(int(c) for c in ct["cluster_id"][order])

    bt = enriched.batch_table
    weeks = week_index(bt["created_at"])
    out: dict[int, np.ndarray] = {}
    for cluster in chosen:
        mask = bt["cluster_id"] == cluster
        weekly = np.bincount(
            weeks[mask],
            weights=bt["num_instances"][mask].astype(np.float64),
            minlength=num_weeks,
        )
        out[cluster] = np.cumsum(weekly)
    return out


# --------------------------------------------------------------------- #
# §3.4 Label landscape
# --------------------------------------------------------------------- #

def label_distribution(enriched: EnrichedDataset, category: str) -> dict[str, float]:
    """Instance-weighted label counts (Figures 9a–9c).

    ``category`` is ``goals``, ``operators``, or ``data_types``.  A
    multi-labeled cluster contributes its full instance count to each of its
    labels, as in the paper ("tasks have one or more label under each
    category").
    """
    if category not in ("goals", "operators", "data_types"):
        raise ValueError(f"unknown label category {category!r}")
    ct = enriched.cluster_table
    totals: dict[str, float] = {}
    for joined, weight in zip(ct[category], ct["num_instances"]):
        if joined is None:
            continue
        for label in split_labels(joined):
            totals[label] = totals.get(label, 0.0) + float(weight)
    return totals


def label_correlation(
    enriched: EnrichedDataset, *, rows: str, columns: str
) -> dict[str, dict[str, float]]:
    """Percentage breakdown of ``columns`` labels within each ``rows`` label.

    ``label_correlation(e, rows="goals", columns="operators")`` reproduces
    Figure 10b: for each goal, which operators serve it (percentages summing
    to 100 per goal).
    """
    ct = enriched.cluster_table
    joint: dict[str, dict[str, float]] = {}
    for row_joined, col_joined, weight in zip(ct[rows], ct[columns], ct["num_instances"]):
        if row_joined is None or col_joined is None:
            continue
        for row_label in split_labels(row_joined):
            bucket = joint.setdefault(row_label, {})
            for col_label in split_labels(col_joined):
                bucket[col_label] = bucket.get(col_label, 0.0) + float(weight)
    out: dict[str, dict[str, float]] = {}
    for row_label, bucket in joint.items():
        total = sum(bucket.values())
        out[row_label] = {
            k: (100.0 * v / total if total else 0.0) for k, v in bucket.items()
        }
    return out


# --------------------------------------------------------------------- #
# §3.5 Simple vs complex trends
# --------------------------------------------------------------------- #

_COMPLEXITY_PREDICATE = {
    "goals": is_complex_goal,
    "operators": is_complex_operator,
    "data_types": is_complex_data,
}


def simple_complex_trend(
    enriched: EnrichedDataset, category: str, *, num_weeks: int
) -> tuple[np.ndarray, np.ndarray]:
    """Cumulative (simple, complex) distinct-cluster counts per week (Fig 12).

    A cluster counts as complex if *any* of its labels in the category is
    complex; it is counted once, in the week of its first batch.
    """
    predicate = _COMPLEXITY_PREDICATE.get(category)
    if predicate is None:
        raise ValueError(f"unknown label category {category!r}")
    ct = enriched.cluster_table
    weeks = week_index(ct["first_time"])
    simple_weekly = np.zeros(num_weeks)
    complex_weekly = np.zeros(num_weeks)
    for joined, week in zip(ct[category], weeks):
        if joined is None or week >= num_weeks:
            continue
        labels = split_labels(joined)
        if not labels:
            continue
        if any(predicate(label) for label in labels):
            complex_weekly[week] += 1
        else:
            simple_weekly[week] += 1
    return np.cumsum(simple_weekly), np.cumsum(complex_weekly)

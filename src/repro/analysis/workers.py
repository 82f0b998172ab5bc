"""Worker-centric analyses (paper §5).

Everything derives from the released instance log: a worker's source,
country, per-instance times and trust scores (and, for relative task
times, the enrichment's per-batch median durations).  Per-worker
aggregates are computed once by :func:`worker_profiles` and reused by the
§5.2/§5.3 functions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dataset.release import ReleasedDataset
from repro.enrichment.pipeline import EnrichedDataset
from repro.stats.descriptive import top_share
from repro.stats.timeseries import DAY_SECONDS, distinct_by_bucket, week_index
from repro.tables import Table, group_by

SECONDS_PER_HOUR = 3600.0


# --------------------------------------------------------------------- #
# §5.1 Sources
# --------------------------------------------------------------------- #

def source_statistics(
    released: ReleasedDataset, enriched: EnrichedDataset
) -> Table:
    """Per-source statistics (Figures 26a, 27).

    Columns: ``source``, ``num_workers``, ``num_tasks``,
    ``tasks_per_worker``, ``mean_trust``, ``mean_relative_task_time``.

    Relative task time normalizes each instance's duration by the median
    duration of its batch, so slow sources stand out regardless of task mix.
    The batch medians are the enrichment's ``batch_table.task_time``: the
    median of ``end - start`` over the batch's instances.
    """
    instances = released.instances
    duration = (instances["end_time"] - instances["start_time"]).astype(np.float64)

    batch_table = enriched.batch_table
    batch_ids = batch_table["batch_id"]
    median_of_batch = np.full(int(batch_ids.max()) + 1, np.nan)
    median_of_batch[batch_ids] = batch_table["task_time"]
    relative = duration / np.maximum(
        median_of_batch[instances["batch_id"]], 1e-9
    )

    table = Table(
        {
            "source": instances.column("source"),
            "worker_id": instances["worker_id"],
            "trust": instances["trust"],
            "relative_time": relative,
        },
        copy=False,
    )
    stats = group_by(table, "source").agg(
        {
            "num_workers": ("worker_id", "nunique"),
            "num_tasks": ("worker_id", "count"),
            "mean_trust": ("trust", "mean"),
            "mean_relative_task_time": ("relative_time", "mean"),
        }
    )
    return stats.with_column(
        "tasks_per_worker",
        stats["num_tasks"] / np.maximum(stats["num_workers"], 1),
    )


def active_sources_per_week(released: ReleasedDataset, *, num_weeks: int) -> np.ndarray:
    """Distinct sources with any activity each week (Figure 26b)."""
    instances = released.instances
    return distinct_by_bucket(
        week_index(instances["start_time"]),
        instances.column("source"),
        num_buckets=num_weeks,
    )


def top_sources(
    stats: Table, *, by: str, top: int = 10
) -> Table:
    """The top sources by a statistic column (e.g. ``num_workers``)."""
    return stats.sort_by(by, descending=True).head(top)


def source_share(stats: Table, names: list[str], *, of: str) -> float:
    """Fraction of column ``of``'s total held by the named sources."""
    total = float(stats[of].sum())
    mask = np.array([s in set(names) for s in stats["source"]])
    return float(stats[of][mask].sum()) / total if total else float("nan")


# --------------------------------------------------------------------- #
# §5.1 Geography
# --------------------------------------------------------------------- #

def country_distribution(released: ReleasedDataset) -> Table:
    """Workers per country, descending (Figure 28)."""
    instances = released.instances
    table = Table(
        {
            "country": instances.column("country"),
            "worker_id": instances["worker_id"],
        },
        copy=False,
    )
    counts = group_by(table, "country").agg(
        {"num_workers": ("worker_id", "nunique")}
    )
    return counts.sort_by("num_workers", descending=True)


# --------------------------------------------------------------------- #
# §5.2–5.4 Worker profiles
# --------------------------------------------------------------------- #

@dataclass(frozen=True)
class WorkerProfiles:
    """Per-worker aggregates over the full evaluation period."""

    worker_id: np.ndarray
    num_tasks: np.ndarray
    lifetime_days: np.ndarray  # last active day - first active day + 1
    working_days: np.ndarray  # distinct days with >= 1 instance
    total_hours: np.ndarray  # sum of task durations, in hours
    mean_trust: np.ndarray

    @property
    def num_workers(self) -> int:
        return len(self.worker_id)

    def hours_per_working_day(self) -> np.ndarray:
        return self.total_hours / np.maximum(self.working_days, 1)

    def fraction_of_lifetime_active(self) -> np.ndarray:
        return self.working_days / np.maximum(self.lifetime_days, 1)


def worker_profiles(released: ReleasedDataset) -> WorkerProfiles:
    """Compute per-worker aggregates from the instance log.

    One group-by over workers: lifetimes from the min/max active day,
    working days from the grouped distinct count, hours from the integer
    seconds (an exact sum in any order).  ``mean_trust`` divides one
    ``np.add.reduce`` per worker segment, the pairwise sum that
    ``ndarray.mean`` takes: the grouped ``"sum"`` (``reduceat``) adds in
    another order, and its float sums can differ in the last place.
    """
    instances = released.instances
    start = instances["start_time"]
    per_worker = group_by(
        Table(
            {
                "worker_id": instances["worker_id"],
                "day": start // DAY_SECONDS,
                "seconds": instances["end_time"] - start,
                "trust": instances["trust"],
            },
            copy=False,
        ),
        "worker_id",
    ).agg(
        {
            "num_tasks": ("day", "count"),
            "first_day": ("day", "min"),
            "last_day": ("day", "max"),
            "working_days": ("day", "nunique"),
            "seconds": ("seconds", "sum"),
            "trust_sum": ("trust", np.add.reduce),
        }
    )
    return WorkerProfiles(
        worker_id=per_worker["worker_id"].astype(np.int64),
        num_tasks=per_worker["num_tasks"],
        lifetime_days=(
            per_worker["last_day"] - per_worker["first_day"] + 1
        ).astype(np.int64),
        working_days=per_worker["working_days"],
        total_hours=per_worker["seconds"].astype(np.float64) / SECONDS_PER_HOUR,
        mean_trust=per_worker["trust_sum"] / per_worker["num_tasks"],
    )


@dataclass(frozen=True)
class WorkloadConcentration:
    """§5.2's headline numbers."""

    top10_task_share: float  # fraction of tasks by the top-10% of workers
    one_day_worker_fraction: float  # workers with lifetime == 1 day
    one_day_task_share: float  # fraction of tasks they performed
    active_worker_fraction: float  # workers with > 10 working days
    active_task_share: float


def workload_concentration(profiles: WorkerProfiles) -> WorkloadConcentration:
    total_tasks = float(profiles.num_tasks.sum())
    one_day = profiles.lifetime_days == 1
    active = profiles.working_days > 10
    return WorkloadConcentration(
        top10_task_share=top_share(profiles.num_tasks, 0.10),
        one_day_worker_fraction=float(one_day.mean()),
        one_day_task_share=float(profiles.num_tasks[one_day].sum()) / total_tasks,
        active_worker_fraction=float(active.mean()),
        active_task_share=float(profiles.num_tasks[active].sum()) / total_tasks,
    )


def workload_rank_curve(profiles: WorkerProfiles) -> np.ndarray:
    """Tasks per worker, sorted descending (Figure 29a)."""
    return np.sort(profiles.num_tasks)[::-1].astype(np.float64)


# --------------------------------------------------------------------- #
# Attention spans (the §1/§2.5 goal, operationalized as work sessions)
# --------------------------------------------------------------------- #

@dataclass(frozen=True)
class SessionStatistics:
    """Work-session structure of the marketplace.

    A *session* is a maximal run of one worker's instances in which each
    instance starts within ``gap`` seconds of the previous instance's end —
    the natural operationalization of the paper's "worker attention spans"
    (§1, §2.5).
    """

    num_sessions: int
    session_lengths_seconds: np.ndarray  # duration per session
    tasks_per_session: np.ndarray
    sessions_per_worker: np.ndarray  # aligned with distinct workers

    def median_session_minutes(self) -> float:
        return float(np.median(self.session_lengths_seconds)) / 60.0

    def median_tasks_per_session(self) -> float:
        return float(np.median(self.tasks_per_session))


def session_statistics(
    released: ReleasedDataset, *, gap_seconds: int = 1800
) -> SessionStatistics:
    """Segment every worker's instance stream into attention-span sessions."""
    instances = released.instances
    worker = instances["worker_id"]
    start = instances["start_time"]
    end = instances["end_time"]

    order = np.lexsort((start, worker))
    w = worker[order]
    s = start[order].astype(np.int64)
    e = end[order].astype(np.int64)

    new_worker = np.r_[True, w[1:] != w[:-1]]
    # A new session starts on a worker switch or a gap larger than allowed.
    gap_break = np.r_[True, (s[1:] - e[:-1]) > gap_seconds]
    new_session = new_worker | gap_break
    session_id = np.cumsum(new_session) - 1
    num_sessions = int(session_id[-1]) + 1 if len(session_id) else 0

    session_start = np.full(num_sessions, np.iinfo(np.int64).max, dtype=np.int64)
    session_end = np.zeros(num_sessions, dtype=np.int64)
    np.minimum.at(session_start, session_id, s)
    # Sessions are chronologically ordered within a worker, so the max end
    # works via maximum.at (ends need not be monotone across overlaps).
    np.maximum.at(session_end, session_id, e)
    lengths = (session_end - session_start).astype(np.float64)
    tasks = np.bincount(session_id, minlength=num_sessions).astype(np.float64)

    # Sessions per worker.
    first_of_session = np.flatnonzero(new_session)
    session_worker = w[first_of_session]
    _, sessions_per_worker = np.unique(session_worker, return_counts=True)

    return SessionStatistics(
        num_sessions=num_sessions,
        session_lengths_seconds=lengths,
        tasks_per_session=tasks,
        sessions_per_worker=sessions_per_worker.astype(np.float64),
    )

"""Per-batch performance metrics (paper §4.1).

- **Disagreement score** (error proxy): for every item, all pairs of worker
  answers are compared — 1 if different, 0 if equal — and averaged; the
  batch's score averages its items.  Items with a single answer contribute
  nothing.  Computed combinatorially: with ``n`` answers on an item of which
  ``c_r`` gave response ``r``, the agreeing pairs are ``sum c_r (c_r - 1) / 2``
  of ``n (n - 1) / 2`` total.
- **Median task time** (cost proxy): median of ``end - start`` over the
  batch's instances.
- **Median pickup time** (latency proxy): median of ``start - batch
  creation``.  The batch creation timestamp is the catalog's ``created_at``
  (the paper uses the earliest activity as a proxy; our released catalog
  carries the creation time directly, which is the same quantity).
"""

from __future__ import annotations

import numpy as np

from repro.dataset.release import ReleasedDataset
from repro.tables import DictColumn, Table, dict_encode, group_by

_INT64_MAX = np.iinfo(np.int64).max
_INT64_MIN = np.iinfo(np.int64).min


def _pair_disagreement_by_item(
    item_id: np.ndarray, response: np.ndarray | DictColumn
) -> tuple[np.ndarray, np.ndarray]:
    """(unique item ids, per-item average pairwise disagreement).

    Responses compare by dictionary code, equal exactly where the strings
    are; an object array is dictionary-encoded first.  Items with fewer
    than two answers get NaN.

    Rows are ordered by (item, code) through one stable sort of the int64
    key ``item * (max code + 1) + code``, the order a two-key ``lexsort``
    gives.  Raises ``OverflowError`` if the key could leave int64.
    """
    response_codes = dict_encode(response).codes
    width = int(response_codes.max()) + 1
    low, high = int(item_id.min()), int(item_id.max())
    if high > (_INT64_MAX - (width - 1)) // width or low < _INT64_MIN // width:
        raise OverflowError(
            f"(item, response) key needs item ids in [{low}, {high}] x "
            f"{width} response codes, beyond the int64 bounds"
        )
    key = item_id.astype(np.int64) * width
    key += response_codes
    order = np.argsort(key, kind="stable")
    del key
    items_sorted = item_id[order]
    codes_sorted = response_codes[order]

    # Per-item totals.
    item_change = np.r_[True, items_sorted[1:] != items_sorted[:-1]]
    item_starts = np.flatnonzero(item_change)
    item_ends = np.r_[item_starts[1:], len(items_sorted)]
    n_per_item = (item_ends - item_starts).astype(np.float64)

    # Per-(item, response) run lengths within the sorted order.
    run_change = item_change | np.r_[True, codes_sorted[1:] != codes_sorted[:-1]]
    run_starts = np.flatnonzero(run_change)
    run_ends = np.r_[run_starts[1:], len(items_sorted)]
    run_lengths = (run_ends - run_starts).astype(np.float64)
    # Sum c*(c-1) per item: map each run to its item slot (the number of
    # item starts up to the run's start, less one).
    run_item_slot = np.cumsum(item_change)[run_starts] - 1
    same_pairs = np.zeros(len(item_starts))
    np.add.at(same_pairs, run_item_slot, run_lengths * (run_lengths - 1.0))

    total_pairs = n_per_item * (n_per_item - 1.0)
    with np.errstate(invalid="ignore", divide="ignore"):
        disagreement = 1.0 - same_pairs / total_pairs
    disagreement[total_pairs == 0] = np.nan
    return items_sorted[item_starts], disagreement


def compute_batch_metrics(released: ReleasedDataset) -> Table:
    """Metrics for every sampled batch.

    Returns columns: ``batch_id``, ``disagreement`` (NaN when no item has 2+
    answers), ``task_time``, ``pickup_time``, ``num_items``,
    ``num_instances``.
    """
    instances = released.instances
    batch_id = instances["batch_id"]
    item_id = instances["item_id"]
    start = instances["start_time"].astype(np.float64)
    end = instances["end_time"].astype(np.float64)

    catalog = released.batch_catalog
    created_at = np.zeros(int(catalog["batch_id"].max()) + 1, dtype=np.float64)
    created_at[catalog["batch_id"]] = catalog["created_at"]

    # Per-item disagreement, then averaged per batch.
    unique_items, item_disagreement = _pair_disagreement_by_item(
        item_id, instances.column("response")
    )
    # Each item belongs to exactly one batch: take the batch of its first
    # instance occurrence.
    first_occurrence = np.zeros(int(item_id.max()) + 1, dtype=np.int64)
    first_occurrence[item_id[::-1]] = np.arange(len(item_id))[::-1]
    item_batch = batch_id[first_occurrence[unique_items]]

    # Per-batch medians and distinct items from the segment kernels (one
    # sort per column, no per-batch Python loop); groups come out in sorted
    # batch order.
    per_batch = group_by(
        Table(
            {
                "batch_id": batch_id,
                "duration": end - start,
                "pickup": start - created_at[batch_id],
                "item_id": item_id,
            },
            copy=False,
        ),
        "batch_id",
    ).agg(
        {
            "task_time": ("duration", "median"),
            "pickup_time": ("pickup", "median"),
            "num_items": ("item_id", "nunique"),
            "num_instances": ("duration", "count"),
        }
    )
    out_batch = per_batch["batch_id"]

    # Average item disagreement per batch (NaN-aware).  ``out_batch`` is
    # sorted, so slots resolve by binary search.
    dis_sum = np.zeros(len(out_batch))
    dis_count = np.zeros(len(out_batch))
    valid = ~np.isnan(item_disagreement)
    slots = np.searchsorted(out_batch, item_batch[valid])
    np.add.at(dis_sum, slots, item_disagreement[valid])
    np.add.at(dis_count, slots, 1.0)
    with np.errstate(invalid="ignore", divide="ignore"):
        disagreement = dis_sum / dis_count
    disagreement[dis_count == 0] = np.nan

    return Table(
        {
            "batch_id": out_batch.astype(np.int64),
            "disagreement": disagreement,
            "task_time": per_batch["task_time"],
            "pickup_time": np.maximum(per_batch["pickup_time"], 0.0),
            "num_items": per_batch["num_items"],
            "num_instances": per_batch["num_instances"],
        },
        copy=False,
    )

"""Per-batch metrics from the segment kernels vs a per-batch loop.

:func:`compute_batch_metrics` reads its medians and distinct-item counts
from :mod:`repro.tables.groupby`'s segment kernels.  The reference below
is the earlier per-batch loop (``np.median`` twice and a distinct count per
batch); the two tables must match byte for byte.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.enrichment.metrics import (
    _pair_disagreement_by_item,
    compute_batch_metrics,
)
from repro.tables import Table, dict_encode


def _reference_per_batch(released):
    instances = released.instances
    batch_id = instances["batch_id"]
    item_id = instances["item_id"]
    start = instances["start_time"].astype(np.float64)
    end = instances["end_time"].astype(np.float64)
    catalog = released.batch_catalog
    created_at = np.zeros(int(catalog["batch_id"].max()) + 1)
    created_at[catalog["batch_id"]] = catalog["created_at"]

    order = np.argsort(batch_id, kind="stable")
    sorted_batches = batch_id[order]
    starts = np.flatnonzero(
        np.r_[True, sorted_batches[1:] != sorted_batches[:-1]]
    )
    ends = np.r_[starts[1:], len(sorted_batches)]
    task_time = np.empty(len(starts))
    pickup_time = np.empty(len(starts))
    num_items = np.empty(len(starts), dtype=np.int64)
    duration = (end - start)[order]
    pickup = (start - created_at[batch_id])[order]
    items_ordered = item_id[order]
    for slot, (s, e) in enumerate(zip(starts, ends)):
        task_time[slot] = np.median(duration[s:e])
        pickup_time[slot] = np.median(pickup[s:e])
        num_items[slot] = len(np.unique(items_ordered[s:e]))
    return {
        "batch_id": sorted_batches[starts].astype(np.int64),
        "task_time": task_time,
        "pickup_time": np.maximum(pickup_time, 0.0),
        "num_items": num_items,
        "num_instances": (ends - starts).astype(np.int64),
    }


def _released(batch_id, item_id, start, end, response, num_batches):
    rng = np.random.default_rng(num_batches)
    return SimpleNamespace(
        instances=Table(
            {
                "batch_id": np.asarray(batch_id, dtype=np.int64),
                "item_id": np.asarray(item_id, dtype=np.int64),
                "start_time": np.asarray(start, dtype=np.float64),
                "end_time": np.asarray(end, dtype=np.float64),
                "response": np.asarray(response, dtype=object),
            }
        ),
        batch_catalog=Table(
            {
                "batch_id": np.arange(num_batches, dtype=np.int64),
                "created_at": rng.uniform(0, 50, num_batches).round(2),
            }
        ),
    )


def _assert_matches(released):
    got = compute_batch_metrics(released)
    want = _reference_per_batch(released)
    for name, column in want.items():
        assert got[name].dtype == column.dtype, name
        assert got[name].tobytes() == column.tobytes(), name


@st.composite
def _instances(draw):
    # Up to 12 catalog batches, some with no instances (the empty case),
    # some with a single row, items unique to their batch.
    num_batches = draw(st.integers(1, 12))
    rows = draw(
        st.lists(
            st.tuples(
                st.integers(0, num_batches - 1),  # batch
                st.integers(0, 3),  # item within batch
                st.integers(0, 10_000),  # start (centiseconds)
                st.integers(0, 5_000),  # duration (centiseconds)
                st.sampled_from(["a", "b", "c"]),
            ),
            min_size=1,
            max_size=80,
        )
    )
    batch = [r[0] for r in rows]
    item = [r[0] * 4 + r[1] for r in rows]
    start = [r[2] / 100 for r in rows]
    end = [(r[2] + r[3]) / 100 for r in rows]
    return _released(batch, item, start, end, [r[4] for r in rows], num_batches)


class TestBatchMetricsKernels:
    @given(_instances())
    @settings(max_examples=150, deadline=None)
    def test_matches_per_batch_loop(self, released):
        _assert_matches(released)

    def test_single_row_batches(self):
        released = _released(
            [0, 2, 5], [0, 8, 20], [1.0, 2.5, 3.25], [4.0, 2.5, 9.0],
            ["a", "b", "a"], 6,
        )
        _assert_matches(released)
        metrics = compute_batch_metrics(released)
        assert metrics["batch_id"].tolist() == [0, 2, 5]
        assert metrics["num_instances"].tolist() == [1, 1, 1]
        assert metrics["task_time"].tolist() == [3.0, 0.0, 5.75]

    def test_empty_catalog_batches_get_no_row(self):
        released = _released(
            [3, 3, 3, 3], [12, 12, 13, 14], [0.0, 1.0, 2.0, 3.0],
            [1.0, 3.0, 6.0, 10.0], ["a", "b", "a", "a"], 8,
        )
        _assert_matches(released)
        metrics = compute_batch_metrics(released)
        assert metrics["batch_id"].tolist() == [3]
        assert metrics["num_items"].tolist() == [3]
        assert metrics["task_time"].tolist() == [3.0]

    def test_tiny_study(self, released):
        _assert_matches(released)


def _lexsort_disagreement(item_id, response):
    """The two-key ``lexsort`` version of ``_pair_disagreement_by_item``."""
    codes = dict_encode(response).codes
    order = np.lexsort((codes, item_id))
    items_sorted = item_id[order]
    codes_sorted = codes[order]
    item_change = np.r_[True, items_sorted[1:] != items_sorted[:-1]]
    item_starts = np.flatnonzero(item_change)
    item_ends = np.r_[item_starts[1:], len(items_sorted)]
    n_per_item = (item_ends - item_starts).astype(np.float64)
    run_change = item_change | np.r_[True, codes_sorted[1:] != codes_sorted[:-1]]
    run_starts = np.flatnonzero(run_change)
    run_ends = np.r_[run_starts[1:], len(items_sorted)]
    run_lengths = (run_ends - run_starts).astype(np.float64)
    run_item_slot = np.searchsorted(item_starts, run_starts, side="right") - 1
    same_pairs = np.zeros(len(item_starts))
    np.add.at(same_pairs, run_item_slot, run_lengths * (run_lengths - 1.0))
    total_pairs = n_per_item * (n_per_item - 1.0)
    with np.errstate(invalid="ignore", divide="ignore"):
        disagreement = 1.0 - same_pairs / total_pairs
    disagreement[total_pairs == 0] = np.nan
    return items_sorted[item_starts], disagreement


class TestKeySortedDisagreement:
    @given(
        st.lists(
            st.tuples(st.integers(-5, 40), st.sampled_from("abcde")),
            min_size=1,
            max_size=120,
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_lexsort(self, rows):
        items = np.array([r[0] for r in rows], dtype=np.int64)
        responses = np.array([r[1] for r in rows], dtype=object)
        got_items, got = _pair_disagreement_by_item(items, responses)
        ref_items, ref = _lexsort_disagreement(items, responses)
        assert got_items.dtype == ref_items.dtype
        assert np.array_equal(got_items, ref_items)
        assert got.tobytes() == ref.tobytes()

    def test_tiny_study(self, released):
        instances = released.instances
        items = instances["item_id"]
        response = instances.column("response")
        got_items, got = _pair_disagreement_by_item(items, response)
        ref_items, ref = _lexsort_disagreement(items, response)
        assert np.array_equal(got_items, ref_items)
        assert got.tobytes() == ref.tobytes()

    def test_overflow_raises(self):
        items = np.array([2**62, 0, 1], dtype=np.int64)
        responses = np.array(["a", "b", "c"], dtype=object)
        with pytest.raises(OverflowError, match="int64"):
            _pair_disagreement_by_item(items, responses)
        with pytest.raises(OverflowError, match="int64"):
            _pair_disagreement_by_item(-items, responses)
        # The extremes that still fit do not raise.
        top = (np.iinfo(np.int64).max - 2) // 3
        _pair_disagreement_by_item(np.array([top, 0, 1]), responses)

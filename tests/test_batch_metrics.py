"""Per-batch metrics from the segment kernels vs a per-batch loop.

:func:`compute_batch_metrics` reads its medians and distinct-item counts
from :mod:`repro.tables.groupby`'s segment kernels.  The reference below
is the earlier per-batch loop (``np.median`` twice and a distinct count per
batch); the two tables must match byte for byte.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.enrichment.metrics import compute_batch_metrics
from repro.tables import Table


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

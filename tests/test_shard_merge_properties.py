"""Property-based laws for the shard merge kernels.

Hypothesis generates arbitrary partitionings of arbitrary data and checks
the algebra :mod:`repro.shard.merge` documents:

- **Partition invariance**: however the rows are split into parts, the
  merged group-by finalizes to the same bytes as one-shot accumulation.
- **Associativity / commutativity**: any merge tree and any merge order
  produce the same bytes.
- **Agreement with the in-memory ``group_by``**: exact for counts, order
  statistics, and extrema; within one ulp-scale tolerance for float sums
  (``group_by`` accumulates in row order, the mergeable algebra pools and
  uses :func:`math.fsum`).

The same partition-invariance law is pinned for the CDF and histogram
merge kernels.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.shard.merge import MergeableGroupBy, merge_group_by
from repro.stats.cdf import EmpiricalCDF
from repro.stats.histogram import Histogram, linear_histogram
from repro.tables import Table, group_by

SPEC = {
    "n": ("x", "count"),
    "lo": ("x", "min"),
    "hi": ("x", "max"),
    "total": ("x", "sum"),
    "avg": ("x", "mean"),
    "mid": ("x", "median"),
    "p90": ("x", "p90"),
    "distinct": ("x", "nunique"),
}

# Finite floats without signed zeros (0.0 vs -0.0 share a multiset slot
# but differ in bytes, which would flag min/max as false mismatches).
_values = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_subnormal=False
).map(lambda v: v + 0.0 if v != 0 else 0.0)

_rows = st.lists(
    st.tuples(st.integers(min_value=0, max_value=6), _values),
    min_size=1,
    max_size=60,
)


def _table(rows) -> Table:
    return Table({
        "batch_id": np.array([k for k, _ in rows], dtype=np.int64),
        "x": np.array([v for _, v in rows], dtype=np.float64),
    })


def _partition(rows, cut_points):
    parts, last = [], 0
    for cut in sorted(set(cut_points)):
        if last < cut < len(rows):
            parts.append(rows[last:cut])
            last = cut
    parts.append(rows[last:])
    return [part for part in parts if part]


def _finalized_bytes(result: Table) -> dict[str, bytes]:
    return {name: np.asarray(result[name]).tobytes() for name in result.column_names}


class TestMergeableGroupByLaws:
    @given(
        rows=_rows,
        cuts=st.lists(st.integers(min_value=1, max_value=59), max_size=4),
    )
    @settings(max_examples=150, deadline=None)
    def test_partition_invariance(self, rows, cuts):
        whole = MergeableGroupBy("batch_id", SPEC).update(_table(rows))
        parts = _partition(rows, cuts)
        split = merge_group_by([_table(p) for p in parts], "batch_id", SPEC)
        assert _finalized_bytes(split) == _finalized_bytes(whole.finalize())

    @given(
        rows=_rows,
        cuts=st.lists(st.integers(min_value=1, max_value=59), max_size=3),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=150, deadline=None)
    def test_merge_order_and_association_invariance(self, rows, cuts, seed):
        parts = _partition(rows, cuts)
        partials = lambda: [  # noqa: E731 - tiny local factory
            MergeableGroupBy("batch_id", SPEC).update(_table(p)) for p in parts
        ]

        left = partials()
        left_acc = left[0]
        for other in left[1:]:  # ((a . b) . c) . ...
            left_acc = left_acc.merge(other)

        right = partials()
        right_acc = right[-1]
        for other in reversed(right[:-1]):  # a . (b . (c . ...))
            other.merge(right_acc)
            right_acc = other

        shuffled = partials()
        order = np.random.default_rng(seed).permutation(len(shuffled))
        shuffled_acc = shuffled[order[0]]
        for i in order[1:]:
            shuffled_acc = shuffled_acc.merge(shuffled[int(i)])

        reference = _finalized_bytes(left_acc.finalize())
        assert _finalized_bytes(right_acc.finalize()) == reference
        assert _finalized_bytes(shuffled_acc.finalize()) == reference

    @given(rows=_rows)
    @settings(max_examples=150, deadline=None)
    def test_agrees_with_in_memory_group_by(self, rows):
        table = _table(rows)
        merged = MergeableGroupBy("batch_id", SPEC).update(table).finalize()
        reference = group_by(table, "batch_id").agg(SPEC)
        assert np.array_equal(merged["batch_id"], reference["batch_id"])
        for exact in ("n", "lo", "hi", "mid", "p90", "distinct"):
            assert np.array_equal(merged[exact], reference[exact]), exact
        for pooled in ("total", "avg"):
            assert np.allclose(
                merged[pooled], reference[pooled], rtol=1e-12, atol=1e-9
            ), pooled

    def test_rejects_non_mergeable_aggregation(self):
        with pytest.raises(ValueError, match="not mergeable"):
            MergeableGroupBy("batch_id", {"f": ("x", "first")})

    def test_rejects_mismatched_specs(self):
        a = MergeableGroupBy("batch_id", {"n": ("x", "count")})
        b = MergeableGroupBy("batch_id", {"n": ("x", "sum")})
        with pytest.raises(ValueError, match="different specs"):
            a.merge(b)


class TestStatsMergeLaws:
    @given(
        values=st.lists(_values, min_size=1, max_size=80),
        cuts=st.lists(st.integers(min_value=1, max_value=79), max_size=4),
    )
    @settings(max_examples=150, deadline=None)
    def test_cdf_merge_partition_invariant(self, values, cuts):
        whole = EmpiricalCDF.from_sample(values)
        parts = _partition(values, cuts)
        merged = EmpiricalCDF.merge(
            [EmpiricalCDF.from_sample(p) for p in parts]
        )
        assert merged.support.tobytes() == whole.support.tobytes()
        assert merged.probabilities.tobytes() == whole.probabilities.tobytes()

    @given(
        values=st.lists(
            st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
            min_size=1,
            max_size=80,
        ),
        cuts=st.lists(st.integers(min_value=1, max_value=79), max_size=4),
    )
    @settings(max_examples=150, deadline=None)
    def test_histogram_merge_partition_invariant(self, values, cuts):
        whole = linear_histogram(values, bins=10, lo=0.0, hi=100.0)
        parts = _partition(values, cuts)
        merged = Histogram.merge([
            linear_histogram(p, bins=10, lo=0.0, hi=100.0) for p in parts
        ])
        assert merged.edges.tobytes() == whole.edges.tobytes()
        assert merged.counts.tobytes() == whole.counts.tobytes()

    def test_histogram_merge_rejects_mismatched_edges(self):
        a = linear_histogram([1.0], bins=4, lo=0.0, hi=10.0)
        b = linear_histogram([1.0], bins=4, lo=0.0, hi=20.0)
        with pytest.raises(ValueError, match="edges"):
            Histogram.merge([a, b])

    def test_merge_rejects_empty(self):
        with pytest.raises(ValueError):
            EmpiricalCDF.merge([])
        with pytest.raises(ValueError):
            Histogram.merge([])


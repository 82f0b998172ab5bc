"""Sort-based grouped aggregation for :class:`~repro.tables.table.Table`.

The implementation factorizes each key column into dense codes, combines the
codes into a single group id, sorts row indices by group id, and then applies
segment-wise reductions.  Cheap reductions (count/sum/min/max) use
``numpy.*.reduceat``; order statistics (``median``, ``nanmedian``,
``p<NN>``) sort values within their group segments once and then index the
k-th order statistic of every segment with pure array arithmetic; ``std``
centers per group and
reduces sum-of-squares with ``reduceat``; ``nunique`` sorts one int64
``(group, value code)`` key and counts its changes per group.  No
aggregation loops over groups except ``collect`` and user callables.

Order statistics are bit-identical to ``np.median``/``np.percentile`` on
each segment (including NaN propagation; ``nanmedian`` skips NaN instead);
``std`` matches ``ndarray.std`` up to floating-point summation order.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping, Sequence

import numpy as np

from repro import obs
from repro.tables.column import DictColumn, factorize
from repro.tables.table import SchemaError, Table

#: Aggregations supported by :meth:`GroupedTable.agg`, mapping name to a
#: function of the (already grouped and ordered) value segments.
_SIMPLE_AGGS = ("count", "sum", "mean", "min", "max", "median",
                "nanmedian", "std", "nunique", "first", "last", "collect")

_INT64_MAX = np.iinfo(np.int64).max

#: Kernel-path counters: which grouping/sort strategy each call takes.
#: Per-call increments (never per-row), so the hot kernels stay at
#: uninstrumented speed — asserted by ``benchmarks/test_substrate_perf.py``.
_CALLS = obs.counter("groupby.calls")
_RADIX_FASTPATH = obs.counter("groupby.fastpath_taken")
_OVERFLOW_REDENSIFY = obs.counter("groupby.overflow_redensify")
_SEGMENT_SORT_INPLACE = obs.counter("groupby.segment_sort_inplace")
_SEGMENT_SORT_LEXSORT = obs.counter("groupby.segment_sort_lexsort")


class GroupedTable:
    """The result of :func:`group_by`: group keys plus per-group row segments."""

    def __init__(self, table: Table, keys: Sequence[str]):
        if not keys:
            raise SchemaError("group_by requires at least one key column")
        self._table = table
        self._keys = list(keys)
        _CALLS.inc()

        if table.num_rows == 0:
            self._order = np.empty(0, dtype=np.int64)
            self._starts = np.empty(0, dtype=np.int64)
            self._key_uniques: list[np.ndarray] = [
                np.empty(0, dtype=table[k].dtype) for k in keys
            ]
            return

        combined = np.zeros(table.num_rows, dtype=np.int64)
        # Upper bound (exclusive) on the combined code, tracked as an
        # unbounded Python int to detect int64 overflow before it happens.
        cardinality = 1
        for key in keys:
            # table.column keeps DictColumn keys as codes: factorize then
            # densifies without hashing a single string.
            codes, uniques = factorize(table.column(key))
            num_uniques = max(len(uniques), 1)
            if cardinality > (_INT64_MAX - (num_uniques - 1)) // num_uniques:
                # The key-code product would overflow int64: re-factorize the
                # combined code to dense values first.  Post-densification the
                # cardinality is at most num_rows, so one more key always fits.
                _, combined = np.unique(combined, return_inverse=True)
                combined = combined.astype(np.int64)
                cardinality = int(combined.max()) + 1
                _OVERFLOW_REDENSIFY.inc()
            combined = combined * num_uniques + codes
            cardinality *= num_uniques

        if len(keys) == 1:
            # factorize already produced dense codes; re-factorizing would
            # return them unchanged (np.unique of 0..G-1 is the identity).
            group_codes = combined
            num_group_codes = int(cardinality)
        else:
            # Re-factorize the combined code so group ids are dense.
            group_uniques, group_codes = np.unique(combined, return_inverse=True)
            num_group_codes = len(group_uniques)
        # Stable argsort of small-range codes: narrow to int16 where it
        # fits so numpy picks its O(n) radix sort over timsort.
        sortable = group_codes
        if num_group_codes <= np.iinfo(np.int16).max:
            sortable = group_codes.astype(np.int16)
            _RADIX_FASTPATH.inc()
        order = np.argsort(sortable, kind="stable")
        sorted_codes = group_codes[order]
        starts = np.flatnonzero(
            np.r_[True, sorted_codes[1:] != sorted_codes[:-1]]
        )

        self._order = order
        self._starts = starts
        # Representative row per group, used to read back the key values.
        # Dictionary keys decode just one representative per group instead
        # of materializing the whole column.
        rep_rows = order[starts]
        self._key_uniques = []
        for k in keys:
            raw = table.column(k)
            if isinstance(raw, DictColumn):
                self._key_uniques.append(raw.uniques[raw.codes[rep_rows]])
            else:
                self._key_uniques.append(raw[rep_rows])

    @property
    def num_groups(self) -> int:
        return len(self._starts)

    def segments(self) -> list[np.ndarray]:
        """Row-index arrays, one per group, in group order."""
        ends = np.r_[self._starts[1:], len(self._order)]
        return [self._order[s:e] for s, e in zip(self._starts, ends)]

    # ------------------------------------------------------------------ #
    # Segment-vectorized kernels
    # ------------------------------------------------------------------ #

    def _group_ids(self) -> np.ndarray:
        """Dense group id of every row of ``self._order`` (memoized)."""
        cached = getattr(self, "_group_ids_cache", None)
        if cached is None:
            ends = np.r_[self._starts[1:], len(self._order)]
            cached = self._group_ids_cache = np.repeat(
                np.arange(self.num_groups, dtype=np.int64), ends - self._starts
            )
        return cached

    def _segment_has_nan(self, sorted_float: np.ndarray) -> np.ndarray:
        """Per-group "contains NaN" flags from within-group sorted values."""
        if self.num_groups == 0:
            return np.empty(0, dtype=bool)
        return np.logical_or.reduceat(np.isnan(sorted_float), self._starts)

    def _order_statistic(
        self, sorted_vals: np.ndarray, counts: np.ndarray, q: float
    ) -> np.ndarray:
        """The q-th percentile of every group from within-group sorted values.

        Replicates ``np.percentile``'s linear interpolation (including the
        ``gamma >= 0.5`` lerp branch) so results are bit-identical.
        """
        vals = sorted_vals.astype(np.float64, copy=False)
        if self.num_groups == 0:
            return np.empty(0, dtype=np.float64)
        ends = self._starts + counts
        virtual = (q / 100.0) * (counts - 1)
        below = np.floor(virtual)
        gamma = virtual - below
        lo = self._starts + below.astype(np.int64)
        hi = np.minimum(lo + 1, ends - 1)
        a, b = vals[lo], vals[hi]
        diff = b - a
        out = a + diff * gamma
        np.subtract(b, diff * (1.0 - gamma), out=out, where=gamma >= 0.5)
        out[self._segment_has_nan(vals)] = np.nan
        return out

    def _group_median(self, sorted_vals: np.ndarray, counts: np.ndarray) -> np.ndarray:
        """Per-group median (bit-identical to ``np.median`` per segment)."""
        vals = sorted_vals.astype(np.float64, copy=False)
        if self.num_groups == 0:
            return np.empty(0, dtype=np.float64)
        lo = self._starts + (counts - 1) // 2
        hi = self._starts + counts // 2
        out = (vals[lo] + vals[hi]) * 0.5
        out[self._segment_has_nan(vals)] = np.nan
        return out

    def _group_nanmedian(
        self, sorted_vals: np.ndarray, counts: np.ndarray
    ) -> np.ndarray:
        """Per-group median of the non-NaN values, NaN for a group without
        one: bit-identical to ``np.median(seg[~np.isnan(seg)])``.

        NaN sorts last in each segment, so the valid values are the
        segment's prefix and the middle is indexed within it.
        ``np.median`` averages the middle with ``np.mean``, whose sum adds
        ``+0.0`` (a lone ``-0.0`` reads ``0.0``); adding ``0.0`` reproduces
        that.  An odd count takes its middle value itself, so ``x + x``
        cannot overflow where ``np.median`` returns ``x``.
        """
        vals = sorted_vals.astype(np.float64, copy=False)
        if self.num_groups == 0:
            return np.empty(0, dtype=np.float64)
        valid = counts - np.add.reduceat(
            np.isnan(vals), self._starts, dtype=np.int64
        )
        lo = self._starts + np.maximum(valid - 1, 0) // 2
        hi = self._starts + valid // 2
        out = vals[lo] + vals[hi]
        out += 0.0
        out *= 0.5
        odd = (valid % 2).astype(bool)
        out[odd] = vals[lo[odd]] + 0.0
        out[valid == 0] = np.nan
        return out

    def _group_std(self, ordered: np.ndarray, counts: np.ndarray) -> np.ndarray:
        """Per-group population std via centered reduceat sum-of-squares."""
        if self.num_groups == 0:
            return np.empty(0, dtype=np.float64)
        vals = ordered.astype(np.float64, copy=False)
        means = np.add.reduceat(vals, self._starts) / counts
        centered = vals - np.repeat(means, counts)
        sumsq = np.add.reduceat(centered * centered, self._starts)
        return np.sqrt(sumsq / counts)

    def _ordered_codes(self, in_name: str) -> tuple[np.ndarray, int]:
        """Integer codes of a column's values, in group order, and their
        exclusive upper bound (at least 1); equal codes mean equal values."""
        raw = self._table.column(in_name)
        if isinstance(raw, DictColumn):
            # Codes are distinct exactly when values are (the uniques table
            # has no duplicates).
            return raw.codes[self._order], max(len(raw.uniques), 1)
        if raw.dtype.kind == "i" or (
            raw.dtype.kind == "u" and raw.dtype.itemsize < 8
        ):
            # Offsets from the minimum skip factorize's dense re-coding
            # whenever the key has room for the value span.
            low = int(raw.min())
            span = int(raw.max()) - low + 1
            if self.num_groups <= _INT64_MAX // span:
                ordered = raw[self._order].astype(np.int64, copy=False)
                ordered -= low
                return ordered, span
        codes, uniques = factorize(raw)
        return codes[self._order], max(len(uniques), 1)

    def _group_nunique(self, in_name: str) -> np.ndarray:
        """Distinct values per group, matching the per-segment semantics of
        ``len(np.unique(seg))`` (NaNs collapse to one) for numeric columns and
        ``len(set(seg))`` for object columns.

        Values become integer codes below a bound ``cardinality``: a
        ``DictColumn``'s own codes, an integer column's offsets from its
        minimum (when the key fits int64 with them), else :func:`factorize`'s
        dense codes, which give every NaN one code.  Each row gets one int64
        key ``group_id * cardinality + code``.  One value sort of the keys
        leaves every group's keys contiguous and in group order, so the
        groups keep their segment starts and each distinct value is one key
        change.  Raises ``OverflowError`` if the key could exceed int64.
        """
        if self.num_groups == 0:
            return np.empty(0, dtype=np.int64)
        ordered, cardinality = self._ordered_codes(in_name)
        if self.num_groups > _INT64_MAX // cardinality:
            raise OverflowError(
                f"(group, value) key needs {self.num_groups} groups x "
                f"{cardinality} distinct values of {in_name!r}, above the "
                f"int64 bound {_INT64_MAX}"
            )
        key = self._group_ids() * cardinality
        key += ordered
        del ordered
        key.sort()
        changed = np.empty(len(key), dtype=bool)
        changed[0] = True
        np.not_equal(key[1:], key[:-1], out=changed[1:])
        return np.add.reduceat(changed, self._starts, dtype=np.int64)

    def agg(self, spec: Mapping[str, tuple[str, str] | tuple[str, Callable]]) -> Table:
        """Aggregate into one row per group.

        ``spec`` maps *output* column names to ``(input_column, agg)`` where
        ``agg`` is one of ``count, sum, mean, median, nanmedian, std, min,
        max, nunique, first, last, collect, p<NN>`` (e.g. ``"p90"``) or a
        callable taking a numpy array segment and returning a scalar.

        Example::

            group_by(t, ["source"]).agg({
                "n": ("worker_id", "count"),
                "trust": ("trust", "mean"),
                "p90_time": ("task_time", "p90"),
            })
        """
        out: dict[str, Any] = {}
        for i, key in enumerate(self._keys):
            out[key] = self._key_uniques[i]

        n = self.num_groups
        ends = np.r_[self._starts[1:], len(self._order)]
        counts = ends - self._starts

        # Group-ordered values, gathered once per input column and shared
        # by every aggregation over it that does not hand out segments.
        ordered_cache: dict[str, np.ndarray] = {}
        # Within-group sorted values, computed once per input column and
        # shared by every order-statistic aggregation over it.
        sorted_cache: dict[str, np.ndarray] = {}

        def sorted_in_groups(in_name: str, ordered: np.ndarray) -> np.ndarray:
            cached = sorted_cache.get(in_name)
            if cached is None:
                if n > 0 and len(ordered) // n >= 16:
                    # Few large groups: in-place C sorts on the contiguous
                    # segments beat a full-array lexsort.  Values only (no
                    # permutation needed), NaNs still sort last per segment.
                    _SEGMENT_SORT_INPLACE.inc()
                    cached = ordered.copy()
                    for lo, hi in zip(self._starts, ends):
                        cached[lo:hi].sort()
                else:
                    _SEGMENT_SORT_LEXSORT.inc()
                    perm = np.lexsort((ordered, self._group_ids()))
                    cached = ordered[perm]
                sorted_cache[in_name] = cached
            return cached

        for out_name, (in_name, how) in spec.items():
            if out_name in out:
                raise SchemaError(f"duplicate output column {out_name!r}")
            # count/nunique never touch the values (or work on codes), so
            # resolve them before materializing dictionary columns.
            if how == "count":
                out[out_name] = counts.astype(np.int64)
                continue
            if how == "nunique":
                out[out_name] = self._group_nunique(in_name)
                continue
            if callable(how) or how == "collect":
                # One gather, cut into per-group views; a fresh gather per
                # aggregation, so a callable that mutates its segment
                # cannot change another output.
                ordered = self._table[in_name][self._order]
                segs = np.split(ordered, self._starts[1:]) if n else []
                if callable(how):
                    out[out_name] = [how(seg) for seg in segs]
                    continue
                col = np.empty(n, dtype=object)
                for j, seg in enumerate(segs):
                    col[j] = list(seg)
                out[out_name] = col
                continue
            ordered = ordered_cache.get(in_name)
            if ordered is None:
                ordered = self._table[in_name][self._order]
                ordered_cache[in_name] = ordered
            if how in ("first", "last"):
                offsets = self._starts if how == "first" else ends - 1
                out[out_name] = ordered[offsets]
                continue

            if ordered.dtype == object:
                raise SchemaError(
                    f"aggregation {how!r} needs a numeric column, got str "
                    f"column {in_name!r}"
                )
            if how == "sum":
                out[out_name] = np.add.reduceat(ordered, self._starts)
            elif how == "mean":
                sums = np.add.reduceat(ordered.astype(np.float64), self._starts)
                out[out_name] = sums / counts
            elif how == "min":
                out[out_name] = np.minimum.reduceat(ordered, self._starts)
            elif how == "max":
                out[out_name] = np.maximum.reduceat(ordered, self._starts)
            elif how == "median":
                out[out_name] = self._group_median(
                    sorted_in_groups(in_name, ordered), counts
                )
            elif how == "nanmedian":
                out[out_name] = self._group_nanmedian(
                    sorted_in_groups(in_name, ordered), counts
                )
            elif how == "std":
                out[out_name] = self._group_std(ordered, counts)
            elif how.startswith("p") and how[1:].replace(".", "", 1).isdigit():
                q = float(how[1:])
                if not 0 <= q <= 100:
                    raise SchemaError(f"percentile out of range: {how!r}")
                out[out_name] = self._order_statistic(
                    sorted_in_groups(in_name, ordered), counts, q
                )
            else:
                raise SchemaError(
                    f"unknown aggregation {how!r}; expected one of "
                    f"{_SIMPLE_AGGS} or 'p<NN>' or a callable"
                )
        return Table(out)


def group_by(table: Table, keys: str | Sequence[str]) -> GroupedTable:
    """Group ``table`` by one or more key columns."""
    if isinstance(keys, str):
        keys = [keys]
    for key in keys:
        if key not in table:
            raise SchemaError(f"unknown group key {key!r}")
    return GroupedTable(table, keys)

"""Mergeable partial aggregates: the out-of-core group-by merge algebra.

:class:`MergeableGroupBy` accumulates group-by partial states over table
*partitions* (shards, spills, streamed chunks) and finalizes them into one
result table — the streaming counterpart of
``repro.tables.group_by(t, key).agg(spec)``.

Algebra
-------
Two kinds of per-group state, chosen per aggregation:

- **Scalar states** (``count``, ``min``, ``max``): a running scalar.
  Exactly associative, commutative, and partition-invariant by integer /
  lattice arithmetic.
- **Value buffers** (``sum``, ``mean``, ``median``, ``p<NN>``,
  ``nunique``): the group's values, kept as a list of per-partition
  segments and only combined at :meth:`finalize`.  Order statistics and
  distinct counts *need* the multiset; sums use :func:`math.fsum` over the
  pooled values — the exactly rounded sum of the multiset — so even
  floating-point sums are invariant to partitioning and merge order.

Because every state is a function of the group's value *multiset* (plus
scalar lattices), ``merge`` is exactly associative and commutative, and
any partitioning of the input rows finalizes to identical bytes — the
property-based suite (``tests/test_shard_merge_properties.py``) pins all
three laws.  Relative to the in-memory ``group_by``, which accumulates
float sums with ``np.add.reduceat`` in row order, pooled ``sum``/``mean``
values may differ in the last ulp; order statistics, counts, and extrema
are bit-identical.

The CDF and histogram merge kernels live with their types
(:meth:`repro.stats.cdf.EmpiricalCDF.merge`,
:meth:`repro.stats.histogram.Histogram.merge`).

:class:`IncrementalTableFold` extends the same discipline from aggregates
to whole released tables: segments keyed by a unique column accumulate in
arrival order and finalize to concat + stable-argsort-by-key — the exact
construction ``repro.shard.build`` uses to prove sharded row order
byte-identical to the monolithic build, so any partitioning of the rows,
arriving in any order, folds to identical bytes.  This is the standing
state behind the incremental ingest service (:mod:`repro.service`).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Iterable, Mapping

import numpy as np

from repro import obs
from repro.tables.column import DictColumn, canonical_dict, concat_dict_columns

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.tables import Table

_TABLES_MERGED = obs.counter("shard.groupby_tables_merged")

#: Aggregations whose per-group state is a running scalar.
_SCALAR_AGGS = ("count", "min", "max")
#: Aggregations that need the group's value multiset at finalize time.
_BUFFER_AGGS = ("sum", "mean", "median", "nunique")


def _is_percentile(how: str) -> bool:
    return (
        how.startswith("p")
        and how[1:].replace(".", "", 1).isdigit()
        and 0.0 <= float(how[1:]) <= 100.0
    )


def _validate_spec(
    spec: Mapping[str, tuple[str, str]]
) -> dict[str, tuple[str, str]]:
    validated: dict[str, tuple[str, str]] = {}
    for out_name, (in_name, how) in spec.items():
        if (
            how not in _SCALAR_AGGS
            and how not in _BUFFER_AGGS
            and not _is_percentile(how)
        ):
            raise ValueError(
                f"aggregation {how!r} is not mergeable; expected one of "
                f"{', '.join(_SCALAR_AGGS + _BUFFER_AGGS)}, or p<NN>"
            )
        validated[out_name] = (in_name, how)
    return validated


class _GroupState:
    """Per-group partial state: scalars plus per-column value buffers."""

    __slots__ = ("count", "minimums", "maximums", "buffers")

    def __init__(self, buffer_cols: tuple[str, ...]):
        self.count = 0
        self.minimums: dict[str, object] = {}
        self.maximums: dict[str, object] = {}
        self.buffers: dict[str, list[np.ndarray]] = {
            col: [] for col in buffer_cols
        }

    def absorb(self, other: "_GroupState") -> None:
        self.count += other.count
        for col, value in other.minimums.items():
            mine = self.minimums.get(col)
            self.minimums[col] = value if mine is None else min(mine, value)
        for col, value in other.maximums.items():
            mine = self.maximums.get(col)
            self.maximums[col] = value if mine is None else max(mine, value)
        for col, segments in other.buffers.items():
            self.buffers[col].extend(segments)


class MergeableGroupBy:
    """Group-by partial aggregates that merge exactly across partitions.

    >>> part = MergeableGroupBy("batch_id", {"n": ("batch_id", "count"),
    ...                                      "t": ("task_time", "median")})
    >>> part.update(shard_table)          # any number of partitions
    >>> part.merge(other_part)            # any order, any grouping
    >>> result = part.finalize()          # one row per key, sorted by key
    """

    def __init__(self, key: str, spec: Mapping[str, tuple[str, str]]):
        self.key = key
        self.spec = _validate_spec(spec)
        # min/max track running scalars; only multiset aggs buffer values.
        # Deduplicated: several aggregations may read the same column, but
        # its values must be buffered exactly once.
        self._buffer_cols = tuple(sorted({
            in_name
            for in_name, how in self.spec.values()
            if how in _BUFFER_AGGS or _is_percentile(how)
        }))
        self._minmax_cols = tuple(sorted({
            in_name
            for in_name, how in self.spec.values()
            if how in ("min", "max")
        }))
        self._groups: dict[object, _GroupState] = {}

    def _state(self, key_value: object) -> _GroupState:
        state = self._groups.get(key_value)
        if state is None:
            state = self._groups[key_value] = _GroupState(self._buffer_cols)
        return state

    def update(self, table: "Table") -> "MergeableGroupBy":
        """Fold one partition (a :class:`~repro.tables.Table`) in."""
        _TABLES_MERGED.inc()
        keys = np.asarray(table[self.key])
        order = np.argsort(keys, kind="stable")
        sorted_keys = keys[order]
        n = len(sorted_keys)
        if n == 0:
            return self
        starts = np.flatnonzero(
            np.r_[True, sorted_keys[1:] != sorted_keys[:-1]]
        )
        ends = np.r_[starts[1:], n]
        sorted_cols = {
            col: np.asarray(table[col])[order]
            for col in set(self._buffer_cols) | set(self._minmax_cols)
        }
        for s, e in zip(starts, ends):
            state = self._state(sorted_keys[s].item())
            state.count += int(e - s)
            for col in self._minmax_cols:
                segment = sorted_cols[col][s:e]
                lo, hi = segment.min().item(), segment.max().item()
                mine = state.minimums.get(col)
                state.minimums[col] = lo if mine is None else min(mine, lo)
                mine = state.maximums.get(col)
                state.maximums[col] = hi if mine is None else max(mine, hi)
            for col in self._buffer_cols:
                state.buffers[col].append(sorted_cols[col][s:e])
        return self

    def merge(self, other: "MergeableGroupBy") -> "MergeableGroupBy":
        """Absorb ``other``'s partial states (same key and spec) in place."""
        if other.key != self.key or other.spec != self.spec:
            raise ValueError("cannot merge group-bys with different specs")
        for key_value, state in other._groups.items():
            self._state(key_value).absorb(state)
        return self

    def finalize(self) -> "Table":
        """One row per key, sorted ascending by key.

        The canonical ordering makes the result independent of partition
        arrival order; group-by's own output happens to share it because
        its groups come from sorted key codes.
        """
        from repro.tables import Table
        from repro.tables.column import count_distinct

        key_values = sorted(self._groups)
        states = [self._groups[k] for k in key_values]
        out: dict[str, np.ndarray] = {
            self.key: np.array(key_values)
        }
        pooled: dict[tuple[object, str], np.ndarray] = {}

        def pool(key_value: object, state: _GroupState, col: str) -> np.ndarray:
            cached = pooled.get((key_value, col))
            if cached is None:
                segments = state.buffers[col]
                cached = (
                    np.concatenate(segments)
                    if segments
                    else np.empty(0, dtype=np.float64)
                )
                pooled[(key_value, col)] = cached
            return cached

        for out_name, (in_name, how) in self.spec.items():
            if how == "count":
                out[out_name] = np.array(
                    [s.count for s in states], dtype=np.int64
                )
            elif how == "min":
                out[out_name] = np.array(
                    [s.minimums[in_name] for s in states]
                )
            elif how == "max":
                out[out_name] = np.array(
                    [s.maximums[in_name] for s in states]
                )
            elif how == "sum":
                out[out_name] = np.array([
                    math.fsum(pool(k, s, in_name).tolist())
                    for k, s in zip(key_values, states)
                ])
            elif how == "mean":
                out[out_name] = np.array([
                    math.fsum(values.tolist()) / values.size
                    for values in (
                        pool(k, s, in_name)
                        for k, s in zip(key_values, states)
                    )
                ])
            elif how == "median":
                out[out_name] = np.array([
                    float(np.median(pool(k, s, in_name)))
                    for k, s in zip(key_values, states)
                ])
            elif how == "nunique":
                out[out_name] = np.array([
                    count_distinct(pool(k, s, in_name))
                    for k, s in zip(key_values, states)
                ], dtype=np.int64)
            else:  # p<NN>
                q = float(how[1:])
                out[out_name] = np.array([
                    float(np.percentile(pool(k, s, in_name), q))
                    for k, s in zip(key_values, states)
                ])
        return Table(out, copy=False)


class IncrementalTableFold:
    """Standing fold of table segments into one canonically ordered table.

    Segments share a schema and carry a *unique* key column (``instance_id``
    for the instance log, ``batch_id`` for the catalog).  :meth:`finalize`
    returns every folded row stable-sorted by key — because the keys are
    unique, the result depends only on the row *multiset*, never on how the
    rows were partitioned into segments or in which order they arrived.
    The monolithic build emits these tables sorted ascending by the same
    key, so the finalized fold is byte-identical to the one-shot batch
    table (the construction ``repro.shard.build._merge_sorted_by`` already
    relies on).

    Finalize is incremental: segments folded since the last finalize are
    sorted among themselves and merged into the standing sorted table with
    ``searchsorted`` (ties go after the standing rows, which arrived
    first), so each finalize costs one pass over the table instead of a
    full re-sort, and the merged segments are dropped — the rows are never
    held twice.  That equals a stable sort of every segment in arrival
    order.  Each finalize builds new arrays, so a table returned earlier
    stays valid and unchanged.

    String columns fold as codes: each segment's column (an object array
    or a :class:`~repro.tables.DictColumn`) is put in canonical form on
    fold, and finalize merges dictionaries by their sorted union, so the
    finalized codes and uniques — not just the logical strings — are
    independent of partitioning and arrival order.
    """

    def __init__(self, key: str):
        self.key = key
        self._pending: list[dict[str, np.ndarray]] = []
        self._names: list[str] | None = None
        self._num_rows = 0
        self._final: "Table | None" = None

    @property
    def num_rows(self) -> int:
        return self._num_rows

    @property
    def column_names(self) -> list[str] | None:
        """Schema seen so far, or ``None`` before the first fold."""
        return None if self._names is None else list(self._names)

    def fold(self, table: "Table") -> int:
        """Fold one segment in; returns the number of rows added.

        The first non-empty segment fixes the schema; later segments must
        match it exactly (names *and* order) — a mismatched segment raises
        ``ValueError`` and leaves the fold untouched.
        """
        names = list(table.column_names)
        if self.key not in names:
            raise ValueError(
                f"segment is missing key column {self.key!r} "
                f"(has: {names})"
            )
        if table.num_rows == 0:
            return 0
        if self._names is None:
            self._names = names
        elif names != self._names:
            raise ValueError(
                f"segment schema {names} does not match the standing "
                f"schema {self._names}"
            )
        self._pending.append(
            {name: _fold_column(table.column(name)) for name in names}
        )
        self._num_rows += table.num_rows
        return table.num_rows

    def finalize(self) -> "Table":
        """All folded rows, stable-sorted ascending by the key column."""
        from repro.tables import Table
        from repro.tables.table import _gather, concat_columns

        if not self._pending:
            if self._final is None:
                raise ValueError("cannot finalize an empty fold")
            return self._final
        assert self._names is not None
        keys = np.concatenate([seg[self.key] for seg in self._pending])
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        at = None
        if self._final is not None:
            at = np.searchsorted(
                self._final.column(self.key), keys, side="right"
            )
        merged: dict[str, np.ndarray | DictColumn] = {}
        for name in self._names:
            if name == self.key:
                column = keys
            else:
                column = _gather(
                    concat_columns([seg[name] for seg in self._pending]),
                    order,
                )
            if at is not None:
                column = _insert(self._final.column(name), at, column)
            merged[name] = column
        self._pending = []
        self._final = Table(merged, copy=False)
        return self._final


def _fold_column(
    column: "np.ndarray | DictColumn",
) -> "np.ndarray | DictColumn":
    """A segment column as the fold keeps it: strings canonical, else as is."""
    if isinstance(column, DictColumn) or column.dtype == object:
        return canonical_dict(column)
    return column


def _insert(
    standing: "np.ndarray | DictColumn", at: np.ndarray,
    new: "np.ndarray | DictColumn",
) -> "np.ndarray | DictColumn":
    """``np.insert(standing, at, new)``; dictionary columns are remapped
    into the sorted union of both dictionaries first."""
    if not isinstance(standing, DictColumn):
        return np.insert(standing, at, new)
    both = concat_dict_columns([standing, new])
    split = len(standing)
    return DictColumn(
        np.insert(both.codes[:split], at, both.codes[split:]), both.uniques
    )


def merge_group_by(
    tables: "Iterable[Table]",
    key: str,
    spec: Mapping[str, tuple[str, str]],
) -> "Table":
    """Group-by over partitioned tables via mergeable partial aggregates.

    Streaming convenience over :class:`MergeableGroupBy`: each table is
    folded in and released before the next is touched, so peak memory is
    one partition plus the (buffered) partial states.
    """
    partial = MergeableGroupBy(key, spec)
    for table in tables:
        partial.update(table)
    return partial.finalize()

"""Sorted unions of table segments keyed by a unique column.

:func:`merge_sorted_by` concatenates tables and stable-sorts the rows by a
key, column by column: the construction ``repro.shard.build`` uses to
prove sharded row order byte-identical to the monolithic build.

:class:`IncrementalTableFold` extends it to a standing fold: segments
accumulate in arrival order and finalize through :func:`merge_sorted_by`
into one canonically ordered table, so any partitioning of the rows,
arriving in any order, folds to identical bytes.  This is the standing
state behind the incremental ingest service (:mod:`repro.service`),
whose instance aggregates are read-time functions of the finalized fold.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.tables.column import DictColumn, canonical_dict, concat_dict_columns

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.tables import Table


class IncrementalTableFold:
    """Standing fold of table segments into one canonically ordered table.

    Segments share a schema and carry a *unique* key column (``instance_id``
    for the instance log, ``batch_id`` for the catalog).  :meth:`finalize`
    returns every folded row stable-sorted by key — because the keys are
    unique, the result depends only on the row *multiset*, never on how the
    rows were partitioned into segments or in which order they arrived.
    The monolithic build emits these tables sorted ascending by the same
    key, so the finalized fold is byte-identical to the one-shot batch
    table.

    Finalize is incremental: segments folded since the last finalize are
    sorted among themselves by :func:`merge_sorted_by` and merged into the
    standing sorted table with ``searchsorted`` (ties go after the
    standing rows, which arrived first), so each finalize costs one pass
    over the table instead of a full re-sort, and the merged segments are
    dropped.  That equals a stable sort of every segment in arrival
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
        self._pending: list["Table"] = []
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
        from repro.tables import Table

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
        self._pending.append(Table(
            {name: _fold_column(table.column(name)) for name in names},
            copy=False,
        ))
        self._num_rows += table.num_rows
        return table.num_rows

    def finalize(self) -> "Table":
        """All folded rows, stable-sorted ascending by the key column."""
        from repro.tables import Table

        if not self._pending:
            if self._final is None:
                raise ValueError("cannot finalize an empty fold")
            return self._final
        fresh = merge_sorted_by(self._pending, self.key)
        if self._final is not None:
            standing = self._final
            at = np.searchsorted(
                standing.column(self.key), fresh.column(self.key),
                side="right",
            )
            fresh = Table(
                {
                    name: _insert(
                        standing.column(name), at, fresh.column(name)
                    )
                    for name in fresh.column_names
                },
                copy=False,
            )
        self._final = fresh
        return fresh


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


def merge_sorted_by(tables: list, key: str) -> "Table":
    """Concatenate tables and stable-sort the rows by ``key``, column-wise.

    Byte-identical to ``concat_tables(tables).take(argsort(table[key],
    kind="stable"))``, but each column of the union is fetched (for a
    :class:`~repro.shard.store.SpilledTable`, read from disk), placed into
    the output, and freed before the next one — peak memory is the merged
    output plus about one column, not two whole extra tables.  Dictionary
    columns merge as codes over the sorted union of the tables' canonical
    dictionaries, so the result is canonical too.  Consumes ``tables``
    destructively.
    """
    from repro.tables import Table
    from repro.tables.table import _gather, concat_columns

    names = list(tables[0].column_names)
    key_column = np.concatenate([t.column(key) for t in tables])
    order = np.argsort(key_column, kind="stable")
    merged = {}
    for name in names:
        if name == key:
            column = key_column
        else:
            parts = [t.column(name) for t in tables]
            column = concat_columns(parts)
            parts.clear()
        merged[name] = _gather(column, order)
        del column
    del key_column
    tables.clear()
    return Table(merged, copy=False)

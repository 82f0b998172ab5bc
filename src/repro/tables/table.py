"""The :class:`Table` container: named, typed, equal-length numpy columns."""

from __future__ import annotations

from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.tables.column import (
    DictColumn,
    as_column,
    column_kind,
    concat_dict_columns,
)


class SchemaError(ValueError):
    """Raised for malformed table construction or unknown column access."""


def _gather(column: np.ndarray | DictColumn, selector: np.ndarray):
    """Row-subset a column by boolean mask or index array.

    Dictionary columns slice only their codes; the uniques table is shared
    with the parent so repeated filters never re-encode strings.
    """
    if isinstance(column, DictColumn):
        return column.take(selector) if selector.dtype != bool else column.filter(selector)
    return column[selector]


def _as_array(column: np.ndarray | DictColumn) -> np.ndarray:
    return column.materialize() if isinstance(column, DictColumn) else column


class Table:
    """An ordered collection of equal-length columns.

    ``Table`` is immutable by convention: every operation returns a new
    table, and the underlying arrays should not be written to.  Columns are
    accessed with ``table["name"]`` (returning the numpy array) and rows are
    materialized only on demand via :meth:`to_rows`.
    """

    __slots__ = ("_columns",)

    def __init__(
        self,
        columns: Mapping[str, Any] | None = None,
        *,
        copy: bool = True,
    ) -> None:
        normalized: dict[str, np.ndarray] = {}
        length: int | None = None
        for name, values in (columns or {}).items():
            if not isinstance(name, str) or not name:
                raise SchemaError(f"column names must be non-empty strings: {name!r}")
            array = as_column(values, copy=copy)
            if length is None:
                length = len(array)
            elif len(array) != length:
                raise SchemaError(
                    f"column {name!r} has length {len(array)}, expected {length}"
                )
            normalized[name] = array
        self._columns = normalized

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #

    @classmethod
    def from_rows(
        cls, rows: Iterable[Mapping[str, Any]], *, columns: Sequence[str] | None = None
    ) -> "Table":
        """Build a table from an iterable of dict-like rows.

        If ``columns`` is omitted the keys of the first row define the schema;
        every row must then supply exactly those keys.
        """
        materialized = list(rows)
        if not materialized and columns is None:
            return cls({})
        names = list(columns) if columns is not None else list(materialized[0].keys())
        data: dict[str, list[Any]] = {name: [] for name in names}
        for i, row in enumerate(materialized):
            for name in names:
                if name not in row:
                    raise SchemaError(f"row {i} is missing column {name!r}")
                data[name].append(row[name])
        return cls(data)

    @classmethod
    def empty(cls, schema: Mapping[str, str]) -> "Table":
        """An empty table with the given ``{name: kind}`` schema."""
        dtype_for = {"int": np.int64, "float": np.float64, "bool": bool, "str": object}
        columns = {}
        for name, kind in schema.items():
            if kind not in dtype_for:
                raise SchemaError(f"unknown column kind {kind!r} for {name!r}")
            columns[name] = np.empty(0, dtype=dtype_for[kind])
        return cls(columns, copy=False)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def num_rows(self) -> int:
        for array in self._columns.values():
            return len(array)
        return 0

    @property
    def num_columns(self) -> int:
        return len(self._columns)

    @property
    def column_names(self) -> list[str]:
        return list(self._columns)

    def schema(self) -> dict[str, str]:
        """Mapping of column name to engine kind."""
        return {name: column_kind(array) for name, array in self._columns.items()}

    def __len__(self) -> int:
        return self.num_rows

    def __contains__(self, name: object) -> bool:
        return name in self._columns

    def __getitem__(self, name: str) -> np.ndarray:
        try:
            return _as_array(self._columns[name])
        except KeyError:
            raise SchemaError(
                f"no column {name!r}; available: {self.column_names}"
            ) from None

    def column(self, name: str) -> np.ndarray | DictColumn:
        """Raw column storage: the ndarray, or the :class:`DictColumn` itself.

        ``table[name]`` always materializes; kernels that can run on codes
        (group-by, join, shingling) use this accessor instead.
        """
        try:
            return self._columns[name]
        except KeyError:
            raise SchemaError(
                f"no column {name!r}; available: {self.column_names}"
            ) from None

    def __iter__(self) -> Iterator[str]:
        return iter(self._columns)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Table):
            return NotImplemented
        if self.column_names != other.column_names or len(self) != len(other):
            return False
        for name in self.column_names:
            a, b = self[name], other[name]
            if a.dtype == object or b.dtype == object:
                if not all(x == y for x, y in zip(a, b)):
                    return False
            elif a.dtype.kind == "f" or b.dtype.kind == "f":
                if not np.allclose(a, b, equal_nan=True):
                    return False
            elif not np.array_equal(a, b):
                return False
        return True

    def __repr__(self) -> str:
        cols = ", ".join(f"{n}:{k}" for n, k in self.schema().items())
        return f"Table({self.num_rows} rows; {cols})"

    # ------------------------------------------------------------------ #
    # Row-wise access
    # ------------------------------------------------------------------ #

    def row(self, index: int) -> dict[str, Any]:
        """Materialize a single row as a plain dict."""
        if not -self.num_rows <= index < self.num_rows:
            raise IndexError(f"row {index} out of range for {self.num_rows} rows")
        return {name: array[index].item() if array.dtype != object else array[index]
                for name, array in ((n, _as_array(a)) for n, a in self._columns.items())}

    def to_rows(self) -> list[dict[str, Any]]:
        """Materialize all rows (intended for small tables and tests)."""
        names = self.column_names
        arrays = [_as_array(self._columns[n]) for n in names]
        out = []
        for i in range(self.num_rows):
            out.append(
                {
                    n: (a[i] if a.dtype == object else a[i].item())
                    for n, a in zip(names, arrays)
                }
            )
        return out

    def to_dict(self) -> dict[str, np.ndarray]:
        """Shallow copy of the column mapping (arrays are aliased).

        Dictionary columns are materialized to their logical object arrays.
        """
        return {n: _as_array(a) for n, a in self._columns.items()}

    # ------------------------------------------------------------------ #
    # Relational operations
    # ------------------------------------------------------------------ #

    def select(self, names: Sequence[str]) -> "Table":
        """Project onto a subset of columns, in the given order."""
        missing = [n for n in names if n not in self._columns]
        if missing:
            raise SchemaError(f"unknown columns in select: {missing}")
        return Table({n: self._columns[n] for n in names}, copy=False)

    def drop(self, names: Sequence[str]) -> "Table":
        """Project away the given columns."""
        doomed = set(names)
        missing = doomed - set(self._columns)
        if missing:
            raise SchemaError(f"unknown columns in drop: {sorted(missing)}")
        return Table(
            {n: a for n, a in self._columns.items() if n not in doomed}, copy=False
        )

    def rename(self, mapping: Mapping[str, str]) -> "Table":
        """Rename columns; unmentioned columns keep their names."""
        missing = set(mapping) - set(self._columns)
        if missing:
            raise SchemaError(f"unknown columns in rename: {sorted(missing)}")
        new_names = [mapping.get(n, n) for n in self._columns]
        if len(set(new_names)) != len(new_names):
            raise SchemaError(f"rename produces duplicate column names: {new_names}")
        return Table(
            {mapping.get(n, n): a for n, a in self._columns.items()}, copy=False
        )

    def with_column(self, name: str, values: Any) -> "Table":
        """Return a table with an added or replaced column."""
        array = as_column(values)
        if self._columns and len(array) != self.num_rows:
            raise SchemaError(
                f"new column {name!r} has length {len(array)}, expected {self.num_rows}"
            )
        columns = dict(self._columns)
        columns[name] = array
        return Table(columns, copy=False)

    def filter(self, mask: Any) -> "Table":
        """Keep rows where ``mask`` is True.

        ``mask`` may be a boolean array or a callable mapping this table to
        one (e.g. ``t.filter(lambda t: t["x"] > 0)``, or an
        :class:`~repro.tables.expr.Expr`).  The surviving row positions are
        found once and every column is gathered once with them; a lazy
        plan's filter runs this same kernel.
        """
        if callable(mask):
            mask = mask(self)
        mask = np.asarray(mask)
        if mask.dtype != bool or mask.shape != (self.num_rows,):
            raise SchemaError(
                f"filter mask must be bool of length {self.num_rows}, "
                f"got dtype {mask.dtype} shape {mask.shape}"
            )
        idx = np.flatnonzero(mask)
        return Table(
            {n: _gather(a, idx) for n, a in self._columns.items()}, copy=False
        )

    def take(self, indices: Any) -> "Table":
        """Select rows by integer position (duplicates and reordering allowed)."""
        indices = np.asarray(indices, dtype=np.int64)
        return Table(
            {n: _gather(a, indices) for n, a in self._columns.items()}, copy=False
        )

    def head(self, n: int = 10) -> "Table":
        return self.take(np.arange(min(n, self.num_rows)))

    def sort_by(self, names: str | Sequence[str], *, descending: bool = False) -> "Table":
        """Stable sort by one or more columns (last name is most significant
        per ``numpy.lexsort`` convention flipped — we present the intuitive
        order: first name is the primary key)."""
        if isinstance(names, str):
            names = [names]
        keys = [self[name] for name in names]
        sortable = [
            k if k.dtype != object else np.asarray([str(v) for v in k]) for k in keys
        ]
        order = np.lexsort(tuple(reversed(sortable)))
        if descending:
            order = order[::-1]
        return self.take(order)

    def distinct(self, names: Sequence[str] | None = None) -> "Table":
        """Drop duplicate rows, keeping the first occurrence.

        If ``names`` is given, uniqueness is judged on those columns only but
        full rows are returned.
        """
        subset = list(names) if names is not None else self.column_names
        seen: set[tuple] = set()
        keep = np.zeros(self.num_rows, dtype=bool)
        arrays = [self[n] for n in subset]
        for i in range(self.num_rows):
            key = tuple(a[i] if a.dtype == object else a[i].item() for a in arrays)
            if key not in seen:
                seen.add(key)
                keep[i] = True
        return self.filter(keep)

    def lazy(self) -> "Any":
        """Start a lazy plan rooted at this table (see :mod:`repro.tables.plan`)."""
        from repro.tables.plan import LazyFrame

        return LazyFrame.scan(self)

    def map_rows(self, fn: Callable[[dict[str, Any]], Any], *, name: str) -> "Table":
        """Add a column computed row-by-row (slow path; prefer vector ops)."""
        values = [fn(self.row(i)) for i in range(self.num_rows)]
        return self.with_column(name, values)

    def describe(self) -> "Table":
        """Summary statistics for every numeric column (count/mean/std/
        min/p25/median/p75/max), one row per column."""
        from repro.stats.descriptive import summarize

        rows = []
        for name, array in self._columns.items():
            if column_kind(array) not in ("int", "float"):
                continue
            summary = summarize(array.astype(np.float64))
            rows.append({"column": name, **summary.as_dict()})
        if not rows:
            return Table({})
        return Table.from_rows(rows)


def concat_tables(tables: Sequence[Table]) -> Table:
    """Vertically concatenate tables with identical schemas."""
    tables = [t for t in tables if t.num_columns > 0]
    if not tables:
        return Table({})
    names = tables[0].column_names
    for t in tables[1:]:
        if t.column_names != names:
            raise SchemaError(
                f"cannot concat: schema {t.column_names} != {names}"
            )
    columns = {
        name: concat_columns([t.column(name) for t in tables]) for name in names
    }
    return Table(columns, copy=False)


def concat_columns(
    parts: Sequence[np.ndarray | DictColumn],
) -> np.ndarray | DictColumn:
    """Concatenate raw column storage; dictionary parts stay dictionary-coded
    (see :func:`~repro.tables.column.concat_dict_columns`)."""
    if all(isinstance(p, DictColumn) for p in parts):
        return concat_dict_columns(parts)
    arrays = [_as_array(p) for p in parts]
    if any(a.dtype == object for a in arrays):
        arrays = [a.astype(object) for a in arrays]
    return np.concatenate(arrays)

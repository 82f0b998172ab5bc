"""A small in-memory columnar table engine.

This subpackage is the storage and relational-algebra substrate for the rest
of the reproduction.  The original paper's analyses are the kind of thing one
would do in pandas or R; neither is available in this environment, so we
implement the minimal relational core needed by the analyses, backed by numpy
arrays:

- :class:`~repro.tables.table.Table` — an immutable-by-convention mapping of
  column names to typed numpy arrays, with filter / select / sort / distinct /
  concat / derived-column operations.
- :func:`~repro.tables.groupby.group_by` — sort-based grouped aggregation
  (count, sum, mean, median, min, max, nunique, percentiles, first, collect).
- :func:`~repro.tables.join.hash_join` — inner and left equi-joins.
- :class:`~repro.tables.plan.LazyFrame` — lazy logical plans with filter
  fusion and projection pushdown; start one with ``table.lazy()`` and run it
  with ``collect()``.
- :mod:`~repro.tables.io` — CSV and JSONL round-trips with type inference.

Design notes
------------
Columns are plain ``numpy.ndarray`` objects.  Numeric columns use ``int64`` /
``float64`` / ``bool``; string columns use ``object`` dtype (variable-length
unicode arrays waste memory and copy on every widening write) or a
:class:`~repro.tables.column.DictColumn` — int32 codes plus a unique-values
table — so group-by keys, join keys, and shingling operate on integers.  A
``Table`` never aliases caller-owned mutable state: constructors copy unless
told not to, and all operations return new tables.
"""

from repro.tables.column import (
    DictColumn,
    as_column,
    column_kind,
    concat_dict_columns,
    dict_encode,
)
from repro.tables.expr import Expr, col, lit
from repro.tables.groupby import GroupedTable, group_by
from repro.tables.io import (
    read_csv,
    read_jsonl,
    write_csv,
    write_jsonl,
)
from repro.tables.join import hash_join
from repro.tables.plan import LazyFrame, OpProfile, optimize, profile_hotspots
from repro.tables.table import Table, concat_tables

__all__ = [
    "DictColumn",
    "Expr",
    "GroupedTable",
    "LazyFrame",
    "OpProfile",
    "Table",
    "as_column",
    "col",
    "column_kind",
    "concat_dict_columns",
    "concat_tables",
    "dict_encode",
    "group_by",
    "hash_join",
    "lit",
    "optimize",
    "profile_hotspots",
    "read_csv",
    "read_jsonl",
    "write_csv",
    "write_jsonl",
]

"""Column typing helpers for the table engine.

A column is a one-dimensional ``numpy.ndarray``.  The engine recognizes four
*kinds* of column:

``"int"``
    ``int64`` (and any other signed/unsigned integer dtype, normalized to
    ``int64`` on ingestion).
``"float"``
    ``float64``; ``NaN`` is the missing-value marker.
``"bool"``
    ``bool``.
``"str"``
    ``object`` dtype holding Python ``str`` (``None`` is the missing marker),
    or a :class:`DictColumn` of codes over a uniques table.

Anything else is rejected at ingestion time so that downstream group-by and
join code can rely on a closed set of representations.
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence

import numpy as np

from repro import obs

_KINDS = ("int", "float", "bool", "str")

_CODE_DTYPE = np.int32

#: Rows decoded by :meth:`DictColumn.materialize`: a string column turned
#: back into Python objects.  The study keeps its instance string columns
#: as codes, so a nonzero delta over a build names a stray decode.
_MATERIALIZED_ROWS = obs.counter("dict.materialized_rows")


class ColumnTypeError(TypeError):
    """Raised when values cannot be normalized into a supported column kind."""


class DictColumn:
    """A dictionary-encoded string column: int32 codes plus a uniques table.

    ``uniques[codes]`` reconstructs the logical object array.  The uniques
    table holds distinct values (``str`` or ``None``); nothing forces every
    unique to be referenced, so row subsets can slice the codes array and
    keep sharing the dictionary.  Instances are immutable by convention,
    like the plain numpy columns they stand in for.

    The *canonical* form (:func:`canonical_dict`) is what the study stores:
    uniques exactly the referenced values, all ``str``, strictly increasing,
    so equal logical columns have equal codes and uniques however they were
    built, concatenated, merged or folded.
    """

    __slots__ = ("codes", "uniques", "_materialized")

    def __init__(self, codes: np.ndarray, uniques: np.ndarray):
        if codes.dtype != _CODE_DTYPE:
            codes = codes.astype(_CODE_DTYPE)
        if uniques.dtype != object:
            uniques = uniques.astype(object)
        self.codes = codes
        self.uniques = uniques
        self._materialized: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.codes)

    @property
    def dtype(self) -> np.dtype:
        return np.dtype(object)

    def materialize(self) -> np.ndarray:
        """The logical object array (cached after the first call)."""
        if self._materialized is None:
            _MATERIALIZED_ROWS.inc(len(self.codes))
            self._materialized = self.uniques[self.codes]
        return self._materialized

    def __getitem__(self, key):
        """The logical values at ``key``; only those rows are decoded."""
        return self.uniques[self.codes[key]]

    def take(self, indices: np.ndarray) -> "DictColumn":
        return DictColumn(self.codes[indices], self.uniques)

    def filter(self, mask: np.ndarray) -> "DictColumn":
        return DictColumn(self.codes[mask], self.uniques)

    def dense_codes(self) -> tuple[np.ndarray, np.ndarray]:
        """Densified ``(codes, uniques)`` in first-appearance order.

        Byte-identical to ``factorize(self.materialize())``: only codes that
        actually occur survive, renumbered by first appearance, so group-by
        and join on a dictionary column order groups exactly like the object
        path does.
        """
        # O(n) scatter instead of np.unique's sort: a reversed fancy-index
        # assignment leaves each code's *first* row index behind (last write
        # wins), so only the tiny per-unique argsort pays O(u log u).
        codes = self.codes
        first = np.full(len(self.uniques), -1, dtype=np.int64)
        first[codes[::-1]] = np.arange(len(codes) - 1, -1, -1, dtype=np.int64)
        used = np.flatnonzero(first >= 0)
        order = np.argsort(first[used], kind="stable")
        rank = np.empty(len(self.uniques), dtype=np.int64)
        rank[used[order]] = np.arange(len(used), dtype=np.int64)
        return rank[codes], self.uniques[used[order]]

    def __getstate__(self):
        return (self.codes, self.uniques)

    def __setstate__(self, state):
        self.codes, self.uniques = state
        self._materialized = None

    def __repr__(self) -> str:
        return f"DictColumn({len(self.codes)} rows, {len(self.uniques)} uniques)"


def dict_encode(values: np.ndarray | DictColumn) -> DictColumn:
    """Dictionary-encode an object column (no-op for ``DictColumn`` input)."""
    if isinstance(values, DictColumn):
        return values
    codes, uniques = factorize(values)
    return DictColumn(codes.astype(_CODE_DTYPE), uniques)


def _sort_key(value: Any) -> tuple[bool, str]:
    # ``None`` (only ever in non-canonical columns) sorts before every str.
    return (value is not None, value if value is not None else "")


def concat_dict_columns(parts: Sequence[DictColumn]) -> DictColumn:
    """Concatenate dictionary columns, unifying their dictionaries.

    The merged dictionary is the sorted union of the parts' uniques and
    each part's codes are remapped into it, so canonical parts concatenate
    to a canonical column.
    """
    if not parts:
        return DictColumn(np.empty(0, dtype=_CODE_DTYPE), np.empty(0, dtype=object))
    merged = sorted(
        {value for part in parts for value in part.uniques.tolist()},
        key=_sort_key,
    )
    position = {value: code for code, value in enumerate(merged)}
    remapped = []
    for part in parts:
        remap = np.fromiter(
            (position[value] for value in part.uniques.tolist()),
            dtype=_CODE_DTYPE, count=len(part.uniques),
        )
        remapped.append(remap[part.codes] if len(part.codes) else part.codes)
    uniques = np.empty(len(merged), dtype=object)
    uniques[:] = merged
    return DictColumn(np.concatenate(remapped), uniques)


def canonical_dict(values: np.ndarray | DictColumn) -> DictColumn:
    """The canonical dictionary form of a string column.

    Uniques become exactly the referenced values in sorted order and codes
    are int32 ranks into them, so any two columns with equal logical
    values come out with equal ``codes`` and ``uniques``.  An object array
    is factorized first; a :class:`DictColumn` is compacted with an O(rows)
    presence scan and a sort of its referenced uniques only.
    """
    column = values if isinstance(values, DictColumn) else dict_encode(values)
    present = np.zeros(len(column.uniques), dtype=bool)
    present[column.codes] = True
    used = np.flatnonzero(present)
    referenced = column.uniques[used]
    order = np.argsort(referenced, kind="stable")
    rank = np.zeros(len(column.uniques), dtype=_CODE_DTYPE)
    rank[used[order]] = np.arange(len(used), dtype=_CODE_DTYPE)
    return DictColumn(rank[column.codes], referenced[order])


def check_canonical(column: DictColumn) -> None:
    """Raise ``ValueError`` unless ``column`` is in canonical form.

    The on-disk check: codes inside ``[0, len(uniques))`` and uniques that
    are strictly increasing ``str``.  (Unreferenced uniques are not
    checked: a loader cannot tell them from damage any cheaper than by
    recompacting.)
    """
    codes, uniques = column.codes, column.uniques
    if codes.ndim != 1 or uniques.ndim != 1:
        raise ValueError("dictionary codes and uniques must be 1-D")
    if len(codes) and (int(codes.min()) < 0 or int(codes.max()) >= len(uniques)):
        raise ValueError(f"dictionary code outside [0, {len(uniques)})")
    if not all(type(value) is str for value in uniques.tolist()):
        raise ValueError("dictionary uniques must all be str")
    if len(uniques) > 1 and not bool(np.all(uniques[1:] > uniques[:-1])):
        raise ValueError("dictionary uniques are not strictly increasing")


def column_kind(values: np.ndarray | DictColumn) -> str:
    """Return the engine kind (``int``/``float``/``bool``/``str``) of an array.

    Raises :class:`ColumnTypeError` for unsupported dtypes.
    """
    if isinstance(values, DictColumn):
        return "str"
    kind = values.dtype.kind
    if kind in ("i", "u"):
        return "int"
    if kind == "f":
        return "float"
    if kind == "b":
        return "bool"
    if kind == "O" or kind in ("U", "S"):
        return "str"
    raise ColumnTypeError(f"unsupported column dtype: {values.dtype!r}")


def _coerce_object_array(values: Sequence[Any]) -> np.ndarray:
    out = np.empty(len(values), dtype=object)
    for i, value in enumerate(values):
        if value is None:
            out[i] = None
        elif isinstance(value, str):
            out[i] = value
        else:
            raise ColumnTypeError(
                f"string column contains non-string value {value!r} at row {i}"
            )
    return out


def as_column(values: Iterable[Any], *, copy: bool = True) -> np.ndarray:
    """Normalize arbitrary input into a supported 1-D column array.

    Accepts numpy arrays, lists, tuples and other sequences.  Integer input
    becomes ``int64``, floats ``float64``, booleans ``bool``, and strings an
    ``object`` array of ``str`` (with ``None`` for missing).  Mixed
    int/float input is promoted to float.

    ``copy=False`` permits aliasing an already well-typed numpy array; the
    caller then promises not to mutate it.
    """
    if isinstance(values, DictColumn):
        return values
    if isinstance(values, np.ndarray):
        if values.ndim != 1:
            raise ColumnTypeError(f"columns must be 1-D, got shape {values.shape}")
        kind = column_kind(values)
        if kind == "int" and values.dtype != np.int64:
            return values.astype(np.int64)
        if kind == "float" and values.dtype != np.float64:
            return values.astype(np.float64)
        if kind == "str" and values.dtype.kind in ("U", "S"):
            return values.astype(object)
        return values.copy() if copy else values

    materialized = list(values)
    if not materialized:
        # An empty column defaults to float; callers that care pass arrays.
        return np.empty(0, dtype=np.float64)

    non_null = [v for v in materialized if v is not None]
    if non_null and all(isinstance(v, str) for v in non_null):
        return _coerce_object_array(materialized)
    if any(v is None for v in materialized):
        # None among numerics: promote to float with NaN.
        return np.array(
            [np.nan if v is None else float(v) for v in materialized],
            dtype=np.float64,
        )
    if all(isinstance(v, bool) or isinstance(v, np.bool_) for v in materialized):
        return np.array(materialized, dtype=bool)
    if all(isinstance(v, (int, np.integer)) for v in materialized):
        return np.array(materialized, dtype=np.int64)
    try:
        return np.array([float(v) for v in materialized], dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ColumnTypeError(
            f"cannot build a column from values like {materialized[0]!r}"
        ) from exc


def factorize(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Encode a column as dense integer codes plus the array of uniques.

    Returns ``(codes, uniques)`` where ``uniques[codes]`` reconstructs the
    input.  Order of uniques follows first appearance for object columns and
    sorted order for numeric columns (both are deterministic).

    ``DictColumn`` input skips the hash loop entirely: its codes are
    densified into first-appearance order, matching the object path byte for
    byte without touching a Python string.
    """
    if isinstance(values, DictColumn):
        return values.dense_codes()
    if values.dtype == object:
        mapping: dict[Any, int] = {}
        codes = np.empty(len(values), dtype=np.int64)
        for i, value in enumerate(values):
            code = mapping.get(value)
            if code is None:
                code = len(mapping)
                mapping[value] = code
            codes[i] = code
        uniques = np.empty(len(mapping), dtype=object)
        for value, code in mapping.items():
            uniques[code] = value
        return codes, uniques
    if np.issubdtype(values.dtype, np.integer) and len(values) > 0:
        # Bounded-range integers: an O(n + range) presence table beats the
        # O(n log n) sort inside np.unique.  Output is identical — uniques
        # sorted ascending, codes dense.
        vmin = int(values.min())
        vmax = int(values.max())
        span = vmax - vmin + 1
        if span <= max(1 << 16, 4 * len(values)):
            if np.issubdtype(values.dtype, np.unsignedinteger):
                # Subtract in the native unsigned dtype (values >= vmin, so
                # no borrow); the small difference then fits any intp.
                shifted = (values - values.dtype.type(vmin)).astype(np.intp)
            else:
                shifted = (values.astype(np.int64) - vmin).astype(np.intp)
            present = np.zeros(span, dtype=bool)
            present[shifted] = True
            rank = np.cumsum(present, dtype=np.int64) - 1
            codes = rank[shifted]
            offsets = np.flatnonzero(present)
            if np.issubdtype(values.dtype, np.unsignedinteger):
                uniques = (
                    offsets.astype(np.uint64) + np.uint64(vmin)
                ).astype(values.dtype)
            else:
                uniques = (offsets + vmin).astype(values.dtype)
            return codes, uniques
    uniques, codes = np.unique(values, return_inverse=True)
    return codes.astype(np.int64), uniques


def count_distinct(values: np.ndarray) -> int:
    """``len(np.unique(values))`` by a sort and a neighbour compare.

    NumPy 2's hash-based ``np.unique`` is several times slower on the small
    integer arrays a per-batch or per-group count sees (and ~70x on 700k
    keys).  NaN-like values sort last and count once, as ``np.unique``'s
    ``equal_nan`` does.
    """
    ordered = np.sort(values, axis=None)
    if ordered.size == 0:
        return 0
    new = ordered[1:] != ordered[:-1]
    if ordered.dtype.kind in "fcmM":
        nan = np.isnan(ordered)
        new &= ~(nan[1:] & nan[:-1])
    return int(np.count_nonzero(new)) + 1

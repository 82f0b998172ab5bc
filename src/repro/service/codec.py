"""Columnar wire format for tables and figure payloads.

The service's byte-identity contract extends over the wire: a table that
round-trips through ``encode_table`` → JSON → ``decode_table`` must come
back with identical dtypes and identical bytes.  The format carries each
column's exact bytes inside an ordinary JSON document:

- An ``int64``, ``float64`` or ``bool`` column is one base64 string of its
  little-endian bytes (``<i8``, ``<f8``, one ``0``/``1`` byte per bool).
  No number is printed and parsed again, so every double — ``NaN``
  payloads, ``±inf``, ``-0.0`` — survives bit for bit, and the byte order
  is fixed whatever the host's.
- An ``object`` column (every element a ``str``) is a ``dictionary`` of
  its distinct strings in first-appearance order
  (:func:`repro.tables.column.factorize`) plus base64 ``<i4`` ``codes``,
  so a :class:`~repro.tables.column.DictColumn` and the plain object array
  it stands for encode to the same bytes.
- Dict insertion order is preserved by ``json`` in both directions, so
  column order — part of a table's identity — needs no side channel.

A table document is ``{"num_rows": n, "columns": [[name, tag, data],
...]}``; a numeric ndarray inside a figure payload uses the same column
encoding.  Decoding is a base64 decode, ``np.frombuffer`` and a copy into
a native, owned array per column; a string column decodes to a
:class:`~repro.tables.column.DictColumn` over the wire dictionary (its
strings are never gathered per row).  Only the dtypes the
released/enriched layers use are legal, and every malformed document —
bad base64, a byte length that disagrees with ``num_rows``, a code
outside the dictionary, a repeated or non-``str`` dictionary entry, a
bool byte other than 0/1 — is a loud
:class:`CodecError`, never a silent coercion.  There is one decoder: a
payload in an older wire schema is refused by its ``schema`` field.

``dumps_canonical`` renders any encoded document to deterministic bytes
(no whitespace, no key reordering) — the bytes the response cache hashes
into ETags, and the bytes the differential harness compares.
"""

from __future__ import annotations

import base64
import binascii
import json
from typing import TYPE_CHECKING, Any

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.tables import Table
    from repro.tables.column import DictColumn

#: Bump when the wire format changes incompatibly.
WIRE_SCHEMA_VERSION = 2

#: Numeric dtype tags legal on the wire, with their little-endian wire
#: dtype; ``bool`` travels as one unsigned byte so a stray 2 is caught.
_WIRE_DTYPES = {
    "int64": np.dtype("<i8"),
    "float64": np.dtype("<f8"),
    "bool": np.dtype("u1"),
}
#: The native dtype each numeric tag decodes to.
_NATIVE = {"int64": np.int64, "float64": np.float64, "bool": np.bool_}
#: Dictionary codes of a string column.
_CODES = np.dtype("<i4")

#: Marker key for non-plain values inside figure payloads.
_KIND = "__kind__"


class CodecError(ValueError):
    """A value that cannot round-trip the wire exactly."""


# --------------------------------------------------------------------- #
# Columns (shared by tables and figure-payload arrays)
# --------------------------------------------------------------------- #


def _b64(array: np.ndarray, wire: np.dtype) -> str:
    raw = array.astype(wire, copy=False).tobytes()
    return base64.b64encode(raw).decode("ascii")


def _unb64(what: str, data: Any, wire: np.dtype, length: int) -> np.ndarray:
    """``length`` values of dtype ``wire`` from base64 text (read-only)."""
    if not isinstance(data, str):
        raise CodecError(f"{what} data must be a base64 string")
    try:
        raw = base64.b64decode(data, validate=True)
    except (binascii.Error, ValueError) as exc:
        raise CodecError(f"{what} is not valid base64: {exc}") from None
    if len(raw) != length * wire.itemsize:
        raise CodecError(
            f"{what} has {len(raw)} bytes, expected {length} values of "
            f"{wire.itemsize} bytes"
        )
    return np.frombuffer(raw, dtype=wire)


def _length(value: Any, key: str) -> int:
    if type(value) is not int or value < 0:
        raise CodecError(f"{key} must be a non-negative int, not {value!r}")
    return value


def _encode_column(
    what: str, column: "np.ndarray | DictColumn"
) -> tuple[str, Any]:
    """``(dtype tag, wire data)`` for one 1-D column."""
    if isinstance(column, np.ndarray) and column.ndim != 1:
        raise CodecError(
            f"{what} has shape {column.shape}; only 1-D arrays travel the wire"
        )
    tag = str(column.dtype)
    if tag in _WIRE_DTYPES:
        return tag, _b64(column, _WIRE_DTYPES[tag])
    if tag != "object":
        raise CodecError(f"{what} has unsupported dtype {tag!r}")
    from repro.tables.column import factorize

    try:
        codes, uniques = factorize(column)
    except TypeError:  # an unhashable element, so certainly not a str
        raise CodecError(f"{what} has an unhashable object element") from None
    dictionary = uniques.tolist()
    for value in dictionary:
        if not isinstance(value, str):
            raise CodecError(
                f"{what} has a non-str object element "
                f"({type(value).__name__}); only str survives the wire"
            )
    return tag, {"dictionary": dictionary, "codes": _b64(codes, _CODES)}


def _decode_column(
    what: str, tag: Any, data: Any, length: int
) -> "np.ndarray | DictColumn":
    """Reverse of :func:`_encode_column`: a native, owned 1-D array, or a
    :class:`~repro.tables.column.DictColumn` for strings."""
    wire = _WIRE_DTYPES.get(tag) if isinstance(tag, str) else None
    if wire is not None:
        values = _unb64(what, data, wire, length)
        if tag == "bool" and length and values.max() > 1:
            raise CodecError(f"{what} has a bool byte other than 0/1")
        return values.astype(_NATIVE[tag])
    if tag != "object":
        raise CodecError(f"{what} has unknown dtype tag {tag!r}")
    if not (isinstance(data, dict) and data.keys() == {"dictionary", "codes"}):
        raise CodecError(f"{what} must be {{'dictionary': [...], 'codes': ...}}")
    dictionary = data["dictionary"]
    if not isinstance(dictionary, list):
        raise CodecError(f"{what} dictionary must be a list")
    uniques = np.empty(len(dictionary), dtype=object)
    for i, value in enumerate(dictionary):
        if not isinstance(value, str):
            raise CodecError(f"{what} dictionary[{i}] is not a str")
        uniques[i] = value
    if len(set(dictionary)) != len(dictionary):
        raise CodecError(f"{what} dictionary repeats a value")
    codes = _unb64(what, data["codes"], _CODES, length)
    if length and (codes.min() < 0 or codes.max() >= len(uniques)):
        raise CodecError(f"{what} has a code outside [0, {len(uniques)})")
    from repro.tables.column import DictColumn

    return DictColumn(codes.astype(np.int32), uniques)


# --------------------------------------------------------------------- #
# Tables
# --------------------------------------------------------------------- #


def encode_table(table: "Table") -> dict[str, Any]:
    """A table as a JSON-ready document (column order preserved)."""
    columns = []
    for name in table.column_names:
        tag, data = _encode_column(f"column {name!r}", table.column(name))
        columns.append([name, tag, data])
    return {"num_rows": table.num_rows, "columns": columns}


def decode_table(doc: Any) -> "Table":
    """Reverse of :func:`encode_table`; validates shape and dtypes."""
    from repro.tables import Table

    if not isinstance(doc, dict) or not isinstance(doc.get("columns"), list):
        raise CodecError("table document must be a dict with a 'columns' list")
    num_rows = _length(doc.get("num_rows"), "num_rows")
    columns: dict[str, Any] = {}
    for entry in doc["columns"]:
        if not (isinstance(entry, (list, tuple)) and len(entry) == 3):
            raise CodecError("each column must be [name, dtype, data]")
        name, tag, data = entry
        if not isinstance(name, str):
            raise CodecError("column name must be a str")
        if name in columns:
            raise CodecError(f"duplicate column {name!r}")
        columns[name] = _decode_column(f"column {name!r}", tag, data, num_rows)
    return Table(columns, copy=False)


# --------------------------------------------------------------------- #
# Figure payloads (nested dicts / arrays / scalars / tables)
# --------------------------------------------------------------------- #


def encode_value(value: Any) -> Any:
    """Encode a figure payload value for the wire, recursively.

    Plain scalars pass through (numpy scalars become Python ones), numpy
    arrays and tables become ``__kind__``-tagged documents, and sequences
    become lists.  A numeric array uses the table column encoding; an
    ``object`` array is a list of encoded elements.  A dict keeps its shape
    unless a key is non-``str`` or collides with the marker, in which case
    it is escaped as an item list so decode can restore it exactly.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (np.integer, np.floating, np.bool_)):
        return value.item()
    if isinstance(value, np.ndarray):
        if value.dtype == object:
            return {
                _KIND: "ndarray",
                "dtype": "object",
                "values": [encode_value(v) for v in value.tolist()],
            }
        tag, data = _encode_column("ndarray", value)
        return {_KIND: "ndarray", "dtype": tag, "length": len(value),
                "values": data}
    if isinstance(value, dict):
        if all(isinstance(k, str) for k in value) and _KIND not in value:
            return {k: encode_value(v) for k, v in value.items()}
        return {
            _KIND: "dict",
            "items": [
                [encode_value(k), encode_value(v)] for k, v in value.items()
            ],
        }
    if isinstance(value, (list, tuple)):
        return [encode_value(v) for v in value]
    # A Table inside a payload (fig26 carries one).
    from repro.tables import Table

    if isinstance(value, Table):
        return {_KIND: "table", **encode_table(value)}
    raise CodecError(
        f"value of type {type(value).__name__} is not wire-safe"
    )


def decode_value(doc: Any) -> Any:
    """Reverse of :func:`encode_value`."""
    if doc is None or isinstance(doc, (bool, int, float, str)):
        return doc
    if isinstance(doc, list):
        return [decode_value(v) for v in doc]
    if isinstance(doc, dict):
        kind = doc.get(_KIND)
        if kind is None:
            return {k: decode_value(v) for k, v in doc.items()}
        if kind == "ndarray":
            tag = doc.get("dtype")
            if tag != "object":
                length = _length(doc.get("length"), "ndarray length")
                return _decode_column("ndarray", tag, doc.get("values"), length)
            values = doc.get("values")
            if not isinstance(values, list):
                raise CodecError("object ndarray values must be a list")
            array = np.empty(len(values), dtype=object)
            for i, v in enumerate(values):
                array[i] = decode_value(v)
            return array
        if kind == "dict":
            return {
                decode_value(k): decode_value(v) for k, v in doc["items"]
            }
        if kind == "table":
            return decode_table(doc)
        raise CodecError(f"unknown value kind {kind!r}")
    raise CodecError(f"cannot decode value of type {type(doc).__name__}")


def dumps_canonical(doc: Any) -> bytes:
    """Deterministic JSON bytes for an already-encoded document."""
    return json.dumps(doc, separators=(",", ":")).encode("utf-8")

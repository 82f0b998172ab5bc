"""Column expressions: composable, lazily evaluated predicates and arithmetic.

Analyses often need filters like "labeled clusters whose disagreement is
finite and at most 0.5".  Writing those against raw numpy forces naming the
table at every term; expressions defer evaluation until a table is supplied:

    from repro.tables import col

    pruned = clusters.filter((col("disagreement") <= 0.5) & col("goals").ne(""))
    speedy = batches.filter(col("task_time") / col("num_items") < 2.0)

An expression is a tree of :class:`Expr` nodes; ``expr.evaluate(table)``
returns a numpy array, and :meth:`~repro.tables.table.Table.filter` accepts
expressions directly (they are callables).

Unlike a closure tree, the IR here is *declarative*: each node carries a
``kind`` tag, an optional payload, and child expressions.  That makes
expressions picklable and gives every one a readable ``description``,
which is how a filter names its predicate in ``explain`` output.
"""

from __future__ import annotations

import operator
from typing import Any, Callable

import numpy as np

from repro.tables.table import Table

# Binary operators, keyed by the symbol used in descriptions.  All are
# top-level callables so expression trees pickle cleanly.
_BINARY_OPS: dict[str, Callable[[Any, Any], Any]] = {
    "==": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
    "&": operator.and_,
    "|": operator.or_,
}


def _op_isnan(values: np.ndarray) -> np.ndarray:
    return np.isnan(values.astype(np.float64))


def _op_log(values: np.ndarray) -> np.ndarray:
    return np.log(values.astype(np.float64))


def _op_notnull(values: np.ndarray) -> np.ndarray:
    return np.array([v is not None for v in values], dtype=bool)


_UNARY_OPS: dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "neg": operator.neg,
    "~": operator.invert,
    "abs": np.abs,
    "isnan": _op_isnan,
    "log": _op_log,
    "notnull": _op_notnull,
}


class Expr:
    """A deferred columnar computation; call or ``evaluate`` with a table.

    ``kind`` is one of ``col``/``lit``/``binary``/``unary``/``isin``/
    ``clip``/``map``; ``payload`` holds the node's static data (column name,
    literal, operator symbol, ...) and ``children`` the operand expressions.
    """

    __slots__ = ("kind", "payload", "children", "description")

    def __init__(
        self,
        kind: str,
        payload: Any,
        children: tuple["Expr", ...],
        description: str,
    ):
        self.kind = kind
        self.payload = payload
        self.children = children
        self.description = description

    # Evaluation ------------------------------------------------------- #

    def evaluate(self, table: Table) -> np.ndarray:
        kind = self.kind
        if kind == "col":
            return table[self.payload]
        if kind == "lit":
            return self.payload
        if kind == "binary":
            left = self.children[0].evaluate(table)
            right = self.children[1].evaluate(table)
            return _BINARY_OPS[self.payload](left, right)
        if kind == "unary":
            return _UNARY_OPS[self.payload](self.children[0].evaluate(table))
        if kind == "isin":
            frozen = self.payload
            values = self.children[0].evaluate(table)
            return np.array([v in frozen for v in values], dtype=bool)
        if kind == "clip":
            lo, hi = self.payload
            return np.clip(self.children[0].evaluate(table), lo, hi)
        if kind == "map":
            fn, dtype = self.payload
            values = self.children[0].evaluate(table)
            return np.array([fn(v) for v in values], dtype=dtype or object)
        raise AssertionError(f"unknown expression kind {kind!r}")

    def __call__(self, table: Table) -> np.ndarray:
        return self.evaluate(table)

    def __repr__(self) -> str:
        return f"Expr({self.description})"

    # Defining __eq__ (below) would otherwise clear hashability; identity
    # hashing keeps expressions usable as dict keys.
    __hash__ = object.__hash__

    # Builders ---------------------------------------------------------- #

    @staticmethod
    def _wrap(value: Any) -> "Expr":
        if isinstance(value, Expr):
            return value
        return Expr("lit", value, (), repr(value))

    def _binary(self, other: Any, symbol: str) -> "Expr":
        other = Expr._wrap(other)
        return Expr(
            "binary",
            symbol,
            (self, other),
            f"({self.description} {symbol} {other.description})",
        )

    def _unary(self, op: str, description: str) -> "Expr":
        return Expr("unary", op, (self,), description)

    # Comparisons -------------------------------------------------------- #

    def __eq__(self, other: Any) -> "Expr":  # type: ignore[override]
        return self._binary(other, "==")

    def __ne__(self, other: Any) -> "Expr":  # type: ignore[override]
        return self._binary(other, "!=")

    def ne(self, other: Any) -> "Expr":
        """Alias for ``!=`` that reads better after ``&`` chains."""
        return self.__ne__(other)

    def __lt__(self, other: Any) -> "Expr":
        return self._binary(other, "<")

    def __le__(self, other: Any) -> "Expr":
        return self._binary(other, "<=")

    def __gt__(self, other: Any) -> "Expr":
        return self._binary(other, ">")

    def __ge__(self, other: Any) -> "Expr":
        return self._binary(other, ">=")

    # Arithmetic ---------------------------------------------------------- #

    def __add__(self, other: Any) -> "Expr":
        return self._binary(other, "+")

    def __radd__(self, other: Any) -> "Expr":
        return Expr._wrap(other)._binary(self, "+")

    def __sub__(self, other: Any) -> "Expr":
        return self._binary(other, "-")

    def __rsub__(self, other: Any) -> "Expr":
        return Expr._wrap(other)._binary(self, "-")

    def __mul__(self, other: Any) -> "Expr":
        return self._binary(other, "*")

    def __rmul__(self, other: Any) -> "Expr":
        return Expr._wrap(other)._binary(self, "*")

    def __truediv__(self, other: Any) -> "Expr":
        return self._binary(other, "/")

    def __rtruediv__(self, other: Any) -> "Expr":
        return Expr._wrap(other)._binary(self, "/")

    def __neg__(self) -> "Expr":
        return self._unary("neg", f"(-{self.description})")

    # Boolean combinators -------------------------------------------------- #

    def __and__(self, other: Any) -> "Expr":
        return self._binary(other, "&")

    def __or__(self, other: Any) -> "Expr":
        return self._binary(other, "|")

    def __invert__(self) -> "Expr":
        return self._unary("~", f"(~{self.description})")

    # Convenience methods --------------------------------------------------- #

    def isin(self, values) -> "Expr":
        """Membership against a fixed set of values."""
        frozen = frozenset(values)
        return Expr(
            "isin",
            frozen,
            (self,),
            f"({self.description} in {sorted(map(str, frozen))})",
        )

    def isnan(self) -> "Expr":
        return self._unary("isnan", f"isnan({self.description})")

    def notnan(self) -> "Expr":
        return ~self.isnan()

    def notnull(self) -> "Expr":
        """True where the value is not ``None`` (string-column missingness)."""
        return self._unary("notnull", f"notnull({self.description})")

    def abs(self) -> "Expr":
        return self._unary("abs", f"abs({self.description})")

    def log(self) -> "Expr":
        return self._unary("log", f"log({self.description})")

    def clip(self, lo: float, hi: float) -> "Expr":
        return Expr(
            "clip",
            (lo, hi),
            (self,),
            f"clip({self.description}, {lo}, {hi})",
        )

    def map_values(
        self,
        fn: Callable[[Any], Any],
        *,
        name: str = "map",
        dtype: Any = None,
    ) -> "Expr":
        """Element-wise Python function (slow path).

        The result is an ``object`` array unless ``dtype`` names the output
        type (e.g. ``np.int64`` for a dense id remap).
        """
        return Expr("map", (fn, dtype), (self,), f"{name}({self.description})")


def col(name: str) -> Expr:
    """Reference a column of whatever table the expression is applied to."""
    return Expr("col", name, (), name)


def lit(value: Any) -> Expr:
    """A literal constant (useful as the leftmost operand)."""
    return Expr._wrap(value)

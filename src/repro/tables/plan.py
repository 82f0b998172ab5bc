"""Lazy logical plans over :class:`~repro.tables.table.Table`.

The eager table API executes every operator immediately and copies the
surviving columns between steps.  A :class:`LazyFrame` instead records the
operator chain as a small logical plan::

    scan -> filter -> project -> group_by -> join -> sort

and only runs it at :meth:`LazyFrame.collect`.  The plan runs exactly as
recorded: every node, bottom-up, through the eager operator of the same
name (a filter through :meth:`Table.filter`, a join through
:func:`~repro.tables.join.hash_join`, ...), so a collected plan is
byte-identical to the eager chain it records.  Nothing is memoized: a node
reached twice (a shared subplan) runs twice, and every ``collect()`` runs
the whole plan again.

What the plan adds over the eager chain is observability: every operator
runs inside a ``plan.op.<name>`` span, and ``explain(analyze=True)`` /
:meth:`LazyFrame.profile` report rows, wall and CPU time per operator, and
each filter's selectivity.  Building a plan checks ``select``/``drop``/
``rename`` against the input schema, so a misspelt column fails before
anything runs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Iterator, Mapping, Sequence

from repro import obs
from repro.tables.expr import Expr
from repro.tables.groupby import group_by
from repro.tables.join import hash_join
from repro.tables.table import SchemaError, Table

_COLLECTS = obs.counter("plan.collects")
_ANALYZED = obs.counter("plan.analyzed")
_EXEC_SECONDS = obs.histogram("plan.exec_seconds")


# --------------------------------------------------------------------- #
# Logical plan nodes
# --------------------------------------------------------------------- #


class PlanNode:
    __slots__ = ()


class Scan(PlanNode):
    __slots__ = ("table",)

    def __init__(self, table: Table):
        self.table = table


class Filter(PlanNode):
    """One predicate: an :class:`Expr`, a callable, or a boolean mask."""

    __slots__ = ("child", "predicate")

    def __init__(self, child: PlanNode, predicate: Any):
        self.child = child
        self.predicate = predicate


class Project(PlanNode):
    __slots__ = ("child", "names")

    def __init__(self, child: PlanNode, names: tuple[str, ...]):
        self.child = child
        self.names = names


class WithColumn(PlanNode):
    """Add or replace a column; ``values`` is an :class:`Expr` or array-like."""

    __slots__ = ("child", "name", "values")

    def __init__(self, child: PlanNode, name: str, values: Any):
        self.child = child
        self.name = name
        self.values = values


class Rename(PlanNode):
    __slots__ = ("child", "mapping")

    def __init__(self, child: PlanNode, mapping: Mapping[str, str]):
        self.child = child
        self.mapping = dict(mapping)


class GroupByAgg(PlanNode):
    __slots__ = ("child", "keys", "spec")

    def __init__(self, child: PlanNode, keys: tuple[str, ...], spec: Mapping):
        self.child = child
        self.keys = keys
        self.spec = dict(spec)


class Join(PlanNode):
    __slots__ = ("left", "right", "on", "how", "suffix")

    def __init__(
        self,
        left: PlanNode,
        right: PlanNode,
        on: tuple[str, ...],
        how: str,
        suffix: str,
    ):
        self.left = left
        self.right = right
        self.on = on
        self.how = how
        self.suffix = suffix


class Sort(PlanNode):
    __slots__ = ("child", "names", "descending")

    def __init__(self, child: PlanNode, names: tuple[str, ...], descending: bool):
        self.child = child
        self.names = names
        self.descending = descending


class Distinct(PlanNode):
    __slots__ = ("child", "names")

    def __init__(self, child: PlanNode, names: tuple[str, ...] | None):
        self.child = child
        self.names = names


class Head(PlanNode):
    __slots__ = ("child", "n")

    def __init__(self, child: PlanNode, n: int):
        self.child = child
        self.n = n


def _children(node: PlanNode) -> tuple[PlanNode, ...]:
    if isinstance(node, Scan):
        return ()
    if isinstance(node, Join):
        return (node.left, node.right)
    return (node.child,)


def _schema(node: PlanNode) -> list[str]:
    """Output column names of a node, without executing anything."""
    if isinstance(node, Scan):
        return node.table.column_names
    if isinstance(node, Project):
        return list(node.names)
    if isinstance(node, WithColumn):
        names = _schema(node.child)
        return names if node.name in names else names + [node.name]
    if isinstance(node, Rename):
        return [node.mapping.get(n, n) for n in _schema(node.child)]
    if isinstance(node, GroupByAgg):
        return list(node.keys) + [k for k in node.spec if k not in node.keys]
    if isinstance(node, Join):
        names = _simulate_join_names(
            _schema(node.left), _schema(node.right), node.on, node.suffix
        )
        return [out for _side, _src, out in names]
    return _schema(_children(node)[0])


def _simulate_join_names(
    left_names: Sequence[str],
    right_names: Sequence[str],
    keys: Sequence[str],
    suffix: str,
) -> list[tuple[str, str, str]]:
    """Replicate the join's output-naming pass on names alone.

    Returns ``(side, source, output)`` triples in output order; raises
    :class:`SchemaError` on the same collisions the real join would hit.
    """
    out: list[tuple[str, str, str]] = []
    taken = set()
    for name in left_names:
        out.append(("left", name, name))
        taken.add(name)
    key_set = set(keys)
    for name in right_names:
        if name in key_set:
            continue
        target = name if name not in taken else f"{name}{suffix}"
        if target in taken:
            raise SchemaError(f"join output column collision: {target!r}")
        out.append(("right", name, target))
        taken.add(target)
    return out


# --------------------------------------------------------------------- #
# Executor
# --------------------------------------------------------------------- #

_OP_NAMES: dict[type, str] = {
    Scan: "scan", Filter: "filter",
    Project: "project", WithColumn: "with_column", Rename: "rename",
    GroupByAgg: "group_by", Join: "join", Sort: "sort",
    Distinct: "distinct", Head: "head",
}


@dataclass
class OpProfile:
    """Execution profile of one plan operator.

    Every execution builds one per node it runs; :meth:`LazyFrame.profile`
    and ``explain(analyze=True)`` return it.  ``rows_in`` holds one entry
    per input in child order, and ``children`` mirrors the plan tree, so a
    shared subplan appears (and was executed) once per occurrence.
    """

    op: str
    detail: str
    rows_in: tuple[int, ...]
    rows_out: int
    wall_s: float
    cpu_s: float
    children: list["OpProfile"] = field(default_factory=list)

    @property
    def selectivity(self) -> float | None:
        """Fraction of incoming rows a filter keeps; ``None`` for any
        other operator."""
        if self.op != "filter":
            return None
        return self.rows_out / self.rows_in[0] if self.rows_in[0] else 1.0

    def walk(self) -> Iterator["OpProfile"]:
        """Yield this profile and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def to_dict(self) -> dict[str, Any]:
        return {
            "op": self.op, "detail": self.detail,
            "rows_in": list(self.rows_in), "rows_out": self.rows_out,
            "wall_s": self.wall_s, "cpu_s": self.cpu_s,
            "selectivity": self.selectivity,
            "children": [c.to_dict() for c in self.children],
        }


def profile_hotspots(root: OpProfile, top: int = 5) -> list[OpProfile]:
    """The ``top`` slowest operators of a profile tree by wall time."""
    return sorted(root.walk(), key=lambda p: -p.wall_s)[:top]


def _apply_node(node: PlanNode, inputs: Sequence[Table]) -> Table:
    """Run one operator over already-executed inputs (child order)."""
    if isinstance(node, Scan):
        return node.table
    if isinstance(node, Filter):
        return inputs[0].filter(node.predicate)
    if isinstance(node, Project):
        return inputs[0].select(list(node.names))
    if isinstance(node, WithColumn):
        values = node.values
        if isinstance(values, Expr):
            values = values.evaluate(inputs[0])
        return inputs[0].with_column(node.name, values)
    if isinstance(node, Rename):
        return inputs[0].rename(node.mapping)
    if isinstance(node, GroupByAgg):
        return group_by(inputs[0], list(node.keys)).agg(node.spec)
    if isinstance(node, Join):
        return hash_join(
            inputs[0], inputs[1], list(node.on), how=node.how, suffix=node.suffix
        )
    if isinstance(node, Sort):
        return inputs[0].sort_by(list(node.names), descending=node.descending)
    if isinstance(node, Distinct):
        return inputs[0].distinct(
            list(node.names) if node.names is not None else None
        )
    if isinstance(node, Head):
        return inputs[0].head(node.n)
    raise AssertionError(f"unknown plan node {type(node).__name__}")


def _execute(node: PlanNode) -> tuple[Table, OpProfile]:
    """Execute ``node`` bottom-up; returns its result and its profile."""
    # Children run before the operator's own clock starts, so wall/CPU
    # below is attributable to this operator alone.
    ran = [_execute(c) for c in _children(node)]
    inputs = [table for table, _prof in ran]

    op = _OP_NAMES[type(node)]
    with obs.span(f"plan.op.{op}"):
        t0 = time.perf_counter()
        c0 = time.thread_time()
        result = _apply_node(node, inputs)
        wall = time.perf_counter() - t0
        cpu = time.thread_time() - c0
    _EXEC_SECONDS.observe(wall)

    return result, OpProfile(
        op=op,
        detail=_node_label(node),
        rows_in=tuple(t.num_rows for t in inputs),
        rows_out=result.num_rows,
        wall_s=wall,
        cpu_s=cpu,
        children=[prof for _table, prof in ran],
    )


# --------------------------------------------------------------------- #
# The user-facing builder
# --------------------------------------------------------------------- #


class LazyGroupBy:
    """Intermediate of :meth:`LazyFrame.group_by`; call :meth:`agg`."""

    __slots__ = ("_frame", "_keys")

    def __init__(self, frame: "LazyFrame", keys: tuple[str, ...]):
        self._frame = frame
        self._keys = keys

    def agg(self, spec: Mapping) -> "LazyFrame":
        return LazyFrame(GroupByAgg(self._frame._node, self._keys, spec))


class LazyFrame:
    """A deferred chain of table operators; run it with :meth:`collect`."""

    __slots__ = ("_node", "_profiled")

    def __init__(self, node: PlanNode):
        self._node = node
        self._profiled: OpProfile | None = None

    @classmethod
    def scan(cls, table: Table) -> "LazyFrame":
        return cls(Scan(table))

    # Builders --------------------------------------------------------- #

    def filter(self, predicate: Any) -> "LazyFrame":
        return LazyFrame(Filter(self._node, predicate))

    def select(self, names: Sequence[str]) -> "LazyFrame":
        names = list(names)
        schema = _schema(self._node)
        missing = [n for n in names if n not in schema]
        if missing:
            raise SchemaError(f"unknown columns in select: {missing}")
        return LazyFrame(Project(self._node, tuple(names)))

    def drop(self, names: Sequence[str]) -> "LazyFrame":
        doomed = set(names)
        schema = _schema(self._node)
        missing = doomed - set(schema)
        if missing:
            raise SchemaError(f"unknown columns in drop: {sorted(missing)}")
        return LazyFrame(
            Project(self._node, tuple(n for n in schema if n not in doomed))
        )

    def rename(self, mapping: Mapping[str, str]) -> "LazyFrame":
        schema = _schema(self._node)
        missing = set(mapping) - set(schema)
        if missing:
            raise SchemaError(f"unknown columns in rename: {sorted(missing)}")
        return LazyFrame(Rename(self._node, mapping))

    def with_column(self, name: str, values: Any) -> "LazyFrame":
        return LazyFrame(WithColumn(self._node, name, values))

    def group_by(self, keys: str | Sequence[str]) -> LazyGroupBy:
        keys = (keys,) if isinstance(keys, str) else tuple(keys)
        return LazyGroupBy(self, keys)

    def join(
        self,
        other: "LazyFrame | Table",
        on: str | Sequence[str],
        *,
        how: str = "inner",
        suffix: str = "_right",
    ) -> "LazyFrame":
        right = other._node if isinstance(other, LazyFrame) else Scan(other)
        on = (on,) if isinstance(on, str) else tuple(on)
        return LazyFrame(Join(self._node, right, on, how, suffix))

    def sort_by(
        self, names: str | Sequence[str], *, descending: bool = False
    ) -> "LazyFrame":
        names = (names,) if isinstance(names, str) else tuple(names)
        return LazyFrame(Sort(self._node, names, descending))

    def distinct(self, names: Sequence[str] | None = None) -> "LazyFrame":
        return LazyFrame(
            Distinct(self._node, tuple(names) if names is not None else None)
        )

    def head(self, n: int = 10) -> "LazyFrame":
        return LazyFrame(Head(self._node, n))

    # Execution -------------------------------------------------------- #

    def collect(self) -> Table:
        """Execute the plan as recorded; every call runs it again."""
        _COLLECTS.inc()
        result, _prof = _execute(self._node)
        return result

    def profile(self) -> OpProfile:
        """Run the plan and return its root :class:`OpProfile` — the same
        tree ``explain(analyze=True)`` renders, as structured data.

        The profile is kept on the frame: ``explain(analyze=True)``
        followed by :meth:`profile` executes the plan once.
        """
        if self._profiled is None:
            _ANALYZED.inc()
            with obs.span("plan.analyze"):
                _result, self._profiled = _execute(self._node)
        return self._profiled

    def explain(self, analyze: bool = False) -> str:
        """Render the plan, one operator per line.

        With ``analyze=True`` the plan is *executed* (see :meth:`profile`)
        and every line gains rows-out and wall/CPU time, and every filter
        its selectivity.
        """
        root = self.profile() if analyze else None
        lines: list[str] = []

        def render(n: PlanNode, prof: OpProfile | None, depth: int) -> None:
            lines.append("  " * depth + _node_label(n) + _annotation(prof))
            children = _children(n)
            child_profs = (
                [None] * len(children) if prof is None else prof.children
            )
            for child, child_prof in zip(children, child_profs):
                render(child, child_prof, depth + 1)

        render(self._node, root, 0)
        return "\n".join(lines)


def _annotation(prof: OpProfile | None) -> str:
    """The ``explain(analyze=True)`` suffix of one operator's line."""
    if prof is None:
        return ""
    bits = [
        f"rows={prof.rows_out}",
        f"wall={prof.wall_s * 1e3:.2f}ms",
        f"cpu={prof.cpu_s * 1e3:.2f}ms",
    ]
    if prof.selectivity is not None:
        bits.append(f"sel={prof.selectivity:.3f}")
    return "  (" + ", ".join(bits) + ")"


def _node_label(n: PlanNode) -> str:
    """The one-line description of a node in ``explain`` output."""
    if isinstance(n, Scan):
        return f"scan[{n.table.num_rows} rows x {n.table.num_columns} cols]"
    if isinstance(n, Filter):
        return f"filter[{_describe(n.predicate)}]"
    if isinstance(n, Project):
        return f"project{list(n.names)}"
    if isinstance(n, WithColumn):
        return f"with_column[{n.name}]"
    if isinstance(n, Rename):
        return f"rename{n.mapping}"
    if isinstance(n, GroupByAgg):
        return f"group_by{list(n.keys)} -> {list(n.spec)}"
    if isinstance(n, Join):
        return f"join[{n.how} on {list(n.on)}]"
    if isinstance(n, Sort):
        return f"sort{list(n.names)} {'desc' if n.descending else 'asc'}"
    if isinstance(n, Distinct):
        return f"distinct{list(n.names or [])}"
    if isinstance(n, Head):
        return f"head[{n.n}]"
    raise AssertionError(f"unknown plan node {type(n).__name__}")


def _describe(predicate: Any) -> str:
    if isinstance(predicate, Expr):
        return predicate.description
    if callable(predicate):
        return getattr(predicate, "__name__", "callable")
    return "mask"

"""Lazy logical plans over :class:`~repro.tables.table.Table`.

The eager table API executes every operator immediately and copies the
surviving columns between steps.  A :class:`LazyFrame` instead records the
operator chain as a small logical plan::

    scan -> filter -> project -> group_by -> join -> sort

and only runs it at :meth:`LazyFrame.collect`.  Before execution the plan
passes through an optimizer that

- **fuses** adjacent filters (and a trailing projection) into one
  single-pass kernel — each predicate after the first is evaluated on a
  compressed view holding only the columns it references, and the surviving
  rows are gathered exactly once at the end (``plan.fused_ops``);
- **pushes projections down** below joins and group-bys so upstream
  operators stop materializing columns nobody reads (``plan.pushdowns``).

The executor memoizes shared subplans (``plan.cache_hit``/``cache_miss``)
and runs every operator in-process.  Executing the raw, unoptimized plan
(:func:`_execute` on the recorded node) goes through the eager operators
node by node; the tests and ``scripts/reproduce_all.sh`` use it, by
replacing :func:`optimize` with the identity, as the byte-identity
reference for the optimizer.

Every rewrite preserves eager semantics bit for bit: predicates evaluate in
their original order on exactly the rows that survived the preceding
predicates, so data-dependent expressions (divisions, logs) see the same
operands either way.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Iterator, Mapping, Sequence

import numpy as np

from repro import obs
from repro.tables.expr import Expr
from repro.tables.groupby import group_by
from repro.tables.join import hash_join
from repro.tables.table import SchemaError, Table, _gather

_FUSED_OPS = obs.counter("plan.fused_ops")
_PUSHDOWNS = obs.counter("plan.pushdowns")
_CACHE_HIT = obs.counter("plan.cache_hit")
_CACHE_MISS = obs.counter("plan.cache_miss")
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


class FusedFilter(PlanNode):
    """Optimizer-made: a predicate chain plus optional trailing projection,
    executed as one single-gather kernel."""

    __slots__ = ("child", "predicates", "projection")

    def __init__(
        self,
        child: PlanNode,
        predicates: tuple[Any, ...],
        projection: tuple[str, ...] | None,
    ):
        self.child = child
        self.predicates = predicates
        self.projection = projection


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
    if isinstance(node, FusedFilter) and node.projection is not None:
        return list(node.projection)
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
# The fused filter(+project) kernel
# --------------------------------------------------------------------- #


def _validate_mask(mask: np.ndarray, length: int) -> np.ndarray:
    mask = np.asarray(mask)
    if mask.dtype != bool or mask.shape != (length,):
        raise SchemaError(
            f"filter mask must be bool of length {length}, "
            f"got dtype {mask.dtype} shape {mask.shape}"
        )
    return mask


def _full_length_mask(table: Table, predicate: Any) -> np.ndarray:
    """Evaluate the first predicate of a chain over every row."""
    n = table.num_rows
    if callable(predicate):
        return _validate_mask(predicate(table), n)
    return _validate_mask(predicate, n)


def _apply_filter(
    table: Table,
    predicates: Sequence[Any],
    projection: Sequence[str] | None = None,
    survivors: list[int] | None = None,
) -> Table:
    """Apply a predicate chain and optional projection in a single pass.

    The first predicate produces surviving row indices; each later predicate
    evaluates on a *compressed* view containing only the columns it
    references (callables and raw masks fall back to a full intermediate),
    preserving exact sequential semantics.  Rows are gathered from the
    source table exactly once, at the end, for just the projected columns.
    A profiled execution passes ``survivors``, which receives the row count
    left after each predicate, in order.
    """
    if projection is not None:
        missing = [n for n in projection if n not in table]
        if missing:
            raise SchemaError(f"unknown columns in select: {missing}")
    idx: np.ndarray | None = None
    for predicate in predicates:
        if idx is None:
            mask = _full_length_mask(table, predicate)
            idx = np.flatnonzero(mask)
        else:
            if isinstance(predicate, Expr):
                cols = predicate.columns()
                sub = Table(
                    {c: _gather(table.column(c), idx) for c in cols}, copy=False
                )
                mask = _validate_mask(predicate.evaluate(sub), len(idx))
            elif callable(predicate):
                sub = table.take(idx)
                mask = _validate_mask(predicate(sub), len(idx))
            else:
                mask = _validate_mask(predicate, len(idx))
            idx = idx[mask]
        if survivors is not None:
            survivors.append(int(idx.size))
    if idx is None:
        return table if projection is None else table.select(list(projection))
    names = list(projection) if projection is not None else table.column_names
    return Table({n: _gather(table.column(n), idx) for n in names}, copy=False)


# --------------------------------------------------------------------- #
# Optimizer
# --------------------------------------------------------------------- #


def optimize(node: PlanNode) -> PlanNode:
    """Rewrite a plan bottom-up: filter fusion, project collapsing, and
    projection pushdown below joins and group-bys."""
    if isinstance(node, Scan):
        return node
    if isinstance(node, Join):
        node = Join(
            optimize(node.left), optimize(node.right), node.on, node.how, node.suffix
        )
        return node
    child = optimize(_children(node)[0])

    if isinstance(node, FusedFilter):
        # Already-rewritten plans (e.g. explain() after an explicit
        # optimize()) pass through unchanged: optimize is idempotent.
        return FusedFilter(child, node.predicates, node.projection)

    if isinstance(node, Filter):
        if isinstance(child, Filter):
            _FUSED_OPS.inc()
            return FusedFilter(child.child, (child.predicate, node.predicate), None)
        if isinstance(child, FusedFilter) and child.projection is None:
            _FUSED_OPS.inc()
            return FusedFilter(
                child.child, child.predicates + (node.predicate,), None
            )
        return Filter(child, node.predicate)

    if isinstance(node, Project):
        names = node.names
        if isinstance(child, Project) and set(names) <= set(child.names):
            return Project(child.child, names)
        if isinstance(child, Filter):
            _FUSED_OPS.inc()
            return FusedFilter(child.child, (child.predicate,), names)
        if isinstance(child, FusedFilter) and child.projection is None:
            _FUSED_OPS.inc()
            return FusedFilter(child.child, child.predicates, names)
        if isinstance(child, Join):
            pushed = _pushdown_join(child, set(names))
            if pushed is not None:
                return Project(pushed, names)
        return Project(child, names)

    if isinstance(node, GroupByAgg):
        needed = list(dict.fromkeys(list(node.keys) + [
            in_name for (in_name, _how) in node.spec.values()
        ]))
        rewritten = _pushdown_into(child, needed)
        return GroupByAgg(rewritten, node.keys, node.spec)

    if isinstance(node, WithColumn):
        return WithColumn(child, node.name, node.values)
    if isinstance(node, Rename):
        return Rename(child, node.mapping)
    if isinstance(node, Sort):
        return Sort(child, node.names, node.descending)
    if isinstance(node, Distinct):
        return Distinct(child, node.names)
    if isinstance(node, Head):
        return Head(child, node.n)
    raise AssertionError(f"unknown plan node {type(node).__name__}")


def _pushdown_into(child: PlanNode, needed: Sequence[str]) -> PlanNode:
    """Narrow ``child`` so it materializes only the ``needed`` columns.

    Filters gain a fused projection; joins prune the columns gathered from
    each side.  Anything else is left alone (projection there would just
    add a pass).
    """
    child_schema = _schema(child)
    if any(n not in child_schema for n in needed):
        return child  # let execution raise the schema error unoptimized
    if set(child_schema) == set(needed):
        return child
    ordered = tuple(n for n in child_schema if n in set(needed))
    if isinstance(child, Filter):
        _PUSHDOWNS.inc()
        return FusedFilter(child.child, (child.predicate,), ordered)
    if isinstance(child, FusedFilter) and child.projection is None:
        _PUSHDOWNS.inc()
        return FusedFilter(child.child, child.predicates, ordered)
    if isinstance(child, Join):
        pushed = _pushdown_join(child, set(needed))
        if pushed is not None:
            return pushed
    return child


def _pushdown_join(node: Join, needed: set[str]) -> Join | None:
    """Prune join inputs to the columns the output actually needs.

    Key columns always stay, and a side keeps any column whose *name* also
    exists on the other side: those drive the suffix-collision decisions,
    and pruning them would silently rename the surviving columns.  The
    pruned plan is verified by re-simulating the naming pass — if the kept
    outputs would differ at all, the pushdown is abandoned.
    """
    left_names = _schema(node.left)
    right_names = _schema(node.right)
    try:
        full = _simulate_join_names(left_names, right_names, node.on, node.suffix)
    except SchemaError:
        return None  # execution will raise identically; do not rewrite
    keys = set(node.on)
    left_keep = [
        n for n in left_names
        if n in needed or n in keys or n in right_names
    ]
    right_keep = [
        src for side, src, out in full
        if side == "right" and (out in needed or src in keys)
    ]
    right_keep = list(dict.fromkeys(
        [k for k in node.on if k in right_names] + right_keep
    ))
    # Preserve right-side column order.
    right_keep = [n for n in right_names if n in set(right_keep)]
    if len(left_keep) == len(left_names) and len(right_keep) == len(right_names):
        return None
    pruned = _simulate_join_names(left_keep, right_keep, node.on, node.suffix)
    kept_outputs = {out for _s, _src, out in pruned}
    expected = {
        out for side, src, out in full
        if (side == "left" and src in left_keep)
        or (side == "right" and src in right_keep)
    }
    if kept_outputs != expected or not needed <= kept_outputs:
        return None
    left = node.left
    right = node.right
    if len(left_keep) != len(left_names):
        _PUSHDOWNS.inc()
        left = optimize(Project(left, tuple(left_keep)))
    if len(right_keep) != len(right_names):
        _PUSHDOWNS.inc()
        right = optimize(Project(right, tuple(right_keep)))
    return Join(left, right, node.on, node.how, node.suffix)


# --------------------------------------------------------------------- #
# Executor
# --------------------------------------------------------------------- #

_OP_NAMES: dict[type, str] = {
    Scan: "scan", Filter: "filter", FusedFilter: "fused_filter",
    Project: "project", WithColumn: "with_column", Rename: "rename",
    GroupByAgg: "group_by", Join: "join", Sort: "sort",
    Distinct: "distinct", Head: "head",
}


@dataclass
class OpProfile:
    """Execution profile of one plan operator.

    Built by a profiled run (:meth:`LazyFrame.profile` /
    ``explain(analyze=True)``).  ``rows_in`` holds one entry per input in
    child order; shared subplans appear once in the tree per occurrence
    but are the *same* object, so ``memo_hits`` counts every reuse.
    """

    op: str
    detail: str
    rows_in: tuple[int, ...]
    rows_out: int
    wall_s: float
    cpu_s: float
    #: Times this operator's memoized result was reused by another parent.
    memo_hits: int = 0
    #: Rows surviving after each predicate of a filter chain, in order.
    survivors: tuple[int, ...] = ()
    children: list["OpProfile"] = field(default_factory=list)

    @property
    def selectivity(self) -> tuple[float, ...]:
        """Fraction of incoming rows surviving each predicate, in order."""
        out: list[float] = []
        prev = self.rows_in[0] if self.rows_in else 0
        for kept in self.survivors:
            out.append(kept / prev if prev else 1.0)
            prev = kept
        return tuple(out)

    def walk(self) -> Iterator["OpProfile"]:
        """Yield this profile and every descendant, depth-first.

        Shared (memoized) subtrees are yielded once per occurrence;
        dedupe by ``id()`` when aggregating.
        """
        yield self
        for child in self.children:
            yield from child.walk()

    def to_dict(self) -> dict[str, Any]:
        return {
            "op": self.op, "detail": self.detail,
            "rows_in": list(self.rows_in), "rows_out": self.rows_out,
            "wall_s": self.wall_s, "cpu_s": self.cpu_s,
            "memo_hits": self.memo_hits,
            "selectivity": list(self.selectivity),
            "children": [c.to_dict() for c in self.children],
        }


def profile_hotspots(root: OpProfile, top: int = 5) -> list[OpProfile]:
    """The ``top`` slowest distinct operators of a profile tree by wall."""
    seen = {id(p): p for p in root.walk()}
    return sorted(seen.values(), key=lambda p: -p.wall_s)[:top]


def _apply_node(
    node: PlanNode,
    inputs: Sequence[Table],
    survivors: list[int] | None = None,
) -> Table:
    """Run one operator over already-executed inputs (child order)."""
    if isinstance(node, Scan):
        return node.table
    if isinstance(node, Filter):
        return _apply_filter(inputs[0], (node.predicate,), None, survivors)
    if isinstance(node, FusedFilter):
        return _apply_filter(
            inputs[0], node.predicates, node.projection, survivors
        )
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


def _execute(
    node: PlanNode,
    memo: dict[int, Table],
    profiles: dict[int, OpProfile] | None = None,
) -> Table:
    """Execute ``node`` bottom-up, memoizing results by node id; a
    profiled execution also fills ``profiles`` with one
    :class:`OpProfile` per executed node id."""
    cached = memo.get(id(node))
    if cached is not None:
        _CACHE_HIT.inc()
        if profiles is not None:
            prof = profiles.get(id(node))
            if prof is not None:
                prof.memo_hits += 1
        return cached
    _CACHE_MISS.inc()

    # Children run before the operator's own clock starts, so wall/CPU
    # below is attributable to this operator alone.
    inputs = [_execute(c, memo, profiles) for c in _children(node)]

    op = _OP_NAMES[type(node)]
    survivors: list[int] | None = [] if profiles is not None else None
    with obs.span(f"plan.op.{op}"):
        t0 = time.perf_counter()
        c0 = time.thread_time()
        result = _apply_node(node, inputs, survivors)
        wall = time.perf_counter() - t0
        cpu = time.thread_time() - c0
    _EXEC_SECONDS.observe(wall)

    memo[id(node)] = result
    if profiles is not None:
        profiles[id(node)] = OpProfile(
            op=op,
            detail=_node_label(node),
            rows_in=tuple(t.num_rows for t in inputs),
            rows_out=result.num_rows,
            wall_s=wall,
            cpu_s=cpu,
            survivors=tuple(survivors),
            children=[profiles[id(c)] for c in _children(node)],
        )
    return result


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

    __slots__ = ("_node", "_cached", "_profiled")

    def __init__(self, node: PlanNode):
        self._node = node
        self._cached: Table | None = None
        self._profiled: tuple[PlanNode, dict[int, OpProfile], Table] | None = None

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
        """Optimize and execute the plan (memoized per frame)."""
        if self._cached is not None:
            _CACHE_HIT.inc()
            return self._cached
        _COLLECTS.inc()
        self._cached = _execute(optimize(self._node), {})
        return self._cached

    def _analyze(self) -> tuple[PlanNode, dict[int, OpProfile], Table]:
        """Execute the plan under per-operator profiling.

        Returns the executed (optimized) plan, its profiles keyed by
        plan-node id, and the result table — which is also cached on the
        frame, so a following :meth:`collect` costs nothing extra.  The
        profile itself is memoized too: ``explain(analyze=True)`` followed
        by :meth:`profile` executes the plan once.
        """
        if self._profiled is not None:
            return self._profiled
        node = optimize(self._node)
        profiles: dict[int, OpProfile] = {}
        _ANALYZED.inc()
        with obs.span("plan.analyze"):
            result = _execute(node, {}, profiles)
        if self._cached is None:
            self._cached = result
        self._profiled = (node, profiles, result)
        return self._profiled

    def profile(self) -> OpProfile:
        """Run the plan and return its root :class:`OpProfile` — the same
        tree ``explain(analyze=True)`` renders, as structured data."""
        node, profiles, _result = self._analyze()
        return profiles[id(node)]

    def explain(self, analyze: bool = False) -> str:
        """Render the optimized plan.

        With ``analyze=True`` the plan is *executed* under per-operator
        profiling and every line gains rows-out, wall/CPU time, per-
        predicate selectivity, and memoization hits.
        """
        profiles: dict[int, OpProfile] = {}
        if analyze:
            node, profiles, _result = self._analyze()
        else:
            node = optimize(self._node)
        lines: list[str] = []

        def annotate(n: PlanNode) -> str:
            prof = profiles.get(id(n))
            if prof is None:
                return ""
            bits = [
                f"rows={prof.rows_out}",
                f"wall={prof.wall_s * 1e3:.2f}ms",
                f"cpu={prof.cpu_s * 1e3:.2f}ms",
            ]
            if prof.survivors:
                bits.append(
                    "sel=" + "*".join(f"{s:.3f}" for s in prof.selectivity)
                )
            if prof.memo_hits:
                bits.append(f"memo_hits={prof.memo_hits}")
            return "  (" + ", ".join(bits) + ")"

        def render(n: PlanNode, depth: int) -> None:
            lines.append("  " * depth + _node_label(n) + annotate(n))
            for child in _children(n):
                render(child, depth + 1)

        render(node, 0)
        return "\n".join(lines)


def _node_label(n: PlanNode) -> str:
    """The one-line description of a node in ``explain`` output."""
    if isinstance(n, Scan):
        return f"scan[{n.table.num_rows} rows x {n.table.num_columns} cols]"
    if isinstance(n, Filter):
        return f"filter[{_describe(n.predicate)}]"
    if isinstance(n, FusedFilter):
        preds = " & ".join(_describe(p) for p in n.predicates)
        proj = f" -> {list(n.projection)}" if n.projection else ""
        return f"fused_filter[{preds}]{proj}"
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

"""Lazy plan engine: eager equivalence, profiling, EXPLAIN, schema checks.

The central property: for any operator chain, ``collect()`` of the lazy
plan is byte-identical to applying the same operators eagerly.  Hypothesis
drives random chains; targeted tests pin down the per-operator profile, the
EXPLAIN ANALYZE rendering and the build-time schema errors.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.tables import Table, col, group_by, hash_join, profile_hotspots
from repro.tables.plan import LazyFrame
from repro.tables.table import SchemaError


def _tables_equal_bytes(a: Table, b: Table) -> bool:
    if a.column_names != b.column_names or len(a) != len(b):
        return False
    for name in a.column_names:
        xa, xb = a[name], b[name]
        if xa.dtype != xb.dtype:
            return False
        if xa.dtype == object:
            if not all(
                (x is None and y is None) or x == y for x, y in zip(xa, xb)
            ):
                return False
        elif not np.array_equal(xa, xb, equal_nan=(xa.dtype.kind == "f")):
            return False
    return True


def _base_table(n: int, seed: int) -> Table:
    rng = np.random.default_rng(seed)
    return Table(
        {
            "k": rng.integers(0, max(n // 4, 1) + 1, size=n),
            "x": rng.normal(size=n),
            "s": np.array(
                [f"s{int(v) % 5}" for v in rng.integers(0, 100, size=n)],
                dtype=object,
            ),
        },
        copy=False,
    )


# One random relational operator, as (lazy builder, eager reference) pair.
_OPS = st.sampled_from(
    [
        ("filter_x", lambda lf: lf.filter(col("x") > 0.0),
         lambda t: t.filter(t["x"] > 0.0)),
        ("filter_k", lambda lf: lf.filter(col("k") <= 3),
         lambda t: t.filter(t["k"] <= 3)),
        ("filter_s", lambda lf: lf.filter(col("s").ne("s3")),
         lambda t: t.filter(
             np.array([v != "s3" for v in t["s"]], dtype=bool)
         )),
        ("select", lambda lf: lf.select(["k", "x"]),
         lambda t: t.select(["k", "x"])),
        ("with_col", lambda lf: lf.with_column("y", col("x") * 2.0),
         lambda t: t.with_column("y", t["x"] * 2.0)),
        ("rename", lambda lf: lf.rename({"k": "kk"}).rename({"kk": "k"}),
         lambda t: t.rename({"k": "kk"}).rename({"kk": "k"})),
        ("sort", lambda lf: lf.sort_by("k"), lambda t: t.sort_by("k")),
        ("distinct", lambda lf: lf.distinct(["k"]),
         lambda t: t.distinct(["k"])),
        ("head", lambda lf: lf.head(7), lambda t: t.head(7)),
    ]
)


@given(st.integers(0, 40), st.integers(0, 10**6), st.lists(_OPS, max_size=5))
@settings(max_examples=80, deadline=None)
def test_random_plan_matches_eager_reference(n, seed, ops):
    table = _base_table(n, seed)
    frame = table.lazy()
    eager = table
    applied = []
    for name, lazy_op, eager_op in ops:
        if name in ("filter_x", "with_col") and "x" not in eager:
            continue  # a prior select/projection may have dropped it
        if name == "filter_s" and "s" not in eager:
            continue
        if name in ("filter_k", "sort", "distinct", "rename", "select") and (
            "k" not in eager or (name == "select" and "x" not in eager)
        ):
            continue
        frame = lazy_op(frame)
        eager = eager_op(eager)
        applied.append(name)
    collected = frame.collect()
    assert _tables_equal_bytes(collected, eager), applied


def test_filter_chain_matches_sequential():
    """A chain of filters runs one ``Table.filter`` per node, each on the
    rows that survived the one below it."""
    table = _base_table(500, 3)
    frame = (
        table.lazy()
        .filter(col("x") > -1.0)
        .filter(col("k") <= 5)
        .filter(col("x") < 1.0)
    )
    ref = (
        table.filter(table["x"] > -1.0)
        .filter(lambda t: t["k"] <= 5)
        .filter(lambda t: t["x"] < 1.0)
    )
    assert _tables_equal_bytes(frame.collect(), ref)


def test_join_then_select_keeps_suffix_naming():
    """``select`` after a join is checked against the join-naming replica:
    the names it predicts, suffixes included, are the join's own."""
    left = _base_table(200, 5)
    right = _base_table(50, 6).rename({"s": "tag"})
    frame = (
        left.lazy()
        .join(right, on="k", how="left")
        .select(["k", "x", "tag"])
    )
    ref = hash_join(left, right, on="k", how="left").select(["k", "x", "tag"])
    assert _tables_equal_bytes(frame.collect(), ref)
    # Colliding non-key names take the suffix, exactly as the join does.
    frame2 = left.lazy().join(right, on="k").select(["k", "x_right"])
    ref2 = hash_join(left, right, on="k").select(["k", "x_right"])
    assert _tables_equal_bytes(frame2.collect(), ref2)
    with pytest.raises(SchemaError):
        left.lazy().join(right, on="k").select(["tag_right"])


def test_shared_subplan_result_matches_eager():
    table = _base_table(400, 8)
    base = table.lazy().filter(col("x") > 0.0)
    joined = base.join(
        LazyFrame(base._node).group_by("k").agg({"m": ("x", "mean")}),
        on="k",
    )
    out = joined.collect()
    filtered = table.filter(table["x"] > 0.0)
    ref = hash_join(
        filtered, group_by(filtered, "k").agg({"m": ("x", "mean")}), on="k"
    )
    assert _tables_equal_bytes(out, ref)


def test_eager_filter_shim_matches_plan_kernel():
    """A plan's filter node runs ``Table.filter``: a mask, a callable and an
    expression give the same rows, and a malformed mask fails alike."""
    table = _base_table(200, 10)
    mask = table["x"] > 0.0
    eager = table.filter(mask)
    for predicate in (mask, lambda t: t["x"] > 0.0, col("x") > 0.0):
        assert _tables_equal_bytes(table.filter(predicate), eager)
        assert _tables_equal_bytes(
            table.lazy().filter(predicate).collect(), eager
        )
    for bad in (np.ones(3, dtype=bool), np.ones(200, dtype=np.int64)):
        with pytest.raises(SchemaError):
            table.filter(bad)
        with pytest.raises(SchemaError):
            table.lazy().filter(bad).collect()


def test_explain_renders_plan_nodes():
    """The plan renders as recorded: one line per node, root first, each
    filter on its own line."""
    table = _base_table(20, 11)
    text = (
        table.lazy()
        .filter(col("x") > 0.0)
        .filter(col("k") <= 2)
        .select(["k"])
        .explain()
    )
    ops = [line.strip().split("[")[0] for line in text.splitlines()]
    assert ops == ["project", "filter", "filter", "scan"]
    assert "rows=" not in text


@given(st.integers(0, 40), st.integers(0, 10**6), st.lists(_OPS, max_size=5))
@settings(max_examples=80, deadline=None)
def test_profile_row_counts_are_conservation_consistent(n, seed, ops):
    """Every operator's rows-in must equal its children's rows-out, and the
    analyzed execution must produce the byte-identical result."""
    table = _base_table(n, seed)
    frame = table.lazy()
    eager = table
    for name, lazy_op, eager_op in ops:
        if name in ("filter_x", "with_col") and "x" not in eager:
            continue
        if name == "filter_s" and "s" not in eager:
            continue
        if name in ("filter_k", "sort", "distinct", "rename", "select") and (
            "k" not in eager or (name == "select" and "x" not in eager)
        ):
            continue
        frame = lazy_op(frame)
        eager = eager_op(eager)
    root = frame.profile()
    for prof in root.walk():
        assert len(prof.rows_in) == len(prof.children)
        for rows_in, child in zip(prof.rows_in, prof.children):
            assert child.rows_out == rows_in
        assert prof.wall_s >= 0.0
    assert root.rows_out == len(eager)
    # collect() runs the plan again and gets the same bytes.
    assert _tables_equal_bytes(frame.collect(), eager)


def test_explain_analyze_annotates_rows_and_selectivity():
    table = _base_table(500, 21)
    before = obs.REGISTRY.counter_values().get("plan.analyzed", 0)
    frame = (
        table.lazy()
        .filter(col("x") > 0.0)
        .filter(col("k") <= 3)
        .group_by("k")
        .agg({"m": ("x", "mean")})
    )
    text = frame.explain(analyze=True)
    lines = text.splitlines()
    assert all(
        "rows=" in line and "wall=" in line and "cpu=" in line
        for line in lines
    )
    # Each filter reports its own selectivity; no other operator does.
    filter_lines = [line for line in lines if line.lstrip().startswith("filter")]
    assert len(filter_lines) == 2
    assert sum("sel=" in line for line in lines) == 2
    assert all("sel=" in line for line in filter_lines)
    assert obs.REGISTRY.counter_values()["plan.analyzed"] == before + 1
    # The profile is kept with the explain call: no second execution.
    root = frame.profile()
    assert obs.REGISTRY.counter_values()["plan.analyzed"] == before + 1
    filters = [p for p in root.walk() if p.op == "filter"]
    assert len(filters) == 2
    for prof, line in zip(filters, filter_lines):
        assert prof.selectivity == prof.rows_out / prof.rows_in[0]
        assert 0.0 <= prof.selectivity <= 1.0
        assert f"sel={prof.selectivity:.3f}" in line
    assert all(p.selectivity is None for p in root.walk() if p.op != "filter")
    hot = profile_hotspots(root, top=3)
    assert 1 <= len(hot) <= 3
    assert all(
        hot[i].wall_s >= hot[i + 1].wall_s for i in range(len(hot) - 1)
    )


def test_select_unknown_column_raises_at_build_time():
    table = _base_table(10, 12)
    with pytest.raises(SchemaError):
        table.lazy().select(["nope"])
    with pytest.raises(SchemaError):
        table.lazy().rename({"nope": "x2"})

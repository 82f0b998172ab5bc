"""Lazy plan engine: optimizer equivalence, fusion, pushdown, profiling.

The central property: for any operator chain, ``collect()`` of the lazy
plan is byte-identical to applying the same operators eagerly, and to
collecting the raw plan with :func:`~repro.tables.plan.optimize` replaced
by the identity (the unoptimized reference).  Hypothesis drives random
chains; targeted tests pin down each optimizer rewrite and its counters,
and one test builds the whole tiny study both ways.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import build_study, obs
from repro.analysis.taskdesign import METRICS, analysis_clusters
from repro.tables import Table, col, group_by, hash_join, profile_hotspots
from repro.tables import plan
from repro.tables.plan import LazyFrame, optimize
from repro.tables.table import SchemaError
from tests.test_shard_equivalence import assert_tables_byte_identical


def _unoptimized():
    """Run plans exactly as recorded: the optimizer becomes the identity."""
    return mock.patch.object(plan, "optimize", lambda node: node)


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


@given(st.integers(0, 40), st.integers(0, 10**6), st.lists(_OPS, max_size=5))
@settings(max_examples=40, deadline=None)
def test_random_plan_matches_unoptimized_run(n, seed, ops):
    table = _base_table(n, seed)

    def build():
        frame = table.lazy()
        skip = set()
        for name, lazy_op, _ in ops:
            if name == "select":
                skip.update({"filter_s"})
            if name in skip:
                continue
            try:
                frame = lazy_op(frame)
            except SchemaError:
                continue
        return frame

    optimized = build().collect()
    with _unoptimized():
        unoptimized = build().collect()
    assert _tables_equal_bytes(optimized, unoptimized)


def test_filter_chain_fuses_and_matches_sequential():
    table = _base_table(500, 3)
    obs.REGISTRY.counter("plan.fused_ops").reset()
    frame = (
        table.lazy()
        .filter(col("x") > -1.0)
        .filter(col("k") <= 5)
        .filter(col("x") < 1.0)
    )
    out = frame.collect()
    ref = (
        table.filter(table["x"] > -1.0)
        .filter(lambda t: t["k"] <= 5)
        .filter(lambda t: t["x"] < 1.0)
    )
    assert _tables_equal_bytes(out, ref)
    assert obs.REGISTRY.counter_values()["plan.fused_ops"] >= 2


def test_projection_pushdown_below_group_by():
    table = _base_table(300, 4)
    frame = (
        table.lazy()
        .filter(col("x") > 0.0)
        .group_by("k")
        .agg({"total": ("x", "sum")})
    )
    rendered = LazyFrame(optimize(frame._node)).explain()
    # The filter gains a fused projection onto the group-by inputs, so the
    # unused string column is never gathered.
    assert "fused_filter" in rendered
    assert "'k', 'x'" in rendered
    out = frame.collect()
    ref = group_by(table.filter(table["x"] > 0.0), "k").agg(
        {"total": ("x", "sum")}
    )
    assert _tables_equal_bytes(out, ref)


def test_projection_pushdown_below_join_keeps_suffix_naming():
    left = _base_table(200, 5)
    right = _base_table(50, 6).rename({"s": "tag"})
    frame = (
        left.lazy()
        .join(right, on="k", how="left")
        .select(["k", "x", "tag"])
    )
    out = frame.collect()
    ref = hash_join(left, right, on="k", how="left").select(["k", "x", "tag"])
    assert _tables_equal_bytes(out, ref)
    # Colliding non-key names must keep their suffix decisions.
    frame2 = left.lazy().join(right, on="k").select(["k", "x_right"])
    ref2 = hash_join(left, right, on="k").select(["k", "x_right"])
    assert _tables_equal_bytes(frame2.collect(), ref2)


def test_collect_is_memoized_per_frame():
    table = _base_table(50, 7)
    frame = table.lazy().filter(col("x") > 0.0)
    first = frame.collect()
    before = obs.REGISTRY.counter_values().get("plan.cache_hit", 0)
    second = frame.collect()
    assert second is first
    assert obs.REGISTRY.counter_values()["plan.cache_hit"] == before + 1


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
    table = _base_table(200, 10)
    mask = table["x"] > 0.0
    assert _tables_equal_bytes(
        table.filter(mask), table.lazy().filter(mask).collect()
    )
    with pytest.raises(SchemaError):
        table.filter(np.ones(3, dtype=bool))


def test_explain_renders_plan_nodes():
    table = _base_table(20, 11)
    text = (
        table.lazy()
        .filter(col("x") > 0.0)
        .filter(col("k") <= 2)
        .select(["k"])
        .explain()
    )
    assert "scan" in text.lower()
    assert "filter" in text.lower()


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
    # profile() cached the analyzed result on the frame.
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
    assert "rows=" in text and "wall=" in text and "cpu=" in text
    # The fused predicate pair reports one selectivity factor per predicate.
    assert "sel=" in text
    assert obs.REGISTRY.counter_values()["plan.analyzed"] == before + 1
    # The profile is memoized with the explain call: no second execution.
    root = frame.profile()
    assert obs.REGISTRY.counter_values()["plan.analyzed"] == before + 1
    sel = next(p for p in root.walk() if p.survivors).selectivity
    assert all(0.0 <= s <= 1.0 for s in sel)
    hot = profile_hotspots(root, top=3)
    assert 1 <= len(hot) <= 3
    assert all(
        hot[i].wall_s >= hot[i + 1].wall_s for i in range(len(hot) - 1)
    )


def test_profile_counts_memo_hits_for_shared_subplan():
    table = _base_table(400, 22)
    base = table.lazy().filter(col("x") > 0.0)
    joined = base.join(
        LazyFrame(base._node).group_by("k").agg({"m": ("x", "mean")}),
        on="k",
    )
    root = joined.profile()
    assert sum(p.memo_hits for p in root.walk()) >= 1


def test_select_unknown_column_raises_at_build_time():
    table = _base_table(10, 12)
    with pytest.raises(SchemaError):
        table.lazy().select(["nope"])
    with pytest.raises(SchemaError):
        table.lazy().rename({"nope": "x2"})


def test_unoptimized_run_skips_fusion():
    table = _base_table(100, 13)
    obs.REGISTRY.counter("plan.fused_ops").reset()
    frame = table.lazy().filter(col("x") > 0.0).filter(col("k") <= 3)
    with _unoptimized():
        out = frame.collect()
        rendered = frame.explain()
    ref = table.filter(table["x"] > 0.0)
    ref = ref.filter(ref["k"] <= 3)
    assert _tables_equal_bytes(out, ref)
    assert "fused_filter" not in rendered
    assert obs.REGISTRY.counter_values().get("plan.fused_ops", 0) == 0


def test_optimizer_off_study_is_byte_identical():
    """The whole tiny study's plan-built tables do not depend on the
    optimizer: the unoptimized plans produce the same bytes."""
    optimized = build_study("tiny", seed=7, cache=False)
    with _unoptimized():
        reference = build_study("tiny", seed=7, cache=False)
        reference_clusters = {
            m: analysis_clusters(reference.enriched, metric=m) for m in METRICS
        }
    for name in ("batch_table", "cluster_table"):
        assert_tables_byte_identical(
            getattr(optimized.enriched, name),
            getattr(reference.enriched, name),
            label=name,
        )
    for metric in METRICS:
        assert_tables_byte_identical(
            analysis_clusters(optimized.enriched, metric=metric),
            reference_clusters[metric],
            label=f"analysis_clusters[{metric}]",
        )

"""Dictionary-encoded string columns: round-trips, kernels, shard merges."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tables import (
    DictColumn,
    Table,
    concat_dict_columns,
    concat_tables,
    dict_encode,
    group_by,
    hash_join,
)
from repro.tables.column import factorize

value_lists = st.lists(
    st.one_of(st.sampled_from(["a", "b", "cc", ""]), st.none()),
    min_size=0,
    max_size=60,
)


@given(value_lists)
@settings(max_examples=80, deadline=None)
def test_dict_encode_round_trip(values):
    column = dict_encode(np.array(values, dtype=object))
    back = column.materialize()
    assert back.dtype == object
    assert len(back) == len(values)
    assert all(
        (x is None and y is None) or x == y for x, y in zip(back, values)
    )
    # Uniques are distinct and every code is in range.
    assert len(set(column.uniques.tolist())) == len(column.uniques)
    if len(values):
        assert column.codes.min() >= 0
        assert column.codes.max() < len(column.uniques)


@given(value_lists)
@settings(max_examples=80, deadline=None)
def test_dense_codes_match_factorize_of_materialized(values):
    column = dict_encode(np.array(values, dtype=object))
    codes, uniques = column.dense_codes()
    ref_codes, ref_uniques = factorize(column.materialize())
    assert np.array_equal(codes, ref_codes)
    assert list(uniques) == list(ref_uniques)


@given(value_lists, st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_take_and_filter_slice_codes_share_uniques(values, seed):
    column = dict_encode(np.array(values, dtype=object))
    rng = np.random.default_rng(seed)
    raw = column.materialize()
    if len(values):
        idx = rng.integers(0, len(values), size=len(values) // 2 + 1)
        taken = column.take(idx)
        assert taken.uniques is column.uniques
        assert list(taken.materialize()) == list(raw[idx])
    mask = rng.random(len(values)) < 0.5
    kept = column.filter(mask)
    assert kept.uniques is column.uniques
    assert list(kept.materialize()) == list(raw[mask])


@given(st.lists(value_lists, min_size=1, max_size=4))
@settings(max_examples=60, deadline=None)
def test_concat_dict_columns_matches_object_concat(parts):
    columns = [dict_encode(np.array(p, dtype=object)) for p in parts]
    merged = concat_dict_columns(columns)
    expected = [v for p in parts for v in p]
    assert list(merged.materialize()) == expected
    assert len(set(merged.uniques.tolist())) == len(merged.uniques)


@given(value_lists)
@settings(max_examples=40, deadline=None)
def test_group_by_on_dict_column_matches_object_column(values):
    if not values:
        return
    x = np.arange(len(values), dtype=np.float64)
    enc = Table({"key": dict_encode(np.array(values, dtype=object)), "x": x})
    obj = Table({"key": np.array(values, dtype=object), "x": x})
    a = group_by(enc, "key").agg({"n": ("x", "count"), "tot": ("x", "sum")})
    b = group_by(obj, "key").agg({"n": ("x", "count"), "tot": ("x", "sum")})
    assert list(a["key"]) == list(b["key"])
    assert np.array_equal(a["n"], b["n"])
    assert np.array_equal(a["tot"], b["tot"])


@given(value_lists, value_lists)
@settings(max_examples=40, deadline=None)
def test_join_on_dict_keys_matches_object_keys(left_keys, right_keys):
    lx = np.arange(len(left_keys), dtype=np.int64)
    ry = np.arange(len(right_keys), dtype=np.int64)
    for how in ("inner", "left"):
        enc = hash_join(
            Table({"k": dict_encode(np.array(left_keys, dtype=object)), "lx": lx}),
            Table({"k": dict_encode(np.array(right_keys, dtype=object)), "ry": ry}),
            on="k",
            how=how,
        )
        obj = hash_join(
            Table({"k": np.array(left_keys, dtype=object), "lx": lx}),
            Table({"k": np.array(right_keys, dtype=object), "ry": ry}),
            on="k",
            how=how,
        )
        assert list(enc["k"]) == list(obj["k"])
        assert np.array_equal(enc["lx"], obj["lx"])
        assert np.allclose(
            enc["ry"].astype(np.float64),
            obj["ry"].astype(np.float64),
            equal_nan=True,
        )


@given(st.lists(value_lists, min_size=2, max_size=4))
@settings(max_examples=40, deadline=None)
def test_sharded_concat_then_group_matches_monolithic(shards):
    tables = [
        Table(
            {
                "key": dict_encode(np.array(part, dtype=object)),
                "x": np.ones(len(part)),
            }
        )
        for part in shards
    ]
    if not any(t.num_rows for t in tables):
        return
    merged = concat_tables([t for t in tables if t.num_rows])
    mono = Table(
        {
            "key": np.array(
                [v for part in shards for v in part], dtype=object
            ),
            "x": np.ones(sum(len(p) for p in shards)),
        }
    )
    a = group_by(merged, "key").agg({"n": ("x", "count")})
    b = group_by(mono, "key").agg({"n": ("x", "count")})
    assert list(a["key"]) == list(b["key"])
    assert np.array_equal(a["n"], b["n"])


def test_dict_column_pickle_round_trip():
    column = dict_encode(np.array(["x", "y", "x", None], dtype=object))
    clone = pickle.loads(pickle.dumps(column))
    assert isinstance(clone, DictColumn)
    assert list(clone.materialize()) == ["x", "y", "x", None]


def test_table_ops_on_dict_columns_match_object_columns():
    values = ["b", "a", "b", "c", "a", "b"]
    enc = Table(
        {
            "s": dict_encode(np.array(values, dtype=object)),
            "i": np.arange(6, dtype=np.int64),
        }
    )
    obj = Table({"s": np.array(values, dtype=object), "i": np.arange(6)})
    assert list(enc.sort_by("s")["s"]) == list(obj.sort_by("s")["s"])
    assert list(enc.distinct(["s"])["s"]) == list(obj.distinct(["s"])["s"])
    assert enc.schema() == {"s": "str", "i": "int"}
    assert enc.to_rows() == obj.to_rows()
    nun = group_by(enc, "s").agg({"u": ("i", "nunique")})
    ref = group_by(obj, "s").agg({"u": ("i", "nunique")})
    assert list(nun["s"]) == list(ref["s"])
    assert np.array_equal(nun["u"], ref["u"])


def test_dict_encode_is_noop_on_dict_columns_and_counts_metrics():
    column = dict_encode(np.array(["p", "q"], dtype=object))
    assert dict_encode(column) is column


def test_dict_encode_codes_are_first_appearance_dense():
    column = dict_encode(np.array(["q", "p", "q", "r"], dtype=object))
    assert list(column.uniques) == ["q", "p", "r"]
    assert list(column.codes) == [0, 1, 0, 2]

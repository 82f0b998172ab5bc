"""Property-based tests for the table engine (hypothesis)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tables import Table, group_by, read_csv, write_csv
from repro.tables.column import as_column, count_distinct, factorize

names = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=8
)

int_columns = st.lists(st.integers(-10**9, 10**9), min_size=1, max_size=40)
float_columns = st.lists(
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    min_size=1,
    max_size=40,
)
# Letters only: CSV type inference deliberately reads numeric-looking
# strings back as numbers, so digit strings cannot round-trip as str.
str_columns = st.lists(
    st.text(alphabet="abcxyz ,", max_size=12), min_size=1, max_size=40
)


@given(int_columns, float_columns, str_columns)
@settings(max_examples=60, deadline=None)
def test_csv_round_trip_preserves_table(ints, floats, strs):
    n = min(len(ints), len(floats), len(strs))
    t = Table({"i": ints[:n], "f": floats[:n], "s": strs[:n]})
    import tempfile, os

    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "t.csv")
        write_csv(t, path)
        back = read_csv(path)
    assert back.num_rows == t.num_rows
    assert np.array_equal(back["i"], t["i"])
    assert np.allclose(back["f"], t["f"])
    # Strings: empty strings read back as missing (CSV cannot distinguish
    # "" from absent) — None in a str column, NaN if the whole column was
    # empty.  All other values survive exactly.
    for a, b in zip(t["s"], back["s"]):
        missing = b is None or (isinstance(b, float) and np.isnan(b))
        assert (a == b) or (a == "" and missing)


@given(st.lists(st.integers(0, 5), min_size=1, max_size=200))
@settings(max_examples=60, deadline=None)
def test_groupby_counts_partition_rows(keys):
    t = Table({"k": keys, "v": list(range(len(keys)))})
    g = group_by(t, "k").agg({"n": ("v", "count")})
    assert int(g["n"].sum()) == len(keys)
    # Every key appears exactly once in the output.
    assert len(set(g["k"])) == g.num_rows == len(set(keys))


@given(st.lists(st.integers(0, 8), min_size=1, max_size=200))
@settings(max_examples=60, deadline=None)
def test_groupby_sum_matches_python(keys):
    values = np.arange(len(keys), dtype=np.float64)
    t = Table({"k": keys, "v": values})
    g = group_by(t, "k").agg({"s": ("v", "sum")})
    expected = {}
    for k, v in zip(keys, values):
        expected[k] = expected.get(k, 0.0) + v
    for row in g.to_rows():
        assert row["s"] == expected[row["k"]]


@given(st.lists(st.text(alphabet="abc", max_size=3), min_size=1, max_size=100))
@settings(max_examples=60, deadline=None)
def test_factorize_reconstructs(values):
    array = as_column(values)
    codes, uniques = factorize(array)
    rebuilt = uniques[codes]
    assert all(a == b for a, b in zip(rebuilt, array))
    assert len(set(codes.tolist())) == len(uniques)


@given(st.one_of(
    st.lists(st.integers(-(2**63), 2**63 - 1), max_size=60).map(
        lambda v: np.array(v, dtype=np.int64)),
    st.lists(st.integers(0, 5), max_size=60).map(
        lambda v: np.array(v, dtype=np.int64)),
    st.lists(st.floats(allow_nan=True), max_size=60).map(
        lambda v: np.array(v, dtype=np.float64)),
    st.lists(st.sampled_from([0.0, -0.0, float("nan"), float("inf"), 1.5]),
             max_size=30).map(lambda v: np.array(v, dtype=np.float64)),
    st.lists(st.booleans(), max_size=20).map(
        lambda v: np.array(v, dtype=bool)),
    st.lists(st.text(alphabet="abé", max_size=3), max_size=40).map(
        lambda v: np.array(v, dtype=object)),
))
@settings(max_examples=200, deadline=None)
def test_count_distinct_equals_np_unique(values):
    # Empty and single-element arrays are the strategies' smallest cases.
    assert count_distinct(values) == len(np.unique(values))


def test_count_distinct_edge_sizes():
    assert count_distinct(np.array([], dtype=np.int64)) == 0
    assert count_distinct(np.array([7], dtype=np.int64)) == 1
    assert count_distinct(np.array([np.nan])) == 1
    assert count_distinct(np.array([np.nan, np.nan, 1.0])) == 2


@given(
    st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=80),
    st.integers(0, 3),
)
@settings(max_examples=60, deadline=None)
def test_sort_then_filter_consistency(values, pivot_idx):
    t = Table({"v": values})
    pivot = values[pivot_idx % len(values)]
    sorted_t = t.sort_by("v")
    assert list(sorted_t["v"]) == sorted(values)
    filtered = t.filter(t["v"] > pivot)
    assert all(v > pivot for v in filtered["v"])
    assert filtered.num_rows == sum(1 for v in values if v > pivot)

"""Property tests: segment-vectorized group-by kernels vs a naive reference.

The vectorized ``median`` / ``std`` / ``p<NN>`` / ``nunique`` kernels in
:mod:`repro.tables.groupby` operate on sorted group segments with
``reduceat`` / fancy indexing.  Each is checked here against the obvious
per-group numpy reference (boolean-mask the group, call the numpy
function) on randomized tables, including the awkward shapes: NaN values,
object columns, single-row groups, and all-identical keys.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tables import DictColumn, Table, dict_encode, group_by

_KEY_POOL = ["a", "b", "c", "d", "e"]


def _naive_aggregate(table: Table, key: str, column: str, spec: str):
    """Per-group reference using plain numpy on boolean masks."""
    keys = table[key]
    values = table[column]
    out = {}
    for k in dict.fromkeys(keys.tolist()):  # first-appearance order
        group = values[keys == k]
        if spec == "median":
            out[k] = float(np.median(group.astype(np.float64)))
        elif spec == "std":
            out[k] = float(group.astype(np.float64).std())
        elif spec.startswith("p"):
            out[k] = float(
                np.percentile(group.astype(np.float64), float(spec[1:]))
            )
        elif spec == "nunique":
            # np.unique collapses NaNs into one value.
            out[k] = (
                len(set(group.tolist())) if group.dtype == object
                else len(np.unique(group))
            )
        else:  # pragma: no cover - guard against typos in the test itself
            raise ValueError(spec)
    return out


def _grouped_dict(table: Table, key: str, column: str, spec: str):
    result = group_by(table, key).agg({"out": (column, spec)})
    return dict(zip(result[key].tolist(), result["out"].tolist()))


@st.composite
def _tables(draw, *, with_nan: bool, dtype: str = "float"):
    n = draw(st.integers(min_value=1, max_value=120))
    keys = draw(
        st.lists(st.sampled_from(_KEY_POOL), min_size=n, max_size=n)
    )
    if dtype == "float":
        elements = st.floats(
            min_value=-1e6, max_value=1e6, allow_nan=False, width=32
        )
        if with_nan:
            elements = st.one_of(elements, st.just(float("nan")))
        values = np.array(
            draw(st.lists(elements, min_size=n, max_size=n)), dtype=np.float64
        )
    elif dtype == "int":
        values = np.array(
            draw(
                st.lists(
                    st.integers(min_value=-50, max_value=50),
                    min_size=n,
                    max_size=n,
                )
            ),
            dtype=np.int64,
        )
    else:  # object
        values = np.array(
            draw(
                st.lists(
                    st.sampled_from(["x", "y", "z", "", "long-ish-value"]),
                    min_size=n,
                    max_size=n,
                )
            ),
            dtype=object,
        )
    return Table({"k": np.array(keys, dtype=object), "v": values})


class TestOrderStatisticKernels:
    @settings(max_examples=60, deadline=None)
    @given(table=_tables(with_nan=False))
    @pytest.mark.parametrize("spec", ["median", "p25", "p50", "p90", "p99"])
    def test_matches_numpy_reference_bit_exact(self, table, spec):
        got = _grouped_dict(table, "k", "v", spec)
        expected = _naive_aggregate(table, "k", "v", spec)
        assert list(got) == list(expected)
        for k in expected:
            # Bit-exact: same lerp formula as np.percentile, not approx.
            assert got[k] == expected[k] or (
                np.isnan(got[k]) and np.isnan(expected[k])
            )

    @settings(max_examples=40, deadline=None)
    @given(table=_tables(with_nan=False, dtype="int"))
    def test_median_on_integer_columns(self, table):
        assert _grouped_dict(table, "k", "v", "median") == _naive_aggregate(
            table, "k", "v", "median"
        )

    def test_single_row_groups(self):
        table = Table(
            {
                "k": np.array(list("abcde"), dtype=object),
                "v": np.array([5.0, -1.0, 0.0, 2.5, 100.0]),
            }
        )
        for spec in ("median", "p25", "p90", "std", "nunique"):
            got = _grouped_dict(table, "k", "v", spec)
            assert got == _naive_aggregate(table, "k", "v", spec)

    def test_all_rows_one_group(self):
        rng = np.random.default_rng(11)
        table = Table(
            {
                "k": np.array(["same"] * 257, dtype=object),
                "v": rng.normal(size=257),
            }
        )
        for spec in ("median", "p25", "p50", "p90"):
            got = _grouped_dict(table, "k", "v", spec)
            assert got == _naive_aggregate(table, "k", "v", spec)


class TestStdKernel:
    @settings(max_examples=60, deadline=None)
    @given(table=_tables(with_nan=False))
    def test_matches_numpy_within_float_tolerance(self, table):
        got = _grouped_dict(table, "k", "v", "std")
        expected = _naive_aggregate(table, "k", "v", "std")
        assert list(got) == list(expected)
        for k in expected:
            # Summation order differs (sequential reduceat vs pairwise
            # umr_sum), so allow float round-off but nothing more.
            assert got[k] == pytest.approx(expected[k], rel=1e-9, abs=1e-9)


class TestNuniqueKernel:
    @settings(max_examples=60, deadline=None)
    @given(table=_tables(with_nan=True))
    def test_float_with_nan(self, table):
        assert _grouped_dict(table, "k", "v", "nunique") == _naive_aggregate(
            table, "k", "v", "nunique"
        )

    @settings(max_examples=40, deadline=None)
    @given(table=_tables(with_nan=False, dtype="int"))
    def test_integer_columns(self, table):
        assert _grouped_dict(table, "k", "v", "nunique") == _naive_aggregate(
            table, "k", "v", "nunique"
        )

    @settings(max_examples=40, deadline=None)
    @given(table=_tables(with_nan=False, dtype="object"))
    def test_object_columns(self, table):
        assert _grouped_dict(table, "k", "v", "nunique") == _naive_aggregate(
            table, "k", "v", "nunique"
        )

    @settings(max_examples=60, deadline=None)
    @given(table=_tables(with_nan=False, dtype="object"))
    def test_dictionary_columns(self, table):
        coded = Table(
            {"k": table["k"], "v": dict_encode(table["v"])}, copy=False
        )
        assert isinstance(coded.column("v"), DictColumn)
        assert _grouped_dict(coded, "k", "v", "nunique") == _naive_aggregate(
            table, "k", "v", "nunique"
        )

    @pytest.mark.parametrize("dtype", ["float", "int", "object"])
    def test_empty_table(self, dtype):
        values = {
            "float": np.empty(0), "int": np.empty(0, dtype=np.int64),
            "object": np.empty(0, dtype=object),
        }[dtype]
        table = Table({"k": np.empty(0, dtype=np.int64), "v": values})
        out = group_by(table, "k").agg({"n": ("v", "nunique")})
        assert out.num_rows == 0 and out["n"].dtype == np.int64

    def test_one_nan_per_group(self):
        table = Table({
            "k": np.array([0, 0, 0, 1, 1, 2]),
            "v": np.array([np.nan, 1.0, 1.0, 2.0, np.nan, np.nan]),
        })
        out = group_by(table, "k").agg({"n": ("v", "nunique")})
        assert out["n"].tolist() == [2, 2, 1]
        assert dict(zip(out["k"].tolist(), out["n"].tolist())) == (
            _naive_aggregate(table, "k", "v", "nunique")
        )

    @pytest.mark.parametrize("dtype", ["float", "int", "object", "dict"])
    def test_one_group_and_all_distinct_groups(self, dtype):
        raw = np.random.default_rng(4).integers(0, 40, size=300)
        values = {
            "float": raw.astype(np.float64), "int": raw,
            "object": raw.astype(str).astype(object),
            "dict": dict_encode(raw.astype(str).astype(object)),
        }[dtype]
        for keys in (np.zeros(300, dtype=np.int64), np.arange(300)):
            table = Table({"k": keys, "v": values}, copy=False)
            # The reference reads table["v"], which decodes a dictionary.
            assert _grouped_dict(table, "k", "v", "nunique") == (
                _naive_aggregate(table, "k", "v", "nunique")
            )

    def test_key_overflow_raises_naming_the_int64_bound(self):
        # A dictionary of 2**59 (unreferenced) entries over 17 groups needs
        # a key above int64; 15 groups still fit.  The uniques table is a
        # zero-stride view, so nothing that large is allocated.
        uniques = np.broadcast_to(np.array("x", dtype=object), (2**59,))
        for groups, fits in ((15, True), (17, False)):
            table = Table(
                {
                    "k": np.arange(groups),
                    "v": DictColumn(np.zeros(groups, dtype=np.int32), uniques),
                },
                copy=False,
            )
            grouped = group_by(table, "k")
            if fits:
                out = grouped.agg({"n": ("v", "nunique")})
                assert out["n"].tolist() == [1] * groups
            else:
                bound = str(np.iinfo(np.int64).max)
                with pytest.raises(OverflowError, match=bound):
                    grouped.agg({"n": ("v", "nunique")})


class TestCardinalityOverflowGuard:
    def test_many_keys_beyond_int64_capacity(self):
        # 8 keys of ~1500 uniques each: 1500**8 ≈ 2.6e25 >> int64 max.  The
        # combined-code construction must detect the overflow and
        # re-densify instead of silently wrapping.
        rng = np.random.default_rng(5)
        n = 3000
        columns = {
            f"k{i}": rng.integers(0, 1500, size=n) for i in range(8)
        }
        # Make each row's composite key unique in pairs so group count is
        # predictable: pair rows 2j and 2j+1 identical.
        for name in columns:
            col = columns[name]
            col[1::2] = col[0::2]
            columns[name] = col
        columns["v"] = np.ones(n)
        table = Table(columns)
        result = group_by(table, [f"k{i}" for i in range(8)]).agg(
            {"total": ("v", "sum")}
        )
        # Every odd row duplicates the preceding even row, so at most n/2
        # distinct composite keys (exactly n/2 with overwhelming odds).
        composites = set(
            zip(*(columns[f"k{i}"].tolist() for i in range(8)))
        )
        assert result.num_rows == len(composites)
        assert float(result["total"].sum()) == float(n)


def _median_reference(
    keys: np.ndarray, values: np.ndarray, how: str
) -> np.ndarray:
    """Per-group ``np.median`` in sorted key order: of every value
    (``median``) or of the non-NaN values, NaN if none (``nanmedian``)."""
    out = []
    for k in np.unique(keys):
        seg = values[keys == k]
        if how == "nanmedian":
            seg = seg[~np.isnan(seg)]
        out.append(np.median(seg) if seg.size else np.nan)
    return np.array(out, dtype=np.float64)


def _assert_median(keys, values, how: str = "nanmedian") -> None:
    keys = np.asarray(keys, dtype=np.int64)
    values = np.asarray(values, dtype=np.float64)
    # inf - inf and overflowing sums warn on both sides alike.
    with np.errstate(invalid="ignore", over="ignore"):
        got = group_by(Table({"k": keys, "v": values}), "k").agg(
            {"m": ("v", how)}
        )["m"]
        expected = _median_reference(keys, values, how)
    assert got.dtype == expected.dtype == np.float64
    # Bit-equal, NaN included (tobytes compares payload and sign).
    assert got.tobytes() == expected.tobytes()


class TestNanmedianKernel:
    @settings(max_examples=150, deadline=None)
    @given(
        cells=st.lists(
            st.tuples(
                st.integers(0, 6),
                st.one_of(
                    st.floats(allow_nan=True, allow_infinity=True),
                    st.just(float("nan")),
                    st.sampled_from([0.0, -0.0, 1.0]),
                ),
            ),
            min_size=1,
            max_size=80,
        )
    )
    def test_matches_per_segment_median(self, cells):
        keys, values = zip(*cells)
        _assert_median(keys, values)

    @pytest.mark.parametrize(
        "values",
        [
            [np.nan],
            [np.nan, np.nan, np.nan],
            [3.5],
            [4.0, 1.0],
            [4.0, np.nan, 1.0, 2.0],
            [5.0, 1.0, np.nan, 3.0, 2.0, np.nan],
            [-0.0],
            [-0.0, -0.0],
            [0.0, -0.0, -0.0],
            [-0.0, 1.0, -1.0],
            [np.inf, -np.inf],
            [np.inf, np.inf, np.nan],
            [-np.inf, 1.0, 2.0],
            [1.7e308],
            [1.7e308, 1.7e308],
        ],
    )
    def test_one_group(self, values):
        _assert_median(np.zeros(len(values)), values)

    def test_groups_with_and_without_values(self):
        _assert_median(
            [0, 0, 1, 1, 2, 3, 3, 3],
            [np.nan, np.nan, 1.0, np.nan, -0.0, 2.0, 4.0, np.nan],
        )

    def test_large_groups_take_the_in_place_sort(self):
        rng = np.random.default_rng(3)
        keys = np.repeat(np.arange(4), 40)
        values = rng.normal(size=160)
        values[rng.random(160) < 0.3] = np.nan
        values[120:] = np.nan
        _assert_median(keys, values)

    def test_empty_table(self):
        out = group_by(
            Table({"k": np.empty(0, np.int64), "v": np.empty(0)}), "k"
        ).agg({"m": ("v", "nanmedian")})
        assert out.num_rows == 0
        assert out["m"].dtype == np.float64

    def test_integer_values(self):
        out = group_by(
            Table({"k": np.array([0, 0, 1]), "v": np.array([1, 2, 7])}), "k"
        ).agg({"m": ("v", "nanmedian")})
        assert out["m"].tolist() == [1.5, 7.0]
        assert out["m"].dtype == np.float64


class TestMedianKernel:
    """``median`` is ``np.median`` per segment, bit for bit: a segment
    holding a NaN yields that NaN, a lone ``-0.0`` reads ``0.0`` and a lone
    huge value does not overflow."""

    @settings(max_examples=150, deadline=None)
    @given(
        cells=st.lists(
            st.tuples(
                st.integers(0, 6),
                st.one_of(
                    st.floats(allow_nan=False, allow_infinity=True),
                    st.just(float("nan")),
                    st.sampled_from([0.0, -0.0, 1.0, 1.7e308, -1.7e308]),
                ),
            ),
            min_size=1,
            max_size=80,
        )
    )
    def test_matches_per_segment_median(self, cells):
        keys, values = zip(*cells)
        _assert_median(keys, values, "median")

    @pytest.mark.parametrize(
        "values",
        [
            [-0.0],
            [0.0],
            [-0.0, -0.0],
            [0.0, -0.0, -0.0],
            [1.7e308],
            [-1.7e308],
            [1.7e308, 1.7e308],
            [1.7e308, 1.0, 1.7e308],
            [np.nan],
            [4.0, np.nan, 1.0, 2.0],
            [1.0, -np.nan],
            [3.5],
            [4.0, 1.0],
            [5.0, 1.0, 3.0],
            [5.0, 1.0, 3.0, 2.0],
            [np.inf],
            [-np.inf],
            [np.inf, -np.inf],
            [np.inf, np.inf, 1.0],
            [-np.inf, 1.0, 2.0, 3.0],
        ],
    )
    def test_one_group(self, values):
        _assert_median(np.zeros(len(values)), values, "median")

    def test_groups_with_and_without_nan(self):
        _assert_median(
            [0, 0, 1, 1, 2, 3, 3, 3],
            [np.nan, 2.0, 1.0, 3.0, -0.0, 2.0, 4.0, 1.7e308],
            "median",
        )

    def test_empty_table(self):
        out = group_by(
            Table({"k": np.empty(0, np.int64), "v": np.empty(0)}), "k"
        ).agg({"m": ("v", "median")})
        assert out.num_rows == 0
        assert out["m"].dtype == np.float64

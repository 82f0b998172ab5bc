"""Property-based laws for the incremental ingest service.

Hypothesis generates arbitrary synthetic marketplaces (catalog rows,
instance rows, HTML docs), arbitrary partitionings of them into
micro-batches, and arbitrary arrival orders, then checks the laws
:mod:`repro.service.state` documents **at the service layer** — through
``ServiceState.ingest`` with real wire payloads:

- **Partition + order invariance**: every served table (released tables
  and all three instance aggregates) depends only on the *set* of rows
  ingested, never on how they were batched or in what order they arrived.
- **Rejected payloads change nothing**: a duplicate or malformed
  micro-batch leaves every served table byte-identical.

The HTTP-layer half pins the cache contract: the ETag changes *iff* the
served bytes change (ingests into other layers leave it fixed), a stale
``If-None-Match`` gets the fresh 200, and a current one gets a bodyless
304.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import faults, obs
from repro.obs import live
from repro.service import ServiceApp, ServiceClient
from repro.service.app import table_body
from repro.service.codec import WIRE_SCHEMA_VERSION, encode_table
from repro.service.state import IngestError, ServiceState
from repro.simulator.config import SimulationConfig
from repro.tables import Table


@pytest.fixture(autouse=True)
def _clean_slate(tmp_path, monkeypatch):
    from repro import cache

    monkeypatch.setenv(cache.CACHE_DIR_ENV, str(tmp_path / "cache"))
    faults.configure(None)
    yield
    obs.finish()
    faults.configure(None)
    server = live.active_server()
    if server is not None:
        server.stop()


CONFIG = SimulationConfig.preset("tiny", seed=7)


def _config_key() -> str:
    from repro import cache as study_cache

    return study_cache.study_key(CONFIG)


# --------------------------------------------------------------------- #
# Synthetic wire data
# --------------------------------------------------------------------- #

# One instance row: (batch, item, worker, start, duration, trust-or-None,
# source, country).  instance_id is the row's index, so rows are unique.
_instance_rows = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=40),
        st.integers(min_value=0, max_value=500),
        st.integers(min_value=0, max_value=25),
        st.integers(min_value=0, max_value=10**6),
        st.integers(min_value=0, max_value=8000),
        st.one_of(
            st.none(),
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        ),
        st.sampled_from(["own", "chan-a", "chan-b"]),
        st.sampled_from(["US", "IN", "GB", "PH"]),
    ),
    min_size=1,
    max_size=40,
)

_catalog_rows = st.lists(
    st.tuples(
        st.text(alphabet="abcdef ", min_size=0, max_size=12),
        st.integers(min_value=0, max_value=10**6),
        st.booleans(),
    ),
    min_size=1,
    max_size=20,
)


def _instances_table(rows, ids) -> Table:
    return Table({
        "instance_id": np.array(ids, dtype=np.int64),
        "batch_id": np.array([r[0] for r in rows], dtype=np.int64),
        "item_id": np.array([r[1] for r in rows], dtype=np.int64),
        "worker_id": np.array([r[2] for r in rows], dtype=np.int64),
        "source": np.array([r[6] for r in rows], dtype=object),
        "country": np.array([r[7] for r in rows], dtype=object),
        "start_time": np.array([r[3] for r in rows], dtype=np.int64),
        "end_time": np.array([r[3] + r[4] for r in rows], dtype=np.int64),
        "trust": np.array(
            [np.nan if r[5] is None else r[5] for r in rows],
            dtype=np.float64,
        ),
        "response": np.array([f"resp-{i}" for i in ids], dtype=object),
    })


def _catalog_table(rows, ids) -> Table:
    return Table({
        "batch_id": np.array(ids, dtype=np.int64),
        "title": np.array([r[0] for r in rows], dtype=object),
        "created_at": np.array([r[1] for r in rows], dtype=np.int64),
        "sampled": np.array([r[2] for r in rows], dtype=bool),
    })


def _payload(catalog=None, instances=None, html=None) -> dict:
    payload = {"schema": WIRE_SCHEMA_VERSION, "config_key": _config_key()}
    if catalog is not None and catalog.num_rows:
        payload["catalog"] = encode_table(catalog)
    if instances is not None and instances.num_rows:
        payload["instances"] = encode_table(instances)
    if html:
        payload["html"] = {str(k): v for k, v in html.items()}
    return payload


def _partition(indices: list[int], cuts: list[int]) -> list[list[int]]:
    parts, last = [], 0
    for cut in sorted(set(cuts)):
        if last < cut < len(indices):
            parts.append(indices[last:cut])
            last = cut
    parts.append(indices[last:])
    return [part for part in parts if part]


def _stream_bytes(state: ServiceState) -> dict[str, bytes | None]:
    """Every streaming route's bytes; ``None`` where that layer is empty
    (e.g. no catalog ingested, or every trust value NaN) — the sentinel
    must then match on both sides of an equivalence check."""
    out: dict[str, bytes | None] = {}
    for name, read in (
        ("catalog", state.catalog_table),
        ("instances", state.instances_table),
        ("batch_rollup", state.rollup_table),
        ("trust_cdf", state.trust_cdf),
        ("duration_hist", state.duration_hist),
    ):
        try:
            out[name] = table_body(read())
        except IngestError:
            out[name] = None
    return out


# --------------------------------------------------------------------- #
# Fold laws at the service layer
# --------------------------------------------------------------------- #


class TestIngestLaws:
    @settings(max_examples=25, deadline=None)
    @given(
        inst_rows=_instance_rows,
        cat_rows=_catalog_rows,
        cuts=st.lists(
            st.integers(min_value=1, max_value=39), max_size=5
        ),
        order_seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_partition_and_order_invariance(
        self, inst_rows, cat_rows, cuts, order_seed
    ):
        # Reference: everything in one micro-batch.
        reference = ServiceState(CONFIG)
        all_instances = _instances_table(inst_rows, list(range(len(inst_rows))))
        all_catalog = _catalog_table(cat_rows, list(range(len(cat_rows))))
        html = {i: f"<html>{i}</html>" for i in range(len(cat_rows))}
        reference.ingest(
            _payload(catalog=all_catalog, instances=all_instances, html=html)
        )
        expect = _stream_bytes(reference)

        # Same rows, arbitrary partitioning, arbitrary arrival order;
        # rows inside each part arrive shuffled too.
        rng = np.random.default_rng(order_seed)
        shuffled = [int(i) for i in rng.permutation(len(inst_rows))]
        parts = _partition(shuffled, cuts)
        incremental = ServiceState(CONFIG)
        for part in rng.permutation(len(parts)):
            idx = parts[int(part)]
            rows = [inst_rows[i] for i in idx]
            incremental.ingest(
                _payload(instances=_instances_table(rows, idx))
            )
        cat_order = [int(i) for i in rng.permutation(len(cat_rows))]
        half = len(cat_order) // 2 or 1
        for idx in (cat_order[:half], cat_order[half:]):
            if not idx:
                continue
            rows = [cat_rows[i] for i in idx]
            incremental.ingest(
                _payload(
                    catalog=_catalog_table(rows, idx),
                    html={i: html[i] for i in idx},
                )
            )
        assert _stream_bytes(incremental) == expect

    @settings(max_examples=15, deadline=None)
    @given(inst_rows=_instance_rows)
    def test_rejected_payload_changes_nothing(self, inst_rows):
        state = ServiceState(CONFIG)
        ids = list(range(len(inst_rows)))
        state.ingest(_payload(instances=_instances_table(inst_rows, ids)))
        before = _stream_bytes(state)
        versions = state.versions()

        # Duplicate instance ids.
        with pytest.raises(IngestError):
            state.ingest(
                _payload(instances=_instances_table(inst_rows, ids))
            )
        # Wrong schema version.
        bad = _payload(instances=_instances_table(inst_rows, ids))
        bad["schema"] = WIRE_SCHEMA_VERSION + 1
        with pytest.raises(IngestError):
            state.ingest(bad)
        # Unknown key.
        with pytest.raises(IngestError):
            state.ingest({**_payload(), "surprise": 1})

        assert state.versions() == versions
        assert _stream_bytes(state) == before


# --------------------------------------------------------------------- #
# ETag iff bytes (HTTP layer)
# --------------------------------------------------------------------- #


def _serve_synthetic():
    app = ServiceApp(CONFIG)
    server = live.serve_background(app=app)
    return app, ServiceClient("127.0.0.1", server.port)


class TestETagContract:
    def test_etag_changes_iff_bytes_change(self):
        _, client = _serve_synthetic()
        rows = [(b, i, 1, 0, 60, 0.5, "own", "US")
                for b in range(3) for i in range(4)]
        first, second = rows[:8], rows[8:]
        client.ingest(_payload(
            instances=_instances_table(first, list(range(8)))
        ))
        status, headers, body = client.get("/tables/instances")
        assert status == 200
        etag = headers["etag"]

        # A re-read serves the identical bytes under the identical ETag.
        status, headers2, body2 = client.get("/tables/instances")
        assert (headers2["etag"], body2) == (etag, body)

        # An ingest into a *different* layer leaves this route untouched.
        client.ingest(_payload(
            catalog=_catalog_table([("t", 0, True)], [0])
        ))
        status, headers3, body3 = client.get("/tables/instances")
        assert (headers3["etag"], body3) == (etag, body)

        # An ingest into *this* layer changes both bytes and ETag.
        client.ingest(_payload(
            instances=_instances_table(second, list(range(8, len(rows))))
        ))
        status, headers4, body4 = client.get("/tables/instances")
        assert status == 200
        assert body4 != body
        assert headers4["etag"] != etag

    def test_stale_etag_gets_fresh_200_current_gets_304(self):
        _, client = _serve_synthetic()
        rows = [(0, i, 1, 0, 60, 0.5, "own", "US") for i in range(4)]
        client.ingest(_payload(
            instances=_instances_table(rows[:2], [0, 1])
        ))
        _, headers, _ = client.get("/tables/instances")
        stale = headers["etag"]

        status, headers, body = client.get("/tables/instances", etag=stale)
        assert status == 304 and body == b""

        client.ingest(_payload(
            instances=_instances_table(rows[2:], [2, 3])
        ))
        status, headers, body = client.get("/tables/instances", etag=stale)
        assert status == 200 and body
        assert headers["etag"] != stale
        status, _, empty = client.get(
            "/tables/instances", etag=headers["etag"]
        )
        assert status == 304 and empty == b""

    def test_invalidation_is_exact_per_layer(self):
        """Counted cache hits prove untouched routes never re-render."""
        _, client = _serve_synthetic()
        hits = obs.counter("serve.cache_hits")
        rows = [(0, i, 1, 0, 60, 0.5, "own", "US") for i in range(4)]
        client.ingest(_payload(
            catalog=_catalog_table([("t", 0, True)], [0]),
            instances=_instances_table(rows, list(range(4))),
        ))
        client.get("/tables/instances")  # render + cache
        client.ingest(_payload(
            catalog=_catalog_table([("u", 1, False)], [1])
        ))
        before = hits.value
        status, _, _ = client.get("/tables/instances")
        assert status == 200
        assert hits.value == before + 1  # served from cache, not re-rendered


class TestSingleFlight:
    READERS = 8

    def test_concurrent_misses_render_once(self, monkeypatch):
        import sys
        import threading
        import time

        from repro.service import app as app_mod

        app, client = _serve_synthetic()
        port = live.active_server().port
        rows = [(0, i, 1, 0, 60, 0.5, "own", "US") for i in range(8)]
        client.ingest(_payload(
            instances=_instances_table(rows[:4], [0, 1, 2, 3])
        ))
        client.get("/tables/instances")  # rendered and cached ...
        client.ingest(_payload(
            instances=_instances_table(rows[4:], [4, 5, 6, 7])
        ))  # ... and now stale

        renders = []
        real_table_body = app_mod.table_body

        def counted_table_body(table):
            renders.append(threading.get_ident())
            time.sleep(0.3)  # hold the render while the others miss
            return real_table_body(table)

        monkeypatch.setattr(app_mod, "table_body", counted_table_body)
        barrier = threading.Barrier(self.READERS, timeout=30)
        results: list = [None] * self.READERS

        def read(i):
            with ServiceClient("127.0.0.1", port) as reader:
                barrier.wait()
                results[i] = reader.get("/tables/instances")

        threads = [
            threading.Thread(target=read, args=(i,))
            for i in range(self.READERS)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)

        assert len(renders) == 1
        assert {status for status, _, _ in results} == {200}
        assert len({(h["etag"], body) for _, h, body in results}) == 1
        assert app._flights == {}  # the last waiter dropped the flight


# --------------------------------------------------------------------- #
# Wire codec round trips and rejections
# --------------------------------------------------------------------- #


def _b64(values, dtype) -> str:
    """Base64 of ``values`` as ``dtype`` bytes: hand-built wire data."""
    import base64

    return base64.b64encode(np.array(values, dtype=dtype).tobytes()).decode()


def _wire_round_trip(value):
    import json as json_mod

    from repro.service import codec

    return codec.decode_value(
        json_mod.loads(codec.dumps_canonical(codec.encode_value(value)))
    )


class TestWireCodec:
    def test_table_round_trips_every_legal_dtype(self):
        import json as json_mod

        from repro.service import codec

        table = Table({
            "i": np.array([1, -(2**62), 2**62], dtype=np.int64),
            "f": np.array([0.1, float("nan"), float("inf")]),
            "b": np.array([True, False, True]),
            "s": np.array(["a", "", "é"], dtype=object),
        }, copy=False)
        doc = json_mod.loads(codec.dumps_canonical(codec.encode_table(table)))
        back = codec.decode_table(doc)
        assert back.column_names == table.column_names
        for name in table.column_names:
            assert back[name].dtype == table[name].dtype
        assert table_body(back) == table_body(table)

    def test_figure_payload_round_trips_nested_values(self):
        payload = {
            "scalar": np.float64(0.25),
            "arr": np.arange(3, dtype=np.int64),
            "objarr": np.array(["x", "y"], dtype=object),
            "nested": [1, (2.5, None), {"k": True}],
            "table": Table({"a": np.array([1, 2], dtype=np.int64)}),
        }
        back = _wire_round_trip(payload)
        assert back["scalar"] == 0.25
        assert back["arr"].dtype == np.int64
        assert list(back["arr"]) == [0, 1, 2]
        assert back["objarr"].dtype == object
        assert list(back["objarr"]) == ["x", "y"]
        assert back["nested"] == [1, [2.5, None], {"k": True}]
        assert list(back["table"]["a"]) == [1, 2]

    def test_awkward_dict_keys_escape_and_restore(self):
        # Non-str keys and a key colliding with the marker both force the
        # escaped item-list form; decode must restore them exactly.
        for original in ({1: "a", 2: "b"}, {"__kind__": "x", "k": 1}):
            assert _wire_round_trip(original) == original

    def test_encode_rejects_non_wire_safe_values(self):
        from repro.service.codec import CodecError, encode_table, encode_value

        with pytest.raises(CodecError):
            encode_value(np.array([1, 2], dtype=np.int32))
        with pytest.raises(CodecError):  # N-D arrays are not reshaped
            encode_value(np.zeros((2, 2)))
        with pytest.raises(CodecError):
            encode_value({1, 2})
        from repro.service.codec import _encode_column

        with pytest.raises(CodecError):  # Table can't even hold these, so
            _encode_column("c", np.array([1 + 2j]))  # the guard is unit-level
        with pytest.raises(CodecError):
            encode_table(
                Table({"o": np.array([1, "x"], dtype=object)}, copy=False)
            )
        unhashable = np.empty(2, dtype=object)
        unhashable[:] = [["x"], "y"]
        with pytest.raises(CodecError):
            encode_table(Table({"o": unhashable}, copy=False))

    def test_decode_value_rejects_malformed_documents(self):
        from repro.service.codec import CodecError, decode_value

        with pytest.raises(CodecError):
            decode_value({"__kind__": "mystery"})
        with pytest.raises(CodecError):
            decode_value({"__kind__": "ndarray", "dtype": "int32",
                          "length": 1, "values": "AQAAAA=="})
        with pytest.raises(CodecError):  # length disagrees with the bytes
            decode_value({"__kind__": "ndarray", "dtype": "int64",
                          "length": 2, "values": _b64([1], "<i8")})
        with pytest.raises(CodecError):
            decode_value(object())

    @pytest.mark.parametrize("doc", [
        # Shape of the document and of each column entry.
        "not a dict",
        {"num_rows": 1},
        {"num_rows": 1, "columns": [["a", "int64"]]},
        {"num_rows": 1, "columns": [[3, "int64", _b64([1], "<i8")]]},
        {"num_rows": 1, "columns": [["a", "int64", _b64([1], "<i8")],
                                    ["a", "int64", _b64([2], "<i8")]]},
        # Unknown dtype tags.
        {"num_rows": 1, "columns": [["a", "int128", _b64([1], "<i8")]]},
        {"num_rows": 1, "columns": [["a", "int32", _b64([1], "<i4")]]},
        # num_rows itself.
        {"num_rows": -1, "columns": []},
        {"num_rows": 1.0, "columns": [["a", "int64", _b64([1], "<i8")]]},
        {"num_rows": True, "columns": [["a", "int64", _b64([1], "<i8")]]},
        {"num_rows": "1", "columns": [["a", "int64", _b64([1], "<i8")]]},
        # Numeric data: not base64 text, or the wrong byte length.
        {"num_rows": 1, "columns": [["a", "int64", [1]]]},
        {"num_rows": 1, "columns": [["a", "int64", "AQ@AAAAAAAA="]]},
        {"num_rows": 1, "columns": [["a", "int64", "AQAA\nAAAAAAA="]]},
        {"num_rows": 1, "columns": [["a", "int64", "AQAAAAAAAA"]]},
        {"num_rows": 2, "columns": [["a", "int64", _b64([1], "<i8")]]},
        {"num_rows": 1, "columns": [["a", "int64", _b64([1, 2], "<i8")]]},
        {"num_rows": 1, "columns": [["a", "float64", _b64([1], "<i4")]]},
        # Bool bytes other than 0/1.
        {"num_rows": 2, "columns": [["a", "bool", _b64([1, 2], "u1")]]},
        # String columns: layout, dictionary entries, codes.
        {"num_rows": 1, "columns": [["a", "object", ["x"]]]},
        {"num_rows": 1, "columns": [["a", "object",
                                     {"dictionary": ["x"]}]]},
        {"num_rows": 1, "columns": [["a", "object",
                                     {"dictionary": "x",
                                      "codes": _b64([0], "<i4")}]]},
        {"num_rows": 1, "columns": [["a", "object",
                                     {"dictionary": [7],
                                      "codes": _b64([0], "<i4")}]]},
        {"num_rows": 1, "columns": [["a", "object",
                                     {"dictionary": ["x"],
                                      "codes": _b64([1], "<i4")}]]},
        {"num_rows": 1, "columns": [["a", "object",
                                     {"dictionary": ["x"],
                                      "codes": _b64([-1], "<i4")}]]},
        {"num_rows": 1, "columns": [["a", "object",
                                     {"dictionary": [],
                                      "codes": _b64([0], "<i4")}]]},
        {"num_rows": 2, "columns": [["a", "object",
                                     {"dictionary": ["x"],
                                      "codes": _b64([0], "<i4")}]]},
        {"num_rows": 1, "columns": [["a", "object",
                                     {"dictionary": ["x"],
                                      "codes": "!!!!"}]]},
        # A repeated dictionary entry (the encoder never writes one).
        {"num_rows": 2, "columns": [["a", "object",
                                     {"dictionary": ["x", "x"],
                                      "codes": _b64([0, 1], "<i4")}]]},
    ])
    def test_decode_table_rejects_malformed_documents(self, doc):
        from repro.service.codec import CodecError, decode_table

        with pytest.raises(CodecError):
            decode_table(doc)

    def test_dict_column_encodes_like_its_object_array(self):
        from repro.service.codec import encode_table
        from repro.tables.column import DictColumn

        # Unused and out-of-order dictionary entries, as a filtered or
        # concatenated DictColumn carries them.
        column = DictColumn(
            np.array([2, 0, 2, 1], dtype=np.int32),
            np.array(["b", "a", "c", "unused"], dtype=object),
        )
        plain = column.materialize()
        dict_doc = encode_table(Table({"s": column}, copy=False))
        plain_doc = encode_table(Table({"s": plain}, copy=False))
        assert dict_doc["columns"][0][2]["dictionary"] == ["c", "b", "a"]
        assert table_body(Table({"s": column}, copy=False)) == table_body(
            Table({"s": plain}, copy=False)
        )
        assert dict_doc == plain_doc

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_tables_round_trip_bit_for_bit(self, data):
        import json as json_mod

        from repro.service import codec

        n = data.draw(st.integers(min_value=0, max_value=12), label="rows")
        edge_floats = st.sampled_from(
            [float("nan"), float("inf"), float("-inf"), -0.0, 0.0,
             5e-324, 1.7976931348623157e308]
        )
        table = Table({
            "i": np.array(data.draw(st.lists(
                st.one_of(st.integers(-(2**63), 2**63 - 1),
                          st.sampled_from([2**62, -(2**62)])),
                min_size=n, max_size=n)), dtype=np.int64),
            "f": np.array(data.draw(st.lists(
                st.one_of(st.floats(allow_nan=True), edge_floats),
                min_size=n, max_size=n)), dtype=np.float64),
            "b": np.array(data.draw(st.lists(
                st.booleans(), min_size=n, max_size=n)), dtype=bool),
            "s": np.array(data.draw(st.lists(
                st.text(max_size=6), min_size=n, max_size=n)), dtype=object),
        }, copy=False)
        body = codec.dumps_canonical(codec.encode_table(table))
        back = codec.decode_table(json_mod.loads(body))
        assert back.column_names == table.column_names
        assert back.num_rows == n
        for name in table.column_names:
            assert back[name].dtype == table[name].dtype
        # Bit-level equality, NaN payloads and the sign of zero included.
        assert back["i"].tobytes() == table["i"].tobytes()
        assert back["f"].tobytes() == table["f"].tobytes()
        assert back["b"].tobytes() == table["b"].tobytes()
        assert back["s"].tolist() == table["s"].tolist()
        assert table_body(back) == table_body(table) == body


# --------------------------------------------------------------------- #
# Response cache internals (one in-memory tier, bounded)
# --------------------------------------------------------------------- #


class TestResponseCache:
    def test_evicted_body_is_a_miss_and_reput_keeps_etag(self):
        from repro.service.respcache import ResponseCache

        evictions = obs.counter("serve.cache_evictions")
        misses = obs.counter("serve.cache_misses")
        cache = ResponseCache(max_bytes=150)
        body_a, body_b = b"a" * 100, b"b" * 100
        first = cache.put("/a", (1,), body_a, "text/plain")
        start_evictions = evictions.value
        cache.put("/b", (1,), body_b, "text/plain")
        assert evictions.value == start_evictions + 1  # /a left memory

        # Same deps: /a is still valid, but its body is gone, so a plain
        # read is a counted miss (never an error) and the caller
        # re-renders; a matching validator still needs no body.
        before = misses.value
        assert cache.get("/a", (1,)) is None
        assert misses.value == before + 1
        validated = cache.get("/a", (1,), if_none_match=first.etag)
        assert validated is not None and validated.body is None

        # The re-render is the same bytes, hence the same ETag.
        again = cache.put("/a", (1,), body_a, "text/plain")
        assert again.etag == first.etag
        entry = cache.get("/a", (1,))
        assert entry is not None and entry.body == body_a

    def test_oversized_body_never_resident_evicts_nothing(self):
        from repro.service.respcache import ResponseCache

        evictions = obs.counter("serve.cache_evictions")
        hits = obs.counter("serve.cache_hits")
        misses = obs.counter("serve.cache_misses")
        cache = ResponseCache(max_bytes=150)
        small = [
            cache.put(path, (1,), fill * 50, "text/plain")
            for path, fill in (("/a", b"a"), ("/b", b"b"))
        ]
        e0 = evictions.value
        big = cache.put("/c", (1,), b"c" * 200, "text/plain")
        assert big.body == b"c" * 200  # the render itself is served
        assert evictions.value == e0
        assert cache._body_bytes == 100
        assert set(cache._bodies) == {entry.etag for entry in small}

        # A conditional read is a hit answered from metadata alone ...
        h0 = hits.value
        entry = cache.get("/c", (1,), if_none_match=big.etag)
        assert entry is not None and entry.body is None
        assert entry.etag == big.etag
        assert hits.value == h0 + 1
        # ... and a plain one is a miss: the body was never resident.
        m0 = misses.value
        assert cache.get("/c", (1,)) is None
        assert misses.value == m0 + 1
        assert cache._body_bytes == 100
        assert evictions.value == e0

    def test_matching_validator_skips_the_body(self):
        from repro.service.respcache import ResponseCache

        hits = obs.counter("serve.cache_hits")
        cache = ResponseCache(max_bytes=150)
        # Over budget, so the body is nowhere: a 304 must not need it.
        stored = cache.put("/big", (1,), b"x" * 400, "text/plain")
        h0 = hits.value
        entry = cache.get("/big", (1,), if_none_match=stored.etag)
        assert entry is not None and entry.body is None
        assert entry.etag == stored.etag
        assert hits.value == h0 + 1
        # A stale validator needs the body: a miss, so the caller renders.
        assert cache.get("/big", (1,), if_none_match="0" * 64) is None
        # Stale dependencies are a miss whatever the validator says.
        assert cache.get("/big", (2,), if_none_match=stored.etag) is None

    def test_stale_deps_and_clear_invalidate(self):
        from repro.service.respcache import ResponseCache

        cache = ResponseCache()
        cache.put("/a", (1,), b"body", "text/plain")
        assert cache.get("/a", (2,)) is None  # version bumped -> stale
        assert cache.get("/a", (1,)) is not None
        assert cache.entries == 1
        cache.clear()
        assert cache.entries == 0
        assert cache.get("/a", (1,)) is None

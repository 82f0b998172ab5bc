"""Fault injection into the ingest path (``serve.ingest:fail|corrupt``).

Same discipline as the ``serve.request`` trio in ``test_live.py``, with
one more obligation: ingest is a *write*, so beyond surviving and
counting (``serve.ingest_failed``), a faulted request must leave every
served table **byte-identical** — the atomic accept-or-reject
contract of :meth:`repro.service.state.ServiceState.ingest`.

``corrupt`` physically truncates the uploaded body before parsing, so
what is exercised is the server's real decode/validate defenses, not a
synthetic error branch.
"""

from __future__ import annotations

import pytest

from repro import faults, obs
from repro.obs import live
from repro.service import ServiceApp, ServiceClient, split_study
from repro.service.client import ServiceError
from repro.study import build_study


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


@pytest.fixture(scope="module")
def tiny_study():
    return build_study("tiny", seed=7, cache=False)


@pytest.fixture
def served(tiny_study):
    app = ServiceApp(tiny_study.config)
    server = live.serve_background(app=app)
    client = ServiceClient("127.0.0.1", server.port)
    yield app, client
    server.stop()


def _table_reads(client):
    """(status, body) for every streaming route — the identity probe."""
    out = {}
    for name in ("catalog", "instances", "batch_rollup",
                 "trust_cdf", "duration_hist"):
        status, _, body = client.get(f"/tables/{name}")
        out[name] = (status, body)
    return out


class TestIngestFaults:
    def test_fail_500s_counts_and_state_is_untouched(
        self, served, tiny_study
    ):
        app, client = served
        failed = obs.counter("serve.ingest_failed")
        payloads = split_study(tiny_study, 3, seed=1)
        client.ingest(payloads[0])
        before_reads = _table_reads(client)
        before_status = client.status()
        before_failed = failed.value

        faults.configure("serve.ingest:fail@1")
        with pytest.raises(ServiceError) as err:
            client.ingest(payloads[1])
        assert err.value.status == 500
        assert "InjectedFault" in str(err.value.doc)
        assert failed.value == before_failed + 1
        # Rejected write: versions, counts, and served bytes all frozen.
        assert client.status() == before_status
        assert _table_reads(client) == before_reads

        # The fault fired exactly once; the retry lands and serves.
        client.ingest(payloads[1])
        assert client.status()["ingested_batches"] == 2

    def test_corrupt_400s_counts_and_state_is_untouched(
        self, served, tiny_study
    ):
        app, client = served
        failed = obs.counter("serve.ingest_failed")
        payloads = split_study(tiny_study, 3, seed=2)
        client.ingest(payloads[0])
        before_reads = _table_reads(client)
        before_status = client.status()
        before_failed = failed.value

        faults.configure("serve.ingest:corrupt@1")
        with pytest.raises(ServiceError) as err:
            client.ingest(payloads[1])
        assert err.value.status == 400
        assert failed.value == before_failed + 1
        assert client.status() == before_status
        assert _table_reads(client) == before_reads

        client.ingest(payloads[1])
        client.ingest(payloads[2])
        assert client.status()["instance_rows"] == (
            tiny_study.released.instances.num_rows
        )

    def test_schema_1_payload_400s_and_state_is_untouched(
        self, served, tiny_study
    ):
        from repro.service.codec import decode_table

        app, client = served
        payloads = split_study(tiny_study, 3, seed=3)
        client.ingest(payloads[0])
        before_reads = _table_reads(client)
        before_status = client.status()
        # The same micro-batch in the old per-value JSON list layout.
        legacy = {"schema": 1, "config_key": payloads[1]["config_key"]}
        for part in ("catalog", "instances"):
            if part in payloads[1]:
                table = decode_table(payloads[1][part])
                legacy[part] = {"num_rows": table.num_rows, "columns": [
                    [name, str(table[name].dtype), table[name].tolist()]
                    for name in table.column_names
                ]}
        with pytest.raises(ServiceError) as err:
            client.ingest(legacy)
        assert err.value.status == 400
        assert "unsupported wire schema" in str(err.value.doc)
        assert client.status() == before_status
        assert _table_reads(client) == before_reads

    @pytest.mark.parametrize("body", [
        b'{"schema": "\xc3\x28"}',  # invalid continuation byte
        b'{"schema": "\xed\xa0\x80"}',  # UTF-8-encoded lone surrogate
    ])
    def test_malformed_utf8_400s(self, served, body):
        _, client = served
        before_status = client.status()
        status, _, data = client.request(
            "POST", "/ingest", body=body,
            headers={"Content-Type": "application/json"},
        )
        assert status == 400
        assert b"UnicodeDecodeError" in data
        assert client.status() == before_status

    def test_every_ingest_faulted_still_never_kills_server(
        self, served, tiny_study
    ):
        app, client = served
        payload = split_study(tiny_study, 1, seed=0)[0]
        faults.configure("serve.ingest:fail")
        for _ in range(3):
            with pytest.raises(ServiceError) as err:
                client.ingest(payload)
            assert err.value.status == 500
        faults.configure(None)
        client.ingest(payload)
        status, _, _ = client.get("/tables/catalog")
        assert status == 200

    def test_recovery_after_faults_is_byte_identical(
        self, served, tiny_study
    ):
        """Faults mid-stream leave the final study equal to a clean one."""
        from repro.service.app import table_body

        app, client = served
        payloads = split_study(tiny_study, 3, seed=4)
        client.ingest(payloads[0])
        faults.configure("serve.ingest:corrupt@1")
        with pytest.raises(ServiceError):
            client.ingest(payloads[1])
        faults.configure("serve.ingest:fail@1")
        with pytest.raises(ServiceError):
            client.ingest(payloads[1])
        faults.configure(None)
        client.ingest(payloads[1])
        client.ingest(payloads[2])

        status, _, body = client.get("/tables/instances")
        assert status == 200
        assert body == table_body(tiny_study.released.instances)
        status, _, body = client.get("/tables/catalog")
        assert status == 200
        assert body == table_body(tiny_study.released.batch_catalog)

"""Differential harness: incremental service vs one-shot batch study.

The service's contract (see :mod:`repro.service`) mirrors the shard
layer's: for any number of micro-batches K, any assignment of rows to
micro-batches, and any arrival order, every byte the service serves —
released tables, instance aggregates, enriched tables, figures, fidelity
probes — must equal what a monolithic batch build produces.  These tests
ingest over a **real HTTP socket** (the production path through
``ThreadingHTTPServer`` → ``ServiceApp`` → ``ServiceState``) and compare
response bodies against bytes rendered locally from the batch study with
the very same pure functions the server uses, so any divergence is in the
incremental fold, not the formatter.

Pinned here: K ∈ {1, 3, 7} with shuffled row assignment *and* shuffled
arrival order, the full figure sweep at K=3, equivalence under a process
pool (``REPRO_WORKERS=2``), and ETag stability across distinct ingestion
histories that reach the same state.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import faults, obs
from repro.obs import live
from repro.service import ServiceApp, ServiceClient, split_study
from repro.service import state as svc_state
from repro.service.app import (
    ENRICHED_TABLES,
    STREAM_TABLES,
    fidelity_body,
    figure_body,
    figure_names,
    table_body,
)
from repro.stats.cdf import EmpiricalCDF
from repro.study import build_study


@pytest.fixture(autouse=True)
def _clean_slate(tmp_path, monkeypatch):
    """Cold per-test cache dir, no faults, no lingering server."""
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


@pytest.fixture(scope="module")
def tiny_figures(tiny_study):
    from repro.figures.suite import FigureSuite

    return FigureSuite(
        state=tiny_study.state,
        released=tiny_study.released,
        enriched=tiny_study.enriched,
    )


def _serve(study):
    app = ServiceApp(study.config)
    server = live.serve_background(app=app)
    return app, server, ServiceClient("127.0.0.1", server.port)


def _ingest_shuffled(client, study, k, *, seed):
    """Split into k payloads and deliver them in a shuffled order."""
    payloads = split_study(study, k, seed=seed)
    order = np.random.default_rng(seed + 1).permutation(k)
    for i in order:
        client.ingest(payloads[i])
    return payloads


def expected_stream_bodies(study) -> dict[str, bytes]:
    """What each streaming route must serve, rendered from the batch study."""
    instances = study.released.instances
    trust = np.asarray(instances["trust"])
    return {
        "catalog": table_body(study.released.batch_catalog),
        "instances": table_body(instances),
        "batch_rollup": table_body(svc_state.batch_rollup(instances)),
        "trust_cdf": table_body(
            svc_state.trust_cdf_table(EmpiricalCDF.from_sample(trust))
        ),
        "duration_hist": table_body(
            svc_state.duration_hist_table(
                svc_state.duration_histogram(instances)
            )
        ),
    }


def expected_enriched_bodies(study) -> dict[str, bytes]:
    return {
        name: table_body(getattr(study.enriched, name))
        for name in ENRICHED_TABLES
    }


# --------------------------------------------------------------------- #
# Byte identity across micro-batch counts and arrival orders
# --------------------------------------------------------------------- #


class TestByteIdentity:
    @pytest.mark.parametrize("k", [1, 3, 7])
    def test_tables_and_fidelity_byte_identical(
        self, tiny_study, tiny_figures, k
    ):
        _, _, client = _serve(tiny_study)
        _ingest_shuffled(client, tiny_study, k, seed=k)

        for name, expect in expected_stream_bodies(tiny_study).items():
            status, _, body = client.get(f"/tables/{name}")
            assert status == 200, name
            assert body == expect, f"/tables/{name} diverges at k={k}"
        for name, expect in expected_enriched_bodies(tiny_study).items():
            status, _, body = client.get(f"/tables/{name}")
            assert status == 200, name
            assert body == expect, f"/tables/{name} diverges at k={k}"
        status, _, body = client.get("/fidelity")
        assert status == 200
        assert body == fidelity_body(tiny_figures), f"/fidelity at k={k}"

    def test_full_figure_sweep_k3(self, tiny_study, tiny_figures):
        """Every figure entry point, served vs batch, byte for byte."""
        _, _, client = _serve(tiny_study)
        _ingest_shuffled(client, tiny_study, 3, seed=33)

        for name in figure_names():
            status, _, body = client.get(f"/figures/{name}")
            assert status == 200, name
            expect = figure_body(getattr(tiny_figures, name)())
            assert body == expect, f"/figures/{name} diverges"

    def test_equivalence_under_worker_pool(self, tiny_study, monkeypatch):
        """The snapshot's enrichment path may fan out; bytes must not move."""
        monkeypatch.setenv("REPRO_WORKERS", "2")
        _, _, client = _serve(tiny_study)
        _ingest_shuffled(client, tiny_study, 3, seed=5)

        expect = expected_enriched_bodies(tiny_study)
        for name in ENRICHED_TABLES:
            status, _, body = client.get(f"/tables/{name}")
            assert status == 200 and body == expect[name], name
        for name, want in expected_stream_bodies(tiny_study).items():
            status, _, body = client.get(f"/tables/{name}")
            assert status == 200 and body == want, name

    def test_same_state_same_etag_across_histories(self, tiny_study):
        """K=3 and K=7 histories converge to identical ETags per route."""
        etags = []
        for k in (3, 7):
            _, server, client = _serve(tiny_study)
            _ingest_shuffled(client, tiny_study, k, seed=11 * k)
            tags = {}
            for name in STREAM_TABLES:
                status, headers, _ = client.get(f"/tables/{name}")
                assert status == 200
                tags[name] = headers["etag"]
            server.stop()
            etags.append(tags)
        assert etags[0] == etags[1]


# --------------------------------------------------------------------- #
# Small scale (one pass, tables + fidelity)
# --------------------------------------------------------------------- #


class TestSmallScale:
    def test_small_k3_tables_and_fidelity(self):
        study = build_study("small", seed=7, cache=False)
        from repro.figures.suite import FigureSuite

        figures = FigureSuite(
            state=study.state,
            released=study.released,
            enriched=study.enriched,
        )
        _, _, client = _serve(study)
        _ingest_shuffled(client, study, 3, seed=3)

        for name, expect in expected_stream_bodies(study).items():
            status, _, body = client.get(f"/tables/{name}")
            assert status == 200 and body == expect, name
        for name, expect in expected_enriched_bodies(study).items():
            status, _, body = client.get(f"/tables/{name}")
            assert status == 200 and body == expect, name
        status, _, body = client.get("/fidelity")
        assert status == 200
        assert body == fidelity_body(figures)


# --------------------------------------------------------------------- #
# Protocol edges the harness relies on
# --------------------------------------------------------------------- #


class TestProtocol:
    def test_split_study_partitions_exactly(self, tiny_study):
        """The payloads partition every row and doc: no dupes, no drops."""
        from repro.service.codec import decode_table

        payloads = split_study(tiny_study, 7, seed=2)
        instance_ids: list[int] = []
        batch_ids: list[int] = []
        html_ids: list[int] = []
        for payload in payloads:
            if "instances" in payload:
                instances = decode_table(payload["instances"])
                instance_ids.extend(instances["instance_id"].tolist())
            if "catalog" in payload:
                catalog = decode_table(payload["catalog"])
                batch_ids.extend(catalog["batch_id"].tolist())
            if "html" in payload:
                html_ids.extend(int(i) for i in payload["html"])
        released = tiny_study.released
        assert sorted(instance_ids) == sorted(
            np.asarray(released.instances["instance_id"]).tolist()
        )
        assert sorted(batch_ids) == sorted(
            np.asarray(released.batch_catalog["batch_id"]).tolist()
        )
        assert sorted(html_ids) == sorted(released.batch_html)

    def test_reads_before_ingest_are_409(self, tiny_study):
        _, _, client = _serve(tiny_study)
        for name in list(STREAM_TABLES) + list(ENRICHED_TABLES):
            status, _, _ = client.get(f"/tables/{name}")
            assert status == 409, name
        assert client.get("/fidelity")[0] == 409

    def test_duplicate_micro_batch_rejected_without_state_change(
        self, tiny_study
    ):
        from repro.service.client import ServiceError

        _, _, client = _serve(tiny_study)
        payloads = split_study(tiny_study, 3, seed=9)
        client.ingest(payloads[0])
        status, headers, body = client.get("/tables/catalog")
        with pytest.raises(ServiceError) as err:
            client.ingest(payloads[0])
        assert err.value.status == 400
        status2, headers2, body2 = client.get("/tables/catalog")
        assert (status2, body2) == (200, body)
        assert headers2["etag"] == headers["etag"]

    def test_config_key_mismatch_rejected(self, tiny_study):
        from repro.service.client import ServiceError

        _, _, client = _serve(tiny_study)
        payload = split_study(tiny_study, 1, seed=0)[0]
        payload["config_key"] = "0" * 64
        with pytest.raises(ServiceError) as err:
            client.ingest(payload)
        assert err.value.status == 400
        assert "config_key" in str(err.value.doc)

    def test_serving_writes_nothing_under_the_cache_dir(
        self, tiny_study, tmp_path
    ):
        """Every route, read plain and conditionally, touches no disk."""
        from repro import cache

        root = cache.cache_dir()
        assert root.is_relative_to(tmp_path)  # the per-test private dir
        _, _, client = _serve(tiny_study)
        _ingest_shuffled(client, tiny_study, 1, seed=3)
        routes = (
            [f"/tables/{name}" for name in STREAM_TABLES]
            + [f"/tables/{name}" for name in ENRICHED_TABLES]
            + [f"/figures/{name}" for name in figure_names()]
            + ["/fidelity"]
        )
        for route in routes:
            status, headers, _ = client.get(route)
            assert status == 200, route
            status, _, _ = client.get(route, etag=headers["etag"])
            assert status == 304, route
        written = sorted(root.rglob("*")) if root.exists() else []
        assert written == []

    def test_status_reflects_ingest_progress(self, tiny_study):
        _, _, client = _serve(tiny_study)
        assert client.status()["ingested_batches"] == 0
        payloads = split_study(tiny_study, 3, seed=4)
        client.ingest_all(payloads)
        status = client.status()
        assert status["ingested_batches"] == 3
        assert status["instance_rows"] == (
            tiny_study.released.instances.num_rows
        )
        assert status["catalog_rows"] == (
            tiny_study.released.batch_catalog.num_rows
        )
        assert status["html_docs"] == len(tiny_study.released.batch_html)

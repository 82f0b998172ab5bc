"""Incremental snapshots: the enrichment parts memo, dirty batches,
single-flight builds and the incremental fold finalize.

:class:`~repro.service.state.ServiceState` rebuilds its enriched snapshot
from memoized per-batch parts: shingles, signatures, design rows and label
readings of documents it has already seen, and the metrics rows of batches
no ingest touched since the last build.  The contract is the same as the
batch pipeline's: every intermediate snapshot must equal
:func:`~repro.enrichment.pipeline.enrich_dataset` over exactly the rows
ingested so far — ``batch_table``, ``cluster_table``, ``labels`` and
``cluster_of_batch`` — under any interleaving of ingests and reads.

The differential corpus is a slice of the tiny study (real HTML, so the
clustering and labeling are exercised for real): the full catalog, a
subset of the documents and the instance rows of those batches.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import cache as study_cache
from repro import faults, obs
from repro.dataset.release import ReleasedDataset
from repro.enrichment.pipeline import enrich_dataset
from repro.obs import live
from repro.service import ServiceApp, ServiceClient
from repro.service.app import table_body
from repro.service.codec import WIRE_SCHEMA_VERSION, encode_table
from repro.service.state import IngestError, ServiceState
from repro.shard.merge import IncrementalTableFold
from repro.study import build_study
from repro.tables import Table

#: Documents in the differential corpus (of the tiny study's 773).
CORPUS_DOCS = 150


@pytest.fixture(autouse=True)
def _clean_slate(tmp_path, monkeypatch):
    monkeypatch.setenv(study_cache.CACHE_DIR_ENV, str(tmp_path / "cache"))
    faults.configure(None)
    yield
    obs.finish()
    faults.configure(None)
    server = live.active_server()
    if server is not None:
        server.stop()


@pytest.fixture(scope="module")
def corpus():
    study = build_study("tiny", seed=7, cache=False)
    released = study.released
    html_ids = sorted(released.batch_html)[:CORPUS_DOCS]
    instances = released.instances
    rows = np.flatnonzero(np.isin(instances["batch_id"], html_ids))
    return study.config, ReleasedDataset(
        batch_catalog=_take(released.batch_catalog, np.arange(
            released.batch_catalog.num_rows
        )),
        batch_html={b: released.batch_html[b] for b in html_ids},
        instances=_take(instances, rows),
    )


def _take(table: Table, idx: np.ndarray) -> Table:
    return Table(
        {name: np.asarray(table[name])[idx] for name in table.column_names},
        copy=False,
    )


def _sorted(table: Table, key: str) -> Table:
    return _take(table, np.argsort(np.asarray(table[key]), kind="stable"))


class Parts:
    """Row selections of the corpus: catalog rows, instance rows, docs."""

    def __init__(self, catalog=(), instances=(), html=()):
        self.catalog = np.asarray(catalog, dtype=np.int64)
        self.instances = np.asarray(instances, dtype=np.int64)
        self.html = [int(b) for b in html]

    def payload(self, config, released: ReleasedDataset) -> dict:
        payload = {
            "schema": WIRE_SCHEMA_VERSION,
            "config_key": study_cache.study_key(config),
        }
        if self.catalog.size:
            payload["catalog"] = encode_table(
                _take(released.batch_catalog, self.catalog)
            )
        if self.instances.size:
            payload["instances"] = encode_table(
                _take(released.instances, self.instances)
            )
        if self.html:
            payload["html"] = {
                str(b): released.batch_html[b] for b in self.html
            }
        return payload


def _reference(released: ReleasedDataset, seen: list[Parts]):
    """The one-shot study over the rows of ``seen`` (None: not ready)."""
    catalog = np.concatenate([p.catalog for p in seen])
    instances = np.concatenate([p.instances for p in seen])
    html = [b for p in seen for b in p.html]
    if not (catalog.size and instances.size and html):
        return None
    return ReleasedDataset(
        batch_catalog=_sorted(
            _take(released.batch_catalog, catalog), "batch_id"
        ),
        batch_html={b: released.batch_html[b] for b in html},
        instances=_sorted(
            _take(released.instances, instances), "instance_id"
        ),
    )


def _enriched_bytes(enriched) -> dict:
    return {
        "batch_table": table_body(enriched.batch_table),
        "cluster_table": table_body(enriched.cluster_table),
        "labels": table_body(enriched.labels),
        "cluster_of_batch": enriched.cluster_of_batch,
    }


def _assert_snapshot_matches(state, config, released, seen) -> None:
    """The state's snapshot equals the one-shot study over ``seen`` — or
    both fail the same way."""
    reference = _reference(released, seen)
    if reference is None:
        with pytest.raises(IngestError):
            state.snapshot()
        return
    try:
        expected = _enriched_bytes(enrich_dataset(reference, config))
    except Exception as exc:  # e.g. instances past the catalog's last id
        with pytest.raises(type(exc)):
            state.snapshot()
        return
    assert _enriched_bytes(state.snapshot().enriched) == expected


def _replay(config, released, history, reads) -> ServiceState:
    """Ingest ``history`` in order, checking a snapshot after each part
    flagged in ``reads`` and after the last."""
    state = ServiceState(config)
    seen: list[Parts] = []
    for i, parts in enumerate(history):
        state.ingest(parts.payload(config, released))
        seen.append(parts)
        if reads[i] or i == len(history) - 1:
            _assert_snapshot_matches(state, config, released, seen)
    return state


def _deal(n: int, k: int, rng: np.random.Generator) -> list[np.ndarray]:
    """``n`` row indices shuffled and assigned independently to k parts."""
    owner = rng.integers(0, k, size=n)
    order = rng.permutation(n)
    return [order[owner[order] == i] for i in range(k)]


# --------------------------------------------------------------------- #
# Differential: intermediate snapshots == the one-shot study
# --------------------------------------------------------------------- #


class TestIntermediateSnapshots:
    @settings(max_examples=12, deadline=None)
    @given(
        k=st.integers(min_value=2, max_value=5),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        reads=st.lists(st.booleans(), min_size=5, max_size=5),
    )
    def test_any_interleaving_matches_batch(self, corpus, k, seed, reads):
        # Catalog rows, instance rows and documents are dealt to the k
        # payloads independently, so a batch's instances spread over
        # payloads and its catalog row or document may come before or
        # after them.
        config, released = corpus
        rng = np.random.default_rng(seed)
        html_ids = sorted(released.batch_html)
        catalog = _deal(released.batch_catalog.num_rows, k, rng)
        instances = _deal(released.instances.num_rows, k, rng)
        html = _deal(len(html_ids), k, rng)
        history = [
            Parts(catalog[i], instances[i], [html_ids[j] for j in html[i]])
            for i in range(k)
        ]
        _replay(config, released, history, reads)

    def test_instances_of_one_batch_split_across_payloads(self, corpus):
        config, released = corpus
        batch_of = np.asarray(released.instances["batch_id"])
        target = int(batch_of[0])
        rows = np.flatnonzero(batch_of == target)
        rest = np.flatnonzero(batch_of != target)
        half = len(rows) // 2
        assert half >= 1
        everything = Parts(
            np.arange(released.batch_catalog.num_rows), rest,
            released.batch_html,
        )
        history = [everything, Parts(instances=rows[:half]),
                   Parts(instances=rows[half:])]
        _replay(config, released, history, [True, True, True])

    def test_catalog_rows_after_their_instances(self, corpus):
        # Until its catalog row arrives a batch's pickup times are
        # measured from 0, as in the one-shot study over the same rows;
        # the late row must dirty the batch so its metrics are redone.
        config, released = corpus
        catalog_ids = np.asarray(released.batch_catalog["batch_id"])
        late_batches = sorted(released.batch_html)[1:40:3]
        late = np.flatnonzero(np.isin(catalog_ids, late_batches))
        early = np.flatnonzero(~np.isin(catalog_ids, late_batches))
        history = [
            Parts(early, np.arange(released.instances.num_rows),
                  released.batch_html),
            Parts(catalog=late),
        ]
        _replay(config, released, history, [True, True])

    def test_html_after_its_batch_instances(self, corpus):
        config, released = corpus
        html_ids = sorted(released.batch_html)
        late = html_ids[5:60:4]
        history = [
            Parts(np.arange(released.batch_catalog.num_rows),
                  np.arange(released.instances.num_rows),
                  [b for b in html_ids if b not in late]),
            Parts(html=late),
        ]
        _replay(config, released, history, [True, True])

    def test_new_low_batch_id_renumbers_clusters(self, corpus):
        # Cluster ids are dense by first appearance in batch order, so a
        # document with the lowest batch id shifts every other cluster's
        # number (and the labels drawn for it) — the memoized parts must
        # not pin the old numbering.
        config, released = corpus
        html_ids = sorted(released.batch_html)
        full = enrich_dataset(released, config).cluster_of_batch
        # The batch that opens cluster 1: withheld, its cluster is numbered
        # later (or vanishes) and every cluster in between shifts.
        low = min(b for b, c in full.items() if c == 1)
        batch_of = np.asarray(released.instances["batch_id"])
        catalog_ids = np.asarray(released.batch_catalog["batch_id"])
        history = [
            Parts(np.flatnonzero(catalog_ids != low),
                  np.flatnonzero(batch_of != low),
                  [b for b in html_ids if b != low]),
            Parts(np.flatnonzero(catalog_ids == low),
                  np.flatnonzero(batch_of == low), [low]),
        ]
        state = ServiceState(config)
        state.ingest(history[0].payload(config, released))
        before = state.snapshot().enriched.cluster_of_batch
        state.ingest(history[1].payload(config, released))
        _assert_snapshot_matches(state, config, released, history)
        after = state.snapshot().enriched.cluster_of_batch
        assert after == full and after[low] == 1
        assert any(after[b] != before[b] for b in before)

    def test_failed_build_keeps_dirty_batches(self, corpus):
        # Instances past the catalog's last batch id make the one-shot
        # metrics fail; the service fails the same way, and once the
        # catalog catches up the next snapshot is exact — the failed build
        # consumed neither the dirty batches nor the parts memo.
        config, released = corpus
        catalog_ids = np.asarray(released.batch_catalog["batch_id"])
        top = int(max(released.batch_html))
        history = [
            Parts(np.flatnonzero(catalog_ids < top),
                  np.arange(released.instances.num_rows),
                  released.batch_html),
            Parts(np.flatnonzero(catalog_ids >= top)),
        ]
        state = ServiceState(config)
        state.ingest(history[0].payload(config, released))
        with pytest.raises(IndexError):
            state.snapshot()
        state.ingest(history[1].payload(config, released))
        _assert_snapshot_matches(state, config, released, history)


# --------------------------------------------------------------------- #
# O(delta): what a snapshot after a delta recomputes
# --------------------------------------------------------------------- #


class TestDeltaCost:
    def test_snapshot_shingles_only_new_documents(self, corpus):
        config, released = corpus
        html_ids = sorted(released.batch_html)
        delta = html_ids[10:100:9]
        batch_of = np.asarray(released.instances["batch_id"])
        in_delta = np.isin(batch_of, delta)
        history = [
            Parts(np.arange(released.batch_catalog.num_rows),
                  np.flatnonzero(~in_delta),
                  [b for b in html_ids if b not in delta]),
            Parts(instances=np.flatnonzero(in_delta), html=delta),
        ]
        shingled = obs.counter("cluster.shingle_docs")
        builds = obs.counter("serve.snapshot_builds")
        state = ServiceState(config)
        state.ingest(history[0].payload(config, released))
        c0 = shingled.value
        state.snapshot()
        assert shingled.value - c0 == len(html_ids) - len(delta)

        state.ingest(history[1].payload(config, released))
        c0, b0 = shingled.value, builds.value
        state.snapshot()
        assert shingled.value - c0 == len(delta)
        assert builds.value - b0 == 1
        _assert_snapshot_matches(state, config, released, history)

        # Reading the same version again rebuilds nothing at all.
        c0, b0 = shingled.value, builds.value
        state.snapshot()
        assert (shingled.value - c0, builds.value - b0) == (0, 0)


# --------------------------------------------------------------------- #
# Single-flight builds
# --------------------------------------------------------------------- #

READERS = 8


class TestSingleFlight:
    def test_concurrent_fresh_reads_build_once(self, corpus):
        config, released = corpus
        everything = Parts(
            np.arange(released.batch_catalog.num_rows),
            np.arange(released.instances.num_rows),
            released.batch_html,
        )
        app = ServiceApp(config)
        server = live.serve_background(app=app)
        ServiceClient("127.0.0.1", server.port).ingest(
            everything.payload(config, released)
        )
        routes = ["/figures/fig06_cluster_sizes", "/tables/cluster_table"]
        builds = obs.counter("serve.snapshot_builds")
        b0 = builds.value
        barrier = threading.Barrier(READERS)
        bodies: list[tuple[str, int, bytes]] = []
        lock = threading.Lock()

        def read(i: int) -> None:
            route = routes[i % len(routes)]
            with ServiceClient("127.0.0.1", server.port, timeout=60) as c:
                barrier.wait()
                status, _, body = c.get(route)
            with lock:
                bodies.append((route, status, body))

        threads = [
            threading.Thread(target=read, args=(i,)) for i in range(READERS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(120)
        assert len(bodies) == READERS
        assert builds.value - b0 == 1
        for route in routes:
            served = {(s, b) for r, s, b in bodies if r == route}
            assert len(served) == 1
            status, body = served.pop()
            assert status == 200 and body

    def test_reads_racing_ingests_end_exact(self, corpus):
        # Readers rebuild while a writer keeps ingesting deltas, with a
        # short switch interval to force interleavings.  A lost dirty
        # batch or a build consuming another build's deltas would show as
        # a final snapshot that differs from the one-shot study.
        import sys

        config, released = corpus
        html_ids = sorted(released.batch_html)
        batch_of = np.asarray(released.instances["batch_id"])
        deltas = [html_ids[i::6] for i in range(1, 6)]
        base = [b for b in html_ids if not any(b in d for d in deltas)]
        history = [Parts(
            np.arange(released.batch_catalog.num_rows),
            np.flatnonzero(np.isin(batch_of, base)), base,
        )] + [
            Parts(instances=np.flatnonzero(np.isin(batch_of, d)), html=d)
            for d in deltas
        ]
        state = ServiceState(config)
        state.ingest(history[0].payload(config, released))
        payloads = [p.payload(config, released) for p in history[1:]]
        done = threading.Event()
        errors: list[BaseException] = []

        def write() -> None:
            try:
                for payload in payloads:
                    state.ingest(payload)
            finally:
                done.set()

        def read() -> None:
            try:
                while not done.is_set():
                    state.snapshot()
            except BaseException as exc:  # surfaced below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=write)] + [
                threading.Thread(target=read) for _ in range(READERS)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        _assert_snapshot_matches(state, config, released, history)

    def test_ingest_does_not_wait_behind_a_build(self, corpus, monkeypatch):
        config, released = corpus
        html_ids = sorted(released.batch_html)
        state = ServiceState(config)
        state.ingest(Parts(
            np.arange(released.batch_catalog.num_rows),
            np.arange(released.instances.num_rows), html_ids[:-1],
        ).payload(config, released))
        started, release = threading.Event(), threading.Event()
        real_enrich = state._parts.enrich

        def slow_enrich(*args, **kwargs):
            started.set()
            assert release.wait(30)
            return real_enrich(*args, **kwargs)

        monkeypatch.setattr(state._parts, "enrich", slow_enrich)
        reader = threading.Thread(target=state.snapshot)
        reader.start()
        try:
            assert started.wait(30)
            # The build holds the build lock; ingest must still go through.
            state.ingest(Parts(html=html_ids[-1:]).payload(config, released))
        finally:
            release.set()
            reader.join(60)
        assert state.versions()["html"] == 2
        monkeypatch.undo()
        # The build that raced the ingest is stale: the next read rebuilds
        # at the new version, exactly.
        _assert_snapshot_matches(state, config, released, [Parts(
            np.arange(released.batch_catalog.num_rows),
            np.arange(released.instances.num_rows), html_ids,
        )])


    def test_ingest_does_not_wait_behind_a_rollup_render(
        self, corpus, monkeypatch
    ):
        from repro.service import state as state_mod

        config, released = corpus
        n = released.instances.num_rows
        first, rest = np.arange(n // 2), np.arange(n // 2, n)
        app = ServiceApp(config)
        server = live.serve_background(app=app)
        client = ServiceClient("127.0.0.1", server.port, timeout=60)
        client.ingest(Parts(instances=first).payload(config, released))
        started, release = threading.Event(), threading.Event()
        real_rollup = state_mod.batch_rollup

        def blocked_rollup(instances):
            started.set()
            assert release.wait(30)
            return real_rollup(instances)

        monkeypatch.setattr(state_mod, "batch_rollup", blocked_rollup)
        served: list = []
        reader = threading.Thread(
            target=lambda: served.append(client.get("/tables/batch_rollup"))
        )
        reader.start()
        try:
            assert started.wait(30)
            # The render is parked inside batch_rollup; the state lock
            # must be free for an ingest.
            writer = threading.Thread(target=app.state.ingest, args=(
                Parts(instances=rest).payload(config, released),
            ))
            writer.start()
            writer.join(30)
            assert not writer.is_alive()
        finally:
            release.set()
            reader.join(60)
        assert app.state.versions()["instances"] == 2
        # The render answers for the rows it read: the first payload's.
        status, _, body = served[0]
        assert status == 200
        assert body == table_body(real_rollup(
            _sorted(_take(released.instances, first), "instance_id")
        ))
        monkeypatch.undo()
        status, _, body = client.get("/tables/batch_rollup")
        assert status == 200
        assert body == table_body(real_rollup(released.instances))


# --------------------------------------------------------------------- #
# Incremental fold finalize
# --------------------------------------------------------------------- #


class TestIncrementalFinalize:
    @settings(max_examples=60, deadline=None)
    @given(
        keys=st.lists(
            st.integers(min_value=0, max_value=30), min_size=1, max_size=60
        ),
        cuts=st.lists(st.integers(min_value=0, max_value=60), max_size=6),
        finalize_at=st.lists(st.booleans(), min_size=7, max_size=7),
    )
    def test_equals_stable_sort_of_all_segments(self, keys, cuts, finalize_at):
        # Duplicate keys are allowed here so the tie order (arrival order)
        # is pinned too.
        n = len(keys)
        table = Table({
            "k": np.array(keys, dtype=np.int64),
            "row": np.arange(n, dtype=np.int64),
            "tag": np.array([f"r{i}" for i in range(n)], dtype=object),
        })
        bounds = [0, *sorted(c for c in set(cuts) if 0 < c < n), n]
        fold = IncrementalTableFold("k")
        earlier = []
        for i, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
            fold.fold(_take(table, np.arange(lo, hi)))
            if finalize_at[i]:
                earlier.append((fold.finalize(), hi))
        final = fold.finalize()
        order = np.argsort(table["k"], kind="stable")
        assert final == _take(table, order)
        assert fold.num_rows == n
        # A table finalized earlier is a snapshot: later folds leave it be.
        for snapshot, upto in earlier:
            prefix = np.arange(upto)
            expected = prefix[np.argsort(table["k"][prefix], kind="stable")]
            assert snapshot == _take(table, expected)

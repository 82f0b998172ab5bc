"""Differential equivalence: the sharded pipeline vs the monolithic one.

The contract of :mod:`repro.shard` is *byte identity*: for any shard count
K, building the study over K batch-partitioned shards and merging must
produce exactly the bytes the monolithic simulate → release → enrich
pipeline produces — same tables (dtype and byte level), same HTML, same
clustering, same figures data, same fidelity probes.  These tests are the
proof the rest of the repo relies on; everything here compares with
``tobytes()``, never ``allclose``.

Also pinned here: the partition key (``batch_id % K``) — the simulator
keeps an inline copy to avoid an import cycle, and this suite is what
keeps the two in sync — plus equivalence under a process pool
(``REPRO_WORKERS=2``) and under every ``shard.*`` fault class.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import build_study, faults, obs
from repro.shard import (
    build_released_enriched,
    build_shard_partial,
    load_partial,
    shard_of_batches,
    store_partial,
)
from repro.simulator.config import SimulationConfig
from repro.tables import Table


# --------------------------------------------------------------------- #
# Strict comparison helpers (Table.__eq__ uses allclose; we must not)
# --------------------------------------------------------------------- #


def assert_tables_byte_identical(a, b, *, label=""):
    assert a.column_names == b.column_names, label
    for name in a.column_names:
        ca, cb = np.asarray(a[name]), np.asarray(b[name])
        assert ca.dtype == cb.dtype, f"{label}.{name}: dtype"
        assert ca.shape == cb.shape, f"{label}.{name}: shape"
        if ca.dtype == object:
            assert ca.tolist() == cb.tolist(), f"{label}.{name}: values"
        else:
            assert ca.tobytes() == cb.tobytes(), f"{label}.{name}: bytes"


def assert_figure_data_identical(a, b, *, label=""):
    """Strict equality over nested figure payloads (dicts/arrays/scalars)."""
    assert type(a) is type(b), label
    if isinstance(a, dict):
        assert a.keys() == b.keys(), label
        for key in a:
            assert_figure_data_identical(a[key], b[key], label=f"{label}.{key}")
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b), label
        for i, (xa, xb) in enumerate(zip(a, b)):
            assert_figure_data_identical(xa, xb, label=f"{label}[{i}]")
    elif isinstance(a, np.ndarray):
        assert a.dtype == b.dtype and a.shape == b.shape, label
        if a.dtype == object:
            assert a.tolist() == b.tolist(), label
        else:
            assert a.tobytes() == b.tobytes(), label
    else:
        assert a == b, label


def assert_studies_byte_identical(sharded, mono):
    assert_tables_byte_identical(
        sharded.released.batch_catalog,
        mono.released.batch_catalog,
        label="batch_catalog",
    )
    assert sharded.released.batch_html == mono.released.batch_html
    assert_tables_byte_identical(
        sharded.released.instances, mono.released.instances,
        label="instances",
    )
    assert sharded.enriched.cluster_of_batch == mono.enriched.cluster_of_batch
    assert_tables_byte_identical(
        sharded.enriched.batch_table, mono.enriched.batch_table,
        label="batch_table",
    )
    assert_tables_byte_identical(
        sharded.enriched.cluster_table, mono.enriched.cluster_table,
        label="cluster_table",
    )
    assert_tables_byte_identical(
        sharded.enriched.labels, mono.enriched.labels, label="labels"
    )


@pytest.fixture(autouse=True)
def _isolated_shard_store(tmp_path, monkeypatch):
    """Per-test cache dir: every build is cold, no cross-test spill reuse."""
    from repro import cache

    monkeypatch.setenv(cache.CACHE_DIR_ENV, str(tmp_path / "cache"))
    faults.configure(None)
    yield
    faults.configure(None)


@pytest.fixture(scope="module")
def tiny_config():
    return SimulationConfig.preset("tiny", seed=7)


@pytest.fixture(scope="module")
def tiny_mono():
    """Monolithic tiny reference, built outside any cache."""
    return build_study("tiny", seed=7, cache=False)


# --------------------------------------------------------------------- #
# Byte identity across shard counts and scales
# --------------------------------------------------------------------- #


class TestStudyEquivalence:
    @pytest.mark.parametrize("num_shards", [1, 2, 5])
    def test_tiny_byte_identical(self, tiny_mono, num_shards):
        if num_shards == 1:
            # build_study(shards=1) takes the monolithic path by design;
            # exercise the shard executor's K=1 case directly instead.
            config = SimulationConfig.preset("tiny", seed=7)
            released, enriched = build_released_enriched(config, 1)

            class _Pair:
                pass

            sharded = _Pair()
            sharded.released, sharded.enriched = released, enriched
        else:
            sharded = build_study(
                "tiny", seed=7, cache=False, shards=num_shards
            )
        assert_studies_byte_identical(sharded, tiny_mono)

    @pytest.mark.parametrize("num_shards", [2, 5])
    def test_small_byte_identical(self, num_shards):
        mono = build_study("small", seed=11, cache=False)
        sharded = build_study(
            "small", seed=11, cache=False, shards=num_shards
        )
        assert_studies_byte_identical(sharded, mono)

    def test_figures_and_fidelity_identical(self, tiny_mono):
        from repro.obs.ledger import fidelity_probes

        sharded = build_study("tiny", seed=7, cache=False, shards=3)
        for method in ("fig03_weekday", "fig13_latency", "tables_123"):
            assert_figure_data_identical(
                getattr(sharded.figures, method)(),
                getattr(tiny_mono.figures, method)(),
                label=method,
            )
        assert fidelity_probes(sharded.figures) == fidelity_probes(
            tiny_mono.figures
        )

    def test_parallel_workers_byte_identical(self, tiny_mono, monkeypatch):
        from repro import parallel

        monkeypatch.setenv(parallel.WORKERS_ENV, "2")
        sharded = build_study("tiny", seed=7, cache=False, shards=3)
        assert_studies_byte_identical(sharded, tiny_mono)

    def test_study_cache_round_trip_byte_identical(self, tiny_mono):
        # A sharded build populates the same study cache entry a monolithic
        # build would; the warm load must be byte-identical to both.
        cold = build_study("tiny", seed=7, cache=True, shards=2)
        warm = build_study("tiny", seed=7, cache=True)
        assert obs.counter("cache.hit").value > 0
        assert_studies_byte_identical(cold, tiny_mono)
        assert_studies_byte_identical(warm, tiny_mono)


# --------------------------------------------------------------------- #
# The partition key: engine's inline copy vs repro.shard.partition
# --------------------------------------------------------------------- #


class TestPartition:
    def test_engine_partition_matches_shard_of_batches(self, tiny_config):
        num_shards = 3
        partials = [
            build_shard_partial(tiny_config, num_shards, shard)
            for shard in range(num_shards)
        ]
        for shard, partial in enumerate(partials):
            batch_ids = np.unique(np.asarray(partial.instances["batch_id"]))
            owners = shard_of_batches(batch_ids, num_shards)
            assert (owners == shard).all()
            html_ids = np.array(sorted(partial.batch_html), dtype=np.int64)
            assert (shard_of_batches(html_ids, num_shards) == shard).all()
        # Shards partition the sampled batches: disjoint and exhaustive.
        all_html = sorted(
            b for p in partials for b in p.batch_html
        )
        assert len(all_html) == len(set(all_html))

    def test_only_shard_zero_carries_catalog(self, tiny_config):
        for shard in range(2):
            partial = build_shard_partial(tiny_config, 2, shard)
            assert (partial.catalog is not None) == (shard == 0)

    def test_shard_union_reconstructs_monolithic_release(
        self, tiny_config, tiny_mono
    ):
        # The instance_id column is a *global* log id: each shard's slice is
        # internally ordered by it, ids are disjoint across shards, and the
        # concat + stable sort reconstructs the monolithic released table
        # byte for byte — the invariant merge_partials relies on.
        from repro.tables import concat_tables

        num_shards = 4
        partials = [
            build_shard_partial(tiny_config, num_shards, shard)
            for shard in range(num_shards)
        ]
        for partial in partials:
            ids = np.asarray(partial.instances["instance_id"])
            assert (np.diff(ids) > 0).all()
        union = concat_tables([p.instances for p in partials])
        union = union.take(
            np.argsort(union["instance_id"], kind="stable")
        )
        ids = np.asarray(union["instance_id"])
        assert len(np.unique(ids)) == len(ids)
        assert_tables_byte_identical(
            union, tiny_mono.released.instances, label="union"
        )


class TestResolveShards:
    def test_explicit_overrides_env(self, monkeypatch):
        from repro.shard.partition import SHARDS_ENV, resolve_shards

        monkeypatch.setenv(SHARDS_ENV, "7")
        assert resolve_shards(3) == 3

    def test_env_value(self, monkeypatch):
        from repro.shard.partition import SHARDS_ENV, resolve_shards

        monkeypatch.setenv(SHARDS_ENV, "4")
        assert resolve_shards(None) == 4

    def test_defaults_to_monolithic(self, monkeypatch):
        from repro.shard.partition import SHARDS_ENV, resolve_shards

        monkeypatch.delenv(SHARDS_ENV, raising=False)
        assert resolve_shards() == 1

    def test_invalid_explicit_raises(self):
        from repro.shard.partition import resolve_shards

        with pytest.raises(ValueError, match="shards must be"):
            resolve_shards(0)

    @pytest.mark.parametrize("raw", ["banana", "0", "-2"])
    def test_garbage_env_degrades_loudly(self, monkeypatch, raw):
        from repro.shard.partition import SHARDS_ENV, resolve_shards

        monkeypatch.setenv(SHARDS_ENV, raw)
        before = obs.counter("shard.misconfigured").value
        with pytest.warns(RuntimeWarning, match="not a positive integer"):
            assert resolve_shards(None) == 1
        assert obs.counter("shard.misconfigured").value == before + 1

    def test_shard_of_batches_rejects_bad_count(self):
        with pytest.raises(ValueError, match="num_shards"):
            shard_of_batches(np.arange(4), 0)


# --------------------------------------------------------------------- #
# Spill store round-trip
# --------------------------------------------------------------------- #


class TestSpillStore:
    def test_round_trip_byte_identical(self, tiny_config):
        partial = build_shard_partial(tiny_config, 2, 0)
        assert store_partial(tiny_config, partial) is not None
        loaded = load_partial(tiny_config, 2, 0)
        assert loaded is not None
        assert_tables_byte_identical(
            loaded.instances, partial.instances, label="instances"
        )
        assert_tables_byte_identical(
            loaded.design, partial.design, label="design"
        )
        assert_tables_byte_identical(
            loaded.metrics, partial.metrics, label="metrics"
        )
        assert_tables_byte_identical(
            loaded.catalog, partial.catalog, label="catalog"
        )
        assert loaded.batch_html == partial.batch_html
        assert np.array_equal(loaded.shingle_ids, partial.shingle_ids)
        assert len(loaded.shingle_arrays) == len(partial.shingle_arrays)
        for a, b in zip(loaded.shingle_arrays, partial.shingle_arrays):
            assert np.array_equal(a, b)

    def test_missing_entry_is_a_miss(self, tiny_config):
        assert load_partial(tiny_config, 2, 1) is None

    def test_lean_view_only_after_checksums_verify(
        self, tiny_config
    ):
        # A lean load never reads the instance archive up front, so only
        # the entry protocol's checksum pass can catch damage to it.
        partial = build_shard_partial(tiny_config, 2, 0)
        entry = store_partial(tiny_config, partial)
        assert entry is not None
        lean = load_partial(tiny_config, 2, 0, lean=True)
        assert lean is not None
        assert_tables_byte_identical(
            Table({n: lean.instances[n] for n in lean.instances.column_names}),
            partial.instances, label="lean instances",
        )
        victim = entry / "instances.npz"
        data = bytearray(victim.read_bytes())
        data[len(data) // 2] ^= 0xFF
        victim.write_bytes(bytes(data))
        before = obs.counter("shard.corrupt").value
        assert load_partial(tiny_config, 2, 0, lean=True) is None
        assert obs.counter("shard.corrupt").value == before + 1


# --------------------------------------------------------------------- #
# Fault injection: every shard.* fault class leaves the bytes unchanged
# --------------------------------------------------------------------- #


class TestShardFaults:
    NUM_SHARDS = 3

    def _faulted_build(self, spec):
        faults.configure(spec)
        try:
            return build_study(
                "tiny", seed=7, cache=False, shards=self.NUM_SHARDS
            )
        finally:
            faults.configure(None)

    def test_save_fail_keeps_in_memory_partials(self, tiny_mono, monkeypatch):
        # Serial build: under a process pool the spill (and its warning)
        # happens inside a worker, where pytest.warns cannot observe it.
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        before = obs.counter("shard.store_failed").value
        with pytest.warns(RuntimeWarning, match="failed to spill"):
            sharded = self._faulted_build("shard.save:fail")
        assert (
            obs.counter("shard.store_failed").value - before
            == self.NUM_SHARDS
        )
        assert_studies_byte_identical(sharded, tiny_mono)

    def test_load_fail_rebuilds_in_process(self, tiny_mono):
        corrupt = obs.counter("shard.corrupt").value
        rebuilt = obs.counter("shard.rebuilt").value
        sharded = self._faulted_build("shard.load:fail")
        assert obs.counter("shard.corrupt").value - corrupt == self.NUM_SHARDS
        assert obs.counter("shard.rebuilt").value - rebuilt == self.NUM_SHARDS
        assert_studies_byte_identical(sharded, tiny_mono)

    def test_load_corrupt_quarantines_and_rebuilds(self, tiny_mono):
        corrupt = obs.counter("shard.corrupt").value
        rebuilt = obs.counter("shard.rebuilt").value
        sharded = self._faulted_build("shard.load:corrupt")
        assert obs.counter("shard.corrupt").value - corrupt == self.NUM_SHARDS
        assert obs.counter("shard.rebuilt").value - rebuilt == self.NUM_SHARDS
        assert_studies_byte_identical(sharded, tiny_mono)

    def test_corrupt_spill_is_detected_by_checksum(self, tiny_config):
        # Damage a spilled entry on disk directly (no injected fault on the
        # load path): the checksum must catch it and report a miss.
        from repro.shard.store import _entry_dir

        partial = build_shard_partial(tiny_config, 2, 0)
        assert store_partial(tiny_config, partial) is not None
        victim = _entry_dir(tiny_config, 2, 0) / "metrics.npz"
        data = victim.read_bytes()
        victim.write_bytes(data[: len(data) // 2])
        before = obs.counter("shard.corrupt").value
        assert load_partial(tiny_config, 2, 0) is None
        assert obs.counter("shard.corrupt").value == before + 1

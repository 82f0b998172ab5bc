"""Failure-injection suite: every injected fault must leave the study
byte-identical or fail loudly (:mod:`repro.faults`).

Covers the fault-spec grammar, the on-disk entry protocol's recovery
machinery (checksums, quarantine, write-failure visibility) for study
entries and shard spills alike, the pool recovery machinery
(spawn retry, chunk crash/hang fallbacks, mapped-function error
propagation), dataset-save atomicity, and the CLI ``--faults`` wiring.
"""

from __future__ import annotations

import json
import os
import pickle
import shutil
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np
import pytest

from repro import build_study, cache, faults, obs, parallel
from repro.parallel import map_chunks


@pytest.fixture(autouse=True)
def _clean_faults(monkeypatch):
    """Every test starts and ends with no fault rules installed.

    Also forgets which serial-fallback causes already warned, so each test
    can assert on its own RuntimeWarning despite warn-once-per-process.
    """
    from repro import parallel

    monkeypatch.delenv(faults.FAULTS_ENV, raising=False)
    faults.configure(None)
    parallel.reset_warnings()
    yield
    faults.configure(None)


@pytest.fixture()
def cache_dir(tmp_path, monkeypatch, study):
    """A private cache dir pre-populated with the session study's entry."""
    src = Path(os.environ[cache.CACHE_DIR_ENV])
    dst = tmp_path / "cache"
    shutil.copytree(src, dst)
    monkeypatch.setenv(cache.CACHE_DIR_ENV, str(dst))
    return dst


def _tables_equal(a, b) -> bool:
    if list(a.column_names) != list(b.column_names):
        return False
    for name in a.column_names:
        ca, cb = a[name], b[name]
        if ca.dtype != cb.dtype:
            return False
        if ca.dtype == object:
            if ca.tolist() != cb.tolist():
                return False
        elif np.issubdtype(ca.dtype, np.floating):
            if not np.array_equal(ca, cb, equal_nan=True):
                return False
        elif not np.array_equal(ca, cb):
            return False
    return True


def _studies_equal(a, b) -> bool:
    return (
        _tables_equal(a.released.batch_catalog, b.released.batch_catalog)
        and _tables_equal(a.released.instances, b.released.instances)
        and _tables_equal(a.enriched.batch_table, b.enriched.batch_table)
        and _tables_equal(a.enriched.cluster_table, b.enriched.cluster_table)
        and _tables_equal(a.enriched.labels, b.enriched.labels)
        and a.released.batch_html == b.released.batch_html
        and a.enriched.cluster_of_batch == b.enriched.cluster_of_batch
    )


def _square(x):
    return x * x


_CALLS_DIR_ENV = "REPRO_FAULTS_TEST_CALLS"


def _record_then_maybe_boom(x):
    """Append one byte per call so double execution is detectable."""
    with open(os.path.join(os.environ[_CALLS_DIR_ENV], str(x)), "a") as fh:
        fh.write("x")
    if x == 13:
        raise ValueError("boom at 13")
    return x * 2


class TestSpecGrammar:
    def test_parse_rules(self):
        rules = faults.parse("cache.write:fail@2, pool.spawn:fail,cache.load:corrupt@1")
        assert rules == (
            ("cache.write", "fail", 2),
            ("pool.spawn", "fail", None),
            ("cache.load", "corrupt", 1),
        )

    def test_empty_spec_is_no_rules(self):
        assert faults.parse("") == ()
        assert faults.parse(" , ") == ()

    @pytest.mark.parametrize(
        "bad",
        [
            "nope",
            "pool.spawn",
            "unknown.site:fail",
            "cache.write:explode",
            "pool.spawn:fail@0",
            "pool.spawn:fail@x",
            "pool.spawn:fail@",
        ],
    )
    def test_malformed_specs_raise(self, bad):
        with pytest.raises(faults.FaultSpecError):
            faults.parse(bad)

    def test_at_n_fires_exactly_on_nth_arrival(self):
        faults.configure("pool.spawn:fail@2")
        assert faults.fire("pool.spawn") is None
        assert faults.fire("pool.spawn") == "fail"
        assert faults.fire("pool.spawn") is None
        assert faults.arrival_counts() == {"pool.spawn": 3}

    def test_bare_rule_fires_every_arrival(self):
        faults.configure("pool.chunk:hang")
        assert [faults.fire("pool.chunk") for _ in range(3)] == ["hang"] * 3

    def test_other_sites_unaffected(self):
        faults.configure("cache.write:fail")
        assert faults.fire("cache.load") is None
        assert faults.arrival_counts() == {}

    def test_env_spec_is_read_lazily(self, monkeypatch):
        monkeypatch.setenv(faults.FAULTS_ENV, "cache.write:fail@1")
        assert faults.active()
        assert faults.fire("cache.write") == "fail"
        monkeypatch.setenv(faults.FAULTS_ENV, "")
        assert not faults.active()

    def test_configure_overrides_env(self, monkeypatch):
        monkeypatch.setenv(faults.FAULTS_ENV, "cache.write:fail")
        faults.configure("pool.spawn:fail")
        assert faults.fire("cache.write") is None
        assert faults.fire("pool.spawn") == "fail"

    def test_check_raises_injected_oserror(self):
        faults.configure("cache.write:fail@1")
        with pytest.raises(OSError, match="injected fault: cache.write:fail"):
            faults.check("cache.write")
        assert faults.check("cache.write") is None  # @1 consumed

    def test_fired_faults_are_counted(self):
        injected = obs.counter("faults.injected")
        faults.configure("pool.spawn:fail")
        before = injected.value
        faults.fire("pool.spawn")
        assert injected.value == before + 1


class TestCacheWriteFault:
    def test_write_failure_is_loud_and_recovers(self, tmp_path, monkeypatch, study):
        monkeypatch.setenv(cache.CACHE_DIR_ENV, str(tmp_path / "fresh"))
        write_failed = obs.counter("cache.write_failed")
        hits = obs.counter("cache.hit")
        faults.configure("cache.write:fail@1")

        before = write_failed.value
        with pytest.warns(RuntimeWarning, match="failed to persist"):
            faulted = build_study("tiny", seed=7)
        assert write_failed.value == before + 1
        assert cache.list_entries() == []
        # The in-memory study is byte-identical to the healthy one.
        assert _studies_equal(faulted, study)

        # The fault was @1: the next cold build persists normally ...
        rebuilt = build_study("tiny", seed=7)
        assert len(cache.list_entries()) == 1
        assert _studies_equal(rebuilt, study)
        # ... and the build after that is a warm hit.
        h0 = hits.value
        warm = build_study("tiny", seed=7)
        assert hits.value == h0 + 1
        assert _studies_equal(warm, study)


@dataclass
class _EntryStore:
    """One store that speaks the :mod:`repro.cache` entry protocol."""

    entry: Path
    load: Callable[[], Any]
    write: Callable[[], Any]
    save_site: str
    load_site: str
    corrupt: str
    #: A data file every load reads.
    victim: str
    #: The data file holding the dictionary-coded instance table.
    dict_table: str
    #: The on-disk manifest keys, pinned so existing entries keep loading.
    manifest_keys: frozenset


_STUDY_MANIFEST_KEYS = frozenset({
    "schema", "key", "config", "column_orders", "checksums",
    "num_instances", "num_sampled_batches", "num_clusters",
})
_SPILL_MANIFEST_KEYS = frozenset({
    "schema", "shard", "num_shards", "config", "column_orders",
    "checksums", "num_instances", "num_batches",
})


@pytest.fixture(scope="module")
def spill_partial():
    from repro.shard import build_shard_partial
    from repro.simulator.config import SimulationConfig

    config = SimulationConfig.preset("tiny", seed=7)
    return config, build_shard_partial(config, 2, 0)


def rewrite_dictionary(entry: Path, filename: str, damage: str) -> None:
    """Make the ``response`` dictionary of a table archive non-canonical
    and re-checksum the file, as a writer with a bug would leave it."""
    import hashlib

    path = entry / filename
    with np.load(path, allow_pickle=True) as archive:
        arrays = {name: archive[name] for name in archive.files}
    if damage == "unsorted":
        arrays["response@uniques"] = arrays["response@uniques"][::-1].copy()
    else:
        codes = arrays["response@codes"].copy()
        codes[0] = len(arrays["response@uniques"])
        arrays["response@codes"] = codes
    np.savez(path, **arrays)
    manifest_path = entry / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["checksums"][filename] = hashlib.sha256(
        path.read_bytes()
    ).hexdigest()
    manifest_path.write_text(json.dumps(manifest))


class EntryProtocolCases:
    """The entry protocol's cases, written once.

    Each subclass binds the ``store`` fixture to one store, so every case
    runs against the study entry and the shard spill alike.
    """

    def test_checksum_catches_flipped_byte(self, store, monkeypatch):
        victim = store.entry / store.victim
        data = bytearray(victim.read_bytes())
        data[len(data) // 2] ^= 0xFF
        victim.write_bytes(bytes(data))

        def deserialized(*args, **kwargs):
            raise AssertionError("a damaged entry reached deserialization")

        # The checksums, not the archive's own CRCs, must reject it.
        for name in ("load_table", "load_html"):
            monkeypatch.setattr(cache, name, deserialized)
        corrupt = obs.counter(store.corrupt)
        before = corrupt.value
        assert store.load() is None
        assert corrupt.value == before + 1
        assert not store.entry.exists()

    def test_truncated_npz_with_matching_checksum_is_a_miss(self, store):
        # Defeat the checksum layer on purpose (manifest updated to match
        # the truncated bytes) so the load path itself must absorb the
        # BadZipFile/EOFError/UnpicklingError a truncated archive raises.
        import hashlib

        victim = store.entry / store.victim
        data = victim.read_bytes()
        victim.write_bytes(data[: len(data) // 2])
        manifest_path = store.entry / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["checksums"][store.victim] = hashlib.sha256(
            victim.read_bytes()
        ).hexdigest()
        manifest_path.write_text(json.dumps(manifest))
        assert store.load() is None
        assert not store.entry.exists()

    def test_injected_load_failure_is_a_miss(self, store):
        corrupt = obs.counter(store.corrupt)
        before = corrupt.value
        faults.configure(f"{store.load_site}:fail@1")
        assert store.load() is None
        assert corrupt.value == before + 1
        # Entry was quarantined; the next lookup is a plain (absent) miss.
        assert not store.entry.exists()
        assert store.load() is None
        assert corrupt.value == before + 1

    def test_failed_write_leaves_no_temp_dir_or_entry(self, store):
        shutil.rmtree(store.entry)
        faults.configure(f"{store.save_site}:fail")
        with pytest.warns(RuntimeWarning, match="failed to"):
            assert store.write() is None
        assert not store.entry.exists()
        temp_prefix = f".{store.entry.name[:16]}-"
        assert not [
            p for p in store.entry.parent.iterdir()
            if p.name.startswith(temp_prefix)
        ]
        faults.configure(None)
        assert store.write() == store.entry
        assert store.load() is not None

    @pytest.mark.parametrize(
        "exc", [pickle.UnpicklingError("pickle data was truncated"), EOFError()]
    )
    def test_unpickling_errors_are_misses_not_crashes(
        self, store, monkeypatch, exc
    ):
        def _explode(*args, **kwargs):
            raise exc

        monkeypatch.setattr(cache, "load_table", _explode)
        assert store.load() is None

    @pytest.mark.parametrize("damage", ["unsorted", "out_of_range"])
    def test_non_canonical_dictionary_is_corrupt(self, store, damage):
        # Checksums updated to match, so only the canonical-form check on
        # load can reject the rewritten archive.
        rewrite_dictionary(store.entry, store.dict_table, damage)
        corrupt = obs.counter(store.corrupt)
        before = corrupt.value
        assert store.load() is None
        assert corrupt.value == before + 1
        assert not store.entry.exists()

    def test_schema_mismatch_is_an_unquarantined_miss(self, store):
        manifest_path = store.entry / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["schema"] += 1
        manifest_path.write_text(json.dumps(manifest))
        corrupt = obs.counter(store.corrupt)
        before = corrupt.value
        assert store.load() is None
        assert corrupt.value == before
        assert manifest_path.is_file()  # left for the code that owns it

    def test_manifest_keys_are_unchanged(self, store):
        # The on-disk layout is fixed, so entries already on disk load.
        manifest = json.loads((store.entry / "manifest.json").read_text())
        assert set(manifest) == store.manifest_keys
        data_files = {
            p.name for p in store.entry.iterdir() if p.name != "manifest.json"
        }
        assert set(manifest["checksums"]) == data_files
        assert store.load() is not None


class TestCacheCorruption(EntryProtocolCases):
    @pytest.fixture()
    def store(self, cache_dir, study):
        return _EntryStore(
            entry=cache_dir / cache.study_key(study.config),
            load=lambda: cache.load_study(study.config),
            write=lambda: cache.store_study(
                study.config, study.released, study.enriched
            ),
            save_site="cache.write",
            load_site="cache.load",
            corrupt="cache.corrupt",
            victim="enriched_labels.npz",
            dict_table="released_instances.npz",
            manifest_keys=_STUDY_MANIFEST_KEYS,
        )

    def test_corrupt_entry_is_one_miss_no_bytes_read(self, cache_dir, study):
        entry = cache_dir / cache.study_key(study.config)
        assert entry.is_dir()
        misses = obs.counter("cache.miss")
        corrupt = obs.counter("cache.corrupt")
        bytes_read = obs.counter("cache.bytes_read")
        hits = obs.counter("cache.hit")
        before = (misses.value, corrupt.value, bytes_read.value, hits.value)

        faults.configure("cache.load:corrupt@1")
        assert cache.load_study(study.config) is None

        assert misses.value == before[0] + 1
        assert corrupt.value == before[1] + 1
        assert bytes_read.value == before[2]  # nothing counted as read
        assert hits.value == before[3]
        # The damaged entry was quarantined out of its key slot.
        assert not entry.exists()
        assert any(p.name.startswith(".quarantine-") for p in cache_dir.iterdir())

    def test_warm_rebuild_after_quarantine_rewrites_entry(self, cache_dir, study):
        entry = cache_dir / cache.study_key(study.config)
        faults.configure("cache.load:corrupt@1")
        # build_study sees the corrupt entry as a miss, rebuilds cold,
        # and re-writes a healthy entry — byte-identical throughout.
        rebuilt = build_study("tiny", seed=7)
        assert _studies_equal(rebuilt, study)
        assert entry.is_dir()
        # With the fault consumed, the re-written entry serves a warm hit.
        hits = obs.counter("cache.hit")
        h0 = hits.value
        warm = build_study("tiny", seed=7)
        assert hits.value == h0 + 1
        assert _studies_equal(warm, study)



class TestSpillCorruption(EntryProtocolCases):
    @pytest.fixture()
    def store(self, tmp_path, monkeypatch, spill_partial):
        from repro.shard import load_partial, store_partial

        monkeypatch.setenv(cache.CACHE_DIR_ENV, str(tmp_path / "cache"))
        config, partial = spill_partial
        entry = store_partial(config, partial)
        assert entry is not None
        return _EntryStore(
            entry=entry,
            load=lambda: load_partial(config, 2, 0),
            write=lambda: store_partial(config, partial),
            save_site="shard.save",
            load_site="shard.load",
            corrupt="shard.corrupt",
            victim="metrics.npz",
            dict_table="instances.npz",
            manifest_keys=_SPILL_MANIFEST_KEYS,
        )

    def test_non_canonical_dictionary_is_corrupt_on_lean_load(
        self, store, spill_partial
    ):
        from repro.shard import load_partial

        config, _ = spill_partial
        rewrite_dictionary(store.entry, store.dict_table, "unsorted")
        corrupt = obs.counter(store.corrupt)
        before = corrupt.value
        assert load_partial(config, 2, 0, lean=True) is None
        assert corrupt.value == before + 1
        assert not store.entry.exists()


class TestCacheConcurrency:
    def test_entry_size_survives_concurrent_delete(self, tmp_path, monkeypatch):
        entry = tmp_path / "entry"
        entry.mkdir()
        (entry / "a.npz").write_bytes(b"x" * 100)
        real_iterdir = Path.iterdir

        def racing_iterdir(self):
            yield from real_iterdir(self)
            # A file listed, then evicted before stat().
            yield self / "ghost.npz"

        monkeypatch.setattr(Path, "iterdir", racing_iterdir)
        assert cache._entry_size_bytes(entry) == 100

    def test_list_entries_tolerates_racing_eviction(self, cache_dir, monkeypatch):
        real_iterdir = Path.iterdir

        def racing_iterdir(self):
            yield from real_iterdir(self)
            if self == cache_dir:
                yield self / "evicted-entry"

        monkeypatch.setattr(Path, "iterdir", racing_iterdir)
        entries = cache.list_entries()
        assert len(entries) >= 1
        assert all("size_bytes" in e for e in entries)

    def test_list_entries_skips_temp_and_quarantine_dirs(self, cache_dir):
        (cache_dir / ".0123abcd-in-progress").mkdir()
        (cache_dir / ".quarantine-deadbeef").mkdir()
        names = {Path(e["path"]).name for e in cache.list_entries()}
        assert not any(n.startswith(".") for n in names)

    def test_clear_cache_does_not_count_temp_dirs(self, tmp_path, monkeypatch):
        root = tmp_path / "cc"
        root.mkdir()
        monkeypatch.setenv(cache.CACHE_DIR_ENV, str(root))
        (root / "entry-a").mkdir()
        (root / "entry-b").mkdir()
        (root / ".0123abcd-tmp42").mkdir()
        (root / ".quarantine-ff00").mkdir()
        assert cache.clear_cache() == 2
        assert not any(root.iterdir())  # temp dirs swept, just not counted


class TestPoolFaults:
    def test_spawn_failure_is_retried(self):
        faults.configure("pool.spawn:fail@1")
        retries = obs.counter("parallel.pool_retries")
        fallbacks = obs.counter("parallel.serial_fallback")
        r0, f0 = retries.value, fallbacks.value
        items = list(range(64))
        assert map_chunks(_square, items, workers=2) == [x * x for x in items]
        assert retries.value == r0 + 1
        assert fallbacks.value == f0  # the retry succeeded: no degradation

    def test_spawn_failure_exhausts_retries_then_falls_back_once(self):
        faults.configure("pool.spawn:fail")
        retries = obs.counter("parallel.pool_retries")
        fallbacks = obs.counter("parallel.serial_fallback")
        r0, f0 = retries.value, fallbacks.value
        items = list(range(64))
        with pytest.warns(RuntimeWarning, match="process pool unavailable"):
            result = map_chunks(_square, items, workers=2)
        assert result == [x * x for x in items]
        assert fallbacks.value == f0 + 1  # exactly one fallback
        assert retries.value == r0 + parallel._POOL_SPAWN_ATTEMPTS - 1

    def test_chunk_crash_falls_back_with_identical_results(self):
        faults.configure("pool.chunk:fail@1")
        fallbacks = obs.counter("parallel.serial_fallback")
        f0 = fallbacks.value
        items = list(range(64))
        with pytest.warns(RuntimeWarning, match="process pool unavailable"):
            result = map_chunks(_square, items, workers=2)
        assert result == [x * x for x in items]
        assert fallbacks.value == f0 + 1

    def test_chunk_hang_times_out_and_falls_back(self):
        faults.configure("pool.chunk:hang")
        timeouts = obs.counter("parallel.timeout")
        t0 = timeouts.value
        items = list(range(64))
        start = time.monotonic()
        with pytest.warns(RuntimeWarning, match="process pool unavailable"):
            result = map_chunks(_square, items, workers=2, timeout=0.5)
        assert result == [x * x for x in items]
        assert timeouts.value == t0 + 1
        assert time.monotonic() - start < parallel._HANG_SLEEP_S

    def test_timeout_env_parsing(self, monkeypatch):
        monkeypatch.delenv(parallel.POOL_TIMEOUT_ENV, raising=False)
        assert parallel.chunk_timeout() is None
        assert parallel.chunk_timeout(2.5) == 2.5
        monkeypatch.setenv(parallel.POOL_TIMEOUT_ENV, "7.5")
        assert parallel.chunk_timeout() == 7.5
        monkeypatch.setenv(parallel.POOL_TIMEOUT_ENV, "banana")
        with pytest.warns(RuntimeWarning, match="chunk timeouts disabled"):
            assert parallel.chunk_timeout() is None

    def test_mapped_function_error_propagates_without_double_execution(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv(_CALLS_DIR_ENV, str(tmp_path))
        fallbacks = obs.counter("parallel.serial_fallback")
        f0 = fallbacks.value
        with pytest.raises(ValueError, match="boom at 13"):
            map_chunks(_record_then_maybe_boom, list(range(64)), workers=2)
        # Not mislabeled a pool failure; nothing re-executed serially.
        assert fallbacks.value == f0
        counts = {p.name: len(p.read_text()) for p in tmp_path.iterdir()}
        assert counts["13"] == 1
        assert all(c == 1 for c in counts.values()), counts

    def test_mapped_function_error_propagates_serially_too(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv(_CALLS_DIR_ENV, str(tmp_path))
        with pytest.raises(ValueError, match="boom at 13"):
            map_chunks(_record_then_maybe_boom, list(range(64)), workers=1)


class TestStudyUnderFaults:
    def test_study_identical_under_pool_faults(self, monkeypatch, study):
        # First pool-spawn attempt fails (recovered by retry), then every
        # worker's first chunk crashes (recovered by the serial fallback):
        # the built study must not differ by a byte.
        monkeypatch.setenv(parallel.WORKERS_ENV, "2")
        faults.configure("pool.spawn:fail@1,pool.chunk:fail@1")
        with pytest.warns(RuntimeWarning, match="process pool unavailable"):
            faulted = build_study("tiny", seed=7, cache=False)
        assert _studies_equal(faulted, study)


class TestDatasetSaveFaults:
    def test_failed_save_leaves_no_manifest(self, tmp_path, released):
        from repro.dataset import StoreError, load_dataset, save_dataset

        target = tmp_path / "ds"
        faults.configure("dataset.save:fail@1")
        with pytest.raises(faults.InjectedFault):
            save_dataset(released, target)
        assert not (target / "manifest.json").exists()
        with pytest.raises(StoreError, match="no manifest.json"):
            load_dataset(target)
        # Fault consumed: the retry succeeds and round-trips.
        save_dataset(released, target)
        loaded = load_dataset(target)
        assert loaded.instances.num_rows == released.instances.num_rows

    def test_failed_resave_removes_stale_manifest(self, tmp_path, released):
        from repro.dataset import save_dataset

        target = tmp_path / "ds"
        save_dataset(released, target)
        assert (target / "manifest.json").exists()
        faults.configure("dataset.save:fail@1")
        with pytest.raises(faults.InjectedFault):
            save_dataset(released, target)
        # A failed overwrite must not leave the stale manifest pointing at
        # a half-rewritten directory.
        assert not (target / "manifest.json").exists()


class TestCliFaults:
    def test_invalid_spec_is_rejected(self, capsys):
        from repro import cli

        assert cli.main(["report", "--scale", "tiny", "--faults", "bogus"]) == 2
        assert "invalid --faults spec" in capsys.readouterr().err

    def test_faulted_export_matches_clean_export(self, tmp_path, monkeypatch):
        from repro import cli

        monkeypatch.setenv(cache.CACHE_DIR_ENV, str(tmp_path / "cc"))
        clean, faulted = tmp_path / "clean", tmp_path / "faulted"
        assert cli.main(
            ["simulate", "--scale", "tiny", "--seed", "7", "--out", str(clean)]
        ) == 0
        # The second run finds its cache entry corrupted mid-load and must
        # quarantine + rebuild, exporting the identical dataset.
        assert cli.main(
            [
                "simulate", "--scale", "tiny", "--seed", "7",
                "--faults", "cache.load:corrupt@1", "--out", str(faulted),
            ]
        ) == 0
        for name in ("manifest.json", "batch_catalog.csv", "instances.csv"):
            assert (clean / name).read_bytes() == (faulted / name).read_bytes()
        clean_html = sorted(p.name for p in (clean / "html").iterdir())
        faulted_html = sorted(p.name for p in (faulted / "html").iterdir())
        assert clean_html == faulted_html

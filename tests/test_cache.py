"""Tests for the content-addressed study cache (:mod:`repro.cache`)."""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro import build_study, cache
from repro.simulator.config import SimulationConfig


@pytest.fixture()
def cache_dir(tmp_path, monkeypatch):
    monkeypatch.setenv(cache.CACHE_DIR_ENV, str(tmp_path / "cache"))
    yield tmp_path / "cache"


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


class TestKeying:
    def test_key_is_stable(self):
        config = SimulationConfig.preset("tiny", seed=7)
        assert cache.study_key(config) == cache.study_key(config)

    def test_key_changes_with_seed(self):
        a = SimulationConfig.preset("tiny", seed=7)
        b = SimulationConfig.preset("tiny", seed=8)
        assert cache.study_key(a) != cache.study_key(b)

    def test_key_changes_with_scale(self):
        a = SimulationConfig.preset("tiny", seed=7)
        b = SimulationConfig.preset("small", seed=7)
        assert cache.study_key(a) != cache.study_key(b)

    def test_key_covers_every_config_field(self):
        import dataclasses

        config = SimulationConfig.preset("tiny", seed=7)
        payload = cache.jsonable(config)
        for field in dataclasses.fields(config):
            assert field.name in payload

    def test_cache_enabled_resolution(self, monkeypatch):
        monkeypatch.delenv(cache.NO_CACHE_ENV, raising=False)
        assert cache.cache_enabled(None) is True
        assert cache.cache_enabled(False) is False
        monkeypatch.setenv(cache.NO_CACHE_ENV, "1")
        assert cache.cache_enabled(None) is False
        assert cache.cache_enabled(True) is True


class TestRoundTrip:
    def test_warm_build_is_byte_identical(self, cache_dir):
        cold = build_study("tiny", seed=7)
        assert cache_dir.is_dir() and any(cache_dir.iterdir())
        warm = build_study("tiny", seed=7)

        assert _tables_equal(
            cold.released.batch_catalog, warm.released.batch_catalog
        )
        assert _tables_equal(cold.released.instances, warm.released.instances)
        assert _tables_equal(
            cold.enriched.batch_table, warm.enriched.batch_table
        )
        assert _tables_equal(
            cold.enriched.cluster_table, warm.enriched.cluster_table
        )
        assert _tables_equal(cold.enriched.labels, warm.enriched.labels)
        assert cold.released.batch_html == warm.released.batch_html
        assert cold.enriched.cluster_of_batch == warm.enriched.cluster_of_batch

    def test_warm_study_defers_simulation(self, cache_dir):
        build_study("tiny", seed=7)
        warm = build_study("tiny", seed=7)
        from repro.study import _LazyState

        assert isinstance(warm._state, _LazyState)
        assert warm._state._state is None  # not simulated yet
        assert warm.config.seed == 7  # config access does not materialize
        assert warm._state._state is None
        # Touching .state materializes the real simulator state.
        assert warm.state.config.seed == 7
        assert warm._state._state is not None

    def test_figures_work_on_warm_study(self, cache_dir):
        build_study("tiny", seed=7)
        warm = build_study("tiny", seed=7)
        result = warm.figures.fig06_cluster_sizes()
        assert result
        # fig02 reads state.config (num_weeks) through the lazy proxy.
        assert warm.figures.fig03_weekday()

    def test_no_cache_flag_bypasses_store_and_load(self, cache_dir):
        build_study("tiny", seed=7, cache=False)
        assert not cache_dir.exists() or not any(cache_dir.iterdir())
        # Populate, then prove cache=False ignores the stored entry.
        build_study("tiny", seed=7)
        entry = next(p for p in cache_dir.iterdir() if p.is_dir())
        (entry / "manifest.json").write_text(json.dumps({"schema": -1}))
        uncached = build_study("tiny", seed=7, cache=False)  # must not read it
        assert uncached.released.instances.num_rows > 0

    def test_changed_seed_misses(self, cache_dir):
        build_study("tiny", seed=7)
        assert cache.load_study(SimulationConfig.preset("tiny", seed=8)) is None

    def test_corrupt_entry_is_a_miss(self, cache_dir):
        build_study("tiny", seed=7)
        config = SimulationConfig.preset("tiny", seed=7)
        entry = cache_dir / cache.study_key(config)
        (entry / "manifest.json").write_text("{not json")
        assert cache.load_study(config) is None
        # And build_study falls back to a cold build without raising.
        rebuilt = build_study("tiny", seed=7)
        assert rebuilt.released.instances.num_rows > 0

    def test_missing_table_file_is_a_miss(self, cache_dir):
        build_study("tiny", seed=7)
        config = SimulationConfig.preset("tiny", seed=7)
        entry = cache_dir / cache.study_key(config)
        os.remove(entry / "enriched_cluster_table.npz")
        assert cache.load_study(config) is None

    def test_clear_and_list(self, cache_dir):
        build_study("tiny", seed=7)
        build_study("tiny", seed=9)
        entries = cache.list_entries()
        assert len(entries) == 2
        assert all("num_instances" in e and "size_bytes" in e for e in entries)
        assert cache.clear_cache() == 2
        assert cache.list_entries() == []


class TestCliWiring:
    """The CLI must defer to ``REPRO_NO_CACHE`` unless --no-cache is given."""

    def test_env_no_cache_respected_without_flag(
        self, cache_dir, tmp_path, monkeypatch, capsys
    ):
        from repro import cli

        monkeypatch.setenv(cache.NO_CACHE_ENV, "1")
        out = tmp_path / "dataset"
        assert cli.main(
            ["simulate", "--scale", "tiny", "--seed", "7", "--out", str(out)]
        ) == 0
        assert cache.list_entries() == []

    def test_default_cli_run_populates_cache(
        self, cache_dir, tmp_path, monkeypatch, capsys
    ):
        from repro import cli

        monkeypatch.delenv(cache.NO_CACHE_ENV, raising=False)
        out = tmp_path / "dataset"
        assert cli.main(
            ["simulate", "--scale", "tiny", "--seed", "7", "--out", str(out)]
        ) == 0
        assert len(cache.list_entries()) == 1

    def test_no_cache_flag_bypasses(self, cache_dir, tmp_path, capsys):
        from repro import cli

        out = tmp_path / "dataset"
        assert cli.main(
            [
                "simulate", "--scale", "tiny", "--seed", "7",
                "--no-cache", "--out", str(out),
            ]
        ) == 0
        assert cache.list_entries() == []

"""The ground-truth stand-in builds only what is read.

:class:`~repro.simulator.engine.LazyMarketplaceState` is the ``state`` of
every warm-cache, sharded and service study.  Its contract:

- ``config`` and private-name probes build nothing; a copy or pickle
  carries only the config;
- a world layer (Table 4 reads ``sources``) builds the world alone, so
  every figure entry point and the fidelity probes leave the
  ``simulate.instances_rows`` counter where it was;
- ``instances`` builds the log over that same world, equal column by
  column to a fresh :func:`~repro.simulator.engine.simulate_marketplace`;
- every body equals the cold monolithic build's, whose state is real.
"""

from __future__ import annotations

import copy
import dataclasses
import pickle

import numpy as np
import pytest

from repro import cache as study_cache
from repro import obs
from repro.service import split_study
from repro.service.app import (
    fidelity_body, figure_body, figure_names,
)
from repro.service.state import ServiceState
from repro.simulator.config import SimulationConfig
from repro.simulator.engine import (
    LazyMarketplaceState,
    MarketplaceState,
    simulate_marketplace,
)
from repro.study import build_study
from repro.tables import DictColumn


def _rows_simulated() -> int:
    return obs.counter("simulate.instances_rows").value


def _config() -> SimulationConfig:
    return SimulationConfig.preset("tiny", seed=7)


@pytest.fixture(scope="module")
def cold_and_warm(tmp_path_factory):
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv(study_cache.CACHE_DIR_ENV, str(tmp_path_factory.mktemp("cache")))
        mp.delenv("REPRO_NO_CACHE", raising=False)
        cold = build_study("tiny", seed=7, cache=True)
        warm = build_study("tiny", seed=7, cache=True)
    assert isinstance(cold.state, MarketplaceState)
    assert isinstance(warm.state, LazyMarketplaceState)
    return cold, warm


@pytest.fixture(scope="module")
def sharded():
    study = build_study("tiny", seed=7, cache=False, shards=2)
    assert isinstance(study.state, LazyMarketplaceState)
    return study


def _assert_logs_equal(got, want) -> None:
    for field in dataclasses.fields(want):
        a, b = getattr(got, field.name), getattr(want, field.name)
        if b is None:
            assert a is None, field.name
        elif isinstance(b, DictColumn):
            assert isinstance(a, DictColumn), field.name
            assert a.codes.dtype == b.codes.dtype, field.name
            assert np.array_equal(a.codes, b.codes), field.name
            assert np.array_equal(a.uniques, b.uniques), field.name
        else:
            assert a.dtype == b.dtype, field.name
            assert np.array_equal(a, b), field.name


class TestProbesAndCopies:
    def test_private_probe_builds_nothing(self):
        stand_in = LazyMarketplaceState(_config())
        before = _rows_simulated()
        assert not hasattr(stand_in, "_repr_html_")
        assert not hasattr(stand_in, "__array__")
        assert stand_in._world is None and stand_in._instances is None
        assert _rows_simulated() == before

    @pytest.mark.parametrize("built", [False, True])
    def test_pickle_carries_only_the_config(self, built):
        stand_in = LazyMarketplaceState(_config())
        if built:
            stand_in.world()
        clone = pickle.loads(pickle.dumps(stand_in))
        assert isinstance(clone, LazyMarketplaceState)
        assert clone.config == stand_in.config
        assert clone._world is None and clone._instances is None

    @pytest.mark.parametrize("copier", [copy.copy, copy.deepcopy])
    def test_copy_carries_only_the_config(self, copier):
        stand_in = LazyMarketplaceState(_config())
        clone = copier(stand_in)
        assert clone is not stand_in
        assert clone.config == stand_in.config
        assert clone._world is None and clone._instances is None

    def test_config_is_free_and_world_builds_once(self):
        stand_in = LazyMarketplaceState(_config())
        before = _rows_simulated()
        assert stand_in.config.seed == 7
        assert stand_in._world is None
        sources = stand_in.sources
        assert stand_in.workers is stand_in.world().workers
        assert stand_in.sources is sources
        assert stand_in._instances is None
        assert _rows_simulated() == before

    def test_materialize_reuses_the_layers(self):
        stand_in = LazyMarketplaceState(_config())
        tasks = stand_in.tasks
        state = stand_in.materialize()
        assert isinstance(state, MarketplaceState)
        assert state.tasks is tasks
        assert state.instances is stand_in.instances
        assert state.config is stand_in.config


def _render_all(figures) -> dict[str, bytes]:
    bodies = {name: figure_body(getattr(figures, name)()) for name in figure_names()}
    bodies["fidelity"] = fidelity_body(figures)
    return bodies


def _check_stays_lazy(study, reference) -> None:
    """Every figure and the fidelity probes simulate no instance row and
    match the reference bodies; the log then equals a fresh simulation."""
    before = _rows_simulated()
    bodies = _render_all(study.figures)
    assert _rows_simulated() == before
    assert study.state._world is not None  # Table 4 read the sources
    assert study.state._instances is None
    assert bodies == reference

    tasks = study.state.tasks
    _assert_logs_equal(
        study.state.instances, simulate_marketplace(study.config).instances
    )
    assert study.state.tasks is tasks


@pytest.fixture(scope="module")
def cold_bodies(cold_and_warm):
    cold, _ = cold_and_warm
    return _render_all(cold.figures)


class TestStudiesStayLazy:
    def test_warm_study(self, cold_and_warm, cold_bodies):
        _, warm = cold_and_warm
        _check_stays_lazy(warm, cold_bodies)

    def test_sharded_study(self, sharded, cold_bodies):
        _check_stays_lazy(sharded, cold_bodies)

    def test_table4_equals_cold(self, cold_and_warm, cold_bodies):
        _, warm = cold_and_warm
        body = figure_body(warm.figures.table4_sources())
        assert body == cold_bodies["table4_sources"]


class TestServiceStaysLazy:
    def test_snapshots_share_one_stand_in(self, cold_and_warm, cold_bodies):
        cold, _ = cold_and_warm
        state = ServiceState(cold.config)
        payloads = split_study(cold, 2, seed=7)
        before = _rows_simulated()
        suites = []
        for payload in payloads:
            state.ingest(payload)
            suites.append(state.snapshot().figures)
            suites[-1].table4_sources()
        assert _rows_simulated() == before
        first, last = suites
        assert first is not last
        assert first.state is last.state
        assert isinstance(first.state, LazyMarketplaceState)
        # The final snapshot holds every row, so its Table 4 is the study's.
        assert (
            figure_body(last.table4_sources())
            == cold_bodies["table4_sources"]
        )

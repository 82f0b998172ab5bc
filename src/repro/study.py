"""Top-level convenience API: build the whole study pipeline in one call.

:func:`build_study` runs simulation → dataset release → enrichment and
returns a :class:`Study` whose attributes expose every layer, including a
bound :class:`repro.figures.FigureSuite` with one method per paper
figure/table.

Built studies are cached on disk (see :mod:`repro.cache`): a warm
``build_study`` for an already-seen ``(config, code)`` pair loads the
released + enriched layers instead of recomputing them, and defers the
simulation of ground truth until ``study.state`` is actually accessed
(figures and analyses only need it for verification-style entry points).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro import obs

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints only
    from repro.dataset.release import ReleasedDataset
    from repro.enrichment.pipeline import EnrichedDataset
    from repro.figures.suite import FigureSuite
    from repro.simulator.config import SimulationConfig
    from repro.simulator.engine import MarketplaceState


class _LazyState:
    """Stand-in for :class:`MarketplaceState` that simulates on first use.

    Cache hits skip the simulator, but the ground-truth ``state`` layer must
    stay reachable (tests and ablations read it).  The config is served
    without simulating — it is all most consumers (``FigureSuite``) touch —
    and any other attribute access materializes the full state exactly once.
    Determinism in the seed guarantees the materialized state is identical
    to the one the cached entry was built from.
    """

    __slots__ = ("_config", "_state")

    def __init__(self, config: "SimulationConfig",
                 state: "MarketplaceState | None" = None):
        self._config = config
        self._state = state

    @property
    def config(self) -> "SimulationConfig":
        return self._config

    def materialize(self) -> "MarketplaceState":
        if self._state is None:
            from repro.simulator.engine import simulate_marketplace

            self._state = simulate_marketplace(self._config)
        return self._state

    def __getattr__(self, name: str):
        return getattr(self.materialize(), name)


class Study:
    """Everything needed to reproduce the paper's analyses.

    Attributes
    ----------
    config:
        The simulation configuration (scale preset + seed) that produced it.
    state:
        Full simulator ground truth (includes latent variables the analyses
        must not peek at; exposed for tests and ablations).  The same object
        as ``figures.state``.  On a warm-cache or sharded build it is a
        stand-in that simulates on the first access of ``study.state`` (or
        of any ground-truth attribute) and forwards every attribute to the
        simulated world.
    released:
        The "released dataset" — what the paper's authors actually received
        from the marketplace (sampled batches, instance metadata, HTML).
    enriched:
        The dataset after the paper's enrichment pipeline (clusters, labels,
        design parameters, performance metrics).
    figures:
        Figure/table entry points (``figures.fig03_weekday()``, ...).
    """

    def __init__(
        self,
        config: "SimulationConfig",
        state: "MarketplaceState | _LazyState | None",
        released: "ReleasedDataset",
        enriched: "EnrichedDataset",
        figures: "FigureSuite",
    ):
        self.config = config
        self._state = state if state is not None else _LazyState(config)
        self.released = released
        self.enriched = enriched
        self.figures = figures

    @property
    def state(self) -> "MarketplaceState":
        if isinstance(self._state, _LazyState):
            # Simulate now, but hand out the stand-in the figure suite
            # holds, so both resolve to one object.
            self._state.materialize()
        return self._state

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Study(config={self.config!r}, "
            f"instances={self.released.instances.num_rows}, "
            f"clusters={self.enriched.num_clusters})"
        )


def build_study(
    scale: str = "tiny", seed: int = 7, *, cache: bool | None = None,
    shards: int | None = None,
) -> Study:
    """Simulate the marketplace and run the full enrichment pipeline.

    ``scale`` is one of ``"tiny"`` (unit tests, seconds), ``"small"``
    (examples), ``"medium"`` (benchmarks), ``"large"`` (out-of-core; built
    sharded).  The same seed always yields the same study.

    ``cache`` controls the on-disk study cache (:mod:`repro.cache`):
    ``True``/``False`` force it on/off; ``None`` (default) enables it unless
    the ``REPRO_NO_CACHE`` environment variable is set.  A warm hit loads
    the released + enriched layers from disk — byte-identical to a cold
    build — and defers simulation until ``study.state`` is touched.

    ``shards`` selects the sharded, memory-bounded executor
    (:mod:`repro.shard`): ``K > 1`` builds K batch-partitioned shards and
    merges them — byte-identical to the monolithic build, proven by the
    differential equivalence suite; ``None`` (default) reads the
    ``REPRO_SHARDS`` environment variable; 1 is the monolithic path.

    Degraded environments never change the result: a corrupt or unreadable
    cache entry is quarantined and rebuilt, a failed entry write keeps the
    in-memory study, a damaged shard spill is quarantined and the shard
    rebuilt in process, and pool failures in any fan-out degrade to
    serial — all counted in the metrics registry and provable with
    deterministic fault injection (:mod:`repro.faults`, ``REPRO_FAULTS``).
    """
    from repro import cache as study_cache
    from repro.figures.suite import FigureSuite
    from repro.shard.partition import resolve_shards
    from repro.simulator.config import SimulationConfig

    config = SimulationConfig.preset(scale, seed=seed)
    use_cache = study_cache.cache_enabled(cache)
    num_shards = resolve_shards(shards)

    with obs.span("study.build", scale=scale, seed=seed, cache=use_cache) as sp:
        if num_shards > 1:
            sp.set("shards", num_shards)
        if use_cache:
            loaded = study_cache.load_study(config)
            if loaded is not None:
                released, enriched = loaded
                sp.set("source", "cache")
                lazy = _LazyState(config)
                study = Study(
                    config=config,
                    state=lazy,
                    released=released,
                    enriched=enriched,
                    figures=FigureSuite(
                        state=lazy, released=released, enriched=enriched
                    ),
                )
                obs.ledger.note_study(study)
                return study

        from repro import faults
        from repro.dataset.release import release_dataset
        from repro.enrichment.pipeline import enrich_dataset
        from repro.simulator.engine import simulate_marketplace

        if num_shards > 1:
            from repro.shard.build import build_released_enriched

            released, enriched = build_released_enriched(config, num_shards)
            state = None  # never retain the full world; _LazyState covers it
        else:
            state = simulate_marketplace(config)
            with obs.span("release"):
                if faults.fire("phase.release") == "sleep":
                    # Deterministic phase slowdown: lets the acceptance
                    # tests (and reproduce_all.sh) prove drift detection
                    # flags the right phase without depending on a
                    # genuinely slow machine.
                    import time

                    time.sleep(faults.SLOW_PHASE_SLEEP_S)
                released = release_dataset(state, config)
            enriched = enrich_dataset(released, config)
        if use_cache:
            stored = study_cache.store_study(config, released, enriched)
            sp.set("cache_stored", stored is not None)
        sp.set("source", "built")
        sp.set("instances", released.instances.num_rows)
        if state is None:
            state = _LazyState(config)
        study = Study(
            config=config,
            state=state,
            released=released,
            enriched=enriched,
            figures=FigureSuite(
                state=state, released=released, enriched=enriched
            ),
        )
        obs.ledger.note_study(study)
        return study

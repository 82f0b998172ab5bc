"""Sharded, memory-bounded execution of the study pipeline.

The paper's real dataset (~27M instances) does not fit the single-Table,
single-process assumption the rest of the repo makes.  This package runs
the simulator + study pipeline over ``K`` independent shards — partitioned
by **batch id**, the unit every analysis groups on — and merges the
per-shard partials into a study that is **byte-identical** to the
monolithic build (proven by ``tests/test_shard_equivalence.py``).

How the equivalence works
-------------------------
The generative model has cross-batch couplings (daily worker allocation,
weekly load factors, sequential HTML-render draws), so shards cannot draw
from independent RNG streams without changing the monolithic bytes.
Instead each shard build *replays* the monolithic run's cheap numeric
draws at full size — the RNG streams are identical — and materializes only
its own slice of the expensive object-heavy layers (response strings,
rendered HTML, the released instance table, the enrichment working set).
See :func:`repro.simulator.engine.simulate_marketplace` and
:func:`repro.dataset.release.release_dataset` for the two shard-aware
generation stages.

Modules
-------
:mod:`repro.shard.partition`
    The partition key (``batch_id % num_shards``) and ``REPRO_SHARDS``
    resolution.
:mod:`repro.shard.store`
    Spill-to-disk shard store under the cache dir (per-shard manifests,
    SHA-256 checksums, quarantine on damage — the :mod:`repro.cache`
    schema-v2 conventions).
:mod:`repro.shard.merge`
    The sorted union of per-shard tables by a unique key
    (:func:`~repro.shard.merge.merge_sorted_by`), and the incremental fold
    built on it that holds the ingest service's standing tables.
:mod:`repro.shard.build`
    Orchestration: fan shard builds out over :mod:`repro.parallel`,
    spill, load, and merge into a released + enriched pair.
"""

from repro.shard.build import build_released_enriched, build_shard_partial
from repro.shard.partition import (
    SHARDS_ENV,
    resolve_shards,
    shard_of_batches,
)
from repro.shard.store import ShardPartial, load_partial, store_partial

__all__ = [
    "SHARDS_ENV",
    "ShardPartial",
    "build_released_enriched",
    "build_shard_partial",
    "load_partial",
    "resolve_shards",
    "shard_of_batches",
    "store_partial",
]

"""Orchestration: build shards, spill, load, and merge into one study.

The flow for ``K`` shards:

1. **Fan out** one task per shard over :func:`repro.parallel.map_chunks`
   (``REPRO_WORKERS`` controls the pool; serial by default).  Each task
   simulates its shard (full-size numeric RNG replay, shard-sliced
   materialization), applies the release lens, computes the per-batch
   enrichment parts (design, metrics, shingles), and **spills** the
   partial to the shard store — returning only a marker, so a serial
   build's peak memory is one shard's working set.  Pooled builds flow
   through the as-completed dispatcher in :mod:`repro.parallel` (an idle
   worker takes the next pending shard, so one straggler shard does not
   serialize the rest); serial builds instead overlap each shard's spill
   I/O with the next shard's compute through a double-buffered
   :class:`~repro.shard.store.SpillWriter` (overlap recorded in the
   ``shard.overlap_seconds`` histogram).
2. **Merge** loads the partials back *lean* — the per-batch pieces
   eagerly, the instance tables as read-on-demand views over the store
   (an entry that went missing or corrupt is quarantined and rebuilt in
   process) — clusters the pooled shingles and assembles the final tables
   through :func:`repro.enrichment.pipeline.enrich_from_parts` — the same
   code path the monolithic build uses, which is why the result is
   byte-identical — frees the shingles, then streams the instance union
   together column by column in global order.

Observability: ``shard.built`` counts shard builds, ``shard.rebuilt``
counts merge-time rebuilds after a failed load, and the merge wall time
lands in the ``shard.merge_seconds`` histogram plus the ``shard.merge``
span.  Each shard build also notes its busy interval with
:mod:`repro.obs.sampler` so a serial (in-process) build still produces a
per-shard utilization timeline; pooled builds get their intervals from the
chunk marks :mod:`repro.parallel` ships back instead.
"""

from __future__ import annotations

import os
import time
from typing import TYPE_CHECKING

import numpy as np

from repro import cache as study_cache
from repro import faults, obs
from repro.obs import live as obs_live
from repro.parallel import map_chunks, worker_count
from repro.shard import store
from repro.shard.merge import merge_sorted_by
from repro.shard.store import ShardPartial

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.dataset.release import ReleasedDataset
    from repro.enrichment.pipeline import EnrichedDataset
    from repro.simulator.config import SimulationConfig

_SHARDS_BUILT = obs.counter("shard.built")
_SHARDS_REBUILT = obs.counter("shard.rebuilt")
_MERGE_SECONDS = obs.histogram("shard.merge_seconds")


def build_shard_partial(
    config: "SimulationConfig", num_shards: int, shard: int
) -> ShardPartial:
    """Simulate, release, and pre-enrich one shard."""
    from repro.dataset.release import release_dataset
    from repro.enrichment.clustering import shingle_corpus
    from repro.enrichment.design import extract_design_parameters
    from repro.enrichment.metrics import compute_batch_metrics
    from repro.html import group_by_interface
    from repro.obs import sampler
    from repro.simulator.engine import simulate_marketplace

    t0 = time.perf_counter()
    with obs.span("shard.build", shard=shard, num_shards=num_shards) as sp:
        if faults.fire("shard.build") == "sleep":
            # Deterministic straggler: this shard takes SLOW_PHASE_SLEEP_S
            # longer, so skew-scheduling tests have a shard to steal around.
            time.sleep(faults.SLOW_PHASE_SLEEP_S)
        state = simulate_marketplace(
            config, shard=shard, num_shards=num_shards
        )
        released = release_dataset(
            state, config, shard=shard, num_shards=num_shards
        )
        catalog = released.batch_catalog if shard == 0 else None
        del state  # free the ground-truth world before enrichment parts
        # One interface grouping for the design pass and the shingles.
        groups = group_by_interface(released.batch_html)
        design = extract_design_parameters(released.batch_html, groups=groups)
        metrics = compute_batch_metrics(released)
        shingle_ids, shingle_arrays = shingle_corpus(
            released.batch_html, groups=groups
        )
        sp.set("instances", released.instances.num_rows)
    sampler.note_interval(
        os.getpid(), t0, time.perf_counter(), f"shard {shard}"
    )
    _SHARDS_BUILT.inc()
    return ShardPartial(
        shard=shard,
        num_shards=num_shards,
        catalog=catalog,
        instances=released.instances,
        design=design,
        metrics=metrics,
        batch_html=released.batch_html,
        shingle_ids=np.asarray(shingle_ids, dtype=np.int64),
        shingle_arrays=shingle_arrays,
    )


def _shard_task(
    args: tuple["SimulationConfig", int, int, bool]
) -> tuple[str, int, ShardPartial | None]:
    """Build (or reuse) one shard; spill when the store is enabled.

    Returns ``(status, shard, partial-or-None)`` where a ``None`` partial
    means it was spilled and the merge should load it from the store —
    keeping both the fan-out pickling and the serial build's peak memory
    to one shard.
    """
    config, num_shards, shard, spill = args
    if spill:
        partial = store.load_partial(config, num_shards, shard)
        if partial is not None:
            return ("reused", shard, None)
    partial = build_shard_partial(config, num_shards, shard)
    if spill and store.store_partial(config, partial) is not None:
        return ("spilled", shard, None)
    return ("inline", shard, partial)


def _serial_shard_tasks(
    config: "SimulationConfig", num_shards: int, use_store: bool
) -> list[tuple[str, int, ShardPartial | None]]:
    """Serial shard loop with spill I/O overlapped via a background writer.

    Status-for-status equivalent to mapping :func:`_shard_task` over the
    shards serially; the only difference is *when* the spill I/O runs.
    Each built partial is handed to a :class:`~repro.shard.store.SpillWriter`
    which writes it on a background thread while the next shard simulates,
    so a serial build's wall time tends toward ``max(compute, spill)`` per
    shard instead of their sum.  The writer keeps at most one spill in
    flight, so peak memory stays bounded at two shards' working sets (the
    partial being built plus the one being written) — the same discipline
    the inline spill had, one buffer wider.

    Spill *outcomes* keep :func:`store_partial`'s posture: a failed spill
    hands the partial back here and it is carried inline, exactly as the
    non-overlapped path would.
    """
    results: list[tuple[str, int, ShardPartial | None]] = []
    submitted: list[int] = []
    with store.SpillWriter(config) as writer:
        for shard in range(num_shards):
            if use_store:
                if store.load_partial(config, num_shards, shard) is not None:
                    results.append(("reused", shard, None))
                    obs_live.publish(
                        "shard.progress", shard=shard, total=num_shards,
                        status="reused",
                    )
                    continue
            partial = build_shard_partial(config, num_shards, shard)
            obs_live.publish(
                "shard.progress", shard=shard, total=num_shards,
                status="built",
            )
            if use_store:
                writer.submit(partial)
                submitted.append(shard)
            else:
                results.append(("inline", shard, partial))
        outcomes = writer.finish()
    for shard in submitted:
        entry, partial = outcomes[shard]
        if entry is not None:
            results.append(("spilled", shard, None))
        else:
            results.append(("inline", shard, partial))
    return results


def build_released_enriched(
    config: "SimulationConfig",
    num_shards: int,
    *,
    spill: bool | None = None,
) -> tuple["ReleasedDataset", "EnrichedDataset"]:
    """Build the released + enriched layers over ``num_shards`` shards.

    Byte-identical to ``release_dataset(simulate_marketplace(config),
    config)`` + ``enrich_dataset(...)`` for any shard count (the
    differential suite pins this).  ``spill`` controls the on-disk shard
    store; ``None`` follows :func:`repro.cache.cache_enabled`.
    """
    if num_shards < 1:
        raise ValueError(f"num_shards must be >= 1, got {num_shards}")
    use_store = study_cache.cache_enabled(spill)

    with obs.span("shard.pipeline", num_shards=num_shards) as sp:
        if worker_count() > 1 and num_shards >= 2:
            # Pooled fan-out: one chunk per shard through the as-completed
            # dispatcher, spill inline inside each worker (a worker cannot
            # report "spilled" before its own store write finishes anyway).
            tasks = [
                (config, num_shards, shard, use_store)
                for shard in range(num_shards)
            ]
            results = map_chunks(
                _shard_task, tasks, chunk_size=1, min_items=2
            )
        else:
            # Serial build: overlap each shard's spill with the next
            # shard's compute instead.
            results = _serial_shard_tasks(config, num_shards, use_store)

        # One summary event per shard once every result is in (the pooled
        # path's live progress comes from the parallel chunk events; this
        # adds each shard's final status for SSE clients on either path).
        for done, (status, shard, _partial) in enumerate(
            sorted(results, key=lambda r: r[1]), start=1
        ):
            obs_live.publish(
                "shard.result", shard=shard, total=num_shards,
                status=status, done=done,
            )

        t0 = time.perf_counter()
        with obs.span("shard.merge", num_shards=num_shards):
            partials: list[ShardPartial] = []
            for status, shard, partial in sorted(
                results, key=lambda r: r[1]
            ):
                if partial is None:
                    partial = store.load_partial(
                        config, num_shards, shard, lean=True
                    )
                if partial is None:
                    # Spilled but unreadable at merge time (evicted,
                    # corrupt, injected fault): rebuild in process.
                    _SHARDS_REBUILT.inc()
                    partial = build_shard_partial(config, num_shards, shard)
                partials.append(partial)
            released, enriched = merge_partials(config, partials)
        _MERGE_SECONDS.observe(time.perf_counter() - t0)
        sp.set("instances", released.instances.num_rows)
        sp.set("clusters", enriched.num_clusters)
    return released, enriched


def merge_partials(
    config: "SimulationConfig", partials: list[ShardPartial]
) -> tuple["ReleasedDataset", "EnrichedDataset"]:
    """Merge shard partials into the monolithic released/enriched layers.

    Exactness per layer: instance rows are concatenated and stably sorted
    by global instance id (each shard is already internally ordered); the
    batch catalog is global and carried verbatim by shard 0; and the pooled
    shingle arrays, design and metrics rows go through
    :func:`~repro.enrichment.pipeline.enrich_from_parts` — the path the
    monolithic pipeline and the ingest service use — which sorts them by
    batch id, runs the unchanged single-level clustering pass and
    assembles the final tables.

    Consumes ``partials`` destructively to keep the union-sized pieces
    from coexisting: the shingle pool is clustered and freed before the
    instance tables are merged, and the instance merge walks the union
    column by column — reading straight from the spill store when a
    partial was loaded lean — so the peak is roughly the merged output
    plus one column, not the output plus every shard's table.
    """
    from repro.dataset.release import ReleasedDataset
    from repro.enrichment.pipeline import enrich_from_parts
    from repro.tables import concat_tables

    if not partials:
        raise ValueError("cannot merge zero shard partials")
    catalog = next(
        (p.catalog for p in partials if p.catalog is not None), None
    )
    if catalog is None:
        raise ValueError("no shard partial carries the batch catalog")

    batch_html: dict[int, str] = {}
    for partial in partials:
        batch_html.update(partial.batch_html)
        partial.batch_html = {}

    shingle_ids = np.concatenate([p.shingle_ids for p in partials])
    shingle_arrays = [
        array for p in partials for array in p.shingle_arrays
    ]
    for partial in partials:
        partial.shingle_arrays = []
    # The assembly reads only the catalog, so it runs before the instance
    # merge and the shingle pool is freed first.
    enriched = enrich_from_parts(
        catalog, config, shingle_ids, shingle_arrays,
        concat_tables([p.design for p in partials]),
        concat_tables([p.metrics for p in partials]),
        cluster_span="shard.merge.cluster",
    )
    shingle_arrays.clear()

    instance_tables = [p.instances for p in partials]
    for partial in partials:
        partial.instances = None  # type: ignore[assignment]
    instances = merge_sorted_by(instance_tables, "instance_id")

    released = ReleasedDataset(
        batch_catalog=catalog,
        batch_html=batch_html,
        instances=instances,
    )
    return released, enriched

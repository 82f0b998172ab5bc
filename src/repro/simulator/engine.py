"""The simulation engine: orchestrates all generators into a full event log.

The output :class:`MarketplaceState` contains both the *observable* world
(instances with timestamps, workers, responses, trust scores) and the
*latent* ground truth (task targets, worker skill) — the latter is exposed
only so tests can verify that the analysis layer recovers the truth from raw
rows; analysis code never reads it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.simulator.allocation import allocate_workers
from repro.simulator.answers import modal_probability_for_disagreement
from repro.simulator.arrivals import BatchSchedule, generate_batches, market_envelope
from repro.simulator.config import SimulationConfig
from repro.simulator.rng import StreamFactory
from repro.simulator.sources import SourcePool, generate_sources
from repro.simulator.tasks import (
    TEXT_RESPONSE_OPERATORS,
    TaskPopulation,
    generate_tasks,
)
from repro.simulator.workers import WorkerPool, generate_workers
from repro.stats.timeseries import DAY_SECONDS, WEEK_SECONDS
from repro.tables import DictColumn
from repro.tables.column import factorize

#: Rows of the instance event log produced by this process (across builds).
_ROWS_SIMULATED = obs.counter("simulate.instances_rows")


@dataclass
class InstanceLog:
    """Column-oriented per-instance event log (index = instance id)."""

    batch_idx: np.ndarray  # int: batch performing the work
    task_idx: np.ndarray  # int: distinct task (latent; released data omits it)
    item_id: np.ndarray  # int: globally unique item operated on
    worker_id: np.ndarray  # int
    start_time: np.ndarray  # int: seconds since epoch (pickup moment)
    end_time: np.ndarray  # int: seconds since epoch (completion)
    trust: np.ndarray  # float in [0, 1]
    response: DictColumn  # worker's answer string, dictionary-coded
    #: Global instance ids.  ``None`` means the log is dense (row i == id i,
    #: e.g. hand-built logs in repro.abtest); a sharded simulation carries
    #: the monolithic ids of its slice here so downstream layers keep global
    #: numbering.
    instance_id: np.ndarray | None = None

    @property
    def num_instances(self) -> int:
        return len(self.batch_idx)

    @property
    def global_ids(self) -> np.ndarray:
        """Global instance ids, materializing ``arange`` for dense logs."""
        if self.instance_id is not None:
            return self.instance_id
        return np.arange(self.num_instances, dtype=np.int64)


@dataclass
class MarketplaceState:
    """Full simulator ground truth."""

    config: SimulationConfig
    envelope: np.ndarray
    sources: SourcePool
    workers: WorkerPool
    tasks: TaskPopulation
    batches: BatchSchedule
    instances: InstanceLog


def _weekly_load_factor(
    config: SimulationConfig, batches: BatchSchedule
) -> np.ndarray:
    """Per-batch load factor: weekly instance volume relative to the
    post-regime median (the §3.2 finding: high-load weeks move *faster*)."""
    weeks = batches.start_time // WEEK_SECONDS
    weekly = np.bincount(
        weeks, weights=batches.num_instances.astype(np.float64),
        minlength=config.num_weeks,
    )
    load_of_batch = weekly[weeks]
    # Normalize so the *typical batch* sits at factor 1 (median over
    # batches, not over calendar weeks — batches concentrate in busy weeks).
    median_load = float(np.median(load_of_batch)) if len(load_of_batch) else 1.0
    return np.maximum(load_of_batch / max(median_load, 1.0), 1e-3)


def _expand_batches(batches: BatchSchedule) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(instance->batch index, within-batch position, item id) arrays."""
    counts = batches.num_instances
    batch_of_instance = np.repeat(np.arange(batches.num_batches), counts)
    offsets = np.concatenate([[0], np.cumsum(counts)[:-1]])
    position = np.arange(counts.sum(), dtype=np.int64) - np.repeat(offsets, counts)
    # Items interleave: positions 0..k-1 are item 0..k-1's first answers,
    # then the replica rounds follow.
    items_per_batch = np.repeat(batches.num_items, counts)
    item_index = position % items_per_batch
    item_offsets = np.concatenate([[0], np.cumsum(batches.num_items)[:-1]])
    item_id = np.repeat(item_offsets, counts) + item_index
    return batch_of_instance, position, item_id


def _validate_shard(shard: int | None, num_shards: int | None) -> bool:
    """Validate a ``(shard, num_shards)`` pair; True when shard mode is on."""
    if shard is None and num_shards is None:
        return False
    if shard is None or num_shards is None:
        raise ValueError("shard and num_shards must be given together")
    if num_shards < 1:
        raise ValueError(f"num_shards must be >= 1, got {num_shards}")
    if not 0 <= shard < num_shards:
        raise ValueError(f"shard must be in [0, {num_shards}), got {shard}")
    return True


def simulate_marketplace(
    config: SimulationConfig,
    *,
    shard: int | None = None,
    num_shards: int | None = None,
) -> MarketplaceState:
    """Run the full generative model for ``config``.  Deterministic in seed.

    With ``shard``/``num_shards`` set, the world layers (sources, envelope,
    tasks, batches, workers) are generated in full — they are cheap and the
    generative couplings (daily worker allocation, weekly load) span all
    batches — but the expensive instance *materialization* (answer strings,
    the event-log columns) is restricted to batches with
    ``batch_id % num_shards == shard``.  Numeric RNG draws are replayed at
    full size so the union of all shards is byte-identical to the monolithic
    run (see :mod:`repro.shard`).
    """
    sharded = _validate_shard(shard, num_shards)
    streams = StreamFactory(config.seed)

    with obs.span("simulate", seed=config.seed, weeks=config.num_weeks) as sp:
        with obs.span("simulate.sources"):
            sources = generate_sources(streams)
        with obs.span("simulate.envelope"):
            envelope = market_envelope(config, streams)
        with obs.span("simulate.tasks"):
            tasks = generate_tasks(config, envelope, streams)
        with obs.span("simulate.batches"):
            batches = generate_batches(config, tasks, envelope, streams)
        with obs.span("simulate.workers"):
            workers = generate_workers(config, sources, envelope, streams)

        keep_batches = None
        if sharded:
            # Partition key: batch id modulo shard count.  Must agree with
            # repro.shard.partition.shard_of_batches (kept inline here to
            # avoid an import cycle with the shard package).
            keep_batches = (
                np.arange(batches.num_batches, dtype=np.int64) % num_shards
                == shard
            )
            sp.set("shard", shard)
            sp.set("num_shards", num_shards)

        instances = simulate_instances(
            config, tasks, batches, workers, streams, keep_batches=keep_batches
        )
        sp.set("instances", instances.num_instances)
    return MarketplaceState(
        config=config,
        envelope=envelope,
        sources=sources,
        workers=workers,
        tasks=tasks,
        batches=batches,
        instances=instances,
    )


def simulate_instances(
    config: SimulationConfig,
    tasks: TaskPopulation,
    batches: BatchSchedule,
    workers: WorkerPool,
    streams: StreamFactory,
    *,
    keep_batches: np.ndarray | None = None,
) -> InstanceLog:
    """Simulate the instance-level event log for a given world.

    Exposed separately from :func:`simulate_marketplace` so controlled
    experiments (see :mod:`repro.abtest`) can run the identical pickup /
    allocation / timing / answer machinery over hand-built task and batch
    populations.

    ``keep_batches`` (bool per batch) restricts the *materialized* log to
    those batches while replaying every numeric RNG draw at full size, so a
    kept row carries exactly the bytes the monolithic run would give it.
    """
    with obs.span("simulate.instances") as sp:
        log = _simulate_instances(
            config, tasks, batches, workers, streams, keep_batches=keep_batches
        )
        sp.set("rows", log.num_instances)
    _ROWS_SIMULATED.inc(log.num_instances)
    return log


def _simulate_instances(
    config: SimulationConfig,
    tasks: TaskPopulation,
    batches: BatchSchedule,
    workers: WorkerPool,
    streams: StreamFactory,
    *,
    keep_batches: np.ndarray | None = None,
) -> InstanceLog:
    if keep_batches is not None:
        return _simulate_instances_sharded(
            config, tasks, batches, workers, streams, keep_batches
        )

    cal = config.calibration
    timing_rng = streams.stream("timing")
    answer_rng = streams.stream("answers")
    alloc_rng = streams.stream("allocation")

    batch_of_instance, position, item_id = _expand_batches(batches)
    n = len(batch_of_instance)
    task_of_instance = batches.task_idx[batch_of_instance]
    batch_start = batches.start_time[batch_of_instance]
    horizon_sec = config.num_weeks * WEEK_SECONDS

    # ------------------------------------------------------------------ #
    # Pickup times (latency): batch target x load factor x queue position.
    # ------------------------------------------------------------------ #
    with obs.span("simulate.instances.pickup"):
        load_factor = _weekly_load_factor(config, batches)[batch_of_instance]
        pickup_target = (
            tasks.base_pickup_time[task_of_instance]
            * load_factor**cal.pickup_load_exponent
        )
        sequence_factor = (
            1.0 + position / cal.pickup_parallelism
        ) ** cal.pickup_sequence_exponent
        pickup = (
            pickup_target
            * sequence_factor
            * np.exp(timing_rng.normal(0.0, cal.pickup_instance_noise_sd, size=n))
        )
        start_time = np.minimum(
            batch_start + pickup.astype(np.int64), horizon_sec - 1
        )

    # ------------------------------------------------------------------ #
    # Worker assignment (per pickup day).
    # ------------------------------------------------------------------ #
    with obs.span("simulate.instances.allocation"):
        start_days = start_time // DAY_SECONDS
        worker_id = allocate_workers(start_days, workers, alloc_rng, cal)

    # ------------------------------------------------------------------ #
    # Task times (cost): batch base x instance noise x worker speed x
    # within-batch learning (a worker's k-th instance of a batch is faster).
    # ------------------------------------------------------------------ #
    with obs.span("simulate.instances.timing"):
        task_time = (
            tasks.base_task_time[task_of_instance]
            * np.exp(
                timing_rng.normal(0.0, cal.task_time_instance_noise_sd, size=n)
            )
            * workers.speed[worker_id]
        )
        if cal.within_batch_learning_exponent:
            experience = _within_batch_experience(
                batch_of_instance, worker_id, start_time
            )
            task_time = task_time * (
                (1.0 + experience) ** -cal.within_batch_learning_exponent
            )
        end_time = start_time + np.maximum(task_time.astype(np.int64), 1)

    # ------------------------------------------------------------------ #
    # Trust scores.
    # ------------------------------------------------------------------ #
    trust = np.clip(
        workers.accuracy[worker_id]
        + answer_rng.normal(0.0, cal.trust_noise_sd, size=n),
        0.0,
        1.0,
    )

    # ------------------------------------------------------------------ #
    # Answers.
    # ------------------------------------------------------------------ #
    with obs.span("simulate.instances.answers"):
        response = _generate_responses(
            config,
            tasks,
            batches,
            batch_of_instance,
            task_of_instance,
            item_id,
            workers,
            worker_id,
            answer_rng,
        )

    return InstanceLog(
        batch_idx=batch_of_instance,
        task_idx=task_of_instance,
        item_id=item_id,
        worker_id=worker_id,
        start_time=start_time.astype(np.int64),
        end_time=end_time.astype(np.int64),
        trust=trust,
        response=response,
    )


def _simulate_instances_sharded(
    config: SimulationConfig,
    tasks: TaskPopulation,
    batches: BatchSchedule,
    workers: WorkerPool,
    streams: StreamFactory,
    keep_batches: np.ndarray,
) -> InstanceLog:
    """Shard-mode twin of :func:`_simulate_instances`: same draws, bounded
    memory.

    Every RNG call is replayed with the monolithic size and order (the
    timing/allocation/answer streams are shared across shards), but each
    full-length array is sliced down to this shard's rows at its first
    opportunity and the full-length original freed — elementwise arithmetic
    commutes with row selection, so a kept row still carries exactly the
    bytes the monolithic run would give it (the differential suite in
    ``tests/test_shard_equivalence.py`` pins this).  The only full-length
    arrays that must *persist* across stages are the pickup → start-time →
    allocation chain: worker allocation draws couple globally per pickup
    day, so it cannot run on a slice.
    """
    cal = config.calibration
    timing_rng = streams.stream("timing")
    answer_rng = streams.stream("answers")
    alloc_rng = streams.stream("allocation")

    batch_of_instance, position, item_id = _expand_batches(batches)
    n = len(batch_of_instance)
    horizon_sec = config.num_weeks * WEEK_SECONDS

    keep = keep_batches[batch_of_instance]
    sel = np.flatnonzero(keep)
    del keep
    item_sel = item_id[sel]
    del item_id  # answers only read this shard's item rows

    # ------------------------------------------------------------------ #
    # Pickup times.  The product accumulates in place, in the monolithic
    # association order ((target * sequence) * noise), so the bytes match.
    # ------------------------------------------------------------------ #
    with obs.span("simulate.instances.pickup"):
        task_of_instance = batches.task_idx[batch_of_instance]
        task_sel = task_of_instance[sel]
        pickup = (
            tasks.base_pickup_time[task_of_instance]
            * _weekly_load_factor(config, batches)[batch_of_instance]
            ** cal.pickup_load_exponent
        )
        del task_of_instance
        batch_sel = batch_of_instance[sel]
        batch_start = batches.start_time[batch_of_instance]
        del batch_of_instance
        pickup *= (
            1.0 + position / cal.pickup_parallelism
        ) ** cal.pickup_sequence_exponent
        del position
        noise = timing_rng.normal(0.0, cal.pickup_instance_noise_sd, size=n)
        np.exp(noise, out=noise)  # in place: one full-length transient fewer
        pickup *= noise
        del noise
        start_time = batch_start + pickup.astype(np.int64)
        np.minimum(start_time, horizon_sec - 1, out=start_time)
        del batch_start, pickup

    # ------------------------------------------------------------------ #
    # Worker assignment — the one stage that must stay full length: each
    # pickup day's allocation draws depend on every instance landing on it.
    # ------------------------------------------------------------------ #
    with obs.span("simulate.instances.allocation"):
        start_days = start_time // DAY_SECONDS
        worker_id = allocate_workers(start_days, workers, alloc_rng, cal)
        del start_days
        start_sel = start_time[sel]
        del start_time
        worker_sel = worker_id[sel]
        del worker_id

    # ------------------------------------------------------------------ #
    # Task times.  ``_within_batch_experience`` runs on the slice alone:
    # its (batch, worker) runs never cross shards (batches are whole within
    # a shard) and slicing preserves the stable lexsort's tie order, so the
    # within-run ranks are unchanged.
    # ------------------------------------------------------------------ #
    with obs.span("simulate.instances.timing"):
        noise = timing_rng.normal(
            0.0, cal.task_time_instance_noise_sd, size=n
        )[sel]
        np.exp(noise, out=noise)
        task_time = (
            tasks.base_task_time[task_sel] * noise * workers.speed[worker_sel]
        )
        del noise
        if cal.within_batch_learning_exponent:
            experience = _within_batch_experience(
                batch_sel, worker_sel, start_sel
            )
            task_time = task_time * (
                (1.0 + experience) ** -cal.within_batch_learning_exponent
            )
        end_time = start_sel + np.maximum(task_time.astype(np.int64), 1)

    # ------------------------------------------------------------------ #
    # Trust scores.
    # ------------------------------------------------------------------ #
    trust = np.clip(
        workers.accuracy[worker_sel]
        + answer_rng.normal(0.0, cal.trust_noise_sd, size=n)[sel],
        0.0,
        1.0,
    )

    # ------------------------------------------------------------------ #
    # Answers.
    # ------------------------------------------------------------------ #
    with obs.span("simulate.instances.answers"):
        response = _generate_responses_sharded(
            config,
            tasks,
            batches,
            workers,
            answer_rng,
            n=n,
            sel=sel,
            task_sel=task_sel,
            item_sel=item_sel,
            worker_sel=worker_sel,
        )

    return InstanceLog(
        batch_idx=batch_sel,
        task_idx=task_sel,
        item_id=item_sel,
        worker_id=worker_sel,
        start_time=start_sel.astype(np.int64),
        end_time=end_time.astype(np.int64),
        trust=trust,
        response=response,
        instance_id=sel.astype(np.int64),
    )


def _within_batch_experience(
    batch_of_instance: np.ndarray,
    worker_id: np.ndarray,
    start_time: np.ndarray,
) -> np.ndarray:
    """0-based rank of each instance within its (batch, worker) sequence,
    ordered by start time — i.e. how many instances of this batch the worker
    has already completed.

    One stable argsort over the composite key
    ``(batch * W + worker) * span + (start - min_start)`` gives exactly the
    order of a stable lexsort by (batch, worker, start): worker ids lie in
    ``[0, W)`` and the shifted batch and start parts are non-negative and
    below their radix, so the key orders rows like the triple, and ties
    keep their input order.  Raises ``OverflowError`` if the key could
    exceed int64.
    """
    n = len(batch_of_instance)
    if n == 0:
        return np.empty(0, dtype=np.float64)
    min_batch = int(batch_of_instance.min())
    min_start = int(start_time.min())
    num_workers = int(worker_id.max()) + 1
    span = int(start_time.max()) - min_start + 1
    num_batches = int(batch_of_instance.max()) - min_batch + 1
    if num_batches * num_workers * span > np.iinfo(np.int64).max:
        raise OverflowError(
            f"(batch, worker, start) key needs {num_batches} batches x "
            f"{num_workers} workers x {span} s of start times, "
            f"above the int64 bound {np.iinfo(np.int64).max}"
        )
    run_key = batch_of_instance.astype(np.int64)
    run_key -= min_batch
    run_key *= num_workers
    run_key += worker_id
    key = run_key * span
    key += start_time
    key -= min_start
    order = np.argsort(key, kind="stable")
    del key
    sorted_run = run_key[order]
    del run_key
    new_run = np.empty(n, dtype=bool)
    new_run[0] = True
    np.not_equal(sorted_run[1:], sorted_run[:-1], out=new_run[1:])
    del sorted_run
    run_id = np.cumsum(new_run) - 1
    position = np.arange(n, dtype=np.int64)
    run_starts = position[new_run]
    del new_run
    position -= run_starts[run_id]
    del run_id, run_starts
    experience = np.empty(n, dtype=np.float64)
    experience[order] = position
    return experience


def _build_choice_pool(
    num_choices: np.ndarray, textual: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The concatenated per-task answer-string pools, built in one pass.

    Returns ``(pool_array, pool_offsets)`` such that
    ``pool_array[pool_offsets[t] + k]`` is the k-th alternative of task
    ``t`` — string-for-string identical to concatenating
    :func:`repro.simulator.answers.choice_strings` per task, but with the
    offsets precomputed via ``np.cumsum`` and every slot filled from flat
    (task, k) index arrays instead of a per-task loop.
    """
    counts = num_choices.astype(np.int64)
    num_tasks = len(counts)
    pool_offsets = np.concatenate([[0], np.cumsum(counts)[:-1]]).astype(np.int64)
    total = int(counts.sum())
    task_of_slot = np.repeat(np.arange(num_tasks, dtype=np.int64), counts)
    k_of_slot = np.arange(total, dtype=np.int64) - pool_offsets[task_of_slot]

    pool_array = np.empty(total, dtype=object)
    textual_slot = textual[task_of_slot]
    binary_slot = ~textual_slot & (counts[task_of_slot] == 2)
    option_slot = ~textual_slot & ~binary_slot

    pool_array[binary_slot & (k_of_slot == 0)] = "yes"
    pool_array[binary_slot & (k_of_slot == 1)] = "no"
    if option_slot.any():
        max_k = int(k_of_slot[option_slot].max()) + 1
        option_strings = np.array(
            [f"option_{k + 1}" for k in range(max_k)], dtype=object
        )
        pool_array[option_slot] = option_strings[k_of_slot[option_slot]]
    if textual_slot.any():
        t_idx = task_of_slot[textual_slot].tolist()
        k_idx = k_of_slot[textual_slot].tolist()
        pool_array[textual_slot] = np.array(
            [f"task{t}_answer_{k}" for t, k in zip(t_idx, k_idx)], dtype=object
        )
    return pool_array, pool_offsets


def _generate_responses(
    config: SimulationConfig,
    tasks: TaskPopulation,
    batches: BatchSchedule,
    batch_of_instance: np.ndarray,
    task_of_instance: np.ndarray,
    item_id: np.ndarray,
    workers: WorkerPool,
    worker_id: np.ndarray,
    rng: np.random.Generator,
) -> DictColumn:
    """Response strings for every instance, dictionary-coded."""
    cal = config.calibration
    n = len(batch_of_instance)

    # Per-task modal-answer probability from the target disagreement.
    num_choices = tasks.num_choices.astype(np.int64)
    q_task = modal_probability_for_disagreement(
        tasks.target_disagreement, num_choices
    )

    # Per-item latent modal answer.  Items are globally indexed in batch
    # order; each item's choice count is its batch's task's.
    total_items = int(batches.num_items.sum())
    m_of_batch = num_choices[batches.task_idx]
    m_of_item = np.repeat(m_of_batch, batches.num_items)
    true_answer_of_item = (
        rng.random(total_items) * m_of_item
    ).astype(np.int64)

    m_inst = m_of_item[item_id]
    true_inst = true_answer_of_item[item_id]

    # Worker-modulated modal probability.
    q_inst = np.clip(
        q_task[task_of_instance]
        + cal.worker_accuracy_coupling
        * (workers.accuracy[worker_id] - cal.mean_worker_accuracy),
        0.02,
        0.999,
    )
    correct = rng.random(n) < q_inst
    wrong_offset = 1 + (rng.random(n) * (m_inst - 1)).astype(np.int64)
    answer_idx = np.where(correct, true_inst, (true_inst + wrong_offset) % m_inst)

    # Map answer indices to strings through a global per-task choice pool;
    # subjective free-form tasks answer uniquely, keyed by instance id.
    return _response_column(
        tasks, num_choices, task_of_instance, answer_idx,
        np.flatnonzero(tasks.subjective[task_of_instance]), None,
    )


def _generate_responses_sharded(
    config: SimulationConfig,
    tasks: TaskPopulation,
    batches: BatchSchedule,
    workers: WorkerPool,
    rng: np.random.Generator,
    *,
    n: int,
    sel: np.ndarray,
    task_sel: np.ndarray,
    item_sel: np.ndarray,
    worker_sel: np.ndarray,
) -> DictColumn:
    """Shard-mode :func:`_generate_responses`: draws at full size ``n`` (the
    answer stream must match the monolithic run byte for byte), everything
    derived — modal probabilities, correctness, answer indices, and the
    response codes — only on the ``sel`` rows this shard
    owns.  Subjective responses are keyed by *global* instance id so the
    union of shards reproduces the monolithic strings exactly.
    """
    cal = config.calibration

    num_choices = tasks.num_choices.astype(np.int64)
    q_task = modal_probability_for_disagreement(
        tasks.target_disagreement, num_choices
    )

    # The per-item modal answers stay full length: items are globally
    # indexed, and their array is item-sized, far below instance-sized.
    total_items = int(batches.num_items.sum())
    m_of_batch = num_choices[batches.task_idx]
    m_of_item = np.repeat(m_of_batch, batches.num_items)
    true_answer_of_item = (
        rng.random(total_items) * m_of_item
    ).astype(np.int64)

    m_sel = m_of_item[item_sel]
    true_sel = true_answer_of_item[item_sel]
    del m_of_item, true_answer_of_item

    q_sel = np.clip(
        q_task[task_sel]
        + cal.worker_accuracy_coupling
        * (workers.accuracy[worker_sel] - cal.mean_worker_accuracy),
        0.02,
        0.999,
    )
    correct = rng.random(n)[sel] < q_sel
    wrong_offset = 1 + (rng.random(n)[sel] * (m_sel - 1)).astype(np.int64)
    answer_idx = np.where(correct, true_sel, (true_sel + wrong_offset) % m_sel)

    return _response_column(
        tasks, num_choices, task_sel, answer_idx,
        np.flatnonzero(tasks.subjective[task_sel]), sel,
    )


def _response_column(
    tasks: TaskPopulation,
    num_choices: np.ndarray,
    task_of_row: np.ndarray,
    answer_idx: np.ndarray,
    subjective_rows: np.ndarray,
    global_ids: np.ndarray | None,
) -> DictColumn:
    """The response column as codes over the distinct answer strings.

    The choice pool repeats ``yes``/``no``/``option_k`` across tasks, so
    pool slots are deduplicated first and each row's code is its slot's
    distinct string.  Free-form rows get one fresh string each, named by
    global instance id (``global_ids[row]``, or the row itself when the
    rows are the dense monolithic log).  Not canonical: the release
    compacts the column once it has dropped the unsampled rows.
    """
    textual = np.array(
        [ops[0] in TEXT_RESPONSE_OPERATORS for ops in tasks.operators]
    )
    pool_array, pool_offsets = _build_choice_pool(num_choices, textual)
    slot_codes, pool_uniques = factorize(pool_array)
    codes = slot_codes.astype(np.int32)[pool_offsets[task_of_row] + answer_idx]
    ids = subjective_rows if global_ids is None else global_ids[subjective_rows]
    freeform = np.array(
        [f"freeform response #{i}" for i in ids.tolist()], dtype=object
    )
    codes[subjective_rows] = len(pool_uniques) + np.arange(
        len(subjective_rows), dtype=np.int32
    )
    return DictColumn(codes, np.concatenate([pool_uniques, freeform]))

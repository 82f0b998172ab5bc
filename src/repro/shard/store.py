"""Spill-to-disk store for per-shard pipeline partials.

A shard partial is everything the merge needs from one shard: its slice of
the released instance table, the per-batch design/metrics tables, the
rendered HTML, and precomputed shingle arrays (so the global clustering
pass at merge time does not re-shingle).  Shard 0 additionally carries the
batch catalog, which is global and identical across shards.

Entries live under a hidden ``.shards/`` directory inside the cache root,
keyed by ``study_key(config)`` (so any code or config change invalidates
automatically) plus the shard count.  They are written and read through
the entry protocol of :mod:`repro.cache` (atomic rename, per-file SHA-256
checksums verified before any byte is deserialized, quarantine on
damage), so a damaged spill is a miss and the shard is rebuilt in
process.  This module keeps the spill's file list and its policy: a new
spill replaces whatever entry sits in its slot.  A failed spill warns,
counts in ``shard.store_failed``, and keeps the in-memory partial.

Fault-injection sites (:mod:`repro.faults`): ``shard.save:fail`` makes the
spill raise, ``shard.load:fail`` makes reading an entry raise, and
``shard.load:corrupt`` truncates a data file on disk so the checksum and
quarantine defenses themselves are exercised.
"""

from __future__ import annotations

import functools
import shutil
import time
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from repro import cache as study_cache, obs

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.simulator.config import SimulationConfig
    from repro.tables import DictColumn, Table

#: Bump when the shard-partial layout changes incompatibly.
#: v2: dictionary columns spilled as canonical codes plus uniques.
#: v3: the design table carries the label reading columns.
SHARD_SCHEMA_VERSION = 3

_SPILLS = obs.counter("shard.spilled")
_LOAD_HITS = obs.counter("shard.load_hit")
_STORE_FAILED = obs.counter("shard.store_failed")
_CORRUPT = obs.counter("shard.corrupt")
_SPILL_SECONDS = obs.histogram("shard.spill_seconds")
_LOAD_SECONDS = obs.histogram("shard.load_seconds")
#: Seconds of spill I/O that ran concurrently with the next shard's
#: compute (per spill): the spill's wall time minus whatever the driver
#: actually had to wait for it.  Zero means the build was spill-bound.
_OVERLAP_SECONDS = obs.histogram("shard.overlap_seconds")

#: Spilled tables; ``catalog`` is only present on shard 0.
_TABLE_FILES = {
    "instances": "instances.npz",
    "design": "design.npz",
    "metrics": "metrics.npz",
    "catalog": "catalog.npz",
}


class SpilledTable:
    """Read-on-demand view of one spilled table.

    Each column access opens the archive, reads that single column (a
    dictionary column's codes and uniques), and returns it without
    retaining a reference — so a merge that walks the union column by
    column holds one shard-column at a time instead of every shard's whole
    table.  Handed out only after the entry's checksums have been verified
    and its dictionary columns checked canonical (:func:`load_partial`
    with ``lean``).
    """

    def __init__(self, path: Path, column_order: list[str]) -> None:
        self._path = path
        self._column_names = list(column_order)

    @property
    def column_names(self) -> list[str]:
        return list(self._column_names)

    def column(self, name: str) -> "np.ndarray | DictColumn":
        """Raw column storage, as :meth:`repro.tables.Table.column`."""
        with np.load(self._path, allow_pickle=True) as archive:
            return study_cache.read_column(archive, name)

    def __getitem__(self, name: str) -> np.ndarray:
        from repro.tables.table import _as_array

        return _as_array(self.column(name))

    def check_dictionaries(self) -> None:
        """Read every dictionary column once, so a non-canonical one is
        damage found while the entry is being loaded, not mid-merge."""
        with np.load(self._path, allow_pickle=True) as archive:
            for name in self._column_names:
                if name not in archive:
                    study_cache.read_column(archive, name)


@dataclass
class ShardPartial:
    """One shard's contribution to the merged study."""

    shard: int
    num_shards: int
    #: The global batch catalog — identical across shards, carried only by
    #: shard 0 (``None`` elsewhere).
    catalog: "Table | None"
    instances: "Table | SpilledTable"
    design: "Table"
    metrics: "Table"
    batch_html: dict[int, str]
    #: Sorted batch ids with HTML, aligned with ``shingle_arrays``.
    shingle_ids: np.ndarray
    shingle_arrays: list[np.ndarray]


def _entry_dir(
    config: "SimulationConfig", num_shards: int, shard: int
) -> Path:
    """A shard's entry under the cache root's hidden ``.shards`` directory.

    Hidden (dot-prefixed) so :func:`repro.cache.list_entries` and
    ``clear_cache`` treat shard spills as internal scratch, not entries.
    """
    key = study_cache.study_key(config)[:32]
    return (
        study_cache.cache_dir() / ".shards" / f"{key}-k{num_shards}"
        / f"shard-{shard:04d}"
    )


def _write_partial_files(
    config: "SimulationConfig", partial: ShardPartial, tmp: Path
) -> dict:
    column_orders = {
        name: study_cache.save_table(table, tmp / filename)
        for name, filename in _TABLE_FILES.items()
        if (table := getattr(partial, name)) is not None
    }
    study_cache.save_html(tmp / "html.npz", partial.batch_html)
    counts = np.array([len(a) for a in partial.shingle_arrays], dtype=np.int64)
    flat = (
        np.concatenate(partial.shingle_arrays)
        if partial.shingle_arrays
        else np.empty(0, dtype=np.uint64)
    )
    np.savez(
        tmp / "shingles.npz",
        batch_id=np.asarray(partial.shingle_ids, dtype=np.int64),
        counts=counts,
        flat=flat.astype(np.uint64, copy=False),
    )
    return {
        "shard": partial.shard,
        "num_shards": partial.num_shards,
        "config": study_cache.jsonable(config),
        "column_orders": column_orders,
        "num_instances": partial.instances.num_rows,
        "num_batches": len(partial.batch_html),
    }


def store_partial(
    config: "SimulationConfig", partial: ShardPartial
) -> Path | None:
    """Spill ``partial``, replacing its slot; the entry path or ``None``.

    A failed spill (I/O error or ``shard.save:fail``) leaves no entry,
    warns, and counts ``shard.store_failed``; the caller keeps the
    in-memory partial.
    """
    t0 = time.perf_counter()
    final = _entry_dir(config, partial.num_shards, partial.shard)
    shutil.rmtree(final, ignore_errors=True)
    entry = study_cache.write_entry(
        final, SHARD_SCHEMA_VERSION,
        functools.partial(_write_partial_files, config, partial),
        fault_site="shard.save",
    )
    if entry is None:
        _STORE_FAILED.inc()
        warnings.warn(
            f"repro.shard: failed to spill shard {partial.shard} of "
            f"{partial.num_shards} (keeping it in memory; the merged study "
            f"is unaffected)",
            RuntimeWarning,
            stacklevel=2,
        )
    else:
        _SPILLS.inc()
    _SPILL_SECONDS.observe(time.perf_counter() - t0)
    return entry


class SpillWriter:
    """Double-buffered background spill: at most one spill in flight.

    A serial shard build alternates *compute* (simulate + enrich one
    shard) with *spill I/O* (checksum + write the partial).  This writer
    overlaps the two: :meth:`submit` hands the just-built partial to a
    background thread and returns immediately, so shard ``k``'s spill
    runs while shard ``k+1`` simulates.  Submitting first **drains** any
    spill still in flight — exactly two buffers ever exist (the partial
    being built and the one being written), so peak memory is bounded at
    two shards' working sets regardless of shard count.

    Failure posture is :func:`store_partial`'s own: a failed spill keeps
    the partial referenced in the outcome (the caller folds it back in
    memory), warns, and counts ``shard.store_failed`` — the writer never
    swallows an outcome.  Each drained spill records how much of its wall
    time ran concurrently with compute in ``shard.overlap_seconds``.

    Single-producer: ``submit``/``finish`` must be called from one
    thread.  Use as a context manager or call :meth:`finish`; outcomes
    are ``{shard: (entry_path_or_None, partial)}``.
    """

    def __init__(self, config: "SimulationConfig") -> None:
        import threading

        self._config = config
        self._threading = threading
        self._thread: "threading.Thread | None" = None
        self._inflight: ShardPartial | None = None
        self._inflight_result: list = []
        self.outcomes: dict[int, tuple[Path | None, ShardPartial]] = {}

    def _drain(self) -> None:
        """Wait for the in-flight spill (if any) and record its outcome."""
        if self._thread is None:
            return
        wait_start = time.perf_counter()
        self._thread.join()
        waited = time.perf_counter() - wait_start
        entry, spill_wall = self._inflight_result[0]
        if isinstance(spill_wall, BaseException):
            # Re-raise on the driver thread, where the inline spill of the
            # pre-writer code path would have raised it.
            self._thread = None
            self._inflight = None
            raise spill_wall
        _OVERLAP_SECONDS.observe(max(0.0, spill_wall - waited))
        partial = self._inflight
        assert partial is not None
        self.outcomes[partial.shard] = (entry, partial)
        self._thread = None
        self._inflight = None
        self._inflight_result = []

    def submit(self, partial: ShardPartial) -> None:
        """Spill ``partial`` in the background (drains the previous one)."""
        self._drain()
        result = self._inflight_result = []
        config = self._config

        def _spill() -> None:
            t0 = time.perf_counter()
            try:
                entry = store_partial(config, partial)
            except BaseException as exc:  # re-raised by _drain
                result.append((None, exc))
                return
            result.append((entry, time.perf_counter() - t0))

        self._inflight = partial
        self._thread = self._threading.Thread(
            target=_spill, name="repro-spill-writer", daemon=True
        )
        self._thread.start()

    def finish(self) -> dict[int, tuple[Path | None, ShardPartial]]:
        """Drain the last spill and return every outcome by shard."""
        self._drain()
        return self.outcomes

    def __enter__(self) -> "SpillWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self._drain()


def _read_partial(
    shard: int, num_shards: int, lean: bool, entry: Path, manifest: dict
) -> ShardPartial:
    orders = manifest["column_orders"]
    tables: dict[str, "Table | SpilledTable"] = {
        name: study_cache.load_table(entry / filename, orders[name])
        for name, filename in _TABLE_FILES.items()
        if name in orders and not (lean and name == "instances")
    }
    if lean:
        tables["instances"] = SpilledTable(
            entry / _TABLE_FILES["instances"], orders["instances"]
        )
        tables["instances"].check_dictionaries()
    # HTML before shingles: the other order raises the peak RSS of a
    # 4-shard medium build by 9 MB.
    batch_html = study_cache.load_html(entry / "html.npz")
    with np.load(entry / "shingles.npz") as archive:
        shingle_ids = archive["batch_id"].astype(np.int64)
        counts = archive["counts"]
        flat = archive["flat"].astype(np.uint64)
    shingle_arrays = (
        list(np.split(flat, np.cumsum(counts)[:-1])) if len(counts) else []
    )
    return ShardPartial(
        shard=shard,
        num_shards=num_shards,
        catalog=tables.get("catalog"),
        instances=tables["instances"],
        design=tables["design"],
        metrics=tables["metrics"],
        batch_html=batch_html,
        shingle_ids=shingle_ids,
        shingle_arrays=shingle_arrays,
    )


def load_partial(
    config: "SimulationConfig", num_shards: int, shard: int, *,
    lean: bool = False,
) -> ShardPartial | None:
    """Load a spilled shard partial; ``None`` on miss or damage.

    Damage quarantines the entry (counted in ``shard.corrupt``), so the
    caller rebuilds the shard in process.  With ``lean``, the (large)
    instance table comes back as a :class:`SpilledTable` read-on-demand
    view, so a column-wise merge over many shards holds one shard-column
    at a time; the batch-sized rest loads eagerly.  The view is handed
    out only after the whole entry's checksums verify.
    """
    t0 = time.perf_counter()
    partial = study_cache.read_entry(
        _entry_dir(config, num_shards, shard), SHARD_SCHEMA_VERSION,
        functools.partial(_read_partial, shard, num_shards, lean),
        fault_site="shard.load", corrupt=_CORRUPT,
    )
    if partial is not None:
        _LOAD_HITS.inc()
        _LOAD_SECONDS.observe(time.perf_counter() - t0)
    return partial

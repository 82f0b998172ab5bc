"""Content-addressed on-disk cache for built studies.

``build_study`` is a pure function of ``(SimulationConfig, code)``: the
simulator, release lens, and enrichment pipeline are all deterministic in
the seed.  That makes the released + enriched layers safe to persist and
reuse across sessions — a warm ``build_study`` skips simulation and
enrichment entirely.

Keying
------
A cache entry's key is the SHA-256 of:

- a schema version (bumped when the on-disk layout changes),
- a *code fingerprint* — the hash of every ``.py`` file in the packages
  that determine the released/enriched bytes (simulator, dataset,
  enrichment, htmlgen, html, tables, taxonomy, stats, parallel) — so any
  code change invalidates automatically, and
- every field of the :class:`~repro.simulator.config.SimulationConfig`
  (including the full calibration), normalized to JSON.

Layout
------
One directory per key under the cache root (``REPRO_CACHE_DIR`` env var,
default ``~/.cache/repro-study``): tables as ``.npz`` (object columns
pickled inside the archive; a dictionary column as two members, its
canonical ``<name>@codes`` in the narrowest unsigned dtype and
``<name>@uniques``), the HTML corpus and batch→cluster map as npz
object/int arrays, plus a human-readable ``manifest.json``.  Hidden
dot-directories (shard spills, temp and quarantine dirs) are not entries.

The entry protocol
------------------
This module owns it; :mod:`repro.shard.store` spills use it too
(:func:`write_entry`, :func:`read_entry`).  An entry is written into a
temp directory beside its slot, with a manifest recording a SHA-256
checksum per data file written last, and renamed into place, so readers
never observe a partial entry.  Every checksum is verified before any
file is deserialized.  An entry of another schema version is a plain miss
and is left alone.  An entry that fails verification or deserialization
(truncated archive, corrupt pickled object column, a dictionary column
that is not canonical) is *quarantined*:
renamed to a hidden ``.quarantine-*`` directory (best effort), counted
(``cache.corrupt``), and reported as a miss, so the next build re-writes
it.  A failed write warns (``RuntimeWarning``) and counts in
``cache.write_failed`` but never loses the in-memory study.  Listing and
clearing tolerate concurrent eviction and skip ``.<key>-*`` temp dirs.

Deterministic fault injection (:mod:`repro.faults`): ``cache.write:fail``
makes the entry write raise, ``cache.load:fail`` makes reading an existing
entry raise, and ``cache.load:corrupt`` truncates a data file on disk so
the checksum/quarantine defenses themselves are exercised (the shard
store's ``shard.save``/``shard.load`` fire at the same points).
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import os
import pickle
import shutil
import stat as stat_module
import tempfile
import time
import warnings
import zipfile
import zlib
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Mapping

import numpy as np

from repro import faults, obs

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.dataset.release import ReleasedDataset
    from repro.enrichment.pipeline import EnrichedDataset
    from repro.simulator.config import SimulationConfig
    from repro.tables import DictColumn, Table

#: Environment variable overriding the cache root directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"
#: Environment variable disabling the cache entirely (any non-empty value).
NO_CACHE_ENV = "REPRO_NO_CACHE"

_DEFAULT_CACHE_DIR = "~/.cache/repro-study"

#: Bump when the on-disk layout changes incompatibly.
#: v2: per-file SHA-256 checksums in the manifest, verified on load.
#: v3: dictionary columns stored as canonical codes plus uniques.
_SCHEMA_VERSION = 3

#: Packages/modules (relative to the ``repro`` package root) whose source
#: determines the cached bytes.  Figures/analysis/reporting run on top of
#: the cached layers and deliberately do not invalidate.
_CODE_SCOPE = (
    "simulator",
    "dataset",
    "enrichment",
    "htmlgen",
    "html",
    "tables",
    "taxonomy",
    "stats",
    "parallel.py",
)

#: Cache-traffic counters: a cold ``build_study`` is one miss + one write, a
#: warm rebuild is one hit, and ``REPRO_NO_CACHE`` records none of them.
_HITS = obs.counter("cache.hit")
_MISSES = obs.counter("cache.miss")
_WRITES = obs.counter("cache.write")
_BYTES_WRITTEN = obs.counter("cache.bytes_written")
_BYTES_READ = obs.counter("cache.bytes_read")
#: Entries that failed checksum verification or deserialization (each is
#: also a miss) and writes that could not be persisted.
_CORRUPT = obs.counter("cache.corrupt")
_WRITE_FAILED = obs.counter("cache.write_failed")
#: Entry read/write latency distributions (seconds).
_LOAD_SECONDS = obs.histogram("cache.load_seconds")
_STORE_SECONDS = obs.histogram("cache.store_seconds")

#: Exceptions a damaged on-disk entry can raise while being read: plain
#: I/O and JSON/shape errors, plus everything a truncated ``.npz`` throws
#: (bad zip structure, short reads, corrupt pickled object columns).
_ENTRY_READ_ERRORS = (
    OSError,
    KeyError,
    ValueError,  # includes json.JSONDecodeError
    EOFError,
    pickle.UnpicklingError,
    zipfile.BadZipFile,
    zlib.error,
)

_RELEASED_TABLES = ("batch_catalog", "instances")
_TABLE_FILES = {
    "batch_catalog": "released_batch_catalog.npz",
    "instances": "released_instances.npz",
    "batch_table": "enriched_batch_table.npz",
    "cluster_table": "enriched_cluster_table.npz",
    "labels": "enriched_labels.npz",
}


def cache_dir() -> Path:
    """The cache root (``REPRO_CACHE_DIR`` env var or ``~/.cache/repro-study``)."""
    raw = os.environ.get(CACHE_DIR_ENV, "").strip() or _DEFAULT_CACHE_DIR
    return Path(raw).expanduser()


def cache_enabled(explicit: bool | None = None) -> bool:
    """Resolve whether the cache should be used.

    ``explicit`` (from an API/CLI caller) wins; otherwise the cache is on
    unless ``REPRO_NO_CACHE`` is set to a non-empty value.
    """
    if explicit is not None:
        return explicit
    return not os.environ.get(NO_CACHE_ENV, "").strip()


_code_fingerprint_cache: str | None = None


def code_fingerprint() -> str:
    """SHA-256 over the source files that determine cached content."""
    global _code_fingerprint_cache
    if _code_fingerprint_cache is None:
        root = Path(__file__).resolve().parent
        digest = hashlib.sha256()
        for entry in _CODE_SCOPE:
            path = root / entry
            files = sorted(path.rglob("*.py")) if path.is_dir() else [path]
            for file in files:
                digest.update(str(file.relative_to(root)).encode())
                digest.update(file.read_bytes())
        _code_fingerprint_cache = digest.hexdigest()
    return _code_fingerprint_cache


def jsonable(value: Any) -> Any:
    """Normalize config values (enums, tuples, nested dataclasses) to JSON."""
    if isinstance(value, enum.Enum):
        return value.value
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: jsonable(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, Mapping):
        return {str(jsonable(k)): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, (np.integer, np.floating, np.bool_)):
        return value.item()
    return value


def study_key(config: "SimulationConfig") -> str:
    """Content-addressed cache key for a simulation configuration."""
    payload = {
        "schema": _SCHEMA_VERSION,
        "code": code_fingerprint(),
        "config": jsonable(config),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


# --------------------------------------------------------------------- #
# The on-disk entry protocol (study entries and shard spills)
# --------------------------------------------------------------------- #


#: Archive member suffixes of a dictionary column's two arrays.
_CODES = "@codes"
_UNIQUES = "@uniques"


def save_table(table: "Table", path: Path) -> list[str]:
    """Write ``table`` as one ``.npz``; returns its column order.

    A dictionary column is written as its canonical codes, in the
    narrowest unsigned dtype that holds them, and its uniques, so it never
    turns into an instance-sized object array on disk.
    """
    from repro.tables.column import DictColumn, canonical_dict

    arrays = {}
    for name in table.column_names:
        column = table.column(name)
        if isinstance(column, DictColumn):
            column = canonical_dict(column)
            width = np.min_scalar_type(max(len(column.uniques) - 1, 0))
            arrays[name + _CODES] = column.codes.astype(width)
            arrays[name + _UNIQUES] = column.uniques
        else:
            arrays[name] = column
    np.savez(path, **arrays)
    return list(table.column_names)


def read_column(archive: Any, name: str) -> "np.ndarray | DictColumn":
    """One column of an open ``.npz`` table archive.

    A dictionary column that is not canonical raises ``ValueError``, which
    the entry protocol treats as damage.
    """
    from repro.tables.column import DictColumn, check_canonical

    if name in archive:
        return archive[name]
    column = DictColumn(archive[name + _CODES], archive[name + _UNIQUES])
    check_canonical(column)
    return column


def load_table(path: Path, column_order: list[str]) -> "Table":
    from repro.tables import Table

    with np.load(path, allow_pickle=True) as archive:
        columns = {name: read_column(archive, name) for name in column_order}
    return Table(columns, copy=False)


def save_html(path: Path, batch_html: Mapping[int, str]) -> None:
    """Write a batch -> HTML map as sorted ids plus an object array."""
    ids = np.array(sorted(batch_html), dtype=np.int64)
    docs = np.array([batch_html[int(b)] for b in ids], dtype=object)
    np.savez(path, batch_id=ids, html=docs)


def load_html(path: Path) -> dict[int, str]:
    with np.load(path, allow_pickle=True) as archive:
        return {
            int(b): str(doc)
            for b, doc in zip(archive["batch_id"], archive["html"])
        }


def _entry_size_bytes(entry: Path) -> int:
    try:
        files = list(entry.iterdir())
    except OSError:
        return 0
    total = 0
    for f in files:
        try:
            st = f.stat()
        except OSError:
            continue  # deleted by a concurrent eviction mid-iteration
        if stat_module.S_ISREG(st.st_mode):
            total += st.st_size
    return total


def _sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _quarantine_entry(entry: Path) -> None:
    """Move a damaged entry out of its key slot (best effort).

    The hidden ``.quarantine-*`` name keeps it around for forensics while
    making the key slot free for a rebuild; if the rename races or fails,
    fall back to deleting the entry outright.  Either way the next build
    sees a clean miss and re-writes the entry.
    """
    target = entry.parent / f".quarantine-{entry.name[:16]}"
    try:
        if target.exists():
            shutil.rmtree(target, ignore_errors=True)
        entry.rename(target)
    except OSError:
        shutil.rmtree(entry, ignore_errors=True)


def _corrupt_entry(entry: Path) -> None:
    """Injected ``*.load:corrupt``: physically truncate one data file, so
    the real checksum/deserialization defenses are what gets exercised."""
    candidates = sorted(entry.glob("*.npz"))
    if candidates:
        data = candidates[0].read_bytes()
        candidates[0].write_bytes(data[: len(data) // 2])


def write_entry(
    final: Path,
    schema: int,
    write_files: Callable[[Path], dict[str, Any]],
    *,
    fault_site: str,
) -> Path | None:
    """Write an entry atomically at ``final``; ``None`` on any I/O failure.

    ``write_files(tmp)`` writes the data files and returns the manifest's
    own fields; ``fault_site`` is checked first.  An entry already at
    ``final`` is the caller's to keep or remove beforehand.
    """
    try:
        final.parent.mkdir(parents=True, exist_ok=True)
        tmp = Path(
            tempfile.mkdtemp(prefix=f".{final.name[:16]}-", dir=final.parent)
        )
    except OSError:
        return None
    try:
        faults.check(fault_site)
        manifest = {"schema": schema, **write_files(tmp)}
        manifest["checksums"] = {
            f.name: _sha256_file(f) for f in sorted(tmp.iterdir())
        }
        (tmp / "manifest.json").write_text(json.dumps(manifest, indent=2))
        os.replace(tmp, final)
        return final
    except OSError:
        return None
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def read_entry(
    entry: Path,
    schema: int,
    read_files: Callable[[Path, dict[str, Any]], Any],
    *,
    fault_site: str,
    corrupt: "obs.Counter",
) -> Any | None:
    """Read an entry back through ``read_files(entry, manifest)``.

    ``None`` on a miss, on another ``schema`` (left in place), or on damage
    — a checksum mismatch, an unreadable file, a ``fault_site`` fault —
    which counts in ``corrupt`` and quarantines the entry.
    """
    if not entry.is_dir():
        return None
    try:
        kind = faults.fire(fault_site)
        if kind == "corrupt":
            _corrupt_entry(entry)
        elif kind == "fail":
            raise faults.InjectedFault(f"injected fault: {fault_site}:fail")
        manifest = json.loads((entry / "manifest.json").read_text())
        if manifest.get("schema") != schema:
            return None  # another layout, not damage: leave it to its owner
        for filename, expected in manifest["checksums"].items():
            if _sha256_file(entry / filename) != expected:
                raise ValueError(f"checksum mismatch in {filename}")
        return read_files(entry, manifest)
    except _ENTRY_READ_ERRORS:
        corrupt.inc()
        _quarantine_entry(entry)
        return None


# --------------------------------------------------------------------- #
# Study entries
# --------------------------------------------------------------------- #


def store_study(
    config: "SimulationConfig",
    released: "ReleasedDataset",
    enriched: "EnrichedDataset",
) -> Path | None:
    """Persist the released + enriched layers; returns the entry path.

    An existing entry for the key is kept as it is, never overwritten.
    Best-effort: any I/O failure leaves the cache unchanged and returns
    ``None`` (the caller already has the in-memory study) — but visibly:
    a failed write raises a ``RuntimeWarning`` and counts in
    ``cache.write_failed`` so a cache that never warms is diagnosable.
    """
    with obs.span("cache.store") as sp:
        t0 = time.perf_counter()
        key = study_key(config)
        entry: Path | None = cache_dir() / key
        if not entry.exists():

            def write_files(tmp: Path) -> dict[str, Any]:
                column_orders = {}
                for name, filename in _TABLE_FILES.items():
                    layer = released if name in _RELEASED_TABLES else enriched
                    column_orders[name] = save_table(
                        getattr(layer, name), tmp / filename
                    )
                save_html(tmp / "batch_html.npz", released.batch_html)
                pairs = sorted(enriched.cluster_of_batch.items())
                np.savez(
                    tmp / "cluster_of_batch.npz",
                    batch_id=np.array([b for b, _ in pairs], dtype=np.int64),
                    cluster_id=np.array([c for _, c in pairs], dtype=np.int64),
                )
                return {
                    "key": key,
                    "config": jsonable(config),
                    "column_orders": column_orders,
                    "num_instances": released.instances.num_rows,
                    "num_sampled_batches": released.num_sampled_batches,
                    "num_clusters": enriched.num_clusters,
                }

            entry = write_entry(
                entry, _SCHEMA_VERSION, write_files, fault_site="cache.write"
            )
            if entry is not None:
                _WRITES.inc()
                _BYTES_WRITTEN.inc(_entry_size_bytes(entry))
        _STORE_SECONDS.observe(time.perf_counter() - t0)
        if entry is not None:
            sp.set("entry", entry.name[:16])
        else:
            sp.set("result", "write_failed")
            _WRITE_FAILED.inc()
            warnings.warn(
                "repro.cache: failed to persist the study entry "
                "(cache left unchanged; the in-memory study is unaffected)",
                RuntimeWarning,
                stacklevel=2,
            )
    return entry


def _read_study(
    entry: Path, manifest: dict[str, Any]
) -> tuple["ReleasedDataset", "EnrichedDataset"]:
    from repro.dataset.release import ReleasedDataset
    from repro.enrichment.pipeline import EnrichedDataset

    orders = manifest["column_orders"]
    tables = {
        name: load_table(entry / filename, orders[name])
        for name, filename in _TABLE_FILES.items()
    }
    with np.load(entry / "cluster_of_batch.npz") as archive:
        cluster_of_batch = {
            int(b): int(c)
            for b, c in zip(archive["batch_id"], archive["cluster_id"])
        }
    released = ReleasedDataset(
        batch_catalog=tables["batch_catalog"],
        batch_html=load_html(entry / "batch_html.npz"),
        instances=tables["instances"],
    )
    enriched = EnrichedDataset(
        cluster_of_batch=cluster_of_batch,
        batch_table=tables["batch_table"],
        cluster_table=tables["cluster_table"],
        labels=tables["labels"],
    )
    return released, enriched


def load_study(
    config: "SimulationConfig",
) -> tuple["ReleasedDataset", "EnrichedDataset"] | None:
    """Load a cached entry for ``config``; ``None`` on miss or corruption."""
    with obs.span("cache.load") as sp:
        t0 = time.perf_counter()
        entry = cache_dir() / study_key(config)
        loaded = read_entry(
            entry, _SCHEMA_VERSION, _read_study,
            fault_site="cache.load", corrupt=_CORRUPT,
        )
        _LOAD_SECONDS.observe(time.perf_counter() - t0)
        if loaded is None:
            _MISSES.inc()
            sp.set("result", "miss")
        else:
            _BYTES_READ.inc(_entry_size_bytes(entry))
            _HITS.inc()
            sp.set("result", "hit")
    return loaded


def _children() -> list[Path]:
    """Everything under the cache root; empty if it is missing."""
    try:
        return sorted(cache_dir().iterdir())
    except OSError:
        return []


def clear_cache() -> int:
    """Remove every cache entry; returns the number of entries removed.

    Hidden ``.<key>-*`` temp directories (in-progress writes) and
    ``.quarantine-*`` corpses are swept too but *not* counted — they were
    never readable entries.
    """
    removed = 0
    for entry in _children():
        if not entry.is_dir():
            continue
        shutil.rmtree(entry, ignore_errors=True)
        if not entry.name.startswith("."):
            removed += 1
    return removed


def list_entries() -> list[dict[str, Any]]:
    """Manifests of every readable cache entry (for ``repro cache``).

    Robust against concurrent eviction: entries or files vanishing between
    listing and reading are skipped, never raised.  Hidden temp/quarantine
    directories are not entries and are skipped.
    """
    entries = []
    for entry in _children():
        if entry.name.startswith("."):
            continue
        manifest_path = entry / "manifest.json"
        try:
            manifest = json.loads(manifest_path.read_text())
        except (OSError, json.JSONDecodeError):
            continue
        manifest["path"] = str(entry)
        manifest["size_bytes"] = _entry_size_bytes(entry)
        entries.append(manifest)
    return entries

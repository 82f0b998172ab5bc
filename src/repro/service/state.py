"""Standing incremental state behind the ingest service.

:class:`ServiceState` is the service's single mutable object.  It holds
three *layers* of standing state, each with its own version counter:

- ``catalog`` — batch-catalog rows, an
  :class:`~repro.shard.merge.IncrementalTableFold` keyed by ``batch_id``;
- ``instances`` — instance-log rows, a fold keyed by ``instance_id``;
- ``html`` — the ``batch_id -> task HTML`` corpus, a plain dict merge.

Every layer's fold is exactly partition- and order-invariant, so the
state after N micro-batches depends only on the *set* of rows ingested —
the service-layer property suite pins this.

The instance aggregates — the per-batch rollup, the pooled trust CDF and
the fixed-edge duration histogram — are not kept at all: each read takes
the finalized instance table under the state lock and computes the
aggregate outside it with the same public function
(:func:`batch_rollup`, :func:`trust_cdf_table`, :func:`duration_hist_table`)
that the differential suites use as the reference.  The finalized table
is immutable and canonically ordered, so each aggregate is a pure
function of the ingested row multiset, and an ingest only folds rows.

Ingest is **atomic**: a micro-batch is fully decoded and validated —
schema version, config key, column schemas, duplicate keys (within the
payload and against everything already ingested) — before a single piece
of standing state is touched.  Any failure raises :class:`IngestError`
(the 400 path) or propagates (the 500 path) with the state byte-identical
to before the request, which is what makes the ``serve.ingest`` fault
sites testable.

Duplicate screening checks each payload's keys against sorted int64 key
arrays with ``np.searchsorted`` — no per-row Python work and no boxed ints,
so it scales to the paper-sized log.

The derived layers (enriched tables, figures, fidelity probes) are built
at most once per state version and memoized as a :class:`Snapshot`.  A
build reuses everything an ingest did not change: a
:class:`~repro.enrichment.pipeline.EnrichmentParts` memo keeps every
document's shingles, signature, design row and label reading and every
batch's metrics row, so a build computes parts only for new documents and
*dirty* batches (those that received instance or catalog rows since the
last build), then reclusters and assembles through the same
:func:`~repro.enrichment.pipeline.enrich_from_parts` path as the one-shot
and sharded studies — byte-identical to
:func:`~repro.enrichment.pipeline.enrich_dataset` over the same rows.
Builds are single-flight: concurrent readers of a new version wait for
one build under a build lock that ingest never takes.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Mapping

import numpy as np

from repro import obs
from repro.shard.merge import IncrementalTableFold
from repro.stats.cdf import EmpiricalCDF
from repro.stats.histogram import Histogram

from repro.service.codec import (
    WIRE_SCHEMA_VERSION,
    CodecError,
    decode_table,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.dataset.release import ReleasedDataset
    from repro.enrichment.pipeline import EnrichedDataset
    from repro.figures.suite import FigureSuite
    from repro.simulator.config import SimulationConfig
    from repro.tables import Table

_INGEST_BATCHES = obs.counter("serve.ingest_batches")
_INGEST_ROWS = obs.counter("serve.ingest_rows")
_INGEST_SECONDS = obs.histogram("serve.ingest_seconds")
_SNAPSHOT_BUILDS = obs.counter("serve.snapshot_builds")

#: Expected wire schema of the two released tables, in column order.
CATALOG_SCHEMA: tuple[tuple[str, str], ...] = (
    ("batch_id", "int64"),
    ("title", "object"),
    ("created_at", "int64"),
    ("sampled", "bool"),
)
INSTANCE_SCHEMA: tuple[tuple[str, str], ...] = (
    ("instance_id", "int64"),
    ("batch_id", "int64"),
    ("item_id", "int64"),
    ("worker_id", "int64"),
    ("source", "object"),
    ("country", "object"),
    ("start_time", "int64"),
    ("end_time", "int64"),
    ("trust", "float64"),
    ("response", "object"),
)


def _exact_mean(values: np.ndarray) -> float:
    """The exactly rounded sum of ``values`` (``math.fsum``) over their
    count: unlike a running sum, independent of the values' order."""
    return math.fsum(values.tolist()) / values.size


#: The per-batch rollup served at ``/tables/batch_rollup`` — every
#: aggregation depends only on each group's value multiset, so the table
#: is a pure function of the ingested rows.
ROLLUP_SPEC: dict[str, tuple[str, Any]] = {
    "num_instances": ("instance_id", "count"),
    "num_workers": ("worker_id", "nunique"),
    "num_items": ("item_id", "nunique"),
    "trust_mean": ("trust", _exact_mean),
    "duration_p50": ("duration_s", "median"),
    "duration_p95": ("duration_s", "p95"),
    "first_start": ("start_time", "min"),
    "last_end": ("end_time", "max"),
}

#: Fixed bin edges for the duration histogram, so its bins do not move as
#: rows arrive; durations beyond the last edge are not counted.
DURATION_EDGES = np.linspace(0.0, 7200.0, 49)


def with_duration(instances: "Table") -> "Table":
    """The instance table plus a ``duration_s`` float64 column."""
    from repro.tables import Table

    duration = (
        np.asarray(instances["end_time"]) - np.asarray(instances["start_time"])
    ).astype(np.float64)
    columns = {
        name: instances.column(name) for name in instances.column_names
    }
    columns["duration_s"] = duration
    return Table(columns, copy=False)


def batch_rollup(instances: "Table") -> "Table":
    """One row per batch, ascending by ``batch_id`` (:data:`ROLLUP_SPEC`)."""
    from repro.tables import group_by

    return group_by(with_duration(instances), "batch_id").agg(ROLLUP_SPEC)


def trust_cdf_table(cdf: EmpiricalCDF) -> "Table":
    """The pooled trust CDF as a two-column table."""
    from repro.tables import Table

    return Table(
        {"trust": cdf.support, "p": cdf.probabilities}, copy=False
    )


def duration_histogram(instances: "Table") -> Histogram:
    """Fixed-edge histogram of the instance durations."""
    durations = (
        np.asarray(instances["end_time"]) - np.asarray(instances["start_time"])
    ).astype(np.float64)
    counts, _ = np.histogram(durations, bins=DURATION_EDGES)
    return Histogram(edges=DURATION_EDGES, counts=counts.astype(np.int64))


def duration_hist_table(hist: Histogram) -> "Table":
    """A histogram as a three-column table (lo/hi/count)."""
    from repro.tables import Table

    return Table(
        {
            "lo": hist.edges[:-1],
            "hi": hist.edges[1:],
            "count": hist.counts,
        },
        copy=False,
    )


def _with_keys(keys: np.ndarray, new: np.ndarray) -> np.ndarray:
    """Sorted ``keys`` with the sorted, disjoint ``new`` merged in."""
    return np.insert(keys, np.searchsorted(keys, new), new)


class IngestError(ValueError):
    """A malformed or inconsistent micro-batch (the HTTP 400 path)."""


@dataclass(frozen=True)
class Snapshot:
    """The derived layers at one state version (immutable once built)."""

    versions: tuple[int, int, int]
    released: "ReleasedDataset"
    enriched: "EnrichedDataset"
    figures: "FigureSuite"


def _check_schema(
    table: "Table", schema: tuple[tuple[str, str], ...], label: str
) -> None:
    expected = [name for name, _ in schema]
    if list(table.column_names) != expected:
        raise IngestError(
            f"{label} columns {list(table.column_names)} != {expected}"
        )
    for name, tag in schema:
        actual = str(table.column(name).dtype)
        if actual != tag:
            raise IngestError(
                f"{label}.{name} has dtype {actual}, expected {tag}"
            )


class ServiceState:
    """All standing service state for one study configuration."""

    def __init__(self, config: "SimulationConfig"):
        from repro import cache as study_cache
        from repro.enrichment.pipeline import EnrichmentParts

        self.config = config
        self.config_key = study_cache.study_key(config)
        self._lock = threading.RLock()
        self._catalog = IncrementalTableFold("batch_id")
        self._instances = IncrementalTableFold("instance_id")
        self._html: dict[int, str] = {}
        # Sorted unique keys of every ingested catalog/instance row.
        self._batch_keys = np.empty(0, dtype=np.int64)
        self._instance_keys = np.empty(0, dtype=np.int64)
        self._versions = {"catalog": 0, "instances": 0, "html": 0}
        self._ingested_batches = 0
        self._snapshot: Snapshot | None = None
        # Snapshot builds: one at a time, never under ``_lock``.
        self._build_lock = threading.Lock()
        self._parts = EnrichmentParts()
        # Batch ids of every catalog/instance row folded since the last
        # successful build (the dirty batches), one array per fold.
        self._dirty: list[np.ndarray] = []

    # ----------------------------------------------------------------- #
    # Introspection
    # ----------------------------------------------------------------- #

    def versions(self) -> dict[str, int]:
        with self._lock:
            return dict(self._versions)

    def version_of(self, *layers: str) -> tuple[int, ...]:
        """The dependency key for a route reading the given layers."""
        with self._lock:
            return tuple(self._versions[layer] for layer in layers)

    def status(self) -> dict[str, Any]:
        with self._lock:
            return {
                "schema": WIRE_SCHEMA_VERSION,
                "config_key": self.config_key,
                "versions": dict(self._versions),
                "ingested_batches": self._ingested_batches,
                "catalog_rows": self._catalog.num_rows,
                "instance_rows": self._instances.num_rows,
                "html_docs": len(self._html),
            }

    # ----------------------------------------------------------------- #
    # Ingest (decode + validate everything, then apply atomically)
    # ----------------------------------------------------------------- #

    def ingest(self, payload: Mapping[str, Any]) -> dict[str, Any]:
        """Fold one micro-batch in; returns an acceptance summary.

        Raises :class:`IngestError` (or :class:`CodecError`) *before any
        state changes* on a malformed payload — a rejected micro-batch
        leaves the standing state byte-identical.
        """
        import time

        t0 = time.perf_counter()
        catalog, instances, html = self._validate(payload)
        with self._lock:
            # Duplicate screening must see the standing keys under the same
            # lock that applies the fold, and must all pass before any
            # state is touched (atomic accept-or-reject).
            if catalog is not None:
                batch_ids = self._screen_duplicates(
                    np.asarray(catalog["batch_id"]),
                    self._batch_keys, "batch_id",
                )
            if instances is not None:
                instance_ids = self._screen_duplicates(
                    np.asarray(instances["instance_id"]),
                    self._instance_keys, "instance_id",
                )
            for batch_id in html:
                if batch_id in self._html:
                    raise IngestError(
                        f"duplicate html document for batch {batch_id}"
                    )
            accepted = {"catalog_rows": 0, "instance_rows": 0, "html_docs": 0}
            if catalog is not None:
                accepted["catalog_rows"] = self._catalog.fold(catalog)
                self._batch_keys = _with_keys(self._batch_keys, batch_ids)
                self._dirty.append(batch_ids)
                self._versions["catalog"] += 1
            if instances is not None:
                accepted["instance_rows"] = self._instances.fold(instances)
                self._instance_keys = _with_keys(
                    self._instance_keys, instance_ids
                )
                self._dirty.append(np.asarray(instances["batch_id"]))
                self._versions["instances"] += 1
            if html:
                self._html.update(html)
                accepted["html_docs"] = len(html)
                self._versions["html"] += 1
            self._ingested_batches += 1
            versions = dict(self._versions)
        _INGEST_BATCHES.inc()
        _INGEST_ROWS.inc(
            accepted["catalog_rows"] + accepted["instance_rows"]
        )
        _INGEST_SECONDS.observe(time.perf_counter() - t0)
        from repro.obs import live

        live.publish("ingest.folded", versions=versions, **accepted)
        return {"accepted": accepted, "versions": versions}

    def _validate(
        self, payload: Mapping[str, Any]
    ) -> tuple["Table | None", "Table | None", dict[int, str]]:
        if not isinstance(payload, Mapping):
            raise IngestError("micro-batch must be a JSON object")
        if payload.get("schema") != WIRE_SCHEMA_VERSION:
            raise IngestError(
                f"unsupported wire schema {payload.get('schema')!r} "
                f"(this server speaks {WIRE_SCHEMA_VERSION})"
            )
        key = payload.get("config_key")
        if key != self.config_key:
            raise IngestError(
                f"config_key mismatch: payload {str(key)[:16]!r}... is not "
                f"this server's study ({self.config_key[:16]}...); "
                f"GET /ingest/status for the expected key"
            )
        unknown = set(payload) - {
            "schema", "config_key", "catalog", "instances", "html"
        }
        if unknown:
            raise IngestError(f"unknown payload keys: {sorted(unknown)}")

        catalog = instances = None
        if payload.get("catalog") is not None:
            catalog = decode_table(payload["catalog"])
            _check_schema(catalog, CATALOG_SCHEMA, "catalog")
        if payload.get("instances") is not None:
            instances = decode_table(payload["instances"])
            _check_schema(instances, INSTANCE_SCHEMA, "instances")
        html: dict[int, str] = {}
        raw_html = payload.get("html")
        if raw_html is not None:
            if not isinstance(raw_html, Mapping):
                raise IngestError("html must map batch_id -> document")
            for raw_id, doc in raw_html.items():
                try:
                    batch_id = int(raw_id)
                except (TypeError, ValueError):
                    raise IngestError(
                        f"html key {raw_id!r} is not a batch id"
                    ) from None
                if not isinstance(doc, str):
                    raise IngestError(f"html[{raw_id}] is not a string")
                if batch_id in html:
                    raise IngestError(
                        f"duplicate html document for batch {batch_id}"
                    )
                html[batch_id] = doc
        return catalog, instances, html

    @staticmethod
    def _screen_duplicates(
        ids: np.ndarray, seen: np.ndarray, label: str
    ) -> np.ndarray:
        """``ids`` sorted, after checking them against the sorted ``seen``
        keys; raises :class:`IngestError` on any repeat."""
        # A plain sort plus a neighbour compare: NumPy 2's hash-based
        # ``np.unique`` is ~70x slower on a 700k-row payload's int64 keys.
        unique = np.sort(ids)
        if np.any(unique[1:] == unique[:-1]):
            raise IngestError(f"micro-batch repeats a {label}")
        at = np.searchsorted(seen, unique)
        inside = at < len(seen)
        clash = unique[inside][seen[at[inside]] == unique[inside]]
        if clash.size:
            raise IngestError(
                f"{label} {[int(i) for i in clash[:5]]} already ingested "
                f"(micro-batches must partition the study)"
            )
        return unique

    # ----------------------------------------------------------------- #
    # Streaming reads (the folds, and aggregates computed from them)
    # ----------------------------------------------------------------- #

    def catalog_table(self) -> "Table":
        with self._lock:
            if self._catalog.num_rows == 0:
                raise IngestError("no catalog rows ingested yet")
            return self._catalog.finalize()

    def instances_table(self) -> "Table":
        with self._lock:
            if self._instances.num_rows == 0:
                raise IngestError("no instance rows ingested yet")
            return self._instances.finalize()

    # The aggregates read the finalized table, taken under the lock, and
    # compute outside it, so a render never holds up an ingest.

    def rollup_table(self) -> "Table":
        return batch_rollup(self.instances_table())

    def trust_cdf(self) -> "Table":
        trust = self.instances_table()["trust"]
        try:
            cdf = EmpiricalCDF.from_sample(trust)
        except ValueError:  # every trust value is NaN
            raise IngestError("no trust values ingested yet") from None
        return trust_cdf_table(cdf)

    def duration_hist(self) -> "Table":
        return duration_hist_table(duration_histogram(self.instances_table()))

    # ----------------------------------------------------------------- #
    # The enriched snapshot (memoized per state version)
    # ----------------------------------------------------------------- #

    @property
    def ready(self) -> bool:
        """Whether enough state exists to derive the enriched layers."""
        with self._lock:
            return (
                self._catalog.num_rows > 0
                and self._instances.num_rows > 0
                and len(self._html) > 0
            )

    def snapshot(self) -> Snapshot:
        """The derived layers at the current version (built at most once).

        Single-flight: a reader that finds the memo stale takes the build
        lock, re-checks, and builds only if no other reader built this
        version meanwhile.  The released tables and the dirty batches are
        captured together under the state lock (consistent with the
        version stamp); the enrichment runs outside it, so ingest is never
        blocked behind a build.  The dirty batches are cleared, and the
        parts memo advanced, only when the build succeeds.
        """
        from repro.dataset.release import ReleasedDataset
        from repro.figures.suite import FigureSuite
        from repro.study import _LazyState

        memo = self._fresh_snapshot()
        if memo is not None:
            return memo
        with self._build_lock:
            with self._lock:
                memo = self._fresh_snapshot()
                if memo is not None:
                    return memo
                if not (
                    self._catalog.num_rows
                    and self._instances.num_rows
                    and self._html
                ):
                    raise IngestError(
                        "snapshot needs catalog, instances, and html "
                        "ingested"
                    )
                versions = self._version_key()
                released = ReleasedDataset(
                    batch_catalog=self._catalog.finalize(),
                    batch_html=dict(self._html),
                    instances=self._instances.finalize(),
                )
                dirty = list(self._dirty)
            _SNAPSHOT_BUILDS.inc()
            with obs.span("service.snapshot"):
                enriched = self._parts.enrich(released, self.config, dirty)
            lazy = _LazyState(self.config)
            snapshot = Snapshot(
                versions=versions,
                released=released,
                enriched=enriched,
                figures=FigureSuite(
                    state=lazy, released=released, enriched=enriched
                ),
            )
            with self._lock:
                # Ingests only append, so the captured prefix is exactly
                # what this build consumed.
                del self._dirty[:len(dirty)]
                self._snapshot = snapshot
            return snapshot

    def _version_key(self) -> tuple[int, int, int]:
        return (
            self._versions["catalog"],
            self._versions["instances"],
            self._versions["html"],
        )

    def _fresh_snapshot(self) -> Snapshot | None:
        """The memoized snapshot if it is at the current version."""
        with self._lock:
            memo = self._snapshot
            if memo is not None and memo.versions == self._version_key():
                return memo
            return None


__all__ = [
    "CATALOG_SCHEMA",
    "DURATION_EDGES",
    "INSTANCE_SCHEMA",
    "ROLLUP_SPEC",
    "CodecError",
    "IngestError",
    "ServiceState",
    "Snapshot",
    "batch_rollup",
    "duration_hist_table",
    "duration_histogram",
    "trust_cdf_table",
    "with_duration",
]

"""Glue: run clustering, design extraction, metrics, and labeling (§2.4).

The output :class:`EnrichedDataset` is what every §3–§5 analysis consumes:

``batch_table``
    One row per *sampled* batch: cluster id, creation time, design
    parameters, performance metrics.
``cluster_table``
    One row per cluster: batch/instance counts, the **median across
    batches** of every design parameter and metric (the paper's §4.2
    cluster-then-median methodology), first activity time, and labels.
``labels``
    The raw annotation table (multi-labels ``+``-joined).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro import obs
from repro.dataset.release import ReleasedDataset
from repro.enrichment.clustering import (
    cluster_shingled,
    distinct_signatures,
    shingle_corpus,
)
from repro.enrichment.design import extract_design_parameters
from repro.enrichment.labels import READING_COLUMNS, annotate_clusters
from repro.enrichment.metrics import compute_batch_metrics
from repro.html import group_by_interface
from repro.simulator.config import SimulationConfig
from repro.simulator.rng import StreamFactory
from repro.tables import Table, col, concat_tables, hash_join


@dataclass
class EnrichedDataset:
    """The released dataset plus everything §2.4 derives from it."""

    cluster_of_batch: dict[int, int]
    batch_table: Table
    cluster_table: Table
    labels: Table

    @property
    def num_clusters(self) -> int:
        return self.cluster_table.num_rows


def enrich_dataset(
    released: ReleasedDataset, config: SimulationConfig
) -> EnrichedDataset:
    """Run the full §2.4 enrichment pipeline on a released dataset."""
    html = released.batch_html
    with obs.span("enrichment", batches=len(html)) as sp:
        with obs.span("enrichment.design"):
            # One interface grouping for the design pass and the shingles.
            groups = group_by_interface(html)
            design = extract_design_parameters(html, groups=groups)
        with obs.span("enrichment.metrics"):
            metrics = compute_batch_metrics(released)
        # Shingled last, so the arrays are not held through the metrics
        # pass's transients.
        with obs.span("enrichment.clustering", phase="shingle"):
            batch_ids, arrays = shingle_corpus(html, groups=groups)
        enriched = enrich_from_parts(
            released.batch_catalog, config, batch_ids, arrays, design,
            metrics,
        )
        sp.set("clusters", enriched.cluster_table.num_rows)
    return enriched


def _by_batch(table: Table) -> Table:
    return table.take(np.argsort(table["batch_id"], kind="stable"))


def enrich_from_parts(
    batch_catalog: Table,
    config: SimulationConfig,
    shingle_ids: Sequence[int],
    shingle_arrays: Sequence[np.ndarray],
    design: Table,
    metrics: Table,
    *,
    signatures: np.ndarray | None = None,
    cluster_span: str = "enrichment.clustering",
) -> EnrichedDataset:
    """Cluster and assemble from per-batch parts given in any order.

    The one assembly path behind every build: :func:`enrich_dataset` (the
    monolithic study), :func:`repro.shard.build.merge_partials` (parts
    pooled from shards) and :class:`EnrichmentParts` (parts memoized by the
    ingest service).  Each part is sorted by ``batch_id``, the documents
    are clustered by one :func:`cluster_shingled` pass (under the span
    ``cluster_span``), and the tables are assembled as in
    :func:`assemble_enrichment` — so equal parts give equal bytes whatever
    produced them.  ``signatures`` (minhash rows aligned with
    ``shingle_arrays``) only skip recomputation.  Only the catalog is read
    from the released layer: the HTML reaches the result through the
    shingles and the design table (which carries each interface's label
    reading), the instance log through ``metrics``.
    """
    ids = np.asarray(shingle_ids, dtype=np.int64)
    order = np.argsort(ids, kind="stable")
    with obs.span(cluster_span, docs=len(order)):
        cluster_of_batch = cluster_shingled(
            [int(b) for b in ids[order]],
            [shingle_arrays[i] for i in order],
            signatures=None if signatures is None else signatures[order],
        )
    return _assemble(
        batch_catalog, config, cluster_of_batch, _by_batch(design),
        _by_batch(metrics),
    )


def assemble_enrichment(
    released: ReleasedDataset,
    config: SimulationConfig,
    cluster_of_batch: dict[int, int],
    design: Table,
    metrics: Table,
) -> EnrichedDataset:
    """Assemble the batch/cluster tables from a computed partition.

    ``design`` (as :func:`extract_design_parameters` returns it) and
    ``metrics`` must be sorted by ``batch_id``.  The tail of
    :func:`enrich_from_parts`, for callers that cluster on their own.
    """
    return _assemble(
        released.batch_catalog, config, cluster_of_batch, design, metrics,
    )


def _assemble(
    batch_catalog: Table,
    config: SimulationConfig,
    cluster_of_batch: dict[int, int],
    design: Table,
    metrics: Table,
) -> EnrichedDataset:
    readings = design.select(["batch_id", *READING_COLUMNS])
    design = design.drop(READING_COLUMNS)
    with obs.span("enrichment.cluster_table"):
        catalog = batch_catalog.select(["batch_id", "created_at"])
        batch_table = (
            design.lazy()
            .join(metrics, on="batch_id", how="left")
            .with_column(
                "cluster_id",
                col("batch_id").map_values(
                    lambda b: cluster_of_batch[int(b)],
                    name="cluster_of",
                    dtype=np.int64,
                ),
            )
            .join(catalog, on="batch_id", how="left")
            .collect()
        )

        cluster_table = (
            batch_table.lazy()
            .group_by("cluster_id")
            .agg(
                {
                    "num_batches": ("batch_id", "count"),
                    "num_instances": ("num_instances", "sum"),
                    "num_words": ("num_words", "median"),
                    "num_text_boxes": ("num_text_boxes", "median"),
                    "num_examples": ("num_examples", "median"),
                    "num_images": ("num_images", "median"),
                    "num_items": ("num_items", "median"),
                    "disagreement": ("disagreement", "nanmedian"),
                    "task_time": ("task_time", "nanmedian"),
                    "pickup_time": ("pickup_time", "nanmedian"),
                    "first_time": ("created_at", "min"),
                }
            )
            .collect()
        )

    with obs.span("enrichment.labels"):
        label_rng = StreamFactory(config.seed).stream("labels")
        labels = annotate_clusters(cluster_of_batch, readings, label_rng)
        cluster_table = hash_join(
            cluster_table, labels, on="cluster_id", how="left"
        )

    return EnrichedDataset(
        cluster_of_batch=cluster_of_batch,
        batch_table=batch_table,
        cluster_table=cluster_table,
        labels=labels,
    )


class EnrichmentParts:
    """Per-batch enrichment parts, memoized across incremental rebuilds.

    The standing memo behind the ingest service's snapshots.  Every part
    but the cluster partition is a function of one batch alone:

    - per document (keyed by ``batch_id``; a document never changes once
      ingested): its shingle array and minhash signature, and its design
      row, which carries its label reading — computed once, when the
      document is first seen;
    - per batch: its metrics row, a function of the batch's own instance
      rows and its own catalog ``created_at`` (item ids are batch-scoped,
      as the release guarantees; the sharded build's ``batch_id % K`` cut
      relies on the same fact) — recomputed only for *dirty* batches, the
      ones that received instance or catalog rows since the last build.

    :meth:`enrich` refreshes the parts and hands them to
    :func:`enrich_from_parts`, which reclusters every document and
    assembles the tables exactly as the one-shot study does, so the result
    is byte-identical to :func:`enrich_dataset` over the same rows.  The
    memo is updated only when a build succeeds; callers serialize builds.
    """

    def __init__(self) -> None:
        self._shingles: dict[int, np.ndarray] = {}
        self._signatures: dict[int, np.ndarray] = {}
        self._design: Table | None = None
        self._metrics: Table | None = None

    def enrich(
        self,
        released: ReleasedDataset,
        config: SimulationConfig,
        dirty_batches: Sequence[np.ndarray],
    ) -> EnrichedDataset:
        """The enrichment of ``released``, recomputing only what changed.

        ``dirty_batches`` holds the ``batch_id`` arrays of every instance
        and catalog row added since the last successful :meth:`enrich`
        (repeats are fine; ignored on the first build, which computes
        every part); documents are new when they are not in the memo yet.
        """
        html = released.batch_html
        new_html = {b: doc for b, doc in html.items() if b not in self._shingles}
        with obs.span("enrichment", batches=len(html)) as sp:
            with obs.span("enrichment.design", docs=len(new_html)):
                # One interface grouping for the design pass and the
                # shingles of the new documents.
                groups = group_by_interface(new_html)
                design = self._design
                if new_html:
                    fresh = extract_design_parameters(new_html, groups=groups)
                    design = fresh if design is None else _by_batch(
                        concat_tables([design, fresh])
                    )
            with obs.span("enrichment.metrics"):
                metrics = self._refresh_metrics(released, dirty_batches)
            with obs.span(
                "enrichment.clustering", phase="shingle", docs=len(new_html)
            ):
                new_ids, new_arrays = shingle_corpus(new_html, groups=groups)
                new_sigs = distinct_signatures(new_arrays)
            shingles = {**self._shingles, **dict(zip(new_ids, new_arrays))}
            signatures = {**self._signatures, **dict(zip(new_ids, new_sigs))}
            batch_ids = sorted(html)
            enriched = enrich_from_parts(
                released.batch_catalog, config, batch_ids,
                [shingles[b] for b in batch_ids], design, metrics,
                signatures=np.stack([signatures[b] for b in batch_ids]),
            )
            sp.set("clusters", enriched.cluster_table.num_rows)
        self._shingles = shingles
        self._signatures = signatures
        self._design = design
        self._metrics = metrics
        return enriched

    def _refresh_metrics(
        self, released: ReleasedDataset, dirty_batches: Sequence[np.ndarray]
    ) -> Table:
        """The metrics table with the dirty batches' rows recomputed."""
        if self._metrics is None:
            return compute_batch_metrics(released)
        if not dirty_batches:
            return self._metrics
        dirty = np.concatenate(dirty_batches)
        instances = released.instances
        rows = np.flatnonzero(np.isin(instances["batch_id"], dirty))
        kept = self._metrics.take(
            np.flatnonzero(~np.isin(self._metrics["batch_id"], dirty))
        )
        if not rows.size:
            return kept
        subset = ReleasedDataset(
            batch_catalog=released.batch_catalog,
            batch_html={},
            instances=instances.select(_METRIC_INPUTS).take(rows),
        )
        return _by_batch(concat_tables([kept, compute_batch_metrics(subset)]))


#: The instance columns :func:`compute_batch_metrics` reads.
_METRIC_INPUTS = ("batch_id", "item_id", "start_time", "end_time", "response")

"""Per-batch design parameters extracted from the sample-task HTML (§2.4)."""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro import obs
from repro.enrichment.labels import (
    DATA_TYPE_TAGS,
    READING_COLUMNS,
    reading_of,
    reading_strings,
)
from repro.html import (
    InterfaceFeatures,
    InterfaceGroups,
    group_by_interface,
    scan_interface,
)
from repro.parallel import map_chunks
from repro.tables import Table

_DESIGN_DOCS = obs.counter("design.docs")
_DESIGN_TEMPLATES = obs.counter("design.templates")

#: Integer feature columns, in output order after ``batch_id``.
_COUNT_FEATURES = (
    "num_words",
    "num_text_boxes",
    "num_examples",
    "num_images",
    "num_input_fields",
)


def read_interface(html: str) -> tuple[InterfaceFeatures, tuple[str, str, str]]:
    """An interface's features and its label reading, from one parse.

    The reading is :func:`repro.enrichment.labels.read_labels_from_html`'s,
    taken from the same walk that counts the features and given as its
    :data:`~repro.enrichment.labels.READING_COLUMNS` strings.
    """
    features, text, marked = scan_interface(html, DATA_TYPE_TAGS)
    return features, reading_strings(reading_of(text, marked))


def extract_design_parameters(
    batch_html: Mapping[int, str], *, groups: InterfaceGroups | None = None
) -> Table:
    """Extract design features and label readings for every sampled batch.

    Returns one row per batch: ``batch_id``, ``num_words``,
    ``num_text_boxes``, ``num_examples``, ``num_images``,
    ``num_input_fields``, ``has_instructions``, and the careful label
    reading of the interface in the three ``+``-joined string columns
    :data:`~repro.enrichment.labels.READING_COLUMNS`, which the assembly
    hands to :func:`~repro.enrichment.labels.annotate_clusters` and drops.

    Batches of one task re-issue the same interface with a different
    sample item, so documents are grouped by
    :func:`repro.html.interface_key` (equal keys have equal features and
    equal readings) and each group's first document is parsed once: 1,575
    of 5,550 documents at the medium preset.  ``groups`` passes in a
    :func:`repro.html.group_by_interface` of ``batch_html`` computed for
    other consumers too.  Parsing fans out over ``REPRO_WORKERS``
    processes (serial by default); the result is invariant to the worker
    count.
    """
    if groups is None:
        groups = group_by_interface(batch_html)
    batch_ids = groups.batch_ids
    index = groups.index
    with obs.span(
        "design.extract", docs=len(batch_ids), templates=groups.num_groups
    ):
        distinct = map_chunks(read_interface, groups.representatives(batch_html))
    _DESIGN_DOCS.inc(len(batch_ids))
    _DESIGN_TEMPLATES.inc(groups.num_groups)

    rows = {"batch_id": np.asarray(batch_ids, dtype=np.int64)}
    for name in _COUNT_FEATURES:
        values = np.fromiter(
            (getattr(f, name) for f, _ in distinct), dtype=np.int64,
            count=len(distinct),
        )
        rows[name] = values[index]
    has_instructions = np.fromiter(
        (f.has_instructions for f, _ in distinct), dtype=bool,
        count=len(distinct),
    )
    rows["has_instructions"] = has_instructions[index]
    for i, name in enumerate(READING_COLUMNS):
        values = np.empty(len(distinct), dtype=object)
        values[:] = [reading[i] for _, reading in distinct]
        rows[name] = values[index]
    return Table(rows, copy=False)

"""Per-batch design parameters extracted from the sample-task HTML (§2.4)."""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro import obs
from repro.html import extract_features, interface_key
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


def extract_design_parameters(batch_html: Mapping[int, str]) -> Table:
    """Extract design features for every sampled batch.

    Returns one row per batch: ``batch_id``, ``num_words``,
    ``num_text_boxes``, ``num_examples``, ``num_images``,
    ``num_input_fields``, ``has_instructions``.

    Batches of one task re-issue the same interface with a different
    sample item, so documents are grouped by
    :func:`repro.html.interface_key` (equal keys have equal features) and
    each group's first document is parsed once: 1,575 of 5,550 documents
    at the medium preset.  Parsing fans out over ``REPRO_WORKERS``
    processes (serial by default); the result is invariant to the worker
    count.
    """
    batch_ids = sorted(batch_html)
    template_of: dict[str, int] = {}
    representatives: list[str] = []
    index = np.empty(len(batch_ids), dtype=np.int64)
    for i, batch_id in enumerate(batch_ids):
        html = batch_html[batch_id]
        template = template_of.setdefault(interface_key(html), len(template_of))
        if template == len(representatives):
            representatives.append(html)
        index[i] = template
    with obs.span(
        "design.extract", docs=len(batch_ids), templates=len(representatives)
    ):
        distinct = map_chunks(extract_features, representatives)
    _DESIGN_DOCS.inc(len(batch_ids))
    _DESIGN_TEMPLATES.inc(len(representatives))

    rows = {"batch_id": np.asarray(batch_ids, dtype=np.int64)}
    for name in _COUNT_FEATURES:
        values = np.fromiter(
            (getattr(f, name) for f in distinct), dtype=np.int64,
            count=len(distinct),
        )
        rows[name] = values[index]
    has_instructions = np.fromiter(
        (f.has_instructions for f in distinct), dtype=bool, count=len(distinct)
    )
    rows["has_instructions"] = has_instructions[index]
    return Table(rows, copy=False)

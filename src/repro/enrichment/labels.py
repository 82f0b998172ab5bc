"""Simulated expert labeling of clusters (paper §2.4, footnote 1).

The paper's authors labeled ~3,200 clusters by reading one representative
task interface per cluster; "labeling was performed independently by two of
the authors, following which the differences were resolved via discussion."

Our annotator does the same thing mechanically: it reads the cluster
representative's HTML and recognizes the goal statement, operator prompts,
and data-type markup that any task interface necessarily exposes.  Two
noisy annotator passes (each drops or confuses a label with small
probability) are then resolved: labels both annotators agree on are kept,
disagreements are resolved by a joint re-read (which recovers the correct
reading with high probability).
"""

from __future__ import annotations

from typing import Iterable, Mapping

import numpy as np

from repro.html import Element, parse_html
from repro.htmlgen.render import _GOAL_PHRASES, _OPERATOR_PROMPTS
from repro.tables import Table
from repro.taxonomy.labels import DataType, Goal, Operator

#: Probability an annotator mis-reads (drops or confuses) one label category.
ANNOTATOR_ERROR_PROB = 0.06
#: Probability the discussion phase fixes a disagreement correctly.
RESOLUTION_ACCURACY = 0.95

LABEL_SEPARATOR = "+"


#: One careful reading of an interface: its goals, operators and data types.
Reading = tuple[list[Goal], list[Operator], list[DataType]]

#: Tags whose elements can mark a data type (see :func:`_data_type_of`).
DATA_TYPE_TAGS = frozenset({"blockquote", "img", "audio", "video", "iframe", "a"})

#: Columns that carry a reading through the design table, ``+``-joined in
#: reading order (:func:`reading_strings`, :func:`annotate_clusters`).
READING_COLUMNS = ("reading_goals", "reading_operators", "reading_data_types")


def _data_type_of(element: Element) -> DataType | None:
    """The data type an element's markup announces, if any."""
    tag = element.tag
    cls = element.attr("class")
    if tag == "blockquote" and cls == "item-text":
        return DataType.TEXT
    if tag == "blockquote" and cls == "social-post":
        return DataType.SOCIAL_MEDIA
    if tag == "img" and "/items/" in element.attr("src"):
        return DataType.IMAGE
    if tag == "audio":
        return DataType.AUDIO
    if tag == "video":
        return DataType.VIDEO
    if tag == "iframe" and cls == "map":
        return DataType.MAPS
    if tag == "a" and "web.example.com" in element.attr("href"):
        return DataType.WEBPAGE
    return None


def reading_of(text: str, elements: Iterable[Element]) -> Reading:
    """The reading of an interface from its text and its elements.

    ``text`` is the interface's text in document order and ``elements``
    its elements in pre-order; elements whose tag is not in
    :data:`DATA_TYPE_TAGS` never mark a data type, so they may be left
    out.
    """
    # Order labels by where they appear: interfaces state the primary goal
    # and primary operator first.
    goals = sorted(
        (g for g, phrase in _GOAL_PHRASES.items() if phrase in text),
        key=lambda g: text.index(_GOAL_PHRASES[g]),
    )
    operators = sorted(
        (op for op, prompt in _OPERATOR_PROMPTS.items() if prompt in text),
        key=lambda op: text.index(_OPERATOR_PROMPTS[op]),
    )
    # Deduplicate preserving order.
    data_types: list[DataType] = []
    for element in elements:
        data_type = _data_type_of(element)
        if data_type is not None and data_type not in data_types:
            data_types.append(data_type)
    return goals, operators, data_types


def read_labels_from_html(html: str) -> Reading:
    """A careful (error-free) reading of an interface's labels.

    Every generated interface announces its goal in the instructions, one
    prompt per operator, and renders each data type with distinctive markup.
    The design pass takes the same reading from its own walk
    (:func:`repro.enrichment.design.extract_design_parameters`).
    """
    root = parse_html(html)
    return reading_of(root.text_content(), root.iter_elements())


def reading_strings(reading: Reading) -> tuple[str, str, str]:
    """A reading as its three ``+``-joined columns (:data:`READING_COLUMNS`)."""
    goals, operators, data_types = reading
    return _join(goals), _join(operators), _join(data_types)


def _noisy_pass(
    rng: np.random.Generator,
    truth: Reading,
) -> tuple[tuple[Goal, ...], tuple[Operator, ...], tuple[DataType, ...]]:
    """One annotator's reading: occasionally confuses a category."""
    goals, operators, data_types = ([*t] for t in truth)
    if goals and rng.random() < ANNOTATOR_ERROR_PROB:
        goals[0] = list(Goal)[rng.integers(len(Goal))]
    if operators and rng.random() < ANNOTATOR_ERROR_PROB:
        operators[0] = list(Operator)[rng.integers(len(Operator))]
    if data_types and rng.random() < ANNOTATOR_ERROR_PROB:
        data_types[0] = list(DataType)[rng.integers(len(DataType))]
    return tuple(goals), tuple(operators), tuple(data_types)


def _join(values) -> str:
    return LABEL_SEPARATOR.join(v.value for v in values)


def split_labels(joined: str) -> list[str]:
    """Invert the ``+``-joined multi-label encoding used in label tables."""
    return [v for v in joined.split(LABEL_SEPARATOR) if v]


def annotate_clusters(
    cluster_of_batch: Mapping[int, int],
    readings: Table,
    rng: np.random.Generator,
) -> Table:
    """Label every cluster from its representative batch's interface.

    ``readings`` holds ``batch_id`` in sorted order and the careful
    reading of each batch's interface in :data:`READING_COLUMNS` (the
    design table carries both); a cluster's representative is its
    smallest batch id, and only the two annotator passes and the
    resolution are drawn here.

    Returns one row per cluster: ``cluster_id``, ``goals``, ``operators``,
    ``data_types`` (multi-labels ``+``-joined), plus the primaries as
    separate columns.
    """
    representative: dict[int, int] = {}
    for batch_id in sorted(cluster_of_batch):
        cluster = cluster_of_batch[batch_id]
        representative.setdefault(cluster, batch_id)

    clusters = sorted(representative)
    reps = np.array([representative[c] for c in clusters], dtype=np.int64)
    rows_of = np.searchsorted(readings["batch_id"], reps)
    if not np.array_equal(readings["batch_id"].take(rows_of, mode="clip"), reps):
        raise KeyError("a cluster representative has no reading")
    columns = [readings[name] for name in READING_COLUMNS]
    # Interfaces share few distinct readings: decode each once.
    decoded: dict[tuple[str, str, str], Reading] = {}
    rows = []
    for cluster_id, row in zip(clusters, rows_of):
        strings = tuple(column[row] for column in columns)
        truth = decoded.get(strings)
        if truth is None:
            goals, operators, data_types = strings
            truth = decoded[strings] = (
                [Goal(v) for v in split_labels(goals)],
                [Operator(v) for v in split_labels(operators)],
                [DataType(v) for v in split_labels(data_types)],
            )
        first = _noisy_pass(rng, truth)
        second = _noisy_pass(rng, truth)
        if first == second:
            goals, operators, data_types = first
        elif rng.random() < RESOLUTION_ACCURACY:
            goals, operators, data_types = (
                tuple(truth[0]), tuple(truth[1]), tuple(truth[2])
            )
        else:
            goals, operators, data_types = first
        rows.append(
            {
                "cluster_id": cluster_id,
                "goals": _join(goals),
                "operators": _join(operators),
                "data_types": _join(data_types),
                "primary_goal": goals[0].value if goals else "",
                "primary_operator": operators[0].value if operators else "",
                "primary_data_type": data_types[0].value if data_types else "",
            }
        )
    return Table.from_rows(rows)

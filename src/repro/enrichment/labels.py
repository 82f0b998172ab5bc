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

from typing import Mapping

import numpy as np

from repro.html import parse_html
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


def read_labels_from_html(html: str) -> Reading:
    """A careful (error-free) reading of an interface's labels.

    Every generated interface announces its goal in the instructions, one
    prompt per operator, and renders each data type with distinctive markup.
    """
    root = parse_html(html)
    text = root.text_content()

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

    data_types: list[DataType] = []
    for element in root.iter_elements():
        cls = element.attr("class")
        if element.tag == "blockquote" and cls == "item-text":
            data_types.append(DataType.TEXT)
        elif element.tag == "blockquote" and cls == "social-post":
            data_types.append(DataType.SOCIAL_MEDIA)
        elif element.tag == "img" and "/items/" in element.attr("src"):
            data_types.append(DataType.IMAGE)
        elif element.tag == "audio":
            data_types.append(DataType.AUDIO)
        elif element.tag == "video":
            data_types.append(DataType.VIDEO)
        elif element.tag == "iframe" and cls == "map":
            data_types.append(DataType.MAPS)
        elif element.tag == "a" and "web.example.com" in element.attr("href"):
            data_types.append(DataType.WEBPAGE)
    # Deduplicate preserving order.
    seen: set[DataType] = set()
    data_types = [d for d in data_types if not (d in seen or seen.add(d))]
    return goals, operators, data_types


def _noisy_pass(
    rng: np.random.Generator,
    truth: tuple[list[Goal], list[Operator], list[DataType]],
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
    batch_html: Mapping[int, str],
    rng: np.random.Generator,
    readings: dict[int, Reading] | None = None,
) -> Table:
    """Label every cluster from its representative batch's interface.

    Returns one row per cluster: ``cluster_id``, ``goals``, ``operators``,
    ``data_types`` (multi-labels ``+``-joined), plus the primaries as
    separate columns.

    ``readings`` optionally memoizes :func:`read_labels_from_html` per batch
    id across calls: a representative already in it is not re-parsed, and
    a new one is read and added.  A reading is a pure function of the
    (immutable) document, so the RNG draws and the labels are identical
    with or without the memo.
    """
    representative: dict[int, int] = {}
    for batch_id in sorted(cluster_of_batch):
        cluster = cluster_of_batch[batch_id]
        representative.setdefault(cluster, batch_id)

    rows = []
    for cluster_id in sorted(representative):
        batch_id = representative[cluster_id]
        truth = None if readings is None else readings.get(batch_id)
        if truth is None:
            truth = read_labels_from_html(batch_html[batch_id])
            if readings is not None:
                readings[batch_id] = truth
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

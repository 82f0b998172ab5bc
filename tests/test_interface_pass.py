"""One pass per interface: the design walk's label reading and the shingle
cleaning run once per :func:`repro.html.interface_key` group, and must give
what the per-document functions give.

- :func:`repro.enrichment.clustering._clean_by_interface` against
  :func:`~repro.enrichment.clustering._clean` per document, on noise twins
  (the digit runs after ``unit-`` re-drawn) of fuzzed and structured HTML
  and on the cases where a group must fall back to per-member cleaning.
- :func:`repro.enrichment.design.read_interface` (the reading taken in the
  feature walk) against :func:`read_labels_from_html` on every document of
  the tiny and small corpora, and :func:`repro.html.scan_interface`'s text
  and marked elements against ``text_content`` and ``iter_elements``.
- A cold enrichment parses each distinct interface key exactly once.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.enrichment import clustering, labels
from repro.enrichment.clustering import (
    _clean,
    _clean_by_interface,
    _clean_spans,
    _runs_deleted,
    shingle_corpus,
)
from repro.enrichment.design import extract_design_parameters, read_interface
from repro.enrichment.labels import (
    DATA_TYPE_TAGS,
    READING_COLUMNS,
    read_labels_from_html,
    reading_strings,
)
from repro.enrichment.pipeline import enrich_dataset
from repro.html import (
    extract_features,
    group_by_interface,
    interface_key,
    parse_html,
    scan_interface,
)
from repro.html import features as html_features
from tests.test_html_fuzz import markup_soup, tag_fragments
from tests.test_interface_key import _redraw, alphabets, spliced, structured

#: Pieces around which ``_UNIT_RE`` and the key disagree on what is noise.
_CLEAN_PIECES = [
    'data-unit="', '"', "unit-", "-", ".", ".png", "x.my", "٣", "_", " ",
    "<p>", "</p>", "<div class='task-unit' ", "data-unit=", "uni", "t-",
    ".unit-", "unit-1.",
]

cleaning_soup = st.lists(
    st.one_of(
        st.sampled_from(_CLEAN_PIECES),
        st.text(alphabet="0123456789", min_size=1, max_size=4),
    ),
    max_size=30,
).map("".join)


def _twins(html: str, rnd, alphabet: str, count: int = 3) -> dict[int, str]:
    docs = {0: html}
    for i in range(1, count + 1):
        docs[i] = _redraw(html, rnd, alphabet)
    return docs


def _assert_cleans_per_document(docs: dict[int, str]) -> None:
    groups = group_by_interface(docs)
    expected = [_clean(docs[b]) for b in groups.batch_ids]
    assert _clean_by_interface(docs, groups) == expected


class TestCleanByInterface:
    @given(spliced(cleaning_soup), st.randoms(use_true_random=False), alphabets)
    @settings(max_examples=200, deadline=None)
    def test_cleaning_soup_twins(self, html, rnd, alphabet):
        _assert_cleans_per_document(_twins(html, rnd, alphabet))

    @given(spliced(structured), st.randoms(use_true_random=False), alphabets)
    @settings(max_examples=150, deadline=None)
    def test_structured_twins(self, html, rnd, alphabet):
        _assert_cleans_per_document(_twins(html, rnd, alphabet))

    @given(spliced(markup_soup), st.randoms(use_true_random=False), alphabets)
    @settings(max_examples=100, deadline=None)
    def test_soup_twins(self, html, rnd, alphabet):
        _assert_cleans_per_document(_twins(html, rnd, alphabet))

    @given(spliced(tag_fragments), st.randoms(use_true_random=False), alphabets)
    @settings(max_examples=100, deadline=None)
    def test_fragment_twins(self, html, rnd, alphabet):
        _assert_cleans_per_document(_twins(html, rnd, alphabet))

    @pytest.mark.parametrize(
        "a, b, shared",
        [
            # (\.\w+)? eats ".unit", so "-2" survives cleaning.
            ("<p>unit-1.unit-2</p>", "<p>unit-1.unit-3</p>", False),
            ("<p>x.myunit-5 y</p>", "<p>x.myunit-6 y</p>", True),
            (
                '<div data-unit="unit-4">a</div>',
                '<div data-unit="unit-7">a</div>',
                True,
            ),
            # Unterminated: the second alternative deletes the run instead.
            ('<div data-unit="unit-4>a', '<div data-unit="unit-9>a', True),
            # \d takes the Arabic-Indic digit too; only "1" is rewritten.
            ("<p>unit-1٣</p>", "<p>unit-2٣</p>", True),
            ("<p>no noise here</p>", "<p>no noise here</p>", True),
            ("<p>unit-12-3.png unit-4.</p>", "<p>unit-45-3.png unit-7.</p>", True),
        ],
    )
    def test_fixed_cases(self, a, b, shared):
        docs = {0: a, 1: b}
        assert interface_key(a) == interface_key(b)
        _, spans = _clean_spans(a)
        assert _runs_deleted(a, spans) is shared
        _assert_cleans_per_document(docs)
        if not shared:
            assert _clean(a) != _clean(b)

    def test_clean_spans_equals_clean(self):
        for html in ["", "unit", "unit-1", 'a data-unit="x" b unit-2-3.jpg c',
                     "uniunit-1t-2", "no noise"]:
            text, _ = _clean_spans(html)
            assert text == _clean(html)

    def test_shingles_match_per_document_cleaning(self):
        docs = {
            0: "<p>unit-1.unit-2 a b c d</p>",
            1: "<p>unit-1.unit-3 a b c d</p>",
            2: '<p data-unit="unit-5">a b c</p>',
            3: '<p data-unit="unit-6">a b c</p>',
        }
        _, arrays = shingle_corpus(docs)
        for b, array in zip(sorted(docs), arrays):
            assert np.array_equal(array, clustering._shingle_array(docs[b]))
        assert not np.array_equal(arrays[0], arrays[1])
        assert arrays[2] is arrays[3]


def _marked_reference(html: str):
    root = parse_html(html)
    return root, [e for e in root.iter_elements() if e.tag in DATA_TYPE_TAGS]


class TestScanInterface:
    @given(st.one_of(spliced(structured), markup_soup, tag_fragments))
    @settings(max_examples=200, deadline=None)
    def test_walk_matches_tree_helpers(self, html):
        root, marked = _marked_reference(html)
        features, text, scanned = scan_interface(root, DATA_TYPE_TAGS)
        assert text == root.text_content()
        assert [id(e) for e in scanned] == [id(e) for e in marked]
        assert features == extract_features(html)

    @given(st.one_of(spliced(structured), markup_soup, tag_fragments))
    @settings(max_examples=200, deadline=None)
    def test_reading_matches_read_labels_from_html(self, html):
        assert read_interface(html)[1] == reading_strings(
            read_labels_from_html(html)
        )

    def test_no_marker_tags_marks_nothing(self):
        _, text, marked = scan_interface("<p>a<img src='/items/x'>b</p>")
        assert text == "ab"
        assert marked == []


def _check_corpus(batch_html):
    table = extract_design_parameters(batch_html)
    for row, batch_id in enumerate(table["batch_id"]):
        html = batch_html[int(batch_id)]
        expected = reading_strings(read_labels_from_html(html))
        assert read_interface(html)[1] == expected
        assert tuple(table[name][row] for name in READING_COLUMNS) == expected


class TestDesignReading:
    def test_tiny_corpus(self, released):
        _check_corpus(released.batch_html)

    def test_small_corpus(self):
        from repro.dataset.release import release_dataset
        from repro.simulator.config import SimulationConfig
        from repro.simulator.engine import simulate_marketplace

        config = SimulationConfig.preset("small", seed=7)
        released = release_dataset(simulate_marketplace(config), config)
        _check_corpus(released.batch_html)

    def test_reading_columns_are_strings(self, released):
        table = extract_design_parameters(released.batch_html)
        for name in READING_COLUMNS:
            assert table[name].dtype == object
            assert all(isinstance(v, str) for v in table[name])

    def test_empty_corpus(self):
        table = extract_design_parameters({})
        assert table.num_rows == 0
        for name in READING_COLUMNS:
            assert table[name].dtype == object


class TestOneParsePerInterface:
    def test_cold_enrichment_parses_each_key_once(
        self, released, monkeypatch
    ):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        parsed: list[str] = []

        def counting_parse(html):
            parsed.append(html)
            return parse_html(html)

        monkeypatch.setattr(html_features, "parse_html", counting_parse)
        monkeypatch.setattr(labels, "parse_html", counting_parse)
        docs = obs.counter("cluster.shingle_docs")
        templates = obs.counter("design.templates")
        d0, t0 = docs.value, templates.value
        from repro.simulator.config import SimulationConfig

        enrich_dataset(released, SimulationConfig.preset("tiny", seed=7))
        html = released.batch_html
        keys = {interface_key(doc) for doc in html.values()}
        assert len(parsed) == len(keys)
        assert {interface_key(doc) for doc in parsed} == keys
        assert templates.value - t0 == len(keys)
        assert docs.value - d0 == len(html)

    def test_one_key_pass_per_document(self, released, monkeypatch):
        calls = []

        def counting_key(html):
            calls.append(html)
            return interface_key(html)

        monkeypatch.setattr(html_features, "interface_key", counting_key)
        groups = group_by_interface(released.batch_html)
        extract_design_parameters(released.batch_html, groups=groups)
        shingle_corpus(released.batch_html, groups=groups)
        assert len(calls) == len(released.batch_html)

    def test_groups(self):
        docs = {5: "<p>unit-1</p>", 2: "<p>unit-2</p>", 9: "<b>x</b>"}
        groups = group_by_interface(docs)
        assert groups.batch_ids == [2, 5, 9]
        assert groups.index.tolist() == [0, 0, 1]
        assert groups.first == [0, 2]
        assert groups.num_groups == 2
        assert groups.representatives(docs) == ["<p>unit-2</p>", "<b>x</b>"]


"""Differential tests for :func:`repro.html.interface_key`.

Design extraction runs once per key, so the key must be exact: documents
that share a key must have equal :func:`extract_features` and equal
:func:`read_labels_from_html`.  The generators splice sample-item noise
(``unit-<digits>``) into the HTML fuzz generators and a structured
generator, then re-draw the digits to build a noise twin; the adversarial
cases pin the places where rewriting digits would change a reading.
"""

from __future__ import annotations

import re

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.enrichment.design import extract_design_parameters
from repro.enrichment.labels import read_labels_from_html
from repro.html import extract_features, interface_key
from repro.htmlgen.render import _DATA_SNIPPETS, _GOAL_PHRASES, _OPERATOR_PROMPTS
from tests.test_html_fuzz import markup_soup, tag_fragments

_NOISE_DIGITS = re.compile(r"(?<=unit-)[0-9]+")


def _reading(html: str):
    return extract_features(html), read_labels_from_html(html)


def _redraw(html: str, rnd, alphabet: str) -> str:
    """The noise twin: every digit run after ``unit-`` re-drawn, same length."""
    return _NOISE_DIGITS.sub(
        lambda m: "".join(rnd.choice(alphabet) for _ in m.group()), html
    )


#: Twins re-draw from two digits too, so equal and unequal runs both occur.
alphabets = st.sampled_from(["12", "0123456789"])

noise = st.builds(
    lambda digits: f"unit-{digits}",
    st.one_of(
        st.sampled_from(["1", "2", "12"]),
        st.text(alphabet="0123456789", min_size=1, max_size=9),
    ),
)


@st.composite
def spliced(draw, base):
    """``base`` HTML with unit noise inserted at arbitrary offsets."""
    html = draw(base)
    for _ in range(draw(st.integers(0, 4))):
        at = draw(st.integers(0, len(html)))
        html = html[:at] + draw(noise) + html[at:]
    return html


_STRUCTURED_PIECES = [
    "<div class='instructions'>", "</div>", "<h2>Instructions</h2>",
    "<p>", "</p>", "<b>Example 1:</b>", "<input type='text'>",
    "<input type='radio' name='q'>", "<textarea></textarea>", "<select>",
    "</select>", "<img src='a.png'>", "<script>var x = 1;</script>",
    "<div class='task-unit' data-unit='", "'>", "unit-", "-0", "\n",
    "<h1>", "</h1>", "<unit-1>", "</unit-2>", "<x-unit-3>", "</x-unit-3>",
    "<div unit-4='a' unit-5='b'>", "<p class='unit-5.instruction'>",
    "<input type='unit-6'>", "unit-٣", 'data-unit="<b> x"',
    "<!-- unit-7 -->", "<x<!---->", "word ", "Example", ":", "Instructions",
    *(phrase + ". " for phrase in _GOAL_PHRASES.values()),
    *(f"<p>{prompt}</p>" for prompt in _OPERATOR_PROMPTS.values()),
    *(snippet.format(item="unit-12-0") for snippet in _DATA_SNIPPETS.values()),
]

#: Noise in tag names, where re-drawn digits change which tags match;
#: ``<x<!---->`` becomes a tag-name prefix once the comment is removed.
nested = st.builds(
    "<{0}>{1}{2}{3}>{4}{5}{6}>{7}</{0}>".format,
    st.sampled_from(["h1", "b", "p"]),
    st.sampled_from(["", "Exam", "Instructions"]),
    st.sampled_from(["<", "<x<!---->"]),
    noise,
    st.sampled_from(["", "word"]),
    st.sampled_from(["</", "</x<!---->"]),
    noise,
    st.sampled_from(["", "ple", " 1:", "two words"]),
)

structured = st.lists(
    st.one_of(
        st.sampled_from(_STRUCTURED_PIECES),
        nested,
        noise,
        st.builds("<{}>".format, noise),
        st.builds("</{}>".format, noise),
    ),
    max_size=40,
).map("".join)


class TestKeyIsExact:
    @given(spliced(markup_soup), st.randoms(use_true_random=False), alphabets)
    @settings(max_examples=150, deadline=None)
    def test_soup_twins(self, html, rnd, alphabet):
        self._check(html, _redraw(html, rnd, alphabet))

    @given(spliced(tag_fragments), st.randoms(use_true_random=False), alphabets)
    @settings(max_examples=150, deadline=None)
    def test_fragment_twins(self, html, rnd, alphabet):
        self._check(html, _redraw(html, rnd, alphabet))

    @given(spliced(structured), st.randoms(use_true_random=False), alphabets)
    @settings(max_examples=200, deadline=None)
    def test_structured_twins(self, html, rnd, alphabet):
        self._check(html, _redraw(html, rnd, alphabet))

    @given(nested, st.randoms(use_true_random=False), alphabets)
    @settings(max_examples=200, deadline=None)
    def test_tag_name_twins(self, html, rnd, alphabet):
        self._check(html, _redraw(html, rnd, alphabet))

    @staticmethod
    def _check(html: str, twin: str) -> None:
        key = interface_key(html)
        assert len(key) == len(html)
        # The key is itself a member of its class.
        assert _reading(key) == _reading(html)
        if interface_key(twin) == key:
            assert _reading(twin) == _reading(html)


class TestAdversarial:
    def test_digit_run_in_tag_name_keeps_document(self):
        same = "<h1><unit-1></unit-1>Instructions</h1>"
        mismatched = "<h1><unit-1></unit-2>Instructions</h1>"
        # Rewriting the digits would merge these, but their trees differ.
        assert _reading(same) != _reading(mismatched)
        assert interface_key(same) == same
        assert interface_key(mismatched) == mismatched

    def test_tag_name_joined_by_comment_keeps_document(self):
        same = "<h1><x<!---->unit-1></x<!---->unit-1>Instructions</h1>"
        mismatched = "<h1><x<!---->unit-1></x<!---->unit-2>Instructions</h1>"
        assert _reading(same) != _reading(mismatched)
        assert interface_key(same) != interface_key(mismatched)

    def test_attribute_names_share_key(self):
        a = "<div unit-1='a' unit-2='b'><input type='text'></div>"
        b = "<div unit-7='a' unit-9='b'><input type='text'></div>"
        assert interface_key(a) == interface_key(b)
        assert _reading(a) == _reading(b)

    def test_non_ascii_digit_is_not_rewritten(self):
        a = "<p>unit-٣ words</p>"
        assert interface_key(a) == a
        assert interface_key("<p>unit-٤ words</p>") != interface_key(a)

    def test_instruction_class_survives(self):
        a = '<p class="unit-5.instruction">x</p>'
        b = '<p class="unit-8.instruction">x</p>'
        assert interface_key(a) == interface_key(b)
        assert extract_features(a).has_instructions
        assert _reading(a) == _reading(b)

    def test_data_unit_markup_in_text_keeps_words(self):
        a = '<p>data-unit="<b> x" unit-12 more words</p>'
        key = interface_key(a)
        assert key == '<p>data-unit="<b> x" unit-00 more words</p>'
        assert extract_features(key).num_words == extract_features(a).num_words

    def test_released_token_shape(self):
        a = (
            '<div class="task-unit" data-unit="unit-01234567">'
            '<img src="https://cdn.example.com/items/unit-01234567-0.jpg">'
        )
        b = a.replace("01234567", "98765432")
        assert interface_key(a) == interface_key(b)
        assert "unit-00000000-0" in interface_key(a)


class TestExtractDesignParameters:
    def _per_document(self, batch_html):
        features = [extract_features(batch_html[b]) for b in sorted(batch_html)]
        return {
            name: [getattr(f, name) for f in features]
            for name in ("num_words", "num_text_boxes", "num_examples",
                         "num_images", "num_input_fields", "has_instructions")
        }

    def test_matches_per_document_extraction(self, study):
        batch_html = study.released.batch_html
        table = extract_design_parameters(batch_html)
        assert table["batch_id"].tolist() == sorted(batch_html)
        for name, values in self._per_document(batch_html).items():
            assert table[name].tolist() == values, name

    def test_empty(self):
        table = extract_design_parameters({})
        assert table.num_rows == 0
        assert table["num_words"].dtype == np.int64
        assert table["has_instructions"].dtype == bool

    def test_counters(self):
        docs = obs.counter("design.docs")
        templates = obs.counter("design.templates")
        d0, t0 = docs.value, templates.value
        extract_design_parameters({
            1: "<p>a</p>unit-1", 2: "<p>a</p>unit-2", 3: "<p>b</p>",
        })
        assert docs.value - d0 == 3
        assert templates.value - t0 == 2

    def test_worker_pool_invariant(self, study, monkeypatch):
        serial = extract_design_parameters(study.released.batch_html)
        monkeypatch.setenv("REPRO_WORKERS", "2")
        pooled = extract_design_parameters(study.released.batch_html)
        for name in serial.column_names:
            assert np.array_equal(serial[name], pooled[name]), name

    def test_medium_corpus_has_1575_templates(self):
        from repro.dataset.release import release_dataset
        from repro.simulator.config import SimulationConfig
        from repro.simulator.engine import simulate_marketplace

        config = SimulationConfig.preset("medium", seed=12)
        released = release_dataset(simulate_marketplace(config), config)
        docs = obs.counter("design.docs")
        templates = obs.counter("design.templates")
        d0, t0 = docs.value, templates.value
        extract_design_parameters(released.batch_html)
        assert docs.value - d0 == 5550
        assert templates.value - t0 == 1575

"""Differential tests: template-deduped shingling vs per-document shingling.

:func:`shingle_corpus` cleans each document once, groups documents by
cleaned text and shingles each distinct text once.  The reference here is
the per-document kernel, :func:`shingle_arrays` on one document at a time,
which must give every document the same array.
"""

from __future__ import annotations

import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.enrichment.clustering import (
    _crc32_spans,
    _SHINGLE_DOC_CHUNK,
    _clean,
    _shingle_cleaned,
    shingle_arrays,
    shingle_corpus,
)


@pytest.fixture(autouse=True)
def _tracing_off():
    yield
    obs.finish()


def _per_document(html_by_batch):
    ids = sorted(html_by_batch)
    return ids, [shingle_arrays([html_by_batch[b]])[0] for b in ids]


def _assert_matches_reference(html_by_batch):
    ids, arrays = shingle_corpus(html_by_batch)
    ref_ids, ref_arrays = _per_document(html_by_batch)
    assert ids == ref_ids
    assert len(arrays) == len(ref_arrays)
    for got, want in zip(arrays, ref_arrays):
        assert got.dtype == want.dtype == np.uint64
        assert got.tobytes() == want.tobytes()


# Template bodies: ASCII markup, non-ASCII text (regex fallback tokenizer),
# empty and whitespace-only documents, and the non-idempotent noise case.
_BODIES = [
    "<div class='task'><p>Label the image</p><img src=x></div>",
    "<h1>Instructions</h1><p>Pick one</p><input type=radio name=a>",
    "<p>Écrivez une phrase — merci</p><textarea></textarea>",
    "<p>日本語 の テキスト</p>",
    "",
    "   ",
    "uniunit-1t-2",
    "<p>uniunit-7t-3 remains</p>",
    "a b c d e f g",
]
_NOISE = st.one_of(
    st.integers(0, 10**8).map(lambda n: f"unit-{n:08d}"),
    st.integers(0, 99).map(lambda n: f'<span data-unit="u{n}"></span>'),
    st.integers(0, 99).map(lambda n: f"unit-{n}-{n + 1}.jpg"),
    st.just(""),
)


@st.composite
def _corpora(draw):
    n = draw(st.integers(1, 40))
    docs = {}
    for batch_id in draw(
        st.lists(st.integers(0, 10_000), min_size=n, max_size=n, unique=True)
    ):
        body = draw(st.sampled_from(_BODIES))
        noise = draw(_NOISE)
        # Documents of one body differ only in where and which noise sits.
        docs[batch_id] = draw(
            st.sampled_from([body + noise, noise + body, body])
        )
    return docs


class TestDedupedShingling:
    @given(_corpora())
    @settings(max_examples=80, deadline=None)
    def test_matches_per_document_kernel(self, docs):
        _assert_matches_reference(docs)

    def test_documents_differing_only_in_noise_share_one_array(self):
        docs = {
            1: "<p>same task</p> unit-00000001",
            2: "<p>same task</p> unit-99999999",
            3: "<p>same task</p> ",
            4: '<p>same task</p> <i data-unit="z"></i>',
        }
        _, arrays = shingle_corpus(docs)
        assert arrays[0] is arrays[1] is arrays[2]
        # Stripping the attribute leaves "<i >", a different token.
        assert arrays[0].tobytes() != arrays[3].tobytes()
        _assert_matches_reference(docs)

    def test_noise_is_stripped_exactly_once(self):
        # One pass of the unit-noise regex turns "uniunit-1t-2" into
        # "unit-2"; a second pass would strip that too.
        assert _clean("uniunit-1t-2") == "unit-2"
        assert _clean(_clean("uniunit-1t-2")) == ""
        docs = {1: "uniunit-1t-2", 2: "unit-2", 3: ""}
        _, arrays = shingle_corpus(docs)
        ref = _shingle_cleaned(["unit-2"])[0]
        assert arrays[0].tobytes() == ref.tobytes()
        # "unit-2" itself is noise, so document 2 cleans to empty text.
        assert arrays[1].tobytes() == arrays[2].tobytes()
        assert arrays[0].tobytes() != arrays[1].tobytes()
        _assert_matches_reference(docs)

    def test_empty_and_non_ascii_documents(self):
        docs = {i: body for i, body in enumerate(_BODIES)}
        _assert_matches_reference(docs)

    def _many_templates(self):
        n = 3 * _SHINGLE_DOC_CHUNK + 5
        return {
            b: f"<div id=t{b % n}><p>task {b % n} words</p></div>"
            f"unit-{b:08d}"
            for b in range(2 * n)
        }

    def test_chunk_boundaries_are_crossed(self):
        docs = self._many_templates()
        obs.enable(name="t")
        _assert_matches_reference(docs)
        trace = obs.finish()
        (span,) = [s for s in trace.spans if s.name == "cluster.shingle"]
        assert span.attrs["templates"] > 3 * _SHINGLE_DOC_CHUNK
        assert span.attrs["docs"] == len(docs)

    def test_two_workers_match_serial(self, monkeypatch):
        docs = self._many_templates()
        serial = shingle_corpus(docs)
        monkeypatch.setenv("REPRO_WORKERS", "2")
        fallbacks = obs.counter("parallel.serial_fallback")
        f0 = fallbacks.value
        pooled = shingle_corpus(docs)
        assert fallbacks.value == f0  # the pool really ran
        assert serial[0] == pooled[0]
        assert [a.tobytes() for a in serial[1]] == [
            a.tobytes() for a in pooled[1]
        ]
        _assert_matches_reference(docs)


class TestShingleCounters:
    def test_docs_and_templates(self):
        docs_counter = obs.counter("cluster.shingle_docs")
        templates_counter = obs.counter("cluster.shingle_templates")
        docs = {1: "<p>a</p>unit-1", 2: "<p>a</p>unit-2", 3: "<p>b</p>"}
        d0, t0 = docs_counter.value, templates_counter.value
        shingle_corpus(docs)
        assert docs_counter.value - d0 == 3
        assert templates_counter.value - t0 == 2

    def test_medium_corpus_has_1575_templates(self):
        from repro.dataset.release import release_dataset
        from repro.simulator.config import SimulationConfig
        from repro.simulator.engine import simulate_marketplace

        config = SimulationConfig.preset("medium", seed=12)
        released = release_dataset(simulate_marketplace(config), config)
        docs_counter = obs.counter("cluster.shingle_docs")
        templates_counter = obs.counter("cluster.shingle_templates")
        d0, t0 = docs_counter.value, templates_counter.value
        shingle_corpus(released.batch_html)
        assert docs_counter.value - d0 == 5550
        assert templates_counter.value - t0 == 1575


def _crc_spans(tokens: list[bytes]) -> np.ndarray:
    lengths = np.array([len(t) for t in tokens], dtype=np.int64)
    flat = np.frombuffer(b"".join(tokens), dtype=np.uint8)
    starts = np.r_[0, np.cumsum(lengths)[:-1]].astype(np.int64)[:len(tokens)]
    return _crc32_spans(flat, starts, lengths)


class TestLengthOrderedCrc:
    """``_crc32_spans`` walks spans longest first; each CRC must still be
    ``zlib.crc32`` of its own span, in input order."""

    @given(st.lists(st.binary(min_size=1, max_size=70), max_size=60))
    @settings(max_examples=150, deadline=None)
    def test_matches_zlib(self, tokens):
        got = _crc_spans(tokens)
        assert got.dtype == np.uint64
        assert got.tolist() == [zlib.crc32(t) for t in tokens]

    @pytest.mark.parametrize(
        "tokens",
        [
            [],
            [b"x"],
            [b"<div>"],
            [b"ab", b"cd", b"ef", b"gh"],
            [b"abc", b"a", b"abc", b"ab", b"abc"],
        ],
    )
    def test_edge_cases(self, tokens):
        assert _crc_spans(tokens).tolist() == [zlib.crc32(t) for t in tokens]

    def test_spans_may_overlap_and_skip_bytes(self):
        flat = np.frombuffer(b"hello world, hello", dtype=np.uint8)
        starts = np.array([13, 0, 6, 1], dtype=np.int64)
        lengths = np.array([5, 5, 5, 3], dtype=np.int64)
        got = _crc32_spans(flat, starts, lengths).tolist()
        raw = bytes(flat)
        assert got == [
            zlib.crc32(raw[s:s + n]) for s, n in zip(starts, lengths)
        ]

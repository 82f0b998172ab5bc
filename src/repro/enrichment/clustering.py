"""Batch clustering by HTML similarity (paper §3.3).

"We first clustered the batches in our dataset based on metadata from the
extracted HTML source ... and tuned the threshold of a match to ensure that
the tasks that on inspection look very similar ... are actually clustered
together."

Pipeline: token shingles → 64-permutation minhash signatures → LSH banding
to find candidate pairs → exact Jaccard verification at ``threshold`` →
union-find to form clusters.

Each document is processed once per template, not once per batch: the
per-batch unit noise is stripped once per :func:`repro.html.interface_key`
group where that is exact (:func:`_clean_by_interface`), and only the
distinct cleaned texts (1,575 of 5,550 documents at medium) are tokenized
and hashed; documents with the same cleaned text share one shingle array.
Signatures, banding and verification likewise run once per distinct
shingle array.

Every stage is vectorized: ASCII documents are tokenized and CRC32-hashed in
one byte-level numpy pass over a whole corpus chunk (token spans come from a
character-class mask plus a tag-pairing scan over ``<``/``>`` positions only,
so no per-token Python strings are built; non-ASCII documents fall back to
the regex tokenizer), shingle hashes from a flat polynomial scan over every
document's windows at once, signatures from a single
``(num_perm × total_shingles)`` pass with ``minimum.reduceat`` per document,
and Jaccard verification from sorted-array intersection.  The scalar helpers
(:func:`shingles`, :func:`minhash_signature`, :func:`jaccard`) are exact
set-level equivalents kept as the public single-document API.
"""

from __future__ import annotations

import re
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro import obs
from repro.html import InterfaceGroups, group_by_interface
from repro.html.features import _ASCII_DIGITS, _ITEM_PREFIX
from repro.parallel import map_chunks

#: Exact-Jaccard verifications performed / merges accepted by union-find.
_PAIRS_COMPARED = obs.counter("cluster.pairs_compared")
_PAIRS_MERGED = obs.counter("cluster.pairs_merged")
#: Documents pushed through the batched minhash signature kernel.
_MINHASH_DOCS = obs.counter("cluster.minhash_docs")
#: Documents shingled; distinct cleaned texts actually tokenized by
#: :func:`shingle_corpus`; texts that took the regex fallback tokenizer.
_SHINGLE_DOCS = obs.counter("cluster.shingle_docs")
_SHINGLE_TEMPLATES = obs.counter("cluster.shingle_templates")
_SHINGLE_FALLBACK_DOCS = obs.counter("cluster.shingle_fallback_docs")

_TOKEN_RE = re.compile(r"<[^>]+>|[^\s<>]+")

#: Attribute noise that varies between batches of the same task (the sample
#: item token); stripped before shingling.
_UNIT_RE = re.compile(r'(data-unit="[^"]*"|unit-\d+(-\d+)?(\.\w+)?)')

_MERSENNE = np.uint64((1 << 61) - 1)


def _tokens(html: str) -> list[str]:
    return _TOKEN_RE.findall(_clean(html))


#: Polynomial base for combining token hashes into shingle hashes.  Python's
#: builtin ``hash`` is process-salted and would make clustering vary across
#: runs; CRC32 token hashes keep the whole pipeline deterministic.
_POLY_BASE = 1_000_003

#: Shingle hashes live in [0, 2^61): the polynomial accumulator is reduced
#: mod 2^61 after every step.
_SHINGLE_MASK = np.uint64(0x1FFFFFFFFFFFFFFF)
_POLY_BASE_U64 = np.uint64(_POLY_BASE)
_MASK29 = np.uint64((1 << 29) - 1)
_MASK32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)


def _shingle_hash(token_hashes: list[int]) -> int:
    """Scalar reference for the polynomial shingle hash (mod 2^61)."""
    acc = 0
    for h in token_hashes:
        acc = (acc * _POLY_BASE + h) & 0x1FFFFFFFFFFFFFFF  # mod 2^61
    return acc


def _make_crc32_table() -> np.ndarray:
    table = np.empty(256, dtype=np.uint32)
    for i in range(256):
        c = i
        for _ in range(8):
            c = (c >> 1) ^ 0xEDB88320 if c & 1 else c >> 1
        table[i] = c
    return table


_CRC32_TABLE = _make_crc32_table()


def _crc32_batch(tokens: Sequence[bytes]) -> np.ndarray:
    """``zlib.crc32`` of many byte strings in one table-driven numpy pass.

    The tokens are laid out in a flat byte array and the CRC state of every
    token advances one byte per iteration (iteration count = longest token),
    so the Python-level work is O(max token length), not O(total bytes).
    """
    n = len(tokens)
    if n == 0:
        return np.empty(0, dtype=np.uint64)
    lengths = np.fromiter((len(t) for t in tokens), dtype=np.int64, count=n)
    flat = np.frombuffer(b"".join(tokens), dtype=np.uint8)
    offsets = np.concatenate([[0], np.cumsum(lengths)[:-1]])
    return _crc32_spans(flat, offsets, lengths)


def _poly_step(acc: np.ndarray, h: np.ndarray) -> np.ndarray:
    """One exact ``acc * BASE + h (mod 2^61)`` step on uint64 arrays.

    ``acc * BASE`` can reach 2^81, past uint64; split ``acc`` into 32-bit
    halves so every intermediate stays below 2^62 and the modular result is
    bit-identical to unbounded-integer arithmetic.
    """
    hi = acc >> _SHIFT32
    lo = acc & _MASK32
    hi_term = ((hi * _POLY_BASE_U64) & _MASK29) << _SHIFT32
    return (hi_term + lo * _POLY_BASE_U64 + h) & _SHINGLE_MASK


#: Character-class tables for the byte-level ASCII tokenizer, derived from
#: the tokenizer regex's own character classes so the two paths can never
#: disagree on what counts as whitespace or a word character.
_WS_RE = re.compile(r"\s")
_WORD_LUT = np.array(
    [not _WS_RE.match(chr(i)) and chr(i) not in "<>" for i in range(128)],
    dtype=bool,
)
_LT_BYTE, _GT_BYTE = 0x3C, 0x3E  # "<", ">"


def _tag_spans(lts: np.ndarray, gts: np.ndarray) -> tuple[list[int], list[int]]:
    """Pair ``<`` positions with ``>`` positions the way the regex scan does.

    A ``<`` at ``p`` matches the first ``>`` after it at ``q`` iff
    ``q > p + 1`` (``<[^>]+>`` needs at least one inner character); the whole
    span is one token and any ``<`` inside it is swallowed.  ``<>`` consumes
    both characters without producing a token, and a ``<`` with no later
    ``>`` kills every remaining ``<``.  Only special-character positions are
    visited, so this loop is O(tags), not O(bytes).
    """
    starts: list[int] = []
    ends: list[int] = []
    li, gi, nl, ng = 0, 0, len(lts), len(gts)
    cursor = -1
    while li < nl:
        p = lts[li]
        if p < cursor:
            li += 1
            continue
        while gi < ng and gts[gi] <= p:
            gi += 1
        if gi == ng:
            break
        q = gts[gi]
        if q == p + 1:
            gi += 1
            li += 1
            cursor = q + 1
            continue
        starts.append(p)
        ends.append(q)
        cursor = q + 1
        li += 1
    return starts, ends


def _token_spans_ascii(
    flat: np.ndarray, doc_offsets: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Regex-equivalent token spans of a flat ASCII byte buffer.

    ``doc_offsets`` holds ``n + 1`` document boundaries (documents are
    separated by one space so no run straddles them).  Returns token
    ``(starts, lengths, per-document counts)``.  Word runs come from one
    boolean-mask diff over the whole buffer; tag spans from
    :func:`_tag_spans`; word runs inside a tag span are replaced by the
    span's single token.
    """
    word = _WORD_LUT[flat]
    lt_pos = np.flatnonzero(flat == _LT_BYTE)
    gt_pos = np.flatnonzero(flat == _GT_BYTE)
    span_starts: list[int] = []
    span_ends: list[int] = []
    if len(lt_pos) and len(gt_pos):
        lt_doc = np.searchsorted(lt_pos, doc_offsets)
        gt_doc = np.searchsorted(gt_pos, doc_offsets)
        for d in range(len(doc_offsets) - 1):
            ls = lt_pos[lt_doc[d]:lt_doc[d + 1]]
            if not len(ls):
                continue
            gs = gt_pos[gt_doc[d]:gt_doc[d + 1]]
            if not len(gs):
                continue
            s, e = _tag_spans(ls, gs)
            span_starts.extend(s)
            span_ends.extend(e)
    run_bounds = np.flatnonzero(np.diff(np.r_[False, word, False]))
    run_starts = run_bounds[0::2]
    run_ends = run_bounds[1::2]
    if span_starts:
        sp_s = np.asarray(span_starts, dtype=np.int64)
        sp_e = np.asarray(span_ends, dtype=np.int64)
        # A word run never contains < or >, so it is either fully inside a
        # tag span or fully outside; inside runs are part of the tag token.
        idx = np.searchsorted(sp_s, run_starts, side="right") - 1
        inside = (idx >= 0) & (run_starts <= sp_e[np.maximum(idx, 0)])
        run_starts = run_starts[~inside]
        run_ends = run_ends[~inside]
        ins = np.searchsorted(run_starts, sp_s)
        tok_starts = np.insert(run_starts, ins, sp_s)
        tok_ends = np.insert(run_ends, ins, sp_e + 1)
    else:
        tok_starts = run_starts
        tok_ends = run_ends
    counts = np.diff(np.searchsorted(tok_starts, doc_offsets))
    return tok_starts, tok_ends - tok_starts, counts


def _crc32_spans(
    flat: np.ndarray, starts: np.ndarray, lengths: np.ndarray
) -> np.ndarray:
    """CRC32 of many byte spans of ``flat``, one byte per iteration.

    Spans are ordered by length once, stably and longest first, so the
    spans still live at byte ``j`` (those longer than ``j``) are a prefix
    of that order and each step updates a slice, with no mask over every
    span.
    """
    n = len(starts)
    crc = np.full(n, 0xFFFFFFFF, dtype=np.uint32)
    if n:
        order = np.argsort(-lengths, kind="stable")
        pos = starts[order]
        # live[j]: spans longer than j, i.e. n minus those of length <= j.
        live = n - np.cumsum(np.bincount(lengths, minlength=1))
        for j in range(int(lengths[order[0]])):
            k = int(live[j])
            state = crc[:k]
            byte = flat[pos[:k] + j].astype(np.uint32)
            crc[:k] = _CRC32_TABLE[(state ^ byte) & np.uint32(0xFF)] ^ (
                state >> np.uint32(8)
            )
        out = np.empty_like(crc)
        out[order] = crc
        crc = out
    return (crc ^ np.uint32(0xFFFFFFFF)).astype(np.uint64)


def _clean(html: str) -> str:
    """``html`` with the unit noise stripped — the text that is shingled.

    Not idempotent (``"uniunit-1t-2"`` cleans to ``"unit-2"``), so a
    document is cleaned exactly once and a cleaned text never again.
    """
    # Both unit-noise alternatives contain the literal "unit"; the substring
    # probe skips the regex scan for the vast majority of documents.
    return _UNIT_RE.sub("", html) if "unit" in html else html


def _doc_hashes(cleaned: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """uint64 token-hash stream of every cleaned text: ``(h_flat, lengths)``.

    ASCII texts are concatenated into one byte buffer and tokenized +
    CRC32-hashed in a single vectorized pass; non-ASCII texts fall back to
    the regex tokenizer per text.  The hash stream is identical either way
    — CRC32 of the UTF-8 token bytes.
    """
    n = len(cleaned)
    ascii_mask = [h.isascii() for h in cleaned]
    fallback: dict[int, np.ndarray] = {}
    for i, ok in enumerate(ascii_mask):
        if not ok:
            toks = _TOKEN_RE.findall(cleaned[i])
            fallback[i] = _crc32_batch([t.encode() for t in toks])
    if fallback:
        _SHINGLE_FALLBACK_DOCS.inc(len(fallback))
    ascii_ids = [i for i in range(n) if ascii_mask[i]]
    lengths = np.zeros(n, dtype=np.int64)
    if ascii_ids:
        bufs = [cleaned[i].encode() for i in ascii_ids]
        sizes = np.fromiter(
            (len(b) for b in bufs), dtype=np.int64, count=len(bufs)
        )
        flat = np.frombuffer(b" ".join(bufs), dtype=np.uint8)
        doc_offsets = np.r_[0, np.cumsum(sizes + 1)]
        doc_offsets[-1] -= 1
        tok_starts, tok_lens, counts = _token_spans_ascii(flat, doc_offsets)
        crcs = _crc32_spans(flat, tok_starts, tok_lens)
        lengths[ascii_ids] = counts
    else:
        crcs = np.empty(0, dtype=np.uint64)
        counts = np.empty(0, dtype=np.int64)
    for i, fh in fallback.items():
        lengths[i] = len(fh)
    if not fallback:
        return crcs, lengths
    pieces: list[np.ndarray] = []
    bounds = np.r_[0, np.cumsum(counts)]
    ai = 0
    for i in range(n):
        if ascii_mask[i]:
            pieces.append(crcs[bounds[ai]:bounds[ai + 1]])
            ai += 1
        else:
            pieces.append(fallback[i])
    return np.concatenate(pieces), lengths


def shingle_arrays(htmls: Sequence[str], *, k: int = 4) -> list[np.ndarray]:
    """Sorted unique uint64 shingle hashes of many documents at once.

    Batched equivalent of calling :func:`_shingle_array` per document: the
    whole chunk is tokenized and hashed in one byte-level pass, every
    document's k-windows are combined in ``k - 1`` flat polynomial steps
    (documents grouped by window geometry), and deduplication is one
    row-wise sort per group instead of one ``np.unique`` per document.
    """
    htmls = list(htmls)
    _SHINGLE_DOCS.inc(len(htmls))
    return _shingle_cleaned([_clean(h) for h in htmls], k=k)


def _shingle_cleaned(cleaned: Sequence[str], *, k: int = 4) -> list[np.ndarray]:
    """The :func:`shingle_arrays` kernel over already-cleaned texts."""
    n = len(cleaned)
    out: list[np.ndarray | None] = [None] * n
    if not n:
        return out
    h_flat, lengths = _doc_hashes(cleaned)
    nonempty = np.flatnonzero(lengths > 0)
    for i in np.flatnonzero(lengths == 0):
        out[i] = np.zeros(1, dtype=np.uint64)
    if not nonempty.size:
        return out
    all_offsets = np.r_[0, np.cumsum(lengths)[:-1]]
    offsets = all_offsets[nonempty]
    lens = lengths[nonempty]
    widths = np.minimum(lens, k)
    ms = lens - widths + 1
    # Group documents sharing (window width, window count): each group's
    # windows form a dense (docs × windows) grid.
    geometry = widths * (int(ms.max()) + 1) + ms
    for key in np.unique(geometry):
        sel = np.flatnonzero(geometry == key)
        w = int(widths[sel[0]])
        m = int(ms[sel[0]])
        nd = len(sel)
        starts = np.tile(np.arange(m, dtype=np.int64), nd) + np.repeat(
            offsets[sel], m
        )
        acc = h_flat[starts]
        for j in range(1, w):
            acc = _poly_step(acc, h_flat[starts + j])
        grid = np.sort(acc.reshape(nd, m), axis=1)
        gf = grid.ravel()
        keep = np.empty(nd * m, dtype=bool)
        keep[1:] = gf[1:] != gf[:-1]
        keep[0::m] = True
        cnt = np.add.reduceat(keep, np.arange(0, nd * m, m))
        kv = gf[keep]
        hi = np.cumsum(cnt)
        lo = 0
        for di, bound in zip(sel, hi):
            out[int(nonempty[di])] = kv[lo:int(bound)]
            lo = int(bound)
    return out


def _shingle_array(html: str, *, k: int = 4) -> np.ndarray:
    """Sorted unique uint64 shingle hashes of one HTML token stream.

    Single-document view of :func:`shingle_arrays` (kept as the scalar
    kernel behind :func:`shingles` and the benchmarks).
    """
    return shingle_arrays([html], k=k)[0]


def shingles(html: str, *, k: int = 4) -> set[int]:
    """Stably hashed k-token shingles of the HTML token stream."""
    return set(map(int, _shingle_array(html, k=k)))


def jaccard(a: set[int], b: set[int]) -> float:
    """Exact Jaccard similarity of two shingle sets."""
    if not a and not b:
        return 1.0
    union = len(a | b)
    if union == 0:
        return 1.0
    return len(a & b) / union


def _intersection_size(a: np.ndarray, b: np.ndarray) -> int:
    """|a ∩ b| for sorted unique arrays, via binary search (no re-sort)."""
    if a.size > b.size:
        a, b = b, a
    idx = np.searchsorted(b, a)
    valid = idx < b.size
    return int(np.count_nonzero(b[idx[valid]] == a[valid]))


def _jaccard_sorted(a: np.ndarray, b: np.ndarray) -> float:
    """Exact Jaccard similarity of two sorted unique shingle arrays."""
    if a.size == 0 and b.size == 0:
        return 1.0
    inter = _intersection_size(a, b)
    union = int(a.size) + int(b.size) - inter
    return 1.0 if union == 0 else inter / union


_SHIFT61 = np.uint64(61)


def _mod_mersenne(x: np.ndarray) -> np.ndarray:
    """``x % (2^61 - 1)`` without integer division (in place).

    Because ``2^61 ≡ 1 (mod M)``, folding the top 3 bits onto the low 61
    is congruent; one fold leaves a value below ``M + 8``, so a single
    conditional subtract finishes the reduction.  Bit-identical to ``%``
    and ~5x faster (shifts and adds instead of 64-bit division).
    """
    high = x >> _SHIFT61
    x &= _MERSENNE
    x += high
    np.subtract(x, _MERSENNE, out=x, where=x >= _MERSENNE)
    return x


def _permutation_params(num_perm: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    a = rng.integers(1, int(_MERSENNE), size=num_perm, dtype=np.uint64)
    b = rng.integers(0, int(_MERSENNE), size=num_perm, dtype=np.uint64)
    return a, b


def minhash_signature(
    shingle_set: Iterable[int], *, num_perm: int = 64, seed: int = 1234
) -> np.ndarray:
    """Minhash signature (length ``num_perm``) of a shingle set."""
    if isinstance(shingle_set, np.ndarray):
        values = shingle_set.astype(np.uint64, copy=False)
    else:
        values = np.fromiter(
            ((s & 0xFFFFFFFFFFFFFFFF) for s in shingle_set), dtype=np.uint64
        )
    if values.size == 0:
        return np.full(num_perm, np.iinfo(np.uint64).max, dtype=np.uint64)
    a, b = _permutation_params(num_perm, seed)
    # (a * x + b) mod p for each permutation; rows = permutations.
    with np.errstate(over="ignore"):
        hashed = _mod_mersenne(values[None, :] * a[:, None] + b[:, None])
    return hashed.min(axis=1)


#: Tile sizes for the batched signature pass.  The hash/fold/reduce sweeps
#: are memory-bound on the scratch matrix, so it is tiled to stay
#: cache-resident: chunks of ~2^13 shingles (document-aligned) by blocks of
#: 8 permutations — a 512 KB uint64 scratch per tile.
_CHUNK_SHINGLES = 1 << 13
_PERM_BLOCK = 8


def minhash_signatures(
    shingle_arrays: Sequence[np.ndarray], *, num_perm: int = 64, seed: int = 1234
) -> np.ndarray:
    """Minhash signatures of many shingle arrays in one batched pass.

    Returns a ``(len(shingle_arrays), num_perm)`` uint64 matrix; row ``i``
    equals ``minhash_signature(shingle_arrays[i])`` exactly.  All documents
    share one flat value array; per-permutation hashes are reduced per
    document with ``minimum.reduceat``, blocked over permutations to bound
    peak memory.
    """
    num_docs = len(shingle_arrays)
    _MINHASH_DOCS.inc(num_docs)
    out = np.full((num_docs, num_perm), np.iinfo(np.uint64).max, dtype=np.uint64)
    if num_docs == 0:
        return out
    lengths = np.fromiter(
        (len(s) for s in shingle_arrays), dtype=np.int64, count=num_docs
    )
    nonempty = np.flatnonzero(lengths > 0)
    if nonempty.size == 0:
        return out
    flat = np.concatenate(
        [np.asarray(shingle_arrays[i], dtype=np.uint64) for i in nonempty]
    )
    counts = lengths[nonempty]
    offsets = np.concatenate([[0], np.cumsum(counts)[:-1]]).astype(np.int64)
    a, b = _permutation_params(num_perm, seed)
    mins = np.empty((nonempty.size, num_perm), dtype=np.uint64)

    # Document-aligned shingle chunks of roughly _CHUNK_SHINGLES each (one
    # oversized document becomes its own chunk).
    chunk_bounds = [0]
    acc = 0
    for i, c in enumerate(counts):
        acc += int(c)
        if acc >= _CHUNK_SHINGLES:
            chunk_bounds.append(i + 1)
            acc = 0
    if chunk_bounds[-1] != len(counts):
        chunk_bounds.append(len(counts))

    ends = offsets + counts
    max_chunk = max(
        int(ends[hi - 1] - offsets[lo])
        for lo, hi in zip(chunk_bounds[:-1], chunk_bounds[1:])
    )
    scratch = np.empty((min(_PERM_BLOCK, num_perm), max_chunk), dtype=np.uint64)
    with np.errstate(over="ignore"):
        for lo, hi in zip(chunk_bounds[:-1], chunk_bounds[1:]):
            f0, f1 = int(offsets[lo]), int(ends[hi - 1])
            sub = flat[None, f0:f1]
            sub_offsets = offsets[lo:hi] - f0
            for p0 in range(0, num_perm, _PERM_BLOCK):
                p1 = min(num_perm, p0 + _PERM_BLOCK)
                hashed = scratch[: p1 - p0, : f1 - f0]
                np.multiply(sub, a[p0:p1, None], out=hashed)
                hashed += b[p0:p1, None]
                _mod_mersenne(hashed)
                mins[lo:hi, p0:p1] = np.minimum.reduceat(
                    hashed, sub_offsets, axis=1
                ).T
    out[nonempty] = mins
    return out


class _UnionFind:
    """Union-find with union-by-size and two-pass path compression."""

    __slots__ = ("parent", "size")

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.size = [1] * n

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, x: int, y: int) -> None:
        rx, ry = self.find(x), self.find(y)
        if rx == ry:
            return
        if self.size[rx] < self.size[ry]:
            rx, ry = ry, rx
        self.parent[ry] = rx
        self.size[rx] += self.size[ry]


def _validate_lsh_params(threshold: float, num_perm: int, bands: int) -> None:
    if not 0 < threshold <= 1:
        raise ValueError(f"threshold must be in (0, 1], got {threshold}")
    if num_perm % bands != 0:
        raise ValueError(f"bands ({bands}) must divide num_perm ({num_perm})")


#: Distinct cleaned texts per kernel call in :func:`shingle_corpus`: large
#: enough to amortize the batched kernel's setup, small enough to fan out
#: across workers.
_SHINGLE_DOC_CHUNK = 64


def shingle_corpus(
    html_by_batch: Mapping[int, str], *, groups: InterfaceGroups | None = None
) -> tuple[list[int], list[np.ndarray]]:
    """Shingle every document, returning ``(sorted batch ids, arrays)``.

    Shingles are a pure function of a document's cleaned text, and batches
    of one task template differ only in the unit noise that cleaning
    strips.  So documents are cleaned once per interface
    (:func:`_clean_by_interface`), grouped by cleaned text, and each
    distinct text is tokenized and hashed once; every document of a group
    shares that one (read-only) array.  ``groups`` passes in a
    :func:`repro.html.group_by_interface` of ``html_by_batch`` computed
    for other consumers too.

    The shingle phase is embarrassingly parallel per chunk of distinct
    texts, which makes it the piece a shard can precompute locally;
    :func:`cluster_shingled` then runs over the union.  Fans out over
    ``REPRO_WORKERS`` processes (serial by default); the result is invariant
    to the worker count and the chunk size.
    """
    if groups is None:
        groups = group_by_interface(html_by_batch)
    batch_ids = groups.batch_ids
    template_of: dict[str, int] = {}
    index = [
        template_of.setdefault(text, len(template_of))
        for text in _clean_by_interface(html_by_batch, groups)
    ]
    templates = list(template_of)
    chunks = [
        templates[i:i + _SHINGLE_DOC_CHUNK]
        for i in range(0, len(templates), _SHINGLE_DOC_CHUNK)
    ]
    with obs.span(
        "cluster.shingle", docs=len(batch_ids), templates=len(templates)
    ):
        per_chunk = map_chunks(_shingle_cleaned, chunks, min_items=2)
        distinct = [array for chunk in per_chunk for array in chunk]
        all_arrays = [distinct[t] for t in index]
    _SHINGLE_DOCS.inc(len(batch_ids))
    _SHINGLE_TEMPLATES.inc(len(templates))
    return batch_ids, all_arrays


def _clean_spans(html: str) -> tuple[str, list[tuple[int, int]]]:
    """:func:`_clean` of ``html`` and the spans it deleted, in order."""
    if "unit" not in html:
        return html, []
    spans = [m.span() for m in _UNIT_RE.finditer(html)]
    pieces: list[str] = []
    done = 0
    for start, end in spans:
        pieces.append(html[done:start])
        done = end
    pieces.append(html[done:])
    return "".join(pieces), spans


def _runs_deleted(html: str, spans: list[tuple[int, int]]) -> bool:
    """Whether every ASCII digit run right after ``unit-`` in ``html`` (the
    runs :func:`repro.html.interface_key` rewrites, the only characters in
    which documents of one interface group differ) lies in one of the
    deleted ``spans``."""
    i = 0
    pos = html.find(_ITEM_PREFIX)
    while pos >= 0:
        start = pos + len(_ITEM_PREFIX)
        run = _ASCII_DIGITS.match(html, start)
        if run is not None:
            end = run.end()
            # Spans are sorted and disjoint: only the first one ending at
            # or after the run can hold it.
            while i < len(spans) and spans[i][1] < end:
                i += 1
            if i == len(spans) or spans[i][0] > start:
                return False
        pos = html.find(_ITEM_PREFIX, start)
    return True


def _clean_by_interface(
    html_by_batch: Mapping[int, str], groups: InterfaceGroups
) -> list[str]:
    """:func:`_clean` of every document (aligned with ``groups.batch_ids``),
    running the regex once per interface group where that is exact.

    Documents of one group differ only in the ASCII digits of the runs
    :func:`repro.html.interface_key` rewrites, at the same positions.
    Swapping a digit for a digit keeps every class ``_UNIT_RE`` tests (its
    literals, ``[^"]``, ``\\d``, ``\\w``), so the regex deletes the same
    spans from every member.  If every rewritten run lies inside a deleted
    span, the members' cleaned texts are equal and the group shares its
    representative's; otherwise (``unit-1.unit-2``: ``(\\.\\w+)?`` eats
    ``.unit`` and ``-2`` survives) each member is cleaned on its own.
    """
    batch_ids = groups.batch_ids
    cleaned: list[str] = [""] * len(batch_ids)
    # Members of each group, first member first.
    members = np.argsort(groups.index, kind="stable")
    bounds = np.r_[0, np.cumsum(
        np.bincount(groups.index, minlength=groups.num_groups)
    )]
    for group, first in enumerate(groups.first):
        html = html_by_batch[batch_ids[first]]
        text, spans = _clean_spans(html)
        cleaned[first] = text
        rest = members[bounds[group] + 1:bounds[group + 1]]
        if not len(rest):
            continue
        shared = _runs_deleted(html, spans)
        for i in rest:
            cleaned[i] = text if shared else _clean(html_by_batch[batch_ids[i]])
    return cleaned


def cluster_batches(
    html_by_batch: Mapping[int, str],
    *,
    threshold: float = 0.60,
    num_perm: int = 64,
    bands: int = 16,
    seed: int = 1234,
) -> dict[int, int]:
    """Cluster batches by HTML similarity.

    Returns ``batch_id -> cluster_id`` with cluster ids dense from 0,
    numbered by order of first appearance.  ``threshold`` is the exact
    Jaccard similarity required to merge a verified candidate pair.

    Shingling fans out over ``REPRO_WORKERS`` processes (serial by default);
    signatures, candidate generation, and verification are batched numpy.
    The result is invariant to the worker count.
    """
    _validate_lsh_params(threshold, num_perm, bands)
    batch_ids, all_arrays = shingle_corpus(html_by_batch)
    return cluster_shingled(
        batch_ids,
        all_arrays,
        threshold=threshold,
        num_perm=num_perm,
        bands=bands,
        seed=seed,
    )


def _distinct(arrays: Sequence[np.ndarray]) -> tuple[np.ndarray, list[int]]:
    """Each array's distinct-content class, and each class's first index."""
    class_of: dict[bytes, int] = {}
    index = np.empty(len(arrays), dtype=np.int64)
    first: list[int] = []
    for i, arr in enumerate(arrays):
        code = class_of.setdefault(arr.tobytes(), len(first))
        if code == len(first):
            first.append(i)
        index[i] = code
    return index, first


def distinct_signatures(
    arrays: Sequence[np.ndarray], *, num_perm: int = 64, seed: int = 1234
) -> np.ndarray:
    """:func:`minhash_signatures` of ``arrays``, one pass per distinct array.

    Byte-identical shingle arrays (batches of one task template) share
    their row, so only distinct interfaces go through the kernel — the
    same dedupe :func:`cluster_shingled` applies before its minhash pass.
    """
    index, first = _distinct(arrays)
    return minhash_signatures(
        [arrays[i] for i in first], num_perm=num_perm, seed=seed
    )[index]


def cluster_shingled(
    batch_ids: Sequence[int],
    all_arrays: Sequence[np.ndarray],
    *,
    threshold: float = 0.60,
    num_perm: int = 64,
    bands: int = 16,
    seed: int = 1234,
    signatures: np.ndarray | None = None,
) -> dict[int, int]:
    """Cluster pre-shingled documents (``batch_ids`` aligned with arrays).

    This is the clustering back half of :func:`cluster_batches`; callers
    must pass batch ids in sorted order for the cluster numbering (dense,
    by first appearance) to match it.  The sharded pipeline shingles per
    shard, then runs this single global pass over the union — identical
    inputs in identical order, therefore an identical partition.

    ``signatures`` optionally carries each document's
    :func:`minhash_signatures` row (same ``num_perm`` and ``seed``), aligned
    with ``all_arrays``; the minhash pass is then skipped.  A signature is
    a pure function of its shingle array, so the partition is unchanged —
    this is how the ingest service reuses the rows of documents it has
    already seen.
    """
    _validate_lsh_params(threshold, num_perm, bands)

    # Batches of one task often have byte-identical templates; dedupe exact
    # shingle sets so minhash/LSH only runs on distinct interfaces.
    rep_index, rep_first = _distinct(all_arrays)
    rep_arrays = [all_arrays[i] for i in rep_first]

    if signatures is not None:
        signatures = signatures[rep_first]
    else:
        with obs.span("cluster.minhash", docs=len(rep_arrays)):
            signatures = minhash_signatures(
                rep_arrays, num_perm=num_perm, seed=seed
            )

    # LSH banding: any two documents agreeing on a full band are candidates.
    # Each bucket contributes (anchor, member) pairs; verifying the deduped
    # pair set in any order yields the same partition because unions of
    # already-connected components are no-ops.
    rows = num_perm // bands
    candidates: set[tuple[int, int]] = set()
    with obs.span("cluster.lsh", bands=bands):
        for band in range(bands):
            lo, hi = band * rows, (band + 1) * rows
            buckets: dict[bytes, int] = {}
            for i in range(len(rep_arrays)):
                anchor = buckets.setdefault(signatures[i, lo:hi].tobytes(), i)
                if anchor != i:
                    candidates.add((anchor, i))

    uf = _UnionFind(len(rep_arrays))
    with obs.span("cluster.verify", candidates=len(candidates)) as verify_span:
        compared = merged = 0
        for anchor, other in sorted(candidates):
            if uf.find(anchor) == uf.find(other):
                continue
            compared += 1
            if _jaccard_sorted(rep_arrays[anchor], rep_arrays[other]) >= threshold:
                uf.union(anchor, other)
                merged += 1
        _PAIRS_COMPARED.inc(compared)
        _PAIRS_MERGED.inc(merged)
        verify_span.set("compared", compared)
        verify_span.set("merged", merged)

    cluster_of_root: dict[int, int] = {}
    result: dict[int, int] = {}
    for i, batch_id in enumerate(batch_ids):
        root = uf.find(int(rep_index[i]))
        if root not in cluster_of_root:
            cluster_of_root[root] = len(cluster_of_root)
        result[batch_id] = cluster_of_root[root]
    return result

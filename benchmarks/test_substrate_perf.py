"""Micro-benchmarks of the substrate layers (table engine, minhash, tree).

These are honest performance benches (pytest-benchmark timings), not paper
reproductions — they document the cost structure of the library.

Benches named ``*_naive`` re-run the pre-vectorization algorithm (per-group
Python loops, per-document minhash) on the same inputs as their fast
counterpart.  ``scripts/bench_guard.py`` pairs them up to compute and guard
the fast-vs-naive speedup ratios recorded in ``BENCH_substrate.json``.
"""

import time
import zlib

import numpy as np

from repro import obs
from repro.enrichment.clustering import (
    _permutation_params,
    _shingle_array,
    _shingle_hash,
    _tokens,
    cluster_batches,
    minhash_signature,
    minhash_signatures,
    shingle_arrays,
    shingles,
)
from repro.ml import DecisionTreeClassifier
from repro.tables import DictColumn, Table, group_by, hash_join


def _synthetic_table(n: int, seed: int = 0) -> Table:
    rng = np.random.default_rng(seed)
    return Table(
        {
            "key": rng.integers(0, n // 100 + 1, size=n),
            "value": rng.normal(size=n),
            "weight": rng.exponential(size=n),
        },
        copy=False,
    )


def test_perf_group_by_median(benchmark):
    table = _synthetic_table(200_000)

    def run():
        return group_by(table, "key").agg(
            {"med": ("value", "median"), "total": ("weight", "sum")}
        )

    out = benchmark(run)
    assert out.num_rows == len(set(table["key"]))


def test_perf_group_by_median_naive(benchmark):
    """Verbatim seed algorithm: ``np.unique`` factorize + re-factorize +
    int64 stable argsort for grouping, then a per-group ``np.median`` call
    per segment (``sum`` used ``reduceat`` then as now)."""
    table = _synthetic_table(200_000)

    def run():
        _, codes = np.unique(table["key"], return_inverse=True)
        _, group_codes = np.unique(codes, return_inverse=True)
        order = np.argsort(group_codes, kind="stable")
        sorted_codes = group_codes[order]
        starts = np.flatnonzero(
            np.r_[True, sorted_codes[1:] != sorted_codes[:-1]]
        )
        ends = np.r_[starts[1:], len(order)]
        ordered_v = table["value"][order]
        med = np.array(
            [np.median(ordered_v[s:e]) for s, e in zip(starts, ends)]
        )
        ordered_w = table["weight"][order]
        tot = np.add.reduceat(ordered_w, starts)
        return med, tot

    med, _ = benchmark(run)
    assert len(med) == len(set(table["key"]))


def test_perf_hash_join(benchmark):
    left = _synthetic_table(50_000, seed=1)
    right = group_by(_synthetic_table(50_000, seed=2), "key").agg(
        {"right_total": ("weight", "sum")}
    )

    def run():
        return hash_join(left, right, on="key")

    out = benchmark(run)
    assert out.num_rows > 0


def test_perf_table_filter(benchmark):
    table = _synthetic_table(500_000)

    def run():
        return table.filter(table["value"] > 0.5)

    out = benchmark(run)
    assert 0 < out.num_rows < table.num_rows


_DICT_KEY_CARDINALITY = 40


def _string_key_table(n: int, seed: int = 3) -> tuple[Table, Table]:
    """The same table with a dictionary-encoded and a plain-object string
    key column (long descriptive keys like the §3.1 traffic sources,
    group-by shaped like the per-source rollups)."""
    rng = np.random.default_rng(seed)
    codes = rng.integers(0, _DICT_KEY_CARDINALITY, size=n).astype(np.int32)
    uniques = np.array(
        [
            f"traffic-source/{i:03d}/landing-page-campaign-{i * 7919:08x}"
            for i in range(_DICT_KEY_CARDINALITY)
        ],
        dtype=object,
    )
    value = rng.normal(size=n)
    encoded = Table(
        {"key": DictColumn(codes, uniques), "value": value}, copy=False
    )
    plain = Table(
        {"key": uniques[codes], "value": value}, copy=False
    )
    return encoded, plain


def test_perf_dict_group_by(benchmark):
    """Group-by on a dictionary-encoded string key: the kernel densifies
    int32 codes and never hashes a row's string."""
    encoded, plain = _string_key_table(400_000)

    def run():
        return group_by(encoded, "key").agg(
            {"n": ("value", "count"), "mean": ("value", "mean")}
        )

    out = benchmark(run)
    assert out.num_rows == _DICT_KEY_CARDINALITY
    ref = group_by(plain, "key").agg(
        {"n": ("value", "count"), "mean": ("value", "mean")}
    )
    assert list(out["key"]) == list(ref["key"])


def test_perf_dict_group_by_naive(benchmark):
    """Seed path: the same group-by over a plain ``object`` key column,
    which factorizes by hashing every row's string."""
    _encoded, plain = _string_key_table(400_000)

    def run():
        return group_by(plain, "key").agg(
            {"n": ("value", "count"), "mean": ("value", "mean")}
        )

    out = benchmark(run)
    assert out.num_rows == _DICT_KEY_CARDINALITY


def test_perf_minhash_signature(benchmark):
    tokens = " ".join(f"tok{i % 997}" for i in range(3_000))
    shingle_set = shingles(f"<div>{tokens}</div>")

    def run():
        return minhash_signature(shingle_set)

    signature = benchmark(run)
    assert len(signature) == 64


def _bench_corpus(num_docs: int = 300, tokens_per_doc: int = 400) -> dict[int, str]:
    """Synthetic HTML corpus shaped like real batch pages: many documents of
    a few hundred tokens with heavy cross-document vocabulary overlap."""
    rng = np.random.default_rng(9)
    docs = {}
    for d in range(num_docs):
        base = rng.integers(0, 400)
        words = " ".join(
            f"tok{int(base) + (i % 311)}" for i in range(tokens_per_doc)
        )
        docs[d] = f"<div class='doc-{d % 7}'>{words}</div>"
    return docs


def test_perf_minhash_batch(benchmark):
    """One batched ``minimum.reduceat`` pass over every document's shingle
    array — the signature stage of the vectorized clustering pipeline."""
    corpus = _bench_corpus()
    arrays = [_shingle_array(doc) for doc in corpus.values()]

    def run():
        return minhash_signatures(arrays)

    signatures = benchmark(run)
    assert signatures.shape == (len(corpus), 64)


def test_perf_minhash_batch_naive(benchmark):
    """Verbatim seed algorithm: shingle *sets* of Python ints converted per
    document, hashed per document with a 64-bit ``%`` reduction."""
    corpus = _bench_corpus()
    shingle_sets = [
        set(map(int, _shingle_array(doc))) for doc in corpus.values()
    ]
    mersenne = np.uint64((1 << 61) - 1)

    def seed_signature(shingle_set, num_perm=64, seed=1234):
        values = np.fromiter(
            ((s & 0xFFFFFFFFFFFFFFFF) for s in shingle_set), dtype=np.uint64
        )
        a, b = _permutation_params(num_perm, seed)
        with np.errstate(over="ignore"):
            hashed = (values[None, :] * a[:, None] + b[:, None]) % mersenne
        return hashed.min(axis=1)

    def run():
        return [seed_signature(s) for s in shingle_sets]

    signatures = benchmark(run)
    assert len(signatures) == len(corpus)
    assert np.array_equal(
        signatures[0],
        minhash_signatures([_shingle_array(next(iter(corpus.values())))])[0],
    )


def test_perf_shingle_extraction(benchmark):
    """Batched shingling of the bench corpus: one byte-level tokenize +
    CRC32 pass over the whole chunk, flat polynomial windows, grouped
    row-wise dedup (the ``shingle_corpus`` chunk kernel)."""
    corpus = _bench_corpus()
    docs = list(corpus.values())

    def run():
        return shingle_arrays(docs)

    arrays = benchmark(run)
    assert len(arrays) == len(corpus)
    assert all(
        np.array_equal(a, _shingle_array(d)) for a, d in zip(arrays[:3], docs[:3])
    )


def test_perf_shingle_extraction_naive(benchmark):
    """Pre-vectorization reference: per-token ``zlib.crc32`` and a pure
    Python polynomial hash per shingle window."""
    corpus = _bench_corpus()

    def naive_shingles(html, k=4):
        token_hashes = [zlib.crc32(t.encode()) for t in _tokens(html)]
        if len(token_hashes) < k:
            return {_shingle_hash(token_hashes)}
        return {
            _shingle_hash(token_hashes[i:i + k])
            for i in range(len(token_hashes) - k + 1)
        }

    def run():
        return [naive_shingles(doc) for doc in corpus.values()]

    sets = benchmark(run)
    assert len(sets) == len(corpus)


def _design_corpus(num_tasks: int = 100) -> dict[int, str]:
    """Released-style task pages: each task re-issued in 1-12 batches that
    differ only in the ``unit-XXXXXXXX`` item token, 15% of batches with a
    revision footer — about 3.5 documents per distinct interface, the
    medium preset's ratio (5,550 documents, 1,575 interfaces)."""
    from repro.htmlgen import render_task_html
    from repro.taxonomy.labels import DataType, Goal, Operator

    rng = np.random.default_rng(17)
    goals, operators, data_types = list(Goal), list(Operator), list(DataType)
    docs: dict[int, str] = {}
    for t in range(num_tasks):
        task = dict(
            title=f"task {t} review",
            goals=(goals[t % len(goals)],),
            operators=(operators[t % len(operators)],),
            data_types=(data_types[t % len(data_types)],),
            num_words=int(rng.integers(40, 400)),
            num_text_boxes=int(rng.integers(0, 3)),
            num_examples=int(rng.integers(0, 3)),
            num_images=int(rng.integers(0, 3)),
            num_choices=int(rng.integers(2, 5)),
            template_salt=t,
        )
        for _ in range(int(rng.integers(1, 13))):
            html = render_task_html(
                **task, item_token=f"unit-{int(rng.integers(10**8)):08d}"
            )
            if rng.random() < 0.15:
                footer = f"<p>batch revision {int(rng.integers(100))} posted</p>"
                html = html.replace("</body>", footer + "</body>")
            docs[len(docs)] = html
    return docs


def test_perf_design_extraction(benchmark):
    """Design features once per noise-canonical interface
    (``extract_design_parameters``: ``interface_key`` grouping, one parse
    per distinct interface, rows scattered back by batch)."""
    from repro.enrichment.design import extract_design_parameters

    corpus = _design_corpus()
    table = benchmark(lambda: extract_design_parameters(corpus))
    assert table.num_rows == len(corpus)


def test_perf_design_extraction_naive(benchmark):
    """Seed replica: parse and extract every document, one row at a time,
    and read its labels with a second parse."""
    from repro.enrichment.design import extract_design_parameters
    from repro.enrichment.labels import (
        READING_COLUMNS,
        read_labels_from_html,
        reading_strings,
    )
    from repro.html import extract_features

    corpus = _design_corpus()

    def run():
        batch_ids = sorted(corpus)
        rows = {
            "batch_id": np.asarray(batch_ids, dtype=np.int64),
            "num_words": np.empty(len(batch_ids), dtype=np.int64),
            "num_text_boxes": np.empty(len(batch_ids), dtype=np.int64),
            "num_examples": np.empty(len(batch_ids), dtype=np.int64),
            "num_images": np.empty(len(batch_ids), dtype=np.int64),
            "num_input_fields": np.empty(len(batch_ids), dtype=np.int64),
            "has_instructions": np.empty(len(batch_ids), dtype=bool),
            **{
                name: np.empty(len(batch_ids), dtype=object)
                for name in READING_COLUMNS
            },
        }
        for i, batch_id in enumerate(batch_ids):
            features = extract_features(corpus[batch_id])
            rows["num_words"][i] = features.num_words
            rows["num_text_boxes"][i] = features.num_text_boxes
            rows["num_examples"][i] = features.num_examples
            rows["num_images"][i] = features.num_images
            rows["num_input_fields"][i] = features.num_input_fields
            rows["has_instructions"][i] = features.has_instructions
            reading = reading_strings(read_labels_from_html(corpus[batch_id]))
            for name, value in zip(READING_COLUMNS, reading):
                rows[name][i] = value
        return Table(rows, copy=False)

    table = benchmark(run)
    fast = extract_design_parameters(corpus)
    assert table.column_names == fast.column_names
    for name in fast.column_names:
        assert np.array_equal(table[name], fast[name]), name


def test_perf_cluster_batches(benchmark):
    """End-to-end clustering of a synthetic near-duplicate corpus."""
    corpus = _bench_corpus(num_docs=120, tokens_per_doc=800)

    def run():
        return cluster_batches(corpus)

    mapping = benchmark(run)
    assert len(mapping) == len(corpus)
    assert max(mapping.values()) < len(corpus)


def test_perf_cluster_batches_traced(benchmark):
    """End-to-end clustering with span tracing *enabled* — the tracing-on
    cost, read against ``cluster_batches`` in ``BENCH_substrate.json``."""
    corpus = _bench_corpus(num_docs=120, tokens_per_doc=800)
    obs.enable(name="bench")
    try:
        mapping = benchmark(lambda: cluster_batches(corpus))
    finally:
        obs.finish()
    assert len(mapping) == len(corpus)


#: Skewed-shard scheduling workload: one straggler shard carrying 8x the
#: mean work plus 15 unit shards, two workers.  Sleep-based so the bench
#: measures *scheduler wall time* (sleeps overlap across pool workers even
#: on a single-CPU box) rather than CPU throughput, and is deterministic.
_SKEW_UNIT_S = 0.012
_SKEW_SIZES = (16,) + (1,) * 15
_SKEW_WORKERS = 2


def _skew_sleep(units: int) -> int:
    time.sleep(units * _SKEW_UNIT_S)
    return int(units)


def _skew_sleep_group(group: tuple) -> list:
    return [_skew_sleep(units) for units in group]


def test_perf_shard_sched_skewed(benchmark):
    """Work-stealing schedule of the skewed shard set: chunks flow through
    the as-completed dispatcher (:mod:`repro.parallel`), so the straggler
    pins one worker while the other drains every small shard — wall time
    approaches max(straggler, rest) = 16 units instead of 23."""
    from repro.parallel import map_chunks

    items = list(_SKEW_SIZES)

    def run():
        return map_chunks(
            _skew_sleep, items,
            workers=_SKEW_WORKERS, chunk_size=1, min_items=2,
        )

    out = benchmark(run)
    assert out == items


def test_perf_shard_sched_skewed_naive(benchmark):
    """Static placement of the same skewed shard set: shards pinned
    round-robin to a worker up front (shard ``i`` -> worker ``i % 2``, the
    ``batch_id % K`` discipline), so the shards stuck behind the straggler
    wait on it even while the other worker sits idle — wall time is the
    heaviest pinned group, 16 + 7 = 23 units."""
    from repro.parallel import map_chunks

    groups = [
        _SKEW_SIZES[w::_SKEW_WORKERS] for w in range(_SKEW_WORKERS)
    ]

    def run():
        return map_chunks(
            _skew_sleep_group, groups,
            workers=_SKEW_WORKERS, chunk_size=1, min_items=2,
        )

    out = benchmark(run)
    assert sorted(u for g in out for u in g) == sorted(_SKEW_SIZES)


def _best_time(fn, repeats: int = 5) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _disabled_primitive_costs(loops: int = 100_000) -> tuple[float, float]:
    """Per-call cost of a disabled ``obs.span`` and an ``obs.counter`` inc.

    Measured directly rather than by differencing two noisy kernel timings:
    the instrumented kernels perform a *fixed, small* number of these
    operations per call, so per-primitive cost × operation count bounds the
    real overhead far more stably than an A/B timing comparison.
    """
    assert not obs.enabled()

    def spans():
        for _ in range(loops):
            with obs.span("overhead.probe"):
                pass

    probe = obs.counter("overhead.probe")

    def incs():
        for _ in range(loops):
            probe.inc()

    return _best_time(spans) / loops, _best_time(incs) / loops


def test_tracing_disabled_overhead_under_3_percent():
    """Acceptance: with tracing disabled, the instrumentation left inside
    ``group_by`` and ``minhash_signatures`` costs <3% of either kernel.

    Per call, ``group_by(...).agg(...)`` executes at most a handful of
    counter increments (``groupby.calls`` plus the fast-path/sort-strategy
    counters) and zero spans; ``minhash_signatures`` one increment.  Both
    bounds are asserted with a generous operation-count margin.
    """
    span_cost, inc_cost = _disabled_primitive_costs()

    table = _synthetic_table(200_000)
    group_by_time = _best_time(
        lambda: group_by(table, "key").agg(
            {"med": ("value", "median"), "total": ("weight", "sum")}
        )
    )
    # ≤8 counter incs + room for 2 disabled spans per group_by call.
    group_by_overhead = 8 * inc_cost + 2 * span_cost
    assert group_by_overhead < 0.03 * group_by_time, (
        f"group_by instrumentation {group_by_overhead * 1e6:.2f} us is not "
        f"<3% of the {group_by_time * 1e3:.2f} ms kernel"
    )

    corpus = _bench_corpus()
    arrays = [_shingle_array(doc) for doc in corpus.values()]
    minhash_time = _best_time(lambda: minhash_signatures(arrays))
    # 1 counter inc inside minhash_signatures + room for 2 enclosing spans.
    minhash_overhead = inc_cost + 2 * span_cost
    assert minhash_overhead < 0.03 * minhash_time, (
        f"minhash instrumentation {minhash_overhead * 1e6:.2f} us is not "
        f"<3% of the {minhash_time * 1e3:.2f} ms kernel"
    )


def test_sampler_enabled_overhead_under_3_percent():
    """Acceptance: at the default 50 ms interval, continuous resource
    sampling costs <3% of wall time on any kernel.

    Measured as per-tick cost against the sampling period rather than an
    A/B kernel timing: the daemon thread performs exactly one
    ``sample_once`` per interval regardless of workload, so tick cost /
    interval bounds the steady-state overhead deterministically.
    """
    from repro.obs.sampler import DEFAULT_INTERVAL_MS, ResourceSampler

    sampler = ResourceSampler(interval_ms=DEFAULT_INTERVAL_MS)
    sampler.sample_once()  # warm the /proc readers and the cache-dir import
    tick_cost = _best_time(sampler.sample_once, repeats=20)
    interval_s = DEFAULT_INTERVAL_MS / 1000.0
    assert tick_cost < 0.03 * interval_s, (
        f"one resource sample costs {tick_cost * 1e6:.0f} us, not <3% of "
        f"the {DEFAULT_INTERVAL_MS:.0f} ms sampling period"
    )


def test_perf_serve_metrics(benchmark):
    """Scrape latency of the live ``/metrics`` endpoint: full round trip
    (socket connect, handler dispatch, registry snapshot, Prometheus
    rendering) against a server in this process."""
    import urllib.request

    from repro.obs.live import TelemetryServer

    server = TelemetryServer(port=0).start()
    try:
        url = f"{server.url}/metrics"

        def run():
            with urllib.request.urlopen(url, timeout=5) as resp:
                return resp.read()

        body = benchmark(run)
        assert b"repro_serve_requests_total" in body
    finally:
        server.stop()


#: Fastest steady client the dashboard ships: the live panel re-fetches
#: ``/metrics`` every 2 s, but the overhead bound is asserted against a far
#: more aggressive 250 ms poller so third-party scrapers have headroom.
_SERVE_POLL_PERIOD_S = 0.25
#: Absolute throughput floor on ``/metrics`` scrapes.
_SERVE_METRICS_MIN_RPS = 100.0


def test_serve_overhead_under_3_percent():
    """Acceptance: a client polling ``/metrics`` every 250 ms steals <3% of
    the observed build's wall time, and scrape throughput stays above the
    req/s floor.

    Measured as per-request cost against the polling period rather than an
    A/B build timing: the handler thread does one registry snapshot + one
    render per scrape regardless of workload, so request cost / polling
    period bounds the steady-state overhead deterministically (the same
    argument the sampler bound uses).  The timed round trip includes the
    client side, so the server-side cost the build actually pays is
    strictly smaller.
    """
    import urllib.request

    from repro.obs.live import TelemetryServer

    server = TelemetryServer(port=0).start()
    try:
        url = f"{server.url}/metrics"

        def scrape():
            with urllib.request.urlopen(url, timeout=5) as resp:
                resp.read()

        scrape()  # warm the socket path and the exposition renderer
        cost = _best_time(scrape, repeats=20)
    finally:
        server.stop()
    assert cost < 0.03 * _SERVE_POLL_PERIOD_S, (
        f"one /metrics scrape costs {cost * 1e3:.2f} ms, not <3% of the "
        f"{_SERVE_POLL_PERIOD_S * 1e3:.0f} ms polling period"
    )
    assert 1.0 / cost > _SERVE_METRICS_MIN_RPS, (
        f"/metrics sustains only {1.0 / cost:.0f} req/s, below the "
        f"{_SERVE_METRICS_MIN_RPS:.0f} req/s floor"
    )


def _disagreement_input() -> tuple[np.ndarray, DictColumn]:
    """A released-like (item, response) log, shaped like the small preset's:
    about 400k answers over 120k items, one to five answers per item, each
    item answered from its own four of 3,000 responses.  The release orders
    rows by instance id, in which items mostly ascend (99.3% of consecutive
    rows at small), so rows run in item order with 1% displaced locally."""
    rng = np.random.default_rng(11)
    num_items = 120_000
    per_item = rng.choice(
        np.arange(1, 6), size=num_items, p=[0.06, 0.21, 0.25, 0.38, 0.10]
    )
    items = np.repeat(np.arange(num_items, dtype=np.int64), per_item)
    n = len(items)
    moved = rng.choice(n - 64, size=n // 100, replace=False)
    partner = moved + rng.integers(1, 64, size=len(moved))
    items[moved], items[partner] = items[partner], items[moved].copy()
    codes = (items * 4 + rng.integers(0, 4, size=n)) % 3_000
    uniques = np.array([f"r{i:04d}" for i in range(3_000)], dtype=object)
    return items, DictColumn(codes, uniques)


def test_perf_batch_metrics(benchmark):
    """The per-item disagreement kernel of ``compute_batch_metrics``: rows
    ordered by one stable sort of an int64 ``(item, response)`` key."""
    from repro.enrichment.metrics import _pair_disagreement_by_item

    items, responses = _disagreement_input()
    ids, disagreement = benchmark(
        lambda: _pair_disagreement_by_item(items, responses)
    )
    assert len(ids) == len(disagreement) == len(np.unique(items))


def _lexsort_disagreement_by_item(item_id, response):
    """Frozen two-key ``lexsort`` version of the disagreement kernel."""
    codes = response.codes
    order = np.lexsort((codes, item_id))
    items_sorted = item_id[order]
    codes_sorted = codes[order]
    item_change = np.r_[True, items_sorted[1:] != items_sorted[:-1]]
    item_starts = np.flatnonzero(item_change)
    item_ends = np.r_[item_starts[1:], len(items_sorted)]
    n_per_item = (item_ends - item_starts).astype(np.float64)
    run_change = item_change | np.r_[True, codes_sorted[1:] != codes_sorted[:-1]]
    run_starts = np.flatnonzero(run_change)
    run_ends = np.r_[run_starts[1:], len(items_sorted)]
    run_lengths = (run_ends - run_starts).astype(np.float64)
    run_item_slot = np.searchsorted(item_starts, run_starts, side="right") - 1
    same_pairs = np.zeros(len(item_starts))
    np.add.at(same_pairs, run_item_slot, run_lengths * (run_lengths - 1.0))
    total_pairs = n_per_item * (n_per_item - 1.0)
    with np.errstate(invalid="ignore", divide="ignore"):
        disagreement = 1.0 - same_pairs / total_pairs
    disagreement[total_pairs == 0] = np.nan
    return items_sorted[item_starts], disagreement


def test_perf_batch_metrics_naive(benchmark):
    """Seed replica: the same kernel ordered by a two-key ``lexsort``."""
    from repro.enrichment.metrics import _pair_disagreement_by_item

    items, responses = _disagreement_input()
    ids, disagreement = benchmark(
        lambda: _lexsort_disagreement_by_item(items, responses)
    )
    fast_ids, fast = _pair_disagreement_by_item(items, responses)
    assert np.array_equal(ids, fast_ids)
    assert disagreement.tobytes() == fast.tobytes()


def _tree_fit_data() -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(3)
    X = rng.normal(size=(4_000, 4))
    y = (X[:, 0] + X[:, 1] > 0).astype(int)
    return X, y


def test_perf_decision_tree_fit(benchmark):
    X, y = _tree_fit_data()

    def run():
        return DecisionTreeClassifier(max_depth=8).fit(X, y)

    model = benchmark(run)
    assert (model.predict(X[:100]) == y[:100]).mean() > 0.8


class _SeedSplitTree(DecisionTreeClassifier):
    """The seed-era split search: one Python iteration and one Gini call per
    candidate boundary of every feature."""

    @staticmethod
    def _gini(counts):
        total = counts.sum()
        if total == 0:
            return 0.0
        p = counts / total
        return float(1.0 - np.square(p).sum())

    def _best_split(self, X, y, parent_counts):
        n = len(y)
        parent_impurity = self._gini(parent_counts)
        best_gain = self.min_impurity_decrease
        best = None
        for feature in range(X.shape[1]):
            column = X[:, feature]
            order = np.argsort(column, kind="stable")
            sorted_values = column[order]
            sorted_labels = y[order]
            one_hot = np.zeros((n, self._num_classes), dtype=np.int64)
            one_hot[np.arange(n), sorted_labels] = 1
            left_counts = np.cumsum(one_hot, axis=0)
            boundaries = np.flatnonzero(sorted_values[1:] != sorted_values[:-1])
            for b in boundaries:
                left = left_counts[b]
                right = parent_counts - left
                n_left = b + 1
                n_right = n - n_left
                weighted = (
                    n_left * self._gini(left) + n_right * self._gini(right)
                ) / n
                gain = parent_impurity - weighted
                if gain > best_gain:
                    best_gain = gain
                    threshold = (sorted_values[b] + sorted_values[b + 1]) / 2.0
                    best = (feature, float(threshold))
        return best


def test_perf_decision_tree_fit_naive(benchmark):
    X, y = _tree_fit_data()

    def run():
        return _SeedSplitTree(max_depth=8).fit(X, y)

    model = benchmark(run)
    fast = DecisionTreeClassifier(max_depth=8).fit(X, y)
    assert np.array_equal(model.predict(X), fast.predict(X))


# --------------------------------------------------------------------- #
# Incremental ingest service (repro.service)
# --------------------------------------------------------------------- #

_SERVICE_ROWS = 20_000
_SERVICE_BATCHES = 200


def _service_config():
    from repro.simulator.config import SimulationConfig

    return SimulationConfig.preset("tiny", seed=7)


def _service_payload(config, n_rows: int = _SERVICE_ROWS, id_base: int = 0,
                     seed: int = 0) -> dict:
    """A synthetic wire micro-batch with the released instance schema."""
    from repro import cache as study_cache
    from repro.service.codec import WIRE_SCHEMA_VERSION, encode_table

    rng = np.random.default_rng(seed)
    sources = np.array(["own", "chan-a", "chan-b"], dtype=object)
    countries = np.array(["US", "IN", "GB", "PH"], dtype=object)
    start = rng.integers(0, 10**6, size=n_rows)
    table = Table({
        "instance_id": np.arange(id_base, id_base + n_rows, dtype=np.int64),
        "batch_id": rng.integers(0, _SERVICE_BATCHES, size=n_rows),
        "item_id": rng.integers(0, 1_000, size=n_rows),
        "worker_id": rng.integers(0, 50, size=n_rows),
        "source": sources[rng.integers(0, len(sources), size=n_rows)],
        "country": countries[rng.integers(0, len(countries), size=n_rows)],
        "start_time": start,
        "end_time": start + rng.integers(1, 3_600, size=n_rows),
        "trust": rng.random(size=n_rows),
        "response": np.array(
            [f"resp-{i}" for i in range(n_rows)], dtype=object
        ),
    }, copy=False)
    return {
        "schema": WIRE_SCHEMA_VERSION,
        "config_key": study_cache.study_key(config),
        "instances": encode_table(table),
    }


def test_perf_service_ingest(benchmark):
    """Full ingest path — decode, schema check, duplicate screening, and
    all four standing folds (table, rollup, CDF part, histogram) — for a
    20k-row micro-batch into a fresh standing state."""
    from repro.service.state import ServiceState

    config = _service_config()
    payload = _service_payload(config)

    def run():
        state = ServiceState(config)
        return state.ingest(payload)

    out = benchmark(run)
    assert out["accepted"]["instance_rows"] == _SERVICE_ROWS


def _service_server(tmp_path_factory=None):
    from repro.obs.live import TelemetryServer
    from repro.service import ServiceApp
    from repro.service.state import ServiceState

    config = _service_config()
    app = ServiceApp(config)
    app.state.ingest(_service_payload(config))
    server = TelemetryServer(port=0, app=app).start()
    return app, server


def test_perf_service_read_cached(benchmark):
    """Cached-read round trip: socket connect, dispatch, dependency-key
    lookup, ETag header, cached body write — the steady-state read the
    load harness sustains at >=1k req/s."""
    import urllib.request

    app, server = _service_server()
    try:
        url = f"{server.url}/tables/batch_rollup"
        with urllib.request.urlopen(url, timeout=5) as resp:
            warm = resp.read()  # render once; every timed read is a hit

        def run():
            with urllib.request.urlopen(url, timeout=5) as resp:
                return resp.read()

        body = benchmark(run)
        assert body == warm and body.startswith(b'{"num_rows"')
    finally:
        server.stop()


def test_perf_service_read_cached_naive(benchmark):
    """Seed replica of the read path with no response cache: every request
    re-finalizes the standing rollup and re-renders the body (the cache is
    dropped before each round trip)."""
    import urllib.request

    app, server = _service_server()
    try:
        url = f"{server.url}/tables/batch_rollup"
        with urllib.request.urlopen(url, timeout=5) as resp:
            warm = resp.read()

        def run():
            app.cache.clear()
            with urllib.request.urlopen(url, timeout=5) as resp:
                return resp.read()

        body = benchmark(run)
        assert body == warm
    finally:
        server.stop()

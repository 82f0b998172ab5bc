"""Tests for :mod:`repro.obs`: spans, metrics, exporters, worker folding.

Tracing is process-global, so every test here runs under the autouse
``_tracing_off`` fixture, which guarantees the tracer is disabled and the
trace cleared after each test regardless of outcome.
"""

from __future__ import annotations

import json
import threading
import time

import numpy as np
import pytest

from repro import build_study, obs
from repro.parallel import map_chunks


@pytest.fixture(autouse=True)
def _tracing_off():
    yield
    obs.finish()


def _double(x):
    return x * 2


# --------------------------------------------------------------------- #
# Span tracing
# --------------------------------------------------------------------- #


class TestSpans:
    def test_disabled_is_noop(self):
        assert not obs.enabled()
        handle = obs.span("anything", key="value")
        assert handle is obs.span("something else")  # shared singleton
        with handle as sp:
            sp.set("ignored", 1)  # must not raise
        assert obs.current_trace() is None

    def test_nesting_records_parent_indices(self):
        obs.enable(name="t")
        with obs.span("outer", scale="tiny"):
            with obs.span("inner"):
                pass
            with obs.span("inner"):
                pass
        trace = obs.finish()
        assert not obs.enabled()
        assert [s.name for s in trace.spans] == ["outer", "inner", "inner"]
        outer, first, second = trace.spans
        assert outer.parent == -1
        assert first.parent == outer.index == 0
        assert second.parent == 0
        assert outer.attrs == {"scale": "tiny"}
        assert outer.wall_s >= first.wall_s >= 0.0

    def test_none_attrs_are_dropped(self):
        obs.enable()
        with obs.span("s", kept=1, dropped=None):
            pass
        trace = obs.finish()
        assert trace.spans[0].attrs == {"kept": 1}

    def test_set_attaches_attrs(self):
        obs.enable()
        with obs.span("s") as sp:
            sp.set("rows", 42)
        trace = obs.finish()
        assert trace.spans[0].attrs["rows"] == 42

    def test_exception_annotates_and_propagates(self):
        obs.enable()
        with pytest.raises(ValueError):
            with obs.span("outer"):
                with obs.span("failing"):
                    raise ValueError("boom")
        with obs.span("after"):
            pass
        trace = obs.finish()
        by_name = {s.name: s for s in trace.spans}
        assert by_name["failing"].attrs["error"] == "ValueError"
        assert by_name["outer"].attrs["error"] == "ValueError"
        # The stack unwound cleanly: the next span is a root, not a child.
        assert by_name["after"].parent == -1

    def test_traced_decorator(self):
        @obs.traced()
        def plain(x):
            return x + 1

        @obs.traced("custom.name", flavor="test")
        def named(x):
            return x - 1

        assert plain(1) == 2  # disabled: direct call, no trace
        obs.enable()
        assert plain(1) == 2
        assert named(1) == 0
        trace = obs.finish()
        names = [s.name for s in trace.spans]
        assert any("plain" in n for n in names)
        assert "custom.name" in names
        custom = next(s for s in trace.spans if s.name == "custom.name")
        assert custom.attrs == {"flavor": "test"}

    def test_threads_get_independent_stacks(self):
        obs.enable()
        done = threading.Event()

        def worker():
            with obs.span("thread.child"):
                done.wait(timeout=5)

        with obs.span("main.parent"):
            t = threading.Thread(target=worker)
            t.start()
            done.set()
            t.join()
        trace = obs.finish()
        child = next(s for s in trace.spans if s.name == "thread.child")
        # Spawned from another thread: a root, not nested under main.parent.
        assert child.parent == -1

    def test_mem_tracking(self):
        obs.enable(mem=True)
        with obs.span("alloc"):
            buf = np.zeros(1_000_000, dtype=np.float64)
        del buf
        trace = obs.finish()
        record = trace.spans[0]
        assert record.mem_peak_bytes is not None
        assert record.mem_peak_bytes > 0
        assert record.mem_alloc_bytes is not None

    def test_finish_stops_the_tracemalloc_it_started(self):
        # A leaked tracemalloc session slows every later allocation of the
        # process several-fold.
        import tracemalloc

        assert not tracemalloc.is_tracing()
        obs.enable(mem=True)
        assert tracemalloc.is_tracing()
        obs.finish()
        assert not tracemalloc.is_tracing()

    def test_finish_leaves_a_callers_tracemalloc_running(self):
        import tracemalloc

        tracemalloc.start()
        try:
            obs.enable(mem=True)
            obs.finish()
            assert tracemalloc.is_tracing()
        finally:
            tracemalloc.stop()


# --------------------------------------------------------------------- #
# Metrics registry
# --------------------------------------------------------------------- #


class TestMetricsThreadSafety:
    """The registry races /metrics scrapes against the sampler daemon
    thread and main-thread increments; these hammer tests pin the
    consistent-snapshot guarantees."""

    N_THREADS = 8
    N_OPS = 4000

    def test_hammer_exact_totals_and_consistent_snapshots(self):
        registry = obs.MetricsRegistry()
        counter = registry.counter("hammer.count")
        hist = registry.histogram("hammer.hist", bounds=(0.5,))
        stop = threading.Event()
        bad_snapshots: list[dict] = []

        def snapshotter() -> None:
            while not stop.is_set():
                snap = registry.snapshot()
                h = snap["histograms"]["hammer.hist"]
                # Internal consistency: the +Inf cumulative bucket must
                # equal the observation count in *every* mid-flight
                # snapshot, not just the final one.
                if h["buckets"][-1]["count"] != h["count"]:
                    bad_snapshots.append(h)

        def worker(tid: int) -> None:
            for i in range(self.N_OPS):
                counter.inc()
                hist.observe(0.25 if i % 2 else 0.75)
                if i % 1000 == 0:
                    # Registering new names mutates the instrument dict
                    # under the iterating snapshotters.
                    registry.counter(f"hammer.new.{tid}.{i}").inc()

        snapshotters = [
            threading.Thread(target=snapshotter) for _ in range(2)
        ]
        workers = [
            threading.Thread(target=worker, args=(tid,))
            for tid in range(self.N_THREADS)
        ]
        for t in snapshotters + workers:
            t.start()
        for t in workers:
            t.join()
        stop.set()
        for t in snapshotters:
            t.join()

        assert not bad_snapshots
        total = self.N_THREADS * self.N_OPS
        assert counter.value == total  # no lost increments
        final = hist.snapshot()
        assert final["count"] == total
        assert final["buckets"][-1]["count"] == total
        # Every pair of observations contributes exactly 1.0 to the sum.
        assert final["sum"] == pytest.approx(total * 0.5)

    def test_snapshot_during_merge_raw_stays_consistent(self):
        registry = obs.MetricsRegistry()
        hist = registry.histogram("hammer.merge", bounds=(1.0,))
        delta = {"bounds": [1.0], "counts": [3, 1], "sum": 5.0, "count": 4}
        stop = threading.Event()
        bad: list[dict] = []

        def merger() -> None:
            while not stop.is_set():
                hist.merge_raw(delta)

        def checker() -> None:
            while not stop.is_set():
                snap = hist.snapshot()
                if snap["buckets"][-1]["count"] != snap["count"]:
                    bad.append(snap)

        threads = [threading.Thread(target=merger)] + [
            threading.Thread(target=checker) for _ in range(2)
        ]
        for t in threads:
            t.start()
        time.sleep(0.2)
        stop.set()
        for t in threads:
            t.join()
        assert not bad
        assert hist.count % 4 == 0  # whole deltas only, never a torn merge


class TestMetrics:
    def test_counter_gauge_roundtrip(self):
        c = obs.counter("test.counter")
        start = c.value
        c.inc()
        c.inc(4)
        assert c.value == start + 5
        assert obs.counter("test.counter") is c  # same instrument
        g = obs.gauge("test.gauge")
        g.set(17)
        assert obs.metrics_snapshot()["gauges"]["test.gauge"] == 17

    def test_histogram_cumulative_buckets(self):
        h = obs.REGISTRY.histogram("test.hist", bounds=(0.1, 1.0, 10.0))
        h.reset()
        for value in (0.05, 0.5, 0.5, 5.0, 50.0):
            h.observe(value)
        snap = h.snapshot()
        assert snap["count"] == 5
        assert snap["sum"] == pytest.approx(56.05)
        counts = {b["le"]: b["count"] for b in snap["buckets"]}
        assert counts == {0.1: 1, 1.0: 3, 10.0: 4, "+Inf": 5}

    def test_histogram_rejects_unsorted_bounds(self):
        with pytest.raises(ValueError):
            obs.Histogram("bad", bounds=(1.0, 0.5))

    def test_kind_conflict_raises(self):
        obs.counter("test.conflicted")
        with pytest.raises(TypeError):
            obs.gauge("test.conflicted")

    def test_merge_counter_deltas(self):
        c = obs.counter("test.merge")
        start = c.value
        obs.merge_counter_deltas({"test.merge": 3, "test.merge.zero": 0})
        assert c.value == start + 3
        # Zero deltas must not materialize new instruments.
        assert "test.merge.zero" not in obs.metrics_snapshot()["counters"]

    def test_snapshot_shape(self):
        snap = obs.metrics_snapshot()
        assert set(snap) == {"counters", "gauges", "histograms"}
        assert all(isinstance(v, int) for v in snap["counters"].values())


class TestHistogramShipping:
    """Raw export / merge: how worker-process histograms reach the parent."""

    def test_raw_merge_raw_roundtrip(self):
        src = obs.Histogram("ship.src", bounds=(0.1, 1.0))
        for value in (0.05, 0.5, 5.0):
            src.observe(value)
        dst = obs.Histogram("ship.dst", bounds=(0.1, 1.0))
        dst.observe(0.5)
        dst.merge_raw(src.raw())
        snap = dst.snapshot()
        assert snap["count"] == 4
        assert snap["sum"] == pytest.approx(6.05)
        counts = {b["le"]: b["count"] for b in snap["buckets"]}
        assert counts == {0.1: 1, 1.0: 3, "+Inf": 4}

    def test_merge_raw_rejects_mismatched_bounds(self):
        a = obs.Histogram("ship.a", bounds=(0.1, 1.0))
        b = obs.Histogram("ship.b", bounds=(0.5, 2.0))
        b.observe(1.0)
        with pytest.raises(ValueError):
            a.merge_raw(b.raw())

    def test_histogram_deltas_only_observed(self):
        h = obs.REGISTRY.histogram("ship.delta", bounds=(0.1, 1.0))
        before = obs.REGISTRY.histogram_values()
        h.observe(0.5)
        h.observe(2.0)
        deltas = obs.histogram_deltas(before, obs.REGISTRY.histogram_values())
        assert set(deltas) == {"ship.delta"}
        assert deltas["ship.delta"]["count"] == 2
        # Nothing observed → nothing shipped.
        assert obs.histogram_deltas(
            obs.REGISTRY.histogram_values(), obs.REGISTRY.histogram_values()
        ) == {}

    def test_merge_histogram_deltas_creates_unknown_instrument(self):
        src = obs.Histogram("ship.fresh", bounds=(0.25, 4.0))
        src.observe(1.0)
        obs.merge_histogram_deltas({"ship.fresh": src.raw()})
        snap = obs.metrics_snapshot()["histograms"]["ship.fresh"]
        assert snap["count"] >= 1

    def test_worker_collector_ships_histogram_deltas(self):
        obs.REGISTRY.histogram("ship.worker", bounds=(0.1, 1.0))
        obs.enable(name="hist")
        try:
            with obs.worker_collector() as collector:
                obs.REGISTRY.histogram("ship.worker", bounds=(0.1, 1.0)).observe(0.5)
        finally:
            obs.finish()
        assert collector.histogram_deltas["ship.worker"]["count"] == 1

    def test_histograms_in_trace_export_and_summary(self):
        obs.REGISTRY.histogram("ship.export", bounds=(0.1, 1.0)).observe(0.5)
        obs.enable(name="hist")
        with obs.span("root"):
            pass
        doc = obs.trace_to_dict(obs.finish())
        assert doc["metrics"]["histograms"]["ship.export"]["count"] >= 1
        summary = obs.summarize_histograms(doc)
        assert "ship.export" in summary
        assert "mean" in summary and "p50" in summary

    def test_summarize_histograms_empty_when_nothing_observed(self):
        obs.enable(name="hist")
        doc = obs.trace_to_dict(obs.finish())
        unobserved = {
            name: snap
            for name, snap in doc["metrics"]["histograms"].items()
            if not snap["count"]
        }
        doc["metrics"]["histograms"] = unobserved
        assert obs.summarize_histograms(doc) == ""


# --------------------------------------------------------------------- #
# Exporters
# --------------------------------------------------------------------- #


class TestExport:
    def _make_trace(self):
        obs.enable(name="unit")
        with obs.span("root", scale="tiny"):
            with obs.span("child"):
                pass
        return obs.finish()

    def test_json_roundtrip(self, tmp_path):
        trace = self._make_trace()
        doc = obs.trace_to_dict(trace)
        assert doc["schema"] == obs.TRACE_SCHEMA_VERSION
        assert doc["name"] == "unit"
        assert {"counters", "gauges", "histograms"} <= set(doc["metrics"])
        assert doc["spans"][0]["parent"] == -1
        assert doc["spans"][1]["parent"] == 0
        path = obs.write_trace_json(trace, tmp_path / "t.json")
        loaded = obs.load_trace(path)
        assert loaded["spans"] == json.loads(json.dumps(doc["spans"]))

    def test_load_trace_rejects_garbage(self, tmp_path):
        not_trace = tmp_path / "x.json"
        not_trace.write_text('{"hello": 1}')
        with pytest.raises(ValueError):
            obs.load_trace(not_trace)
        wrong_schema = tmp_path / "y.json"
        wrong_schema.write_text('{"schema": 999, "spans": []}')
        with pytest.raises(ValueError):
            obs.load_trace(wrong_schema)

    def test_render_tree_nests_and_collapses(self):
        obs.enable(name="tree")
        with obs.span("parent"):
            with obs.span("lonely"):
                pass
            for _ in range(5):
                with obs.span("repeated"):
                    pass
        rendered = obs.render_tree(obs.finish())
        assert rendered.splitlines()[0].startswith("trace 'tree': 7 spans")
        assert "parent" in rendered and "lonely" in rendered
        # Five childless same-name siblings fold into one aggregate line.
        assert "repeated x5" in rendered
        assert rendered.count("repeated") == 1

    def test_summarize_and_aggregate(self):
        trace = self._make_trace()
        totals = obs.aggregate_by_name(trace)
        assert totals["root"]["count"] == 1
        assert totals["child"]["count"] == 1
        summary = obs.summarize_trace(trace, top=1)
        assert "root" in summary
        assert "1 more span names" in summary


# --------------------------------------------------------------------- #
# Worker-process folding
# --------------------------------------------------------------------- #


class TestWorkerFolding:
    def test_pool_spans_fold_under_parallel_map(self):
        pool_maps = obs.counter("parallel.pool_maps")
        before = pool_maps.value
        obs.enable(name="fold")
        try:
            result = map_chunks(_double, list(range(100)), workers=2)
        finally:
            trace = obs.finish()
        assert result == [x * 2 for x in range(100)]
        if pool_maps.value == before:
            pytest.skip("process pool unavailable in this environment")
        by_name = {}
        for record in trace.spans:
            by_name.setdefault(record.name, []).append(record)
        (map_span,) = by_name["parallel.map"]
        chunks = by_name["parallel.chunk"]
        assert len(chunks) >= 2
        assert all(c.parent == map_span.index for c in chunks)
        assert sum(c.attrs["items"] for c in chunks) == 100
        # Worker spans keep their worker pid (fork: different from parent).
        assert any(c.pid != map_span.pid for c in chunks)

    def test_worker_collector_restores_state(self):
        obs.enable(name="outer")
        with obs.span("outer.span"):
            with obs.worker_collector() as collector:
                with obs.span("inner.span"):
                    obs.counter("test.collector").inc(2)
            assert [s.name for s in collector.spans] == ["inner.span"]
            assert collector.counter_deltas["test.collector"] == 2
            # Back in the parent trace: recording resumes where it left off.
            with obs.span("outer.child"):
                pass
        trace = obs.finish()
        names = [s.name for s in trace.spans]
        assert names == ["outer.span", "outer.child"]
        assert trace.spans[1].parent == 0


# --------------------------------------------------------------------- #
# Acceptance: cache counters and tracing transparency
# --------------------------------------------------------------------- #


def _cache_counts():
    counters = obs.metrics_snapshot()["counters"]
    return {
        name: counters.get(f"cache.{name}", 0)
        for name in ("hit", "miss", "write")
    }


def _diff(after, before):
    return {name: after[name] - before[name] for name in after}


class TestCacheCounters:
    def test_cold_warm_and_disabled(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)

        before = _cache_counts()
        build_study("tiny", seed=7, cache=True)
        assert _diff(_cache_counts(), before) == {
            "hit": 0, "miss": 1, "write": 1,
        }, "cold build must record one miss and one write"
        assert obs.counter("cache.bytes_written").value > 0

        before = _cache_counts()
        build_study("tiny", seed=7, cache=True)
        assert _diff(_cache_counts(), before) == {
            "hit": 1, "miss": 0, "write": 0,
        }, "warm rebuild must record exactly one hit"

        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        before = _cache_counts()
        build_study("tiny", seed=7)
        assert _diff(_cache_counts(), before) == {
            "hit": 0, "miss": 0, "write": 0,
        }, "REPRO_NO_CACHE builds must not touch the cache at all"


class TestTracingTransparency:
    def test_tables_identical_with_tracing_on(self, study):
        """A traced build must produce byte-identical tables to an untraced one."""
        obs.enable(name="transparency")
        try:
            traced_study = build_study("tiny", seed=7, cache=False)
        finally:
            trace = obs.finish()
        assert len(trace.spans) > 10  # the build really was traced
        pairs = [
            (study.released.instances, traced_study.released.instances),
            (study.released.batch_catalog, traced_study.released.batch_catalog),
            (study.enriched.batch_table, traced_study.enriched.batch_table),
            (study.enriched.cluster_table, traced_study.enriched.cluster_table),
            (study.enriched.labels, traced_study.enriched.labels),
        ]
        for expected, actual in pairs:
            assert list(expected.column_names) == list(actual.column_names)
            for name in expected.column_names:
                a, b = expected[name], actual[name]
                assert a.dtype == b.dtype
                if a.dtype == object:
                    assert a.tolist() == b.tolist()
                else:
                    assert a.tobytes() == b.tobytes()

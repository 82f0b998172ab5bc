"""Tests for the :mod:`repro.parallel` chunked map executor."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro import parallel
from repro.parallel import map_chunks, worker_count


def _square(x):
    return x * x


def _shout(s):
    return s.upper()


def _map_in_daemon(conn):
    """Body of a daemonic child: one pooled-size map, reported back."""
    import multiprocessing as mp
    import time

    from repro import obs

    retries = obs.counter("parallel.pool_retries")
    fallbacks = obs.counter("parallel.serial_fallback")
    r0, f0 = retries.value, fallbacks.value
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        t0 = time.perf_counter()
        out = map_chunks(_square, list(range(64)), workers=2)
        elapsed = time.perf_counter() - t0
    conn.send({
        "daemon": mp.current_process().daemon,
        "out": out,
        "retries": retries.value - r0,
        "fallbacks": fallbacks.value - f0,
        "warnings": [str(w.message) for w in caught],
        "elapsed": elapsed,
    })
    conn.close()


@pytest.fixture(autouse=True)
def _fresh_warnings():
    """Warn-once-per-cause state must not leak between tests."""
    parallel.reset_warnings()
    yield
    parallel.reset_warnings()


class TestWorkerCount:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv(parallel.WORKERS_ENV, raising=False)
        assert worker_count() == 1

    def test_env_integer(self, monkeypatch):
        monkeypatch.setenv(parallel.WORKERS_ENV, "3")
        assert worker_count() == 3

    @pytest.mark.parametrize("value", ["auto", "0", "AUTO"])
    def test_env_auto_uses_cpu_count(self, monkeypatch, value):
        monkeypatch.setenv(parallel.WORKERS_ENV, value)
        assert worker_count() >= 1

    @pytest.mark.parametrize("value", ["", "  "])
    def test_env_unset_or_blank_is_quietly_serial(self, monkeypatch, value):
        monkeypatch.setenv(parallel.WORKERS_ENV, value)
        assert worker_count() == 1

    @pytest.mark.parametrize("value", ["banana", "-2", "1.5"])
    def test_env_garbage_falls_back_to_serial_loudly(self, monkeypatch, value):
        # Bad input still resolves to serial, but never silently: a
        # RuntimeWarning plus a parallel.serial_fallback increment make a
        # misconfigured fleet diagnosable from its metrics.
        from repro import obs

        fallbacks = obs.counter("parallel.serial_fallback")
        monkeypatch.setenv(parallel.WORKERS_ENV, value)
        before = fallbacks.value
        with pytest.warns(RuntimeWarning, match="running serial"):
            assert worker_count() == 1
        assert fallbacks.value == before + 1

    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv(parallel.WORKERS_ENV, "7")
        assert worker_count(2) == 2


class TestMapChunks:
    def test_serial_preserves_order(self):
        items = list(range(100))
        assert map_chunks(_square, items, workers=1) == [x * x for x in items]

    def test_parallel_matches_serial(self):
        items = [f"doc {i} text" for i in range(200)]
        serial = map_chunks(_shout, items, workers=1)
        parallel_out = map_chunks(_shout, items, workers=2)
        assert parallel_out == serial

    def test_empty_input(self):
        assert map_chunks(_square, [], workers=4) == []

    def test_small_input_stays_serial(self):
        # Below the parallel threshold the pool must not be spun up at all;
        # results are still correct.
        items = list(range(parallel._MIN_PARALLEL_ITEMS - 1))
        assert map_chunks(_square, items, workers=8) == [x * x for x in items]

    def test_unpicklable_function_falls_back_to_serial(self):
        # Lambdas cannot cross a process boundary; map_chunks must degrade
        # to the serial path instead of raising — but not silently: it warns
        # and bumps the parallel.serial_fallback counter.
        from repro import obs

        fallbacks = obs.counter("parallel.serial_fallback")
        before = fallbacks.value
        items = list(range(64))
        with pytest.warns(RuntimeWarning, match="process pool unavailable"):
            result = map_chunks(lambda x: x + 1, items, workers=2)
        assert result == [x + 1 for x in items]
        assert fallbacks.value == before + 1

    def test_numpy_payloads_round_trip(self):
        arrays = [np.arange(i, i + 5) for i in range(64)]
        out = map_chunks(_square, arrays, workers=2)
        for i, arr in enumerate(out):
            assert np.array_equal(arr, np.arange(i, i + 5) ** 2)

    def test_daemonic_process_maps_serially_without_pool_attempts(self):
        # A pool worker is daemonic and may not start children: a nested
        # map inside one must go straight to the serial loop — no spawn
        # retries with backoff, no warning, no fallback count.
        import multiprocessing as mp

        ctx = mp.get_context("fork")
        parent, child = ctx.Pipe(duplex=False)
        proc = ctx.Process(
            target=_map_in_daemon, args=(child,), daemon=True
        )
        proc.start()
        try:
            assert parent.poll(30), "daemonic child sent no result"
            result = parent.recv()
        finally:
            proc.join(30)
        assert result["daemon"] is True
        assert result["out"] == [x * x for x in range(64)]
        assert result["retries"] == 0
        assert result["fallbacks"] == 0
        assert result["warnings"] == []
        assert result["elapsed"] < parallel._POOL_SPAWN_BACKOFF_S


class TestPoolTeardown:
    """A degraded map tears its pool down at once and completely: no wait
    on a teardown thread, and no reaper or pool handler thread left."""

    @pytest.mark.parametrize("cause", ["unpicklable", "chunk_fail", "hang"])
    def test_fallback_returns_at_once_without_stray_threads(self, cause):
        import threading
        import time

        from repro import faults

        func, timeout = _square, None
        if cause == "unpicklable":
            func = lambda x: x * x  # noqa: E731 - cannot cross processes
        elif cause == "chunk_fail":
            faults.configure("pool.chunk:fail@1")
        else:
            faults.configure("pool.chunk:hang")
            timeout = 0.3
        before = set(threading.enumerate())
        items = list(range(64))
        try:
            t0 = time.perf_counter()
            with pytest.warns(RuntimeWarning, match="process pool unavailable"):
                out = map_chunks(func, items, workers=2, timeout=timeout)
            elapsed = time.perf_counter() - t0
        finally:
            faults.configure(None)
        assert out == [x * x for x in items]
        assert elapsed < (timeout or 0.0) + 1.0
        stray = set(threading.enumerate()) - before
        assert not stray, sorted(t.name for t in stray)


class TestWarnOnce:
    def test_repeated_fallback_warns_once_but_counts_every_event(self):
        # The identical degradation hit twice must not spam two identical
        # RuntimeWarnings — but parallel.serial_fallback still counts both.
        from repro import obs

        fallbacks = obs.counter("parallel.serial_fallback")
        before = fallbacks.value
        items = list(range(64))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for _ in range(3):
                assert map_chunks(lambda x: x + 1, items, workers=2) == [
                    x + 1 for x in items
                ]
        runtime = [w for w in caught if w.category is RuntimeWarning]
        assert len(runtime) == 1
        assert "process pool unavailable" in str(runtime[0].message)
        assert fallbacks.value == before + 3

    def test_distinct_causes_each_warn(self, monkeypatch):
        # A different cause is new information and gets its own warning.
        items = list(range(64))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            map_chunks(lambda x: x, items, workers=2)  # unpicklable
            monkeypatch.setenv(parallel.WORKERS_ENV, "banana")
            worker_count()  # misconfigured env
        runtime = [w for w in caught if w.category is RuntimeWarning]
        assert len(runtime) == 2

    def test_reset_warnings_allows_rewarn(self):
        items = list(range(64))
        with pytest.warns(RuntimeWarning, match="process pool unavailable"):
            map_chunks(lambda x: x, items, workers=2)
        parallel.reset_warnings()
        with pytest.warns(RuntimeWarning, match="process pool unavailable"):
            map_chunks(lambda x: x, items, workers=2)


class TestChunkIntervals:
    def test_pool_chunks_ship_busy_intervals_to_active_sampler(self):
        from repro.obs import sampler

        items = [f"doc {i} text" for i in range(200)]
        sampler.start(50.0)
        try:
            result = map_chunks(_shout, items, workers=2)
        finally:
            timeline = sampler.stop()
        assert result == [s.upper() for s in items]
        marks = timeline["worker_intervals"]
        assert marks and all(m["label"] == "parallel.chunk" for m in marks)
        for mark in marks:
            assert isinstance(mark["pid"], int)
            assert mark["t1"] >= mark["t0"]

    def test_pool_chunks_cost_nothing_when_sampler_is_off(self):
        from repro.obs import sampler

        items = [f"doc {i} text" for i in range(200)]
        assert map_chunks(_shout, items, workers=2) == [
            s.upper() for s in items
        ]
        assert sampler.drain_intervals() == []


class TestPipelineInvariance:
    def test_cluster_batches_invariant_to_workers(self, released, monkeypatch):
        from repro.enrichment.clustering import cluster_batches

        html = dict(list(sorted(released.batch_html.items()))[:80])
        monkeypatch.setenv(parallel.WORKERS_ENV, "1")
        serial = cluster_batches(html)
        monkeypatch.setenv(parallel.WORKERS_ENV, "2")
        assert cluster_batches(html) == serial

    def test_design_extraction_invariant_to_workers(self, released, monkeypatch):
        from repro.enrichment.design import extract_design_parameters

        ids = sorted(released.batch_html)[:60]
        html = {b: released.batch_html[b] for b in ids}
        monkeypatch.setenv(parallel.WORKERS_ENV, "1")
        serial = extract_design_parameters(html)
        monkeypatch.setenv(parallel.WORKERS_ENV, "2")
        parallel_table = extract_design_parameters(html)
        assert list(serial.column_names) == list(parallel_table.column_names)
        for name in serial.column_names:
            a, b = serial[name], parallel_table[name]
            if a.dtype == object:
                assert a.tolist() == b.tolist()
            else:
                assert np.array_equal(a, b, equal_nan=np.issubdtype(
                    a.dtype, np.floating
                ))


def _fail_on_b(s):
    if s == "b":
        raise ValueError("no b allowed")
    return s.upper()


class TestChunkRunnerInProcess:
    """The chunk runner normally executes in forked workers; it is
    process-agnostic, so its guarded-result protocol, fault hooks, and
    telemetry capture are unit-tested here by calling it inline."""

    @pytest.fixture(autouse=True)
    def _no_faults(self):
        from repro import faults

        faults.configure(None)
        yield
        faults.configure(None)

    def test_shippable_passes_picklable_and_wraps_unpicklable(self):
        plain = ValueError("fine")
        assert parallel._shippable(plain) is plain

        class Unpicklable(Exception):
            def __reduce__(self):
                raise TypeError("nope")

        wrapped = parallel._shippable(Unpicklable("boom"))
        assert isinstance(wrapped, RuntimeError)
        assert "unpicklable Unpicklable" in str(wrapped)

    def test_untraced_call_guards_results_and_marks_interval(self):
        import os
        import time

        runner = parallel._ChunkRunner(_shout, traced=False)
        before = time.perf_counter()
        guarded, spans, deltas, hist_deltas, mark = runner(["a", "b"])
        after = time.perf_counter()
        assert guarded == [(True, "A"), (True, "B")]
        assert spans is None
        # The runner's own chunk timing rides the histogram deltas.
        assert hist_deltas and "parallel.chunk_seconds" in hist_deltas
        pid, t0, t1 = mark
        assert pid == os.getpid()
        assert before <= t0 <= t1 <= after

    def test_traced_call_collects_and_still_guards(self):
        runner = parallel._ChunkRunner(_shout, traced=True)
        guarded, spans, deltas, hist_deltas, mark = runner(["x"])
        assert guarded == [(True, "X")]
        assert spans is not None  # the collector ran (may be empty spans)
        assert len(mark) == 3

    def test_error_is_guarded_and_stops_the_chunk(self):
        runner = parallel._ChunkRunner(_fail_on_b, traced=False)
        guarded, *_ = runner(["a", "b", "c"])
        assert guarded[0] == (True, "A")
        ok, exc = guarded[1]
        assert not ok and isinstance(exc, ValueError)
        assert len(guarded) == 2  # "c" never ran: parent raises at first error

    def test_injected_chunk_fault_raises_like_a_crash(self):
        from repro import faults

        faults.configure("pool.chunk:fail")
        runner = parallel._ChunkRunner(_shout, traced=False)
        with pytest.raises(faults.InjectedFault):
            runner(["a"])

    def test_injected_hang_sleeps_then_completes(self, monkeypatch):
        from repro import faults

        monkeypatch.setattr(parallel, "_HANG_SLEEP_S", 0.01)
        faults.configure("pool.chunk:hang")
        runner = parallel._ChunkRunner(_shout, traced=False)
        guarded, *_ = runner(["a"])
        assert guarded == [(True, "A")]

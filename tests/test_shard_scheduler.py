"""Scheduler behavior: as-completed dispatch, deadlines from dispatch,
work stealing under deterministic skew, and overlapped spill writes.

The deadline test is the bugfix pin: the pre-dispatcher executor awaited
chunk results in submission order (``res.get(timeout)``), so a hung chunk
behind slow earlier chunks got up to ``timeout x position`` of wall time
before :class:`~repro.parallel.PoolTimeoutError` fired.  The as-completed
dispatcher measures every deadline from the chunk's *dispatch*, so the
same scenario must fail within about one timeout — the elapsed-time
assertion here fails under the old semantics.

Scheduling must never change bytes: the skew and fault scenarios are all
closed against the monolithic study with the byte-level comparators from
``test_shard_equivalence``.
"""

from __future__ import annotations

import time

import pytest

from repro import build_study, faults, obs, parallel
from repro.parallel import PoolTimeoutError, map_chunks
from repro.shard import build_released_enriched, build_shard_partial, load_partial
from repro.shard.store import SpillWriter
from repro.simulator.config import SimulationConfig
from tests.test_shard_equivalence import assert_studies_byte_identical


def _sleep_return(seconds):
    time.sleep(seconds)
    return seconds


@pytest.fixture(autouse=True)
def _clean_state(tmp_path, monkeypatch):
    """Cold per-test spill store; no fault or warn-once leakage."""
    from repro import cache

    monkeypatch.setenv(cache.CACHE_DIR_ENV, str(tmp_path / "cache"))
    parallel.reset_warnings()
    faults.configure(None)
    yield
    faults.configure(None)
    parallel.reset_warnings()


# --------------------------------------------------------------------- #
# Per-chunk deadlines measured from dispatch (the timeout bugfix)
# --------------------------------------------------------------------- #


class TestDeadlineFromDispatch:
    def test_hung_chunk_behind_slow_chunk_fails_within_one_timeout(self):
        # Two workers, chunk_size=1 over [0.01, 0.9, 0.0, 0.0].  Fault
        # arrival counters are per-process and fork-copied, so @2 hangs
        # whichever chunk a worker takes *second*: the fast worker finishes
        # its 0.01s chunk, steals chunk 2 at ~t=0.01, and hangs.  Deadline
        # from dispatch: PoolTimeoutError at ~1.01s.  The old
        # submission-order semantics waited out the 0.9s chunk first and
        # only started chunk 2's clock then (~1.9s) — the elapsed bound
        # fails on that behavior.
        faults.configure("pool.chunk:hang@2")
        timeouts = obs.counter("parallel.timeout")
        dropped = obs.counter("parallel.chunks_dropped")
        t0, d0 = timeouts.value, dropped.value
        start = time.monotonic()
        with pytest.raises(PoolTimeoutError, match="of dispatch"):
            parallel._pool_map(
                _sleep_return, [0.01, 0.9, 0.0, 0.0], 2, 1, 1.0
            )
        elapsed = time.monotonic() - start
        assert elapsed < 1.5, (
            f"timeout fired after {elapsed:.2f}s — submission-order "
            f"semantics, not deadline-from-dispatch"
        )
        assert timeouts.value == t0 + 1
        # Both non-hung chunks had completed (and shipped telemetry) when
        # the pool result was abandoned; the drop is counted, not silent.
        assert dropped.value == d0 + 2

    def test_map_chunks_still_degrades_to_serial_on_timeout(self):
        faults.configure("pool.chunk:hang@2")
        items = [0.01, 0.2, 0.0, 0.0]
        with pytest.warns(RuntimeWarning, match="process pool unavailable"):
            result = map_chunks(
                _sleep_return, items,
                workers=2, chunk_size=1, timeout=0.5, min_items=2,
            )
        assert result == items

    def test_chunks_dropped_counted_on_worker_crash(self):
        # Each worker's first chunk is fault-arrival 1, so @2 can only
        # crash a chunk after that worker completed one — at least one
        # completed chunk's telemetry is dropped, and the serial fallback
        # still produces the full result.
        faults.configure("pool.chunk:fail@2")
        dropped = obs.counter("parallel.chunks_dropped")
        d0 = dropped.value
        items = [0.05, 0.05, 0.0, 0.0]
        with pytest.warns(RuntimeWarning, match="process pool unavailable"):
            result = map_chunks(
                _sleep_return, items, workers=2, chunk_size=1, min_items=2
            )
        assert result == items
        assert d0 + 1 <= dropped.value <= d0 + 3


# --------------------------------------------------------------------- #
# As-completed dispatch and the steal counter
# --------------------------------------------------------------------- #


class TestStealAccounting:
    def test_steals_beyond_window_with_timeout(self):
        # With a timeout the in-flight window equals the worker count (2),
        # so 6 of the 8 chunks are dispatched on completion — stolen by
        # whichever worker freed first.
        steals = obs.counter("parallel.steals")
        s0 = steals.value
        out = map_chunks(
            _sleep_return, [0.0] * 8,
            workers=2, chunk_size=1, timeout=30.0, min_items=2,
        )
        assert out == [0.0] * 8
        assert steals.value == s0 + 6

    def test_window_doubles_without_timeout(self):
        steals = obs.counter("parallel.steals")
        s0 = steals.value
        out = map_chunks(
            _sleep_return, [0.0] * 8, workers=2, chunk_size=1, min_items=2
        )
        assert out == [0.0] * 8
        assert steals.value == s0 + 4  # window 2n = 4 filled up front

    def test_results_in_input_order_under_any_schedule(self):
        # The straggler-first input guarantees out-of-order completion;
        # results must still come back in input order.
        items = [0.15] + [0.0] * 11
        out = map_chunks(
            _sleep_return, items, workers=2, chunk_size=1, min_items=2
        )
        assert out == items


# --------------------------------------------------------------------- #
# Work stealing under deterministic skew
# --------------------------------------------------------------------- #


class TestWorkStealingUnderSkew:
    #: One straggler chunk plus 7 unit chunks over 2 workers.  The
    #: straggler outlasts all the unit chunks together by 13 units, so
    #: the schedule below holds however slowly results round-trip.  The
    #: wall-clock speedup itself is the guarded ``shard_sched_skewed``
    #: bench's job, not a unit test's.
    UNIT = 0.02
    SIZES = (20,) + (1,) * 7

    def test_dynamic_schedule_beats_static_placement(self):
        from repro.obs import live

        items = [s * self.UNIT for s in self.SIZES]
        steals = obs.counter("parallel.steals")
        s0 = steals.value
        sub = live.BUS.subscribe()
        try:
            out = map_chunks(
                _sleep_return, items,
                workers=2, chunk_size=1, timeout=30.0, min_items=2,
            )
            events = []
            while (event := sub.get(timeout=0)) is not None:
                events.append(event)
        finally:
            sub.close()
        assert out == items

        # With a timeout the in-flight window is the worker count: chunks
        # 0 and 1 go out up front, every later chunk is handed out as a
        # slot frees (a steal).
        dispatched = {
            e["index"]: e["steal"]
            for e in events if e["kind"] == "chunk.dispatch"
        }
        assert dispatched == {i: i >= 2 for i in range(len(items))}
        assert steals.value == s0 + 6

        # Every chunk after the straggler ran on the other, idle worker.
        pid_of = {
            e["index"]: e["pid"]
            for e in events if e["kind"] == "chunk.folded"
        }
        assert len(pid_of) == len(items)
        assert all(pid_of[i] != pid_of[0] for i in range(1, len(items)))

        # Static placement (chunk i pinned to worker i % 2, the
        # batch_id % K discipline) loads one worker with 20+3 units; the
        # observed schedule's busiest worker carries only the straggler.
        load: dict[int, int] = {}
        for i, pid in pid_of.items():
            load[pid] = load.get(pid, 0) + self.SIZES[i]
        static = max(sum(self.SIZES[w::2]) for w in range(2))
        assert max(load.values()) == self.SIZES[0] < static

    def test_skewed_shard_build_byte_identical(self):
        # A deterministic straggler shard (shard.build:sleep@1) must change
        # the schedule, never the bytes.
        mono = build_study("tiny", seed=7, cache=False)
        faults.configure("shard.build:sleep@1")
        try:
            skewed = build_study("tiny", seed=7, cache=False, shards=4)
        finally:
            faults.configure(None)
        assert_studies_byte_identical(skewed, mono)

    def test_hang_injected_pooled_build_byte_identical(self, monkeypatch):
        # pool.chunk:hang under REPRO_WORKERS=2 + a short timeout: the
        # dispatcher times the pool out, the build degrades to the serial
        # loop, and the merged study is still byte-identical.
        mono = build_study("tiny", seed=7, cache=False)
        monkeypatch.setenv(parallel.WORKERS_ENV, "2")
        monkeypatch.setenv(parallel.POOL_TIMEOUT_ENV, "1.0")
        faults.configure("pool.chunk:hang")
        try:
            with pytest.warns(RuntimeWarning, match="process pool unavailable"):
                sharded = build_study("tiny", seed=7, cache=False, shards=3)
        finally:
            faults.configure(None)
        assert_studies_byte_identical(sharded, mono)


# --------------------------------------------------------------------- #
# Double-buffered spill writes
# --------------------------------------------------------------------- #


class TestSpillWriter:
    @pytest.fixture()
    def tiny_config(self):
        return SimulationConfig.preset("tiny", seed=7)

    def test_outcomes_and_store_round_trip(self, tiny_config):
        partials = [
            build_shard_partial(tiny_config, 2, shard) for shard in range(2)
        ]
        overlap = obs.histogram("shard.overlap_seconds")
        c0 = overlap.count
        with SpillWriter(tiny_config) as writer:
            for partial in partials:
                writer.submit(partial)
            outcomes = writer.finish()
        assert set(outcomes) == {0, 1}
        assert overlap.count == c0 + 2
        for shard, (entry, partial) in outcomes.items():
            assert entry is not None and entry.is_dir()
            assert partial is partials[shard]
            assert load_partial(tiny_config, 2, shard) is not None

    def test_failed_spill_hands_partial_back(self, tiny_config):
        partial = build_shard_partial(tiny_config, 2, 0)
        faults.configure("shard.save:fail")
        failed = obs.counter("shard.store_failed")
        f0 = failed.value
        with pytest.warns(RuntimeWarning, match="failed to spill"):
            with SpillWriter(tiny_config) as writer:
                writer.submit(partial)
                outcomes = writer.finish()
        entry, returned = outcomes[0]
        assert entry is None
        assert returned is partial  # the caller keeps the in-memory copy
        assert failed.value == f0 + 1

    def test_escaping_exception_reraises_on_driver_thread(
        self, tiny_config, monkeypatch
    ):
        # A non-OSError escaping store_partial must surface on the driver,
        # exactly where the inline spill would have raised it.
        from repro.shard import store as store_mod

        partial = build_shard_partial(tiny_config, 2, 0)

        def _boom(config, p):
            raise ValueError("spill thread exploded")

        monkeypatch.setattr(store_mod, "store_partial", _boom)
        writer = SpillWriter(tiny_config)
        writer.submit(partial)
        with pytest.raises(ValueError, match="spill thread exploded"):
            writer.finish()

    def test_serial_sharded_build_spills_through_writer(
        self, tiny_config, monkeypatch
    ):
        monkeypatch.delenv(parallel.WORKERS_ENV, raising=False)
        overlap = obs.histogram("shard.overlap_seconds")
        spills = obs.counter("shard.spilled")
        c0, s0 = overlap.count, spills.value
        build_released_enriched(tiny_config, 3, spill=True)
        assert spills.value == s0 + 3
        assert overlap.count == c0 + 3

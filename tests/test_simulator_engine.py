"""Engine-level invariants and calibrated-shape tests on the tiny study."""

import numpy as np
import pytest

from repro.simulator.config import SimulationConfig
from repro.simulator.engine import simulate_marketplace
from repro.simulator.workers import ONE_DAY
from repro.stats.timeseries import WEEK_SECONDS


class TestSchemaInvariants:
    def test_instance_references_valid(self, state):
        log = state.instances
        assert log.batch_idx.max() < state.batches.num_batches
        assert log.worker_id.max() < state.workers.num_workers
        assert log.task_idx.max() < state.tasks.num_tasks

    def test_times_ordered(self, state):
        log = state.instances
        assert np.all(log.end_time > log.start_time)
        batch_start = state.batches.start_time[log.batch_idx]
        assert np.all(log.start_time >= batch_start)

    def test_times_within_horizon(self, state):
        horizon = state.config.num_weeks * WEEK_SECONDS
        assert np.all(state.instances.start_time < horizon)

    def test_trust_in_unit_interval(self, state):
        assert np.all((state.instances.trust >= 0) & (state.instances.trust <= 1))

    def test_instances_match_batch_sizes(self, state):
        counts = np.bincount(
            state.instances.batch_idx, minlength=state.batches.num_batches
        )
        assert np.array_equal(counts, state.batches.num_instances)

    def test_item_ids_belong_to_one_batch(self, state):
        log = state.instances
        pairs = {}
        for item, batch in zip(log.item_id[:5000], log.batch_idx[:5000]):
            if item in pairs:
                assert pairs[item] == batch
            else:
                pairs[item] = batch

    def test_each_item_has_redundancy_answers(self, state):
        log = state.instances
        item_counts = np.bincount(log.item_id)
        item_counts = item_counts[item_counts > 0]
        redundancy_values = set(state.batches.redundancy.tolist())
        assert set(np.unique(item_counts)) <= redundancy_values

    def test_responses_are_strings(self, state):
        sample = state.instances.response[:100]
        assert all(isinstance(r, str) and r for r in sample)

    def test_task_of_instance_consistent(self, state):
        log = state.instances
        assert np.array_equal(
            log.task_idx, state.batches.task_idx[log.batch_idx]
        )


class TestDeterminism:
    def test_same_seed_same_world(self):
        cfg = SimulationConfig(
            seed=123, num_distinct_tasks=12, num_workers=60, instance_scale=0.05
        )
        a = simulate_marketplace(cfg)
        b = simulate_marketplace(cfg)
        assert np.array_equal(a.instances.start_time, b.instances.start_time)
        assert np.array_equal(a.instances.worker_id, b.instances.worker_id)
        assert all(x == y for x, y in zip(a.instances.response, b.instances.response))

    def test_different_seed_different_world(self):
        base = SimulationConfig(
            seed=1, num_distinct_tasks=12, num_workers=60, instance_scale=0.05
        )
        a = simulate_marketplace(base)
        b = simulate_marketplace(base.with_seed(2))
        assert a.instances.num_instances != b.instances.num_instances or not np.array_equal(
            a.instances.start_time, b.instances.start_time
        )


class TestCalibratedShapes:
    """The generative effects the analyses must later recover."""

    def test_regime_switch_in_arrivals(self, state):
        weeks = state.batches.start_time // WEEK_SECONDS
        weekly = np.bincount(
            weeks, weights=state.batches.num_instances.astype(float),
            minlength=state.config.num_weeks,
        )
        switch = state.config.regime_switch_week
        assert weekly[switch:].sum() > 10 * weekly[:switch].sum()

    def test_one_day_workers_realized_near_half(self, state):
        log = state.instances
        days = log.start_time // 86400
        order = np.argsort(log.worker_id, kind="stable")
        wid = log.worker_id[order]
        d = days[order]
        starts = np.flatnonzero(np.r_[True, wid[1:] != wid[:-1]])
        ends = np.r_[starts[1:], len(wid)]
        one_day = sum(
            1 for s, e in zip(starts, ends) if d[s:e].max() == d[s:e].min()
        )
        fraction = one_day / len(starts)
        assert 0.35 <= fraction <= 0.70  # paper: 0.527

    def test_top10_workers_dominate(self, state):
        counts = np.bincount(state.instances.worker_id)
        counts = counts[counts > 0]
        top = np.sort(counts)[::-1][: max(1, len(counts) // 10)]
        assert top.sum() / counts.sum() > 0.7  # paper: > 0.8

    def test_pickup_dominates_task_time(self, state):
        log = state.instances
        pickup = log.start_time - state.batches.start_time[log.batch_idx]
        duration = log.end_time - log.start_time
        assert np.median(pickup) > 5 * np.median(duration)

    def test_subjective_tasks_all_unique_responses(self, state):
        subjective_tasks = np.flatnonzero(state.tasks.subjective)
        if subjective_tasks.size == 0:
            pytest.skip("no subjective tasks at this scale/seed")
        t = subjective_tasks[0]
        mask = state.instances.task_idx == t
        responses = state.instances.response[mask]
        assert len(set(responses)) == len(responses)

    def test_internal_source_small_share(self, state):
        internal = state.sources.index_of("internal")
        share = (
            state.workers.source_idx[state.instances.worker_id] == internal
        ).mean()
        assert share < 0.15  # paper: ~2%

    def test_weekday_effect(self, state):
        days = (state.batches.start_time // 86400) % 7
        weights = state.batches.num_instances.astype(float)
        totals = np.bincount(days, weights=weights, minlength=7)
        assert totals[:5].mean() > totals[5:].mean()


class TestChoicePool:
    """The vectorized answer-string pool matches per-task choice_strings."""

    def test_matches_choice_strings_per_task(self):
        from repro.simulator.answers import choice_strings
        from repro.simulator.engine import _build_choice_pool

        rng = np.random.default_rng(17)
        for _ in range(20):
            n = int(rng.integers(1, 60))
            num_choices = rng.integers(2, 9, size=n)
            textual = rng.random(n) < 0.3
            pool, offsets = _build_choice_pool(num_choices, textual)
            assert len(pool) == int(num_choices.sum())
            for t in range(n):
                expected = choice_strings(
                    t, int(num_choices[t]), bool(textual[t])
                )
                start = int(offsets[t])
                got = list(pool[start:start + int(num_choices[t])])
                assert got == expected

    def test_all_binary(self):
        from repro.simulator.engine import _build_choice_pool

        pool, offsets = _build_choice_pool(
            np.array([2, 2, 2]), np.array([False, False, False])
        )
        assert list(pool) == ["yes", "no"] * 3
        assert list(offsets) == [0, 2, 4]

    def test_all_textual(self):
        from repro.simulator.engine import _build_choice_pool

        pool, _ = _build_choice_pool(np.array([3]), np.array([True]))
        assert list(pool) == [
            "task0_answer_0", "task0_answer_1", "task0_answer_2",
        ]


def _lexsort_experience(batch, worker, start):
    """The three-key lexsort the composite-key sort replaced (reference)."""
    order = np.lexsort((start, worker, batch))
    sorted_batch, sorted_worker = batch[order], worker[order]
    new_run = np.r_[
        True,
        (sorted_batch[1:] != sorted_batch[:-1])
        | (sorted_worker[1:] != sorted_worker[:-1]),
    ]
    run_id = np.cumsum(new_run) - 1
    position = np.arange(len(order), dtype=np.int64)
    experience = np.empty(len(order), dtype=np.float64)
    experience[order] = position - position[new_run][run_id]
    return experience


class TestWithinBatchExperience:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_lexsort_reference(self, seed):
        from repro.simulator.engine import _within_batch_experience

        rng = np.random.default_rng(seed)
        n = 5_000
        # Few distinct values so (batch, worker, start) ties are common and
        # the tie order (input order) is exercised.
        batch = rng.integers(3, 40, size=n)
        worker = rng.integers(0, 25, size=n)
        start = rng.integers(10**6, 10**6 + 50, size=n)
        got = _within_batch_experience(batch, worker, start)
        expect = _lexsort_experience(batch, worker, start)
        assert got.dtype == np.float64
        assert np.array_equal(got, expect)

    def test_empty_and_single(self):
        from repro.simulator.engine import _within_batch_experience

        empty = np.empty(0, dtype=np.int64)
        assert len(_within_batch_experience(empty, empty, empty)) == 0
        one = np.array([4], dtype=np.int64)
        assert _within_batch_experience(one, one, one).tolist() == [0.0]

    def test_key_overflow_is_loud(self):
        from repro.simulator.engine import _within_batch_experience

        batch = np.array([0, 2**21], dtype=np.int64)
        worker = np.array([0, 2**21], dtype=np.int64)
        start = np.array([0, 2**22], dtype=np.int64)
        with pytest.raises(OverflowError, match="int64 bound"):
            _within_batch_experience(batch, worker, start)

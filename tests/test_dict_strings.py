"""Instance string columns stay dictionary-coded, in canonical form.

``response``, ``source`` and ``country`` are canonical
:class:`~repro.tables.column.DictColumn` storage from the release through
the cache, the shard merge, the ingest fold and the metrics: uniques are
exactly the referenced strings in sorted order, so equal logical columns
have equal codes however they were built.  Pinned here:

- decoding every string column before enrichment changes no byte of the
  study, its figures or its fidelity report;
- canonical form is invariant to partitioning, permutation and arrival
  order through concatenation, the shard merge and the ingest fold;
- ingest at K ∈ {1, 3, 7} finalizes to the study's own codes and uniques;
- the simulator's response strings equal a frozen copy of the generator
  that emitted them as an object array;
- a cold build, its metrics, a warm load and every figure decode no
  string column (``dict.materialized_rows`` stays at zero).
"""

from __future__ import annotations

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import build_study, obs
from repro.dataset.release import ReleasedDataset, release_dataset
from repro.enrichment.metrics import compute_batch_metrics
from repro.enrichment.pipeline import enrich_dataset
from repro.figures.suite import FigureSuite
from repro.shard.merge import merge_sorted_by
from repro.shard.merge import IncrementalTableFold
from repro.simulator import engine
from repro.simulator.answers import modal_probability_for_disagreement
from repro.simulator.config import SimulationConfig
from repro.simulator.tasks import TEXT_RESPONSE_OPERATORS
from repro.study import Study
from repro.tables import DictColumn, Table, concat_tables, dict_encode
from repro.tables.column import canonical_dict, check_canonical
from tests.test_golden_digests import compute_digests

STRING_COLUMNS = ("source", "country", "response")


def assert_same_dict(a: DictColumn, b: DictColumn) -> None:
    assert isinstance(a, DictColumn) and isinstance(b, DictColumn)
    assert a.codes.dtype == b.codes.dtype == np.int32
    assert np.array_equal(a.codes, b.codes)
    assert a.uniques.tolist() == b.uniques.tolist()


# --------------------------------------------------------------------- #
# Decoding the columns first changes nothing
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("scale", ["tiny", "small"])
def test_materialized_columns_give_identical_study(scale):
    coded = build_study(scale, seed=7, cache=False)
    for name in STRING_COLUMNS:
        check_canonical(coded.released.instances.column(name))

    config = SimulationConfig.preset(scale, seed=7)
    state = engine.simulate_marketplace(config)
    released = release_dataset(state, config)
    plain = ReleasedDataset(
        batch_catalog=released.batch_catalog,
        batch_html=released.batch_html,
        instances=Table(released.instances.to_dict(), copy=False),
    )
    assert not any(
        isinstance(plain.instances.column(n), DictColumn)
        for n in plain.instances.column_names
    )
    enriched = enrich_dataset(plain, config)
    decoded = Study(
        config=config,
        state=state,
        released=plain,
        enriched=enriched,
        figures=FigureSuite(state=state, released=plain, enriched=enriched),
    )
    assert compute_digests(decoded) == compute_digests(coded)


# --------------------------------------------------------------------- #
# Canonical form under partitioning and permutation
# --------------------------------------------------------------------- #


def _parts(n: int, cuts: list[int]) -> list[np.ndarray]:
    bounds = [0, *sorted(c for c in set(cuts) if 0 < c < n), n]
    return [np.arange(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]


@settings(max_examples=80, deadline=None)
@given(
    values=st.lists(
        st.one_of(st.sampled_from(["yes", "no", "b", ""]), st.text(max_size=4)),
        min_size=1, max_size=50,
    ),
    cuts=st.lists(st.integers(min_value=1, max_value=49), max_size=5),
    seed=st.integers(min_value=0, max_value=2**16),
    finalize_early=st.booleans(),
)
def test_canonical_form_is_partition_and_order_invariant(
    values, cuts, seed, finalize_early
):
    n = len(values)
    strings = np.array(values, dtype=object)
    ids = np.arange(n, dtype=np.int64)
    whole = canonical_dict(strings)
    assert whole.uniques.tolist() == sorted(set(values))
    assert whole.materialize().tolist() == values
    check_canonical(whole)

    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    assert_same_dict(
        canonical_dict(strings[perm]), DictColumn(whole.codes[perm], whole.uniques)
    )

    parts = _parts(n, cuts)
    # Concatenated in order, from per-part canonical columns.
    concat = concat_tables([
        Table({"id": ids[p], "s": canonical_dict(strings[p])}) for p in parts
    ])
    assert_same_dict(concat.column("s"), whole)

    # Rows shuffled inside each part, parts arriving in any order.
    shuffled = [p[rng.permutation(len(p))] for p in parts]
    arrival = [shuffled[int(i)] for i in rng.permutation(len(shuffled))]
    merged = merge_sorted_by(
        [Table({"id": ids[p], "s": canonical_dict(strings[p])}) for p in arrival],
        "id",
    )
    assert_same_dict(merged.column("s"), whole)

    fold = IncrementalTableFold("id")
    for i, p in enumerate(arrival):
        # Object arrays and first-appearance dictionaries fold alike.
        s = strings[p] if i % 2 else dict_encode(strings[p])
        fold.fold(Table({"id": ids[p], "s": s}, copy=False))
        if finalize_early:
            check_canonical(fold.finalize().column("s"))
    assert_same_dict(fold.finalize().column("s"), whole)


# --------------------------------------------------------------------- #
# Ingest at K in {1, 3, 7}
# --------------------------------------------------------------------- #


def test_ingest_finalizes_to_the_study_codes(study):
    from repro.service import ServiceState, split_study

    expected = study.released.instances
    for k in (1, 3, 7):
        state = ServiceState(study.config)
        for payload in split_study(study, k, seed=k):
            state.ingest(payload)
        folded = state.instances_table()
        for name in STRING_COLUMNS:
            assert_same_dict(folded.column(name), expected.column(name))


# --------------------------------------------------------------------- #
# The simulator's strings against the pre-dictionary generator
# --------------------------------------------------------------------- #


def _frozen_choice_strings(tasks, num_choices):
    textual = np.array(
        [ops[0] in TEXT_RESPONSE_OPERATORS for ops in tasks.operators]
    )
    return engine._build_choice_pool(num_choices, textual)


def _frozen_generate_responses(
    config, tasks, batches, batch_of_instance, task_of_instance, item_id,
    workers, worker_id, rng,
):
    """The monolithic generator as it was when it returned object arrays."""
    cal = config.calibration
    n = len(batch_of_instance)
    num_choices = tasks.num_choices.astype(np.int64)
    q_task = modal_probability_for_disagreement(
        tasks.target_disagreement, num_choices
    )
    total_items = int(batches.num_items.sum())
    m_of_batch = num_choices[batches.task_idx]
    m_of_item = np.repeat(m_of_batch, batches.num_items)
    true_answer_of_item = (rng.random(total_items) * m_of_item).astype(np.int64)
    m_inst = m_of_item[item_id]
    true_inst = true_answer_of_item[item_id]
    q_inst = np.clip(
        q_task[task_of_instance]
        + cal.worker_accuracy_coupling
        * (workers.accuracy[worker_id] - cal.mean_worker_accuracy),
        0.02,
        0.999,
    )
    correct = rng.random(n) < q_inst
    wrong_offset = 1 + (rng.random(n) * (m_inst - 1)).astype(np.int64)
    answer_idx = np.where(correct, true_inst, (true_inst + wrong_offset) % m_inst)
    pool_array, pool_offsets = _frozen_choice_strings(tasks, num_choices)
    response = pool_array[pool_offsets[task_of_instance] + answer_idx]
    subjective_inst = tasks.subjective[task_of_instance]
    if int(subjective_inst.sum()):
        unique_ids = np.flatnonzero(subjective_inst)
        response[unique_ids] = np.array(
            [f"freeform response #{i}" for i in unique_ids], dtype=object
        )
    return response


def _frozen_generate_responses_sharded(
    config, tasks, batches, workers, rng, *, n, sel, task_sel, item_sel,
    worker_sel,
):
    """The shard-mode generator as it was when it returned object arrays."""
    cal = config.calibration
    num_choices = tasks.num_choices.astype(np.int64)
    q_task = modal_probability_for_disagreement(
        tasks.target_disagreement, num_choices
    )
    total_items = int(batches.num_items.sum())
    m_of_batch = num_choices[batches.task_idx]
    m_of_item = np.repeat(m_of_batch, batches.num_items)
    true_answer_of_item = (rng.random(total_items) * m_of_item).astype(np.int64)
    m_sel = m_of_item[item_sel]
    true_sel = true_answer_of_item[item_sel]
    q_sel = np.clip(
        q_task[task_sel]
        + cal.worker_accuracy_coupling
        * (workers.accuracy[worker_sel] - cal.mean_worker_accuracy),
        0.02,
        0.999,
    )
    correct = rng.random(n)[sel] < q_sel
    wrong_offset = 1 + (rng.random(n)[sel] * (m_sel - 1)).astype(np.int64)
    answer_idx = np.where(correct, true_sel, (true_sel + wrong_offset) % m_sel)
    pool_array, pool_offsets = _frozen_choice_strings(tasks, num_choices)
    response = pool_array[pool_offsets[task_sel] + answer_idx]
    subjective_local = np.flatnonzero(tasks.subjective[task_sel])
    if len(subjective_local):
        response[subjective_local] = np.array(
            [f"freeform response #{i}" for i in sel[subjective_local]],
            dtype=object,
        )
    return response


@pytest.mark.parametrize("num_shards", [None, 3])
def test_responses_match_the_frozen_object_generator(monkeypatch, num_shards):
    name, frozen = (
        ("_generate_responses", _frozen_generate_responses)
        if num_shards is None
        else ("_generate_responses_sharded", _frozen_generate_responses_sharded)
    )
    real = getattr(engine, name)
    seen = []

    def spy(*args, **kwargs):
        # The rng is the last positional argument of both generators.
        *rest, rng = args
        expected = frozen(*rest, copy.deepcopy(rng), **kwargs)
        column = real(*args, **kwargs)
        seen.append((column, expected))
        return column

    monkeypatch.setattr(engine, name, spy)
    config = SimulationConfig.preset("tiny", seed=11)
    for shard in range(num_shards or 1):
        if num_shards is None:
            engine.simulate_marketplace(config)
        else:
            engine.simulate_marketplace(config, shard=shard, num_shards=num_shards)
    assert len(seen) == (num_shards or 1)
    for column, expected in seen:
        assert isinstance(column, DictColumn)
        assert len(set(column.uniques.tolist())) == len(column.uniques)
        assert column.materialize().tolist() == expected.tolist()
    assert any(
        value.startswith("freeform response #")
        for column, _ in seen for value in column.uniques.tolist()
    )


# --------------------------------------------------------------------- #
# No string column is decoded on the study path
# --------------------------------------------------------------------- #


def test_build_metrics_warm_load_and_figures_decode_no_strings(
    tmp_path, monkeypatch
):
    from repro.service.app import fidelity_body, figure_body, figure_names

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    decoded = obs.counter("dict.materialized_rows")
    misses, hits = obs.counter("cache.miss"), obs.counter("cache.hit")
    before = (decoded.value, misses.value, hits.value)

    cold = build_study("tiny", seed=7)
    compute_batch_metrics(cold.released)
    warm = build_study("tiny", seed=7)
    assert (misses.value, hits.value) == (before[1] + 1, before[2] + 1)
    for name in STRING_COLUMNS:
        column = warm.released.instances.column(name)
        check_canonical(column)
        assert_same_dict(column, cold.released.instances.column(name))
    for name in figure_names():
        figure_body(getattr(warm.figures, name)())
    fidelity_body(warm.figures)
    assert decoded.value == before[0]

    # The counter does see a decode.
    warm.released.instances["response"]
    assert decoded.value == before[0] + warm.released.instances.num_rows

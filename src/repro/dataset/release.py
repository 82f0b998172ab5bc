"""Construct the released dataset from simulator ground truth (paper §2.2–2.3).

The release deliberately *omits* everything the paper says was missing:
requester ids, distinct-task ids (clustering must re-derive them), ground
truth answers, test questions, and payments.  Worker attributes are carried
per instance (worker id, source, country) exactly as §2.3 lists them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.htmlgen import render_task_template
from repro.simulator.config import SimulationConfig
from repro.simulator.engine import MarketplaceState
from repro.tables import DictColumn, Table
from repro.tables.column import canonical_dict, factorize


@dataclass
class ReleasedDataset:
    """What the analysis layer is allowed to see.

    Attributes
    ----------
    batch_catalog:
        One row per batch in the *entire* marketplace: ``batch_id``,
        ``title``, ``created_at``, ``sampled``.  Mirrors the paper's
        "minimal data about the remaining [batches], consisting only of the
        title of the task and the creation date".
    batch_html:
        ``batch_id -> sample task HTML`` for sampled batches only.
    instances:
        Instance-level log for sampled batches: ``instance_id``,
        ``batch_id``, ``item_id``, ``worker_id``, ``source``, ``country``,
        ``start_time``, ``end_time``, ``trust``, ``response``.  The three
        string columns are canonical
        :class:`~repro.tables.column.DictColumn` storage.
    """

    batch_catalog: Table
    batch_html: dict[int, str]
    instances: Table

    @property
    def num_sampled_batches(self) -> int:
        return len(self.batch_html)


def _render_batch_html(
    state: MarketplaceState,
    batch_ids: np.ndarray,
    rng: np.random.Generator,
    render_mask: np.ndarray | None = None,
) -> dict[int, str]:
    """Render sample-task HTML for ``batch_ids`` (in order).

    The render loop consumes RNG draws *sequentially* (item token, footer
    coin, footer revision), so a shard cannot simply skip foreign batches.
    ``render_mask`` (bool per position in ``batch_ids``) makes non-owned
    batches *replay* exactly the draws a render would consume without
    building the string — keeping the stream, and therefore every rendered
    byte, identical to the monolithic run.

    Batches of one task share its interface and differ only in the item
    token, so each task's template is rendered once (memoized by task
    index) and every batch fills its slots with the batch's own token.
    """
    tasks = state.tasks
    templates: dict[int, tuple[str, ...]] = {}
    html: dict[int, str] = {}
    for pos, batch_id in enumerate(batch_ids):
        if render_mask is not None and not render_mask[pos]:
            # Draw replay: mirror the render path's RNG consumption below.
            rng.integers(10**8)
            if rng.random() < 0.15:
                rng.integers(100)
            continue
        t = int(state.batches.task_idx[batch_id])
        template = templates.get(t)
        if template is None:
            template = templates[t] = render_task_template(
                title=str(tasks.title[t]),
                goals=tasks.goals[t],
                operators=tasks.operators[t],
                data_types=tasks.data_types[t],
                num_words=int(tasks.num_words[t]),
                num_text_boxes=int(tasks.num_text_boxes[t]),
                num_examples=int(tasks.num_examples[t]),
                num_images=int(tasks.num_images[t]),
                num_choices=int(tasks.num_choices[t]),
                template_salt=int(tasks.template_salt[t]),
            )
        item_token = f"unit-{int(rng.integers(10**8)):08d}"
        rendered = item_token.join(template)
        # Mild per-batch template drift (requesters tweak footers between
        # re-issues) so clustering must genuinely match near-duplicates.
        if rng.random() < 0.15:
            footer = f"<p>batch revision {int(rng.integers(100))} posted</p>"
            rendered = rendered.replace("</body>", footer + "</body>")
        html[int(batch_id)] = rendered
    return html


def release_dataset(
    state: MarketplaceState,
    config: SimulationConfig,
    *,
    shard: int | None = None,
    num_shards: int | None = None,
) -> ReleasedDataset:
    """Apply the §2.2 sampling lens to the simulated marketplace.

    With ``shard``/``num_shards`` set (matching the sharded
    :func:`repro.simulator.engine.simulate_marketplace` call that produced
    ``state``), the batch catalog and sampling mask are still computed in
    full — they are global and cheap — but HTML is rendered only for the
    shard's own sampled batches (foreign batches replay their RNG draws)
    and the instance table covers only the shard's rows.
    """
    from repro.simulator.engine import _validate_shard
    from repro.simulator.rng import StreamFactory

    sharded = _validate_shard(shard, num_shards)
    rng = StreamFactory(config.seed).stream("release")
    num_batches = state.batches.num_batches

    sampled = rng.random(num_batches) < config.batch_sample_prob
    if not sampled.any():
        sampled[rng.integers(num_batches)] = True
    sampled_ids = np.flatnonzero(sampled)

    render_mask = None
    if sharded:
        render_mask = sampled_ids % num_shards == shard

    batch_catalog = Table(
        {
            "batch_id": np.arange(num_batches, dtype=np.int64),
            "title": state.tasks.title[state.batches.task_idx],
            "created_at": state.batches.start_time,
            "sampled": sampled,
        },
        copy=False,
    )

    batch_html = _render_batch_html(state, sampled_ids, rng, render_mask)

    log = state.instances
    keep = sampled[log.batch_idx]
    worker = log.worker_id[keep]
    # The string columns stay codes from the simulator on: per-worker
    # source and country codes are gathered per instance, the responses
    # filtered, and each column compacted to its canonical dictionary, so
    # no instance-row string is ever built or hashed.
    source = DictColumn(
        state.workers.source_idx[worker].astype(np.int32),
        np.array(state.sources.names, dtype=object),
    )
    country_codes, countries = factorize(state.workers.country)
    instances = Table(
        {
            "instance_id": log.global_ids[keep].astype(np.int64),
            "batch_id": log.batch_idx[keep],
            "item_id": log.item_id[keep],
            "worker_id": worker,
            "source": canonical_dict(source),
            "country": canonical_dict(
                DictColumn(country_codes[worker], countries)
            ),
            "start_time": log.start_time[keep],
            "end_time": log.end_time[keep],
            "trust": log.trust[keep],
            "response": canonical_dict(log.response.filter(keep)),
        },
        copy=False,
    )
    return ReleasedDataset(
        batch_catalog=batch_catalog,
        batch_html=batch_html,
        instances=instances,
    )

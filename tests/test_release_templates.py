"""The release renders each task's interface once and fills item slots.

:func:`repro.htmlgen.render_task_html` is now a task template
(:func:`repro.htmlgen.render_task_template`) joined by the batch's item
token.  The renderer it replaced is frozen below as the reference: for
every task of the ``tiny`` and ``small`` presets the two must agree byte
for byte.  The release's ``country`` column, now built from per-worker
codes, must factorize exactly like the gathered strings.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.dataset.release import release_dataset
from repro.htmlgen import render_task_html, render_task_template
from repro.htmlgen.render import (
    _DATA_SNIPPETS,
    _GOAL_PHRASES,
    _OPERATOR_PROMPTS,
    _filler,
)
from repro.simulator.config import SimulationConfig
from repro.simulator.engine import simulate_marketplace
from repro.tables import DictColumn
from repro.tables.column import factorize
from repro.taxonomy.labels import DataType, Goal, Operator


# --------------------------------------------------------------------- #
# The renderer before templates, kept only as the reference
# --------------------------------------------------------------------- #


def _frozen_render_task_html(
    *,
    title: str,
    goals: tuple[Goal, ...],
    operators: tuple[Operator, ...],
    data_types: tuple[DataType, ...],
    num_words: int,
    num_text_boxes: int,
    num_examples: int,
    num_images: int,
    num_choices: int,
    template_salt: int,
    item_token: str,
) -> str:
    """Render the sample-task HTML for one batch.

    ``template_salt`` fixes the task-specific filler vocabulary draw (so all
    batches of a task share their instruction text); ``item_token``
    identifies the sample item embedded in this batch's interface.
    """
    rng = np.random.default_rng(template_salt)
    parts: list[str] = [
        "<html><head>",
        f"<title>{title}</title>",
        "</head><body>",
        f'<h1>{title}</h1>',
    ]

    # Fixed structural words so far: title (in h1) repeats; budget the rest.
    structural_words = len(title.split()) * 2 + 10
    goal_phrases = [_GOAL_PHRASES[g] for g in goals]
    structural_words += sum(len(p.split()) for p in goal_phrases)
    structural_words += sum(
        len(_OPERATOR_PROMPTS[op].split()) for op in operators
    )
    structural_words += 2 * num_choices  # radio labels "choice N"

    example_words_each = 0
    if num_examples > 0:
        example_words_each = max(8, min(60, num_words // (4 * num_examples)))
        structural_words += num_examples * (example_words_each + 1)

    instruction_words = max(num_words - structural_words, 5)

    parts.append('<div class="instructions"><h2>Instructions</h2>')
    for goal_phrase in goal_phrases:
        parts.append(f"<p>{goal_phrase}.</p>")
    parts.append(f"<p>{_filler(rng, instruction_words)}</p>")
    parts.append("</div>")

    for e in range(num_examples):
        parts.append('<div class="example-block">')
        parts.append(f"<b>Example {e + 1}:</b>")
        parts.append(f"<p>{_filler(rng, example_words_each)}</p>")
        parts.append("</div>")

    # The sample item of an image data type renders as an <img> below, so
    # only the remainder appear as instructional/asset images — keeping the
    # extracted #images equal to the task's latent feature.
    item_image_count = sum(1 for dt in data_types if dt is DataType.IMAGE)
    for k in range(max(num_images - item_image_count, 0)):
        parts.append(
            f'<img src="https://cdn.example.com/assets/t{template_salt % 99991}_{k}.png">'
        )

    parts.append(f'<div class="task-unit" data-unit="{item_token}">')
    for j, data_type in enumerate(data_types):
        snippet = _DATA_SNIPPETS[data_type]
        parts.append(snippet.format(item=f"{item_token}-{j}"))
    for operator in operators:
        parts.append(f"<p>{_OPERATOR_PROMPTS[operator]}</p>")

    uses_clicks = operators[0] not in (
        Operator.GATHER,
        Operator.EXTRACT,
        Operator.GENERATE,
    ) or num_text_boxes == 0
    if uses_clicks:
        for c in range(num_choices):
            parts.append(
                f'<label><input type="radio" name="q" value="{c}"> choice {c + 1}</label>'
            )
    for t in range(num_text_boxes):
        parts.append(f'<input type="text" name="free_{t}" placeholder="type here">')

    parts.append("</div>")
    parts.append('<button type="submit">Submit</button>')
    parts.append("</body></html>")
    return "\n".join(parts)


def _task_kwargs(tasks, t: int) -> dict:
    return dict(
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


@pytest.fixture(scope="module", params=["tiny", "small"])
def preset_state(request):
    config = SimulationConfig.preset(request.param, seed=7)
    return config, simulate_marketplace(config)


class TestTemplateRender:
    def test_every_task_matches_frozen_renderer(self, preset_state):
        _, state = preset_state
        tasks = state.tasks
        for t in range(len(tasks.title)):
            kwargs = _task_kwargs(tasks, t)
            token = f"unit-{t:08d}"
            expect = _frozen_render_task_html(**kwargs, item_token=token)
            assert render_task_html(**kwargs, item_token=token) == expect, t
            # One slot for the task unit, one per embedded data snippet.
            template = render_task_template(**kwargs)
            assert len(template) == 2 + len(kwargs["data_types"])

    def test_token_fills_every_slot(self):
        kwargs = dict(
            title="slot test", goals=(Goal.TRANSCRIPTION,),
            operators=(Operator.EXTRACT,),
            data_types=(DataType.IMAGE, DataType.TEXT, DataType.WEBPAGE),
            num_words=40, num_text_boxes=1, num_examples=1, num_images=2,
            num_choices=0, template_salt=5,
        )
        for token in ("unit-00000001", "", "{item}", "a\nb"):
            assert render_task_html(**kwargs, item_token=token) == (
                _frozen_render_task_html(**kwargs, item_token=token)
            )


class TestCountryColumn:
    def test_factorizes_like_gathered_strings(self, preset_state):
        config, state = preset_state
        released = release_dataset(state, config)
        column = released.instances.column("country")
        assert isinstance(column, DictColumn)
        sampled = released.batch_catalog["sampled"]
        keep = sampled[state.instances.batch_idx]
        gathered = state.workers.country[state.instances.worker_id[keep]]
        codes, uniques = factorize(column)
        ref_codes, ref_uniques = factorize(gathered)
        assert np.array_equal(codes, ref_codes)
        assert uniques.tolist() == ref_uniques.tolist()
        assert column.materialize().tolist() == gathered.tolist()

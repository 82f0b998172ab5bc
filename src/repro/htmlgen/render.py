"""Render a task interface as HTML from its design features.

Guarantees (verified by tests):

- ``extract_features(render_task_html(...))`` recovers ``num_text_boxes``,
  ``num_examples`` and ``num_images`` exactly, and ``num_words`` within a
  small tolerance of the requested count;
- two batches of the same distinct task render nearly identical HTML
  (differing only in the embedded sample item), while different tasks use
  different instruction vocabulary — so HTML-similarity clustering can
  recover distinct tasks, as the paper's §3.3 pipeline does.
"""

from __future__ import annotations

import numpy as np

from repro.taxonomy.labels import DataType, Goal, Operator

#: Small deterministic vocabulary for instruction filler text.
_VOCABULARY = (
    "please review the provided item carefully and follow each step "
    "before submitting your judgement when unsure use best effort and "
    "consult the guidance above answers must reflect only what the data "
    "shows avoid guessing mark uncertain cases accordingly workers who "
    "consistently submit accurate responses retain access to this job "
    "read every field check spelling copy values exactly as displayed "
    "match the format shown do not include extra punctuation or notes "
    "if the page fails to load skip the unit and flag it for review"
).split()

_GOAL_PHRASES: dict[Goal, str] = {
    Goal.ENTITY_RESOLUTION: "decide whether the two records describe the same real world entity",
    Goal.HUMAN_BEHAVIOR: "answer the survey questions honestly based on your own experience",
    Goal.SEARCH_RELEVANCE: "judge how relevant the result is to the search query shown",
    Goal.QUALITY_ASSURANCE: "flag content that violates the policy described in the guidelines",
    Goal.SENTIMENT_ANALYSIS: "classify the overall sentiment expressed by the author",
    Goal.LANGUAGE_UNDERSTANDING: "analyze the language of the passage and identify the requested elements",
    Goal.TRANSCRIPTION: "transcribe the content exactly as it appears in the media",
}

_OPERATOR_PROMPTS: dict[Operator, str] = {
    Operator.FILTER: "Select the category that applies:",
    Operator.RATE: "Rate the item on the scale below:",
    Operator.SORT: "Order the entries from best to worst:",
    Operator.COUNT: "How many occurrences do you see?",
    Operator.TAG: "Apply every tag that fits:",
    Operator.GATHER: "Find the requested information on the web and enter it:",
    Operator.EXTRACT: "Copy the requested value exactly as shown:",
    Operator.GENERATE: "Write your answer in your own words:",
    Operator.LOCALIZE: "Mark the region described in the item:",
    Operator.EXTERNAL: "Open the link below and complete the activity:",
}

_DATA_SNIPPETS: dict[DataType, str] = {
    DataType.TEXT: '<blockquote class="item-text">{item}</blockquote>',
    DataType.IMAGE: '<img src="https://cdn.example.com/items/{item}.jpg" alt="item">',
    DataType.AUDIO: '<audio controls src="https://cdn.example.com/items/{item}.mp3"></audio>',
    DataType.VIDEO: '<video controls src="https://cdn.example.com/items/{item}.mp4"></video>',
    DataType.MAPS: '<iframe class="map" src="https://maps.example.com/embed?q={item}"></iframe>',
    DataType.SOCIAL_MEDIA: '<blockquote class="social-post">{item}</blockquote>',
    DataType.WEBPAGE: '<a href="https://web.example.com/{item}">open the webpage</a>',
}


def _filler(rng: np.random.Generator, num_words: int) -> str:
    if num_words <= 0:
        return ""
    picks = rng.choice(len(_VOCABULARY), size=num_words)
    return " ".join(_VOCABULARY[i] for i in picks)


def render_task_html(*, item_token: str, **task) -> str:
    """Render the sample-task HTML for one batch.

    ``task`` holds the keyword arguments of :func:`render_task_template`;
    ``item_token`` identifies the sample item embedded in this batch's
    interface and fills every slot of the task's template.
    """
    return item_token.join(render_task_template(**task))


def render_task_template(
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
) -> tuple[str, ...]:
    """Render one task's interface with its sample item left out.

    Returns the text between the item-token slots: ``token.join(...)`` is
    the batch HTML for sample item ``token``.  Batches of one task differ
    only in that token, so a release renders each task once and fills its
    slots per batch.  ``template_salt`` fixes the task-specific filler
    vocabulary draw, so all batches of a task share their instruction text.
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

    # The item token fills the task unit's ``data-unit`` and each data
    # snippet's ``{item}`` (as ``<token>-<j>``); cut the page at each slot.
    segments = ["\n".join(parts) + '\n<div class="task-unit" data-unit="']
    pending = '">'
    for j, data_type in enumerate(data_types):
        before, after = _DATA_SNIPPETS[data_type].split("{item}")
        segments.append(f"{pending}\n{before}")
        pending = f"-{j}{after}"

    parts = [pending]
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
    segments.append("\n".join(parts))
    return tuple(segments)

"""Design-parameter extraction from task-interface HTML (paper §2.4, §4).

The features mirror the paper's definitions:

``num_words``
    Number of whitespace-separated words in the rendered text of the page
    ("the number of words in the HTML page").
``num_text_boxes``
    Count of free-form text inputs: ``<textarea>`` plus ``<input>`` whose
    ``type`` is ``text`` (or missing, the HTML default).
``num_examples``
    The paper counts occurrences of the word "example" *wrapped in a tag of
    its own*, i.e. prominently displayed — not mentions buried inside longer
    prose.  We count elements whose own text, stripped, is exactly the word
    "example"/"examples" (case-insensitive, optional trailing colon or
    numbering such as "Example 1:").
``num_images``
    Count of ``<img>`` tags.
``num_input_fields``
    All worker-facing inputs: text boxes, radios, checkboxes, selects.
``num_radio_buttons`` / ``num_checkboxes`` / ``num_selects``
    Individual input-mechanism counts.
``has_instructions``
    True when an element carries an ``instructions`` class/id or an
    ``<h1>–<h6>`` heading announcing instructions.

:func:`extract_features` reads all of them in one pre-order walk of the
parsed tree, visiting each element and each text node once;
:func:`scan_interface` is the same walk, also returning what a label
reading needs.  :func:`interface_key` maps documents that differ only in
their sample-item token to one key, and :func:`group_by_interface` groups a
corpus by it, so each interface's work runs once per key.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from repro.html.parser import Element, TextNode, parse_html

_EXAMPLE_RE = re.compile(r"^examples?(\s+\d+)?\s*:?\s*$", re.IGNORECASE)
_INSTRUCTIONS_RE = re.compile(r"instruction", re.IGNORECASE)

#: Tags whose text is not shown to workers and is excluded from word counts.
_NON_RENDERED_TAGS = frozenset({"script", "style", "head", "title"})
_HEADINGS = frozenset({"h1", "h2", "h3", "h4", "h5", "h6"})

_ITEM_PREFIX = "unit-"
_ASCII_DIGITS = re.compile(r"[0-9]+")
#: Characters a tag name may hold after its first letter (``_TAG_RE``).
_TAG_NAME_CHARS = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-"
)


@dataclass(frozen=True)
class InterfaceFeatures:
    """Design parameters of one task interface."""

    num_words: int
    num_text_boxes: int
    num_examples: int
    num_images: int
    num_radio_buttons: int
    num_checkboxes: int
    num_selects: int
    num_input_fields: int
    has_instructions: bool

    def as_dict(self) -> dict[str, int | bool]:
        return {
            "num_words": self.num_words,
            "num_text_boxes": self.num_text_boxes,
            "num_examples": self.num_examples,
            "num_images": self.num_images,
            "num_radio_buttons": self.num_radio_buttons,
            "num_checkboxes": self.num_checkboxes,
            "num_selects": self.num_selects,
            "num_input_fields": self.num_input_fields,
            "has_instructions": self.has_instructions,
        }


def _is_example_marker(own: str) -> bool:
    own = own.strip()
    return bool(own) and _EXAMPLE_RE.match(own) is not None


def _announces_instructions(element: Element, own: str) -> bool:
    attributes = element.attributes
    if _INSTRUCTIONS_RE.search(
        attributes.get("class", "")
    ) or _INSTRUCTIONS_RE.search(attributes.get("id", "")):
        return True
    if element.tag in _HEADINGS:
        return _INSTRUCTIONS_RE.search(own) is not None
    return False


def extract_features(html: str | Element) -> InterfaceFeatures:
    """Extract :class:`InterfaceFeatures` from HTML source or a parsed tree."""
    return scan_interface(html)[0]


def scan_interface(
    html: str | Element, marker_tags: frozenset[str] = frozenset()
) -> tuple[InterfaceFeatures, str, list[Element]]:
    """One walk of an interface: its features, its text, its marked elements.

    Returns the :class:`InterfaceFeatures`, the text of every text node in
    document order (``root.text_content()``), and the elements whose tag is
    in ``marker_tags`` in pre-order (as ``root.iter_elements()`` meets
    them).  This is everything a label reading looks at
    (:mod:`repro.enrichment.design`), so one parse serves both.

    One iterative pre-order walk visits each element and each text node
    once.  Each stack entry carries whether its element is rendered (no
    ``script``/``style``/``head``/``title`` on the path from the root);
    text nodes ride the same stack (marked ``None``), so they pop in
    document order.  Words are counted per rendered text node:
    ``str.split`` and ``\\S+`` agree on whitespace, and rendered text joins
    nodes with a space, so no word spans two nodes.
    """
    root = parse_html(html) if isinstance(html, str) else html

    num_words = 0
    num_text_boxes = 0
    num_radio = 0
    num_checkbox = 0
    num_select = 0
    num_images = 0
    num_examples = 0
    has_instructions = False
    texts: list[str] = []
    marked: list[Element] = []

    stack: list[tuple[Element | TextNode, bool | None]] = [
        (root, root.tag not in _NON_RENDERED_TAGS)
    ]
    while stack:
        element, rendered = stack.pop()
        if rendered is None:
            texts.append(element.text)
            continue
        tag = element.tag
        if tag in marker_tags:
            marked.append(element)
        if tag == "textarea":
            num_text_boxes += 1
        elif tag == "input":
            input_type = element.attributes.get("type", "text").lower()
            if input_type in ("text", "", "search", "email", "url"):
                num_text_boxes += 1
            elif input_type == "radio":
                num_radio += 1
            elif input_type == "checkbox":
                num_checkbox += 1
        elif tag == "select":
            num_select += 1
        elif tag == "img":
            num_images += 1

        own_parts: list[str] = []
        children: list[tuple[Element | TextNode, bool | None]] = []
        for child in element.children:
            if isinstance(child, Element):
                children.append(
                    (child, rendered and child.tag not in _NON_RENDERED_TAGS)
                )
            else:
                own_parts.append(child.text)
                children.append((child, None))
                if rendered:
                    num_words += len(child.text.split())
        own = "".join(own_parts)
        if own and _is_example_marker(own):
            num_examples += 1
        if not has_instructions and _announces_instructions(element, own):
            has_instructions = True
        children.reverse()
        stack.extend(children)

    features = InterfaceFeatures(
        num_words=num_words,
        num_text_boxes=num_text_boxes,
        num_examples=num_examples,
        num_images=num_images,
        num_radio_buttons=num_radio,
        num_checkboxes=num_checkbox,
        num_selects=num_select,
        num_input_fields=num_text_boxes + num_radio + num_checkbox + num_select,
        has_instructions=has_instructions,
    )
    return features, "".join(texts), marked


def interface_key(html: str) -> str:
    """A key under which documents have equal features and label readings.

    Each run of ASCII digits ``[0-9]`` that directly follows the literal
    ``unit-`` (the release's sample-item token, ``unit-XXXXXXXX``) becomes
    the same number of ``0``s.  Two cases keep the whole document as its
    own key instead: a run inside a tag name (scanning back over
    ``[A-Za-z0-9-]`` reaches ``<`` or ``</``), and any document holding
    ``<!``, because removing a comment or doctype can join text into a tag
    name after the scan.

    Why equal keys give equal :func:`extract_features` and
    :func:`repro.enrichment.labels.read_labels_from_html`:

    - Rewriting never creates or removes a ``unit-`` or a digit run, and
      keeps the document's length, so two documents share a key only if
      they differ in ASCII digits after ``unit-`` at the same positions,
      outside tag names, and hold no ``<!``.  A document kept whole has a
      run in a tag name or a ``<!``; a rewritten one has neither, so the
      two kinds of key never collide.
    - Replacing an ASCII digit by another keeps every character class the
      parser and the features test: ``_TAG_RE`` and ``_ATTR_RE`` classes,
      ``\\s`` and ``str.split``/``str.strip`` whitespace, ``\\d`` in
      ``_EXAMPLE_RE``, letters in ``_INSTRUCTIONS_RE``, and ``lower()``.
      So tokens, tree shape, text-node boundaries and word counts agree.
    - The only identities that can differ are those holding the rewritten
      digits.  Tag names are excluded above.  Attribute names and values,
      and text, holding ``unit-<digit>`` never equal a compared name
      (``type``, ``class``, ``id``, ``src``, ``href``) or compared value
      (input types, ``item-text``, ``social-post``, ``map``), and the
      substrings searched (``instruction``, ``/items/``,
      ``web.example.com``, goal phrases, operator prompts) hold no digit,
      so each is found at the same positions in both documents.

    Unlike clustering's noise cleaner this never deletes text, so a
    ``data-unit`` value with markup or whitespace keeps its words.
    """
    pos = html.find(_ITEM_PREFIX)
    if pos < 0 or "<!" in html:
        return html
    pieces: list[str] = []
    done = 0
    while pos >= 0:
        start = pos + len(_ITEM_PREFIX)
        digits = _ASCII_DIGITS.match(html, start)
        if digits is None:
            pos = html.find(_ITEM_PREFIX, start)
            continue
        before = pos - 1
        while before >= 0 and html[before] in _TAG_NAME_CHARS:
            before -= 1
        if before >= 0 and (
            html[before] == "<"
            or (html[before] == "/" and before > 0 and html[before - 1] == "<")
        ):
            return html
        end = digits.end()
        pieces.append(html[done:start])
        pieces.append("0" * (end - start))
        done = end
        pos = html.find(_ITEM_PREFIX, end)
    if not pieces:
        return html
    pieces.append(html[done:])
    return "".join(pieces)


@dataclass(frozen=True)
class InterfaceGroups:
    """A corpus grouped by :func:`interface_key`.

    ``batch_ids`` are sorted; ``index[i]`` is the group of
    ``batch_ids[i]``, and ``first[g]`` the position of group ``g``'s first
    document, its representative.  Groups are numbered by first
    appearance.
    """

    batch_ids: list[int]
    index: np.ndarray
    first: list[int]

    @property
    def num_groups(self) -> int:
        return len(self.first)

    def representatives(self, html_by_batch: Mapping[int, str]) -> list[str]:
        """Each group's first document, in group order."""
        return [html_by_batch[self.batch_ids[i]] for i in self.first]


def group_by_interface(html_by_batch: Mapping[int, str]) -> InterfaceGroups:
    """Group documents by :func:`interface_key`, one key pass per document.

    The one grouping that design extraction, label reading and shingle
    cleaning share (see :func:`repro.enrichment.design.extract_design_parameters`
    and :func:`repro.enrichment.clustering.shingle_corpus`).
    """
    batch_ids = sorted(html_by_batch)
    group_of: dict[str, int] = {}
    first: list[int] = []
    index = np.empty(len(batch_ids), dtype=np.int64)
    for i, batch_id in enumerate(batch_ids):
        group = group_of.setdefault(
            interface_key(html_by_batch[batch_id]), len(group_of)
        )
        if group == len(first):
            first.append(i)
        index[i] = group
    return InterfaceGroups(batch_ids=batch_ids, index=index, first=first)

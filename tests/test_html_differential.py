"""Differential tests: the one-walk HTML layer against reference versions.

The references below are the earlier implementations, kept here only:
a three-walk :func:`extract_features` (``iter_elements``, ``own_text`` per
element, recursive rendered text counted with ``\\S+``), a recursive
generator ``iter_elements``, a ``finditer`` attribute parser and a
``tokenize`` that always runs the comment and doctype substitutions.
"""

from __future__ import annotations

import re
import sys

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.html import extract_features, parse_html, tokenize
from repro.html.features import InterfaceFeatures
from repro.html.parser import (
    _ATTR_RE,
    _COMMENT_RE,
    _DOCTYPE_RE,
    _TAG_RE,
    VOID_ELEMENTS,
    Element,
    TextNode,
    _parse_attributes,
)
from tests.test_html_fuzz import markup_soup, tag_fragments

# --------------------------------------------------------------------- #
# Reference implementations
# --------------------------------------------------------------------- #

_EXAMPLE_RE = re.compile(r"^examples?(\s+\d+)?\s*:?\s*$", re.IGNORECASE)
_INSTRUCTIONS_RE = re.compile(r"instruction", re.IGNORECASE)
_WORD_RE = re.compile(r"\S+")
_NON_RENDERED_TAGS = frozenset({"script", "style", "head", "title"})


def _ref_iter_elements(element):
    yield element
    for child in element.children:
        if isinstance(child, Element):
            yield from _ref_iter_elements(child)


def _ref_rendered_text(element):
    if element.tag in _NON_RENDERED_TAGS:
        return ""
    parts = []
    for child in element.children:
        if isinstance(child, Element):
            parts.append(_ref_rendered_text(child))
        else:
            parts.append(child.text)
    return " ".join(parts)


def _ref_is_example_marker(element):
    own = element.own_text().strip()
    return bool(own) and _EXAMPLE_RE.match(own) is not None


def _ref_announces_instructions(element):
    if _INSTRUCTIONS_RE.search(element.attr("class")) or _INSTRUCTIONS_RE.search(
        element.attr("id")
    ):
        return True
    if element.tag in ("h1", "h2", "h3", "h4", "h5", "h6"):
        return _INSTRUCTIONS_RE.search(element.own_text()) is not None
    return False


def _ref_extract_features(html):
    root = parse_html(html) if isinstance(html, str) else html
    boxes = radio = checkbox = select = images = examples = 0
    has_instructions = False
    for element in _ref_iter_elements(root):
        tag = element.tag
        if tag == "textarea":
            boxes += 1
        elif tag == "input":
            input_type = element.attr("type", "text").lower()
            if input_type in ("text", "", "search", "email", "url"):
                boxes += 1
            elif input_type == "radio":
                radio += 1
            elif input_type == "checkbox":
                checkbox += 1
        elif tag == "select":
            select += 1
        elif tag == "img":
            images += 1
        if _ref_is_example_marker(element):
            examples += 1
        if not has_instructions and _ref_announces_instructions(element):
            has_instructions = True
    return InterfaceFeatures(
        num_words=len(_WORD_RE.findall(_ref_rendered_text(root))),
        num_text_boxes=boxes,
        num_examples=examples,
        num_images=images,
        num_radio_buttons=radio,
        num_checkboxes=checkbox,
        num_selects=select,
        num_input_fields=boxes + radio + checkbox + select,
        has_instructions=has_instructions,
    )


def _ref_parse_attributes(raw):
    attributes = {}
    for match in _ATTR_RE.finditer(raw):
        name = match.group(1).lower()
        value = match.group(2)
        if value is None:
            attributes[name] = ""
        elif value and value[0] in "\"'":
            attributes[name] = value[1:-1]
        else:
            attributes[name] = value
    return attributes


def _ref_tokenize(html):
    html = _COMMENT_RE.sub("", html)
    html = _DOCTYPE_RE.sub("", html)
    tokens = []
    pos = 0
    for match in _TAG_RE.finditer(html):
        if match.start() > pos:
            text = html[pos:match.start()]
            if text:
                tokens.append(("text", text))
        closing, tag, raw_attrs, self_closing = match.groups()
        tag = tag.lower()
        if closing:
            tokens.append(("close", tag, {}))
        elif self_closing or tag in VOID_ELEMENTS:
            tokens.append(("selfclose", tag, _ref_parse_attributes(raw_attrs)))
        else:
            tokens.append(("open", tag, _ref_parse_attributes(raw_attrs)))
        pos = match.end()
    if pos < len(html):
        tokens.append(("text", html[pos:]))
    return tokens


# --------------------------------------------------------------------- #
# Generators
# --------------------------------------------------------------------- #

# Structure that exercises every feature: non-rendered subtrees, headings,
# example markers, every input type, attribute forms, comments, doctypes,
# and whitespace beyond ASCII (no-break space, em space, separators).
_pieces = st.sampled_from(
    [
        "<div>", "</div>", "<p class='instructions'>", "</p>", "<h2>",
        "</h2>", "Instructions", "Read the task", "<script>", "</script>",
        "var x = 1;", "<style>", "</style>", "<head>", "</head>", "<title>",
        "A title", "</title>", "<b>", "</b>", "Example", "Examples 2:",
        "example", "<img src=a.png>", "<input type=text>", "<input>",
        "<input type='RADIO'>", "<input type=checkbox>", "<input type=email>",
        "<input type=search/>", "<select>", "</select>", "<textarea>",
        "</textarea>", "<span id=INSTRUCTION-box data-x=\"1\" hidden>",
        "</span>", "<!-- note <b>x</b> -->", "<!DOCTYPE html>", "<br/>",
        "word\xa0joined", "em\u2003space", "sep\x1cfile", "line\nbreak",
        "ideo\u3000graphic",
        "tab\tword", "   ", "</nomatch>", "<DIV CLASS=Instructions>",
    ]
)
structured = st.lists(_pieces, max_size=40).map("".join)


# --------------------------------------------------------------------- #
# Tests
# --------------------------------------------------------------------- #


class TestOneWalkFeatures:
    @given(st.one_of(markup_soup, tag_fragments, structured))
    @settings(max_examples=300, deadline=None)
    def test_matches_three_walk_reference(self, html):
        assert extract_features(html) == _ref_extract_features(html)
        root = parse_html(html)
        assert extract_features(root) == _ref_extract_features(root)

    def test_generated_interfaces_match_reference(self, released):
        for html in released.batch_html.values():
            assert extract_features(html) == _ref_extract_features(html)

    def test_non_rendered_root_counts_no_words(self):
        root = Element("script", children=[TextNode("a b c")])
        assert extract_features(root).num_words == 0
        assert _ref_extract_features(root).num_words == 0

    def test_str_split_and_regex_agree_on_whitespace(self):
        # Word counting per node relies on this equivalence.
        ws = re.compile(r"\s")
        for cp in range(sys.maxunicode + 1):
            ch = chr(cp)
            assert ch.isspace() == (ws.match(ch) is not None), hex(cp)


class TestParser:
    @given(st.one_of(markup_soup, tag_fragments, structured))
    @settings(max_examples=200, deadline=None)
    def test_iter_elements_preorder_matches_recursive(self, html):
        root = parse_html(html)
        assert [id(e) for e in root.iter_elements()] == [
            id(e) for e in _ref_iter_elements(root)
        ]

    @given(st.one_of(markup_soup, tag_fragments, structured))
    @settings(max_examples=200, deadline=None)
    def test_tokenize_matches_reference(self, html):
        assert tokenize(html) == _ref_tokenize(html)

    def test_tokenize_with_and_without_comments_and_doctype(self):
        cases = [
            "<p>plain</p>",
            "<!DOCTYPE html><p>doc</p>",
            "<!doctype HTML><p>lower</p>",
            "<p>a<!-- gone --></p>",
            "<!-- <p>hidden</p> --><p>shown</p>",
            "<p>1 <! 2</p>",
            "<<!---->!DOCTYPE x><p>t</p>",
            "<!<!---->-- twice --><p>t</p>",
            "text only",
            "",
        ]
        for html in cases:
            assert tokenize(html) == _ref_tokenize(html), html
        assert tokenize("<!-- x --><p>y</p>") == tokenize("<p>y</p>")
        assert tokenize("<!DOCTYPE html><p>y</p>") == tokenize("<p>y</p>")

    @given(
        st.text(
            alphabet=st.sampled_from(list("ab=\"' \t\n-:_.1/>X")), max_size=60
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_parse_attributes_matches_reference(self, raw):
        assert _parse_attributes(raw) == _ref_parse_attributes(raw)

    def test_parse_attributes_edge_cases(self):
        for raw in ["", " ", " \t\n", " a", " a=''", ' b=""', " c=d e",
                    " X=1 x=2", ' a="x y" b=\'z\'', " /"]:
            assert _parse_attributes(raw) == _ref_parse_attributes(raw), raw

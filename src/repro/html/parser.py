"""A small, forgiving HTML parser.

Supports the subset of HTML that task interfaces use: nested elements with
attributes, void elements (``<img>``, ``<input>``, ``<br>``...), comments,
and text.  Mismatched close tags are recovered from by popping up the open
stack (browser-style), so slightly malformed requester HTML still parses.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterator, Union

#: Elements that never have children and need no close tag.
VOID_ELEMENTS = frozenset(
    {"area", "base", "br", "col", "embed", "hr", "img", "input",
     "link", "meta", "param", "source", "track", "wbr"}
)

_TAG_RE = re.compile(r"<(/?)([a-zA-Z][a-zA-Z0-9-]*)((?:[^>\"']|\"[^\"]*\"|'[^']*')*?)(/?)>")
_ATTR_RE = re.compile(
    r"([a-zA-Z_:][-a-zA-Z0-9_:.]*)(?:\s*=\s*(\"[^\"]*\"|'[^']*'|[^\s\"'>]+))?"
)
_COMMENT_RE = re.compile(r"<!--.*?-->", re.DOTALL)
_DOCTYPE_RE = re.compile(r"<!DOCTYPE[^>]*>", re.IGNORECASE)


@dataclass
class TextNode:
    """A run of character data between tags."""

    text: str


@dataclass
class Element:
    """An HTML element with attributes and ordered children."""

    tag: str
    attributes: dict[str, str] = field(default_factory=dict)
    children: list[Union["Element", TextNode]] = field(default_factory=list)

    # ------------------------------------------------------------------ #

    def iter_elements(self) -> Iterator["Element"]:
        """Depth-first (pre-order) iteration over this element and all
        descendants, on an explicit stack rather than nested generators."""
        stack = [self]
        while stack:
            element = stack.pop()
            yield element
            stack.extend(
                child for child in reversed(element.children)
                if isinstance(child, Element)
            )

    def find_all(self, tag: str) -> list["Element"]:
        """All descendant elements (including self) with the given tag."""
        tag = tag.lower()
        return [e for e in self.iter_elements() if e.tag == tag]

    def text_content(self) -> str:
        """Concatenated text of all descendant text nodes."""
        parts: list[str] = []
        for child in self.children:
            if isinstance(child, TextNode):
                parts.append(child.text)
            else:
                parts.append(child.text_content())
        return "".join(parts)

    def own_text(self) -> str:
        """Text directly inside this element (not descendants)."""
        return "".join(c.text for c in self.children if isinstance(c, TextNode))

    def attr(self, name: str, default: str = "") -> str:
        return self.attributes.get(name.lower(), default)


def _parse_attributes(raw: str) -> dict[str, str]:
    if not raw or raw.isspace():
        return {}
    attributes: dict[str, str] = {}
    # An absent value comes back as "" (a present one is never empty).
    for name, value in _ATTR_RE.findall(raw):
        if value and value[0] in "\"'":
            value = value[1:-1]
        attributes[name.lower()] = value
    return attributes


Token = tuple  # (kind, payload) pairs; see tokenize()


def tokenize(html: str) -> list[Token]:
    """Lex HTML into ``("open"|"close"|"selfclose", tag, attrs)`` and
    ``("text", payload)`` tokens.  Comments and doctype are discarded."""
    if "<!" in html:  # both comments and doctypes open with "<!"
        html = _COMMENT_RE.sub("", html)
        html = _DOCTYPE_RE.sub("", html)
    tokens: list[Token] = []
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
            tokens.append(("selfclose", tag, _parse_attributes(raw_attrs)))
        else:
            tokens.append(("open", tag, _parse_attributes(raw_attrs)))
        pos = match.end()
    if pos < len(html):
        tail = html[pos:]
        if tail:
            tokens.append(("text", tail))
    return tokens


def parse_html(html: str) -> Element:
    """Parse HTML into a tree rooted at a synthetic ``<root>`` element.

    Recovery rules for malformed input: a close tag with no matching open is
    ignored; a close tag matching a non-top open element pops everything
    above it (implicitly closing unclosed children).
    """
    root = Element(tag="root")
    stack: list[Element] = [root]
    for token in tokenize(html):
        kind = token[0]
        if kind == "text":
            text = token[1]
            if text.strip():
                stack[-1].children.append(TextNode(text))
        elif kind == "selfclose":
            _, tag, attrs = token
            stack[-1].children.append(Element(tag=tag, attributes=attrs))
        elif kind == "open":
            _, tag, attrs = token
            element = Element(tag=tag, attributes=attrs)
            stack[-1].children.append(element)
            stack.append(element)
        else:  # close
            tag = token[1]
            for depth in range(len(stack) - 1, 0, -1):
                if stack[depth].tag == tag:
                    del stack[depth:]
                    break
            # No match: stray close tag, ignored.
    return root

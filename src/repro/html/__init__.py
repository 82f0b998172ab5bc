"""Minimal HTML tokenizer, DOM, and task-interface feature extraction.

The marketplace released one sample task interface (raw HTML) per batch; the
paper derives its §4 *design parameters* (``#words``, ``#text-box``,
``#examples``, ``#images``) from that source.  This subpackage implements the
parsing and extraction from scratch — no external HTML libraries exist in
this environment.
"""

from repro.html.features import (
    InterfaceFeatures,
    InterfaceGroups,
    extract_features,
    group_by_interface,
    interface_key,
    scan_interface,
)
from repro.html.parser import Element, TextNode, parse_html, tokenize

__all__ = [
    "Element",
    "InterfaceFeatures",
    "InterfaceGroups",
    "TextNode",
    "extract_features",
    "group_by_interface",
    "interface_key",
    "parse_html",
    "scan_interface",
    "tokenize",
]

"""Trace exporters: timing tree, JSON trace files, and summaries.

Three consumers, one span schema:

- :func:`render_tree` — the human-readable nested timing tree printed after
  a ``--trace`` CLI run;
- :func:`write_trace_json` — a stable JSON file (schema below) that
  ``repro trace`` reads back; phases are compared across runs with
  ``repro runs diff``;
- :func:`summarize_trace` — the per-span-name aggregate table behind the
  ``repro trace`` command.

JSON schema (one object per span, ``schema`` bumped on incompatible change)::

    {
      "schema": 1, "name": "repro report", "created_unix": ...,
      "total_wall_s": ..., "metrics": {"counters": ..., "gauges": ...,
      "histograms": ...},
      "spans": [
        {"index": 0, "parent": -1, "name": "cli.report", "start_s": 0.0,
         "wall_s": 1.23, "cpu_s": 1.10, "pid": 1234, "thread": "MainThread",
         "attrs": {"scale": "tiny"}, "mem_alloc_bytes": null,
         "mem_peak_bytes": null},
        ...
      ]
    }

``start_s`` is relative to the trace start; ``parent`` indexes into the
``spans`` list (-1 for roots).  Spans folded back from worker processes
keep their worker ``pid``, so parallel sections are attributable.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path
from typing import Any, Mapping

from repro.obs import metrics
from repro.obs.trace import Trace

#: Bump when the JSON span schema changes incompatibly.
TRACE_SCHEMA_VERSION = 1

#: Sibling spans with the same name and no children collapse into one
#: aggregate tree line once there are at least this many of them.
_COLLAPSE_AT = 3


def trace_to_dict(trace: Trace) -> dict[str, Any]:
    """The trace plus a metrics snapshot as one JSON-able document."""
    spans = []
    for record in trace.spans:
        spans.append(
            {
                "index": record.index,
                "parent": record.parent,
                "name": record.name,
                "start_s": round(record.t0 - trace.t0, 6),
                "wall_s": round(record.wall_s, 6),
                "cpu_s": round(record.cpu_s, 6),
                "pid": record.pid,
                "thread": record.thread,
                "attrs": record.attrs,
                "mem_alloc_bytes": record.mem_alloc_bytes,
                "mem_peak_bytes": record.mem_peak_bytes,
            }
        )
    return {
        "schema": TRACE_SCHEMA_VERSION,
        "name": trace.name,
        "created_unix": trace.created_unix,
        "total_wall_s": round(trace.total_wall_s, 6),
        "metrics": metrics.snapshot(),
        "spans": spans,
    }


def write_trace_json(trace: Trace | Mapping[str, Any], path: str | Path) -> Path:
    """Write the trace document to ``path``; returns the resolved path."""
    doc = trace if isinstance(trace, Mapping) else trace_to_dict(trace)
    out = Path(path)
    if out.parent != Path(""):
        out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(doc, indent=1, default=str) + "\n")
    return out


def load_trace(path: str | Path) -> dict[str, Any]:
    """Read a trace document written by :func:`write_trace_json`."""
    doc = json.loads(Path(path).read_text())
    if not isinstance(doc, dict) or "spans" not in doc:
        raise ValueError(f"{path}: not a repro trace file (no 'spans' key)")
    if doc.get("schema") != TRACE_SCHEMA_VERSION:
        raise ValueError(
            f"{path}: trace schema {doc.get('schema')!r} is not "
            f"{TRACE_SCHEMA_VERSION}"
        )
    return doc


def _as_doc(trace: Trace | Mapping[str, Any]) -> Mapping[str, Any]:
    return trace if isinstance(trace, Mapping) else trace_to_dict(trace)


def _fmt_ms(seconds: float) -> str:
    return f"{seconds * 1e3:10.1f} ms"


def _fmt_attrs(attrs: Mapping[str, Any]) -> str:
    if not attrs:
        return ""
    return "  " + " ".join(f"{k}={v}" for k, v in attrs.items())


def render_tree(trace: Trace | Mapping[str, Any]) -> str:
    """The nested timing tree, one line per span (or aggregate of spans).

    Childless sibling spans sharing a name (per-chunk worker spans, repeated
    figure calls) collapse into one ``name xN`` aggregate line so wide
    fan-outs stay readable.
    """
    doc = _as_doc(trace)
    spans = doc["spans"]
    children: dict[int, list[int]] = defaultdict(list)
    for record in spans:
        children[record["parent"]].append(record["index"])

    lines = [
        f"trace {doc.get('name', '?')!r}: {len(spans)} spans, "
        f"total {doc.get('total_wall_s', 0.0):.3f}s"
    ]

    def emit(index: int, depth: int) -> None:
        record = spans[index]
        indent = "  " * depth
        mem = ""
        if record.get("mem_peak_bytes") is not None:
            mem = (
                f"  alloc {record['mem_alloc_bytes'] / 1e6:+.1f} MB"
                f" peak {record['mem_peak_bytes'] / 1e6:.1f} MB"
            )
        lines.append(
            f"{indent}{record['name']:<{max(44 - 2 * depth, 8)}}"
            f"{_fmt_ms(record['wall_s'])}  cpu {_fmt_ms(record['cpu_s'])}"
            f"{mem}{_fmt_attrs(record.get('attrs', {}))}"
        )
        kids = children.get(index, [])
        groups: dict[str, list[int]] = defaultdict(list)
        for kid in kids:
            groups[spans[kid]["name"]].append(kid)
        for kid in kids:
            name = spans[kid]["name"]
            group = groups[name]
            collapsible = len(group) >= _COLLAPSE_AT and all(
                g not in children for g in group
            )
            if not collapsible:
                emit(kid, depth + 1)
                continue
            if kid != group[0]:
                continue  # aggregate emitted with the first sibling
            walls = [spans[g]["wall_s"] for g in group]
            pids = {spans[g]["pid"] for g in group}
            pid_note = f" pids={len(pids)}" if len(pids) > 1 else ""
            lines.append(
                f"{'  ' * (depth + 1)}{name} x{len(group):<4}"
                f"{' ' * max(38 - 2 * (depth + 1) - len(name) - 1, 1)}"
                f"{_fmt_ms(sum(walls))}  "
                f"avg {_fmt_ms(sum(walls) / len(walls))}  "
                f"max {_fmt_ms(max(walls))}{pid_note}"
            )

    for record in spans:
        if record["parent"] < 0:
            emit(record["index"], 0)
    return "\n".join(lines)


def summarize_trace(trace: Trace | Mapping[str, Any], *, top: int = 30) -> str:
    """Aggregate table: per span name, count / total / mean wall and CPU."""
    doc = _as_doc(trace)
    totals = aggregate_by_name(doc)
    total_wall = doc.get("total_wall_s") or max(
        (sum(v["wall_s"] for v in totals.values()), 1e-12)
    )
    lines = [
        f"{'span':<36} {'count':>6} {'total':>12} {'mean':>12} "
        f"{'cpu':>12} {'share':>7}"
    ]
    ranked = sorted(totals.items(), key=lambda kv: -kv[1]["wall_s"])
    for name, agg in ranked[:top]:
        lines.append(
            f"{name:<36} {agg['count']:>6}"
            f" {_fmt_ms(agg['wall_s'])} {_fmt_ms(agg['wall_s'] / agg['count'])}"
            f" {_fmt_ms(agg['cpu_s'])} {agg['wall_s'] / total_wall:>6.1%}"
        )
    if len(ranked) > top:
        lines.append(f"... {len(ranked) - top} more span names")
    return "\n".join(lines)


def summarize_histograms(trace: Trace | Mapping[str, Any]) -> str:
    """Per-histogram one-liners (count / mean / p50-ish bucket) from the
    embedded metrics snapshot; empty string when nothing was observed."""
    doc = _as_doc(trace)
    hists = (doc.get("metrics") or {}).get("histograms") or {}
    lines: list[str] = []
    for name in sorted(hists):
        snap = hists[name]
        count = snap.get("count", 0)
        if not count:
            continue
        mean = snap.get("sum", 0.0) / count
        half = count / 2
        p50 = "+Inf"
        for bucket in snap.get("buckets", []):
            if bucket["count"] >= half:
                p50 = bucket["le"]
                break
        p50_s = p50 if isinstance(p50, str) else f"{p50:g}s"
        lines.append(
            f"{name:<36} {count:>6} {_fmt_ms(mean)} mean   p50 <= {p50_s}"
        )
    if not lines:
        return ""
    header = f"{'histogram':<36} {'count':>6} {'per-observation':>16}"
    return "\n".join([header, *lines])


def aggregate_by_name(
    trace: Trace | Mapping[str, Any]
) -> dict[str, dict[str, float]]:
    """Per-span-name totals: ``{name: {count, wall_s, cpu_s}}``."""
    doc = _as_doc(trace)
    totals: dict[str, dict[str, float]] = {}
    for record in doc["spans"]:
        agg = totals.setdefault(
            record["name"], {"count": 0, "wall_s": 0.0, "cpu_s": 0.0}
        )
        agg["count"] += 1
        agg["wall_s"] += record["wall_s"]
        agg["cpu_s"] += record["cpu_s"]
    return totals

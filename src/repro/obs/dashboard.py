"""Self-contained HTML dashboard over the run ledger (``repro runs report``).

One static HTML file, no external assets: charts are inline SVG built with
the same :mod:`repro.reporting.svg` substrate the paper figures use, so the
dashboard needs nothing but a browser.  Sections:

- **Runs** — every ledger record: id, kind/command, config, git SHA, wall.
- **Phase timings** — per comparability group, a line chart of each major
  phase's wall time across runs (regressions are visible as upticks).
- **Counter trends** — selected counters (cache traffic, serial fallbacks,
  injected faults) across runs.
- **Utilization timeline** — the latest run's per-worker busy intervals as
  Gantt lanes (one lane per pid, one bar per shard build / chunk), plus a
  resource line chart (RSS, spill bytes over time) when the run was
  sampled with ``--sample`` (see :mod:`repro.obs.sampler`).
- **Fidelity** — the latest run's paper-vs-measured probe table.
- **Drift** — the findings of :func:`repro.obs.drift.check_drift`, i.e.
  exactly what ``repro runs check`` would fail on.

Groups with fewer than two runs get a table row but no chart (a one-point
polyline is not a trend).
"""

from __future__ import annotations

import html
import time
from pathlib import Path
from typing import Any

from repro.obs import drift as drift_mod

#: At most this many phases charted per group (largest by latest wall time).
_MAX_PHASES = 8
#: Counters worth trending (prefix match).
_TREND_COUNTERS = (
    "cache.hit", "cache.miss", "cache.corrupt", "cache.write_failed",
    "parallel.serial_fallback", "parallel.timeout", "faults.injected",
    "ledger.corrupt",
)


def _esc(value: Any) -> str:
    return html.escape(str(value))


def _chart(
    title: str, series: dict[str, tuple[list[float], list[float]]],
    *, y_label: str, x_label: str = "run #",
) -> str:
    from repro.reporting.svg import PALETTE, SvgChart

    plotted = {k: v for k, v in series.items() if len(v[0]) >= 2}
    if not plotted:
        return ""
    all_x = [x for xs, _ in plotted.values() for x in xs]
    all_y = [y for _, ys in plotted.values() for y in ys]
    chart = SvgChart(
        title=title, width=560, height=240,
        x_min=min(all_x), x_max=max(all_x),
        y_min=0.0, y_max=(max(all_y) or 1.0) * 1.05,
        x_label=x_label, y_label=y_label,
    )
    for i, (label, (xs, ys)) in enumerate(sorted(plotted.items())):
        chart.add_line(xs, ys, color=PALETTE[i % len(PALETTE)], label=label)
    return chart.render()


def _runs_table(records: list[dict[str, Any]]) -> str:
    rows = [
        "<tr><th>#</th><th>run id</th><th>kind</th><th>command</th>"
        "<th>scale</th><th>seed</th><th>faults</th><th>git</th>"
        "<th>wall (s)</th><th>cache</th></tr>"
    ]
    for i, record in enumerate(records):
        config = record.get("config") or {}
        cache = record.get("cache") or {}
        rows.append(
            "<tr>"
            f"<td>{i}</td>"
            f"<td><code>{_esc(record.get('run_id'))}</code></td>"
            f"<td>{_esc(record.get('kind'))}</td>"
            f"<td>{_esc(record.get('command'))}</td>"
            f"<td>{_esc(config.get('scale', '-'))}</td>"
            f"<td>{_esc(config.get('seed', '-'))}</td>"
            f"<td>{_esc(config.get('faults') or '-')}</td>"
            f"<td><code>{_esc(record.get('git_sha') or '-')}</code></td>"
            f"<td>{record.get('total_wall_s', 0.0):.3f}</td>"
            f"<td>{cache.get('entries', 0)} entries</td>"
            "</tr>"
        )
    return f"<table>{''.join(rows)}</table>"


def _phase_section(groups: dict[tuple, list[dict[str, Any]]]) -> str:
    parts: list[str] = []
    for group in groups.values():
        label = drift_mod.group_label(group[-1])
        latest_phases = group[-1].get("phases") or {}
        top = sorted(
            latest_phases,
            key=lambda name: -latest_phases[name].get("wall_s", 0.0),
        )[:_MAX_PHASES]
        series: dict[str, tuple[list[float], list[float]]] = {}
        for phase in top:
            xs, ys = [], []
            for i, record in enumerate(group):
                agg = (record.get("phases") or {}).get(phase)
                if agg is not None:
                    xs.append(float(i))
                    ys.append(float(agg.get("wall_s", 0.0)))
            series[phase] = (xs, ys)
        svg = _chart(label, series, y_label="wall (s)")
        if svg:
            parts.append(f"<div class='chart'>{svg}</div>")
        else:
            parts.append(
                f"<p class='note'>{_esc(label)}: {len(group)} run(s) — "
                f"need at least two comparable runs to chart a trend.</p>"
            )
    return "".join(parts) or "<p class='note'>no runs recorded yet.</p>"


def _counter_section(records: list[dict[str, Any]]) -> str:
    series: dict[str, tuple[list[float], list[float]]] = {}
    for name in _TREND_COUNTERS:
        xs, ys = [], []
        for i, record in enumerate(records):
            value = (record.get("counters") or {}).get(name)
            if value is not None:
                xs.append(float(i))
                ys.append(float(value))
        if xs:
            series[name] = (xs, ys)
    svg = _chart("counters across runs", series, y_label="count")
    return f"<div class='chart'>{svg}</div>" if svg else (
        "<p class='note'>no counter trends yet (counters chart after two "
        "runs record the same counter).</p>"
    )


def _gantt(label: str, util: dict[str, Any]) -> str:
    """Per-worker busy-interval lanes as one SVG (empty when no intervals)."""
    from repro.reporting.svg import PALETTE, SvgChart

    lanes = [w for w in (util.get("workers") or []) if w.get("intervals")]
    if not lanes:
        return ""
    span_end = max(
        float(iv["end_s"]) for w in lanes for iv in w["intervals"]
    )
    if span_end <= 0:
        return ""
    num = len(lanes)
    chart = SvgChart(
        title=f"{label} — utilization {util.get('value', 0.0):.0%}",
        width=560, height=96 + 26 * num,
        x_min=0.0, x_max=span_end, y_min=0.0, y_max=float(num),
        x_label="seconds since first interval", y_label="worker",
    )
    f = chart.frame
    for lane, worker in enumerate(lanes):
        color = PALETTE[lane % len(PALETTE)]
        # Lane 0 at the top: band between y = num-lane-0.85 and num-lane-0.15.
        y_top = f._ty(num - lane - 0.15)
        y_bottom = f._ty(num - lane - 0.85)
        for iv in worker["intervals"]:
            x0 = f._tx(float(iv["start_s"]))
            x1 = f._tx(float(iv["end_s"]))
            chart._body.append(
                f'<rect x="{x0:.1f}" y="{y_top:.1f}" '
                f'width="{max(x1 - x0, 1.0):.1f}" '
                f'height="{y_bottom - y_top:.1f}" '
                f'fill="{color}" fill-opacity="0.8"/>'
            )
        if lane < 8:
            chart._legend.append((
                f"pid {worker.get('pid')} "
                f"({worker.get('busy_s', 0.0):.2f}s busy)",
                color,
            ))
    return chart.render()


def _resource_chart(record: dict[str, Any]) -> str:
    """RSS / spill sample series of one run's sampler timeline."""
    samples = (record.get("timeline") or {}).get("samples") or []
    if len(samples) < 2:
        return ""
    xs = [float(s.get("t_s", 0.0)) for s in samples]
    series = {
        "rss_mb": (xs, [float(s.get("rss_mb", 0.0)) for s in samples]),
        "spill_mb": (xs, [float(s.get("spill_mb", 0.0)) for s in samples]),
    }
    return _chart(
        "resource samples", series, y_label="MB", x_label="seconds",
    )


def _utilization_section(records: list[dict[str, Any]]) -> str:
    latest = next(
        (
            r for r in reversed(records)
            if (r.get("utilization") or {}).get("workers")
        ),
        None,
    )
    if latest is None:
        return (
            "<p class='note'>no worker intervals recorded yet (run a study "
            "command; add <code>--sample</code> for resource samples).</p>"
        )
    note = (
        f"<p class='note'>latest run with worker intervals: "
        f"<code>{_esc(latest.get('run_id'))}</code>"
    )
    peak = latest.get("peak_rss_mb")
    if peak:
        note += f", peak RSS {float(peak):.0f} MB"
    note += "</p>"
    parts = [note]
    svg = _gantt(drift_mod.group_label(latest), latest["utilization"])
    if svg:
        parts.append(f"<div class='chart'>{svg}</div>")
    resources = _resource_chart(latest)
    if resources:
        parts.append(f"<div class='chart'>{resources}</div>")
    return "".join(parts)


def _fidelity_section(records: list[dict[str, Any]]) -> str:
    latest = next(
        (r for r in reversed(records) if r.get("fidelity")), None
    )
    if latest is None:
        return "<p class='note'>no fidelity probes recorded yet.</p>"
    rows = [
        "<tr><th>probe</th><th>paper</th><th>measured</th>"
        "<th>deviation</th></tr>"
    ]
    for name, probe in sorted(latest["fidelity"].items()):
        rows.append(
            "<tr>"
            f"<td>{_esc(name)}</td>"
            f"<td>{probe.get('paper'):g}</td>"
            f"<td>{probe.get('measured'):.4g}</td>"
            f"<td>{probe.get('deviation'):.3f}</td>"
            "</tr>"
        )
    return (
        f"<p class='note'>latest probed run: "
        f"<code>{_esc(latest.get('run_id'))}</code></p>"
        f"<table>{''.join(rows)}</table>"
    )


def _drift_section(records: list[dict[str, Any]]) -> str:
    findings = drift_mod.check_drift(records)
    if not findings:
        return (
            "<p class='ok'>no drift: every group's latest run is within "
            "tolerance of its rolling baseline.</p>"
        )
    rows = [
        "<tr><th>kind</th><th>group</th><th>subject</th>"
        "<th>baseline</th><th>latest</th><th>run</th></tr>"
    ]
    for f in findings:
        rows.append(
            "<tr class='bad'>"
            f"<td>{_esc(f.kind)}</td><td>{_esc(f.group)}</td>"
            f"<td>{_esc(f.subject)}</td><td>{f.baseline:.4g}</td>"
            f"<td>{f.latest:.4g}</td>"
            f"<td><code>{_esc(f.run_id)}</code></td></tr>"
        )
    return f"<table>{''.join(rows)}</table>"


# Injected only when the dashboard is served by repro.obs.live: a live
# panel that streams /events into a rolling log, polls /metrics into a
# <pre>, and shows connection state — so a medium/xlarge build can be
# watched from a browser while it runs.  Static dashboards (repro runs
# report) carry none of this.
_LIVE_PANEL = """
<h2>Live</h2>
<p class='note'>status: <span id='live-status'>connecting…</span>
— event log (newest first, capped at 200) and a /metrics scrape every 2s.
Reload the page to refresh the ledger sections below.</p>
<ul id='live-events' class='live-events'></ul>
<pre id='live-metrics' class='live-metrics'>(waiting for /metrics…)</pre>
<script>
(function () {
  var status = document.getElementById('live-status');
  var list = document.getElementById('live-events');
  var pre = document.getElementById('live-metrics');
  var source = new EventSource('/events');
  source.onopen = function () { status.textContent = 'connected'; };
  source.onerror = function () { status.textContent = 'disconnected'; };
  function append(kind, data) {
    var item = document.createElement('li');
    item.textContent = kind + ' ' + data;
    list.insertBefore(item, list.firstChild);
    while (list.childNodes.length > 200) list.removeChild(list.lastChild);
  }
  ['span.open', 'span.close', 'sampler.tick', 'chunk.dispatch',
   'chunk.complete', 'shard.progress', 'run.recorded'].forEach(
    function (kind) {
      source.addEventListener(kind, function (e) { append(kind, e.data); });
    });
  function poll() {
    fetch('/metrics').then(function (r) { return r.text(); })
      .then(function (text) { pre.textContent = text; })
      .catch(function () {});
  }
  poll();
  setInterval(poll, 2000);
})();
</script>
"""

_LIVE_STYLE = """
.live-events { font-family: monospace; font-size: 0.8em; max-height: 16em;
               overflow-y: auto; border: 1px solid #ddd; padding: 0.5em;
               list-style: none; margin: 0.5em 0; }
.live-metrics { font-size: 0.75em; max-height: 16em; overflow-y: auto;
                border: 1px solid #ddd; padding: 0.5em; }
"""

_STYLE = """
body { font-family: system-ui, sans-serif; margin: 2em auto; max-width: 70em;
       color: #222; }
h1 { font-size: 1.4em; } h2 { font-size: 1.1em; margin-top: 2em;
     border-bottom: 1px solid #ddd; padding-bottom: 0.2em; }
table { border-collapse: collapse; font-size: 0.85em; }
th, td { border: 1px solid #ddd; padding: 0.3em 0.6em; text-align: left; }
th { background: #f5f5f5; }
tr.bad td { background: #fdecea; }
.chart { margin: 1em 0; }
.note { color: #666; font-size: 0.9em; }
.ok { color: #1a7f37; }
code { font-size: 0.95em; }
"""


def render_dashboard(records: list[dict[str, Any]], *, live: bool = False) -> str:
    """The full dashboard document for a list of ledger records.

    With ``live=True`` (the ``/`` endpoint of :mod:`repro.obs.live`) the
    page gains a panel that auto-refreshes from ``/events`` and
    ``/metrics``; the static file written by ``repro runs report`` never
    includes it.
    """
    stamp = time.strftime("%Y-%m-%d %H:%M:%S UTC", time.gmtime())
    groups = drift_mod.group_records(records)
    style = _STYLE + (_LIVE_STYLE if live else "")
    return (
        "<!doctype html>\n<html><head><meta charset='utf-8'>"
        "<title>repro run ledger</title>"
        f"<style>{style}</style></head><body>"
        f"<h1>repro run ledger</h1>"
        f"<p class='note'>{len(records)} run(s), {len(groups)} group(s); "
        f"generated {stamp}.</p>"
        f"{_LIVE_PANEL if live else ''}"
        f"<h2>Drift</h2>{_drift_section(records)}"
        f"<h2>Runs</h2>{_runs_table(records)}"
        f"<h2>Phase timings</h2>{_phase_section(groups)}"
        f"<h2>Counter trends</h2>{_counter_section(records)}"
        f"<h2>Utilization timeline</h2>{_utilization_section(records)}"
        f"<h2>Fidelity (paper vs measured)</h2>{_fidelity_section(records)}"
        "</body></html>\n"
    )


def write_dashboard(
    records: list[dict[str, Any]], path: str | Path
) -> Path:
    """Render and write the dashboard; returns the resolved path."""
    out = Path(path)
    if out.parent != Path(""):
        out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(render_dashboard(records))
    return out

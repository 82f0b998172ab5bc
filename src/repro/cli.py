"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``simulate``
    Build a study and export the released dataset to a directory
    (CSV + HTML files, loadable with :func:`repro.dataset.load_dataset`).
``report``
    Build a study and print the headline findings of every paper section.
``abtest``
    Run a task-design A/B experiment on the simulator (vary one feature).
``learning``
    Estimate the within-batch worker learning curve.
``plan``
    Build a study and run a representative lazy query under
    ``explain(analyze=True)`` — the annotated operator tree plus a
    ranked operator-hotspot listing (see :mod:`repro.tables.plan`).
``trace``
    Summarize a JSON trace file written by a ``--trace`` run
    (``--json --top N`` adds a ``plan.op.*`` operator-hotspot listing).
``runs``
    Inspect the persistent run ledger (``list``/``show``/``diff``/
    ``check``/``report``); ``check`` exits nonzero on perf, fidelity,
    or peak-RSS drift (see :mod:`repro.obs.drift`).
``serve``
    Serve live telemetry over HTTP — ``/metrics`` (Prometheus text),
    ``/events`` (SSE), ``/runs``, and the auto-refreshing dashboard at
    ``/`` (see :mod:`repro.obs.live`).  Every study command also accepts
    ``--live [PORT]`` to serve the same endpoints while it builds,
    without changing a byte of its stdout.  ``--ingest`` adds the
    incremental data plane (:mod:`repro.service`): ``POST /ingest``
    folds schema-versioned micro-batches into standing tables, and
    ``GET /tables|/figures|/fidelity`` serve the study byte-identically
    to a one-shot batch build, with ETag-cached responses.

Every study-building command accepts ``--trace`` (or ``REPRO_TRACE=1``):
the run records a hierarchical span trace (see :mod:`repro.obs`), prints
the timing tree afterwards, and writes a JSON trace file for later
``repro trace`` consumption; ``repro runs diff`` compares the phases of
recorded runs.

They also accept ``--faults SPEC`` (or ``REPRO_FAULTS``): deterministic
fault injection into the cache/pool/dataset failure paths (see
:mod:`repro.faults`) — a faulted run must still produce the identical
study, or fail loudly.

Independently of ``--trace``, every study-building command appends a run
record to the ledger (:mod:`repro.obs.ledger`) — silently, so command
output stays byte-stable — unless ``REPRO_NO_LEDGER`` is set.  The record
always carries the process peak RSS; with ``--sample MS`` (or
``REPRO_SAMPLE_MS``) a background sampler (:mod:`repro.obs.sampler`) adds
a continuous resource timeline and per-worker utilization intervals,
still without changing a byte of command output.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

SCALES = ("tiny", "small", "medium", "large", "xlarge")

#: Commands that build a study and therefore record a ledger run.
_STUDY_COMMANDS = frozenset(
    {"simulate", "report", "learning", "figures", "validate", "workload",
     "plan"}
)

#: Default JSON trace path for ``--trace`` runs without ``--trace-out``.
DEFAULT_TRACE_OUT = "repro_trace.json"


def _package_version() -> str:
    """The installed package version, falling back to the source tree's."""
    try:
        from importlib.metadata import version

        return version("repro")
    except Exception:
        import repro

        return getattr(repro, "__version__", "unknown")


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scale", choices=SCALES, default="tiny",
        help="simulation scale preset (default: tiny)",
    )
    parser.add_argument(
        "--seed", type=int, default=7, help="simulation seed (default: 7)"
    )
    parser.add_argument(
        "--shards", type=int, default=None, metavar="N",
        help="build the study over N batch-partitioned shards "
        "(memory-bounded, byte-identical; see repro.shard; "
        "also REPRO_SHARDS)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="bypass the on-disk study cache (see repro.cache)",
    )
    parser.add_argument(
        "--trace", action="store_true",
        help="record a span trace; print the timing tree and write a JSON "
        "trace file afterwards (also enabled by REPRO_TRACE=1)",
    )
    parser.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help=f"where --trace writes the JSON trace "
        f"(default: {DEFAULT_TRACE_OUT})",
    )
    parser.add_argument(
        "--trace-mem", action="store_true",
        help="add tracemalloc allocation/peak numbers to every span "
        "(implies the cost of tracemalloc; also REPRO_TRACE_MEM=1)",
    )
    parser.add_argument(
        "--faults", default=None, metavar="SPEC",
        help="inject deterministic faults, e.g. "
        "'cache.write:fail@2,pool.spawn:fail' (see repro.faults; "
        "also REPRO_FAULTS)",
    )
    parser.add_argument(
        "--sample", nargs="?", const=50.0, type=float, default=None,
        metavar="MS",
        help="sample RSS/CPU/fds/spill every MS milliseconds into the run "
        "record's resource timeline (default interval 50; also "
        "REPRO_SAMPLE_MS; output stays byte-identical)",
    )
    parser.add_argument(
        "--live", nargs="?", const=0, type=int, default=None,
        metavar="PORT",
        help="serve live telemetry (/metrics, /events, dashboard) on "
        "localhost:PORT while the command runs (bare --live picks a free "
        "port; the URL goes to stderr, stdout stays byte-identical)",
    )


def _cache_arg(args: argparse.Namespace) -> bool | None:
    # Only --no-cache is an explicit choice; leaving it off defers to the
    # REPRO_NO_CACHE environment variable (repro.cache.cache_enabled).
    return False if args.no_cache else None


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro import build_study
    from repro.dataset import save_dataset

    study = build_study(
        args.scale, seed=args.seed, cache=_cache_arg(args), shards=args.shards
    )
    path = save_dataset(study.released, args.out)
    print(
        f"wrote {study.released.instances.num_rows:,} instances across "
        f"{study.released.num_sampled_batches:,} sampled batches to {path}"
    )
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro import build_study
    from repro.reporting import (
        format_count,
        format_seconds,
        render_comparison_rows,
    )

    study = build_study(
        args.scale, seed=args.seed, cache=_cache_arg(args), shards=args.shards
    )
    figures = study.figures

    load = figures.headline_load_variation()
    print("== Section 3: marketplace dynamics ==")
    print(
        f"median daily load {format_count(load['median_daily_instances'])}; "
        f"busiest {load['busiest_over_median']:.0f}x median; "
        f"lightest {load['lightest_over_median']:.2g}x"
    )
    weekday = figures.fig03_weekday()
    print(f"weekday/weekend load ratio {weekday['weekday_weekend_ratio']:.2f}")

    print("\n== Section 4: task design ==")
    latency = figures.fig13_latency()
    print(
        f"median pickup {format_seconds(latency['median_pickup'])} vs task "
        f"time {format_seconds(latency['median_task_time'])} "
        f"({latency['pickup_dominance_ratio']:.0f}x)"
    )
    for metric, title in (
        ("disagreement", "Table 1 (disagreement)"),
        ("task_time", "Table 2 (task time)"),
        ("pickup_time", "Table 3 (pickup time)"),
    ):
        rows = figures.tables_123()[metric]
        print(f"\n{title}:")
        print(render_comparison_rows(rows) if rows else "(none significant)")

    print("\n== Section 5: workers ==")
    lifetimes = figures.fig30_lifetimes()
    workload = figures.fig29_workload()
    geo = figures.fig28_geography()
    print(
        f"one-day workers {lifetimes['one_day_worker_fraction']:.0%} "
        f"(task share {lifetimes['one_day_task_share']:.1%}); "
        f"top-10% of workers do {workload['top10_task_share']:.0%} of tasks; "
        f"{geo['num_countries']} countries, top-5 share {geo['top5_share']:.0%}"
    )
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    """EXPLAIN ANALYZE a representative study query (``repro plan``)."""
    from repro import build_study
    from repro.tables import col, profile_hotspots

    study = build_study(
        args.scale, seed=args.seed, cache=_cache_arg(args), shards=args.shards
    )
    # The §4 batch rollup: two filters + group_by + sort + head, so every
    # major operator shows up in the profile.
    frame = (
        study.enriched.batch_table.lazy()
        .filter(col("num_instances") > 0)
        .filter(col("num_words") > 0)
        .group_by("cluster_id")
        .agg({
            "num_batches": ("batch_id", "count"),
            "num_instances": ("num_instances", "sum"),
        })
        .sort_by("num_instances", descending=True)
        .head(args.rows)
    )
    print(frame.explain(analyze=True))
    hotspots = profile_hotspots(frame.profile(), top=args.top)
    print()
    print(f"top {len(hotspots)} operators by wall time:")
    for prof in hotspots:
        print(
            f"  {prof.op:<14} {prof.wall_s * 1e3:>9.3f}ms "
            f"rows_out={prof.rows_out:,}  {prof.detail}"
        )
    return 0


def _cmd_abtest(args: argparse.Namespace) -> int:
    from repro.abtest import TaskDesign, run_ab_test

    base = TaskDesign()
    if not hasattr(base, args.feature):
        print(f"unknown design feature {args.feature!r}", file=sys.stderr)
        return 2
    variant = base.varied(**{args.feature: args.value})
    result = run_ab_test(
        base, variant, num_batches=args.batches, seed=args.seed
    )
    print(
        f"A = default design; B = default with {args.feature}={args.value}"
    )
    print(result.summary())
    return 0


def _cmd_workload(args: argparse.Namespace) -> int:
    from repro import build_study
    from repro.workloads import derive_workload

    study = build_study(
        args.scale, seed=args.seed, cache=_cache_arg(args), shards=args.shards
    )
    spec = derive_workload(study.enriched, min_support=args.min_support)
    if args.out:
        spec.save(args.out)
        print(f"wrote {spec.num_archetypes} archetypes to {args.out}")
    else:
        print(spec.to_json())
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    from repro import build_study
    from repro.validation import validate_study

    study = build_study(
        args.scale, seed=args.seed, cache=_cache_arg(args), shards=args.shards
    )
    report = validate_study(study)
    print(report.render())
    return 0 if report.ok else 1


def _cmd_figures(args: argparse.Namespace) -> int:
    from repro import build_study
    from repro.figures.render_svg import render_all_figures

    study = build_study(
        args.scale, seed=args.seed, cache=_cache_arg(args), shards=args.shards
    )
    paths = render_all_figures(study.figures, args.out)
    print(f"wrote {len(paths)} SVG figures to {args.out}")
    return 0


def _scale_name(config: dict) -> str:
    """Best-effort preset name for a cached config (else ``custom``)."""
    from repro.simulator.config import _PRESETS

    for name, preset in _PRESETS.items():
        if all(config.get(field) == value for field, value in preset.items()):
            return name
    return "custom"


def _cmd_cache(args: argparse.Namespace) -> int:
    from repro import cache as study_cache, obs

    if args.clear:
        removed = study_cache.clear_cache()
        if args.json:
            print(json.dumps({
                "cache_dir": str(study_cache.cache_dir()),
                "removed": removed,
            }))
        else:
            print(
                f"removed {removed} cache entries from "
                f"{study_cache.cache_dir()}"
            )
        return 0
    entries = study_cache.list_entries()
    total_bytes = sum(entry.get("size_bytes", 0) for entry in entries)
    total_instances = sum(entry.get("num_instances", 0) for entry in entries)
    obs.gauge("cache.entries").set(len(entries))
    obs.gauge("cache.size_bytes").set(total_bytes)
    if args.json:
        print(json.dumps({
            "cache_dir": str(study_cache.cache_dir()),
            "num_entries": len(entries),
            "total_bytes": total_bytes,
            "total_instances": total_instances,
            "entries": [
                {
                    "key": entry.get("key"),
                    "scale": _scale_name(entry.get("config", {})),
                    "seed": entry.get("config", {}).get("seed"),
                    "num_instances": entry.get("num_instances"),
                    "size_bytes": entry.get("size_bytes", 0),
                    "path": entry.get("path"),
                }
                for entry in entries
            ],
            "session_counters": obs.nonzero_counters("cache."),
        }, indent=1))
        return 0
    print(
        f"cache dir: {study_cache.cache_dir()} "
        f"({len(entries)} entries, {total_bytes / 1e6:.1f} MB, "
        f"{total_instances:,} instances)"
    )
    for entry in entries:
        config = entry.get("config", {})
        print(
            f"  {entry['key'][:16]}  scale={_scale_name(config)} "
            f"seed={config.get('seed')} "
            f"tasks={config.get('num_distinct_tasks')} "
            f"instances={entry.get('num_instances'):,} "
            f"({entry.get('size_bytes', 0) / 1e6:.1f} MB)"
        )
    session = obs.nonzero_counters("cache.")
    if session:
        traffic = " ".join(f"{k.split('.', 1)[1]}={v}" for k, v in session.items())
        print(f"this process: {traffic}")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro import obs

    try:
        doc = obs.load_trace(args.path)
    except (OSError, ValueError) as exc:
        print(f"cannot read trace: {exc}", file=sys.stderr)
        return 2
    metrics = doc.get("metrics", {})
    if args.json:
        by_name = obs.aggregate_by_name(doc)
        top_ops = sorted(
            (
                {"op": name.removeprefix("plan.op."), **agg}
                for name, agg in by_name.items()
                if name.startswith("plan.op.")
            ),
            key=lambda entry: -entry.get("wall_s", 0.0),
        )[:args.top]
        print(json.dumps({
            "schema": doc.get("schema"),
            "name": doc.get("name"),
            "created_unix": doc.get("created_unix"),
            "total_wall_s": doc.get("total_wall_s"),
            "num_spans": len(doc.get("spans", [])),
            "spans_by_name": by_name,
            "top_ops": top_ops,
            "counters": {
                k: v for k, v in metrics.get("counters", {}).items() if v
            },
            "gauges": {
                k: v
                for k, v in metrics.get("gauges", {}).items()
                if v is not None
            },
            "histograms": {
                k: v
                for k, v in metrics.get("histograms", {}).items()
                if v.get("count")
            },
        }, indent=1))
        return 0
    print(obs.summarize_trace(doc, top=args.top))
    if not args.no_tree:
        print()
        print(obs.render_tree(doc))
    counters = metrics.get("counters", {})
    nonzero = {name: value for name, value in counters.items() if value}
    if nonzero:
        print()
        print("counters:")
        for name, value in sorted(nonzero.items()):
            print(f"  {name:<36} {value:>12,}")
    histograms = obs.summarize_histograms(doc)
    if histograms:
        print()
        print(histograms)
    return 0


# --------------------------------------------------------------------- #
# repro runs — the persistent run ledger
# --------------------------------------------------------------------- #


def _read_ledger(args: argparse.Namespace) -> list[dict]:
    from repro import obs

    return obs.ledger.read_records(getattr(args, "ledger", None))


def _resolve_run(records: list[dict], ref: str) -> dict | None:
    from repro import obs

    record = obs.ledger.find_record(records, ref)
    if record is None:
        print(
            f"no unique run matching {ref!r} "
            f"({len(records)} records in the ledger)",
            file=sys.stderr,
        )
    return record


def _cmd_runs_list(args: argparse.Namespace) -> int:
    from repro import obs

    records = _read_ledger(args)
    if not records:
        print(f"no runs recorded in {obs.ledger.ledger_path()}")
        return 0
    print(
        f"{'run id':<24} {'kind':<6} {'command':<9} {'scale':<7} "
        f"{'seed':>5} {'wall':>9}  {'faults'}"
    )
    for record in records:
        config = record.get("config") or {}
        print(
            f"{record.get('run_id', '?'):<24} "
            f"{record.get('kind', '?'):<6} "
            f"{record.get('command', '?'):<9} "
            f"{str(config.get('scale', '-')):<7} "
            f"{str(config.get('seed', '-')):>5} "
            f"{record.get('total_wall_s', 0.0):>8.3f}s  "
            f"{config.get('faults') or '-'}"
        )
    return 0


def _cmd_runs_show(args: argparse.Namespace) -> int:
    records = _read_ledger(args)
    record = _resolve_run(records, args.run)
    if record is None:
        return 2
    config = record.get("config") or {}
    print(f"run {record['run_id']} ({record.get('kind')}/{record.get('command')})")
    print(f"  git sha:    {record.get('git_sha') or '-'}")
    print(
        f"  config:     scale={config.get('scale')} seed={config.get('seed')} "
        f"workers={config.get('workers')} shards={config.get('shards') or '-'} "
        f"cache={config.get('cache')} faults={config.get('faults') or '-'}"
    )
    print(f"  total wall: {record.get('total_wall_s', 0.0):.3f}s")
    cache = record.get("cache") or {}
    print(
        f"  cache:      {cache.get('entries', 0)} entries, "
        f"{cache.get('size_bytes', 0) / 1e6:.1f} MB"
    )
    phases = record.get("phases") or {}
    if phases:
        print(f"\n  {'phase':<34} {'count':>5} {'wall':>10} {'cpu':>10}")
        ranked = sorted(phases.items(), key=lambda kv: -kv[1].get("wall_s", 0))
        for name, agg in ranked:
            print(
                f"  {name:<34} {agg.get('count', 0):>5} "
                f"{agg.get('wall_s', 0.0):>9.3f}s {agg.get('cpu_s', 0.0):>9.3f}s"
            )
    counters = record.get("counters") or {}
    if counters:
        print("\n  counters:")
        for name, value in sorted(counters.items()):
            print(f"    {name:<34} {value:>12,}")
    fidelity = record.get("fidelity") or {}
    if fidelity:
        print(f"\n  {'fidelity probe':<34} {'paper':>10} {'measured':>10} {'dev':>7}")
        for name, probe in sorted(fidelity.items()):
            print(
                f"  {name:<34} {probe.get('paper'):>10g} "
                f"{probe.get('measured'):>10.4g} {probe.get('deviation'):>7.3f}"
            )
    return 0


def _cmd_runs_diff(args: argparse.Namespace) -> int:
    from repro import obs

    records = _read_ledger(args)
    a = _resolve_run(records, args.run_a)
    b = _resolve_run(records, args.run_b)
    if a is None or b is None:
        return 2
    print(obs.drift.render_diff(a, b))
    return 0


def _cmd_runs_check(args: argparse.Namespace) -> int:
    from repro import obs

    records = _read_ledger(args)
    comparable = sum(
        1 for group in obs.drift.group_records(records).values()
        if len(group) >= 2
    )
    if not comparable:
        print(
            f"drift check: nothing to compare yet "
            f"({len(records)} run(s), no group has two)"
        )
        return 0
    findings = obs.drift.check_drift(records)
    if not findings:
        print(
            f"drift check: OK — {comparable} group(s) within tolerance "
            f"of their rolling baselines"
        )
        return 0
    print(f"drift check: {len(findings)} finding(s)")
    for finding in findings:
        print(f"  {finding.render()}")
    return 1


def _cmd_runs_report(args: argparse.Namespace) -> int:
    from repro import obs

    records = _read_ledger(args)
    path = obs.dashboard.write_dashboard(records, args.out)
    print(f"wrote run dashboard ({len(records)} runs) to {path}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Serve live telemetry until interrupted (``repro serve``).

    With ``--ingest``, the server also hosts the incremental data plane
    (:mod:`repro.service`): ``POST /ingest`` folds micro-batches into
    standing tables and ``GET /tables|/figures|/fidelity`` serve the
    study with ETag-cached responses.
    """
    import time as time_mod

    from repro import obs

    app = None
    if args.ingest:
        from repro.service import ServiceApp
        from repro.simulator.config import SimulationConfig

        config = SimulationConfig.preset(args.scale, seed=args.seed)
        app = ServiceApp(config, scale=args.scale)
    server = obs.live.TelemetryServer(
        host=args.host, port=args.port, app=app
    ).start()
    print(f"serving live telemetry on {server.url} (Ctrl-C to stop)")
    print("endpoints: /  /metrics  /healthz  /runs  /runs/<id>  /events")
    if app is not None:
        print(
            "ingest endpoints: POST /ingest  /ingest/status  "
            "/tables[/<name>]  /figures[/<name>]  /fidelity"
        )
    try:
        if args.duration is not None:
            time_mod.sleep(args.duration)
        else:  # pragma: no cover - interactive foreground loop
            while True:
                time_mod.sleep(3600)
    except KeyboardInterrupt:  # pragma: no cover - interactive
        pass
    finally:
        server.stop()
        if app is not None and obs.ledger.ledger_enabled():
            record = obs.ledger.build_record(
                kind="service",
                command="serve",
                config={"scale": args.scale, "seed": args.seed},
                extra={"service": app.state.status()},
            )
            obs.ledger.append_record(record)
    return 0


def _cmd_learning(args: argparse.Namespace) -> int:
    from repro import build_study
    from repro.analysis.learning import learning_curve

    study = build_study(
        args.scale, seed=args.seed, cache=_cache_arg(args), shards=args.shards
    )
    curve = learning_curve(study.released)
    print(
        f"fitted within-batch learning exponent: {curve.learning_exponent:.3f}"
    )
    for rank, value in curve.speedup_at.items():
        print(f"  instance #{rank + 1} of a batch takes {value:.0%} of the first")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of the VLDB'17 crowdsourcing-marketplace study.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {_package_version()}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    simulate = sub.add_parser("simulate", help="export a released dataset")
    _add_common(simulate)
    simulate.add_argument("--out", required=True, help="output directory")
    simulate.set_defaults(func=_cmd_simulate)

    report = sub.add_parser("report", help="print headline findings")
    _add_common(report)
    report.set_defaults(func=_cmd_report)

    plan = sub.add_parser(
        "plan", help="EXPLAIN ANALYZE a representative study query"
    )
    _add_common(plan)
    plan.add_argument(
        "--rows", type=int, default=10,
        help="result rows kept by the query's final head (default: 10)",
    )
    plan.add_argument(
        "--top", type=int, default=5,
        help="operators in the hotspot listing (default: 5)",
    )
    plan.set_defaults(func=_cmd_plan)

    abtest = sub.add_parser("abtest", help="run a design A/B experiment")
    abtest.add_argument(
        "--feature", default="num_examples",
        help="TaskDesign field to vary (default: num_examples)",
    )
    abtest.add_argument(
        "--value", type=int, default=2, help="variant value (default: 2)"
    )
    abtest.add_argument(
        "--batches", type=int, default=40, help="batches per arm (default: 40)"
    )
    abtest.add_argument("--seed", type=int, default=7)
    abtest.set_defaults(func=_cmd_abtest)

    learning = sub.add_parser("learning", help="estimate worker learning")
    _add_common(learning)
    learning.set_defaults(func=_cmd_learning)

    figures = sub.add_parser("figures", help="render all paper figures as SVG")
    _add_common(figures)
    figures.add_argument("--out", required=True, help="output directory")
    figures.set_defaults(func=_cmd_figures)

    cache = sub.add_parser(
        "cache", help="inspect or clear the on-disk study cache"
    )
    cache.add_argument("--clear", action="store_true", help="remove all entries")
    cache.add_argument(
        "--json", action="store_true",
        help="emit machine-readable JSON instead of the text listing",
    )
    cache.set_defaults(func=_cmd_cache)

    trace = sub.add_parser(
        "trace", help="summarize a JSON trace written by a --trace run"
    )
    trace.add_argument(
        "path", nargs="?", default=DEFAULT_TRACE_OUT,
        help=f"trace file to read (default: {DEFAULT_TRACE_OUT})",
    )
    trace.add_argument(
        "--top", type=int, default=30,
        help="span names shown in the summary table (default: 30)",
    )
    trace.add_argument(
        "--no-tree", action="store_true", help="skip the full timing tree"
    )
    trace.add_argument(
        "--json", action="store_true",
        help="emit the per-span aggregates and metrics as JSON",
    )
    trace.set_defaults(func=_cmd_trace)

    serve = sub.add_parser(
        "serve",
        help="serve live telemetry over HTTP (see repro.obs.live)",
    )
    serve.add_argument(
        "--port", type=int, default=8737,
        help="port to bind on localhost (default: 8737; 0 picks a free one)",
    )
    serve.add_argument(
        "--host", default="127.0.0.1",
        help="address to bind (default: 127.0.0.1)",
    )
    serve.add_argument(
        "--duration", type=float, default=None, metavar="S",
        help="serve for S seconds then exit (default: until Ctrl-C)",
    )
    serve.add_argument(
        "--ingest", action="store_true",
        help="host the incremental ingest/read data plane (repro.service)",
    )
    serve.add_argument(
        "--scale", choices=SCALES, default="tiny",
        help="scale preset the ingest service expects (default: tiny)",
    )
    serve.add_argument(
        "--seed", type=int, default=7,
        help="seed the ingest service expects (default: 7)",
    )
    serve.set_defaults(func=_cmd_serve)

    runs = sub.add_parser(
        "runs", help="inspect the persistent run ledger (see repro.obs.ledger)"
    )
    runs_sub = runs.add_subparsers(dest="runs_command", required=True)

    def _add_ledger_arg(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--ledger", default=None, metavar="PATH",
            help="ledger JSONL file (default: $REPRO_LEDGER_DIR/runs.jsonl "
            "or .repro-ledger/runs.jsonl)",
        )

    runs_list = runs_sub.add_parser("list", help="list recorded runs")
    _add_ledger_arg(runs_list)
    runs_list.set_defaults(func=_cmd_runs_list)

    runs_show = runs_sub.add_parser("show", help="show one run in full")
    runs_show.add_argument("run", help="run id, unique prefix, or 'latest'")
    _add_ledger_arg(runs_show)
    runs_show.set_defaults(func=_cmd_runs_show)

    runs_diff = runs_sub.add_parser(
        "diff", help="compare two runs (phase timings + fidelity)"
    )
    runs_diff.add_argument("run_a", help="baseline run id/prefix")
    runs_diff.add_argument("run_b", help="candidate run id/prefix or 'latest'")
    _add_ledger_arg(runs_diff)
    runs_diff.set_defaults(func=_cmd_runs_diff)

    runs_check = runs_sub.add_parser(
        "check",
        help="flag perf/fidelity drift vs rolling baselines (exit 1 on drift)",
    )
    _add_ledger_arg(runs_check)
    runs_check.set_defaults(func=_cmd_runs_check)

    runs_report = runs_sub.add_parser(
        "report", help="write a self-contained HTML dashboard"
    )
    runs_report.add_argument(
        "--out", default="repro_runs.html", help="output HTML path"
    )
    _add_ledger_arg(runs_report)
    runs_report.set_defaults(func=_cmd_runs_report)

    validate = sub.add_parser(
        "validate", help="check a simulated world against the paper's claims"
    )
    _add_common(validate)
    validate.set_defaults(func=_cmd_validate)

    workload = sub.add_parser(
        "workload", help="derive a crowdsourcing benchmark workload (JSON)"
    )
    _add_common(workload)
    workload.add_argument("--out", default=None, help="write JSON here")
    workload.add_argument(
        "--min-support", type=int, default=2,
        help="minimum clusters behind an archetype (default: 2)",
    )
    workload.set_defaults(func=_cmd_workload)

    return parser


def _run_config(args: argparse.Namespace, fault_spec: str | None) -> dict:
    """The configuration block a ledger record captures for this command."""
    import os

    from repro import cache as study_cache, faults, parallel

    from repro.shard.partition import SHARDS_ENV

    raw_workers = os.environ.get(parallel.WORKERS_ENV, "").strip()
    shards = getattr(args, "shards", None)
    if shards is None:
        raw_shards = os.environ.get(SHARDS_ENV, "").strip()
        shards = raw_shards or None
    return {
        "scale": getattr(args, "scale", None),
        "seed": getattr(args, "seed", None),
        "workers": raw_workers or None,
        "shards": shards,
        "faults": fault_spec or os.environ.get(faults.FAULTS_ENV, "").strip() or None,
        "cache": study_cache.cache_enabled(_cache_arg(args)),
    }


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    from repro import faults, obs

    fault_spec = getattr(args, "faults", None)
    if fault_spec is not None:
        try:
            faults.configure(fault_spec)
        except faults.FaultSpecError as exc:
            print(f"invalid --faults spec: {exc}", file=sys.stderr)
            return 2

    want_trace = bool(getattr(args, "trace", False)) or obs.env_enabled()
    if args.command == "trace":
        return args.func(args)
    # Study-building commands record a run in the persistent ledger even
    # without --trace: tracing is enabled internally so the record gets
    # per-phase timings, but nothing is printed or written unless asked.
    record_run = args.command in _STUDY_COMMANDS and obs.ledger.ledger_enabled()
    live_port = getattr(args, "live", None)
    if not want_trace and not record_run and live_port is None:
        return args.func(args)

    # --live serves telemetry for the duration of the command.  The URL
    # goes to stderr only — stdout must stay byte-identical to an unserved
    # run (reproduce_all.sh diffs exactly that) — and tracing is enabled
    # below either way, so span open/close events feed the SSE stream.
    server = None
    if live_port is not None:
        server = obs.live.TelemetryServer(port=live_port).start()
        print(f"live telemetry on {server.url}", file=sys.stderr)
    try:
        obs.enable(
            name=f"repro {args.command}",
            mem=True if getattr(args, "trace_mem", False) else None,
        )
        if record_run:
            obs.ledger.begin_collection()
        # Resource sampling (--sample / REPRO_SAMPLE_MS) rides along
        # silently; its timeline only lands in the ledger record, never on
        # stdout.
        obs.sampler.start(getattr(args, "sample", None))
        try:
            with obs.span(
                f"cli.{args.command}",
                scale=getattr(args, "scale", None),
                seed=getattr(args, "seed", None),
            ):
                rc = args.func(args)
        finally:
            timeline = obs.sampler.stop()
            trace = obs.finish()
            fidelity = obs.ledger.end_collection() if record_run else None
        if trace is None:
            return rc
        doc = obs.trace_to_dict(trace)
        if record_run:
            extra: dict = {"rc": rc}
            # getrusage peak is free and exact, so every run feeds the RSS
            # drift guard; a sampler timeline can only sharpen it upward.
            peak = obs.sampler.peak_rss_mb()
            util = obs.sampler.utilization_from_trace(doc)
            if timeline is not None:
                peak = max(peak, float(timeline.get("peak_rss_mb") or 0.0))
                if util is None:
                    util = obs.sampler.utilization_from_intervals(
                        timeline.get("worker_intervals") or []
                    )
                extra["timeline"] = timeline
            if peak > 0:
                extra["peak_rss_mb"] = round(peak, 3)
            if util is not None:
                extra["utilization"] = util
            record = obs.ledger.build_record(
                kind="study",
                command=args.command,
                config=_run_config(args, fault_spec),
                trace_doc=doc,
                fidelity=fidelity,
                extra=extra,
            )
            obs.ledger.append_record(record)
        if want_trace:
            out = getattr(args, "trace_out", None) or DEFAULT_TRACE_OUT
            path = obs.write_trace_json(doc, out)
            print()
            print("== trace ==")
            print(obs.render_tree(doc))
            print(f"trace written to {path}")
        return rc
    finally:
        if server is not None:
            server.stop()


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())

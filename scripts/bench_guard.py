#!/usr/bin/env python
"""Run the substrate micro-benchmarks and guard against perf regressions.

Runs ``benchmarks/test_substrate_perf.py`` under pytest-benchmark, extracts
the mean time of every bench plus the fast-vs-naive speedup ratios (each
``test_perf_<name>`` paired with its ``test_perf_<name>_naive`` seed
replica), and compares them with the committed baseline in
``BENCH_substrate.json`` at the repository root:

- a guarded bench whose mean time regresses more than ``--tolerance``
  (default 25%) against the baseline fails the run;
- a fast/naive speedup ratio that drops more than ``--tolerance`` below the
  baseline ratio also fails (ratios are far less machine-sensitive than
  absolute times, so both guards together catch real regressions without
  tripping on hardware differences alone).

Exit status is 1 on any regression, 0 otherwise.  ``--update-baseline``
rewrites ``BENCH_substrate.json`` with the measured numbers (also done
automatically when no baseline exists yet).

Every benchmark run also appends a ``kind="bench"`` record to the
persistent run ledger (:mod:`repro.obs.ledger`, honoring
``REPRO_LEDGER_DIR``/``REPRO_NO_LEDGER``), so ``BENCH_*.json`` deltas are
tracked over time instead of one-shot: ``--history`` prints the mean-time
trajectory of every bench across recorded runs (add ``--top N`` for the
latest run's ``plan.op.*`` operator hotspots, fed by the lazy-plan
profiler), and ``repro runs`` can list/diff/dashboard them alongside
study runs.  Per-phase totals of a traced CLI run come from
``repro trace``; ``repro runs diff`` / ``repro runs check`` compare and
gate phases across recorded runs.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
BASELINE_PATH = REPO_ROOT / "BENCH_substrate.json"
BENCH_FILE = "benchmarks/test_substrate_perf.py"
REPORT_PATH = REPO_ROOT / "bench_report.txt"

#: Benches whose speedup over the seed implementation the study relies on
#: (the vectorized minhash + group-by fast paths, the byte-level shingle
#: tokenizer, the dictionary-coded group-by keys, the work-stealing
#: chunk scheduler vs static placement, the service's ETag response
#: cache vs re-rendering every read, design extraction once per
#: distinct interface vs once per document, and the CART split search
#: scoring every boundary in one array pass vs one Gini call per
#: boundary); their ratios must never silently decay.
GUARDED_SPEEDUPS = (
    "minhash_batch",
    "group_by_median",
    "shingle_extraction",
    "design_extraction",
    "dict_group_by",
    "shard_sched_skewed",
    "service_read_cached",
    "decision_tree_fit",
    "batch_metrics",
)


def run_benchmarks(min_rounds: int) -> dict:
    """Run the substrate bench file; return the pytest-benchmark JSON."""
    report_backup = REPORT_PATH.read_bytes() if REPORT_PATH.exists() else None
    with tempfile.TemporaryDirectory() as tmp:
        json_path = Path(tmp) / "bench.json"
        cmd = [
            sys.executable,
            "-m",
            "pytest",
            BENCH_FILE,
            "-q",
            f"--benchmark-json={json_path}",
            f"--benchmark-min-rounds={min_rounds}",
        ]
        proc = subprocess.run(cmd, cwd=REPO_ROOT)
        # The benchmark conftest truncates bench_report.txt for figure
        # benches; a substrate-only run must not clobber the committed one.
        if report_backup is not None:
            REPORT_PATH.write_bytes(report_backup)
        if proc.returncode != 0:
            print("bench_guard: benchmark run failed", file=sys.stderr)
            sys.exit(proc.returncode)
        return json.loads(json_path.read_text())


def summarize(raw: dict) -> dict:
    means = {}
    for bench in raw["benchmarks"]:
        name = bench["name"].removeprefix("test_perf_")
        means[name] = bench["stats"]["mean"]
    speedups = {}
    for name, mean in means.items():
        naive = means.get(f"{name}_naive")
        if naive is not None and mean > 0:
            speedups[name] = naive / mean
    return {
        "bench_file": BENCH_FILE,
        "means_seconds": {k: round(v, 6) for k, v in sorted(means.items())},
        "speedups_vs_seed": {
            k: round(v, 2) for k, v in sorted(speedups.items())
        },
    }


def compare(current: dict, baseline: dict, tolerance: float) -> list[str]:
    regressions = []
    base_means = baseline.get("means_seconds", {})
    for name, base_mean in base_means.items():
        mean = current["means_seconds"].get(name)
        if mean is None:
            regressions.append(f"bench {name!r} missing from this run")
        elif mean > base_mean * (1.0 + tolerance):
            regressions.append(
                f"{name}: {mean * 1e3:.1f} ms vs baseline "
                f"{base_mean * 1e3:.1f} ms "
                f"(+{(mean / base_mean - 1.0) * 100:.0f}%)"
            )
    base_speedups = baseline.get("speedups_vs_seed", {})
    for name in GUARDED_SPEEDUPS:
        base = base_speedups.get(name)
        ratio = current["speedups_vs_seed"].get(name)
        if base is None:
            continue
        if ratio is None:
            regressions.append(f"speedup pair {name!r} missing from this run")
        elif ratio < base * (1.0 - tolerance):
            regressions.append(
                f"{name} speedup fell to {ratio:.1f}x "
                f"(baseline {base:.1f}x)"
            )
    return regressions


def _ledger():
    sys.path.insert(0, str(REPO_ROOT / "src"))
    from repro.obs import ledger

    return ledger


def record_bench_run(current: dict, regressions: list[str]) -> None:
    """Append this benchmark run to the persistent run ledger (best effort).

    Bench means become the record's ``phases`` so the same drift/dashboard
    machinery that watches study phases charts the bench trajectory too.
    """
    ledger = _ledger()
    if not ledger.ledger_enabled():
        return
    means = current["means_seconds"]
    record = ledger.build_record(
        kind="bench",
        command="bench_guard",
        config={"bench_file": current["bench_file"]},
        extra={
            "total_wall_s": round(sum(means.values()), 6),
            "phases": {
                name: {"count": 1, "wall_s": mean, "cpu_s": 0.0}
                for name, mean in means.items()
            },
            "speedups_vs_seed": current["speedups_vs_seed"],
            "regressions": regressions,
        },
    )
    ledger.append_record(record)


def _num(value, default: float = 0.0) -> float:
    """Best-effort float for ledger fields; legacy garbage becomes ``default``."""
    try:
        return float(value)
    except (TypeError, ValueError):
        return default


def _phases_of(record) -> dict:
    phases = record.get("phases")
    return phases if isinstance(phases, dict) else {}


def _print_op_hotspots(ledger, top: int) -> None:
    """The latest recorded run's ``plan.op.*`` phases, ranked by wall time.

    Study runs fold every lazy-plan operator execution into these phases
    (see ``repro.tables.plan``), so the hotspot listing points at the
    operator — group_by, filter, join — not just the pipeline stage.
    Ledgers span schema generations, so records missing ``top_ops``-style
    phase aggregates (or carrying malformed ones) are skipped with a note
    instead of tracebacking.
    """
    skipped = 0
    latest = None
    for r in reversed(ledger.read_records()):
        phases = _phases_of(r)
        if not any(
            name.startswith("plan.op.") and isinstance(agg, dict)
            for name, agg in phases.items()
        ):
            if any(str(name).startswith("plan.op.") for name in phases):
                skipped += 1  # has the phases, but in an unreadable shape
            continue
        latest = r
        break
    if latest is None:
        print(
            "bench_guard: no recorded run carries plan.op.* operator phases"
            + (f" ({skipped} legacy record(s) skipped)" if skipped else "")
        )
        return
    ops = sorted(
        (
            (name.removeprefix("plan.op."), agg)
            for name, agg in _phases_of(latest).items()
            if name.startswith("plan.op.") and isinstance(agg, dict)
        ),
        key=lambda kv: -_num(kv[1].get("wall_s", 0.0)),
    )[:top]
    print(
        f"\nbench_guard: top {len(ops)} plan operators by wall time "
        f"(run {latest.get('run_id', '?')})"
    )
    print(f"  {'operator':<20} {'count':>6} {'wall':>12} {'cpu':>12}")
    for name, agg in ops:
        print(
            f"  {name:<20} {_num(agg.get('count', 0)):>6.0f} "
            f"{_num(agg.get('wall_s', 0.0)) * 1e3:>9.2f} ms "
            f"{_num(agg.get('cpu_s', 0.0)) * 1e3:>9.2f} ms"
        )


def history(top: int = 0) -> int:
    """Print the mean-time trajectory of every bench from the run ledger."""
    ledger = _ledger()
    records = [
        r for r in ledger.read_records() if r.get("kind") == "bench"
    ]
    if not records:
        print(
            f"bench_guard: no bench runs recorded in {ledger.ledger_path()}"
        )
        if top:
            _print_op_hotspots(ledger, top)
        return 0
    shown = records[-8:]
    print(
        f"bench_guard: mean-time trajectory over {len(records)} recorded "
        f"run(s) (showing last {len(shown)}; ms per bench)"
    )
    # Legacy records (earlier writers, truncated lines) may miss run_id,
    # phases, or carry non-mapping aggregates; show what is readable and
    # render '-' for the rest — the history view must never traceback.
    gaps = 0
    header_cells = []
    for r in shown:
        run_id = str(r.get("run_id") or "")
        label = run_id[9:15] if len(run_id) > 9 else (run_id or "?")
        if not run_id:
            gaps += 1
        header_cells.append(f"{label:>9.9}")
    print(f"  {'bench':<28}{''.join(header_cells)}")
    names = sorted({
        name for record in shown for name in _phases_of(record)
    })
    for name in names:
        cells = []
        for record in shown:
            agg = _phases_of(record).get(name)
            wall = _num(agg.get("wall_s"), -1.0) if isinstance(agg, dict) else -1.0
            if wall < 0 and agg is not None:
                gaps += 1
            cells.append(f"{wall * 1e3:>9.2f}" if wall >= 0 else f"{'-':>9}")
        print(f"  {name:<28}{''.join(cells)}")
    print(f"  {'-- speedups vs seed --':<28}")
    speedups_of = lambda r: (
        r.get("speedups_vs_seed")
        if isinstance(r.get("speedups_vs_seed"), dict) else {}
    )
    speedup_names = sorted({
        name for record in shown for name in speedups_of(record)
    })
    for name in speedup_names:
        cells = []
        for record in shown:
            ratio = _num(speedups_of(record).get(name), -1.0)
            cells.append(f"{ratio:>8.1f}x" if ratio > 0 else f"{'-':>9}")
        print(f"  {name:<28}{''.join(cells)}")
    if gaps:
        print(
            f"bench_guard: note — {gaps} legacy field(s) unreadable in the "
            f"shown records (rendered as '-')"
        )
    if top:
        _print_op_hotspots(ledger, top)
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help=f"rewrite {BASELINE_PATH.name} with this run's numbers",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.25,
        help="allowed fractional regression before failing (default 0.25)",
    )
    parser.add_argument(
        "--min-rounds",
        type=int,
        default=5,
        help="pytest-benchmark rounds per bench (default 5)",
    )
    parser.add_argument(
        "--history",
        action="store_true",
        help="print the bench trajectory from the run ledger and exit",
    )
    parser.add_argument(
        "--top",
        type=int,
        default=0,
        metavar="N",
        help="with --history: also list the latest run's top-N plan.op.* "
        "operator hotspots from the ledger",
    )
    args = parser.parse_args()

    if args.history:
        return history(args.top)

    current = summarize(run_benchmarks(args.min_rounds))

    print("\nbench_guard: measured means")
    for name, mean in current["means_seconds"].items():
        print(f"  {name:32s} {mean * 1e3:10.2f} ms")
    print("bench_guard: speedups vs seed implementation")
    for name, ratio in current["speedups_vs_seed"].items():
        print(f"  {name:32s} {ratio:9.1f}x")

    if args.update_baseline or not BASELINE_PATH.exists():
        merged = dict(current)
        if BASELINE_PATH.exists():
            # Preserve sections other writers own (e.g. the 'service_load'
            # block from scripts/load_service.py) — a bench refresh must
            # not drop them.
            old = json.loads(BASELINE_PATH.read_text())
            for key, value in old.items():
                merged.setdefault(key, value)
        BASELINE_PATH.write_text(json.dumps(merged, indent=2) + "\n")
        record_bench_run(current, [])
        print(f"bench_guard: baseline written to {BASELINE_PATH.name}")
        return 0

    baseline = json.loads(BASELINE_PATH.read_text())
    regressions = compare(current, baseline, args.tolerance)
    record_bench_run(current, regressions)
    if regressions:
        print("\nbench_guard: PERFORMANCE REGRESSIONS:", file=sys.stderr)
        for line in regressions:
            print(f"  {line}", file=sys.stderr)
        return 1
    print(f"bench_guard: OK (within {args.tolerance * 100:.0f}% of baseline)")
    return 0


if __name__ == "__main__":
    sys.exit(main())

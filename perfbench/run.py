#!/usr/bin/env python3
"""End-to-end benchmark of the study pipeline and the ingest service.

Usage (from the repository root)::

    python3 perfbench/run.py --workload study_medium --seed 7 --seconds 3 --trace 0
    python3 perfbench/run.py --workload all --seed 7          # every workload

Each workload runs its steps in fresh interpreters (``work.py``) with an
isolated environment: a private ``REPRO_CACHE_DIR`` per step, the run
ledger off, ``REPRO_WORKERS`` pinned per workload, and every temporary
file under ``.perfbench/`` in the repository.  Every step is killed on
every exit path.  The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics`` — the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
See ``perfbench/README.md`` for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from measure import percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE_DIR = ROOT / ".perfbench"
#: A run must finish inside this budget (seconds) whatever happens.
RUN_BUDGET_S = 175.0
#: Fresh-interpreter start-ups timed per run; their median is the
#: repeatable part of ``setup_s``.
PROBES = 3
#: Share of traced wall time the named layers must cover before the
#: traced run flags the remainder.
ATTRIBUTION_FLOOR = 0.95

END_TO_END = (
    ("setup_s", "s"),
    ("build_cold_s", "s"),
    ("build_warm_s", "s"),
    ("peak_rss_mb", "MB"),
    ("cpu_s", "s"),
    ("ok_frac", "ratio"),
)

PER_LAYER = (
    ("simulator.simulate_s", "s"),
    ("simulator.instances", "count"),
    ("dataset.release_s", "s"),
    ("enrichment.clustering_s", "s"),
    ("enrichment.design_s", "s"),
    ("enrichment.metrics_s", "s"),
    ("enrichment.assemble_s", "s"),
    ("enrichment.docs_shingled", "count"),
    ("figures.render_s", "s"),
    ("figures.prediction_study_s", "s"),
    ("figures.fidelity_s", "s"),
    ("figures.total_s", "s"),
    ("cache.store_s", "s"),
    ("cache.load_s", "s"),
    ("cache.bytes_written", "bytes"),
    ("cache.bytes_read", "bytes"),
    ("cache.corrupt", "count"),
    ("shard.build_s", "s"),
    ("shard.merge_s", "s"),
    ("shard.spill_s", "s"),
    ("shard.spilled", "count"),
    ("parallel.busy_frac", "ratio"),
    ("parallel.steals", "count"),
    ("parallel.pool_retries", "count"),
    ("parallel.serial_fallback", "count"),
    ("tables.plan_parallel_branches", "count"),
    ("service.ingest_s", "s"),
    ("service.ingest_transport_s", "s"),
    ("service.ingest_bulk_rows_per_s", "1/s"),
    ("service.ingest_delta_ms", "ms"),
    ("service.fresh_read_s", "s"),
    ("service.snapshot_s", "s"),
    ("service.snapshot_builds_per_delta", "count"),
    ("service.snapshot_builds_cached", "count"),
    ("service.render_s", "s"),
    ("service.disk_tier_read_ms", "ms"),
    ("service.cache_hit_ratio", "ratio"),
    ("service.not_modified", "count"),
    ("service.ingest_failed", "count"),
    ("read.samples", "count"),
    ("read.ms_p50", "ms"),
    ("read.ms_p99", "ms"),
    ("read.rps", "1/s"),
    ("trace.total_s", "s"),
    ("trace.uncovered_frac", "ratio"),
    ("trace.overhead_s", "s"),
)


class StepFailed(RuntimeError):
    pass


class Run:
    """One benchmark run: its scratch directory, steps and deadline."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.dir = STATE_DIR / f"run-{os.getpid()}-{workload}"
        shutil.rmtree(self.dir, ignore_errors=True)
        (self.dir / "tmp").mkdir(parents=True)
        self._steps = 0

    def env(self, cache: str, workers: int | None) -> dict[str, str]:
        env = {
            k: v for k, v in os.environ.items() if not k.startswith("REPRO_")
        }
        env.update(
            PYTHONPATH=str(ROOT / "src"),
            PYTHONHASHSEED="0",
            TMPDIR=str(self.dir / "tmp"),
            REPRO_CACHE_DIR=str(self.dir / cache),
            REPRO_NO_LEDGER="1",
            REPRO_LEDGER_DIR=str(self.dir / "ledger"),
        )
        if workers is not None:
            env["REPRO_WORKERS"] = str(workers)
        return env

    def step(
        self, task: str, *, cache: str = "cache", workers: int | None = None,
        extra: tuple[str, ...] = (),
    ) -> tuple[dict, float]:
        """Run one ``work.py`` task; returns its JSON result and wall time."""
        self._steps += 1
        log = self.dir / f"{self._steps}-{task}.log"
        cmd = [
            sys.executable, str(HERE / "work.py"), task,
            "--seed", str(self.seed), *extra,
        ]
        t0 = time.perf_counter()
        with open(log, "wb") as err:
            proc = subprocess.Popen(
                cmd, cwd=ROOT, env=self.env(cache, workers),
                stdout=subprocess.PIPE, stderr=err, start_new_session=True,
            )
            try:
                out, _ = proc.communicate(
                    timeout=max(1.0, self.deadline - time.monotonic())
                )
            except subprocess.TimeoutExpired:
                raise StepFailed(f"{task}: over the {RUN_BUDGET_S:.0f}s budget")
            finally:
                # Every exit path, Ctrl-C and SIGTERM included, ends the
                # step's whole process group: pool workers and the server.
                _killpg(proc)
        wall = time.perf_counter() - t0
        print(f"perfbench: {self.workload} {task} {wall:.1f}s", file=sys.stderr)
        if proc.returncode != 0:
            tail = log.read_text(errors="replace")[-3000:]
            raise StepFailed(f"{task} exited {proc.returncode}:\n{tail}")
        lines = out.decode().strip().splitlines()
        if not lines:
            raise StepFailed(f"{task} printed no result")
        return json.loads(lines[-1]), wall

    def setup_probe_s(self) -> float:
        """Median fresh-interpreter start-up with the package imported."""
        return statistics.median(
            self.step("probe", cache="probe")[1] for _ in range(PROBES)
        )

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


def _killpg(proc: subprocess.Popen) -> None:
    """Kill a step's whole process group (its pool workers and server)."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass
    try:
        proc.wait(timeout=30)
    except subprocess.TimeoutExpired:
        pass


# --------------------------------------------------------------------- #
# Shared assembly
# --------------------------------------------------------------------- #


def _end_to_end(setup_s: float, phases: dict,
                ok_frac: float) -> dict[str, float]:
    return {
        "setup_s": setup_s,
        "build_cold_s": phases["build_cold_s"],
        "build_warm_s": phases["build_warm_s"],
        "peak_rss_mb": phases["peak_rss_mb"],
        "cpu_s": phases["cpu_s"],
        "ok_frac": ok_frac,
    }


def _write_trace(run: Run, doc: dict) -> None:
    out = STATE_DIR / "traces" / f"{run.workload}-seed{run.seed}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(doc, indent=1, default=str) + "\n")


def _fingerprint() -> str:
    """SHA-256 over the package and benchmark sources."""
    digest = hashlib.sha256()
    files = [*(ROOT / "src").rglob("*.py"), *HERE.glob("*.py")]
    for path in sorted(files):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _recorded(name: str, compute):
    """The value recorded under ``name`` for these sources, or ``compute()``
    recorded now.

    Reference outputs of the fixed study are the same for every run on the
    same sources, so later runs read them instead of rebuilding them.  No
    metric includes the time spent here, so every run measures the same
    work whether or not the reference was already recorded.
    """
    path = STATE_DIR / "recorded" / f"{name}-{_fingerprint()[:32]}.json"
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        pass
    value = compute()
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(value))
    os.replace(tmp, path)
    return value


def _layers(**values: float) -> dict[str, float]:
    """Every per-layer metric, zero where the workload skips the layer."""
    layers = {name: 0.0 for name, _ in PER_LAYER}
    for key, value in values.items():
        name = key.replace("__", ".")
        if name not in layers:
            raise KeyError(name)
        layers[name] = float(value)
    return layers


def _untraced_layers(res: dict) -> dict:
    """Figures of the timed pass reported per layer; the ``read`` ones
    only where the workload has a cached-read loop (the service)."""
    layers = {"figures__total_s": res["phases"]["figures_s"]}
    if "reads" in res:
        latencies = res["reads"]["latencies"]
        layers.update(
            read__samples=len(latencies),
            read__ms_p50=percentile(latencies, 50) * 1e3,
            read__ms_p99=percentile(latencies, 99) * 1e3,
            read__rps=len(latencies) / res["reads"]["wall"],
        )
    return layers


def _trace_layers(run: Run, summary: dict, untraced: float) -> dict:
    _write_trace(run, summary["doc"])
    return {
        "trace__total_s": summary["total_s"],
        "trace__uncovered_frac": 1.0 - summary["covered_frac"],
        "trace__overhead_s": summary["total_s"] - untraced,
    }


# --------------------------------------------------------------------- #
# Workloads
# --------------------------------------------------------------------- #


def study_medium(run: Run) -> dict:
    setup_s = run.setup_probe_s()
    res, _ = run.step("study")
    checks = dict(res["checks"])
    recorded = _recorded("study-figures", lambda: res["figures_digest"])
    checks["figures_same_as_recorded"] = recorded == res["figures_digest"]
    out = _result(run, setup_s, res, checks)
    if run.trace:
        traced, _ = run.step("study_traced", cache="traced-cache")
        summary = traced["trace"]
        times = {
            name[len("bench."):]: wall
            for name, wall in summary["walls"].items()
            if name.startswith("bench.")
        }
        c, tc = res["counters"], traced["counters"]
        phases = res["phases"]
        render = sum(
            v for k, v in times.items()
            if k.startswith("figures.") and k != "figures.fidelity"
        )
        out["layers"] = _layers(
            simulator__simulate_s=times["simulator.simulate"],
            simulator__instances=tc.get("simulate.instances_rows", 0),
            dataset__release_s=times["dataset.release"],
            enrichment__clustering_s=times["enrichment.clustering"],
            enrichment__design_s=times["enrichment.design"],
            enrichment__metrics_s=times["enrichment.metrics"],
            enrichment__assemble_s=times["enrichment.assemble"],
            enrichment__docs_shingled=traced["docs_shingled"],
            figures__render_s=render,
            figures__prediction_study_s=times["figures.prediction_study"],
            figures__fidelity_s=times["figures.fidelity"],
            cache__store_s=times["cache.store"],
            cache__load_s=times["cache.load"],
            cache__bytes_written=c.get("cache.bytes_written", 0),
            cache__bytes_read=c.get("cache.bytes_read", 0),
            cache__corrupt=c.get("cache.corrupt", 0),
            parallel__pool_retries=c.get("parallel.pool_retries", 0),
            parallel__serial_fallback=c.get("parallel.serial_fallback", 0),
            tables__plan_parallel_branches=c.get("plan.parallel_branches", 0),
            **_untraced_layers(res),
            **_trace_layers(
                run, summary,
                phases["build_cold_s"] + phases["figures_s"]
                + phases["build_warm_s"],
            ),
        )
    return out


def study_sharded_medium(run: Run) -> dict:
    setup_s = run.setup_probe_s()
    ref = _recorded("sharded-reference", lambda: run.step(
        "reference", cache="reference-cache", workers=2
    )[0])
    res, _ = run.step("sharded", workers=2)
    checks = {
        f"sharded_equals_monolithic.{key}": res["digests"][key] == value
        for key, value in ref["digests"].items()
    }
    checks["fidelity_equals_monolithic"] = (
        res["fidelity_digest"] == ref["fidelity_digest"]
    )
    out = _result(run, setup_s, res, checks)
    if run.trace:
        traced, _ = run.step(
            "sharded_traced", cache="traced-cache", workers=2
        )
        summary = traced["trace"]
        times = summary["walls"]
        c = res["counters"]
        busy = traced["chunk_busy_s"] / (
            traced["workers"] * traced["pool_wall_s"]
        ) if traced["pool_wall_s"] else 0.0
        out["layers"] = _layers(
            simulator__simulate_s=times.get("simulate", 0.0),
            simulator__instances=c.get("simulate.instances_rows", 0),
            enrichment__clustering_s=times.get("cluster.shingle", 0.0)
            + times.get("shard.merge.cluster", 0.0),
            enrichment__design_s=times.get("design.extract", 0.0),
            enrichment__assemble_s=times.get("enrichment.cluster_table", 0.0)
            + times.get("enrichment.labels", 0.0),
            enrichment__docs_shingled=c.get("cluster.shingle_docs", 0),
            figures__fidelity_s=res["phases"]["figures_s"],
            cache__store_s=times.get("cache.store", 0.0),
            cache__load_s=times.get("cache.load", 0.0),
            cache__bytes_written=c.get("cache.bytes_written", 0),
            cache__bytes_read=c.get("cache.bytes_read", 0),
            cache__corrupt=c.get("cache.corrupt", 0),
            shard__build_s=times.get("shard.build", 0.0),
            shard__merge_s=times.get("shard.merge", 0.0),
            shard__spill_s=traced["spill_s"],
            shard__spilled=c.get("shard.spilled", 0),
            parallel__busy_frac=busy,
            parallel__steals=c.get("parallel.steals", 0),
            parallel__pool_retries=c.get("parallel.pool_retries", 0),
            parallel__serial_fallback=c.get("parallel.serial_fallback", 0),
            tables__plan_parallel_branches=c.get("plan.parallel_branches", 0),
            **_untraced_layers(res),
            **_trace_layers(run, summary, res["phases"]["build_cold_s"]),
        )
    return out


def service_medium(run: Run) -> dict:
    setup_s = run.setup_probe_s()
    _, prep_wall = run.step(
        "payloads", workers=2, extra=("--dir", str(run.dir))
    )
    routes = _recorded("service-reference", lambda: run.step(
        "service_reference", cache="reference-cache", workers=2
    )[0])
    (run.dir / "reference.json").write_text(json.dumps(routes))
    task = "service_traced" if run.trace else "service"
    res, _ = run.step(
        task, extra=("--seconds", str(run.seconds), "--dir", str(run.dir))
    )
    out = _result(
        run, setup_s + prep_wall + res["phases"]["start_s"], res,
        res["checks"],
    )
    if run.trace:
        svc = res["service"]
        summary = res["replay"]["trace"]
        spans = summary["walls"]
        mine = {
            name[len("bench.service."):]: wall
            for name, wall in spans.items()
            if name.startswith("bench.service.")
        }
        cycles = summary["counts"]["bench.service.snapshot"]
        out["layers"] = _layers(
            enrichment__clustering_s=spans.get("enrichment.clustering", 0.0)
            / cycles,
            enrichment__design_s=spans.get("enrichment.design", 0.0) / cycles,
            enrichment__metrics_s=spans.get("enrichment.metrics", 0.0)
            / cycles,
            enrichment__assemble_s=(
                spans.get("enrichment.cluster_table", 0.0)
                + spans.get("enrichment.labels", 0.0)
            ) / cycles,
            enrichment__docs_shingled=svc["docs_shingled_per_delta"],
            figures__render_s=mine["render"] / cycles,
            cache__corrupt=svc["cache_corrupt"],
            parallel__pool_retries=svc["pool_retries"],
            parallel__serial_fallback=svc["serial_fallback"],
            service__ingest_s=svc["ingest_s"],
            service__ingest_transport_s=svc["ingest_transport_s"],
            service__ingest_bulk_rows_per_s=svc["bulk_rows_per_s"],
            service__ingest_delta_ms=svc["delta_ack_ms"],
            service__fresh_read_s=svc["fresh_read_s"],
            service__snapshot_s=mine["snapshot"] / cycles,
            service__snapshot_builds_per_delta=svc["snapshot_builds_per_delta"],
            service__snapshot_builds_cached=svc["snapshot_builds_cached"],
            service__render_s=mine["render"] / cycles,
            service__disk_tier_read_ms=svc["disk_tier_read_ms"],
            service__cache_hit_ratio=svc["cache_hit_ratio"],
            service__not_modified=svc["not_modified"],
            service__ingest_failed=svc["ingest_failed"],
            **_untraced_layers(res),
            **_trace_layers(run, summary, res["replay"]["untraced_s"]),
        )
    return out


def _result(run: Run, setup_s: float, res: dict, checks: dict) -> dict:
    """Counts and end-to-end metrics of one run.

    ``ok_frac`` is taken over the builds, ingests, renders and output
    checks, not over the thousands of cached reads, so a single failed
    check moves it by more than its bound.  A failed read still makes the
    run incorrect.
    """
    failed_checks = [name for name, ok in checks.items() if not ok]
    ops = res["ops"] + len(checks)
    ops_failed = res.get("failed_ops", 0) + len(failed_checks)
    reads = res.get("reads", {"latencies": [], "failed": 0})
    failed = ops_failed + reads["failed"]
    return {
        "correct": not failed,
        "attempted": ops + len(reads["latencies"]),
        "failed": failed,
        "failed_checks": failed_checks + res.get("errors", []),
        "end_to_end": _end_to_end(
            setup_s, res["phases"], 1.0 - ops_failed / ops
        ),
        "samples": len(reads["latencies"]),
    }


WORKLOADS = {
    "study_medium": study_medium,
    "study_sharded_medium": study_sharded_medium,
    "service_medium": service_medium,
}


def _report(workload: str, out: dict, trace: bool) -> dict:
    """Print one workload's figures by name; returns its JSON metrics."""
    units = dict(PER_LAYER if trace else END_TO_END)
    values = out["layers"] if trace else out["end_to_end"]
    print(f"== {workload}: correct={out['correct']} "
          f"attempted={out['attempted']} failed={out['failed']}")
    for name in out["failed_checks"]:
        print(f"   FAILED {name}")
    for name, value in values.items():
        note = ""
        if name.startswith("read.ms"):
            note = f"  (n={out['samples']})"
        print(f"   {name:<36} {value:>16.6g} {units[name]}{note}")
    if trace and values["trace.uncovered_frac"] > 1 - ATTRIBUTION_FLOOR:
        print(
            f"   attribution gate: named layers cover "
            f"{1 - values['trace.uncovered_frac']:.1%} of traced wall time "
            f"(< {ATTRIBUTION_FLOOR:.0%}); uncovered remainder "
            f"{values['trace.uncovered_frac'] * values['trace.total_s']:.3f} s"
        )
    return {
        name: {"value": value, "unit": units[name]}
        for name, value in values.items()
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=[*WORKLOADS, "all"]
    )
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--seconds", type=float, default=3.0,
        help="length of service_medium's cached-read loop (default 3)",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no package source at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    # SIGTERM unwinds like Ctrl-C, so every step's process group is killed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        run = Run(name, args.seed, args.seconds, bool(args.trace))
        try:
            out = WORKLOADS[name](run)
        except StepFailed as exc:
            print(f"perfbench: {name}: {exc}", file=sys.stderr)
            return 1
        finally:
            run.close()
        metrics = _report(name, out, bool(args.trace))
        if len(names) > 1:
            metrics = {f"{name}/{k}": v for k, v in metrics.items()}
        result["correct"] &= out["correct"]
        result["attempted"] += out["attempted"]
        result["failed"] += out["failed"]
        result["metrics"].update(metrics)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

"""Measurement helpers shared by the benchmark's child tasks.

Everything here observes the program from outside: wall clocks and CPU
times around calls into the package's public functions, counters read from
the metrics registry the package already keeps, and span aggregates from
the tracer the package already ships.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time
from typing import Any, Callable

SCALE = "medium"
#: The simulator seed of every workload's study.  Across simulator seeds a
#: medium study ranges from 1.4M to 4.6M released instances, which would
#: swamp any change under test, so the data stays fixed.  The benchmark
#: seed drives what varies around it on the service: payload partitioning,
#: arrival order and where each cached-read connection starts.
STUDY_SEED = 12


def emit(doc: dict[str, Any]) -> None:
    """Print the task's result as the last line of standard output."""
    sys.stdout.flush()
    print(json.dumps(doc, default=float), flush=True)


def cpu_seconds() -> float:
    """User + system CPU of this process and every child it has reaped."""
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def peak_rss_mb() -> float:
    """Largest RSS of this process or any child it has reaped (MB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def proc_cpu_seconds(pid: int) -> float:
    """User + system CPU of a live process, read from ``/proc``."""
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def proc_peak_rss_mb(pid: int) -> float:
    """High-water RSS of a live process (``VmHWM``), in MB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def timed(func: Callable[[], Any]) -> tuple[Any, float]:
    t0 = time.perf_counter()
    result = func()
    return result, time.perf_counter() - t0


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))  # ceil
    return ordered[int(rank) - 1]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def table_digest(table) -> str:
    """SHA-256 over a table's column names, dtypes and values, in order."""
    import numpy as np

    digest = hashlib.sha256()
    for name in table.column_names:
        array = np.asarray(table[name])
        digest.update(f"{name}:{array.dtype}:{len(array)}\n".encode())
        if array.dtype == object:
            digest.update("\x1f".join(map(repr, array.tolist())).encode())
        else:
            digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


def mapping_digest(mapping: dict) -> str:
    items = sorted((int(k), v) for k, v in mapping.items())
    return sha256(repr(items).encode())


def study_digests(released, enriched) -> dict[str, str]:
    """Digests of the released and enriched tables of one study."""
    return {
        "batch_catalog": table_digest(released.batch_catalog),
        "instances": table_digest(released.instances),
        "batch_html": mapping_digest(released.batch_html),
        "batch_table": table_digest(enriched.batch_table),
        "cluster_table": table_digest(enriched.cluster_table),
        "labels": table_digest(enriched.labels),
        "cluster_of_batch": mapping_digest(enriched.cluster_of_batch),
    }


def counter_deltas(before: dict[str, int]) -> dict[str, int]:
    from repro import obs

    return obs.counter_deltas(before, obs.REGISTRY.counter_values())


def counters() -> dict[str, int]:
    from repro import obs

    return obs.REGISTRY.counter_values()


def histogram_sum(name: str) -> float:
    from repro import obs

    raw = obs.REGISTRY.histogram_values().get(name)
    return float(raw["sum"]) if raw else 0.0


def trace_summary(
    trace, covers: Callable[[str], bool], total_s: float
) -> dict[str, Any]:
    """A finished trace as the orchestrator needs it.

    ``doc`` is the schema-v1 trace document, ``walls`` and ``counts`` come
    from the package's ``aggregate_by_name``, and ``covered_frac`` is the
    share of ``total_s`` that the spans named by ``covers`` cover in this
    process (pool-worker spans overlap the parent's and are left out).
    """
    from repro import obs

    doc = obs.trace_to_dict(trace)
    totals = obs.aggregate_by_name(doc)
    pid = os.getpid()
    covered = covered_seconds([
        (s["start_s"], s["start_s"] + s["wall_s"])
        for s in doc["spans"]
        if s["pid"] == pid and covers(s["name"])
    ])
    return {
        "doc": doc,
        "walls": {name: agg["wall_s"] for name, agg in totals.items()},
        "counts": {name: agg["count"] for name, agg in totals.items()},
        "total_s": total_s,
        "covered_frac": covered / total_s,
    }


def covered_seconds(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total

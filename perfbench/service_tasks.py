"""Child tasks for the ``service_medium`` workload.

Set-up is two tasks: ``payloads`` cuts the study into seed-partitioned
ingest payloads (pre-encoded JSON files), and ``service_reference`` computes the
digest of every checked route from the one-shot batch study.  ``service``
starts ``repro serve --ingest`` as a subprocess and drives it from one
client: bulk load, delta cycles with a fresh read each, a fresh read of
every checked route against the reference ETags, and a closed loop of
cached reads.  With ``traced`` it then replays the same payloads in
process, once untraced and once under the package's tracer.
"""

from __future__ import annotations

import json
import os
import re
import select
import subprocess
import sys
import threading
import time
from pathlib import Path
from statistics import median

from measure import (
    SCALE,
    STUDY_SEED,
    cpu_seconds,
    peak_rss_mb,
    proc_cpu_seconds,
    proc_peak_rss_mb,
    sha256,
    trace_summary,
)

#: Bulk payloads carrying all but the delta batches (~700k instance rows
#: each at medium).
BULK_PAYLOADS = 3
#: Delta cycles; each ingests whole new batches worth ~1% of the instances.
DELTA_CYCLES = 2
DELTA_SHARE = 0.01
#: The figure read right after each delta.  Any enriched route forces the
#: rebuild; this one renders in about a millisecond, so the read measures
#: the rebuild, not the figure.
FRESH_FIGURE = "fig06_cluster_sizes"
#: The server exits on its own after this long, even if its client died
#: without killing it.
SERVER_LIFETIME_S = 170
READ_CONNECTIONS = 2
#: Reads of each route in a row in the loop: one plain read, then
#: conditional ones, as a poller holding the ETag.  With two conditional
#: reads per plain one, the median falls inside the 304 latencies instead
#: of on the gap between 304s and full bodies, where it flips between runs.
READS_PER_ROUTE = 3
#: Checked but left out of the read loop.  Its body (the pooled trust CDF,
#: 84 MB at medium) exceeds the response cache's 64 MB memory tier: each
#: admission evicts every other body, so in the loop it would push every
#: read to the disk tier and take over 80% of the time.  One conditional
#: read of it after the loop, served from the disk tier, is reported as
#: ``service.disk_tier_read_ms``.
DISK_TIER_ROUTE = "/tables/trust_cdf"


# --------------------------------------------------------------------- #
# Set-up: payloads and reference digests
# --------------------------------------------------------------------- #


def _take(table, mask):
    from repro.tables import Table
    import numpy as np

    idx = np.flatnonzero(mask)
    return Table(
        {name: np.asarray(table[name])[idx] for name in table.column_names},
        copy=False,
    )


def _payload(released, config_key: str, batches) -> tuple[dict, int]:
    import numpy as np

    from repro.service.codec import WIRE_SCHEMA_VERSION, encode_table

    catalog_mask = np.isin(released.batch_catalog["batch_id"], batches)
    instance_mask = np.isin(released.instances["batch_id"], batches)
    payload = {"schema": WIRE_SCHEMA_VERSION, "config_key": config_key}
    if catalog_mask.any():
        payload["catalog"] = encode_table(
            _take(released.batch_catalog, catalog_mask)
        )
    rows = int(instance_mask.sum())
    if rows:
        payload["instances"] = encode_table(
            _take(released.instances, instance_mask)
        )
    html = {
        str(int(b)): released.batch_html[int(b)]
        for b in batches if int(b) in released.batch_html
    }
    if html:
        payload["html"] = html
    return payload, rows


def plan_batches(released, seed: int):
    """Delta batch sets (~1% of instances each) and balanced bulk sets."""
    import numpy as np

    rng = np.random.default_rng(seed)
    catalog_ids = np.asarray(released.batch_catalog["batch_id"])
    ids, counts = np.unique(released.instances["batch_id"], return_counts=True)
    if not set(ids.tolist()) <= set(catalog_ids.tolist()) or not set(
        released.batch_html
    ) <= set(catalog_ids.tolist()):
        raise RuntimeError("released batches missing from the catalog")
    rows_of = dict(zip(ids.tolist(), counts.tolist()))
    target = DELTA_SHARE * int(counts.sum())
    candidates = [
        int(b) for b in rng.permutation(ids) if int(b) in released.batch_html
    ]
    deltas = []
    for _ in range(DELTA_CYCLES):
        chosen, rows = [], 0
        while rows < target:
            batch = candidates.pop()
            chosen.append(batch)
            rows += rows_of[batch]
        deltas.append(chosen)
    taken = {b for chosen in deltas for b in chosen}
    bulk: list[list[int]] = [[] for _ in range(BULK_PAYLOADS)]
    load = [0] * BULK_PAYLOADS
    for batch in rng.permutation(catalog_ids).tolist():
        if batch in taken:
            continue
        i = load.index(min(load))
        bulk[i].append(batch)
        load[i] += rows_of.get(batch, 0)
    return bulk, deltas


def _released():
    from repro.dataset.release import release_dataset
    from repro.simulator.config import SimulationConfig
    from repro.simulator.engine import simulate_marketplace

    config = SimulationConfig.preset(SCALE, seed=STUDY_SEED)
    state = simulate_marketplace(config)
    return config, state, release_dataset(state, config)


def payloads(seed: int, out: Path) -> dict:
    """Cut the study into seed-partitioned payload files plus a manifest."""
    from repro import cache as study_cache

    config, _state, released = _released()
    config_key = study_cache.study_key(config)
    bulk, deltas = plan_batches(released, seed)
    manifest: dict = {"bulk": [], "deltas": []}
    for kind, sets in (("bulk", bulk), ("deltas", deltas)):
        for i, batches in enumerate(sets):
            payload, rows = _payload(released, config_key, batches)
            path = out / f"{kind}{i}.json"
            path.write_bytes(json.dumps(payload).encode("utf-8"))
            manifest[kind].append({"file": path.name, "instance_rows": rows})
            del payload
    (out / "manifest.json").write_text(json.dumps(manifest, indent=1))
    return {"payloads": len(bulk) + len(deltas)}


def service_reference() -> dict:
    """Digest of every checked route's body in the one-shot batch study.

    The bodies are rendered through the service's own pure helpers.  The
    stream tables are the one-shot forms the service's merge algebra must
    equal: the sorted catalog, a one-pass rollup, a one-sample CDF and a
    one-pass histogram.  ``/tables/instances`` is left out of the check and
    the read loop: it is the whole instance log (about 215 MB of JSON at
    medium), and rendering it on both sides would cost more than the rest
    of the check together.
    """
    import numpy as np

    from repro.enrichment.pipeline import enrich_dataset
    from repro.figures.suite import FigureSuite
    from repro.service.app import (
        ENRICHED_TABLES, fidelity_body, figure_body, figure_names,
        table_body,
    )
    from repro.service.state import (
        batch_rollup, duration_hist_table, duration_histogram,
        trust_cdf_table,
    )
    from repro.stats.cdf import EmpiricalCDF

    config, state, released = _released()
    instances = released.instances
    stream = {
        "catalog": released.batch_catalog.take(np.argsort(
            released.batch_catalog["batch_id"], kind="stable")),
        "batch_rollup": batch_rollup(instances),
        "trust_cdf": trust_cdf_table(
            EmpiricalCDF.from_sample(instances["trust"])),
        "duration_hist": duration_hist_table(duration_histogram(instances)),
    }
    digests = {
        f"/tables/{name}": sha256(table_body(table))
        for name, table in stream.items()
    }
    enriched = enrich_dataset(released, config)
    for name in ENRICHED_TABLES:
        digests[f"/tables/{name}"] = sha256(
            table_body(getattr(enriched, name))
        )
    figures = FigureSuite(state=state, released=released, enriched=enriched)
    for name in figure_names():
        digests[f"/figures/{name}"] = sha256(
            figure_body(getattr(figures, name)())
        )
    digests["/fidelity"] = sha256(fidelity_body(figures))
    return {"routes": digests}


# --------------------------------------------------------------------- #
# The server under test
# --------------------------------------------------------------------- #


class Server:
    """``repro serve --ingest`` in a subprocess, killed on every exit path."""

    def __init__(self):
        env = dict(os.environ, PYTHONUNBUFFERED="1")
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve", "--ingest",
                "--scale", SCALE, "--seed", str(STUDY_SEED),
                "--host", "127.0.0.1", "--port", "0",
                "--duration", str(SERVER_LIFETIME_S),
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            env=env,
        )
        try:
            self.port = self._read_port(deadline=time.monotonic() + 60)
        except BaseException:
            self.stop()
            raise

    def _read_port(self, deadline: float) -> int:
        line = b""
        while not line.endswith(b"\n"):
            left = deadline - time.monotonic()
            if left <= 0 or self.proc.poll() is not None:
                raise RuntimeError("service did not report its port")
            ready, _, _ = select.select([self.proc.stdout], [], [], left)
            if ready:
                chunk = os.read(self.proc.stdout.fileno(), 4096)
                if not chunk:
                    raise RuntimeError("service closed stdout before its port")
                line += chunk
        match = re.search(rb"http://127\.0\.0\.1:(\d+)", line)
        if match is None:
            raise RuntimeError(f"unexpected service banner {line!r}")
        return int(match.group(1))

    @property
    def pid(self) -> int:
        return self.proc.pid

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait(timeout=30)
        if self.proc.stdout is not None:
            self.proc.stdout.close()


def _client(port: int):
    from repro.service.client import ServiceClient

    return ServiceClient("127.0.0.1", port, timeout=150)


def _wait_healthy(client, deadline: float) -> None:
    while True:
        try:
            if client.get("/healthz")[0] == 200:
                return
        except OSError:
            pass
        if time.monotonic() > deadline:
            raise RuntimeError("service never answered /healthz")
        time.sleep(0.05)


def scrape(client) -> dict[str, float]:
    """The server's ``/metrics`` as ``{sample name: value}`` (no labels)."""
    status, _, body = client.get("/metrics")
    if status != 200:
        raise RuntimeError(f"GET /metrics -> {status}")
    samples = {}
    for line in body.decode().splitlines():
        if line and not line.startswith("#") and "{" not in line:
            name, value = line.rsplit(" ", 1)
            samples[name] = float(value)
    return samples


def _moved(after: dict, before: dict, name: str) -> float:
    return after.get(name, 0.0) - before.get(name, 0.0)


# --------------------------------------------------------------------- #
# The client workload
# --------------------------------------------------------------------- #


class Ops:
    """Attempted/failed operation counts (thread-safe)."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self._lock = threading.Lock()

    def record(self, ok: bool, what: str) -> bool:
        with self._lock:
            self.attempted += 1
            if not ok:
                self.failed += 1
                if len(self.errors) < 10:
                    self.errors.append(what)
        return ok


def _ingest(client, body: bytes, ops: Ops) -> float:
    t0 = time.perf_counter()
    status, _, data = client.request(
        "POST", "/ingest", body=body,
        headers={"Content-Type": "application/json"},
    )
    elapsed = time.perf_counter() - t0
    ops.record(status == 200, f"POST /ingest -> {status} {data[:200]!r}")
    return elapsed


def _read_loop(port: int, routes: list[str], etags: dict[str, str],
               seconds: float, offset: int, out: list, reads: Ops) -> None:
    """One keep-alive connection reading each route ``READS_PER_ROUTE``
    times in a row, starting at route ``offset``."""
    client = _client(port)
    latencies = []
    try:
        deadline = time.perf_counter() + seconds
        i = offset * READS_PER_ROUTE
        while True:
            t0 = time.perf_counter()
            if t0 >= deadline:
                break
            route = routes[(i // READS_PER_ROUTE) % len(routes)]
            conditional = i % READS_PER_ROUTE != 0
            status, _, _ = client.get(
                route, etag=etags[route] if conditional else None
            )
            latencies.append(time.perf_counter() - t0)
            reads.record(
                status == (304 if conditional else 200),
                f"GET {route} -> {status}",
            )
            i += 1
    finally:
        client.close()
        out.extend(latencies)


def service(seed: int, seconds: float, run_dir: Path, traced: bool) -> dict:
    manifest = json.loads((run_dir / "manifest.json").read_text())
    bulk = [(run_dir / p["file"]).read_bytes() for p in manifest["bulk"]]
    deltas = [(run_dir / p["file"]).read_bytes() for p in manifest["deltas"]]
    reference = json.loads((run_dir / "reference.json").read_text())["routes"]
    routes = sorted(reference)
    etags = {route: f'"{digest}"' for route, digest in reference.items()}
    ops = Ops()  # ingests, fresh reads and route checks
    reads = Ops()  # the cached-read loop

    t_start = time.perf_counter()
    server = Server()
    try:
        client = _client(server.port)
        _wait_healthy(client, time.monotonic() + 60)
        start_s = time.perf_counter() - t_start

        cpu0, server_cpu0 = cpu_seconds(), proc_cpu_seconds(server.pid)
        m0 = scrape(client)
        bulk_lat = [_ingest(client, body, ops) for body in bulk]
        m_bulk = scrape(client)

        cycles = []
        m_prev = m_bulk
        for body in deltas:
            ack = _ingest(client, body, ops)
            t0 = time.perf_counter()
            status, _, _ = client.get(f"/figures/{FRESH_FIGURE}")
            fresh = time.perf_counter() - t0
            ops.record(status == 200, f"fresh read -> {status}")
            m_cycle = scrape(client)
            cycles.append({
                "ack_s": ack,
                "fresh_s": fresh,
                "snapshot_builds": _moved(
                    m_cycle, m_prev, "repro_serve_snapshot_builds_total"),
                "docs_shingled": _moved(
                    m_cycle, m_prev, "repro_cluster_shingle_docs_total"),
            })
            m_prev = m_cycle

        # Fresh read of every checked route at the final version, sent
        # with the reference ETag: 304 means the served bytes hash to the
        # one-shot batch study's bytes.
        figures_s = 0.0
        mismatched = []
        for route in routes:
            t0 = time.perf_counter()
            status, _, _ = client.get(route, etag=etags[route])
            if route.startswith("/figures/") or route == "/fidelity":
                figures_s += time.perf_counter() - t0
            if not ops.record(status == 304, f"check {route} -> {status}"):
                mismatched.append(route)
        m_checked = scrape(client)

        latencies: list[float] = []
        loop_routes = [r for r in routes if r != DISK_TIER_ROUTE]
        threads = [
            threading.Thread(
                target=_read_loop,
                args=(server.port, loop_routes, etags, seconds,
                      seed + k * len(loop_routes) // 2, latencies, reads),
            )
            for k in range(READ_CONNECTIONS)
        ]
        t0 = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        read_wall = time.perf_counter() - t0
        m_end = scrape(client)
        t0 = time.perf_counter()
        status, _, _ = client.get(
            DISK_TIER_ROUTE, etag=etags[DISK_TIER_ROUTE]
        )
        disk_tier_s = time.perf_counter() - t0
        ops.record(status == 304, f"GET {DISK_TIER_ROUTE} -> {status}")
        client.close()
        cpu_s = (cpu_seconds() - cpu0) + (
            proc_cpu_seconds(server.pid) - server_cpu0
        )
        peak = max(peak_rss_mb(), proc_peak_rss_mb(server.pid))
    finally:
        server.stop()

    bulk_rows = sum(p["instance_rows"] for p in manifest["bulk"])
    hits = _moved(m_end, m_checked, "repro_serve_cache_hits_total")
    misses = _moved(m_end, m_checked, "repro_serve_cache_misses_total")
    server_ingest_s = _moved(m_end, m0, "repro_serve_ingest_seconds_sum")
    result = {
        "phases": {
            "start_s": start_s,
            "build_cold_s": sum(bulk_lat),
            "build_warm_s": median([c["fresh_s"] for c in cycles]),
            "figures_s": figures_s,
            "cpu_s": cpu_s,
            "peak_rss_mb": peak,
        },
        "reads": {
            "latencies": latencies, "wall": read_wall, "failed": reads.failed,
        },
        "ops": ops.attempted,
        "failed_ops": ops.failed,
        "errors": ops.errors + reads.errors,
        "checks": {"routes_match_batch_study": not mismatched},
        "mismatched_routes": mismatched,
        "service": {
            "bulk_rows": bulk_rows,
            "bulk_rows_per_s": bulk_rows / sum(bulk_lat),
            "delta_ack_ms": median([c["ack_s"] for c in cycles]) * 1e3,
            "fresh_read_s": median([c["fresh_s"] for c in cycles]),
            "ingest_s": server_ingest_s,
            "ingest_transport_s": (
                sum(bulk_lat) + sum(c["ack_s"] for c in cycles)
                - server_ingest_s
            ),
            "snapshot_builds_per_delta": median(
                [c["snapshot_builds"] for c in cycles]),
            "snapshot_builds_cached": _moved(
                m_end, m_checked, "repro_serve_snapshot_builds_total"),
            "docs_shingled_per_delta": median(
                [c["docs_shingled"] for c in cycles]),
            "disk_tier_read_ms": disk_tier_s * 1e3,
            "cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "not_modified": _moved(
                m_end, m_checked, "repro_serve_not_modified_total"),
            "ingest_failed": _moved(
                m_end, m0, "repro_serve_ingest_failed_total"),
            "cache_corrupt": _moved(m_end, m0, "repro_cache_corrupt_total"),
            "pool_retries": _moved(
                m_end, m0, "repro_parallel_pool_retries_total"),
            "serial_fallback": _moved(
                m_end, m0, "repro_parallel_serial_fallback_total"),
        },
    }
    if traced:
        result["replay"] = replay(bulk, deltas)
    return result


def replay(bulk: list[bytes], deltas: list[bytes]) -> dict:
    """The same payloads through ``ServiceState`` in process, first
    untraced and then traced; the difference is the tracing overhead."""
    import repro.enrichment.pipeline  # noqa: F401  imported by snapshot();
    import repro.figures.suite  # noqa: F401  loaded before either pass
    import repro.study  # noqa: F401
    from repro import obs

    untraced_s = _replay(bulk, deltas)
    trace = obs.enable(f"perfbench service_{SCALE} replay")
    total = _replay(bulk, deltas)
    obs.finish()
    return {
        "trace": trace_summary(
            trace, lambda name: name.startswith("bench.service."), total
        ),
        "untraced_s": untraced_s,
    }


def _replay(bulk: list[bytes], deltas: list[bytes]) -> float:
    """Ingest every payload into a fresh state, reading the fresh figure
    after each delta; returns the wall time.  The spans are no-ops unless
    the tracer is on."""
    from repro import obs
    from repro.service.app import figure_body
    from repro.service.state import ServiceState
    from repro.simulator.config import SimulationConfig

    state = ServiceState(SimulationConfig.preset(SCALE, seed=STUDY_SEED))
    t0 = time.perf_counter()
    for body in bulk:
        with obs.span("bench.service.decode"):
            payload = json.loads(body)
        with obs.span("bench.service.ingest"):
            state.ingest(payload)
        del payload
    for body in deltas:
        with obs.span("bench.service.decode"):
            payload = json.loads(body)
        with obs.span("bench.service.ingest"):
            state.ingest(payload)
        with obs.span("bench.service.snapshot"):
            snapshot = state.snapshot()
        with obs.span("bench.service.render"):
            figure_body(getattr(snapshot.figures, FRESH_FIGURE)())
    return time.perf_counter() - t0

#!/usr/bin/env python
"""Mixed read/ingest load harness for the incremental service.

Starts an in-process ``repro.service`` server (the same
``ThreadingHTTPServer`` path ``repro serve --ingest`` uses), pre-folds a
synthetic standing state, then drives it from concurrent keep-alive
clients with the service's steady-state mix: mostly cached table reads
(some conditional, exercising the 304 path), with a small fresh
micro-batch ingested every ``--ingest-every`` operations — so the
response cache is continuously invalidated and re-filled while being
read, which is exactly the contention the ETag/versioning design must
absorb.

Acceptance (exit 1 when violated):

- sustained throughput >= ``--min-rps`` requests/s (default 1000);
- p99 latency across all operations <= ``--p99-budget-ms`` (default 150).

``--update-baseline`` records the measured numbers under the
``service_load`` key of ``BENCH_substrate.json``, preserving every other
key (``scripts/bench_guard.py`` owns the rest of the file).
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np  # noqa: E402

BASELINE_PATH = REPO_ROOT / "BENCH_substrate.json"

#: Routes the read side cycles through — the instance aggregates a
#: dashboard polls (small bodies; no enrichment pass under load).  The
#: full ``/tables/instances`` dump is excluded: its body grows with every
#: ingest, so steady-state load on it measures JSON size, not the server.
READ_ROUTES = (
    "/tables/batch_rollup",
    "/tables/trust_cdf",
    "/tables/duration_hist",
    "/tables/catalog",
)


def _payload(config, n_rows: int, id_base: int, seed: int) -> dict:
    from repro import cache as study_cache
    from repro.service.codec import WIRE_SCHEMA_VERSION, encode_table
    from repro.tables import Table

    rng = np.random.default_rng(seed)
    sources = np.array(["own", "chan-a", "chan-b"], dtype=object)
    countries = np.array(["US", "IN", "GB", "PH"], dtype=object)
    start = rng.integers(0, 10**6, size=n_rows)
    table = Table({
        "instance_id": np.arange(id_base, id_base + n_rows, dtype=np.int64),
        "batch_id": rng.integers(0, 200, size=n_rows),
        "item_id": rng.integers(0, 1_000, size=n_rows),
        "worker_id": rng.integers(0, 50, size=n_rows),
        "source": sources[rng.integers(0, len(sources), size=n_rows)],
        "country": countries[rng.integers(0, len(countries), size=n_rows)],
        "start_time": start,
        "end_time": start + rng.integers(1, 3_600, size=n_rows),
        "trust": rng.random(size=n_rows),
        "response": np.array(
            [f"resp-{id_base + i}" for i in range(n_rows)], dtype=object
        ),
    }, copy=False)
    catalog = Table({
        "batch_id": np.arange(id_base, id_base + 1, dtype=np.int64),
        "title": np.array([f"task {id_base}"], dtype=object),
        "created_at": np.array([id_base], dtype=np.int64),
        "sampled": np.array([True]),
    })
    return {
        "schema": WIRE_SCHEMA_VERSION,
        "config_key": study_cache.study_key(config),
        "instances": encode_table(table),
        "catalog": encode_table(catalog),
    }


class IdAllocator:
    """Hands out disjoint id ranges so concurrent ingests never clash."""

    def __init__(self, start: int):
        self._next = start
        self._lock = threading.Lock()

    def take(self, n: int) -> int:
        with self._lock:
            base = self._next
            self._next += n
            return base


def _worker(
    port: int,
    config,
    deadline: float,
    ingest_every: int,
    batch_rows: int,
    ids: IdAllocator,
    out: list,
    errors: list,
):
    from repro.service import ServiceClient

    client = ServiceClient("127.0.0.1", port)
    etags: dict[str, str] = {}
    samples: list[tuple[str, float]] = []
    op = 0
    try:
        while time.perf_counter() < deadline:
            op += 1
            t0 = time.perf_counter()
            if ingest_every and op % ingest_every == 0:
                base = ids.take(max(batch_rows, 1))
                client.ingest(
                    _payload(config, batch_rows, base, seed=base)
                )
                samples.append(("ingest", time.perf_counter() - t0))
            else:
                path = READ_ROUTES[op % len(READ_ROUTES)]
                status, headers, body = client.get(
                    path, etag=etags.get(path)
                )
                if status == 200:
                    etags[path] = headers["etag"]
                    kind = "read"
                elif status == 304:
                    kind = "read_304"
                else:
                    raise RuntimeError(f"GET {path} -> {status}")
                samples.append((kind, time.perf_counter() - t0))
    except Exception as exc:  # noqa: BLE001 - reported by the main thread
        errors.append(f"{type(exc).__name__}: {exc}")
    finally:
        client.close()
        out.extend(samples)


def _percentile(latencies: list[float], q: float) -> float:
    return float(np.percentile(np.asarray(latencies), q)) if latencies else 0.0


def run_load(args) -> dict:
    from repro.obs.live import TelemetryServer
    from repro.service import ServiceApp
    from repro.simulator.config import SimulationConfig

    config = SimulationConfig.preset("tiny", seed=7)
    app = ServiceApp(config)
    app.state.ingest(_payload(config, args.standing_rows, 0, seed=1))
    server = TelemetryServer(port=0, app=app).start()
    ids = IdAllocator(start=10**7)
    samples: list[tuple[str, float]] = []
    errors: list[str] = []
    try:
        deadline = time.perf_counter() + args.duration
        t_start = time.perf_counter()
        threads = [
            threading.Thread(
                target=_worker,
                args=(server.port, config, deadline, args.ingest_every,
                      args.batch_rows, ids, samples, errors),
                daemon=True,
            )
            for _ in range(args.clients)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        elapsed = time.perf_counter() - t_start
    finally:
        server.stop()
    if errors:
        raise RuntimeError(f"{len(errors)} worker error(s): {errors[:3]}")

    latencies = [s for _, s in samples]
    by_kind: dict[str, int] = {}
    for kind, _ in samples:
        by_kind[kind] = by_kind.get(kind, 0) + 1
    return {
        "clients": args.clients,
        "duration_s": round(elapsed, 3),
        "requests": len(samples),
        "req_s": round(len(samples) / elapsed, 1),
        "p50_ms": round(_percentile(latencies, 50) * 1e3, 3),
        "p99_ms": round(_percentile(latencies, 99) * 1e3, 3),
        "mix": by_kind,
        "ingested_rows": by_kind.get("ingest", 0) * args.batch_rows,
    }


def update_baseline(result: dict) -> None:
    baseline = (
        json.loads(BASELINE_PATH.read_text())
        if BASELINE_PATH.exists() else {}
    )
    baseline["service_load"] = result
    BASELINE_PATH.write_text(json.dumps(baseline, indent=2) + "\n")
    print(f"load_service: recorded service_load in {BASELINE_PATH.name}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--duration", type=float, default=4.0,
                        help="seconds of sustained load (default 4)")
    parser.add_argument("--clients", type=int, default=8,
                        help="concurrent client threads (default 8)")
    parser.add_argument("--ingest-every", type=int, default=100,
                        help="every Nth op per client is an ingest "
                        "(default 100; 0 disables ingests)")
    parser.add_argument("--batch-rows", type=int, default=40,
                        help="instance rows per ingested micro-batch")
    parser.add_argument("--standing-rows", type=int, default=10_000,
                        help="rows pre-folded before load starts")
    parser.add_argument("--min-rps", type=float, default=1000.0,
                        help="throughput floor, requests/s (default 1000)")
    parser.add_argument("--p99-budget-ms", type=float, default=150.0,
                        help="p99 latency budget in ms (default 150)")
    parser.add_argument("--update-baseline", action="store_true",
                        help="record results under 'service_load' in "
                        f"{BASELINE_PATH.name}")
    parser.add_argument("--json", action="store_true",
                        help="print the result as JSON only")
    args = parser.parse_args()

    result = run_load(args)
    if args.json:
        print(json.dumps(result, indent=2))
    else:
        print(
            f"load_service: {result['requests']} requests in "
            f"{result['duration_s']}s from {args.clients} clients -> "
            f"{result['req_s']} req/s "
            f"(p50 {result['p50_ms']} ms, p99 {result['p99_ms']} ms)"
        )
        print(f"load_service: mix {result['mix']}")
    if args.update_baseline:
        update_baseline(result)

    failures = []
    if result["req_s"] < args.min_rps:
        failures.append(
            f"throughput {result['req_s']} req/s < floor {args.min_rps}"
        )
    if result["p99_ms"] > args.p99_budget_ms:
        failures.append(
            f"p99 {result['p99_ms']} ms > budget {args.p99_budget_ms} ms"
        )
    if failures:
        for line in failures:
            print(f"load_service: FAIL: {line}", file=sys.stderr)
        return 1
    print(
        f"load_service: OK (>= {args.min_rps:.0f} req/s, "
        f"p99 <= {args.p99_budget_ms:.0f} ms)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env bash
# Reproduce everything: tests, figures, benchmarks, validation.
#
# Usage: scripts/reproduce_all.sh [output_dir]
#
# Produces, under the output directory (default: ./reproduction_output):
#   test_output.txt    - full unit/integration/property test run
#   test_workers2.txt  - the same suite with REPRO_WORKERS=2 (pool paths hot)
#   coverage_gate.txt  - line-coverage gate over the gated packages
#   bench_guard.txt    - substrate perf guard vs BENCH_substrate.json
#   bench_output.txt   - per-figure benchmark run (paper shapes asserted)
#   bench_report.txt   - the paper-vs-measured report (copied from repo root)
#   validation.txt     - the calibration checklist at small scale
#   trace_medium.json  - span trace of an uncached medium-scale report run
#   trace_summary.txt  - per-phase wall/CPU totals from that trace
#   report_clean.txt   - medium-scale report, healthy environment
#   report_faulted.txt - the same report under injected faults (must diff clean)
#   report_sharded.txt - the same report built over 4 shards (must diff clean)
#   report_skewed.txt  - the 4-shard report with an injected straggler shard
#                        under a live pool: work stealing reschedules, bytes
#                        must not change (must diff clean)
#   report_eager.txt   - the same report with the plan optimizer replaced by
#                        the identity (must diff clean)
#   report_sampled.txt - the same report with --sample resource telemetry
#                        recording a utilization timeline (must diff clean)
#   report_live.txt    - the 4-shard report built with --live while curls
#                        hit /metrics, /events, and / (must diff clean)
#   live_metrics.txt   - a mid-build Prometheus /metrics scrape of that run
#   service_batch.txt  - every service route (tables, figures, fidelity)
#                        rendered locally from the one-shot batch study
#   service_incremental.txt - the same routes read back over HTTP after
#                        ingesting the study as 3 shuffled micro-batches
#                        (must diff service_batch.txt byte for byte)
#   figures/           - every paper figure as SVG
#   dataset/           - an exported released dataset (small scale)
#   workload.json      - the derived crowdsourcing workload
#   ledger/            - the persistent run ledger recorded by this pipeline
#   runs_report.html   - dashboard over the ledger (repro runs report)

set -euo pipefail
cd "$(dirname "$0")/.."

OUT="${1:-reproduction_output}"
mkdir -p "$OUT"

# Every study/bench run below records into a pipeline-local ledger, so the
# final drift check compares this pipeline's runs against each other.
export REPRO_LEDGER_DIR="$OUT/ledger"

echo "== 1/18 tests =="
python -m pytest tests/ 2>&1 | tee "$OUT/test_output.txt" | tail -1

echo "== 2/18 tests again with a live process pool (REPRO_WORKERS=2) =="
REPRO_WORKERS=2 python -m pytest tests/ 2>&1 | tee "$OUT/test_workers2.txt" | tail -1

echo "== 3/18 coverage gate (src/repro/{shard,tables,obs,parallel,service,html,cache,ml,enrichment} >= 85%) =="
python scripts/coverage_gate.py 2>&1 | tee "$OUT/coverage_gate.txt" | tail -2

echo "== 4/18 substrate bench guard (fails on >25% regression vs BENCH_substrate.json) =="
python scripts/bench_guard.py 2>&1 | tee "$OUT/bench_guard.txt" | tail -1

echo "== 5/18 benchmarks (medium scale, regenerates every table & figure) =="
python -m pytest benchmarks/ --benchmark-only 2>&1 | tee "$OUT/bench_output.txt" | tail -1
cp bench_report.txt "$OUT/bench_report.txt"

echo "== 6/18 validation checklist =="
python -m repro validate --scale small --seed 7 2>&1 | tee "$OUT/validation.txt" | tail -1

echo "== 7/18 traced medium-scale report (writes trace_medium.json) =="
python -m repro report --scale medium --seed 7 --no-cache \
    --trace --trace-out "$OUT/trace_medium.json" > /dev/null
python -m repro trace "$OUT/trace_medium.json" --no-tree > "$OUT/trace_summary.txt"
head -7 "$OUT/trace_summary.txt"

echo "== 8/18 failure injection (faulted medium report must match the clean one) =="
python -m repro report --scale medium --seed 7 --no-cache \
    > "$OUT/report_clean.txt"
# REPRO_NO_LEDGER: a deliberately degraded diagnostic run must not become a
# baseline (or a candidate) for the drift check in step 17.
REPRO_CACHE_DIR="$OUT/fault_cache" REPRO_WORKERS=2 PYTHONWARNINGS=ignore \
    REPRO_NO_LEDGER=1 \
    python -m repro report --scale medium --seed 7 \
    --faults 'cache.write:fail@1,pool.spawn:fail@1,pool.chunk:fail@1' \
    > "$OUT/report_faulted.txt"
diff "$OUT/report_clean.txt" "$OUT/report_faulted.txt"   # set -e: a diff is fatal
rm -rf "$OUT/fault_cache"
echo "faulted run identical to clean run"

echo "== 9/18 sharded execution (4-shard medium report must match the monolithic one) =="
# A private cache dir forces a genuine sharded build: the diff must prove
# byte identity of the pipeline, not a warm hit on the monolithic entry.
REPRO_CACHE_DIR="$OUT/shard_cache" \
    python -m repro report --scale medium --seed 7 --shards 4 \
    > "$OUT/report_sharded.txt"
diff "$OUT/report_clean.txt" "$OUT/report_sharded.txt"   # set -e: a diff is fatal
rm -rf "$OUT/shard_cache"
echo "sharded run identical to monolithic run"

echo "== 10/18 skewed shards (straggler + work stealing must not change bytes) =="
# shard.build:sleep@1 makes shard 0 a deterministic straggler; under a live
# 2-worker pool the as-completed dispatcher reschedules the remaining shards
# around it.  Scheduling must never leak into the output bytes.
REPRO_CACHE_DIR="$OUT/skew_cache" REPRO_WORKERS=2 REPRO_NO_LEDGER=1 \
    python -m repro report --scale medium --seed 7 --shards 4 \
    --faults 'shard.build:sleep@1' \
    > "$OUT/report_skewed.txt"
diff "$OUT/report_clean.txt" "$OUT/report_skewed.txt"   # set -e: a diff is fatal
rm -rf "$OUT/skew_cache"
echo "skewed sharded run identical to clean run"

echo "== 11/18 plan optimizer off (an unoptimized report must match the optimized one) =="
# A private cache dir forces a genuine rebuild with every lazy plan run
# exactly as recorded (optimize() patched to the identity); the diff proves
# the plan optimizer never changes a single byte.
REPRO_CACHE_DIR="$OUT/eager_cache" REPRO_NO_LEDGER=1 \
    python - > "$OUT/report_eager.txt" <<'PY'
from unittest import mock

from repro.cli import main
from repro.tables import plan

with mock.patch.object(plan, "optimize", lambda node: node):
    raise SystemExit(main(["report", "--scale", "medium", "--seed", "7"]))
PY
diff "$OUT/report_clean.txt" "$OUT/report_eager.txt"   # set -e: a diff is fatal
rm -rf "$OUT/eager_cache"
echo "unoptimized run identical to optimized run"

echo "== 12/18 resource telemetry (sampled 4-shard medium report must match the clean one) =="
# The sampler writes only into the run record, never to stdout: a sampled
# build must stay byte-identical.  A private cache dir forces a genuine
# sharded build so the record carries per-shard utilization intervals.
REPRO_CACHE_DIR="$OUT/sample_cache" \
    python -m repro report --scale medium --seed 7 --shards 4 --sample 25 \
    > "$OUT/report_sampled.txt"
diff "$OUT/report_clean.txt" "$OUT/report_sampled.txt"   # set -e: a diff is fatal
rm -rf "$OUT/sample_cache"
echo "sampled run identical to clean run"
python -m repro plan --scale tiny --seed 7 | tail -7

echo "== 13/18 live telemetry (served + probed 4-shard medium report must match the clean one) =="
# --live serves /metrics (Prometheus), /events (SSE), and the dashboard
# from inside the build process; the URL goes to stderr and the server
# never writes stdout, so a build polled and streamed mid-flight must stay
# byte-identical.  A private cache dir forces a genuine sharded build so
# shard progress events actually flow while the probes watch.
REPRO_CACHE_DIR="$OUT/live_cache" REPRO_NO_LEDGER=1 \
    python -m repro report --scale medium --seed 7 --shards 4 --live 8741 \
    > "$OUT/report_live.txt" 2> "$OUT/live_stderr.txt" &
LIVE_PID=$!
python - "$OUT" <<'EOF'
import json, sys, time, urllib.request

out, base = sys.argv[1], "http://127.0.0.1:8741"
deadline = time.monotonic() + 120.0
while True:  # wait for the in-build server to come up
    try:
        with urllib.request.urlopen(base + "/healthz", timeout=1) as resp:
            assert json.loads(resp.read())["status"] == "ok"
        break
    except Exception:
        if time.monotonic() > deadline:
            raise SystemExit("live telemetry server never came up")
        time.sleep(0.1)
with urllib.request.urlopen(base + "/metrics", timeout=10) as resp:
    open(f"{out}/live_metrics.txt", "w").write(resp.read().decode())
with urllib.request.urlopen(
    base + "/events?limit=1&heartbeat=0.5", timeout=60
) as resp:
    stream = resp.read().decode()
assert "event: hello" in stream and "data: " in stream, stream
with urllib.request.urlopen(base + "/", timeout=10) as resp:
    assert "EventSource('/events')" in resp.read().decode()
print("live probes ok: /metrics, /events, and / all answered mid-build")
EOF
wait "$LIVE_PID"                                         # set -e: build failure is fatal
diff "$OUT/report_clean.txt" "$OUT/report_live.txt"      # set -e: a diff is fatal
grep -q '^repro_' "$OUT/live_metrics.txt"                # Prometheus exposition landed
rm -rf "$OUT/live_cache"
echo "live-served run identical to clean run"

echo "== 14/18 incremental service (3 shuffled HTTP micro-batches must match the batch study) =="
# repro serve --ingest hosts the marketplace-as-a-service write path.  The
# probe splits the medium study into 3 micro-batches, ingests them over
# HTTP in shuffled order, then reads every table, figure, and the fidelity
# probes back and writes one digest line per route; the same routes
# rendered locally from a one-shot batch fold produce the reference file.
# The diff is the fold's invariant made visible: partitioning and
# arrival order must never change a served byte.
REPRO_NO_LEDGER=1 python -m repro serve --ingest --scale medium --seed 7 \
    --port 8742 --duration 900 > "$OUT/service_stdout.txt" 2>&1 &
SERVE_PID=$!
python - "$OUT" <<'EOF'
import hashlib, sys, time

sys.path.insert(0, "src")
from repro import build_study
from repro.service import ServiceClient, split_study
from repro.service.app import (
    ENRICHED_TABLES, STREAM_TABLES, fidelity_body, figure_body,
    figure_names, table_body,
)
from repro.service.state import ServiceState
from repro.simulator.config import SimulationConfig

out = sys.argv[1]
client = ServiceClient("127.0.0.1", 8742, timeout=600)
deadline = time.monotonic() + 120.0
while True:  # wait for the service to come up
    try:
        client.status()
        break
    except Exception:
        if time.monotonic() > deadline:
            raise SystemExit("incremental service never came up")
        time.sleep(0.1)

study = build_study("medium", seed=7, cache=False)
payloads = split_study(study, 3, seed=7)
for i in (2, 0, 1):  # deliberately out-of-order arrival
    client.ingest(payloads[i])

# Reference: the same study folded in one shot, rendered locally through
# the service's own (pure) rendering helpers.
state = ServiceState(SimulationConfig.preset("medium", seed=7))
state.ingest(split_study(study, 1, seed=7)[0])
snapshot = state.snapshot()
local = {}
for name, (method, _layers) in STREAM_TABLES.items():
    local[f"/tables/{name}"] = table_body(getattr(state, method)())
for name in ENRICHED_TABLES:
    local[f"/tables/{name}"] = table_body(getattr(snapshot.enriched, name))
for name in figure_names():
    local[f"/figures/{name}"] = figure_body(getattr(snapshot.figures, name)())
local["/fidelity"] = fidelity_body(snapshot.figures)

digest = lambda body: hashlib.sha256(body).hexdigest()
with open(f"{out}/service_batch.txt", "w") as batch_file, \
        open(f"{out}/service_incremental.txt", "w") as incr_file:
    for path in sorted(local):
        status, headers, body = client.get(path)
        assert status == 200, f"GET {path} -> {status}"
        batch_file.write(f"{path} {len(local[path])} {digest(local[path])}\n")
        incr_file.write(f"{path} {len(body)} {digest(body)}\n")
status, headers2, _ = client.get("/tables/batch_rollup")
status304, _, _ = client.get("/tables/batch_rollup", etag=headers2["etag"])
assert status304 == 304, f"conditional re-read -> {status304}, want 304"
client.close()
print(f"service probe ok: {len(local)} routes read back after shuffled ingest")
EOF
kill "$SERVE_PID" 2>/dev/null || true
wait "$SERVE_PID" 2>/dev/null || true
diff "$OUT/service_batch.txt" "$OUT/service_incremental.txt"  # set -e: a diff is fatal
echo "incrementally ingested service identical to one-shot batch study"

echo "== 15/18 SVG figures =="
python -m repro figures --scale small --seed 7 --out "$OUT/figures"

echo "== 16/18 dataset export =="
python -m repro simulate --scale small --seed 7 --out "$OUT/dataset"

echo "== 17/18 workload derivation =="
python -m repro workload --scale small --seed 7 --out "$OUT/workload.json"

echo "== 18/18 run ledger: history, dashboard, drift check =="
python -m repro runs list
python scripts/bench_guard.py --history --top 5
python -m repro runs report --out "$OUT/runs_report.html"
# The step-12 sampled run must have landed a utilization timeline panel.
grep -q "Utilization timeline" "$OUT/runs_report.html"
python -m repro runs check   # set -e: perf/fidelity/RSS drift is fatal

echo "done: $OUT"

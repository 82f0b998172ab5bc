"""Marketplace-as-a-service: incremental ingest + HTTP serving.

The batch study is a pure function of ``(config, released data)``; this
package turns it into a long-running service.  ``POST /ingest`` accepts
schema-versioned micro-batches of catalog rows, instance rows, and task
HTML, folds their rows into *standing* tables with the shard layer's
partition- and order-invariant sorted union (:mod:`repro.shard.merge`)
— no rebuild — and ``GET /tables/<name>``, ``/figures/<name>``, and ``/fidelity`` serve every
paper table, figure, and fidelity probe with sha-256 ETags and an
in-memory, dependency-versioned response cache
(:mod:`repro.service.respcache`).  Every served result is computed from
the folded rows by the batch study's own functions.  Serving writes
nothing to disk.

The correctness contract, pinned by ``tests/test_service_equivalence.py``:
**N micro-batches ingested in any order and any partitioning produce
byte-identical served responses to the one-shot batch study.**

Modules
-------
- :mod:`repro.service.codec` — columnar wire format for tables and
  figure payloads (little-endian base64 column buffers, dictionary-coded
  strings, exact round trip, canonical bytes).
- :mod:`repro.service.state` — :class:`ServiceState`: the standing folds,
  the instance aggregates read from them, layer versions, and the
  memoized enriched snapshot.
- :mod:`repro.service.respcache` — :class:`ResponseCache`: per-route
  dependency-versioned caching with sha-256 ETags; bodies in a bounded
  memory LRU, re-rendered on a miss.
- :mod:`repro.service.app` — :class:`ServiceApp`: the routes, plugged
  into the PR 9 telemetry server (:mod:`repro.obs.live`).
- :mod:`repro.service.client` — payload splitting + a tiny HTTP client
  for the differential harness, the load harness, and scripts.
"""

from repro.service.app import ServiceApp
from repro.service.client import ServiceClient, split_study
from repro.service.codec import CodecError, decode_table, encode_table
from repro.service.state import IngestError, ServiceState

__all__ = [
    "CodecError",
    "IngestError",
    "ServiceApp",
    "ServiceClient",
    "ServiceState",
    "decode_table",
    "encode_table",
    "split_study",
]

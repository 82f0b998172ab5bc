"""Client-side helpers: micro-batch splitting and a stdlib HTTP client.

``split_study`` turns a batch :class:`~repro.study.Study` into ``k``
ingest payloads by *shuffled round-robin*: row order inside each payload
and the assignment of rows to payloads are both randomized (seeded), so
replaying the payloads in any order exercises the server's claim that
arrival order and partitioning are invisible.  The union of the payloads
is exactly the study's released layer — no row duplicated, none dropped.

``ServiceClient`` wraps :class:`http.client.HTTPConnection` (keep-alive,
reconnect on a dropped socket) — enough HTTP for the differential
harness, the fault tests, and the load generator, with zero third-party
dependencies.
"""

from __future__ import annotations

import json
import http.client
from typing import TYPE_CHECKING, Any, Iterable

import numpy as np

from repro.service.codec import WIRE_SCHEMA_VERSION, encode_table

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.study import Study


class ServiceError(RuntimeError):
    """A non-2xx response from the service."""

    def __init__(self, status: int, doc: Any):
        super().__init__(f"HTTP {status}: {doc}")
        self.status = status
        self.doc = doc


# --------------------------------------------------------------------- #
# Splitting a batch study into micro-batches
# --------------------------------------------------------------------- #


def _round_robin(n: int, k: int, rng: np.random.Generator) -> list[np.ndarray]:
    """``n`` indices shuffled, then dealt into ``k`` piles."""
    order = rng.permutation(n)
    return [order[i::k] for i in range(k)]


def split_study(study: "Study", k: int, *, seed: int = 0) -> list[dict]:
    """``k`` ingest payloads whose union is the study's released layer.

    Rows are shuffled before dealing, so each payload holds an arbitrary,
    arbitrarily-ordered subset of catalog rows, instance rows, and HTML
    docs.  Payloads with no rows of a section simply omit it.
    """
    from repro import cache as study_cache

    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    rng = np.random.default_rng(seed)
    released = study.released
    config_key = study_cache.study_key(study.config)

    catalog_parts = _round_robin(released.batch_catalog.num_rows, k, rng)
    instance_parts = _round_robin(released.instances.num_rows, k, rng)
    html_ids = list(released.batch_html)
    html_parts = _round_robin(len(html_ids), k, rng)

    payloads = []
    for i in range(k):
        payload: dict[str, Any] = {
            "schema": WIRE_SCHEMA_VERSION,
            "config_key": config_key,
        }
        if len(catalog_parts[i]):
            payload["catalog"] = encode_table(
                released.batch_catalog.take(catalog_parts[i])
            )
        if len(instance_parts[i]):
            payload["instances"] = encode_table(
                released.instances.take(instance_parts[i])
            )
        if len(html_parts[i]):
            payload["html"] = {
                str(html_ids[j]): released.batch_html[html_ids[j]]
                for j in html_parts[i]
            }
        payloads.append(payload)
    return payloads


# --------------------------------------------------------------------- #
# HTTP client
# --------------------------------------------------------------------- #


class ServiceClient:
    """Keep-alive HTTP client for one service endpoint."""

    def __init__(self, host: str, port: int, timeout: float = 30.0):
        self.host = host
        self.port = port
        self.timeout = timeout
        self._conn: http.client.HTTPConnection | None = None

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def request(
        self,
        method: str,
        path: str,
        body: bytes | None = None,
        headers: dict[str, str] | None = None,
    ) -> tuple[int, dict[str, str], bytes]:
        """One request; returns ``(status, lowercase headers, body)``."""
        for attempt in (0, 1):
            if self._conn is None:
                self._conn = http.client.HTTPConnection(
                    self.host, self.port, timeout=self.timeout
                )
            try:
                self._conn.request(method, path, body=body,
                                   headers=headers or {})
                resp = self._conn.getresponse()
                data = resp.read()
                return (
                    resp.status,
                    {k.lower(): v for k, v in resp.getheaders()},
                    data,
                )
            except (http.client.HTTPException, OSError):
                # Stale keep-alive socket: reconnect once, then give up.
                self.close()
                if attempt:
                    raise
        raise AssertionError("unreachable")  # pragma: no cover

    def get(
        self, path: str, etag: str | None = None
    ) -> tuple[int, dict[str, str], bytes]:
        headers = {"If-None-Match": etag} if etag is not None else None
        return self.request("GET", path, headers=headers)

    def get_json(self, path: str) -> Any:
        status, _, body = self.get(path)
        doc = json.loads(body.decode("utf-8")) if body else None
        if status != 200:
            raise ServiceError(status, doc)
        return doc

    def post_json(self, path: str, doc: Any) -> tuple[int, Any]:
        body = json.dumps(doc).encode("utf-8")
        status, _, data = self.request(
            "POST", path, body=body,
            headers={"Content-Type": "application/json"},
        )
        return status, json.loads(data.decode("utf-8")) if data else None

    def ingest(self, payload: dict) -> dict:
        """POST one micro-batch; raises :class:`ServiceError` on non-200."""
        status, doc = self.post_json("/ingest", payload)
        if status != 200:
            raise ServiceError(status, doc)
        return doc

    def ingest_all(self, payloads: Iterable[dict]) -> list[dict]:
        return [self.ingest(p) for p in payloads]

    def status(self) -> dict:
        return self.get_json("/ingest/status")

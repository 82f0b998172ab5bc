"""Dependency-versioned response cache with content-addressed ETags.

Every cacheable route in :mod:`repro.service.app` declares which state
*layers* it reads (``catalog``, ``instances``, ``html``); the tuple of
those layers' version counters is the entry's dependency key.  An ingest
bumps only the versions of the layers it touched, so **exactly** the
entries whose routes read a changed layer become stale — a catalog-only
micro-batch leaves every instance-derived response cached and valid.

The ETag is the sha-256 of the body (a strong validator and a content
address at once).  Bodies live only in an in-memory LRU bounded by
``max_bytes``; per-route metadata (dependency key, ETag, content type)
outlives them.  A conditional request whose validator matches is answered
from that metadata alone, so it is a hit even when the body is not
resident.  A plain request for an evicted body, or for one larger than the
whole memory budget (never resident, and evicting nothing), is a miss: the
caller re-renders it from the memoized snapshot, which yields the same
bytes and therefore the same ETag.  Bodies are not written to disk: a
write on every first render costs more than the re-render of an oversized
body read twice at one version (EXPERIMENTS.md, "Response cache: one
tier").

Stale entries are replaced on the next request for their route; metadata
is one small record per route, so the map cannot grow beyond the route
count.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass

from repro import obs

_CACHE_HITS = obs.counter("serve.cache_hits")
_CACHE_MISSES = obs.counter("serve.cache_misses")
_CACHE_EVICTIONS = obs.counter("serve.cache_evictions")

#: Default bound on resident body bytes.
DEFAULT_MAX_BYTES = 64 * 1024 * 1024


@dataclass(frozen=True)
class CachedResponse:
    """One servable response: body plus the headers that identify it."""

    etag: str
    content_type: str
    #: ``None`` only for a validated hit (see :meth:`ResponseCache.get`).
    body: bytes | None


class ResponseCache:
    """Per-route response cache keyed by layer-version dependencies."""

    def __init__(self, max_bytes: int = DEFAULT_MAX_BYTES):
        self._lock = threading.Lock()
        self._max_bytes = max_bytes
        # route path -> (deps, etag, content_type)
        self._meta: dict[str, tuple[tuple, str, str]] = {}
        # etag -> body, LRU order (move_to_end on hit)
        self._bodies: "OrderedDict[str, bytes]" = OrderedDict()
        self._body_bytes = 0

    @property
    def entries(self) -> int:
        return len(self._meta)

    def get(
        self, path: str, deps: tuple, *, if_none_match: str | None = None
    ) -> CachedResponse | None:
        """The cached response for ``path`` at dependency key ``deps``.

        ``None`` (a miss, counted) when the route was never rendered at
        these versions — including when an ingest bumped a layer the route
        reads, which is precisely the invalidation rule — or when its body
        is not resident.

        ``if_none_match`` is a client's validator (an ETag, unquoted).  When
        it equals the entry's ETag the answer is a 304, so the body is not
        needed: the hit comes back with ``body=None``.
        """
        with self._lock:
            meta = self._meta.get(path)
            body = None
            if meta is not None and meta[0] == deps:
                _, etag, content_type = meta
                if if_none_match == etag:
                    _CACHE_HITS.inc()
                    return CachedResponse(
                        etag=etag, content_type=content_type, body=None
                    )
                body = self._bodies.get(etag)
            if body is None:
                _CACHE_MISSES.inc()
                return None
            self._bodies.move_to_end(etag)
        _CACHE_HITS.inc()
        return CachedResponse(etag=etag, content_type=content_type, body=body)

    def put(
        self, path: str, deps: tuple, body: bytes, content_type: str
    ) -> CachedResponse:
        """Store a freshly rendered body; returns it with its ETag."""
        etag = hashlib.sha256(body).hexdigest()
        with self._lock:
            old = self._meta.get(path)
            self._meta[path] = (deps, etag, content_type)
            self._admit(etag, body)
            if old is not None and old[1] != etag:
                self._drop_body(old[1])
        return CachedResponse(etag=etag, content_type=content_type, body=body)

    def clear(self) -> None:
        """Drop all metadata and bodies."""
        with self._lock:
            self._meta.clear()
            self._bodies.clear()
            self._body_bytes = 0

    # ------------------------------------------------------------------ #
    # Internals (callers hold the lock)
    # ------------------------------------------------------------------ #

    def _admit(self, etag: str, body: bytes) -> None:
        if etag in self._bodies:
            self._bodies.move_to_end(etag)
            return
        if len(body) > self._max_bytes:
            # Larger than the whole budget: never resident, evicts nothing.
            return
        self._bodies[etag] = body
        self._body_bytes += len(body)
        live = {meta[1] for meta in self._meta.values()}
        while self._body_bytes > self._max_bytes and len(self._bodies) > 1:
            victim = next(
                (k for k in self._bodies if k != etag and k not in live),
                None,
            ) or next(k for k in self._bodies if k != etag)
            self._drop_body(victim)
            _CACHE_EVICTIONS.inc()

    def _drop_body(self, etag: str) -> None:
        body = self._bodies.pop(etag, None)
        if body is not None:
            self._body_bytes -= len(body)

"""The service's HTTP routes, plugged into the live telemetry server.

:class:`ServiceApp` is the ``app`` object :class:`repro.obs.live.
TelemetryServer` dispatches to after its own telemetry routes: the
telemetry endpoints (``/metrics``, ``/events``, ``/healthz``, ...) keep
working unchanged, and the service adds the study's data plane.

Endpoints
---------
- ``POST /ingest`` — fold one schema-versioned micro-batch into the
  standing state (:class:`repro.service.state.ServiceState`).  Malformed
  or mismatched payloads are a 400, injected/unexpected failures a 500;
  both count ``serve.ingest_failed`` and leave the state untouched.
- ``GET /ingest/status`` — wire schema, expected ``config_key``, layer
  versions, and row counts (the client handshake).
- ``GET /tables`` and ``GET /tables/<name>`` — the released tables
  (``catalog``, ``instances``), the instance aggregates computed from
  them (``batch_rollup``, ``trust_cdf``, ``duration_hist``), and the enriched
  tables (``batch_table``, ``cluster_table``, ``labels``).
- ``GET /figures`` and ``GET /figures/<name>`` — every
  :class:`~repro.figures.suite.FigureSuite` entry point.
- ``GET /fidelity`` — the paper-vs-measured fidelity probes
  (:func:`repro.obs.ledger.fidelity_probes`).

Caching
-------
Every data response is cached in :class:`~repro.service.respcache.
ResponseCache` keyed by the versions of exactly the state layers the
route reads, and served with a strong sha-256 ``ETag``; a request whose
``If-None-Match`` equals the current ETag gets a bodyless 304.  Bodies
are canonical JSON (:func:`repro.service.codec.dumps_canonical`), so the
ETag changes *iff* the served bytes change.  Rendering is single-flight:
concurrent misses on one route at one dependency key render it once and
all answer with that render.  Nothing is written to disk.

The module-level ``table_body`` / ``figure_body`` / ``fidelity_body``
helpers are the entire rendering path — pure functions the differential
harness calls directly to predict served bytes from a batch study.
"""

from __future__ import annotations

import json
import threading
from typing import TYPE_CHECKING, Any, Callable, Mapping

from repro import obs
from repro.service.codec import dumps_canonical, encode_table, encode_value
from repro.service.respcache import CachedResponse, ResponseCache
from repro.service.state import IngestError, ServiceState

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.figures.suite import FigureSuite
    from repro.simulator.config import SimulationConfig
    from repro.tables import Table

_INGEST_FAILED = obs.counter("serve.ingest_failed")
_NOT_MODIFIED = obs.counter("serve.not_modified")

JSON_CONTENT_TYPE = "application/json; charset=utf-8"

#: Tables read from the folds, no snapshot: name -> (ServiceState method,
#: state layers read).
STREAM_TABLES: dict[str, tuple[str, tuple[str, ...]]] = {
    "catalog": ("catalog_table", ("catalog",)),
    "instances": ("instances_table", ("instances",)),
    "batch_rollup": ("rollup_table", ("instances",)),
    "trust_cdf": ("trust_cdf", ("instances",)),
    "duration_hist": ("duration_hist", ("instances",)),
}

#: Enriched tables (need the memoized snapshot, read every layer).
ENRICHED_TABLES = ("batch_table", "cluster_table", "labels")
_ALL_LAYERS = ("catalog", "instances", "html")


def _unquote_etag(validator: str | None) -> str | None:
    """The ETag inside a strong ``If-None-Match`` validator, else ``None``."""
    if validator and len(validator) >= 2 and validator[0] == validator[-1] == '"':
        return validator[1:-1]
    return None


def figure_names() -> tuple[str, ...]:
    """Every servable figure/table entry point, in suite order."""
    from repro.figures.suite import _FIGURE_ENTRY_POINTS

    return _FIGURE_ENTRY_POINTS


# --------------------------------------------------------------------- #
# Pure rendering (tests predict served bytes with exactly these)
# --------------------------------------------------------------------- #


def table_body(table: "Table") -> bytes:
    return dumps_canonical(encode_table(table))


def figure_body(payload: Any) -> bytes:
    return dumps_canonical(encode_value(payload))


def fidelity_body(figures: "FigureSuite") -> bytes:
    from repro.obs import ledger

    return dumps_canonical(encode_value(ledger.fidelity_probes(figures)))


class _Flight:
    """One render in progress, shared by the requests that missed it."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.entry: CachedResponse | None = None
        self.waiters = 0


class ServiceApp:
    """Route table + standing state + response cache for one study."""

    def __init__(
        self,
        config: "SimulationConfig",
        *,
        scale: str | None = None,
        cache: ResponseCache | None = None,
    ):
        self.state = ServiceState(config)
        self.cache = cache if cache is not None else ResponseCache()
        self.scale = scale
        self._flights_lock = threading.Lock()
        self._flights: dict[tuple[str, tuple], _Flight] = {}

    # ------------------------------------------------------------------ #
    # Dispatch (called by repro.obs.live._Handler)
    # ------------------------------------------------------------------ #

    def handle_get(self, handler, path: str, query: Mapping[str, str]) -> bool:
        """Serve a GET if the path is ours; returns whether it was."""
        if path == "/ingest/status":
            status = self.state.status()
            if self.scale is not None:
                status["scale"] = self.scale
            status["seed"] = self.state.config.seed
            handler._send_json(status)
            return True
        if path == "/tables":
            handler._send_json({
                "stream": sorted(STREAM_TABLES),
                "enriched": list(ENRICHED_TABLES),
            })
            return True
        if path == "/figures":
            handler._send_json({"figures": list(figure_names())})
            return True
        if path.startswith("/tables/"):
            self._route_table(handler, path, path[len("/tables/"):])
            return True
        if path.startswith("/figures/"):
            self._route_figure(handler, path, path[len("/figures/"):])
            return True
        if path == "/fidelity":
            self._serve_cached(
                handler, path, _ALL_LAYERS,
                lambda: fidelity_body(self.state.snapshot().figures),
            )
            return True
        return False

    def handle_post(self, handler, path: str, query: Mapping[str, str]) -> bool:
        """Serve a POST if the path is ours; returns whether it was."""
        if path != "/ingest":
            return False
        self._route_ingest(handler)
        return True

    # ------------------------------------------------------------------ #
    # Data-plane GETs
    # ------------------------------------------------------------------ #

    def _route_table(self, handler, path: str, name: str) -> None:
        stream = STREAM_TABLES.get(name)
        if stream is not None:
            method, layers = stream
            self._serve_cached(
                handler, path, layers,
                lambda: table_body(getattr(self.state, method)()),
            )
        elif name in ENRICHED_TABLES:
            self._serve_cached(
                handler, path, _ALL_LAYERS,
                lambda: table_body(
                    getattr(self.state.snapshot().enriched, name)
                ),
            )
        else:
            handler._send_json(
                {"error": f"no table {name!r}"}, status=404
            )

    def _route_figure(self, handler, path: str, name: str) -> None:
        if name not in figure_names():
            handler._send_json(
                {"error": f"no figure {name!r}"}, status=404
            )
            return
        self._serve_cached(
            handler, path, _ALL_LAYERS,
            lambda: figure_body(
                getattr(self.state.snapshot().figures, name)()
            ),
        )

    def _serve_cached(
        self,
        handler,
        path: str,
        layers: tuple[str, ...],
        render: Callable[[], bytes],
    ) -> None:
        """The cached-read flow: deps lookup, render on miss, ETag/304."""
        deps = self.state.version_of(*layers)
        validator = handler.headers.get("If-None-Match")
        entry = self.cache.get(
            path, deps, if_none_match=_unquote_etag(validator)
        )
        if entry is None:
            try:
                entry = self._render_once(path, deps, render)
            except IngestError as exc:
                handler._send_json({"error": str(exc)}, status=409)
                return
        etag = f'"{entry.etag}"'
        if validator == etag:
            _NOT_MODIFIED.inc()
            handler.send_response(304)
            handler.send_header("ETag", etag)
            handler.end_headers()
            return
        handler.send_response(200)
        handler.send_header("Content-Type", entry.content_type)
        handler.send_header("Content-Length", str(len(entry.body)))
        handler.send_header("ETag", etag)
        handler.end_headers()
        handler.wfile.write(entry.body)

    def _render_once(
        self, path: str, deps: tuple, render: Callable[[], bytes]
    ) -> CachedResponse:
        """Render a missed route once for all concurrent misses on it.

        Each miss on ``(path, deps)`` joins one flight, takes its lock and
        re-checks it, as :meth:`ServiceState.snapshot` re-checks its memo
        under the build lock: the first renders, the rest take its entry.
        The entry rides on the flight because a body over the cache's
        budget is never resident.  The last waiter drops the flight.
        """
        key = (path, deps)
        with self._flights_lock:
            flight = self._flights.setdefault(key, _Flight())
            flight.waiters += 1
        try:
            with flight.lock:
                if flight.entry is None:
                    flight.entry = self.cache.put(
                        path, deps, render(), JSON_CONTENT_TYPE
                    )
                return flight.entry
        finally:
            with self._flights_lock:
                flight.waiters -= 1
                if not flight.waiters:
                    del self._flights[key]

    # ------------------------------------------------------------------ #
    # Ingest
    # ------------------------------------------------------------------ #

    def _route_ingest(self, handler) -> None:
        from repro import faults

        try:
            length = int(handler.headers.get("Content-Length") or 0)
            body = handler.rfile.read(length)
            kind = faults.fire("serve.ingest")
            if kind == "corrupt":
                # Physically truncate the upload: the real decode/validate
                # defenses are the thing under test, same discipline as
                # cache.load:corrupt.
                body = body[: len(body) // 2]
            elif kind == "fail":
                raise faults.InjectedFault(
                    "injected fault: serve.ingest:fail"
                )
            payload = json.loads(body.decode("utf-8"))
            summary = self.state.ingest(payload)
        except ValueError as exc:
            # IngestError, CodecError, JSON/unicode decode errors: the
            # client sent a bad micro-batch.  State is untouched.
            _INGEST_FAILED.inc()
            handler._send_json(
                {"error": f"{type(exc).__name__}: {exc}"}, status=400
            )
            return
        except Exception as exc:
            _INGEST_FAILED.inc()
            handler._send_json(
                {"error": f"{type(exc).__name__}: {exc}"}, status=500
            )
            return
        handler._send_json({"status": "ok", **summary})

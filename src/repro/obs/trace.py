"""Hierarchical span tracer for the study pipeline.

A *span* is one timed region of the pipeline (``simulate``, ``cluster.minhash``,
``figures.fig03_weekday``, …) with wall time, per-thread CPU time, optional
``tracemalloc`` numbers, and free-form key/value attributes.  Spans nest: the
active span of each thread is tracked on a thread-local stack, so the
collected trace is a forest addressed by parent index.

Tracing is **disabled by default** and the disabled path is a single module
global check returning a shared no-op handle — cheap enough to leave
``span()`` calls in hot-adjacent code (the per-call cost is asserted against
the substrate benchmarks).  Enable with :func:`enable` (the CLI ``--trace``
flag) or the ``REPRO_TRACE`` environment variable; add ``tracemalloc``
numbers per span with ``mem=True`` or ``REPRO_TRACE_MEM``.

Worker processes forked by :mod:`repro.parallel` run their chunks under a
:class:`worker_collector`, which records spans against a fresh local trace
and ships them (plus counter deltas) back to the parent, where
:func:`fold_spans` grafts them under the parent's active span — a traced
parallel run therefore shows per-chunk worker spans inside the
``parallel.map`` span that spawned them.
"""

from __future__ import annotations

import functools
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence, TypeVar

from repro.obs import metrics

#: Any non-empty value other than 0/false/no/off enables tracing at import.
TRACE_ENV = "REPRO_TRACE"
#: Same truthiness rules; adds tracemalloc numbers to every span.
TRACE_MEM_ENV = "REPRO_TRACE_MEM"

_FALSEY = {"", "0", "false", "no", "off"}

_F = TypeVar("_F", bound=Callable[..., Any])


def _env_truthy(name: str) -> bool:
    return os.environ.get(name, "").strip().lower() not in _FALSEY


def env_enabled() -> bool:
    """Whether the ``REPRO_TRACE`` environment variable requests tracing."""
    return _env_truthy(TRACE_ENV)


@dataclass
class SpanRecord:
    """One finished (or in-flight) span.  Picklable for worker folding."""

    name: str
    t0: float  # absolute time.perf_counter() at entry
    index: int = -1  # position within the owning trace
    parent: int = -1  # index of the parent span, -1 for roots
    wall_s: float = 0.0
    cpu_s: float = 0.0
    pid: int = 0
    thread: str = ""
    attrs: dict[str, Any] = field(default_factory=dict)
    mem_alloc_bytes: int | None = None  # net tracemalloc delta over the span
    mem_peak_bytes: int | None = None  # process traced peak at span exit


class Trace:
    """An append-only span collector; spans reference parents by index."""

    def __init__(self, name: str = "trace"):
        self.name = name
        self.t0 = time.perf_counter()
        self.created_unix = time.time()
        self.spans: list[SpanRecord] = []
        self._lock = threading.Lock()

    def add(self, record: SpanRecord) -> int:
        with self._lock:
            record.index = len(self.spans)
            self.spans.append(record)
            return record.index

    def fold(self, records: Sequence[SpanRecord], under: int) -> None:
        """Graft spans collected in a worker process beneath span ``under``.

        Worker records index their parents within their own list (in append
        order), so offsetting by the current length keeps every parent
        reference valid; worker roots re-parent to ``under``.
        """
        with self._lock:
            offset = len(self.spans)
            for record in records:
                record.parent = (
                    under if record.parent < 0 else record.parent + offset
                )
                record.index = len(self.spans)
                self.spans.append(record)

    @property
    def total_wall_s(self) -> float:
        roots = [s for s in self.spans if s.parent < 0]
        if not roots:
            return 0.0
        start = min(s.t0 for s in roots)
        end = max(s.t0 + s.wall_s for s in roots)
        return end - start


# --------------------------------------------------------------------- #
# Global tracer state
# --------------------------------------------------------------------- #

_enabled = False
_mem_enabled = False
# Whether enable() started tracemalloc itself (finish() then stops it).
_mem_started = False
_trace: Trace | None = None
_tls = threading.local()

# Optional span listener, installed by repro.obs.live while a telemetry
# server is running: called as listener("open"|"close", record) from
# _Span.__enter__/__exit__.  One module-global check when absent, so the
# no-server path costs nothing.  Listeners must never raise (live.py's
# listener swallows its own errors); they run on the recording thread.
_span_listener: Callable[[str, SpanRecord], None] | None = None


def set_span_listener(
    listener: Callable[[str, SpanRecord], None] | None,
) -> None:
    """Install (or with ``None`` remove) the global span event listener."""
    global _span_listener
    _span_listener = listener


def _stack() -> list[int]:
    stack = getattr(_tls, "stack", None)
    if stack is None:
        stack = _tls.stack = []
    return stack


def enabled() -> bool:
    """Whether spans are currently being recorded in this process."""
    return _enabled


def enable(name: str = "trace", *, mem: bool | None = None) -> Trace:
    """Start a fresh trace and turn span recording on.

    ``mem`` adds ``tracemalloc`` numbers to every span; ``None`` defers to
    the ``REPRO_TRACE_MEM`` environment variable.  Returns the new trace.
    """
    global _enabled, _mem_enabled, _mem_started, _trace
    _mem_enabled = _env_truthy(TRACE_MEM_ENV) if mem is None else mem
    if _mem_enabled:
        import tracemalloc

        if not tracemalloc.is_tracing():
            tracemalloc.start()
            _mem_started = True
    _trace = Trace(name)
    _tls.stack = []
    _enabled = True
    return _trace


def finish() -> Trace | None:
    """Stop recording and return the collected trace (``None`` if never on).

    Also stops ``tracemalloc`` if :func:`enable` started it: left running,
    it taxes every later allocation of the process several-fold.  A
    ``tracemalloc`` session the caller started is left alone.
    """
    global _enabled, _mem_enabled, _mem_started, _trace
    _enabled = False
    _mem_enabled = False
    if _mem_started:
        import tracemalloc

        tracemalloc.stop()
        _mem_started = False
    trace, _trace = _trace, None
    _tls.stack = []
    return trace


def current_trace() -> Trace | None:
    """The active trace, if tracing is enabled."""
    return _trace if _enabled else None


class _NullSpan:
    """Shared no-op handle returned by :func:`span` when tracing is off."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> bool:
        return False

    def set(self, key: str, value: Any) -> None:
        pass


_NULL_SPAN = _NullSpan()


class _Span:
    """A live span: context manager and attribute sink."""

    __slots__ = ("_name", "_attrs", "_record", "_cpu0", "_mem0")

    def __init__(self, name: str, attrs: dict[str, Any]):
        self._name = name
        self._attrs = attrs

    def __enter__(self) -> "_Span":
        trace = _trace
        if trace is None:  # disabled between construction and entry
            self._record = None
            return self
        stack = _stack()
        record = SpanRecord(
            name=self._name,
            t0=time.perf_counter(),
            parent=stack[-1] if stack else -1,
            pid=os.getpid(),
            thread=threading.current_thread().name,
            attrs=self._attrs,
        )
        stack.append(trace.add(record))
        self._record = record
        if _span_listener is not None:
            _span_listener("open", record)
        if _mem_enabled:
            import tracemalloc

            self._mem0 = tracemalloc.get_traced_memory()[0]
        self._cpu0 = time.thread_time()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        record = self._record
        if record is None:
            return False
        record.cpu_s = time.thread_time() - self._cpu0
        record.wall_s = time.perf_counter() - record.t0
        if _mem_enabled:
            import tracemalloc

            current, peak = tracemalloc.get_traced_memory()
            record.mem_alloc_bytes = current - self._mem0
            record.mem_peak_bytes = peak
        if exc_type is not None:
            record.attrs["error"] = exc_type.__name__
        stack = _stack()
        if stack and stack[-1] == record.index:
            stack.pop()
        if _span_listener is not None:
            _span_listener("close", record)
        return False

    def set(self, key: str, value: Any) -> None:
        """Attach a key/value attribute to the span."""
        if self._record is not None:
            self._record.attrs[key] = value
        else:
            self._attrs[key] = value


def span(name: str, **attrs: Any) -> _Span | _NullSpan:
    """Open a traced region: ``with span("simulate", seed=7) as sp: ...``.

    When tracing is disabled this returns a shared no-op handle — one
    global check, no allocation.
    """
    if not _enabled:
        return _NULL_SPAN
    return _Span(name, {k: v for k, v in attrs.items() if v is not None})


def traced(name: str | None = None, **attrs: Any) -> Callable[[_F], _F]:
    """Decorator form of :func:`span`; the disabled path is a direct call."""

    def decorate(func: _F) -> _F:
        label = name or func.__qualname__

        @functools.wraps(func)
        def wrapper(*args: Any, **kwargs: Any):
            if not _enabled:
                return func(*args, **kwargs)
            with span(label, **attrs):
                return func(*args, **kwargs)

        return wrapper  # type: ignore[return-value]

    return decorate


# --------------------------------------------------------------------- #
# Worker-process folding
# --------------------------------------------------------------------- #


class worker_collector:
    """Collect spans and metric deltas inside a forked worker.

    Replaces the (possibly fork-inherited) global trace with a fresh local
    one for the duration of the block, then restores it.  After exit,
    ``spans`` holds the records produced inside the block,
    ``counter_deltas`` the counter increments, and ``histogram_deltas`` the
    histogram observations made inside the block, all picklable for the
    trip back to the parent process.
    """

    def __init__(self) -> None:
        self.spans: list[SpanRecord] = []
        self.counter_deltas: dict[str, int] = {}
        self.histogram_deltas: dict[str, dict[str, Any]] = {}

    def __enter__(self) -> "worker_collector":
        global _enabled, _trace
        self._prev = (_enabled, _trace, getattr(_tls, "stack", None))
        self._counters0 = metrics.REGISTRY.counter_values()
        self._hists0 = metrics.REGISTRY.histogram_values()
        _trace = Trace("worker")
        _tls.stack = []
        _enabled = True
        self.spans = _trace.spans
        return self

    def __exit__(self, *exc_info: object) -> bool:
        global _enabled, _trace
        self.counter_deltas = metrics.counter_deltas(
            self._counters0, metrics.REGISTRY.counter_values()
        )
        self.histogram_deltas = metrics.histogram_deltas(
            self._hists0, metrics.REGISTRY.histogram_values()
        )
        _enabled, _trace, stack = self._prev
        _tls.stack = stack if stack is not None else []
        return False


def fold_spans(records: Sequence[SpanRecord]) -> None:
    """Graft worker span records under the calling thread's active span."""
    if not _enabled or _trace is None or not records:
        return
    stack = _stack()
    _trace.fold(records, stack[-1] if stack else -1)


# Honor REPRO_TRACE at import so plain library use (no CLI) is traceable.
if env_enabled():  # pragma: no cover - exercised via subprocess tests
    enable(name="repro")

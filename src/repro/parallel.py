"""Small process-parallel map used by the enrichment hot paths.

The enrichment pipeline is embarrassingly parallel over batch HTML
(shingling for clustering, feature extraction for design parameters), so a
plain order-preserving chunked map over a process pool is all that is
needed.

Parallelism is opt-in and controlled by the ``REPRO_WORKERS`` environment
variable:

- unset, empty, or ``1`` — serial (the default; deterministic and safe in
  every environment);
- ``auto`` or ``0`` — one worker per CPU;
- any other positive integer — that many workers;
- anything else (garbage, negative) — serial, with a ``RuntimeWarning`` and
  a ``parallel.serial_fallback`` increment so a misconfigured fleet is
  diagnosable from its metrics.

Failure semantics — the load-bearing part:

- **Pool-infrastructure failures** (missing semaphores in sandboxes,
  unpicklable callables, a worker crash, interpreter shutdown) degrade to
  the serial loop.  The degradation is *visible*: a ``RuntimeWarning``
  (emitted once per process per cause, so a long run does not spam) and a
  ``parallel.serial_fallback`` counter increment *per event*.  Results are
  identical either way because the mapped functions are pure.
- **Pool creation** is retried up to :data:`_POOL_SPAWN_ATTEMPTS` times
  with exponential backoff (``parallel.pool_retries`` counts retries)
  before the serial fallback engages.
- **Mapped-function exceptions** are *not* infrastructure failures: each
  worker guards the mapped call and ships the exception back as a value, so
  the original exception type re-raises in the parent immediately — the
  workload is never re-executed serially just to reproduce a deterministic
  error.
- **Hung chunks**: with a timeout (``timeout=`` argument or the
  ``REPRO_POOL_TIMEOUT`` env var, seconds), every in-flight chunk carries a
  deadline measured from its *dispatch* — not from its position in an
  await-in-order queue — so a hung chunk is detected within one timeout of
  being handed to the pool no matter how many slow chunks precede it.  A
  stall bumps ``parallel.timeout``, tears the pool down, and falls back to
  the serial loop.

Scheduling — the as-completed dispatcher:

- Chunks are dispatched through a **bounded in-flight window** and
  collected as they complete, not in submission order.  With a timeout
  configured the window is exactly the worker count, so a dispatched chunk
  starts (almost) immediately and its deadline-from-dispatch is honest;
  without one the window doubles for pipelining.
- Whenever any chunk completes, the freed slot immediately dispatches the
  next pending chunk — whichever worker went idle takes it (counted in
  ``parallel.steals``), so one straggler chunk never leaves the other
  workers idle the way a static round-robin placement would.
- Results are reassembled in input order and spans/counters fold in chunk
  order after the last chunk arrives, so the schedule never changes a byte
  of output or a fold.

Fault-injection sites (:mod:`repro.faults`): ``pool.spawn:fail`` makes one
pool-creation attempt raise, ``pool.chunk:fail`` crashes a worker chunk,
``pool.chunk:hang`` stalls one past the timeout — all three must leave the
mapped results byte-identical to a serial run.

With span tracing enabled (:mod:`repro.obs`), each worker records a
``parallel.chunk`` span (plus any spans the mapped function opens) and its
counter increments, and ships both back to the parent, where they fold into
the enclosing ``parallel.map`` span.  Untraced pool runs still ship counter
deltas back, so parallel runs converge to the serial counts either way.
"""

from __future__ import annotations

import os
import pickle
import time
import warnings
from typing import Callable, Iterable, Sequence, TypeVar

from repro import faults, obs
from repro.obs import live as obs_live

_T = TypeVar("_T")
_R = TypeVar("_R")

#: Environment variable selecting the worker count.
WORKERS_ENV = "REPRO_WORKERS"
#: Environment variable setting the per-chunk result timeout in seconds.
POOL_TIMEOUT_ENV = "REPRO_POOL_TIMEOUT"

#: Below this many items the fork/pickle overhead outweighs any fan-out win.
_MIN_PARALLEL_ITEMS = 32

#: Pool-creation attempts before degrading to the serial loop.
_POOL_SPAWN_ATTEMPTS = 3
#: First retry backoff; doubles per attempt.
_POOL_SPAWN_BACKOFF_S = 0.05
#: How long an injected ``pool.chunk:hang`` fault sleeps.
_HANG_SLEEP_S = 30.0
#: How long a pool's background teardown may take before the driver stops
#: waiting for it (a bound for a wedged teardown; a normal one takes
#: milliseconds).
_TERMINATE_JOIN_S = 5.0

_FALLBACKS = obs.counter("parallel.serial_fallback")
_POOL_MAPS = obs.counter("parallel.pool_maps")
_POOL_RETRIES = obs.counter("parallel.pool_retries")
_TIMEOUTS = obs.counter("parallel.timeout")
#: Chunks dispatched by the as-completed loop after the initial window
#: fill — i.e. chunks an idle worker picked up the moment it freed, where
#: a static placement would have pinned them to a predetermined worker.
_STEALS = obs.counter("parallel.steals")
#: Chunks that completed (and shipped spans/deltas) before a timeout or
#: worker crash abandoned the whole pool result; their telemetry is
#: deliberately discarded (see the fold-only-on-success note in _pool_map)
#: and this counter is the visible record of how many were lost.
_CHUNKS_DROPPED = obs.counter("parallel.chunks_dropped")
_WORKERS_GAUGE = obs.gauge("parallel.workers")
_CHUNK_SECONDS = obs.histogram("parallel.chunk_seconds")


class PoolTimeoutError(RuntimeError):
    """A worker chunk exceeded the configured result timeout."""


# A long run hitting the same degradation on every map (bad REPRO_WORKERS,
# unpicklable closure, sandbox without semaphores) would repeat an identical
# RuntimeWarning hundreds of times; the warning is a human signal, so each
# *cause* warns once per process while parallel.serial_fallback keeps
# counting every event for metrics-based triage.
_WARNED_CAUSES: set[str] = set()


def _warn_once(cause: str, message: str, stacklevel: int = 3) -> None:
    if cause in _WARNED_CAUSES:
        return
    _WARNED_CAUSES.add(cause)
    warnings.warn(message, RuntimeWarning, stacklevel=stacklevel + 1)


def reset_warnings() -> None:
    """Forget which causes already warned (tests asserting on warnings)."""
    _WARNED_CAUSES.clear()


def _misconfigured(raw: str, why: str) -> int:
    _FALLBACKS.inc()
    _warn_once(
        f"workers_env:{raw}",
        f"repro.parallel: {WORKERS_ENV}={raw!r} {why}; running serial",
        stacklevel=3,
    )
    return 1


def worker_count(workers: int | None = None) -> int:
    """Resolve the effective worker count (``workers`` overrides the env).

    Bad env input (non-integer garbage, negative counts) resolves to serial
    — but loudly: a ``RuntimeWarning`` plus a ``parallel.serial_fallback``
    increment, never a silent 1.
    """
    if workers is None:
        raw = os.environ.get(WORKERS_ENV, "").strip().lower()
        if not raw:
            return 1
        if raw == "auto":
            return os.cpu_count() or 1
        try:
            workers = int(raw)
        except ValueError:
            return _misconfigured(raw, "is not an integer or 'auto'")
        if workers < 0:
            return _misconfigured(raw, "is negative")
    if workers == 0:
        return os.cpu_count() or 1
    return max(1, workers)


def chunk_timeout(timeout: float | None = None) -> float | None:
    """Resolve the per-chunk result timeout (argument over env, ``None`` off)."""
    if timeout is not None:
        return timeout if timeout > 0 else None
    raw = os.environ.get(POOL_TIMEOUT_ENV, "").strip()
    if not raw:
        return None
    try:
        value = float(raw)
    except ValueError:
        _warn_once(
            f"timeout_env:{raw}",
            f"repro.parallel: {POOL_TIMEOUT_ENV}={raw!r} is not a number; "
            f"chunk timeouts disabled",
            stacklevel=2,
        )
        return None
    return value if value > 0 else None


def _shippable(exc: Exception) -> Exception:
    """The exception itself if it pickles, else a faithful stand-in."""
    try:
        pickle.dumps(exc)
    except Exception:
        return RuntimeError(f"unpicklable {type(exc).__name__}: {exc}")
    return exc


class _ChunkRunner:
    """Run one chunk of items in a worker, guarding mapped-function errors.

    Picklable as long as the mapped function is.  Returns ``(guarded,
    spans, deltas, hist_deltas, mark)`` where ``guarded`` holds ``(True,
    result)`` per item — or ``(False, exc)`` if the mapped function
    raised, shipped back as a value so the parent re-raises the *original*
    exception instead of mistaking it for a pool failure.  Injected
    ``pool.chunk`` faults raise out of the runner, i.e. they look exactly
    like a worker crash.

    ``spans``/``deltas``/``hist_deltas`` carry the worker's trace spans,
    counter increments, and histogram observations (including the runner's
    own ``parallel.chunk_seconds`` timing) back to the parent (spans only
    when tracing is on).  ``mark`` is the chunk's busy interval — ``(pid,
    start, end)`` in ``time.perf_counter()`` terms, which is
    ``CLOCK_MONOTONIC`` and therefore comparable across the fork — shipped
    on *every* chunk so resource timelines can place each worker's work as
    it happened instead of one opaque block folded at pool completion.
    """

    __slots__ = ("func", "traced")

    def __init__(self, func: Callable[[_T], _R], traced: bool):
        self.func = func
        self.traced = traced

    def _run(
        self, chunk: Sequence[_T]
    ) -> tuple[list[tuple[bool, object]], tuple[int, float, float]]:
        kind = faults.fire("pool.chunk")
        if kind == "fail":
            raise faults.InjectedFault("injected fault: pool.chunk:fail")
        if kind == "hang":
            time.sleep(_HANG_SLEEP_S)
        t0 = time.perf_counter()
        guarded: list[tuple[bool, object]] = []
        for item in chunk:
            try:
                guarded.append((True, self.func(item)))
            except Exception as exc:
                guarded.append((False, _shippable(exc)))
                break  # the parent raises at the first error anyway
        t1 = time.perf_counter()
        _CHUNK_SECONDS.observe(t1 - t0)
        return guarded, (os.getpid(), t0, t1)

    def __call__(
        self, chunk: Sequence[_T]
    ) -> tuple[
        list[tuple[bool, object]],
        list[obs.SpanRecord] | None,
        dict[str, int] | None,
        dict[str, dict] | None,
        tuple[int, float, float],
    ]:
        if self.traced:
            with obs.worker_collector() as collector:
                with obs.span("parallel.chunk", items=len(chunk)):
                    guarded, mark = self._run(chunk)
            return (
                guarded,
                collector.spans,
                collector.counter_deltas,
                collector.histogram_deltas,
                mark,
            )
        before = obs.REGISTRY.counter_values()
        hists_before = obs.REGISTRY.histogram_values()
        guarded, mark = self._run(chunk)
        deltas = obs.counter_deltas(before, obs.REGISTRY.counter_values())
        hist_deltas = obs.histogram_deltas(
            hists_before, obs.REGISTRY.histogram_values()
        )
        return guarded, None, deltas, hist_deltas or None, mark


def _create_pool(ctx, n: int):
    """Create a pool, retrying transient failures with bounded backoff."""
    for attempt in range(1, _POOL_SPAWN_ATTEMPTS + 1):
        try:
            faults.check("pool.spawn")
            return ctx.Pool(processes=n, initializer=_default_sigterm)
        except Exception:
            if attempt == _POOL_SPAWN_ATTEMPTS:
                raise
            _POOL_RETRIES.inc()
            time.sleep(_POOL_SPAWN_BACKOFF_S * (2 ** (attempt - 1)))
    raise RuntimeError("unreachable")  # pragma: no cover


def _default_sigterm() -> None:
    """Pool-worker initializer: SIGTERM kills the worker.

    A forked worker inherits its parent's Python signal handlers; a host
    process that handles SIGTERM itself would otherwise leave a worker
    stuck in a chunk alive through :func:`_terminate_pool`.
    """
    import signal

    signal.signal(signal.SIGTERM, signal.SIG_DFL)


def _terminate_pool(pool) -> None:
    """Tear down a pool whose workers may be idle, mid-chunk or hung.

    ``Pool.terminate()`` stops the worker handler, whose stop sentinels
    release the idle workers blocked on the task queue; it then takes the
    queue's shared read lock, SIGTERMs the workers still in a chunk and
    joins the pool's handler threads.  Nothing may kill a worker first: an
    idle worker holds that read lock while it waits for a task, and one
    killed holding it leaks the lock, so ``terminate()`` never gets past
    it.  The call runs on a daemon thread with a bounded join, so a lock
    leaked some other way (a worker killed from outside) strands one
    thread instead of the build.
    """
    import threading

    reaper = threading.Thread(
        target=pool.terminate, name="repro-pool-reaper", daemon=True
    )
    reaper.start()
    reaper.join(timeout=_TERMINATE_JOIN_S)


def _dispatch_chunks(
    pool,
    runner: "_ChunkRunner",
    chunks: list[Sequence[_T]],
    window: int,
    timeout: float | None,
) -> list:
    """As-completed dispatcher: bounded in-flight window, deadlines from
    dispatch, next pending chunk handed to whichever worker frees first.

    Returns the raw chunk results indexed by chunk position.  Raises
    :class:`PoolTimeoutError` when any dispatched chunk's result is not
    ready within ``timeout`` seconds of its *dispatch*, and re-raises a
    worker/runner infrastructure failure as soon as it surfaces — in both
    cases after counting the already-completed chunks whose results (and
    shipped telemetry) the abandonment throws away (``parallel.
    chunks_dropped``).
    """
    import queue as queue_mod

    done: queue_mod.SimpleQueue = queue_mod.SimpleQueue()
    parts: list = [None] * len(chunks)
    dispatched_at: dict[int, float] = {}
    next_idx = 0

    def _submit(index: int, steal: bool = False) -> None:
        def _ok(result, index=index):
            done.put((index, True, result))

        def _err(exc, index=index):
            done.put((index, False, exc))

        dispatched_at[index] = time.perf_counter()
        obs_live.publish(
            "chunk.dispatch", index=index, total=len(chunks), steal=steal
        )
        pool.apply_async(
            runner, (chunks[index],), callback=_ok, error_callback=_err
        )

    def _completed() -> int:
        return sum(1 for part in parts if part is not None)

    while next_idx < len(chunks) and len(dispatched_at) < window:
        _submit(next_idx)
        next_idx += 1
    while dispatched_at:
        wait_s = None
        if timeout is not None:
            earliest = min(dispatched_at.values())
            wait_s = max(0.0, earliest + timeout - time.perf_counter())
        try:
            index, ok, payload = done.get(timeout=wait_s)
        except queue_mod.Empty:
            now = time.perf_counter()
            stale = [
                i for i, t0 in dispatched_at.items()
                if now - t0 >= timeout
            ]
            if not stale:  # woke a hair early; keep waiting
                continue
            _TIMEOUTS.inc()
            _CHUNKS_DROPPED.inc(_completed())
            raise PoolTimeoutError(
                f"worker chunk {min(stale)} result not ready within "
                f"{timeout:g}s of dispatch"
            ) from None
        del dispatched_at[index]
        if not ok:
            # Worker crash / injected chunk fault / pickling failure: the
            # caller degrades to the serial loop, abandoning every chunk
            # that already completed.
            _CHUNKS_DROPPED.inc(_completed())
            raise payload
        parts[index] = payload
        obs_live.publish(
            "chunk.complete",
            index=index,
            total=len(chunks),
            done=_completed(),
            pending=len(dispatched_at),
        )
        if next_idx < len(chunks):
            _STEALS.inc()
            _submit(next_idx, steal=True)
            next_idx += 1
    return parts


def _pool_map(
    func: Callable[[_T], _R],
    seq: Sequence[_T],
    n: int,
    chunk_size: int,
    timeout: float | None,
) -> list[tuple[bool, object]]:
    """Map over the pool; returns guarded per-item results in input order.

    Raises on any pool-infrastructure problem (spawn failure after retries,
    worker crash, pickling error, chunk timeout) — the caller's cue to fall
    back to the serial loop.

    Chunks flow through :func:`_dispatch_chunks`: at most ``window`` in
    flight, collected as completed.  With a timeout the window equals the
    worker count so a dispatched chunk starts essentially immediately and
    its deadline-from-dispatch is honest; without one the window doubles so
    pickling of the next chunk overlaps with worker compute.
    """
    import multiprocessing as mp

    methods = mp.get_all_start_methods()
    ctx = mp.get_context("fork" if "fork" in methods else None)
    _WORKERS_GAUGE.set(n)
    chunks = [seq[i:i + chunk_size] for i in range(0, len(seq), chunk_size)]
    runner = _ChunkRunner(func, traced=obs.enabled())
    window = n if timeout is not None else 2 * n
    with obs.span(
        "parallel.map", items=len(seq), workers=n, chunks=len(chunks)
    ):
        pool = _create_pool(ctx, n)
        try:
            _POOL_MAPS.inc()
            parts = _dispatch_chunks(pool, runner, chunks, window, timeout)
        finally:
            _terminate_pool(pool)
        # Fold-only-on-success invariant (load-bearing): spans, counter and
        # histogram deltas, and sampler busy marks fold only after *every*
        # chunk arrived.  A failure above abandons the whole pool result and
        # the serial fallback recomputes it, so folding any completed
        # chunk's telemetry would double-count work; the price is that a
        # degraded run under-reports parallel.chunk_seconds and worker
        # utilization by exactly the chunks parallel.chunks_dropped counts.
        # Folding happens in chunk-index order, not completion order, so a
        # trace is deterministic under any schedule.
        from repro.obs import sampler

        guarded: list[tuple[bool, object]] = []
        for idx, (part, spans, deltas, hist_deltas, mark) in enumerate(parts):
            guarded.extend(part)
            if spans:
                obs.fold_spans(spans)
            if deltas:
                obs.merge_counter_deltas(deltas)
            if hist_deltas:
                obs.merge_histogram_deltas(hist_deltas)
            pid, t0, t1 = mark
            sampler.note_interval(pid, t0, t1, "parallel.chunk")
            # Worker events ride the chunk-result channel: the worker's
            # spans/deltas just folded into the parent registry, so surface
            # one fold event per chunk for live SSE clients.
            obs_live.publish(
                "chunk.folded",
                index=idx,
                pid=pid,
                wall_s=round(t1 - t0, 6),
                spans=len(spans) if spans else 0,
            )
        return guarded


def _in_daemon() -> bool:
    """Whether this is a daemonic process, e.g. a pool worker.

    Daemonic processes may not have children, so a pool could never start
    here: a nested map inside a pool worker (the per-shard design and
    shingle maps) runs the serial loop directly, as a planned choice, not
    a degradation — no spawn retries, no warning, no fallback count.
    """
    import multiprocessing as mp

    return mp.current_process().daemon


def map_chunks(
    func: Callable[[_T], _R],
    items: Iterable[_T],
    *,
    workers: int | None = None,
    chunk_size: int | None = None,
    timeout: float | None = None,
    min_items: int | None = None,
) -> list[_R]:
    """Order-preserving parallel map with a serial fallback.

    ``func`` must be a picklable top-level function for the parallel path;
    anything else degrades to the serial loop (with a ``RuntimeWarning``
    and a ``parallel.serial_fallback`` counter increment).  An exception
    raised *by ``func``* is not a degradation: it re-raises with its
    original type, without re-executing the workload.

    ``timeout`` bounds how long each chunk's result may take, measured
    from the moment the chunk is dispatched to the pool (seconds; default
    off, or the ``REPRO_POOL_TIMEOUT`` env var); a stall counts in
    ``parallel.timeout`` and degrades to the serial loop.

    Inside a daemonic process (a pool worker) the map is always serial:
    such a process cannot start a pool of its own.

    ``min_items`` overrides the built-in "too few items to be worth a pool"
    threshold (default :data:`_MIN_PARALLEL_ITEMS`).  Coarse fan-outs whose
    items are whole pipeline stages — e.g. one shard build per item in
    :mod:`repro.shard` — pass a small value so even a handful of items
    parallelizes.
    """
    seq: Sequence[_T] = items if isinstance(items, (list, tuple)) else list(items)
    n = worker_count(workers)
    floor = _MIN_PARALLEL_ITEMS if min_items is None else max(1, min_items)
    if n <= 1 or len(seq) < floor or _in_daemon():
        return [func(item) for item in seq]
    if chunk_size is None:
        chunk_size = max(1, len(seq) // (n * 4))
    try:
        guarded = _pool_map(func, seq, n, chunk_size, chunk_timeout(timeout))
    except Exception as exc:
        _FALLBACKS.inc()
        _warn_once(
            f"pool_unavailable:{type(exc).__name__}",
            f"repro.parallel: process pool unavailable ({exc!r}); "
            f"degrading to a serial loop over {len(seq)} items",
            stacklevel=2,
        )
        return [func(item) for item in seq]
    results: list[_R] = []
    for ok, value in guarded:
        if not ok:
            raise value  # the mapped function's own exception, original type
        results.append(value)
    return results

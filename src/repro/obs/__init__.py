"""repro.obs — observability for the study pipeline.

Three pieces, one import:

- **Span tracing** (:mod:`repro.obs.trace`): ``with obs.span("simulate"):``
  regions with wall/CPU time, optional ``tracemalloc`` numbers, and
  attributes; nested per thread, folded back from ``repro.parallel``
  worker processes.  Off by default; ``obs.enable()``, the CLI ``--trace``
  flag, or ``REPRO_TRACE=1`` turn it on.
- **Metrics** (:mod:`repro.obs.metrics`): process-global counters, gauges,
  and fixed-bucket histograms (``cache.hit``, ``cluster.pairs_compared``,
  ``groupby.fastpath_taken``, …), always on — updates are per-phase, not
  per-row.
- **Exporters** (:mod:`repro.obs.export`): a human-readable timing tree, a
  stable JSON trace file for cross-commit diffing, and per-span-name
  summaries (the ``repro trace`` command).

See the "Observability" section of ``docs/architecture.md`` for the span
schema and the metric-name inventory.
"""

from repro.obs.export import (
    TRACE_SCHEMA_VERSION,
    aggregate_by_name,
    load_trace,
    render_tree,
    summarize_histograms,
    summarize_trace,
    trace_to_dict,
    write_trace_json,
)
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    counter,
    counter_deltas,
    gauge,
    histogram,
    histogram_deltas,
    merge_counter_deltas,
    merge_histogram_deltas,
    nonzero_counters,
)
from repro.obs.metrics import reset as reset_metrics
from repro.obs.metrics import snapshot as metrics_snapshot
from repro.obs.trace import (
    TRACE_ENV,
    TRACE_MEM_ENV,
    SpanRecord,
    Trace,
    current_trace,
    enable,
    enabled,
    env_enabled,
    finish,
    fold_spans,
    span,
    traced,
    worker_collector,
)

# The run ledger / drift / dashboard / sampler / live layers sit on top of
# metrics+export and lazily import repro.cache/repro.faults inside
# functions, so importing them last keeps `import repro.obs` cycle-free
# while exposing them as obs.ledger / obs.drift / obs.dashboard /
# obs.sampler / obs.live / obs.promexport submodule attributes.
from repro.obs import (  # noqa: E402
    dashboard,
    drift,
    ledger,
    live,
    promexport,
    sampler,
)

__all__ = [
    "TRACE_SCHEMA_VERSION",
    "TRACE_ENV",
    "TRACE_MEM_ENV",
    "DEFAULT_BUCKETS",
    "REGISTRY",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "SpanRecord",
    "Trace",
    "aggregate_by_name",
    "counter",
    "counter_deltas",
    "current_trace",
    "dashboard",
    "drift",
    "enable",
    "enabled",
    "env_enabled",
    "finish",
    "fold_spans",
    "gauge",
    "histogram",
    "histogram_deltas",
    "ledger",
    "live",
    "load_trace",
    "merge_counter_deltas",
    "merge_histogram_deltas",
    "metrics_snapshot",
    "nonzero_counters",
    "promexport",
    "render_tree",
    "reset_metrics",
    "sampler",
    "span",
    "summarize_histograms",
    "summarize_trace",
    "trace_to_dict",
    "traced",
    "worker_collector",
    "write_trace_json",
]

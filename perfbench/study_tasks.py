"""Child tasks for the two study workloads (monolithic and sharded).

Each task runs in a fresh interpreter with the isolation environment the
orchestrator (``run.py``) sets: a private ``REPRO_CACHE_DIR``, the run
ledger off, and ``REPRO_WORKERS`` pinned per workload.
"""

from __future__ import annotations

import time
from statistics import median

from measure import (
    SCALE,
    STUDY_SEED,
    counter_deltas,
    counters,
    cpu_seconds,
    histogram_sum,
    peak_rss_mb,
    sha256,
    study_digests,
    timed,
    trace_summary,
)

SHARDS = 4
#: Warm builds per run; ``build_warm_s`` is their median.
WARM_BUILDS = 3
#: Fidelity passes per sharded run, each on a fresh figure suite;
#: ``figures_s`` there is their median.
FIDELITY_PASSES = 3


def _figure_bodies(figures) -> tuple[dict[str, bytes], bytes]:
    from repro.service.app import fidelity_body, figure_body, figure_names

    bodies = {
        name: figure_body(getattr(figures, name)()) for name in figure_names()
    }
    return bodies, fidelity_body(figures)


def _figures_digest(bodies: dict[str, bytes], fidelity: bytes) -> str:
    return sha256(
        b"".join(sha256(body).encode() for body in bodies.values())
        + fidelity
    )


def _compare(checks: dict[str, bool], label: str, a: dict, b: dict) -> None:
    for key in a:
        checks[f"{label}.{key}"] = a[key] == b.get(key)


def _warm_builds(**kwargs) -> tuple[object, float]:
    """The last of ``WARM_BUILDS`` warm builds and their median time."""
    from repro import build_study

    times = []
    for _ in range(WARM_BUILDS):
        warm, seconds = timed(
            lambda: build_study(SCALE, seed=STUDY_SEED, **kwargs)
        )
        times.append(seconds)
    return warm, median(times)


def study() -> dict:
    """Cold build, every figure, then warm builds: ``repro report`` run a
    first and a second time."""
    from repro import build_study

    before = counters()
    cpu0 = cpu_seconds()
    cold, build_cold_s = timed(lambda: build_study(SCALE, seed=STUDY_SEED))
    (bodies, fidelity), figures_s = timed(lambda: _figure_bodies(cold.figures))
    warm, build_warm_s = _warm_builds()
    cpu_s = cpu_seconds() - cpu0
    moved = counter_deltas(before)

    checks: dict[str, bool] = {}
    _compare(
        checks, "warm_equals_cold",
        study_digests(cold.released, cold.enriched),
        study_digests(warm.released, warm.enriched),
    )
    return {
        "phases": {
            "build_cold_s": build_cold_s,
            "build_warm_s": build_warm_s,
            "figures_s": figures_s,
            "cpu_s": cpu_s,
            "peak_rss_mb": peak_rss_mb(),
        },
        "ops": 1 + WARM_BUILDS + len(bodies) + 1,
        "checks": checks,
        "figures_digest": _figures_digest(bodies, fidelity),
        "counters": moved,
    }


def study_traced() -> dict:
    """The cold/figures/warm path layer by layer, each call in a span."""
    from repro import obs
    from repro.cache import load_study, store_study
    from repro.dataset.release import release_dataset
    from repro.enrichment.clustering import cluster_batches
    from repro.enrichment.design import extract_design_parameters
    from repro.enrichment.metrics import compute_batch_metrics
    from repro.enrichment.pipeline import assemble_enrichment
    from repro.figures.suite import FigureSuite
    from repro.service.app import fidelity_body, figure_body, figure_names
    from repro.simulator.config import SimulationConfig
    from repro.simulator.engine import simulate_marketplace

    config = SimulationConfig.preset(SCALE, seed=STUDY_SEED)
    before = counters()
    trace = obs.enable(f"perfbench study_{SCALE}")
    t0 = time.perf_counter()
    with obs.span("bench.simulator.simulate"):
        state = simulate_marketplace(config)
    with obs.span("bench.dataset.release"):
        released = release_dataset(state, config)
    shingled0 = counters().get("cluster.shingle_docs", 0)
    with obs.span("bench.enrichment.clustering"):
        cluster_of_batch = cluster_batches(released.batch_html)
    shingled = counters().get("cluster.shingle_docs", 0) - shingled0
    with obs.span("bench.enrichment.design"):
        design = extract_design_parameters(released.batch_html)
    with obs.span("bench.enrichment.metrics"):
        metrics = compute_batch_metrics(released)
    with obs.span("bench.enrichment.assemble"):
        enriched = assemble_enrichment(
            released, config, cluster_of_batch, design, metrics
        )
    with obs.span("bench.cache.store"):
        store_study(config, released, enriched)
    with obs.span("bench.cache.load"):
        loaded = load_study(config)
    figures = FigureSuite(state=state, released=released, enriched=enriched)
    for name in figure_names():
        with obs.span(f"bench.figures.{name}"):
            figure_body(getattr(figures, name)())
    with obs.span("bench.figures.fidelity"):
        fidelity_body(figures)
    total = time.perf_counter() - t0
    obs.finish()
    return {
        "trace": trace_summary(
            trace, lambda name: name.startswith("bench."), total
        ),
        "counters": counter_deltas(before),
        "docs_shingled": shingled,
        "loaded": loaded is not None,
    }


def reference() -> dict:
    """The monolithic serial study, uncached: the sharded build's reference."""
    from repro import build_study
    from repro.service.app import fidelity_body

    ref = build_study(SCALE, seed=STUDY_SEED, cache=False, shards=1)
    return {
        "digests": study_digests(ref.released, ref.enriched),
        "fidelity_digest": sha256(fidelity_body(ref.figures)),
    }


def _fidelity_passes(study) -> tuple[bytes, float]:
    """The fidelity body and the median time of ``FIDELITY_PASSES`` runs
    of the probes, each on a fresh suite (no shared aggregates cached)."""
    from repro.figures.suite import FigureSuite
    from repro.service.app import fidelity_body

    times = []
    for _ in range(FIDELITY_PASSES):
        suite = FigureSuite(
            state=study.figures.state,
            released=study.released,
            enriched=study.enriched,
        )
        body, seconds = timed(lambda: fidelity_body(suite))
        times.append(seconds)
    return body, median(times)


def sharded() -> dict:
    """Cold sharded build, then warm loads and the fidelity probes.

    ``peak_rss_mb`` is read right after the cold build, whose pool workers
    have been reaped by then, so it is the build's own high-water mark and
    not that of the later phases, which hold the cold study in memory.
    """
    from repro import build_study

    before = counters()
    cpu0 = cpu_seconds()
    cold, build_cold_s = timed(
        lambda: build_study(SCALE, seed=STUDY_SEED, shards=SHARDS)
    )
    build_peak_mb = peak_rss_mb()
    _warm, build_warm_s = _warm_builds(shards=SHARDS)
    fidelity, figures_s = _fidelity_passes(cold)
    cpu_s = cpu_seconds() - cpu0
    return {
        "phases": {
            "build_cold_s": build_cold_s,
            "build_warm_s": build_warm_s,
            "figures_s": figures_s,
            "cpu_s": cpu_s,
            "peak_rss_mb": build_peak_mb,
        },
        "ops": 1 + WARM_BUILDS + FIDELITY_PASSES,
        "digests": study_digests(cold.released, cold.enriched),
        "fidelity_digest": sha256(fidelity),
        "counters": counter_deltas(before),
    }


#: Spans of the sharded build that run in the parent process and between
#: them cover its wall time: the pool (shard builds), the merge, and the
#: study-cache probe and write around them.
SHARDED_LAYER_SPANS = ("parallel.map", "shard.merge", "cache.load", "cache.store")


def sharded_traced() -> dict:
    """A cold sharded build with the package's own tracer switched on."""
    import os

    from repro import build_study, obs

    before = counters()
    trace = obs.enable(f"perfbench study_sharded_{SCALE}")
    t0 = time.perf_counter()
    build_study(SCALE, seed=STUDY_SEED, shards=SHARDS)
    total = time.perf_counter() - t0
    obs.finish()
    pools = [
        s for s in trace.spans
        if s.pid == os.getpid() and s.name == "parallel.map"
    ]
    return {
        "trace": trace_summary(
            trace, lambda name: name in SHARDED_LAYER_SPANS, total
        ),
        "pool_wall_s": sum(s.wall_s for s in pools),
        "workers": max((s.attrs.get("workers", 1) for s in pools), default=1),
        "chunk_busy_s": histogram_sum("parallel.chunk_seconds"),
        "spill_s": histogram_sum("shard.spill_seconds"),
        "counters": counter_deltas(before),
    }

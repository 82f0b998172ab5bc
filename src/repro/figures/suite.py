"""The figure suite: paper figure/table numbering over the analyses."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.analysis import marketplace as mkt
from repro.analysis import prediction as pred
from repro.analysis import taskdesign as td
from repro.analysis import workers as wk
from repro.dataset.release import ReleasedDataset
from repro.enrichment.pipeline import EnrichedDataset
from repro.simulator.engine import MarketplaceState
from repro.stats.histogram import linear_histogram, log_histogram
from repro.stats.timeseries import week_index
from repro.tables import Table
from repro.tables.column import canonical_dict


def _comparison_dict(c: td.BinComparison) -> dict[str, Any]:
    return {
        "feature": c.feature,
        "metric": c.metric,
        "split": c.split_description,
        "count_low": c.count_low,
        "count_high": c.count_high,
        "median_low": c.median_low,
        "median_high": c.median_high,
        "p_value": c.t_test.p_value,
        "significant": c.significant,
        "direction": c.direction,
    }


@dataclass
class FigureSuite:
    """Bound figure/table entry points.

    Construction is cheap; per-figure computations run on demand and cache
    shared aggregates (worker profiles, source statistics).
    """

    state: MarketplaceState
    released: ReleasedDataset
    enriched: EnrichedDataset
    _profiles: wk.WorkerProfiles | None = field(default=None, repr=False)
    _source_stats: Table | None = field(default=None, repr=False)
    _arrivals: mkt.ArrivalSeries | None = field(default=None, repr=False)

    # ------------------------------------------------------------------ #
    # Shared cached aggregates
    # ------------------------------------------------------------------ #

    @property
    def num_weeks(self) -> int:
        return self.state.config.num_weeks

    @property
    def regime_week(self) -> int:
        return self.state.config.regime_switch_week

    def profiles(self) -> wk.WorkerProfiles:
        if self._profiles is None:
            self._profiles = wk.worker_profiles(self.released)
        return self._profiles

    def source_stats(self) -> Table:
        if self._source_stats is None:
            self._source_stats = wk.source_statistics(
                self.released, self.enriched
            )
        return self._source_stats

    def arrivals(self) -> mkt.ArrivalSeries:
        if self._arrivals is None:
            self._arrivals = mkt.weekly_arrivals(
                self.released, self.enriched, num_weeks=self.num_weeks
            )
        return self._arrivals

    # ------------------------------------------------------------------ #
    # §2 / §3 figures
    # ------------------------------------------------------------------ #

    def fig01_sampling(self) -> dict[str, Any]:
        """Distinct tasks sampled vs all, by week.

        For unsampled batches only the title is released (§2.2), so the
        "all" series counts distinct titles — the same proxy available to
        the paper's authors.
        """
        catalog = self.released.batch_catalog
        weeks = week_index(catalog["created_at"])
        titles = catalog["title"]
        sampled = catalog["sampled"]
        all_counts = np.zeros(self.num_weeks)
        sampled_counts = np.zeros(self.num_weeks)
        for w in range(self.num_weeks):
            mask = weeks == w
            if not mask.any():
                continue
            all_counts[w] = len(set(titles[mask]))
            if (mask & sampled).any():
                sampled_counts[w] = len(set(titles[mask & sampled]))
        return {"weeks": np.arange(self.num_weeks), "all": all_counts,
                "sampled": sampled_counts}

    def fig02_arrivals(self) -> dict[str, Any]:
        """Weekly task-instance arrivals vs pickup time / batches / tasks."""
        a = self.arrivals()
        return {
            "weeks": np.arange(self.num_weeks),
            "instances_issued": a.instances_issued,
            "instances_completed": a.instances_completed,
            "batches_issued": a.batches_issued,
            "distinct_tasks_issued": a.distinct_tasks_issued,
            "median_pickup_time": a.median_pickup_time,
        }

    def headline_load_variation(self) -> dict[str, float]:
        """§3.1's 30×/0.0004× daily-load variation statistics."""
        lv = mkt.load_variation(
            self.enriched, start_week=self.regime_week, num_weeks=self.num_weeks
        )
        return {
            "median_daily_instances": lv.median_daily_instances,
            "busiest_over_median": lv.busiest_over_median,
            "lightest_over_median": lv.lightest_over_median,
        }

    def fig03_weekday(self) -> dict[str, Any]:
        """Distribution of issued instances over days of the week."""
        totals = mkt.weekday_totals(self.enriched)
        return {
            "days": ["Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun"],
            "instances": totals,
            "weekday_weekend_ratio": float(
                totals[:5].mean() / max(totals[5:].mean(), 1e-9)
            ),
        }

    def fig04_workers(self) -> dict[str, Any]:
        """Number of distinct workers performing tasks per week."""
        series = mkt.weekly_active_workers(self.released, num_weeks=self.num_weeks)
        return {"weeks": np.arange(self.num_weeks), "active_workers": series}

    def fig05_engagement(self) -> dict[str, Any]:
        """Post-regime arrivals vs pickup; top-10%/bottom-90% engagement."""
        a = self.arrivals()
        split = mkt.engagement_split(self.released, num_weeks=self.num_weeks)
        return {
            "weeks": np.arange(self.num_weeks),
            "instances_issued": a.instances_issued,
            "median_pickup_time": a.median_pickup_time,
            "tasks_top10": split.tasks_top10,
            "tasks_bottom90": split.tasks_bottom90,
            "active_time_top10": split.active_time_top10,
            "active_time_bottom90": split.active_time_bottom90,
        }

    def fig06_cluster_sizes(self) -> dict[str, Any]:
        """Distribution of cluster sizes (batches per cluster), log bins."""
        sizes = mkt.cluster_size_distribution(self.enriched)
        hist = log_histogram(sizes, bins_per_decade=2)
        return {
            "cluster_sizes": sizes,
            "histogram": hist.as_pairs(),
            "num_clusters": int(sizes.size),
            "clusters_over_100_batches": int((sizes > 100).sum()),
        }

    def fig07_tasks_per_cluster(self) -> dict[str, Any]:
        """Distribution of instance counts across clusters, log bins."""
        counts = mkt.tasks_per_cluster_distribution(self.enriched)
        hist = log_histogram(counts, bins_per_decade=1)
        return {
            "instances_per_cluster": counts,
            "histogram": hist.as_pairs(),
            "median_instances_per_cluster": float(np.median(counts)),
            "clusters_under_10_instances": int((counts < 10).sum()),
        }

    def fig08_heavy_hitters(self) -> dict[str, Any]:
        """Cumulative instances over time for the top-10 clusters."""
        curves = mkt.heavy_hitter_curves(self.enriched, num_weeks=self.num_weeks)
        return {"weeks": np.arange(self.num_weeks), "curves": curves}

    def fig09_label_distributions(self) -> dict[str, dict[str, float]]:
        """Instance-weighted goal / data type / operator distributions."""
        return {
            "goals": mkt.label_distribution(self.enriched, "goals"),
            "data_types": mkt.label_distribution(self.enriched, "data_types"),
            "operators": mkt.label_distribution(self.enriched, "operators"),
        }

    def fig10_correlations(self) -> dict[str, dict[str, dict[str, float]]]:
        """Data|goal, operator|goal, operator|data percentages."""
        return {
            "data_given_goal": mkt.label_correlation(
                self.enriched, rows="goals", columns="data_types"
            ),
            "operator_given_goal": mkt.label_correlation(
                self.enriched, rows="goals", columns="operators"
            ),
            "operator_given_data": mkt.label_correlation(
                self.enriched, rows="data_types", columns="operators"
            ),
        }

    def fig11_correlations(self) -> dict[str, dict[str, dict[str, float]]]:
        """Goal|data, goal|operator, data|operator percentages."""
        return {
            "goal_given_data": mkt.label_correlation(
                self.enriched, rows="data_types", columns="goals"
            ),
            "goal_given_operator": mkt.label_correlation(
                self.enriched, rows="operators", columns="goals"
            ),
            "data_given_operator": mkt.label_correlation(
                self.enriched, rows="operators", columns="data_types"
            ),
        }

    def fig12_trends(self) -> dict[str, dict[str, np.ndarray]]:
        """Cumulative simple vs complex cluster counts (goals/ops/data)."""
        out = {}
        for category in ("goals", "operators", "data_types"):
            simple, complex_ = mkt.simple_complex_trend(
                self.enriched, category, num_weeks=self.num_weeks
            )
            out[category] = {"simple": simple, "complex": complex_}
        return out

    # ------------------------------------------------------------------ #
    # §4 figures and tables
    # ------------------------------------------------------------------ #

    def fig13_latency(self) -> dict[str, Any]:
        """Pickup-time vs task-time against end-to-end time."""
        d = td.latency_decomposition(self.enriched)
        return {
            "median_pickup": d.median_pickup,
            "median_task_time": d.median_task_time,
            "pickup_dominance_ratio": d.pickup_dominance_ratio,
            "end_to_end": d.end_to_end,
            "pickup_time": d.pickup_time,
            "task_time": d.task_time,
        }

    #: The {feature, metric} pairs shown in Figure 14 (a–e).
    FIG14_PAIRS = (
        ("num_words", "disagreement"),
        ("num_text_boxes", "disagreement"),
        ("num_text_boxes", "task_time"),
        ("num_items", "disagreement"),
        ("num_items", "task_time"),
        ("num_items", "pickup_time"),
        ("num_examples", "disagreement"),
        ("num_examples", "pickup_time"),
        ("num_images", "task_time"),
        ("num_images", "pickup_time"),
    )

    def fig14_feature_cdfs(self) -> list[dict[str, Any]]:
        """The §4.3–4.7 CDF experiments (one dict per feature-metric pair).

        Pairs whose split degenerates at small scales are reported with a
        ``status`` of ``skipped`` instead of data.
        """
        out = []
        for feature, metric in self.FIG14_PAIRS:
            clusters = td.analysis_clusters(self.enriched, metric=metric)
            try:
                comparison = td.bin_comparison(clusters, feature, metric)
            except ValueError as exc:
                out.append(
                    {"feature": feature, "metric": metric,
                     "status": f"skipped: {exc}"}
                )
                continue
            entry = _comparison_dict(comparison)
            entry["status"] = "ok"
            entry["cdf_low"] = comparison.cdf_low.series(60)
            entry["cdf_high"] = comparison.cdf_high.series(60)
            out.append(entry)
        return out

    def tables_123(self) -> dict[str, list[dict[str, Any]]]:
        """Paper Tables 1 (disagreement), 2 (task-time), 3 (pickup-time)."""
        return {
            metric: [
                _comparison_dict(c) for c in td.summary_table(self.enriched, metric)
            ]
            for metric in td.METRICS
        }

    #: Figure 25's drill-downs: (feature, metric, category, label).
    FIG25_DRILLDOWNS = (
        ("num_words", "disagreement", "operators", "Gat"),
        ("num_words", "disagreement", "operators", "Rate"),
        ("num_text_boxes", "task_time", "goals", "SA"),
        ("num_examples", "disagreement", "goals", "LU"),
        ("num_items", "disagreement", "operators", "Gat"),
        ("num_items", "disagreement", "operators", "Rate"),
        ("num_images", "pickup_time", "operators", "Ext"),
        ("num_images", "pickup_time", "goals", "QA"),
    )

    def fig25_drilldowns(self) -> list[dict[str, Any]]:
        """Label drill-down experiments; entries note insufficient data."""
        out = []
        for feature, metric, category, label in self.FIG25_DRILLDOWNS:
            key = {"feature": feature, "metric": metric,
                   "category": category, "label": label}
            try:
                comparison = td.drilldown(
                    self.enriched, feature=feature, metric=metric,
                    category=category, label=label,
                )
            except ValueError as exc:
                out.append({**key, "status": f"skipped: {exc}"})
                continue
            entry = {**key, "status": "ok", **_comparison_dict(comparison)}
            entry["cdf_low"] = comparison.cdf_low.series(60)
            entry["cdf_high"] = comparison.cdf_high.series(60)
            out.append(entry)
        return out

    def prediction_study(self) -> list[dict[str, Any]]:
        """§4.9: decision-tree bucket prediction accuracies."""
        outcomes = pred.run_prediction_study(self.enriched)
        return [
            {
                "metric": o.metric,
                "strategy": o.strategy,
                "bucket_upper_bounds": o.bucketization.upper_bounds,
                "bucket_counts": o.bucketization.bucket_counts(),
                "exact_accuracy": o.exact_accuracy,
                "within_one_accuracy": o.within_one_accuracy,
            }
            for o in outcomes
        ]

    # ------------------------------------------------------------------ #
    # §5 figures
    # ------------------------------------------------------------------ #

    def fig26_sources(self) -> dict[str, Any]:
        """Average tasks per worker by source; active sources per week."""
        stats = self.source_stats()
        per_week = wk.active_sources_per_week(
            self.released, num_weeks=self.num_weeks
        )
        return {
            "source_stats": stats,
            "tasks_per_worker": stats["tasks_per_worker"],
            "active_sources_per_week": per_week,
            "instances_issued": self.arrivals().instances_issued,
        }

    def fig27_source_quality(self) -> dict[str, Any]:
        """Top sources and their trust / relative task-time profiles."""
        stats = self.source_stats()
        by_workers = wk.top_sources(stats, by="num_workers")
        by_tasks = wk.top_sources(stats, by="num_tasks")
        top_names = [s for s in by_tasks["source"]]
        return {
            "top_by_workers": by_workers,
            "top_by_tasks": by_tasks,
            "top10_task_share": wk.source_share(stats, top_names, of="num_tasks"),
            "top10_worker_share": wk.source_share(stats, top_names, of="num_workers"),
            "mean_trust_all": stats["mean_trust"],
            "mean_relative_time_all": stats["mean_relative_task_time"],
        }

    def fig28_geography(self) -> dict[str, Any]:
        """Country distribution of the workforce."""
        counts = wk.country_distribution(self.released)
        total = float(counts["num_workers"].sum())
        top5 = counts.head(5)
        return {
            "countries": counts,
            "num_countries": counts.num_rows,
            "top5": top5.to_rows(),
            "top5_share": float(top5["num_workers"].sum()) / total,
        }

    def fig29_workload(self) -> dict[str, Any]:
        """Workload rank curve; hours in lifetime; hours per working day."""
        profiles = self.profiles()
        conc = wk.workload_concentration(profiles)
        hours_hist = linear_histogram(profiles.total_hours, bins=24)
        per_day = profiles.hours_per_working_day()
        per_day_hist = linear_histogram(per_day, bins=24)
        return {
            "rank_curve": wk.workload_rank_curve(profiles),
            "top10_task_share": conc.top10_task_share,
            "total_hours_histogram": hours_hist.as_pairs(),
            "hours_per_working_day_histogram": per_day_hist.as_pairs(),
            "fraction_under_1h_per_day": float((per_day < 1.0).mean()),
        }

    def fig30_lifetimes(self) -> dict[str, Any]:
        """Lifetimes; working days and lifetime fraction of active workers."""
        profiles = self.profiles()
        conc = wk.workload_concentration(profiles)
        lifetime_hist = linear_histogram(
            profiles.lifetime_days.astype(np.float64), bins=28
        )
        multi_day = profiles.working_days > 1
        working_days_hist = linear_histogram(
            profiles.working_days[multi_day].astype(np.float64), bins=28
        )
        fraction_hist = linear_histogram(
            profiles.fraction_of_lifetime_active()[multi_day], bins=22, lo=0.0, hi=1.1
        )
        return {
            "lifetime_histogram": lifetime_hist.as_pairs(),
            "one_day_worker_fraction": conc.one_day_worker_fraction,
            "one_day_task_share": conc.one_day_task_share,
            "active_worker_fraction": conc.active_worker_fraction,
            "active_task_share": conc.active_task_share,
            "working_days_histogram": working_days_hist.as_pairs(),
            "lifetime_fraction_histogram": fraction_hist.as_pairs(),
            "mean_trust_active": float(
                profiles.mean_trust[profiles.working_days > 10].mean()
            ) if (profiles.working_days > 10).any() else float("nan"),
        }

    def table4_sources(self) -> dict[str, Any]:
        """The labor-source roster (paper Table 4)."""
        observed = canonical_dict(
            self.released.instances.column("source")
        ).uniques.tolist()
        return {
            "all_sources": list(self.state.sources.names),
            "num_sources": len(self.state.sources.names),
            "observed_sources": observed,
            "num_observed": len(observed),
        }


# Every figure/table entry point runs under a span named after it, so a
# traced CLI run attributes time to individual figures.  The decorator's
# disabled path is a direct call (see repro.obs.trace.traced), so untraced
# figure computation is unaffected.
from repro import obs as _obs  # noqa: E402  (after class definition on purpose)

_FIGURE_ENTRY_POINTS = tuple(
    name
    for name, value in vars(FigureSuite).items()
    if callable(value)
    and (
        name.startswith("fig")
        or name in ("headline_load_variation", "tables_123",
                    "table4_sources", "prediction_study")
    )
)

for _name in _FIGURE_ENTRY_POINTS:
    setattr(
        FigureSuite,
        _name,
        _obs.traced(f"figures.{_name}")(getattr(FigureSuite, _name)),
    )
del _name

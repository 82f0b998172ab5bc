"""Smoke + shape tests for every figure/table entry point."""

import numpy as np
import pytest


class TestSection3Figures:
    def test_fig01(self, figures):
        out = figures.fig01_sampling()
        assert len(out["all"]) == figures.num_weeks
        # Sampled counts never exceed the total.
        assert np.all(out["sampled"] <= out["all"] + 1e-9)

    def test_fig02(self, figures):
        out = figures.fig02_arrivals()
        assert out["instances_issued"].sum() > 0
        assert out["batches_issued"].sum() > 0

    def test_headline_load(self, figures):
        out = figures.headline_load_variation()
        assert out["busiest_over_median"] > 1
        assert out["lightest_over_median"] < 1

    def test_fig03(self, figures):
        out = figures.fig03_weekday()
        assert len(out["instances"]) == 7
        assert out["weekday_weekend_ratio"] > 1.2

    def test_fig04(self, figures):
        out = figures.fig04_workers()
        assert out["active_workers"].max() > 0

    def test_fig05(self, figures):
        out = figures.fig05_engagement()
        assert out["tasks_top10"].sum() > out["tasks_bottom90"].sum()

    def test_fig06(self, figures):
        out = figures.fig06_cluster_sizes()
        assert out["num_clusters"] == figures.enriched.num_clusters
        assert sum(c for _, c in out["histogram"]) == out["num_clusters"]

    def test_fig07(self, figures):
        out = figures.fig07_tasks_per_cluster()
        assert out["median_instances_per_cluster"] > 0

    def test_fig08(self, figures):
        out = figures.fig08_heavy_hitters()
        assert 1 <= len(out["curves"]) <= 10

    def test_fig09(self, figures):
        out = figures.fig09_label_distributions()
        for category in ("goals", "data_types", "operators"):
            assert len(out[category]) >= 2
        # Filter should be among the most-used operators (Figure 9c).
        operators = out["operators"]
        assert operators.get("Filt", 0) >= 0.5 * max(operators.values())

    def test_fig10_fig11_percentages(self, figures):
        for out in (figures.fig10_correlations(), figures.fig11_correlations()):
            for matrix in out.values():
                for breakdown in matrix.values():
                    assert sum(breakdown.values()) == pytest.approx(100.0)

    def test_fig12(self, figures):
        out = figures.fig12_trends()
        # Complex goals outnumber simple goals cumulatively (Figure 12a).
        goals = out["goals"]
        assert goals["complex"][-1] > goals["simple"][-1]


class TestSection4Figures:
    def test_fig13(self, figures):
        out = figures.fig13_latency()
        assert out["pickup_dominance_ratio"] > 5

    def test_fig14(self, figures):
        out = figures.fig14_feature_cdfs()
        assert len(out) == len(figures.FIG14_PAIRS)
        for entry in out:
            if entry["status"] != "ok":
                continue
            xs, ys = entry["cdf_low"]
            assert len(xs) == len(ys)

    def test_tables_123(self, figures):
        tables = figures.tables_123()
        assert set(tables) == {"disagreement", "task_time", "pickup_time"}
        # Every reported row is significant at p < 0.01.
        for rows in tables.values():
            for row in rows:
                assert row["p_value"] < 0.01

    def test_fig25(self, figures):
        out = figures.fig25_drilldowns()
        assert len(out) == len(figures.FIG25_DRILLDOWNS)
        assert all("status" in entry for entry in out)

    def test_prediction_study(self, figures):
        out = figures.prediction_study()
        assert len(out) == 6
        for entry in out:
            assert entry["within_one_accuracy"] >= entry["exact_accuracy"]


class TestSection5Figures:
    def test_fig26(self, figures):
        out = figures.fig26_sources()
        assert out["source_stats"].num_rows >= 1
        assert out["active_sources_per_week"].max() >= 1

    def test_fig27(self, figures):
        out = figures.fig27_source_quality()
        assert out["top_by_workers"].num_rows <= 10
        assert out["top10_task_share"] > 0.5  # paper: 0.95

    def test_fig28(self, figures):
        out = figures.fig28_geography()
        assert out["num_countries"] >= 10
        assert 0.3 <= out["top5_share"] <= 0.8  # paper: ~0.5

    def test_fig29(self, figures):
        out = figures.fig29_workload()
        assert out["top10_task_share"] > 0.6
        assert out["fraction_under_1h_per_day"] > 0.7  # paper: > 0.9

    def test_fig30(self, figures):
        out = figures.fig30_lifetimes()
        assert 0.3 <= out["one_day_worker_fraction"] <= 0.75
        assert out["one_day_task_share"] < 0.1
        assert out["mean_trust_active"] > 0.85  # paper: > 0.91

    def test_table4(self, figures):
        out = figures.table4_sources()
        assert out["num_sources"] == 139
        assert out["num_observed"] <= 139
        assert "neodev" in out["all_sources"]


class TestStudyIntegration:
    def test_study_attributes(self, study):
        assert study.config.num_weeks == 209
        assert study.released.instances.num_rows > 0
        assert study.enriched.num_clusters > 0

    def test_figures_bound_to_study(self, study):
        assert study.figures.state is study.state


class TestOneStateObject:
    """Every build path hands the figure suite and the study one state
    object, whatever an earlier test left in a shared cache."""

    def test_warm_study(self, tmp_path, monkeypatch):
        from repro.study import _LazyState, build_study

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        build_study("tiny", seed=7, cache=True)
        warm = build_study("tiny", seed=7, cache=True)
        assert isinstance(warm.figures.state, _LazyState)
        assert warm.figures.state is warm.state
        # Reading study.state simulated the world behind the stand-in.
        assert warm.state.config.seed == 7
        assert warm.state.sources.names == warm.figures.state.sources.names

    def test_sharded_study(self):
        from repro.study import build_study

        sharded = build_study("tiny", seed=7, cache=False, shards=2)
        assert sharded.figures.state is sharded.state

    def test_cold_study(self):
        from repro.study import build_study

        cold = build_study("tiny", seed=7, cache=False)
        assert cold.figures.state is cold.state

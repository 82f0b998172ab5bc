"""Tests for extension analyses: internal/external split, completion
profiles, and Table.describe."""

import numpy as np
import pytest

from repro.analysis.marketplace import internal_external_split
from repro.analysis.taskdesign import batch_completion_profile
from repro.tables import Table


class TestInternalExternalSplit:
    def test_partitions_all_instances(self, study, released):
        internal, external = internal_external_split(
            released, num_weeks=study.config.num_weeks
        )
        assert internal.sum() + external.sum() == released.instances.num_rows

    def test_internal_counts_internal_source_rows(self, study, released):
        internal, _ = internal_external_split(
            released, num_weeks=study.config.num_weeks
        )
        is_internal = np.array(
            [s == "internal" for s in released.instances["source"]]
        )
        assert is_internal.any()
        assert internal.sum() == is_internal.sum()

    def test_internal_is_small(self, study, released):
        """§3.2: internal workers account for a very small fraction."""
        internal, external = internal_external_split(
            released, num_weeks=study.config.num_weeks
        )
        total = internal.sum() + external.sum()
        assert internal.sum() / total < 0.15  # paper: ~2%

    def test_external_absorbs_flux(self, study, released):
        internal, external = internal_external_split(
            released, num_weeks=study.config.num_weeks
        )
        assert external.std() > internal.std()


class TestCompletionProfile:
    @pytest.fixture(scope="class")
    def profile(self, released):
        return batch_completion_profile(released)

    def test_covers_all_batches(self, profile, released):
        assert len(profile.batch_id) == released.num_sampled_batches

    def test_quantiles_ordered(self, profile):
        assert np.all(profile.time_to_half <= profile.time_to_90 + 1e-9)
        assert np.all(profile.time_to_90 <= profile.time_to_full + 1e-9)

    def test_all_positive(self, profile):
        assert np.all(profile.time_to_half > 0)

    def test_medians_dict(self, profile):
        medians = profile.medians()
        assert set(medians) == {"time_to_half", "time_to_90", "time_to_full"}
        assert medians["time_to_full"] >= medians["time_to_half"]

    def test_pickup_dominates_completion(self, profile, enriched):
        """Even full-batch completion is pickup-dominated (§4.1)."""
        median_task_time = float(np.median(enriched.batch_table["task_time"]))
        assert profile.medians()["time_to_half"] > 3 * median_task_time


class TestDescribe:
    def test_numeric_columns_only(self):
        t = Table({"a": [1, 2, 3], "b": ["x", "y", "z"], "c": [1.0, 2.0, 3.0]})
        d = t.describe()
        assert sorted(d["column"]) == ["a", "c"]

    def test_values(self):
        t = Table({"a": [1.0, 2.0, 3.0, 4.0]})
        row = t.describe().row(0)
        assert row["count"] == 4
        assert row["mean"] == 2.5
        assert row["median"] == 2.5
        assert row["min"] == 1.0 and row["max"] == 4.0

    def test_no_numeric_columns(self):
        t = Table({"s": ["a", "b"]})
        assert t.describe().num_rows == 0

"""Tests for marketplace-policy experiments."""

import pytest

from repro.policy import PolicyOutcome, run_policy_experiment
from repro.simulator.config import SimulationConfig


@pytest.fixture(scope="module")
def outcomes():
    base = SimulationConfig.preset("tiny", seed=7)
    return run_policy_experiment(
        {
            "bigger dedicated core": {
                "engagement_mix": (0.44, 0.36, 0.08, 0.12),
            },
            "more casual labor": {
                "casual_share_target": 0.45,
                "casual_volume_cap": 0.8,
            },
        },
        base=base,
    )


#: The outcomes of the ``outcomes`` fixture as the per-week ``np.unique``
#: loop computed them; the grouped distinct count must reproduce them
#: exactly (floats compared with ``==``).
PINNED_OUTCOMES = [
    PolicyOutcome(
        name="baseline",
        median_pickup_seconds=10386.5,
        p90_pickup_seconds=40682.3,
        mean_weekly_active_workers=46.65714285714286,
        top10_task_share=0.8268643509039802,
        one_day_task_share=0.023423673526043656,
    ),
    PolicyOutcome(
        name="bigger dedicated core",
        median_pickup_seconds=10386.5,
        p90_pickup_seconds=40682.3,
        mean_weekly_active_workers=72.95714285714286,
        top10_task_share=0.6917965090051011,
        one_day_task_share=0.018244439046396225,
    ),
    PolicyOutcome(
        name="more casual labor",
        median_pickup_seconds=10386.5,
        p90_pickup_seconds=40682.3,
        mean_weekly_active_workers=45.82857142857143,
        top10_task_share=0.7529149460387965,
        one_day_task_share=0.03876184196828261,
    ),
]


class TestPolicyExperiment:
    def test_outcomes_pinned(self, outcomes):
        assert outcomes == PINNED_OUTCOMES

    def test_baseline_included(self, outcomes):
        assert outcomes[0].name == "baseline"
        assert len(outcomes) == 3

    def test_metrics_populated(self, outcomes):
        for outcome in outcomes:
            assert outcome.median_pickup_seconds > 0
            assert outcome.p90_pickup_seconds >= outcome.median_pickup_seconds
            assert outcome.mean_weekly_active_workers > 0
            assert 0 < outcome.top10_task_share <= 1

    def test_more_casual_labor_spreads_work(self, outcomes):
        baseline = outcomes[0]
        casual = next(o for o in outcomes if o.name == "more casual labor")
        assert casual.top10_task_share < baseline.top10_task_share

    def test_as_dict_round(self, outcomes):
        d = outcomes[0].as_dict()
        assert d["policy"] == "baseline"
        assert set(d) == {
            "policy", "median_pickup_s", "p90_pickup_s",
            "weekly_active_workers", "top10_task_share", "one_day_task_share",
        }

    def test_no_baseline_option(self):
        base = SimulationConfig.preset("tiny", seed=3)
        outcomes = run_policy_experiment({}, base=base, include_baseline=False)
        assert outcomes == []

"""Marketplace-policy experiments on the simulator.

The paper's §3.1–§3.2 discussion is aimed at marketplace *administrators*:
how should the platform balance its push/pull routing and its dedicated vs
on-demand labor pools?  ("Striking a good balance between the two task
routing mechanisms and worker pools is crucial...")

This module turns those questions into runnable experiments: a policy is a
set of calibration overrides (e.g. a bigger power-worker pool, a higher
casual share); :func:`run_policy_experiment` simulates each variant on the
same seed and reports the operational metrics an administrator watches —
median pickup latency, distinct active workers, and workload concentration.

Model limitation worth knowing: pickup times in the generative model are
driven by demand (weekly load) and task design, *not* by pool composition —
so policies move the workforce metrics but leave latency untouched.  The
latency columns are reported anyway so the invariance is visible.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from repro.analysis import workers as wk
from repro.dataset.release import release_dataset
from repro.simulator.config import SimulationConfig
from repro.simulator.engine import simulate_marketplace
from repro.stats.timeseries import distinct_by_bucket, week_index


@dataclass(frozen=True)
class PolicyOutcome:
    """Operational metrics of one simulated policy."""

    name: str
    median_pickup_seconds: float
    p90_pickup_seconds: float
    mean_weekly_active_workers: float
    top10_task_share: float
    one_day_task_share: float

    def as_dict(self) -> dict[str, float | str]:
        return {
            "policy": self.name,
            "median_pickup_s": round(self.median_pickup_seconds, 1),
            "p90_pickup_s": round(self.p90_pickup_seconds, 1),
            "weekly_active_workers": round(self.mean_weekly_active_workers, 1),
            "top10_task_share": round(self.top10_task_share, 3),
            "one_day_task_share": round(self.one_day_task_share, 4),
        }


def _evaluate(name: str, config: SimulationConfig) -> PolicyOutcome:
    state = simulate_marketplace(config)
    released = release_dataset(state, config)
    instances = released.instances

    batch_created = np.zeros(
        int(released.batch_catalog["batch_id"].max()) + 1, dtype=np.float64
    )
    batch_created[released.batch_catalog["batch_id"]] = released.batch_catalog[
        "created_at"
    ]
    pickup = (
        instances["start_time"].astype(np.float64)
        - batch_created[instances["batch_id"]]
    )

    weeks = week_index(instances["start_time"])
    switch = config.regime_switch_week
    post = weeks >= switch
    active_per_week = distinct_by_bucket(
        weeks, instances["worker_id"], num_buckets=config.num_weeks
    )[switch:]
    # Weeks without activity are left out of the mean.
    active_per_week = active_per_week[active_per_week > 0]

    profiles = wk.worker_profiles(released)
    concentration = wk.workload_concentration(profiles)

    return PolicyOutcome(
        name=name,
        median_pickup_seconds=float(np.median(pickup[post])),
        p90_pickup_seconds=float(np.percentile(pickup[post], 90)),
        mean_weekly_active_workers=float(np.mean(active_per_week))
        if active_per_week.size
        else 0.0,
        top10_task_share=concentration.top10_task_share,
        one_day_task_share=concentration.one_day_task_share,
    )


def run_policy_experiment(
    policies: Mapping[str, Mapping[str, object]],
    *,
    base: SimulationConfig | None = None,
    include_baseline: bool = True,
) -> list[PolicyOutcome]:
    """Simulate each policy and return its operational metrics.

    ``policies`` maps a policy name to :class:`Calibration` field overrides
    (e.g. ``{"bigger core": {"engagement_mix": (0.5, 0.33, 0.09, 0.08)}}``).
    All variants share the base config's seed, so differences are caused by
    the policy.
    """
    base = base or SimulationConfig.preset("tiny", seed=7)
    outcomes: list[PolicyOutcome] = []
    if include_baseline:
        outcomes.append(_evaluate("baseline", base))
    for name, overrides in policies.items():
        calibration = dataclasses.replace(base.calibration, **overrides)
        config = dataclasses.replace(base, calibration=calibration)
        outcomes.append(_evaluate(name, config))
    return outcomes

"""Empirical CDFs, the paper's §4 visualization primitive.

The paper's CDF plots put the metric on the x-axis and ``P(metric <= x)`` on
the y-axis, one line per feature bin; "the higher line is better" because the
metrics are all costs (disagreement, task-time, pickup-time).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class EmpiricalCDF:
    """Right-continuous empirical distribution function of a sample."""

    support: np.ndarray = field(repr=False)
    probabilities: np.ndarray = field(repr=False)

    @classmethod
    def from_sample(cls, values) -> "EmpiricalCDF":
        array = np.asarray(values, dtype=np.float64)
        array = array[~np.isnan(array)]
        if array.size == 0:
            raise ValueError("cannot build a CDF from an empty sample")
        support = np.sort(array)
        probabilities = np.arange(1, array.size + 1, dtype=np.float64) / array.size
        return cls(support=support, probabilities=probabilities)

    @property
    def sample_size(self) -> int:
        return int(self.support.size)

    def evaluate(self, x) -> np.ndarray:
        """P(X <= x), vectorized over ``x``."""
        x = np.asarray(x, dtype=np.float64)
        idx = np.searchsorted(self.support, x, side="right")
        return np.where(idx == 0, 0.0, self.probabilities[np.maximum(idx - 1, 0)]) * (
            idx > 0
        )

    def quantile(self, q: float) -> float:
        """Inverse CDF at probability ``q`` in [0, 1]."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        idx = int(np.searchsorted(self.probabilities, q, side="left"))
        idx = min(idx, self.support.size - 1)
        return float(self.support[idx])

    def median(self) -> float:
        return self.quantile(0.5)

    def series(self, points: int = 100) -> tuple[np.ndarray, np.ndarray]:
        """(x, y) arrays for plotting, evaluated on an even grid of the range."""
        lo, hi = float(self.support[0]), float(self.support[-1])
        if lo == hi:
            xs = np.array([lo])
        else:
            xs = np.linspace(lo, hi, points)
        return xs, self.evaluate(xs)


def cdf_dominates(
    better: EmpiricalCDF, worse: EmpiricalCDF, *, points: int = 200, slack: float = 0.02
) -> bool:
    """True if ``better`` (stochastically smaller) lies above ``worse``.

    Evaluated on a shared grid spanning both supports; ``slack`` tolerates
    small crossings, matching the visual reading of the paper's CDF plots.
    """
    lo = min(better.support[0], worse.support[0])
    hi = max(better.support[-1], worse.support[-1])
    xs = np.linspace(lo, hi, points) if hi > lo else np.array([lo])
    return bool(np.all(better.evaluate(xs) >= worse.evaluate(xs) - slack))

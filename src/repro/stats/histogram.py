"""Linear- and log-binned histograms for the paper's distribution plots."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class Histogram:
    """Bin edges plus counts; ``edges`` has one more entry than ``counts``."""

    edges: np.ndarray = field(repr=False)
    counts: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        if len(self.edges) != len(self.counts) + 1:
            raise ValueError(
                f"{len(self.edges)} edges incompatible with {len(self.counts)} counts"
            )

    @property
    def num_bins(self) -> int:
        return int(self.counts.size)

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def bin_centers(self) -> np.ndarray:
        return (self.edges[:-1] + self.edges[1:]) / 2.0

    def fractions(self) -> np.ndarray:
        total = self.total
        if total == 0:
            return np.zeros_like(self.counts, dtype=np.float64)
        return self.counts / total

    def as_pairs(self) -> list[tuple[float, int]]:
        """(bin lower edge, count) pairs — convenient for text reporting."""
        return [(float(e), int(c)) for e, c in zip(self.edges[:-1], self.counts)]


def linear_histogram(values, *, bins: int = 20, lo: float | None = None,
                     hi: float | None = None) -> Histogram:
    """Histogram with equal-width bins over [lo, hi] (defaults to data range)."""
    array = np.asarray(values, dtype=np.float64)
    array = array[~np.isnan(array)]
    if array.size == 0:
        raise ValueError("cannot histogram an empty sample")
    lo = float(array.min()) if lo is None else lo
    hi = float(array.max()) if hi is None else hi
    if hi <= lo:
        hi = lo + 1.0
    counts, edges = np.histogram(array, bins=bins, range=(lo, hi))
    return Histogram(edges=edges, counts=counts.astype(np.int64))


def log_histogram(values, *, bins_per_decade: int = 1) -> Histogram:
    """Histogram with logarithmic bins, as in the paper's Figures 6, 7, 29.

    Bins start at 1 (values below 1 are clipped into the first bin) and step by
    factors of ``10 ** (1 / bins_per_decade)``.
    """
    array = np.asarray(values, dtype=np.float64)
    array = array[~np.isnan(array)]
    if array.size == 0:
        raise ValueError("cannot histogram an empty sample")
    if np.any(array < 0):
        raise ValueError("log histogram requires non-negative values")
    clipped = np.maximum(array, 1.0)
    top = float(clipped.max())
    decades = int(np.ceil(np.log10(top))) + 1 if top > 1 else 1
    num_bins = max(1, decades * bins_per_decade)
    edges = np.power(10.0, np.arange(num_bins + 1) / bins_per_decade)
    counts, _ = np.histogram(clipped, bins=edges)
    return Histogram(edges=edges, counts=counts.astype(np.int64))

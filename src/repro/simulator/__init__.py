"""The synthetic crowdsourcing-marketplace generator.

This is the substitute for the paper's proprietary dataset.  A single call to
:func:`~repro.simulator.engine.simulate_marketplace` produces a
:class:`~repro.simulator.engine.MarketplaceState` holding the full ground
truth: sources, workers, distinct tasks, batches, and the instance-level
event log (who did what, when, with which answer and trust score).
:func:`~repro.simulator.engine.simulate_world` builds the world without the
log, and :class:`~repro.simulator.engine.LazyMarketplaceState` builds each
part on first read.

The generator is *calibrated to the paper's published statistics* — every
effect the paper reports (examples reduce disagreement and pickup time,
text-boxes slow workers down, heavy-hitter clusters dominate the batch count,
the top-10% of workers absorb load spikes, ...) is baked into the generative
process, and the analysis layer must recover it from raw rows only.
"""

from repro.simulator.config import Calibration, SimulationConfig
from repro.simulator.engine import MarketplaceState, simulate_marketplace

__all__ = [
    "Calibration",
    "MarketplaceState",
    "SimulationConfig",
    "simulate_marketplace",
]

"""Multi-seed fault campaigns: downtime statistics with uncertainty.

A single month-long lifetime simulation is one draw from the fault
process; operators (and reviewers) care about the distribution.  The
campaign driver replays the Table III scenario across seeds and reports
means with normal-approximation confidence intervals, so statements
like "C4D reduces downtime ~30x" carry error bars.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from repro.training.lifetime import (
    DowntimeBreakdown,
    LifetimeConfig,
    OperationsModel,
    simulate_lifetime,
)

COMPONENTS = ("Post-Checkpoint", "Detection", "Diagnosis & Isolation",
              "Re-Initialization", "Total")


@dataclass(frozen=True)
class ComponentStats:
    """Mean and 95% CI of one downtime component, as fractions."""

    mean: float
    ci95: float

    @property
    def low(self) -> float:
        """Lower CI bound (clamped at zero)."""
        return max(0.0, self.mean - self.ci95)

    @property
    def high(self) -> float:
        """Upper CI bound."""
        return self.mean + self.ci95


@dataclass(frozen=True)
class CampaignResult:
    """Aggregated downtime statistics over one operations model."""

    operations_name: str
    runs: int
    components: dict[str, ComponentStats]
    crash_counts: tuple[int, ...]

    @property
    def total(self) -> ComponentStats:
        """The headline total-downtime statistic."""
        return self.components["Total"]


def run_campaign(
    operations: OperationsModel,
    base_config: LifetimeConfig | None = None,
    runs: int = 20,
) -> CampaignResult:
    """Replay the lifetime simulation across ``runs`` seeds."""
    if runs < 2:
        raise ValueError("need at least 2 runs for a confidence interval")
    base = base_config or LifetimeConfig()
    samples: list[DowntimeBreakdown] = []
    for index in range(runs):
        config = replace(base, seed=base.seed + index)
        samples.append(simulate_lifetime(config, operations))
    components: dict[str, ComponentStats] = {}
    for component in COMPONENTS:
        values = np.array([s.as_table()[component] for s in samples])
        mean = float(values.mean())
        # Normal-approximation 95% CI of the mean.
        ci95 = 1.96 * float(values.std(ddof=1)) / math.sqrt(runs)
        components[component] = ComponentStats(mean=mean, ci95=ci95)
    return CampaignResult(
        operations_name=operations.name,
        runs=runs,
        components=components,
        crash_counts=tuple(s.crash_count for s in samples),
    )


def reduction_factor(before: CampaignResult, after: CampaignResult) -> ComponentStats:
    """Downtime reduction factor with (first-order) error propagation."""
    b, a = before.total, after.total
    if a.mean <= 0:
        raise ValueError("after-campaign has zero downtime; factor undefined")
    mean = b.mean / a.mean
    rel = math.sqrt((b.ci95 / b.mean) ** 2 + (a.ci95 / a.mean) ** 2) if b.mean > 0 else 0.0
    return ComponentStats(mean=mean, ci95=mean * rel)

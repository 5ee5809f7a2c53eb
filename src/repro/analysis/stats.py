"""Statistics helpers for violation-rate estimates.

The ✗ cells of the paper's tables are existential, but the *rates* we
report for them (bench_theorems, bench_ablation) are binomial estimates
from finite trials.  :func:`wilson_interval` attaches a confidence
interval so EXPERIMENTS.md readers can judge how much to trust a rate
from N trials, and :func:`rates_differ` gives a quick two-proportion test
used when claiming one configuration violates more often than another
(e.g. AD-1's inconsistency growing with replication degree).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

__all__ = ["RateEstimate", "wilson_interval", "estimate_rate", "rates_differ"]

#: Inverse standard-normal CDF.  Callers pass p = 0.5 + confidence/2, so
#: p ∈ (0.5, 1); the standard library agrees with ``scipy.stats.norm.ppf``
#: to 1e-15 relative there.
_norm_ppf = NormalDist().inv_cdf


@dataclass(frozen=True)
class RateEstimate:
    """A binomial proportion with its Wilson confidence interval."""

    successes: int
    trials: int
    confidence: float
    low: float
    high: float

    @property
    def point(self) -> float:
        if self.trials == 0:
            return 0.0
        return self.successes / self.trials

    def __str__(self) -> str:
        return (
            f"{self.point:.1%} [{self.low:.1%}, {self.high:.1%}] "
            f"({self.successes}/{self.trials})"
        )


def wilson_interval(
    successes: int, trials: int, confidence: float = 0.95
) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion.

    Well-behaved at the extremes (0/N and N/N), unlike the normal
    approximation — important here because the paper's ✓ cells *should*
    measure exactly 0 violations.
    """
    if trials < 0 or successes < 0 or successes > trials:
        raise ValueError(f"invalid counts: {successes}/{trials}")
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0,1), got {confidence}")
    if trials == 0:
        return (0.0, 1.0)
    z = _norm_ppf(0.5 + confidence / 2.0)
    p = successes / trials
    denominator = 1.0 + z * z / trials
    centre = (p + z * z / (2 * trials)) / denominator
    margin = (
        z
        * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials))
        / denominator
    )
    low = max(0.0, centre - margin)
    high = min(1.0, centre + margin)
    # The exact endpoints at 0/N and N/N are 0 and 1; clamp the float noise.
    if successes == 0:
        low = 0.0
    if successes == trials:
        high = 1.0
    return (low, high)


def estimate_rate(
    successes: int, trials: int, confidence: float = 0.95
) -> RateEstimate:
    low, high = wilson_interval(successes, trials, confidence)
    return RateEstimate(successes, trials, confidence, low, high)


def rates_differ(
    successes_a: int,
    trials_a: int,
    successes_b: int,
    trials_b: int,
    confidence: float = 0.95,
) -> bool:
    """Two-proportion z-test: is rate A significantly different from B?

    Returns True when the pooled z statistic exceeds the two-sided
    critical value.  Degenerate inputs (no trials) are never significant.
    """
    if trials_a == 0 or trials_b == 0:
        return False
    p_a = successes_a / trials_a
    p_b = successes_b / trials_b
    pooled = (successes_a + successes_b) / (trials_a + trials_b)
    variance = pooled * (1 - pooled) * (1 / trials_a + 1 / trials_b)
    if variance == 0:
        return p_a != p_b
    z = (p_a - p_b) / math.sqrt(variance)
    critical = _norm_ppf(0.5 + confidence / 2.0)
    return abs(z) > critical

"""Quantitative alert quality: how *wrong* a replicated monitor gets.

The property checkers (:mod:`repro.props`) decide orderedness /
completeness / consistency as booleans; this package measures degrees —
precision, recall, duplicate and missed-alert rates, and alert-latency
percentiles against the single-replica ground truth — per run
(:mod:`repro.quality.metrics`) and swept over AD algorithm × loss ×
fault intensity (:mod:`repro.quality.sweep`, ``repro sweep quality``).
"""

from repro.quality.metrics import AlertQuality, alert_quality
from repro.quality.sweep import (
    QUALITY_BASE_SEED,
    QUALITY_SWEEP,
    adaptive_matches_best_static,
    quality_specs,
)

__all__ = [
    "AlertQuality",
    "alert_quality",
    "QUALITY_BASE_SEED",
    "QUALITY_SWEEP",
    "adaptive_matches_best_static",
    "quality_specs",
]

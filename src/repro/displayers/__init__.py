"""Alert Displayer filtering algorithms AD-1 … AD-6 (Section 4, Appendix A)."""

from repro.displayers.ad1 import AD1
from repro.displayers.ad2 import AD2
from repro.displayers.ad3 import AD3, ConflictTracker
from repro.displayers.ad4 import AD4
from repro.displayers.ad5 import AD5
from repro.displayers.ad6 import AD6
from repro.displayers.adaptive import AdaptiveAD
from repro.displayers.base import ADAlgorithm, run_ad
from repro.displayers.delayed import DelayedDisplayAD, attach_delayed_ad
from repro.displayers.registry import (
    AlgorithmInfo,
    PassThrough,
    algorithm_info,
    algorithm_names,
    make_ad,
)

__all__ = [
    "AD1",
    "AD2",
    "AD3",
    "AD4",
    "AD5",
    "AD6",
    "ADAlgorithm",
    "AdaptiveAD",
    "AlgorithmInfo",
    "ConflictTracker",
    "DelayedDisplayAD",
    "attach_delayed_ad",
    "PassThrough",
    "algorithm_info",
    "algorithm_names",
    "make_ad",
    "run_ad",
]

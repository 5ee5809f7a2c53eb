"""Name → AD algorithm factory, used by scenarios, benches and examples.

``make_ad("AD-4", condition)`` builds the right algorithm instance for a
condition: single-variable algorithms receive the condition's variable,
multi-variable ones its full variable set.  The registry also records
which properties each algorithm is *claimed* (by the paper) to guarantee,
which the table benchmarks compare against measurements.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

from repro.core.condition import Condition
from repro.displayers.ad1 import AD1
from repro.displayers.ad2 import AD2
from repro.displayers.ad3 import AD3
from repro.displayers.ad4 import AD4
from repro.displayers.ad5 import AD5
from repro.displayers.ad6 import AD6
from repro.displayers.adaptive import AdaptiveAD
from repro.displayers.base import ADAlgorithm

__all__ = ["make_ad", "algorithm_names", "AlgorithmInfo", "algorithm_info", "PassThrough"]


class PassThrough(ADAlgorithm):
    """No filtering at all — the AD of the non-replicated system N.

    Also useful as the worst-case baseline: it trivially dominates every
    algorithm but guarantees nothing, not even duplicate suppression.
    """

    name = "pass"

    def _accept(self, key: tuple) -> bool:
        return True


@dataclass(frozen=True)
class AlgorithmInfo:
    """What the paper claims an algorithm guarantees, and where."""

    name: str
    multi_variable: bool
    guarantees_ordered: bool
    guarantees_consistent: bool
    paper_figure: str


_INFO = {
    "pass": AlgorithmInfo("pass", True, False, False, "Fig 2(b)"),
    "AD-1": AlgorithmInfo("AD-1", True, False, False, "Fig A-1"),
    "AD-2": AlgorithmInfo("AD-2", False, True, False, "Fig A-2"),
    "AD-3": AlgorithmInfo("AD-3", False, False, True, "Fig A-3"),
    "AD-4": AlgorithmInfo("AD-4", False, True, True, "Fig A-4"),
    "AD-5": AlgorithmInfo("AD-5", True, True, False, "Fig A-5"),
    "AD-6": AlgorithmInfo("AD-6", True, True, True, "Fig A-6"),
    # AD-7: runtime selection over the ladder above.  The recall guard
    # deliberately trades the formal guarantees for maximal event
    # detection, so it claims neither orderedness nor consistency.
    "adaptive": AlgorithmInfo("adaptive", True, False, False, "—"),
}


def algorithm_names() -> tuple[str, ...]:
    return tuple(_INFO)


def algorithm_info(name: str) -> AlgorithmInfo:
    try:
        return _INFO[name]
    except KeyError:
        raise KeyError(f"unknown AD algorithm {name!r}; known: {list(_INFO)}") from None


def make_ad(name: str, condition: Condition) -> ADAlgorithm:
    """Instantiate algorithm ``name`` configured for ``condition``.

    Single-variable algorithms (AD-2/3/4) require a single-variable
    condition; multi-variable algorithms accept any variable count.
    """
    variables = condition.variables
    if name == "pass":
        return PassThrough()
    if name == "AD-1":
        return AD1()
    if name in ("AD-2", "AD-3", "AD-4"):
        if len(variables) != 1:
            raise ValueError(
                f"{name} is a single-variable algorithm; condition "
                f"{condition.name!r} has variables {variables}"
            )
        cls = {"AD-2": AD2, "AD-3": AD3, "AD-4": AD4}[name]
        return cls(variables[0])
    if name == "AD-5":
        return AD5(variables)
    if name == "AD-6":
        return AD6(variables)
    if name == "adaptive":
        # Seed the policy from the condition name so different conditions
        # jitter their windows differently, yet every run of the same
        # condition — any kernel, any runtime — derives the same policy.
        return AdaptiveAD(
            variables, policy_seed=zlib.crc32(condition.name.encode())
        )
    raise KeyError(f"unknown AD algorithm {name!r}; known: {list(_INFO)}")

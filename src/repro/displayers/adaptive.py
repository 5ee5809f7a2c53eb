"""AD-7 — adaptive algorithm selection from observed rejection reasons.

The paper fixes one filtering algorithm per deployment; the adaptive-
monitoring literature (see PAPERS.md) closes the loop instead: watch the
monitor's own error signals and reconfigure at runtime.  ``AdaptiveAD``
does exactly that over the paper's own ladder of filters:

* single-variable conditions climb AD-1 → AD-2 → AD-3 → AD-4,
* multi-variable conditions climb AD-1 → AD-5 → AD-6,

escalating to a stricter constituent when a sliding window of offers
shows the current one rejecting nothing but exact duplicates (the
stream is clean — stronger guarantees are free), and backing off when
the *recall guard* keeps overriding it (the stricter filter is fighting
genuinely novel events, which happens under loss and faults).

Two invariants make the adaptive displayer safe and replayable:

**Recall guard.**  Every arrival is keyed by its head-seqno vector
(:func:`~repro.core.alert.identity_event_key` of its identity — the
real-world event it reports).  If the active constituent rejects an alert whose event key
has never been displayed, the guard displays it anyway.  AD-1 displays
the first arrival of every event key (a fresh key implies a fresh
identity), and no online filter can display an event that never
arrives, so the guard makes the adaptive displayer's detected-event set
*equal* to AD-1's — the maximum any algorithm achieves — at every loss
and fault intensity, by construction.  Exact duplicates (same identity)
are always suppressed, so the adaptive displayer also never does worse
than AD-1 on duplicate volume.

**Determinism.**  Decisions are a pure function of the constructor
arguments and the arrival order.  The seeded policy RNG only jitters
window boundaries (so switch points do not resonate with periodic
workloads) and is consumed at a deterministic rate — one draw per
window — which is what lets adaptive runs record→replay bit-identically
on both kernels and through every service runtime: they all present the
same merged arrival order.

Unlike AD-1…AD-6, the adaptive displayer updates policy state on
*rejected* arrivals too (the window counters are its sensor).  It
therefore overrides :meth:`decide` and remembers which rung rejected
the last alert, so the observability contract — the reason reported for
a rejection is the one computed by the state that made the decision —
still holds.
"""

from __future__ import annotations

from collections.abc import Iterable
from random import Random

from repro.core.alert import identity_event_key
from repro.displayers.ad1 import AD1
from repro.displayers.ad4 import AD4
from repro.displayers.ad6 import AD6
from repro.displayers.base import ADAlgorithm

__all__ = ["AdaptiveAD", "DEFAULT_WINDOW"]

#: Nominal sliding-window length (offers per policy evaluation).
DEFAULT_WINDOW = 8

#: Window-boundary jitter drawn per window from the policy RNG.
_JITTER = (-2, -1, 0, 1, 2)

#: De-escalate when guard overrides exceed this fraction of the window.
GUARD_BACKOFF_FRACTION = 0.25


def _ladder(varnames: tuple[str, ...]) -> tuple[list[tuple], tuple]:
    """``(algorithm, accepts)`` rungs in escalation order, least to most
    strict, and the recorders that fold a displayed alert into the state
    they share.

    ``algorithm`` lends a rung its name and rejection reasons; ``accepts``
    is that algorithm's filter *minus* duplicate suppression, which the
    adaptive displayer does itself — once per offer, for every rung — so
    the rungs' own duplicate memories are never written.  The top rung is
    the paper's composition of the ones below it (AD-4 = AD-2 ∧ AD-3,
    AD-6 = AD-5 ∧ multi-variable AD-3) and the lower rungs *are* its
    parts: every rung observes the whole displayed sequence (the AD-4
    composition discipline), so any of them is switch-ready.
    """
    if len(varnames) == 1:
        top = AD4(varnames[0])
        ad2, ad3 = top._ad2, top._ad3
        tracker = ad3._tracker
        return [
            (AD1(), lambda key: True),
            (ad2, ad2._accept),
            (ad3, lambda key: not tracker.conflicts(key)),
            (top, lambda key: ad2._accept(key) and not tracker.conflicts(key)),
        ], (ad2._record, tracker.record)
    top = AD6(varnames)
    ad5 = top._ad5
    return [
        (AD1(), lambda key: True), (ad5, ad5._accept), (top, top._accept),
    ], (top._record,)


class AdaptiveAD(ADAlgorithm):
    """Sliding-window adaptive selection over the AD-1…AD-6 ladder."""

    name = "AD-7"

    def __init__(
        self,
        varnames: Iterable[str] = ("x",),
        policy_seed: int = 0,
        window: int = DEFAULT_WINDOW,
    ) -> None:
        super().__init__()
        self.varnames = tuple(varnames)
        if not self.varnames:
            raise ValueError("AdaptiveAD needs at least one variable")
        if window < 4:
            raise ValueError(f"window must be >= 4, got {window}")
        self.policy_seed = policy_seed
        self.window = window
        self._ladder, self._recorders = _ladder(self.varnames)
        self._active = 0
        self._rng = Random(policy_seed)
        self._window_left = self._next_window_length()
        #: Reason-class counters for the current window.
        self._window_counts = {
            "display": 0,
            "duplicate": 0,
            "guard-override": 0,
            "filtered": 0,
        }
        #: Identities ever displayed (AD-1's duplicate suppression).
        self._seen: set[tuple] = set()
        #: Event keys ever displayed (the recall guard's memory).
        self._detected: set[tuple] = set()
        #: (offer_index, from_name, to_name) switch history.
        self._switches: list[tuple[int, str, str]] = []
        self._offers = 0
        #: The last rejected identity and the rung whose reason explains it.
        self._last_rejection: tuple[tuple, ADAlgorithm] | None = None

    # -- introspection -------------------------------------------------------
    @property
    def active_name(self) -> str:
        """The name of the constituent currently making decisions."""
        return self._ladder[self._active][0].name

    @property
    def ladder_names(self) -> tuple[str, ...]:
        return tuple(algorithm.name for algorithm, _accepts in self._ladder)

    @property
    def switch_log(self) -> tuple[tuple[int, str, str], ...]:
        return tuple(self._switches)

    def _fresh_args(self) -> tuple:
        return (self.varnames, self.policy_seed, self.window)

    # -- policy --------------------------------------------------------------
    def _next_window_length(self) -> int:
        return max(4, self.window + self._rng.choice(_JITTER))

    def _evaluate_window(self) -> None:
        counts = self._window_counts
        total = sum(counts.values())
        overrides = counts["guard-override"]
        if total and overrides > GUARD_BACKOFF_FRACTION * total:
            target = max(0, self._active - 1)
        elif overrides == 0:
            target = min(len(self._ladder) - 1, self._active + 1)
        else:
            target = self._active
        if target != self._active:
            self._switches.append(
                (self._offers, self.active_name, self._ladder[target][0].name)
            )
            self._active = target
        for key in counts:
            counts[key] = 0
        self._window_left = self._next_window_length()

    def _tick(self, outcome: str) -> None:
        self._window_counts[outcome] += 1
        self._window_left -= 1
        if self._window_left <= 0:
            self._evaluate_window()

    # -- the filter ----------------------------------------------------------
    def _display(self, key: tuple, event: tuple) -> None:
        self._seen.add(key)
        self._detected.add(event)
        for record in self._recorders:
            record(key)

    def _reject(self, key: tuple, rung: ADAlgorithm, outcome: str) -> bool:
        self._last_rejection = (key, rung)
        self._tick(outcome)
        return False

    def decide(self, key: tuple) -> bool:
        self._offers += 1
        if key in self._seen:
            # AD-1's rejection, whichever rung is active.
            return self._reject(key, self._ladder[0][0], "duplicate")
        event = identity_event_key(key, self.varnames)
        rung, accepts = self._ladder[self._active]
        if accepts(key):
            self._display(key, event)
            self._tick("display")
            return True
        if event not in self._detected:
            # Recall guard: a rejected but never-displayed event — show it.
            self._display(key, event)
            self._tick("guard-override")
            return True
        return self._reject(key, rung, "filtered")

    def rejection_reason(self, key: tuple) -> str:
        """The reason of the rung whose state rejected the alert ``key``.

        Policy state advances on rejections, so (unlike the static
        algorithms) the rung active after the offer may not be the one
        that decided; the deciding rung is remembered and asked here.
        Its filter state moves only on a display, so until then the
        reason is rendered against exactly the state that decided.
        """
        last = self._last_rejection
        if last is not None and last[0] == key:
            rung = last[1]
        elif key in self._seen:
            rung = self._ladder[0][0]
        else:
            rung = self._ladder[self._active][0]
        return rung.rejection_reason(key)

    def _accept(self, key: tuple) -> bool:  # pragma: no cover - bypassed
        raise NotImplementedError("AdaptiveAD decides inside decide()")

"""Stochastic fault primitives beyond crash windows.

Three adversaries the link layer can host, all deterministic given the
link's seeded RNG stream:

* :class:`GilbertElliottParams` / :class:`GilbertElliottLoss` — correlated
  burst loss.  A two-state Markov chain (Good/Bad) advances one step per
  datagram; each state has its own loss probability.  Compared with the
  Bernoulli loss of :class:`~repro.simulation.network.LossyFifoLink`,
  bursts concentrate losses in time, which is the regime where one CE can
  miss a whole run of updates while its replica sees them — exactly the
  divergence replication is supposed to mask.
* :class:`DuplicationAdversary` — bounded datagram duplication.  UDP can
  deliver a datagram more than once; the adversary schedules up to
  ``max_copies`` extra copies of a sent message, each with its own delay
  draw.  Copies carry the *same* FIFO tag, so the receiver-side order
  enforcement also deduplicates (at-most-once delivery to the CE).
* :class:`DelaySpikeSchedule` — congestion windows during which every
  message sent on an affected link takes ``factor`` times its sampled
  delay.  Spikes turn front-link FIFO streams bursty and let back-link
  alerts pile up and interleave adversarially at the AD.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Callable
from dataclasses import dataclass
from random import Random

from repro.simulation.failures import window_ends

__all__ = [
    "GilbertElliottParams",
    "GilbertElliottLoss",
    "DuplicationAdversary",
    "DelaySpikeSchedule",
]


@dataclass(frozen=True)
class GilbertElliottParams:
    """Parameters of the two-state Gilbert–Elliott loss chain."""

    #: P(Good -> Bad) per datagram.
    good_to_bad: float = 0.0
    #: P(Bad -> Good) per datagram.
    bad_to_good: float = 1.0
    #: Loss probability while in the Good state.
    loss_good: float = 0.0
    #: Loss probability while in the Bad state.
    loss_bad: float = 0.0

    def __post_init__(self) -> None:
        for field_name in ("good_to_bad", "bad_to_good", "loss_good", "loss_bad"):
            value = getattr(self, field_name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{field_name} must be in [0, 1], got {value}")

    @property
    def enabled(self) -> bool:
        return self.good_to_bad > 0.0 or self.loss_good > 0.0

    def make_model(self) -> "GilbertElliottLoss":
        """The chain model these parameters describe; each link runs its
        own chain from it (:meth:`GilbertElliottLoss.for_link`)."""
        return GilbertElliottLoss(self)


class GilbertElliottLoss:
    """The burst-loss chain of one set of parameters.

    The chain's state is per link, so it lives in the callable
    :meth:`for_link` returns: one shared model instance gives every link
    its own independent chain, holds no state itself, and stays
    deterministic in the run seed however often a config is reused.
    """

    def __init__(self, params: GilbertElliottParams) -> None:
        self.params = params

    def for_link(self, rng: Random) -> Callable[[], bool]:
        """One link's chain over its own stream ``rng``, starting Good.

        Each call advances the chain one datagram and is True iff that
        datagram is lost.  It consumes exactly two draws: the state
        transition and the loss coin.
        """
        params = self.params
        good_to_bad, bad_to_good = params.good_to_bad, params.bad_to_good
        loss_good, loss_bad = params.loss_good, params.loss_bad
        rnd = rng.random
        bad = False

        def dropped() -> bool:
            nonlocal bad
            transition = rnd()
            if bad:
                if transition < bad_to_good:
                    bad = False
            elif transition < good_to_bad:
                bad = True
            return rnd() < (loss_bad if bad else loss_good)

        return dropped


@dataclass(frozen=True)
class DuplicationAdversary:
    """Bounded datagram duplication on front links."""

    #: Probability a sent datagram is duplicated at all.
    duplicate_prob: float = 0.0
    #: Maximum extra copies per duplicated datagram (uniform in 1..max).
    max_copies: int = 1

    def __post_init__(self) -> None:
        if not 0.0 <= self.duplicate_prob <= 1.0:
            raise ValueError(
                f"duplicate_prob must be in [0, 1], got {self.duplicate_prob}"
            )
        if self.max_copies < 1:
            raise ValueError(f"max_copies must be >= 1, got {self.max_copies}")

    @property
    def enabled(self) -> bool:
        return self.duplicate_prob > 0.0

    def draw_copies(self, rng: Random) -> int:
        """Number of extra copies for one datagram (0 = no duplication).

        Always draws a coin, then ``randint(1, max_copies)`` written out
        as its ``_randbelow`` loop, so that enabling/disabling duplication
        is the only thing that shifts a link's RNG stream.
        """
        coin = rng.random()
        copies, bits = self.max_copies, self.max_copies.bit_length()
        extra = rng.getrandbits(bits)
        while extra >= copies:
            extra = rng.getrandbits(bits)
        return extra + 1 if coin < self.duplicate_prob else 0


@dataclass(frozen=True)
class DelaySpikeSchedule:
    """Congestion windows multiplying sampled link delays by ``factor``.

    The windows are closed, sorted and disjoint, validated and indexed
    exactly as a :class:`~repro.simulation.failures.CrashSchedule`'s.
    """

    windows: tuple[tuple[float, float], ...] = ()
    factor: float = 1.0

    def __post_init__(self) -> None:
        if self.factor < 1.0:
            raise ValueError(f"spike factor must be >= 1, got {self.factor}")
        object.__setattr__(self, "_ends", window_ends(self.windows, "spike"))

    @property
    def enabled(self) -> bool:
        return bool(self.windows) and self.factor > 1.0

    def factor_at(self, time: float) -> float:
        """The delay multiplier in force at simulated ``time``."""
        index = bisect_left(self._ends, time)
        if index == len(self._ends) or self.windows[index][0] > time:
            return 1.0
        return self.factor

"""Network links (Section 2.1 assumptions).

Two link models, matching the paper's assumptions exactly:

* **Front links** (DM → CE) are *in-order but potentially lossy* — UDP
  datagrams with the sender tagging messages and the receiver discarding
  out-of-order arrivals.  :class:`LossyFifoLink` implements both effects:
  each message is independently dropped with probability ``loss_prob``,
  delivered after a random delay otherwise, and suppressed at the receiver
  if a later-sent message has already been delivered (reordering becomes
  loss, which is how the in-order guarantee is obtained cheaply).
* **Back links** (CE → AD) are *lossless and in-order* — a TCP-like
  protocol.  :class:`ReliableLink` delivers every message, with delivery
  times forced monotone per link (a later send never overtakes an earlier
  one), after a random per-message delay.  Randomising back-link delays is
  what explores the space of A1/A2 interleavings at the AD.

Delay models are pluggable; the default is uniform in ``[min_delay,
max_delay]``.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from functools import partial
from random import Random
from typing import Any

from repro.simulation.kernel import Kernel

__all__ = [
    "DelayModel",
    "UniformDelay",
    "FixedDelay",
    "PerLinkSkewDelay",
    "Link",
    "LossyFifoLink",
    "ReliableLink",
    "StoreAndForwardLink",
]

Receiver = Callable[[Any], None]


class DelayModel:
    """Draws a per-message propagation delay."""

    def sample(self, rng: Random) -> float:
        raise NotImplementedError

    def for_link(self, rng: Random) -> Callable[[], float]:
        """One link's delay draws, from the link's own stream ``rng``.

        Whatever a model keeps per link lives in the returned callable,
        never on the model: a config (and the model it holds) can be run
        any number of times with the same result.
        """
        return partial(self.sample, rng)


@dataclass(frozen=True)
class UniformDelay(DelayModel):
    """Uniform delay in [min_delay, max_delay]."""

    min_delay: float = 0.1
    max_delay: float = 5.0

    def __post_init__(self) -> None:
        if self.min_delay < 0 or self.max_delay < self.min_delay:
            raise ValueError(
                f"need 0 <= min_delay <= max_delay, got "
                f"[{self.min_delay}, {self.max_delay}]"
            )

    def sample(self, rng: Random) -> float:
        return rng.uniform(self.min_delay, self.max_delay)


class PerLinkSkewDelay(DelayModel):
    """Per-link base latency plus small per-message jitter.

    Models DMs at different network distances from each CE: the first draw
    from a link's RNG fixes that link's base latency in ``base_range``;
    every message then takes base + jitter.  With jitter small relative to
    the sending interval the link stays effectively FIFO, while different
    links (e.g. DM-x→CE1 vs DM-x→CE2) skew whole streams against each
    other — the mechanism behind the paper's multi-variable interleaving
    divergence (Theorem 10, Lemma 6).

    The base is per-link state, so it lives in the callable
    :meth:`for_link` returns: one shared PerLinkSkewDelay instance gives
    every link its own stable base, and holds none itself.
    """

    def __init__(
        self,
        base_range: tuple[float, float] = (0.0, 25.0),
        jitter_range: tuple[float, float] = (0.05, 1.5),
    ) -> None:
        if base_range[0] < 0 or base_range[1] < base_range[0]:
            raise ValueError(f"invalid base_range {base_range}")
        if jitter_range[0] < 0 or jitter_range[1] < jitter_range[0]:
            raise ValueError(f"invalid jitter_range {jitter_range}")
        self.base_range = base_range
        self.jitter_range = jitter_range

    def for_link(self, rng: Random) -> Callable[[], float]:
        base_range, jitter_range = self.base_range, self.jitter_range
        base = None

        def draw() -> float:
            nonlocal base
            if base is None:  # the link's first draw fixes its base
                base = rng.uniform(*base_range)
            return base + rng.uniform(*jitter_range)

        return draw


@dataclass(frozen=True)
class FixedDelay(DelayModel):
    """Constant delay — useful for deterministic trace replays."""

    delay: float = 1.0

    def __post_init__(self) -> None:
        if self.delay < 0:
            raise ValueError(f"delay must be non-negative, got {self.delay}")

    def sample(self, rng: Random) -> float:
        return self.delay


class Link:
    """Base link: moves messages from a sender to a receiver callback."""

    def __init__(
        self,
        kernel: Kernel,
        receiver: Receiver,
        delay: DelayModel,
        rng: Random,
        name: str = "",
        spikes=None,
    ) -> None:
        self.kernel = kernel
        self.receiver = receiver
        self.delay = delay
        self.rng = rng
        self._draw_delay = delay.for_link(rng)
        self.name = name
        #: Optional DelaySpikeSchedule (see :mod:`repro.faults.model`):
        #: congestion windows multiplying sampled delays.  None — the
        #: default — keeps the delay path exactly as before.
        self.spikes = spikes
        self.sent = 0
        self.delivered = 0

    def send(self, message: Any) -> None:
        raise NotImplementedError

    def _sample_delay(self) -> float:
        """One propagation delay draw, spike-adjusted when spiking."""
        delay = self._draw_delay()
        if self.spikes is not None:
            delay *= self.spikes.factor_at(self.kernel.now)
        return delay

    def _trace(self, kind: str, message: Any, **data: Any) -> None:
        """Emit a link-stage event (callers gate on ``kernel.tracer``)."""
        self.kernel.tracer.emit(
            self.kernel.now, "link", kind, self.name, msg=str(message), **data
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<{type(self).__name__} {self.name} sent={self.sent} "
            f"delivered={self.delivered}>"
        )


class LossyFifoLink(Link):
    """Front link: lossy datagrams with receiver-side order enforcement."""

    def __init__(
        self,
        kernel: Kernel,
        receiver: Receiver,
        delay: DelayModel,
        rng: Random,
        loss_prob: float = 0.0,
        outage_schedule=None,
        name: str = "",
        loss_model=None,
        duplication=None,
        spikes=None,
    ) -> None:
        super().__init__(kernel, receiver, delay, rng, name, spikes=spikes)
        if not 0.0 <= loss_prob <= 1.0:
            raise ValueError(f"loss_prob must be in [0, 1], got {loss_prob}")
        self.loss_prob = loss_prob
        #: Optional CrashSchedule for the *link itself* — §1: "the computer
        #: network linking the DMs to the CE ... can also be out of
        #: service".  A datagram sent while the link is down is lost (no
        #: retransmission on front links).
        self.outage_schedule = outage_schedule
        #: Optional correlated-loss model (GilbertElliottLoss).  When set
        #: this link's own chain replaces the Bernoulli ``loss_prob`` coin
        #: entirely.
        self.loss_model = loss_model
        self._dropped = None if loss_model is None else loss_model.for_link(rng)
        #: Optional DuplicationAdversary: extra same-tag copies of a sent
        #: datagram, each with its own delay draw.  The receiver-side tag
        #: check deduplicates, so the CE still sees at-most-once delivery.
        self.duplication = duplication
        self.lost = 0
        self.lost_to_outage = 0
        self.reorder_drops = 0
        self.duplicates_sent = 0
        self.duplicates_dropped = 0
        self._send_tag = 0
        self._last_delivered_tag = -1

    def send(self, message: Any) -> None:
        self.sent += 1
        tag = self._send_tag
        self._send_tag += 1
        traced = self.kernel.tracer is not None
        if traced:
            self._trace("send", message, tag=tag)
        if self.outage_schedule is not None and not self.outage_schedule.is_up(
            self.kernel.now
        ):
            self.lost_to_outage += 1
            if traced:
                self._trace("drop", message, tag=tag, reason="outage")
            return
        if self._dropped is not None:
            if self._dropped():
                self.lost += 1
                if traced:
                    self._trace("drop", message, tag=tag, reason="burst")
                return
        elif self.rng.random() < self.loss_prob:
            self.lost += 1
            if traced:
                self._trace("drop", message, tag=tag, reason="loss")
            return
        delay = self._sample_delay()
        self.kernel.schedule(
            delay, lambda: self._arrive(tag, message), note=f"{self.name} deliver"
        )
        if self.duplication is not None:
            for _ in range(self.duplication.draw_copies(self.rng)):
                self.duplicates_sent += 1
                if traced:
                    self._trace("duplicate", message, tag=tag)
                self.kernel.schedule(
                    self._sample_delay(),
                    lambda: self._arrive(tag, message),
                    note=f"{self.name} dup-deliver",
                )

    def _arrive(self, tag: int, message: Any) -> None:
        if tag <= self._last_delivered_tag:
            # A later-sent (or identical — a duplicated copy) message has
            # already been delivered: discard to preserve the in-order,
            # at-most-once guarantee (the paper's seqno-tagging mechanism).
            # Unique tags make equality impossible without duplication, so
            # duplication-free runs behave exactly as before.
            if tag == self._last_delivered_tag:
                self.duplicates_dropped += 1
                if self.kernel.tracer is not None:
                    self._trace("drop", message, tag=tag, reason="duplicate")
            else:
                self.reorder_drops += 1
                if self.kernel.tracer is not None:
                    self._trace("drop", message, tag=tag, reason="reorder")
            return
        self._last_delivered_tag = tag
        self.delivered += 1
        if self.kernel.tracer is not None:
            self._trace("deliver", message, tag=tag)
        self.receiver(message)


class StoreAndForwardLink(Link):
    """Back link with receiver-availability awareness (§1, §2.1).

    "If the PDA is off or disconnected, the CE logs the alert, and sends
    it later, when the AD becomes available."  This link models exactly
    that: delivery is lossless and in-order like :class:`ReliableLink`,
    but if the receiver is down at the delivery instant (per
    ``availability``, typically an AD CrashSchedule), the message is held
    and re-delivered at the receiver's next up-time, still in order.
    """

    def __init__(
        self,
        kernel: Kernel,
        receiver: Receiver,
        delay: DelayModel,
        rng: Random,
        availability,
        name: str = "",
        outage_schedule=None,
        spikes=None,
    ) -> None:
        super().__init__(kernel, receiver, delay, rng, name, spikes=spikes)
        self.availability = availability
        #: Optional CrashSchedule for the link itself.  Back links are
        #: TCP-like, so an outage stalls delivery (retransmission after
        #: the link recovers) instead of losing the message.
        self.outage_schedule = outage_schedule
        self.redelivered = 0
        self.stalled_by_outage = 0
        self._last_delivery_time = 0.0

    def send(self, message: Any) -> None:
        self.sent += 1
        traced = self.kernel.tracer is not None
        if traced:
            self._trace("send", message)
        raw = self.kernel.now + self._sample_delay()
        if self.outage_schedule is not None:
            up_at = self.outage_schedule.next_up_time(raw)
            if up_at > raw:
                self.stalled_by_outage += 1
                if traced:
                    self._trace("hold", message, until=up_at, reason="outage")
                raw = up_at
        delivery_time = max(raw, self._last_delivery_time)
        # If the receiver is down at the nominal delivery instant, the
        # message waits (logged at the CE) until the next up-time.
        available_at = self.availability.next_up_time(delivery_time)
        if available_at > delivery_time:
            self.redelivered += 1
            if traced:
                self._trace("hold", message, until=available_at)
            delivery_time = available_at
        self._last_delivery_time = delivery_time
        self.kernel.schedule_at(
            delivery_time, lambda: self._arrive(message), note=f"{self.name} deliver"
        )

    def _arrive(self, message: Any) -> None:
        self.delivered += 1
        if self.kernel.tracer is not None:
            self._trace("deliver", message)
        self.receiver(message)


class ReliableLink(Link):
    """Back link: lossless, in-order (TCP-like) delivery."""

    def __init__(
        self,
        kernel: Kernel,
        receiver: Receiver,
        delay: DelayModel,
        rng: Random,
        name: str = "",
        outage_schedule=None,
        spikes=None,
    ) -> None:
        super().__init__(kernel, receiver, delay, rng, name, spikes=spikes)
        #: Optional CrashSchedule for the link itself (TCP: outage stalls
        #: delivery until the link recovers, losing nothing).
        self.outage_schedule = outage_schedule
        self.stalled_by_outage = 0
        self._last_delivery_time = 0.0

    def send(self, message: Any) -> None:
        self.sent += 1
        traced = self.kernel.tracer is not None
        if traced:
            self._trace("send", message)
        raw = self.kernel.now + self._sample_delay()
        if self.outage_schedule is not None:
            up_at = self.outage_schedule.next_up_time(raw)
            if up_at > raw:
                self.stalled_by_outage += 1
                if traced:
                    self._trace("hold", message, until=up_at, reason="outage")
                raw = up_at
        # TCP semantics: a segment sent later is delivered later, so the
        # delivery time is clamped to be monotone per link.
        delivery_time = max(raw, self._last_delivery_time)
        self._last_delivery_time = delivery_time
        self.kernel.schedule_at(
            delivery_time, lambda: self._arrive(message), note=f"{self.name} deliver"
        )

    def _arrive(self, message: Any) -> None:
        self.delivered += 1
        if self.kernel.tracer is not None:
            self._trace("deliver", message)
        self.receiver(message)

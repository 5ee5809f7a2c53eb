"""Unit tests for link models: delay models, loss, FIFO enforcement."""

import random

import pytest

from repro.simulation.kernel import Kernel
from repro.simulation.network import (
    FixedDelay,
    LossyFifoLink,
    PerLinkSkewDelay,
    ReliableLink,
    UniformDelay,
)


def collector():
    received = []
    return received, received.append


class TestDelayModels:
    def test_uniform_range(self):
        model = UniformDelay(1.0, 2.0)
        rng = random.Random(1)
        for _ in range(100):
            assert 1.0 <= model.sample(rng) <= 2.0

    def test_uniform_validation(self):
        with pytest.raises(ValueError):
            UniformDelay(-1.0, 2.0)
        with pytest.raises(ValueError):
            UniformDelay(3.0, 2.0)

    def test_fixed(self):
        assert FixedDelay(1.5).sample(random.Random(0)) == 1.5

    def test_fixed_validation(self):
        with pytest.raises(ValueError):
            FixedDelay(-0.1)

    def test_skew_base_stable_per_rng(self):
        model = PerLinkSkewDelay(base_range=(0.0, 100.0), jitter_range=(0.0, 0.0))
        link1 = model.for_link(random.Random(1))
        link2 = model.for_link(random.Random(2))
        base1 = link1()
        assert link1() == base1  # same link -> same base
        assert link2() != base1  # different link -> own base
        # The base lives on the link, not the model: a fresh link on an
        # equal stream draws the same base again.
        assert model.for_link(random.Random(1))() == base1

    def test_skew_jitter_added(self):
        model = PerLinkSkewDelay(base_range=(5.0, 5.0), jitter_range=(1.0, 2.0))
        draw = model.for_link(random.Random(3))
        for _ in range(20):
            assert 6.0 <= draw() <= 7.0

    def test_a_stateless_model_draws_what_sample_draws(self):
        for model in (UniformDelay(1.0, 2.0), FixedDelay(1.5)):
            draw = model.for_link(random.Random(4))
            reference = random.Random(4)
            assert [draw() for _ in range(5)] == [
                model.sample(reference) for _ in range(5)
            ]

    def test_skew_validation(self):
        with pytest.raises(ValueError):
            PerLinkSkewDelay(base_range=(2.0, 1.0))
        with pytest.raises(ValueError):
            PerLinkSkewDelay(jitter_range=(-1.0, 1.0))


class TestReliableLink:
    def test_delivers_everything(self):
        kernel = Kernel()
        received, deliver = collector()
        link = ReliableLink(kernel, deliver, FixedDelay(1.0), random.Random(0))
        for i in range(5):
            link.send(i)
        kernel.run()
        assert received == [0, 1, 2, 3, 4]
        assert link.delivered == 5

    def test_monotone_delivery_despite_random_delays(self):
        kernel = Kernel()
        received, deliver = collector()
        link = ReliableLink(
            kernel, deliver, UniformDelay(0.0, 100.0), random.Random(7)
        )

        def send_batch():
            for i in range(50):
                link.send(i)

        kernel.schedule(0.0, send_batch)
        kernel.run()
        assert received == list(range(50))

    def test_interleaved_sends(self):
        kernel = Kernel()
        received, deliver = collector()
        link = ReliableLink(
            kernel, deliver, UniformDelay(0.0, 50.0), random.Random(3)
        )
        for t, msg in enumerate(range(10)):
            kernel.schedule_at(float(t), lambda m=msg: link.send(m))
        kernel.run()
        assert received == list(range(10))


class TestLossyFifoLink:
    def test_lossless_in_order(self):
        kernel = Kernel()
        received, deliver = collector()
        link = LossyFifoLink(
            kernel, deliver, FixedDelay(1.0), random.Random(0), loss_prob=0.0
        )
        for t in range(5):
            kernel.schedule_at(float(t) * 10, lambda m=t: link.send(m))
        kernel.run()
        assert received == [0, 1, 2, 3, 4]

    def test_loss_probability_one_drops_everything(self):
        kernel = Kernel()
        received, deliver = collector()
        link = LossyFifoLink(
            kernel, deliver, FixedDelay(1.0), random.Random(0), loss_prob=1.0
        )
        for i in range(10):
            link.send(i)
        kernel.run()
        assert received == []
        assert link.lost == 10

    def test_loss_rate_roughly_matches(self):
        kernel = Kernel()
        received, deliver = collector()
        link = LossyFifoLink(
            kernel, deliver, FixedDelay(1.0), random.Random(42), loss_prob=0.3
        )
        for t in range(1000):
            kernel.schedule_at(float(t), lambda m=t: link.send(m))
        kernel.run()
        assert 600 <= len(received) <= 800  # ~700 expected

    def test_reordered_arrivals_discarded(self):
        # Two messages sent close together with wildly different delays:
        # the receiver must never observe them out of order.
        kernel = Kernel()
        received, deliver = collector()
        link = LossyFifoLink(
            kernel,
            deliver,
            UniformDelay(0.0, 100.0),
            random.Random(5),
            loss_prob=0.0,
        )

        def send_burst():
            for i in range(100):
                link.send(i)

        kernel.schedule(0.0, send_burst)
        kernel.run()
        assert received == sorted(received)
        assert len(received) + link.reorder_drops == 100

    def test_delivered_subsequence_of_sent(self):
        kernel = Kernel()
        received, deliver = collector()
        link = LossyFifoLink(
            kernel,
            deliver,
            UniformDelay(0.0, 30.0),
            random.Random(11),
            loss_prob=0.2,
        )
        for t in range(200):
            kernel.schedule_at(float(t), lambda m=t: link.send(m))
        kernel.run()
        assert received == sorted(set(received))

    def test_loss_prob_validation(self):
        kernel = Kernel()
        with pytest.raises(ValueError):
            LossyFifoLink(
                kernel, lambda m: None, FixedDelay(1.0), random.Random(0),
                loss_prob=1.5,
            )

    def test_counters(self):
        kernel = Kernel()
        received, deliver = collector()
        link = LossyFifoLink(
            kernel, deliver, FixedDelay(1.0), random.Random(0), loss_prob=0.0
        )
        link.send("m")
        kernel.run()
        assert link.sent == 1
        assert link.delivered == 1
        assert link.lost == 0

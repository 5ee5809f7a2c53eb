"""Differential: the written-out workload and duplication draws against
the ``random.Random`` calls they spell out.

:func:`~repro.workloads.generators.rising_runs`,
:func:`~repro.workloads.generators.paired_reactors` and
:meth:`~repro.faults.model.DuplicationAdversary.draw_copies` call
``rng.random`` / ``rng.getrandbits`` directly, with ``uniform``'s
``a + (b - a) * random()`` and ``_randbelow``'s rejection loop inlined.
The formulations below are the ones they replaced, kept as oracles.  For
every seed, length and parameter the scenarios use, both must return the
same readings (or copy counts) *and* leave the stream in the same state,
so that a later draw on a shared stream cannot shift.
"""

from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from repro.faults.model import DuplicationAdversary
from repro.workloads.generators import evenly_spaced, paired_reactors, rising_runs


def rising_runs_oracle(
    rng, n, base=1000.0, rise=250.0, run_prob=0.5, reset_prob=0.3, interval=10.0
):
    values = []
    current = base
    for _ in range(n):
        roll = rng.random()
        if roll < run_prob:
            current += rise * rng.uniform(0.85, 1.4)
        elif roll < run_prob + reset_prob:
            current -= rise * rng.uniform(1.0, 3.0)
        else:
            current += rng.uniform(-40.0, 40.0)
        values.append(round(current, 1))
    return evenly_spaced(values, interval)


def paired_reactors_oracle(
    rng, n, base=1000.0, sway=90.0, divergence_prob=0.35, divergence=160.0,
    interval=10.0, phase=0.0,
):
    values = []
    current = base + phase
    for _ in range(n):
        current += rng.uniform(-sway, sway)
        if rng.random() < divergence_prob:
            current += rng.choice([-1.0, 1.0]) * divergence * rng.uniform(0.8, 1.5)
        current += (base + phase - current) * 0.25
        values.append(round(current, 1))
    return evenly_spaced(values, interval)


def draw_copies_oracle(adversary, rng):
    coin = rng.random()
    extra = rng.randint(1, adversary.max_copies)
    return extra if coin < adversary.duplicate_prob else 0


seeds = st.integers(min_value=0, max_value=2**64)
lengths = st.integers(min_value=0, max_value=60)
#: What ``workloads/scenarios.py`` passes (defaults included), plus a
#: drawn interval.
rising_kwargs = st.fixed_dictionaries(
    {"rise": st.sampled_from([250.0, 170.0])},
    optional={"interval": st.sampled_from([10.0, 2.5, 7.0])},
)
paired_kwargs = st.fixed_dictionaries(
    {
        "base": st.sampled_from([1000.0, 1100.0]),
        "phase": st.sampled_from([0.0, 40.0]),
    },
    optional={"interval": st.sampled_from([10.0, 2.5, 7.0])},
)


def twins(seed):
    return Random(seed), Random(seed)


@settings(max_examples=200, deadline=None)
@given(seeds, lengths, rising_kwargs)
def test_rising_runs_draws_as_uniform_does(seed, n, kwargs):
    ours, oracle = twins(seed)
    assert rising_runs(ours, n, **kwargs) == rising_runs_oracle(oracle, n, **kwargs)
    assert ours.getstate() == oracle.getstate()


@settings(max_examples=200, deadline=None)
@given(seeds, lengths, paired_kwargs)
def test_paired_reactors_draws_as_uniform_and_choice_do(seed, n, kwargs):
    ours, oracle = twins(seed)
    assert paired_reactors(ours, n, **kwargs) == paired_reactors_oracle(
        oracle, n, **kwargs
    )
    assert ours.getstate() == oracle.getstate()


@settings(max_examples=200, deadline=None)
@given(
    seeds,
    st.integers(min_value=1, max_value=5),
    st.sampled_from([0.0, 0.05, 0.3, 1.0]),
    st.integers(min_value=1, max_value=40),
)
def test_draw_copies_draws_as_randint_does(seed, max_copies, prob, draws):
    adversary = DuplicationAdversary(duplicate_prob=prob, max_copies=max_copies)
    ours, oracle = twins(seed)
    assert [adversary.draw_copies(ours) for _ in range(draws)] == [
        draw_copies_oracle(adversary, oracle) for _ in range(draws)
    ]
    assert ours.getstate() == oracle.getstate()


def test_a_shared_stream_reads_the_same_after_every_generator():
    """The scenario factories draw x then y from their own streams, but a
    caller may chain generators on one stream."""
    ours, oracle = twins(7)
    for _ in range(20):
        assert rising_runs(ours, 19, rise=170.0) == rising_runs_oracle(
            oracle, 19, rise=170.0
        )
        assert paired_reactors(ours, 19, base=1100.0) == paired_reactors_oracle(
            oracle, 19, base=1100.0
        )
    assert ours.getstate() == oracle.getstate()


def test_a_non_positive_interval_is_refused():
    for generator in (rising_runs, paired_reactors):
        with pytest.raises(ValueError, match="interval"):
            generator(Random(1), 5, interval=0.0)

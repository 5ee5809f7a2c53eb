"""Workload value-process generators.

A workload is a per-variable schedule of ``(time, value)`` readings for
the Data Monitors.  The generators here produce the value dynamics the
paper's examples describe — reactor temperatures around a 3000-degree
limit, stock quotes with sharp drops — tuned so the canonical conditions
(c1, c2/c3, cm, sharp_price_drop) trigger often enough that randomized
trials meaningfully exercise the AD algorithms.

All generators draw from an explicitly passed ``random.Random`` so that
workloads are reproducible from a run seed; the two a Table-3 trial runs
(:func:`rising_runs`, :func:`paired_reactors`) write ``uniform`` and
``choice`` out as the very draws they make, a call frame fewer a draw.
"""

from __future__ import annotations

from bisect import bisect_right
from random import Random

__all__ = [
    "evenly_spaced",
    "threshold_crossers",
    "event_impulses",
    "rising_runs",
    "stock_quotes",
    "paired_reactors",
    "bursty_readings",
    "zipf_weights",
    "zipf_counts",
    "zipfian_workload",
    "correlated_updates",
]

Readings = list[tuple[float, float]]


def evenly_spaced(values: list[float], interval: float = 10.0, start: float = 0.0) -> Readings:
    """Attach evenly spaced timestamps to a list of values."""
    if interval <= 0:
        raise ValueError("interval must be positive")
    return [(start + i * interval, v) for i, v in enumerate(values)]


def threshold_crossers(
    rng: Random,
    n: int,
    threshold: float = 3000.0,
    margin: float = 150.0,
    above_prob: float = 0.5,
    interval: float = 10.0,
) -> Readings:
    """Values that independently land above/below a threshold each step.

    Maximises state flips for non-historical conditions like c1: each
    reading is above the threshold with probability ``above_prob``.
    """
    values = []
    for _ in range(n):
        if rng.random() < above_prob:
            values.append(round(threshold + rng.uniform(1.0, margin), 1))
        else:
            values.append(round(threshold - rng.uniform(1.0, margin), 1))
    return evenly_spaced(values, interval)


def rising_runs(
    rng: Random,
    n: int,
    base: float = 1000.0,
    rise: float = 250.0,
    run_prob: float = 0.5,
    reset_prob: float = 0.3,
    interval: float = 10.0,
) -> Readings:
    """Staircase dynamics for delta conditions (c2/c3).

    Each step either climbs by about ``rise`` (making the +200 condition
    true), plateaus, or resets downwards — so histories with and without
    gaps both hit the trigger region frequently.
    """
    if interval <= 0:
        raise ValueError("interval must be positive")
    random = rng.random
    readings: Readings = []
    current = base
    for i in range(n):
        roll = random()
        if roll < run_prob:
            current += rise * (0.85 + (1.4 - 0.85) * random())
        elif roll < run_prob + reset_prob:
            current -= rise * (1.0 + (3.0 - 1.0) * random())
        else:
            current += -40.0 + (40.0 - -40.0) * random()
        readings.append((i * interval, round(current, 1)))
    return readings


def stock_quotes(
    rng: Random,
    n: int,
    start: float = 100.0,
    volatility: float = 0.05,
    crash_prob: float = 0.12,
    crash_size: float = 0.35,
    interval: float = 10.0,
) -> Readings:
    """Multiplicative stock-quote dynamics with occasional sharp drops.

    Most steps move by ±``volatility``; with probability ``crash_prob``
    the quote collapses by about ``crash_size`` — the ">20% drop between
    consecutive quotes" events of the introduction's example.
    """
    values = []
    price = start
    for _ in range(n):
        if rng.random() < crash_prob:
            price *= 1.0 - crash_size * rng.uniform(0.7, 1.3)
        else:
            price *= 1.0 + rng.uniform(-volatility, volatility)
        price = max(price, 1.0)
        values.append(round(price, 2))
    return evenly_spaced(values, interval)


def event_impulses(
    rng: Random,
    n: int,
    event_prob: float = 0.15,
    interval: float = 10.0,
) -> Readings:
    """Binary event stream: the introduction's missile-detection example.

    Each reading is 1.0 ("missile fired" detected by the satellite) with
    probability ``event_prob`` and 0.0 otherwise.  Pair with the
    non-historical condition ``H.x[0].value == 1`` — every event produces
    one alert per CE, which is exactly the duplicate-flood AD-1 exists to
    suppress ("the user will get confused about the exact number of
    missiles fired").
    """
    if not 0.0 <= event_prob <= 1.0:
        raise ValueError(f"event_prob must be in [0,1], got {event_prob}")
    values = [1.0 if rng.random() < event_prob else 0.0 for _ in range(n)]
    return evenly_spaced(values, interval)


def paired_reactors(
    rng: Random,
    n: int,
    base: float = 1000.0,
    sway: float = 90.0,
    divergence_prob: float = 0.35,
    divergence: float = 160.0,
    interval: float = 10.0,
    phase: float = 0.0,
) -> Readings:
    """One reactor of a correlated pair (Theorem 10's two-reactor setup).

    Values wander near ``base``; with probability ``divergence_prob`` a
    reading diverges by about ``divergence`` — pushing |x − y| past the
    100-degree gap of condition cm.  Generate each variable with its own
    rng stream and a different ``phase`` offset.
    """
    if interval <= 0:
        raise ValueError("interval must be positive")
    random, getrandbits = rng.random, rng.getrandbits
    readings: Readings = []
    centre = current = base + phase
    for i in range(n):
        current += -sway + (sway - -sway) * random()
        if random() < divergence_prob:
            index = getrandbits(2)  # choice([-1.0, 1.0])
            while index >= 2:
                index = getrandbits(2)
            sign = (-1.0, 1.0)[index]
            current += sign * divergence * (0.8 + (1.5 - 0.8) * random())
        # Mean-revert gently so the pair stays comparable.
        current += (centre - current) * 0.25
        readings.append((i * interval, round(current, 1)))
    return readings


def bursty_readings(
    rng: Random,
    n: int,
    burst_mean: int = 4,
    burst_interval: float = 2.0,
    idle_interval: float = 40.0,
    threshold: float = 3000.0,
    margin: float = 150.0,
) -> Readings:
    """On/off traffic: tight bursts of readings separated by long idles.

    Real monitored sources are rarely metronomic — an instrument streams
    while an episode is in progress and goes quiet between episodes.
    Readings inside a burst are ``burst_interval`` apart (well under any
    delay spread, so replica interleavings genuinely scramble); bursts
    are separated by ``idle_interval``.  Burst lengths are geometric
    with mean ``burst_mean``.  Values flip around ``threshold`` like
    :func:`threshold_crossers`, so c1-family conditions keep firing.

    The duty cycle is bounded: with ``k`` readings in a burst the burst
    spans ``(k-1) * burst_interval``, so the fraction of the total span
    inside bursts is at most ``burst_interval / (burst_interval +
    idle_interval / burst_mean)`` in expectation — bursty by
    construction, which the generator tests pin.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if burst_mean < 1:
        raise ValueError(f"burst_mean must be >= 1, got {burst_mean}")
    if burst_interval <= 0 or idle_interval <= 0:
        raise ValueError("intervals must be positive")
    readings: Readings = []
    time = 0.0
    left_in_burst = 0
    continue_prob = 1.0 - 1.0 / burst_mean
    for i in range(n):
        if i == 0:
            left_in_burst = 1
        elif left_in_burst > 0 and rng.random() < continue_prob:
            time += burst_interval
        else:
            time += idle_interval
            left_in_burst = 0
        left_in_burst += 1
        if rng.random() < 0.5:
            value = threshold + rng.uniform(1.0, margin)
        else:
            value = threshold - rng.uniform(1.0, margin)
        readings.append((round(time, 3), round(value, 1)))
    return readings


def zipf_weights(k: int, exponent: float = 1.2) -> list[float]:
    """Normalized Zipf popularity over ``k`` ranks: P(rank r) ∝ r^-s."""
    if k < 1:
        raise ValueError(f"need at least one rank, got {k}")
    if exponent <= 0:
        raise ValueError(f"exponent must be positive, got {exponent}")
    raw = [(rank + 1) ** -exponent for rank in range(k)]
    total = sum(raw)
    return [w / total for w in raw]


def zipf_counts(rng: Random, n: int, k: int, exponent: float = 1.2) -> list[int]:
    """How many of ``n`` events land on each of ``k`` Zipf-ranked sources.

    Multinomial sampling over :func:`zipf_weights` — the head ranks get
    most of the traffic, the tail starves, which is the popularity shape
    of real tenant populations.
    """
    counts = [0] * k
    weights = zipf_weights(k, exponent)
    bounds = []
    acc = 0.0
    for w in weights:
        acc += w
        bounds.append(acc)
    last = k - 1
    for _ in range(n):
        # First rank whose bound exceeds the roll; a roll past the last
        # bound (float summation tail) belongs to the last rank.
        counts[min(bisect_right(bounds, rng.random()), last)] += 1
    return counts


def zipfian_workload(
    rng: Random,
    n: int,
    variables: tuple[str, ...] = ("x", "y"),
    exponent: float = 1.2,
    interval: float = 10.0,
    threshold: float = 3000.0,
    margin: float = 150.0,
) -> dict[str, Readings]:
    """``n`` update slots split across variables by Zipf popularity.

    Each slot ``i`` (at time ``i * interval``) is assigned to one
    variable, drawn from the Zipf law over the variables' rank order —
    so the head variable updates often and the tail rarely, skewing the
    cross-variable interleavings the multi-variable checkers explore.
    Every variable is guaranteed at least one reading (conditions need
    defined histories), taken from its first assigned slot or prepended
    at the head of the schedule.
    """
    if not variables:
        raise ValueError("need at least one variable")
    per_var: dict[str, Readings] = {var: [] for var in variables}

    def value() -> float:
        if rng.random() < 0.5:
            return round(threshold + rng.uniform(1.0, margin), 1)
        return round(threshold - rng.uniform(1.0, margin), 1)

    weights = zipf_weights(len(variables), exponent)
    bounds = []
    acc = 0.0
    for w in weights:
        acc += w
        bounds.append(acc)
    for slot in range(n):
        roll = rng.random()
        choice = len(variables) - 1
        for rank, bound in enumerate(bounds):
            if roll < bound:
                choice = rank
                break
        per_var[variables[choice]].append((slot * interval, value()))
    # Starved variables still need one reading to define H.
    for var in variables:
        if not per_var[var]:
            per_var[var].insert(0, (0.0, value()))
    return per_var


def correlated_updates(
    rng: Random,
    n: int,
    variables: tuple[str, ...] = ("x", "y"),
    co_arrival_prob: float = 0.8,
    lag: float = 0.5,
    base: float = 1000.0,
    sway: float = 90.0,
    divergence_prob: float = 0.35,
    divergence: float = 160.0,
    interval: float = 10.0,
) -> dict[str, Readings]:
    """Correlated multi-variable updates with near-simultaneous arrival.

    The primary variable takes ``n`` readings on the usual cadence; with
    probability ``co_arrival_prob`` each one is echoed on every other
    variable ``lag`` time units later with a correlated value (the same
    excursion plus noise) — two sensors on one physical process.  The
    co-arrival bursts hit the AD's merge window far harder than
    independent streams: both variables' seqnos advance almost at once,
    which is the regime where AD-5/AD-6's cross-variable checks earn
    their keep.  Slots whose echo was skipped stay silent on the
    secondary variables, so their cadence is sparser than the primary's.
    Every variable gets at least one reading (conditions need defined
    histories).
    """
    if not 0.0 <= co_arrival_prob <= 1.0:
        raise ValueError(f"co_arrival_prob must be in [0,1], got {co_arrival_prob}")
    if not variables:
        raise ValueError("need at least one variable")
    primary, *rest = variables
    per_var: dict[str, Readings] = {var: [] for var in variables}
    current = base
    for slot in range(n):
        current += rng.uniform(-sway, sway)
        if rng.random() < divergence_prob:
            current += rng.choice([-1.0, 1.0]) * divergence * rng.uniform(0.8, 1.5)
        current += (base - current) * 0.25
        time = slot * interval
        per_var[primary].append((time, round(current, 1)))
        if rest and rng.random() < co_arrival_prob:
            for k, var in enumerate(rest):
                echo = current + rng.uniform(-0.2, 0.2) * sway
                per_var[var].append((time + lag * (k + 1), round(echo, 1)))
    for var in rest:
        if not per_var[var]:
            per_var[var].insert(0, (0.0, round(base, 1)))
    return per_var

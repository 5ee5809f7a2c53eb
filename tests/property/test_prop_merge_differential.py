"""Differential: the AD merge against the sorted-order release it replaced.

:func:`~repro.service.consumers.ad_merge` files each arrival into its
CE's FIFO and releases CE heads in recorded stamp order through a
k-entry heap.  :func:`sorted_order_merge` below is the release it
replaced, kept as the oracle: every stamp sorted up front, arrivals
buffered in a dict keyed by ``(ce, position)``, released while the next
key in sorted order is buffered.

Over k ∈ {1, 2, 3} CEs, random per-CE stamp lists (equal times and
equal stamps across CEs included), random interleavings of the CEs' items on the shared queue,
random batch boundaries and CLOSEs anywhere — before a CE's own items,
or with items still unread — both must produce the same arrivals, the
same displayed alerts and latencies, the same ``peak_reorder``, or the
same :class:`FeedMismatchError` when a CE sends too many or too few
alerts.
"""

from __future__ import annotations

import asyncio
import itertools

from hypothesis import given, settings, strategies as st

from repro.core.alert import make_alert
from repro.core.serialization import alert_canonical_line
from repro.core.update import Update
from repro.displayers.ad1 import AD1
from repro.displayers.ad2 import AD2
from repro.displayers.ad3 import AD3
from repro.displayers.ad4 import AD4
from repro.service.consumers import MergeResult, ad_merge
from repro.service.queues import CLOSE, BoundedQueue
from repro.service.runtime import FeedMismatchError

WATCHDOG = 20.0

ALGORITHMS = {
    "AD-1": AD1,
    "AD-2": lambda: AD2("x"),
    "AD-3": lambda: AD3("x"),
    "AD-4": lambda: AD4("x"),
}


async def sorted_order_merge(algorithm, stamps, alerts, *, clock):
    """The merge as it was: sorted stamp order, a ``(ce, position)`` dict."""
    order = [
        (ce_index, position)
        for _, ce_index, position in sorted(
            (stamp, ce_index, position)
            for ce_index, per_ce in enumerate(stamps)
            for position, stamp in enumerate(per_ce)
        )
    ]
    result = MergeResult()
    buffer: dict[tuple[int, int], tuple] = {}
    # Back links are FIFO: a CE's k-th item carries its k-th stamp.
    positions = [0] * len(stamps)
    released = 0
    closes = 0
    while closes < len(stamps):
        for item in await alerts.get_many():
            if item is CLOSE:
                closes += 1
                continue
            ce_index, alert, ingest_ns = item
            buffer[(ce_index, positions[ce_index])] = (alert, ingest_ns)
            positions[ce_index] += 1
            if len(buffer) > result.peak_reorder:
                result.peak_reorder = len(buffer)
            while released < len(order) and order[released] in buffer:
                alert, ingest_ns = buffer.pop(order[released])
                released += 1
                result.arrivals.append(alert)
                if algorithm.offer(alert):
                    result.display_latencies_ns.append(clock() - ingest_ns)
    if released != len(order) or buffer:
        raise FeedMismatchError(
            f"merge drained after releasing {released}/{len(order)} stamped "
            f"alerts ({len(buffer)} stranded in the reorder buffer)"
        )
    return result


class ScriptedQueue:
    """The shared alert queue as a fixed script of ``get_many`` batches."""

    def __init__(self, batches: list[list]) -> None:
        self._batches = iter(batches)

    async def get_many(self) -> list:
        return list(next(self._batches))


def run_to_end(coroutine, queue=None):
    """Run a merge that never suspends (its queue is scripted)."""
    try:
        coroutine.send(None)
    except StopIteration as stop:
        return stop.value
    raise AssertionError("the merge suspended on a scripted queue")


def outcome(merge, algorithm_name, stamps, queue, run):
    """Everything a merge makes observable, or the error it raised."""
    algorithm = ALGORITHMS[algorithm_name]()
    clock = itertools.count(10**6).__next__
    try:
        result = run(merge(algorithm, stamps, queue, clock=clock), queue)
    except FeedMismatchError as exc:
        return ("FeedMismatchError", str(exc))
    if merge is ad_merge:  # the oracle renders nothing
        assert result.lines == [alert_canonical_line(a) for a in algorithm.output]
    # By object: equal alerts from different items must not swap places.
    return (
        [id(alert) for alert in result.arrivals],
        [id(alert) for alert in algorithm.output],
        result.display_latencies_ns,
        result.peak_reorder,
    )


@st.composite
def per_ce_stamps(draw):
    """k CEs' stamp lists, each sorted.  A recorded ``(time,
    global_index)`` is unique; a peer's need not be, so indices repeat
    sometimes and ties fall to the CE order."""
    k = draw(st.integers(1, 3))
    counts = draw(st.lists(st.integers(0, 6), min_size=k, max_size=k))
    total = sum(counts)
    indices = draw(st.one_of(
        st.permutations(range(total)),
        st.lists(st.integers(0, 2), min_size=total, max_size=total),
    ))
    times = draw(st.lists(st.integers(0, 3), min_size=total, max_size=total))
    stamps = []
    start = 0
    for count in counts:
        end = start + count
        stamps.append(tuple(sorted(
            (float(time), index)
            for time, index in zip(times[start:end], indices[start:end])
        )))
        start = end
    return tuple(stamps)


alerts_strategy = st.tuples(st.integers(2, 9), st.integers(1, 8)).map(
    lambda pair: make_alert(
        "c",
        {"x": [Update("x", max(pair) + (pair[0] == pair[1])), Update("x", min(pair))]},
    )
)


@st.composite
def merge_inputs(draw, closes_anywhere: bool):
    stamps = draw(per_ce_stamps())
    k = len(stamps)
    # Usually as recorded; sometimes one alert too many or too few.
    deltas = draw(st.lists(st.sampled_from([0, 0, 0, -1, 1]), min_size=k, max_size=k))
    sent = [max(0, len(per_ce) + delta) for per_ce, delta in zip(stamps, deltas)]
    ingest_ns = itertools.count()
    items = [
        [(ce, draw(alerts_strategy), next(ingest_ns)) for _ in range(count)]
        for ce, count in enumerate(sent)
    ]
    # A random interleaving that keeps each CE's own order.
    picks = draw(st.permutations([ce for ce, count in enumerate(sent) for _ in range(count)]))
    cursors = [iter(per_ce) for per_ce in items]
    sequence = [next(cursors[ce]) for ce in picks]
    if closes_anywhere:
        for _ in range(k):
            sequence.insert(draw(st.integers(0, len(sequence))), CLOSE)
    return draw(st.sampled_from(sorted(ALGORITHMS))), stamps, items, sequence


def batches_of(draw, sequence):
    cuts = sorted(set(draw(st.lists(st.integers(1, max(1, len(sequence) - 1)), max_size=6))))
    bounds = [0, *[c for c in cuts if c < len(sequence)], len(sequence)]
    return [sequence[a:b] for a, b in zip(bounds, bounds[1:]) if b > a]


class TestMergeDifferential:
    @given(data=st.data())
    @settings(max_examples=400, deadline=None)
    def test_scripted_batches_with_closes_anywhere(self, data):
        algorithm, stamps, _items, sequence = data.draw(merge_inputs(closes_anywhere=True))
        batches = batches_of(data.draw, sequence)
        assert outcome(
            ad_merge, algorithm, stamps, ScriptedQueue(batches), run_to_end
        ) == outcome(
            sorted_order_merge, algorithm, stamps, ScriptedQueue(batches), run_to_end
        )

    @given(
        inputs=merge_inputs(closes_anywhere=False),
        capacity=st.integers(1, 6),
        yields=st.lists(st.integers(0, 3), min_size=3, max_size=3),
    )
    @settings(max_examples=100, deadline=None)
    def test_real_queue_with_paced_producers(self, inputs, capacity, yields):
        # Each CE is its own producer task on a real BoundedQueue, put()ing
        # its items with its own pacing, then CLOSE — the service's shape.
        algorithm, stamps, items, _sequence = inputs

        def run(coroutine, queue):
            async def scenario():
                async def produce(ce_index):
                    for item in items[ce_index]:
                        for _ in range(yields[ce_index]):
                            await asyncio.sleep(0)
                        await queue.put(item)
                    await queue.close()

                producers = [
                    asyncio.create_task(produce(ce_index))
                    for ce_index in range(len(stamps))
                ]
                try:
                    return await coroutine
                finally:
                    # Every producer's CLOSE follows its items, so the
                    # merge reads them all and no producer stays blocked.
                    await asyncio.gather(*producers)

            async def bounded():
                return await asyncio.wait_for(scenario(), timeout=WATCHDOG)

            return asyncio.run(bounded())

        def fresh_queue():
            return BoundedQueue("alerts", capacity)

        assert outcome(
            ad_merge, algorithm, stamps, fresh_queue(), run
        ) == outcome(
            sorted_order_merge, algorithm, stamps, fresh_queue(), run
        )


class TestMergeErrors:
    """The merge's own FeedMismatchError, named the same way as before."""

    STAMPS = (((0.0, 0), (2.0, 2)), ((1.0, 1),))

    def script(self, sent):
        alert = make_alert("c", {"x": [Update("x", 2), Update("x", 1)]})
        items = [(ce, alert, 0) for ce, count in enumerate(sent) for _ in range(count)]
        return ScriptedQueue([items + [CLOSE] * len(sent)])

    def test_as_recorded(self):
        result = outcome(ad_merge, "AD-1", self.STAMPS, self.script([2, 1]), run_to_end)
        assert len(result[0]) == 3
        assert result[3] == 2  # CE1's second alert waits for CE2's first

    def test_too_many(self):
        assert outcome(
            ad_merge, "AD-1", self.STAMPS, self.script([3, 1]), run_to_end
        ) == ("FeedMismatchError", "merge drained after releasing 3/3 stamped "
              "alerts (1 stranded in the reorder buffer)")

    def test_too_few(self):
        assert outcome(
            ad_merge, "AD-1", self.STAMPS, self.script([1, 1]), run_to_end
        ) == ("FeedMismatchError", "merge drained after releasing 2/3 stamped "
              "alerts (0 stranded in the reorder buffer)")

"""Property tests: the service pipeline loses nothing and never deadlocks.

Four invariant families over randomized pacing, queue capacities and
workloads:

* **No update lost / FIFO preserved** — routing a random delivery
  sequence through bounded queues hands every CE exactly its
  subsequence, in order, regardless of capacities or consumer pacing
  (per-variable FIFO follows: a CE's stream *is* delivery order).
* **Backpressure never deadlocks** — every scenario runs under an
  ``asyncio.wait_for`` watchdog; a backpressure cycle would time out.
* **Bulk transfer is the same queue** — producers mixing ``put`` with
  ``put_many`` (slices larger than the capacity included), consumers
  mixing ``get`` with ``get_many``, several producers sharing one queue
  with one CLOSE each: nothing lost, per-producer FIFO, occupancy never
  above the capacity.
* **End-to-end conformance under stress** — the full asyncio service,
  squeezed through tiny queues with randomly paced CE consumers, still
  displays byte-identical output to the scheduler-free direct runtime.
"""

from __future__ import annotations

import asyncio

from hypothesis import given, settings, strategies as st

from repro.core.update import Update
from repro.engine.spec import TrialSpec
from repro.service import (
    CLOSE,
    AsyncioServiceRuntime,
    BoundedQueue,
    DirectRuntime,
    ServiceConfig,
    record_feed,
)
from repro.service.consumers import route_updates

WATCHDOG = 20.0  # seconds; generous — a real deadlock never resolves


def run_with_watchdog(coroutine):
    async def bounded():
        return await asyncio.wait_for(coroutine, timeout=WATCHDOG)

    return asyncio.run(bounded())


# -- router + bounded queues --------------------------------------------------

deliveries_strategy = st.lists(
    st.tuples(st.integers(0, 2), st.integers(0, 999)), max_size=60
)


class TestRouterPipeline:
    @given(
        deliveries=deliveries_strategy,
        capacity=st.integers(1, 8),
        pacing=st.lists(st.integers(0, 3), min_size=3, max_size=3),
    )
    @settings(max_examples=40, deadline=None)
    def test_nothing_lost_fifo_kept_no_deadlock(
        self, deliveries, capacity, pacing
    ):
        # Updates here are opaque tokens: (ce, k) pairs with unique ids.
        # Consumers yield to the loop `pacing[ce]` times per item, so
        # producers routinely run into full queues.
        async def scenario():
            ingest = BoundedQueue("ingest", capacity)
            ce_queues = [BoundedQueue(f"ce{i}", capacity) for i in range(3)]
            received: list[list[int]] = [[], [], []]

            async def consume(ce_index: int) -> None:
                while True:
                    item = await ce_queues[ce_index].get()
                    if item is CLOSE:
                        return
                    for _ in range(pacing[ce_index]):
                        await asyncio.sleep(0)
                    update, _ingest_ns = item
                    received[ce_index].append(update)

            async def produce() -> None:
                for ce_index, token in deliveries:
                    await ingest.put((ce_index, token, 0))
                await ingest.close()

            async with asyncio.TaskGroup() as group:
                group.create_task(route_updates(ingest, ce_queues))
                for index in range(3):
                    group.create_task(consume(index))
                group.create_task(produce())
            return received

        received = run_with_watchdog(scenario())
        for ce_index in range(3):
            expected = [t for ce, t in deliveries if ce == ce_index]
            assert received[ce_index] == expected  # nothing lost, FIFO kept

    @given(
        items=st.lists(st.integers(), max_size=40),
        capacity=st.integers(1, 4),
        consumer_yields=st.integers(0, 5),
    )
    @settings(max_examples=40, deadline=None)
    def test_single_queue_conserves_and_orders(
        self, items, capacity, consumer_yields
    ):
        async def scenario():
            queue = BoundedQueue("q", capacity)
            out: list[int] = []

            async def consume() -> None:
                while True:
                    item = await queue.get()
                    if item is CLOSE:
                        return
                    for _ in range(consumer_yields):
                        await asyncio.sleep(0)
                    out.append(item)

            async def produce() -> None:
                for item in items:
                    await queue.put(item)
                await queue.close()

            async with asyncio.TaskGroup() as group:
                group.create_task(consume())
                group.create_task(produce())
            assert queue.stats.puts == queue.stats.gets == len(items)
            assert queue.stats.peak <= capacity
            return out

        assert run_with_watchdog(scenario()) == items


# -- bulk transfer ------------------------------------------------------------

# One producer's script: slice lengths, 0 meaning a per-item ``put`` and
# n >= 1 a ``put_many`` of n items (up to twice the largest capacity).
producer_strategy = st.lists(st.integers(0, 16), max_size=12)


class TestBulkTransfer:
    @given(
        producers=st.lists(producer_strategy, min_size=1, max_size=4),
        capacity=st.integers(1, 8),
        # The consumer's script, cycled: True = get_many, False = get.
        bulk_gets=st.lists(st.booleans(), min_size=1, max_size=6),
        consumer_yields=st.integers(0, 3),
    )
    @settings(max_examples=80, deadline=None)
    def test_mixed_bulk_and_single_transfer_conserves(
        self, producers, capacity, bulk_gets, consumer_yields
    ):
        async def scenario():
            queue = BoundedQueue("q", capacity)
            sent: list[list[tuple[int, int]]] = [[] for _ in producers]
            received: list[tuple[int, int]] = []
            batch_sizes: list[int] = []

            async def produce(who: int, slices: list[int]) -> None:
                mine = sent[who]
                for size in slices:
                    batch = [(who, len(mine) + k) for k in range(max(size, 1))]
                    mine.extend(batch)
                    if size == 0:
                        await queue.put(batch[0])
                    else:
                        await queue.put_many(batch)
                    assert len(queue) <= capacity
                await queue.close()

            async def consume() -> None:
                closes = turn = 0
                while closes < len(producers):
                    if bulk_gets[turn % len(bulk_gets)]:
                        batch = await queue.get_many()
                        assert batch  # never an empty batch
                        batch_sizes.append(len(batch))
                    else:
                        batch = [await queue.get()]
                    turn += 1
                    for item in batch:
                        if item is CLOSE:
                            closes += 1
                        else:
                            received.append(item)
                    for _ in range(consumer_yields):
                        await asyncio.sleep(0)

            async with asyncio.TaskGroup() as group:
                group.create_task(consume())
                for who, slices in enumerate(producers):
                    group.create_task(produce(who, slices))
            return queue, sent, received, batch_sizes

        queue, sent, received, batch_sizes = run_with_watchdog(scenario())
        total = sum(len(mine) for mine in sent)
        assert len(received) == total  # nothing lost, nothing invented
        for who, mine in enumerate(sent):  # per-producer FIFO
            assert [item for item in received if item[0] == who] == mine
        assert queue.stats.puts == queue.stats.gets == total
        assert queue.stats.peak <= capacity
        assert all(size <= capacity for size in batch_sizes)
        assert len(queue) == 0

    @given(capacity=st.integers(1, 8), extra=st.integers(1, 24))
    @settings(max_examples=30, deadline=None)
    def test_oversized_put_many_suspends_instead_of_overshooting(
        self, capacity, extra
    ):
        # With no consumer, put_many fills the queue to the brim and waits:
        # capacity counts items, not calls.
        async def scenario():
            queue = BoundedQueue("q", capacity)
            items = list(range(capacity + extra))
            producer = asyncio.create_task(queue.put_many(items))
            for _ in range(3):
                await asyncio.sleep(0)
            assert not producer.done()
            assert len(queue) == capacity
            assert queue.stats.blocked_puts == 1
            drained: list[int] = []
            while len(drained) < len(items):
                drained.extend(await queue.get_many())
            await producer
            return drained == items and queue.stats.peak == capacity

        assert run_with_watchdog(scenario())

    def test_cancelled_waiter_passes_its_wakeup_on(self):
        # Two producers wait on a full queue.  The first is woken by a get
        # and cancelled before it runs (TaskGroup teardown does this): the
        # wake-up must reach the second, or the free slot is never used.
        async def scenario():
            queue = BoundedQueue("q", 1)
            await queue.put("head")
            first = asyncio.create_task(queue.put("first"))
            second = asyncio.create_task(queue.put_many(["second"]))
            await asyncio.sleep(0)
            assert await queue.get() == "head"  # wakes `first`
            first.cancel()
            assert await queue.get() == "second"
            assert first.cancelled()
            await second

        run_with_watchdog(scenario())


# -- full service under stress ------------------------------------------------

spec_strategy = st.builds(
    TrialSpec,
    matrix=st.just("single"),
    row=st.sampled_from(["non-historical", "conservative", "aggressive"]),
    algorithm=st.sampled_from(["AD-1", "AD-2", "AD-3", "AD-4", "AD-5", "AD-6"]),
    seed=st.integers(0, 50),
    n_updates=st.integers(5, 18),
    replication=st.integers(2, 3),
)


class TestServiceConformsUnderStress:
    @given(
        spec=spec_strategy,
        capacity=st.integers(1, 6),
        yields=st.integers(0, 3),
    )
    @settings(max_examples=12, deadline=None)
    def test_service_equals_direct_runtime(self, spec, capacity, yields):
        feed = record_feed(spec)
        reference = DirectRuntime().execute(feed)

        async def pace(ce_index: int, update: Update) -> None:
            # Deterministic unfair pacing: odd CEs yield more, so queue
            # occupancies skew and the reorder buffer actually reorders.
            for _ in range(yields * (1 + ce_index % 2)):
                await asyncio.sleep(0)

        runtime = AsyncioServiceRuntime(
            ServiceConfig(queue_capacity=capacity), pace=pace
        )
        result = run_with_watchdog(runtime.execute_async(feed))
        assert result.displayed_bytes() == reference.displayed_bytes()
        assert result.verdicts == reference.verdicts
        # Conservation end-to-end: every delivery ingested and routed,
        # every alert through the shared queue.
        assert result.counters["service/get/ingest"] == len(feed.deliveries)
        assert result.counters.get("service/get/alerts", 0) == feed.total_alerts

"""Property-based tests for the shard ring and the rebalance path.

Three invariant families:

1. **Ring invariants** — determinism (equal configs assign every key
   identically, across fresh ring builds), the virtual-node balance
   bound (with enough vnodes no shard starves and none hoards), and
   *minimal movement*: growing the ring from N to N+1 shards only moves
   keys TO the new shard — consistent hashing's defining property, and
   what makes a live rebalance cheap.
2. **Output invisibility** — executing a feed on its condition's home
   shard at any shard count is byte-identical to the direct core on
   random feeds.
3. **Rebalance ≡ static** — resizing the ring after an arbitrary
   delivery prefix (state handoff + stale guard included) displays the
   same bytes and verdicts as never resizing at all.
"""

from hypothesis import given, settings, strategies as st

from repro.engine.spec import TrialSpec
from repro.service.feed import record_feed
from repro.service.runtime import DirectRuntime
from repro.sharding import (
    HashRing,
    ShardConfig,
    execute_rebalanced,
    moved_keys,
)
from repro.workloads.scenarios import ROW_ORDER

configs = st.builds(
    ShardConfig,
    shards=st.integers(1, 12),
    virtual_nodes=st.sampled_from((1, 4, 16, 64, 128)),
    ring_seed=st.integers(0, 5),
)

keys = st.lists(
    st.text(
        alphabet="abcdefghijklmnopqrstuvwxyz0123456789._",
        min_size=1,
        max_size=12,
    ),
    min_size=1,
    max_size=60,
    unique=True,
)

rows = st.sampled_from(list(ROW_ORDER))
seeds = st.integers(0, 2**31)

#: Feeds are deterministic in their spec; memoize the expensive part.
_FEEDS: dict[TrialSpec, object] = {}


def feed_for(spec: TrialSpec):
    if spec not in _FEEDS:
        _FEEDS[spec] = record_feed(spec)
    return _FEEDS[spec]


def small_feed_specs():
    """Cheap single- and multi-variable specs for replay checks."""
    return st.builds(
        TrialSpec,
        matrix=st.sampled_from(("single", "multi")),
        row=rows,
        algorithm=st.just("AD-1"),
        seed=st.integers(0, 50),
        n_updates=st.integers(4, 14),
        replication=st.integers(1, 3),
    )


# -- 1. ring invariants -------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(configs, keys)
def test_ring_is_deterministic(config, key_list):
    a = HashRing(config).assignment(key_list)
    b = HashRing(config).assignment(key_list)
    assert a == b
    assert all(0 <= shard < config.shards for shard in a.values())


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 8), st.integers(0, 5))
def test_ring_balance_bound_with_virtual_nodes(shards, ring_seed):
    """128 vnodes over many keys: nobody starves, nobody hoards."""
    config = ShardConfig(shards=shards, virtual_nodes=128, ring_seed=ring_seed)
    ring = HashRing(config)
    population = [f"tenant{i:05d}.x" for i in range(50 * shards)]
    loads = ring.loads(population)
    ideal = len(population) / shards
    assert all(load > 0 for load in loads), f"a shard starved: {loads}"
    assert max(loads) <= 3.0 * ideal, (
        f"balance bound violated: loads={loads}, ideal={ideal}"
    )


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 8), st.sampled_from((16, 64, 128)),
       st.integers(0, 5), keys)
def test_ring_growth_moves_keys_only_to_the_new_shard(
    shards, virtual_nodes, ring_seed, key_list
):
    config = ShardConfig(
        shards=shards, virtual_nodes=virtual_nodes, ring_seed=ring_seed
    )
    before = HashRing(config).assignment(key_list)
    after = HashRing(config.with_value("shards", shards + 1)).assignment(key_list)
    for key, (old, new) in moved_keys(before, after).items():
        assert new == shards, (
            f"{key!r} moved {old}→{new}, but growing to {shards + 1} "
            f"shards may only move keys to shard {shards}"
        )


# -- 2/3. output invisibility, static and rebalanced --------------------------

@settings(max_examples=10, deadline=None)
@given(small_feed_specs(), st.integers(1, 10))
def test_sharded_execution_is_byte_identical(spec, shards):
    feed = feed_for(spec)
    reference = DirectRuntime().execute(feed)
    ring = ShardConfig(shards=shards)
    result = execute_rebalanced(feed, ring, len(feed.deliveries), ring)
    assert result.counters["shard/handoff/ring"] == 0
    assert result.displayed_bytes() == reference.displayed_bytes()
    assert result.verdicts == reference.verdicts


@settings(max_examples=10, deadline=None)
@given(
    small_feed_specs(),
    st.integers(0, 60),
    st.integers(1, 8),
    st.integers(1, 8),
    st.integers(0, 3),
)
def test_rebalance_mid_feed_equals_static_ring(
    spec, cut, old_shards, new_shards, new_ring_seed
):
    feed = feed_for(spec)
    reference = DirectRuntime().execute(feed)
    result = execute_rebalanced(
        feed,
        ShardConfig(shards=old_shards),
        cut,
        ShardConfig(shards=new_shards, ring_seed=new_ring_seed),
    )
    assert result.displayed_bytes() == reference.displayed_bytes()
    assert result.verdicts == reference.verdicts

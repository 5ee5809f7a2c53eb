"""Property-based tests for the shard ring.

Three ring invariants, all through :meth:`HashRing.shard_for`:
determinism (equal configs place every key identically, across fresh
ring builds), the balance bound (no shard starves and none hoards), and
*minimal movement*: growing the ring from N to N+1 shards only moves
keys TO the new shard — consistent hashing's defining property.
"""

from hypothesis import given, settings, strategies as st

from repro.sharding import HashRing, ShardConfig

configs = st.builds(ShardConfig, shards=st.integers(1, 12))

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


def placement(config: ShardConfig, key_list: list[str]) -> list[int]:
    ring = HashRing(config)
    return [ring.shard_for(key) for key in key_list]


@settings(max_examples=40, deadline=None)
@given(configs, keys)
def test_ring_is_deterministic(config, key_list):
    a = placement(config, key_list)
    assert a == placement(config, key_list)
    assert all(0 <= shard < config.shards for shard in a)


@settings(max_examples=8, deadline=None)
@given(st.integers(2, 8))
def test_ring_balance_bound(shards):
    """64 points per shard over many keys: nobody starves, nobody hoards."""
    population = [f"tenant{i:05d}.x" for i in range(50 * shards)]
    loads = [0] * shards
    for shard in placement(ShardConfig(shards=shards), population):
        loads[shard] += 1
    ideal = len(population) / shards
    assert all(load > 0 for load in loads), f"a shard starved: {loads}"
    assert max(loads) <= 3.0 * ideal, (
        f"balance bound violated: loads={loads}, ideal={ideal}"
    )


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 8), keys)
def test_ring_growth_moves_keys_only_to_the_new_shard(shards, key_list):
    before = placement(ShardConfig(shards=shards), key_list)
    after = placement(ShardConfig(shards=shards + 1), key_list)
    for key, old, new in zip(key_list, before, after):
        assert old == new or new == shards, (
            f"{key!r} moved {old}→{new}, but growing to {shards + 1} "
            f"shards may only move keys to shard {shards}"
        )

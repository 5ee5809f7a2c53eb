"""Differential: a tenant's online AD against the stamped batch merge it replaced.

:func:`~repro.sharding.tenants.run_tenant` offers each alert to the AD
as its CE raises it.  :func:`old_run_tenant` below is the path it
replaced, kept as the oracle: a made-up back-link stamp per alert
(``position*10 + ce*0.5``, a global counter as the tie-break), every
evaluator's alerts copied out and sorted with
:func:`~repro.service.runtime.merge_stamped`, the sorted list replayed
through the AD and its output rendered afterwards.

Below 22 replicas those stamps sort into exactly the order the loop
raised the alerts, so the two must return equal :class:`TenantResult`\\ s.
From 22 on, CE22's stamp reaches the next position's, and only the new
loop stays position-major.
"""

from __future__ import annotations

import hashlib
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.evaluator import ConditionEvaluator
from repro.core.serialization import alert_canonical_line
from repro.displayers.base import ADAlgorithm
from repro.displayers.registry import make_ad
from repro.service.runtime import merge_stamped
from repro.sharding.tenants import (
    _ALGORITHMS,
    TenantResult,
    _tenant_stream,
    make_tenant_condition,
    run_shard,
    run_tenant,
)


def old_run_tenant(index, seed, n_updates=12, replication=2):
    """``run_tenant`` as it was: stamp, merge, then replay through the AD."""
    rng = Random(f"loss/{seed}/{index}")
    condition = make_tenant_condition(index)
    stream = _tenant_stream(index, seed, n_updates)
    evaluators = [
        ConditionEvaluator(condition, source=f"CE{i + 1}")
        for i in range(replication)
    ]
    ingested = 0
    stamps = [[] for _ in evaluators]
    counter = 0
    for position, update in enumerate(stream):
        for ce_index, evaluator in enumerate(evaluators):
            if ce_index > 0 and rng.random() < 0.2:
                continue  # front-link loss on this replica
            ingested += 1
            if evaluator.ingest(update) is not None:
                stamps[ce_index].append(
                    (position * 10.0 + ce_index * 0.5, counter)
                )
                counter += 1
    per_ce = tuple(evaluator.alerts for evaluator in evaluators)
    arrivals = merge_stamped(per_ce, stamps)
    algorithm = make_ad(_ALGORITHMS[index % len(_ALGORITHMS)], condition)
    algorithm.offer_all(arrivals)
    displayed = algorithm.output
    digest = hashlib.sha256(
        "\n".join(alert_canonical_line(a) for a in displayed).encode()
    ).hexdigest()
    return TenantResult(
        tenant=index,
        updates=ingested,
        alerts=len(arrivals),
        displayed=len(displayed),
        digest=digest,
    )


def record_arrivals(monkeypatch):
    """``(position, CE number)`` of every alert offered to an AD from now on."""
    arrivals = []
    offer = ADAlgorithm.offer

    def recording(self, alert):
        (variable,) = alert.histories.variables
        arrivals.append((alert.seqno(variable), int(alert.source[2:])))
        return offer(self, alert)

    monkeypatch.setattr(ADAlgorithm, "offer", recording)
    return arrivals


class TestTenantDifferential:
    @given(
        # index % 3 picks both the condition kind and AD-1/2/3.
        index=st.one_of(st.integers(0, 5), st.integers(0, 10**6)),
        seed=st.integers(0, 2**31),
        n_updates=st.integers(0, 80),
        replication=st.integers(1, 21),
    )
    @settings(max_examples=300, deadline=None)
    def test_online_filter_equals_stamped_merge(
        self, index, seed, n_updates, replication
    ):
        assert run_tenant(index, seed, n_updates, replication) == old_run_tenant(
            index, seed, n_updates, replication
        )

    @pytest.mark.parametrize("replication", [2, 21, 25])
    @pytest.mark.parametrize("index", [0, 1])
    def test_the_ad_sees_alerts_position_major(self, index, replication, monkeypatch):
        arrivals = record_arrivals(monkeypatch)
        result = run_tenant(index, 7, 80, replication)
        assert result.alerts == len(arrivals) > 0
        assert arrivals == sorted(arrivals)

    def test_old_stamps_were_not_position_major_from_22_replicas(self, monkeypatch):
        # The old path fails the check above: at 25 replicas its stamps
        # put position p+1's CE1 alert ahead of position p's CE22..CE25.
        arrivals = record_arrivals(monkeypatch)
        old_run_tenant(0, 7, 80, 25)
        assert arrivals != sorted(arrivals)


class TestReplicationBound:
    @pytest.mark.parametrize("replication", [0, -1])
    def test_run_tenant_rejects_fewer_than_one_replica(self, replication):
        with pytest.raises(ValueError, match="replication"):
            run_tenant(3, 7, 12, replication)

    @pytest.mark.parametrize("replication", [0, -1])
    def test_run_shard_rejects_fewer_than_one_replica(self, replication):
        # Even with no tenant to run.
        with pytest.raises(ValueError, match="replication"):
            run_shard(0, [], 7, replication=replication)

"""Unit tests for the adaptive displayer (AD-7): ladder selection,
window policy, the recall guard, and decision determinism."""

import pytest

from repro.core.alert import identity_event_key
from repro.displayers import AD1, AdaptiveAD
from repro.displayers.registry import make_ad
from tests.conftest import alert_deg1, alert_deg2, alert_xy


def clean_deg2_stream(n):
    """An in-order duplicate-free degree-2 stream: ⟨2,1⟩, ⟨3,2⟩, …"""
    return [alert_deg2(head, head - 1) for head in range(2, n + 2)]


class TestConstruction:
    def test_single_variable_ladder(self):
        ad = AdaptiveAD(("x",))
        assert ad.ladder_names == ("AD-1", "AD-2", "AD-3", "AD-4")
        assert ad.active_name == "AD-1"

    def test_multi_variable_ladder(self):
        ad = AdaptiveAD(("x", "y"))
        assert ad.ladder_names == ("AD-1", "AD-5", "AD-6")

    def test_registry_constructs_from_condition(self, cond_cm):
        ad = make_ad("adaptive", cond_cm)
        assert isinstance(ad, AdaptiveAD)
        assert ad.varnames == ("x", "y")

    def test_registry_seeds_policy_by_condition_name(self, cond_c1, cond_c2):
        assert (
            make_ad("adaptive", cond_c1).policy_seed
            != make_ad("adaptive", cond_c2).policy_seed
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            AdaptiveAD(())
        with pytest.raises(ValueError):
            AdaptiveAD(("x",), window=3)

    def test_accept_is_bypassed(self):
        with pytest.raises(NotImplementedError):
            AdaptiveAD(("x",))._accept(alert_deg1(1))


class TestPolicy:
    def test_clean_stream_escalates_to_the_top_rung(self):
        ad = AdaptiveAD(("x",), policy_seed=7)
        ad.offer_all(clean_deg2_stream(40))
        assert ad.active_name == "AD-4"
        # Escalation climbs one rung per window, in ladder order.
        transitions = [(a, b) for _, a, b in ad.switch_log]
        assert transitions[:3] == [
            ("AD-1", "AD-2"),
            ("AD-2", "AD-3"),
            ("AD-3", "AD-4"),
        ]

    def test_guard_pressure_de_escalates(self):
        ad = AdaptiveAD(("x",), policy_seed=7)
        # Interleave high and low novel heads: every rung above AD-1
        # keeps rejecting genuinely novel events, so the guard keeps
        # overriding and the policy must fall back.
        stream = []
        for i in range(20):
            stream.append(alert_deg1(100 + i))
            stream.append(alert_deg1(1 + i))
        ad.offer_all(stream)
        transitions = [(a, b) for _, a, b in ad.switch_log]
        assert ("AD-1", "AD-2") in transitions
        assert ("AD-2", "AD-1") in transitions
        # Everything was a novel event: nothing may be lost to filtering.
        assert len(ad.output) == len(stream)

    def test_multi_variable_escalation(self):
        ad = AdaptiveAD(("x", "y"), policy_seed=3)
        stream = [alert_xy(i, i) for i in range(1, 40)]
        ad.offer_all(stream)
        assert ad.active_name == "AD-6"


class TestRecallGuard:
    def test_duplicates_always_suppressed(self):
        ad = AdaptiveAD(("x",))
        assert ad.offer(alert_deg1(1))
        assert not ad.offer(alert_deg1(1))
        assert ad.rejection_reason(alert_deg1(1).identity()).startswith(
            "duplicate: history set of"
        )

    def test_detected_events_equal_ad1s_on_any_stream(self):
        # Duplicates, regressions, gaps — the adversarial mix.
        stream = [
            alert_deg2(h, p)
            for h, p in [(2, 1), (2, 1), (5, 3), (3, 2), (5, 4),
                         (2, 1), (9, 8), (4, 3), (9, 7), (6, 5)]
        ]
        adaptive = AdaptiveAD(("x",), policy_seed=1, window=4)
        ad1 = AD1()
        adaptive.offer_all(stream)
        ad1.offer_all(list(stream))

        def keys(displayed):
            return {identity_event_key(a.identity(), ("x",)) for a in displayed}

        arriving = keys(stream)
        assert keys(adaptive.output) == keys(ad1.output) == arriving

    def test_filtered_rejection_reports_the_constituent_reason(self):
        ad = AdaptiveAD(("x",), policy_seed=7)
        ad.offer_all(clean_deg2_stream(40))
        assert ad.active_name == "AD-4"
        # Head 10 was displayed as ⟨10,9⟩; the ⟨10,8⟩ variant is a new
        # identity for an already-detected event — filtered, with the
        # deciding constituent's reason cached at decision time.
        stale = alert_deg2(10, 8)
        assert not ad.offer(stale)
        reason = ad.rejection_reason(stale.identity())
        assert reason.startswith("seqno regression")
        assert ad.rejection_reason(stale.identity()) == reason  # stable, no mutation

    def test_conservation(self):
        stream = [alert_deg1(s) for s in (1, 1, 2, 3, 2, 4, 4, 5)]
        ad = AdaptiveAD(("x",), window=4)
        decisions = [ad.offer(a) for a in stream]
        assert list(ad.output) == [a for a, shown in zip(stream, decisions) if shown]


class TestDeterminism:
    def test_same_args_same_stream_same_decisions(self):
        stream = [
            alert_deg2(h, p)
            for h, p in [(2, 1), (3, 2), (2, 1), (7, 5), (4, 3),
                         (8, 7), (5, 4), (9, 8), (3, 2), (11, 10)]
        ] * 4
        a = AdaptiveAD(("x",), policy_seed=13, window=5)
        b = AdaptiveAD(("x",), policy_seed=13, window=5)
        assert [a.offer(x) for x in stream] == [b.offer(x) for x in list(stream)]
        assert a.output == b.output
        assert a.switch_log == b.switch_log

    def test_fresh_replays_identically(self):
        stream = [alert_deg1(s) for s in (1, 3, 2, 5, 4, 7, 6, 9, 8, 10)] * 3
        ad = AdaptiveAD(("x",), policy_seed=2, window=4)
        ad.offer_all(stream)
        copy = ad.fresh()
        assert isinstance(copy, AdaptiveAD)
        assert (copy.varnames, copy.policy_seed, copy.window) == (
            ad.varnames, ad.policy_seed, ad.window,
        )
        copy.offer_all(list(stream))
        assert copy.output == ad.output
        assert copy.switch_log == ad.switch_log

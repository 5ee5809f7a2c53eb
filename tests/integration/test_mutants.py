"""Mutant algorithms: the property harness must catch every broken AD.

Mutation-style validation of the *checkers*: each class below breaks one
load-bearing line of an algorithm (the kind of bug a reimplementation
could plausibly introduce), and the test asserts our property machinery
detects the breakage — randomized sweeps for realistic streams, the
bounded-exhaustive verifier for proof-grade detection.  If a mutant ever
survives, the harness (not the algorithm) has a hole.

The last class turns the same idea on the checkers themselves: each
first-layer shortcut of the two-layer property checkers is broken by one
source edit, and the oracle cross-validation strategy must notice.
"""

import pytest

from repro.analysis.experiments import (
    consistency_property,
    strict_orderedness_property,
)
from repro.core.alert import identity_seqnos
from repro.core.sequences import spanning_set
from repro.displayers.ad2 import AD2
from repro.displayers.ad3 import AD3
from repro.displayers.ad5 import AD5
from repro.props.statespace import (
    degree2_alphabet,
    two_variable_alphabet,
    verify_invariant_exhaustively,
)
from repro.props.orderedness import check_orderedness
from tests.conftest import keys_of


class AD2NonStrict(AD2):
    """Mutant: uses `<` instead of `<=` — lets duplicate seqnos through."""

    name = "AD-2-mutant-nonstrict"

    def _accept(self, key: tuple) -> bool:
        return identity_seqnos(key, self.varname)[0] >= self._last  # BUG: >= not >


class AD2ForgetsState(AD2):
    """Mutant: never advances `last` — everything passes."""

    name = "AD-2-mutant-stateless"

    def _record(self, key: tuple) -> None:
        pass  # BUG: last never updated


class AD3NoGapTracking(AD3):
    """Mutant: records Received but forgets to record Missed."""

    name = "AD-3-mutant-nogaps"

    def _record(self, key: tuple) -> None:
        self._seen.add(key)
        history = set(identity_seqnos(key, self.varname))
        self._tracker.received |= history  # BUG: missed set never grows


class AD3NoReceivedCheck(AD3):
    """Mutant: skips the gaps-vs-Received half of Conflicts()."""

    name = "AD-3-mutant-halfcheck"

    def _accept(self, key: tuple) -> bool:
        if key in self._seen:
            return False
        history = set(identity_seqnos(key, self.varname))
        # BUG: only checks history∩Missed, not gaps∩Received.
        return not (history & self._tracker.missed)


class AD5OneVariableOnly(AD5):
    """Mutant: enforces monotonicity in the first variable only."""

    name = "AD-5-mutant-onevar"

    def _accept(self, key: tuple) -> bool:
        first = self.varnames[0]
        return identity_seqnos(key, first)[0] >= self._last[first]  # BUG: ignores y


class TestMutantsCaughtExhaustively:
    """The bounded-exhaustive verifier must find a violating stream for
    every mutant (and, per test_statespace_verification, none for the
    real algorithms)."""

    ALPHABET = degree2_alphabet(max_seqno=4)

    def test_ad2_nonstrict_caught(self):
        result = verify_invariant_exhaustively(
            lambda: AD2NonStrict("x"),
            self.ALPHABET,
            max_length=2,
            invariant=strict_orderedness_property("x"),
        )
        assert not result.holds

    def test_ad2_stateless_caught(self):
        result = verify_invariant_exhaustively(
            lambda: AD2ForgetsState("x"),
            self.ALPHABET,
            max_length=2,
            invariant=strict_orderedness_property("x"),
        )
        assert not result.holds

    def test_ad3_nogaps_caught(self):
        result = verify_invariant_exhaustively(
            lambda: AD3NoGapTracking("x"),
            self.ALPHABET,
            max_length=2,
            invariant=consistency_property("x"),
        )
        assert not result.holds
        # And the witness is a genuine Theorem-4-style conflict:
        a, b = result.violation
        gaps = spanning_set(a.histories.seqnos("x")) - set(
            a.histories.seqnos("x")
        )
        overlap = gaps & set(b.histories.seqnos("x"))
        reverse = (
            spanning_set(b.histories.seqnos("x"))
            - set(b.histories.seqnos("x"))
        ) & set(a.histories.seqnos("x"))
        assert overlap or reverse

    def test_ad3_halfcheck_caught(self):
        result = verify_invariant_exhaustively(
            lambda: AD3NoReceivedCheck("x"),
            self.ALPHABET,
            max_length=2,
            invariant=consistency_property("x"),
        )
        assert not result.holds

    def test_ad5_onevar_caught(self):
        result = verify_invariant_exhaustively(
            lambda: AD5OneVariableOnly(("x", "y")),
            two_variable_alphabet(max_seqno=3),
            max_length=2,
            invariant=lambda d: check_orderedness(keys_of(d), ["x", "y"]),
        )
        assert not result.holds


class TestMutantsCaughtByRandomizedTables:
    """The randomized table sweep must also flag mutants — the same
    machinery that produced the ✓ cells must not produce them for broken
    implementations."""

    def test_ad3_mutant_fails_consistency_sweep(self):
        from repro.props.report import PropertyTally
        from repro.workloads.scenarios import (
            SINGLE_VARIABLE_SCENARIOS,
            run_scenario,
        )
        from repro.components.system import run_system, SystemConfig
        from repro.simulation.rng import RandomStreams
        from repro.workloads.generators import rising_runs
        from repro.core.condition import c2

        tally = PropertyTally()
        for seed in range(40):
            streams = RandomStreams(seed)
            workload = {"x": rising_runs(streams.stream("w"), 30)}
            config = SystemConfig(replication=2, front_loss=0.3)
            run = run_system(
                c2(), workload, config, seed=seed,
                algorithm=AD3NoGapTracking("x"),
            )
            tally.add(run.evaluate_properties(), seed=seed)
        assert tally.consistency_violations > 0  # mutant exposed


# ---------------------------------------------------------------------------
# Mutants of the *checkers'* first layers.
# ---------------------------------------------------------------------------

def _mutant(function, old: str | None = None, new: str = ""):
    """``function`` re-executed from source with ``old`` → ``new``.

    One textual edit, which must hit exactly one place; the copy runs in
    the defining module's namespace, so it builds the real result
    classes and calls the real helpers.  ``old=None`` is the control: an
    unedited copy.
    """
    import inspect

    source = inspect.getsource(function)
    if old is not None:
        assert source.count(old) == 1, f"{old!r} must occur exactly once"
        source = source.replace(old, new)
    namespace = dict(vars(inspect.getmodule(function)))
    exec("from __future__ import annotations\n" + source, namespace)
    return namespace[function.__name__]


def _killed_by_crossvalidation(
    disagrees, strategy=None, examples: int = 600
) -> bool:
    """Does the cross-validation strategy (``lossy_two_variable_runs``
    unless another is given) produce a case on which the candidate
    disagrees with its oracle?  (Derandomized, no shrinking.)"""
    from hypothesis import Phase, given, settings

    from tests.property.test_prop_checker_crossvalidation import (
        lossy_two_variable_runs,
    )

    @settings(
        max_examples=examples, deadline=None, database=None,
        derandomize=True, phases=[Phase.generate],
    )
    @given(strategy if strategy is not None else lossy_two_variable_runs())
    def hunt(case):
        assert not disagrees(*case)

    try:
        hunt()
    except AssertionError:
        return True
    return False


class TestCheckerFirstLayerMutantsCaught:
    """Every shortcut of the two-layer checkers, broken one line at a
    time, must be exposed by the very strategy
    ``test_prop_checker_crossvalidation`` validates them with — a mutant
    that survived would mean the oracle comparison never reaches that
    shortcut's exit."""

    @staticmethod
    def completeness(candidate):
        from tests.conftest import check_completeness_multi_enumerated

        def disagrees(condition, per_var, displayed):
            return candidate(
                keys_of(displayed), condition, per_var
            ) != check_completeness_multi_enumerated(displayed, condition, per_var)

        return disagrees

    @staticmethod
    def consistency(candidate):
        from tests.conftest import check_consistency_bruteforce

        def disagrees(condition, per_var, displayed):
            return bool(candidate(keys_of(displayed), ["x", "y"])) != bool(
                check_consistency_bruteforce(displayed, condition, per_var)
            )

        return disagrees

    @staticmethod
    def single_completeness(candidate):
        """``(disagrees, strategy)`` for ``check_completeness_single``."""
        from tests.property.test_prop_checker_crossvalidation import (
            completeness_single_by_rerunning_T,
            lossy_single_variable_runs,
        )

        def disagrees(condition, merged, displayed):
            return candidate(
                keys_of(displayed), condition, merged
            ) != completeness_single_by_rerunning_T(displayed, condition, merged)

        return disagrees, lossy_single_variable_runs()

    @staticmethod
    def gaps(candidate):
        """``(disagrees, strategy)`` for ``history_gaps``."""
        from hypothesis import strategies as st

        from tests.property.test_prop_sequences import histories

        def disagrees(history):
            return candidate(history) != spanning_set(history) - set(history)

        return disagrees, st.tuples(histories())

    def test_unmutated_copies_survive(self):
        from repro.core.sequences import history_gaps
        from repro.props.completeness import (
            check_completeness_multi,
            check_completeness_single,
        )
        from repro.props.consistency import check_consistency_multi

        assert not _killed_by_crossvalidation(
            self.completeness(_mutant(check_completeness_multi)), examples=200
        )
        assert not _killed_by_crossvalidation(
            self.consistency(_mutant(check_consistency_multi)), examples=200
        )
        assert not _killed_by_crossvalidation(
            *self.single_completeness(_mutant(check_completeness_single)),
            examples=200,
        )
        assert not _killed_by_crossvalidation(
            *self.gaps(_mutant(history_gaps)), examples=200
        )

    def test_ordered_shortcut_before_the_membership_check(self):
        """Mutant: an ordered A is waved through without Theorem 7's
        Received/Missed test — a(3x,2x;·), a(3x,1x;·) is ordered."""
        from repro.props.consistency import check_consistency_multi

        mutant = _mutant(
            check_consistency_multi,
            "        if conflict:", "        if conflict and not ordered:",
        )
        assert _killed_by_crossvalidation(self.consistency(mutant))

    def test_ordered_shortcut_for_every_A(self):
        """Mutant: the graph is never built, ordered or not."""
        from repro.props.consistency import check_consistency_multi

        mutant = _mutant(
            check_consistency_multi, "    if not ordered:\n", "    if False:\n"
        )
        assert _killed_by_crossvalidation(self.consistency(mutant))

    def test_overshoot_test_off_by_one(self):
        """Mutant: ``>=`` for ``>`` — a step *onto* the goal's coordinate
        is discarded as if it overshot, so goals become unreachable."""
        from repro.props.completeness import check_completeness_multi

        mutant = _mutant(
            check_completeness_multi,
            "if coordinate > goal[axis]:", "if coordinate >= goal[axis]:",
        )
        assert _killed_by_crossvalidation(self.completeness(mutant))

    def test_producibility_by_heads_only(self):
        """Mutant: an identity is located by its head seqnos and the
        history below them is never compared — a lossy CE's gap history
        a(3x,1x;·) passes for the grid point of a(3x,2x;·)."""
        from repro.props.completeness import check_completeness_multi

        mutant = _mutant(
            check_completeness_multi,
            "var != axis or below[n - pos : n - pos + degree] != seqnos",
            "var != axis",
        )
        assert _killed_by_crossvalidation(self.completeness(mutant))

    def test_targets_treated_as_obstacles(self):
        """Mutant: the walk refuses every point where the condition
        holds, the displayed alerts' own points included."""
        from repro.props.completeness import check_completeness_multi

        mutant = _mutant(
            check_completeness_multi,
            "or (raises(step) and step not in wanted)", "or raises(step)",
        )
        assert _killed_by_crossvalidation(self.completeness(mutant))

    def test_window_off_by_one(self):
        """Mutant: a raising position is keyed by the window one update
        older than the one the condition was asked about."""
        from repro.props.completeness import check_completeness_single

        mutant = _mutant(
            check_completeness_single,
            "expected.add(tuple(seqnos[start : start + degree]))",
            "expected.add(tuple(seqnos[start + 1 : start + degree + 1]))",
        )
        assert _killed_by_crossvalidation(*self.single_completeness(mutant))

    def test_degree_th_position_skipped(self):
        """Mutant: the walk starts one position late, as if H were still
        undefined when its ``degree``-th update arrives."""
        from repro.props.completeness import check_completeness_single

        mutant = _mutant(
            check_completeness_single,
            "range(len(seqnos) - degree, -1, -1)",
            "range(len(seqnos) - degree - 1, -1, -1)",
        )
        assert _killed_by_crossvalidation(*self.single_completeness(mutant))

    def test_condname_check_dropped(self):
        """Mutant: another condition's alert over the same history is
        taken for this condition's."""
        from repro.props.completeness import check_completeness_single

        mutant = _mutant(
            check_completeness_single,
            "if key[0] != condname or len(histories) != 1",
            "if len(histories) != 1",
        )
        assert _killed_by_crossvalidation(*self.single_completeness(mutant))

    def test_consecutive_window_shortcut_for_every_window(self):
        """Mutant: every history is waved through as gap-free, so
        Missed never grows."""
        from repro.core.sequences import history_gaps

        mutant = _mutant(
            history_gaps,
            "if len(seqnos) == head - tail + 1:", "if True:",
        )
        assert _killed_by_crossvalidation(*self.gaps(mutant))

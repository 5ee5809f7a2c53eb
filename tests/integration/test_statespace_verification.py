"""Bounded-exhaustive verification of the algorithm guarantees.

Within the enumerated bounds these are *proofs by exhaustion* of the
paper's per-algorithm theorems — every stream over the alphabet, every
prefix, no sampling.
"""

import pytest

pytestmark = pytest.mark.slow

from repro.analysis.experiments import (
    consistency_property,
    strict_orderedness_property,
)
from repro.displayers import AD1, AD2, AD3, AD4, AD5, AD6
from repro.props.consistency import check_consistency_multi
from repro.props.orderedness import check_orderedness
from repro.props.statespace import (
    degree2_alphabet,
    two_variable_alphabet,
    verify_invariant_exhaustively,
)
from tests.conftest import keys_of


class TestSingleVariableGuarantees:
    ALPHABET = degree2_alphabet(max_seqno=4)  # 6 alerts, incl. gap shapes

    def test_alphabet_shape(self):
        assert len(self.ALPHABET) == 6

    def test_ad2_ordered_on_every_stream(self):
        result = verify_invariant_exhaustively(
            lambda: AD2("x"),
            self.ALPHABET,
            max_length=4,
            invariant=strict_orderedness_property("x"),
        )
        assert result.holds, result.violation
        assert result.streams_checked == 6**4

    def test_ad3_consistent_on_every_stream(self):
        result = verify_invariant_exhaustively(
            lambda: AD3("x"),
            self.ALPHABET,
            max_length=4,
            invariant=consistency_property("x"),
        )
        assert result.holds, result.violation

    def test_ad4_both_on_every_stream(self):
        ordered = strict_orderedness_property("x")
        consistent = consistency_property("x")
        result = verify_invariant_exhaustively(
            lambda: AD4("x"),
            self.ALPHABET,
            max_length=4,
            invariant=lambda displayed: ordered(displayed) and consistent(displayed),
        )
        assert result.holds, result.violation

    def test_ad1_violates_orderedness_and_the_sweep_finds_it(self):
        # Sanity: the verifier is not vacuous — AD-1 has no orderedness
        # guarantee and the exhaustive sweep must find a witness quickly.
        result = verify_invariant_exhaustively(
            AD1,
            self.ALPHABET,
            max_length=2,
            invariant=strict_orderedness_property("x"),
        )
        assert not result.holds
        assert result.violation is not None
        assert len(result.violation) == 2  # shortest possible witness

    def test_ad1_violates_consistency_exhaustively_found(self):
        result = verify_invariant_exhaustively(
            AD1,
            self.ALPHABET,
            max_length=2,
            invariant=consistency_property("x"),
        )
        assert not result.holds


class TestMultiVariableGuarantees:
    ALPHABET = two_variable_alphabet(max_seqno=3)  # 9 alerts

    def test_ad5_ordered_on_every_stream(self):
        result = verify_invariant_exhaustively(
            lambda: AD5(("x", "y")),
            self.ALPHABET,
            max_length=4,
            invariant=lambda d: check_orderedness(keys_of(d), ["x", "y"]),
        )
        assert result.holds, result.violation
        assert result.streams_checked == 9**4

    def test_ad6_ordered_and_consistent_on_every_stream(self):
        result = verify_invariant_exhaustively(
            lambda: AD6(("x", "y")),
            self.ALPHABET,
            max_length=4,
            invariant=lambda d: (
                check_orderedness(keys_of(d), ["x", "y"])
                and check_consistency_multi(keys_of(d), ["x", "y"])
            ),
        )
        assert result.holds, result.violation

    def test_ad1_multi_violation_found(self):
        # Theorem 10 in miniature: two alerts suffice.
        result = verify_invariant_exhaustively(
            AD1,
            self.ALPHABET,
            max_length=2,
            invariant=lambda d: bool(
                check_consistency_multi(keys_of(d), ["x", "y"])
            ),
        )
        assert not result.holds
        assert len(result.violation) == 2


class TestVerifierMechanics:
    def test_state_budget_enforced(self):
        with pytest.raises(RuntimeError):
            verify_invariant_exhaustively(
                AD1,
                degree2_alphabet(5),
                max_length=6,
                invariant=lambda d: True,
                max_states=100,
            )

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            verify_invariant_exhaustively(
                AD1, degree2_alphabet(3), -1, lambda d: True
            )

    def test_zero_length_trivially_holds(self):
        result = verify_invariant_exhaustively(
            AD1, degree2_alphabet(3), 0, lambda d: False
        )
        assert result.holds
        assert result.streams_checked == 1

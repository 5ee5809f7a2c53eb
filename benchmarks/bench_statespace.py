"""Bounded-exhaustive verification of the algorithm guarantees, at scale.

Proof-by-exhaustion versions of the ✓ columns: every stream over a
degree-2 alert alphabet up to length 5 (46k+ streams, every prefix
checked) for the single-variable algorithms, and a two-variable alphabet
for AD-5/AD-6.  A single violating stream anywhere in the space would
refute the corresponding theorem.
"""

from benchmarks.conftest import save_result
from repro.analysis.experiments import (
    consistency_property,
    strict_orderedness_property,
)
from repro.displayers import AD2, AD3, AD4, AD5, AD6
from repro.props.consistency import check_consistency_multi
from repro.props.orderedness import check_orderedness
from repro.props.statespace import (
    degree2_alphabet,
    two_variable_alphabet,
    verify_invariant_exhaustively,
)

SINGLE_LENGTH = 5
MULTI_LENGTH = 4


def test_exhaustive_state_space(benchmark):
    def run():
        ordered = strict_orderedness_property("x")
        consistent = consistency_property("x")
        alphabet = degree2_alphabet(max_seqno=4)
        xy_alphabet = two_variable_alphabet(max_seqno=3)
        outcomes = {}
        outcomes["AD-2 ordered"] = verify_invariant_exhaustively(
            lambda: AD2("x"), alphabet, SINGLE_LENGTH, ordered
        )
        outcomes["AD-3 consistent"] = verify_invariant_exhaustively(
            lambda: AD3("x"), alphabet, SINGLE_LENGTH, consistent
        )
        outcomes["AD-4 both"] = verify_invariant_exhaustively(
            lambda: AD4("x"),
            alphabet,
            SINGLE_LENGTH,
            lambda d: ordered(d) and consistent(d),
        )
        outcomes["AD-5 ordered"] = verify_invariant_exhaustively(
            lambda: AD5(("x", "y")),
            xy_alphabet,
            MULTI_LENGTH,
            lambda d: check_orderedness([a.identity() for a in d], ["x", "y"]),
        )
        outcomes["AD-6 both"] = verify_invariant_exhaustively(
            lambda: AD6(("x", "y")),
            xy_alphabet,
            MULTI_LENGTH,
            lambda d: (
                check_orderedness([a.identity() for a in d], ["x", "y"])
                and check_consistency_multi([a.identity() for a in d], ["x", "y"])
            ),
        )
        return outcomes

    outcomes = benchmark.pedantic(run, rounds=1, iterations=1)
    lines = ["Bounded-exhaustive guarantee verification"]
    lines.append(f"{'claim':<18} {'streams':>9} {'states':>9} {'verdict':>9}")
    for name, result in outcomes.items():
        lines.append(
            f"{name:<18} {result.streams_checked:>9} "
            f"{result.states_visited:>9} "
            f"{'HOLDS' if result.holds else 'VIOLATED':>9}"
        )
    text = "\n".join(lines)
    save_result("statespace", text)
    for name, result in outcomes.items():
        assert result.holds, f"{name} violated: {result.violation}"

"""Unit tests for the textual condition parser."""

import pytest

from repro.core.parser import ConditionSyntaxError, parse_condition, parse_expression
from repro.core.update import Update
from tests.conftest import snapshot_of


def evaluate(text, pairs, var="x"):
    condition = parse_condition("t", text)
    return condition.evaluate(
        snapshot_of(condition.degrees, [Update(var, s, v) for s, v in pairs])
    )


class TestParsePaperConditions:
    def test_c1(self):
        assert evaluate("H.x[0].value > 3000", [(1, 3100.0)])
        assert not evaluate("H.x[0].value > 3000", [(1, 2900.0)])

    def test_c2(self):
        text = "H.x[0].value - H.x[-1].value > 200"
        assert evaluate(text, [(1, 400.0), (3, 720.0)])

    def test_c3(self):
        text = (
            "H.x[0].value - H.x[-1].value > 200 "
            "and H.x[0].seqno == H.x[-1].seqno + 1"
        )
        assert not evaluate(text, [(1, 400.0), (3, 720.0)])
        assert evaluate(text, [(1, 400.0), (2, 700.0)])

    def test_cm(self):
        condition = parse_condition("cm", "abs(H.x[0].value - H.y[0].value) > 100")
        assert condition.variables == ("x", "y")
        histories = snapshot_of(
            condition.degrees, [Update("x", 1, 1000.0), Update("y", 1, 1150.0)]
        )
        assert condition.evaluate(histories)

    def test_matches_dsl_equivalent(self):
        from repro.core.condition import c2
        from repro.core.evaluator import ConditionEvaluator
        from repro.core.update import parse_trace

        parsed = parse_condition("c2", "H.x[0].value - H.x[-1].value > 200")
        trace = parse_trace("1x(100), 2x(350), 3x(360), 4x(620)")
        dsl_alerts = ConditionEvaluator(c2()).ingest_all(trace)
        parsed_alerts = ConditionEvaluator(parsed).ingest_all(trace)
        assert [a.seqno("x") for a in dsl_alerts] == [
            a.seqno("x") for a in parsed_alerts
        ]


class TestGrammar:
    def test_bracket_variable_names(self):
        condition = parse_condition("p", "H['stock price'][0].value < 50")
        assert condition.variables == ("stock price",)

    def test_degrees_inferred(self):
        condition = parse_condition(
            "deep", "H.x[0].value > 0 and H.x[-2].value > 0"
        )
        assert condition.degree("x") == 3

    def test_or_and_not(self):
        assert evaluate("H.x[0].value > 10 or H.x[0].value < -10", [(1, 20.0)])
        assert evaluate("not H.x[0].value > 10", [(1, 5.0)])

    def test_unary_minus_and_division(self):
        assert evaluate("-H.x[0].value / 2 == -5", [(1, 10.0)])

    def test_nested_negated_literals_fold_in_one_pass(self):
        # "-(-(-0))" must normalise to the literal "-0" on the first
        # parse/render round, not leave a Neg node for a second round.
        from repro.core.parser import parse_expression
        from repro.core.serialization import expression_to_text

        once = expression_to_text(parse_expression("(0 > (-(-(-5))))"))
        assert once == expression_to_text(parse_expression(once)) == "(0 > -5)"

    def test_reversed_operand_order(self):
        assert evaluate("3000 < H.x[0].value", [(1, 3100.0)])

    def test_conservative_flag(self):
        condition = parse_condition(
            "g", "H.x[0].value - H.x[-1].value > 0", conservative=True
        )
        assert condition.is_conservative


class TestRejections:
    @pytest.mark.parametrize(
        "text",
        [
            "__import__('os').system('true')",      # call
            "H.x[0].value.__class__",                # dunder attribute
            "open('/etc/passwd')",                   # call
            "x + 1 > 2",                             # bare name
            "H.x[0].timestamp > 0",                  # unknown field
            "H.x[1].value > 0",                      # positive index
            "H.x[0].value",                          # not boolean
            "H.x[0].value > 1 > 2",                  # chained comparison
            "H.x[0].value ** 2 > 4",                 # unsupported operator
            "H.x['a'].value > 0",                    # non-int index
            "lambda: 1",                             # lambda
            "'str' == 'str'",                        # non-numeric literal
            "True and False",                        # bare booleans
            "abs(1, 2) > 0",                         # wrong arity
            "max(H.x[0].value, 1) > 0",              # non-abs call
            "(1 > 0) if True else (2 > 0)",          # conditional
        ],
    )
    def test_rejected(self, text):
        with pytest.raises(ConditionSyntaxError):
            parse_expression(text)

    def test_invalid_python_syntax(self):
        with pytest.raises(ConditionSyntaxError):
            parse_expression("H.x[0].value >")

    def test_error_message_carries_fragment(self):
        with pytest.raises(ConditionSyntaxError, match="timestamp"):
            parse_expression("H.x[0].timestamp > 0")

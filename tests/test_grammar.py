import dataclasses
import math
import pickle
import random
from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ruleforge import (ParseError, RelOp, TokenKind, Var, check_vocabulary, evaluate,
                       parse_rule, print_rule, random_rule, tokenize)
from ruleforge.grammar import Const, GrammarError, OddVariable, Relation, fmt_number, rule

R1 = "(dist_front < 5.0) and (ego_speed > 0)"
EXEMPLAR = "(0 < ARG2 < 5) and (ARG1 > 0) or (8 < ARG2 < 12)"
TUPLE_TEXT = "[[('greater_than_func','ARG1','0')]]"


class TestTokenize:
    def test_three_token_relation(self):
        toks = tokenize("ARG1 > 0")
        assert [(t.kind, t.lexeme) for t in toks] == [
            (TokenKind.IDENT, "ARG1"), (TokenKind.RELOP, ">"), (TokenKind.NUMBER, "0")]

    def test_tuple_list_text_yields_garbage(self):
        toks = tokenize(TUPLE_TEXT)
        garbage = [t for t in toks if t.kind is TokenKind.GARBAGE]
        assert garbage, "brackets/quotes/commas must come back as GARBAGE"
        assert any("[" in t.lexeme for t in garbage)
        assert any("'" in t.lexeme or "," in t.lexeme for t in garbage)

    def test_clean_rule_token_count(self):
        toks = tokenize(R1)
        assert len(toks) == 11
        assert all(t.kind is not TokenKind.GARBAGE for t in toks)

    def test_spans_reconstruct_input(self):
        for text in [R1, EXEMPLAR, TUPLE_TEXT, "  x<1\t and\n y>2 "]:
            toks = tokenize(text)
            pos = 0
            for tok in toks:
                start, end = tok.span
                assert start >= pos
                assert all(c in " \t\r\n\f\v" for c in text[pos:start])
                assert text[start:end] == tok.lexeme
                pos = end
            assert all(c in " \t\r\n\f\v" for c in text[pos:])

    @given(st.text(max_size=200))
    @settings(max_examples=300, deadline=None)
    def test_totality_and_reconstruction(self, text):
        toks = tokenize(text)  # must never raise
        pos = 0
        for tok in toks:
            start, end = tok.span
            assert start >= pos and end > start
            assert text[start:end] == tok.lexeme
            assert all(c in " \t\r\n\f\v" for c in text[pos:start])
            pos = end
        assert all(c in " \t\r\n\f\v" for c in text[pos:])

    @given(st.text(max_size=200))
    @settings(max_examples=300, deadline=None)
    def test_parse_fails_only_with_parse_error(self, text):
        from ruleforge import RuleAst
        try:
            assert isinstance(parse_rule(text), RuleAst)
        except ParseError:
            pass

    def test_unicode_digits_are_not_literals(self):
        toks = tokenize("¹ < 1")  # superscript one
        assert toks[0].kind is TokenKind.GARBAGE
        with pytest.raises(ParseError):
            parse_rule("¹ < 1")

    def test_oversized_literal_is_a_parse_error(self):
        with pytest.raises(ParseError, match="out of range"):
            parse_rule("x < " + "9" * 400)


class TestParse:
    def test_running_example_shape(self):
        ast = parse_rule(R1)
        assert len(ast.disjuncts) == 1
        assert len(ast.disjuncts[0].relations) == 2

    def test_chained_exemplar_desugars(self):
        ast = parse_rule(EXEMPLAR)
        assert [len(c.relations) for c in ast.disjuncts] == [3, 2]

    def test_dangling_operator(self):
        with pytest.raises(ParseError) as err:
            parse_rule("ARG1 >")
        assert err.value.position == len("ARG1 >")

    def test_error_carries_expected_set(self):
        with pytest.raises(ParseError) as err:
            parse_rule("ARG1 > > 2")
        assert err.value.expected

    def test_garbage_rejected(self):
        with pytest.raises(ParseError):
            parse_rule(TUPLE_TEXT)

    def test_bare_expression_is_not_a_rule(self):
        with pytest.raises(ParseError):
            parse_rule("ARG1 + 2")

    def test_disjunction_under_conjunction_rejected(self):
        with pytest.raises(ParseError):
            parse_rule("((a < 5) or (b > 0)) and (c < 1)")

    def test_precedence_or_under_and(self):
        ast = parse_rule("a < 1 or b > 2 and c < 3")
        assert [len(c.relations) for c in ast.disjuncts] == [1, 2]

    def test_operator_aliases(self):
        canonical = parse_rule("(x >= 1) and (y <= 2) or (z != 3)")
        for text in ["(x >= 1) && (y <= 2) || (z != 3)",
                     "(x ≥ 1) ∧ (y ≤ 2) ∨ (z ≠ 3)",
                     "(x >= 1) AND (y <= 2) OR (z != 3)"]:
            assert parse_rule(text) == canonical
        assert parse_rule("x = 1") == parse_rule("x == 1")

    def test_negative_constants(self):
        ast = parse_rule("lane_offset > -1.5")
        assert ast.disjuncts[0].relations[0].rhs == Const(-1.5)

    def test_arithmetic_precedence(self):
        ast = parse_rule("a + b * c < 2")
        lhs = ast.disjuncts[0].relations[0].lhs
        assert lhs.op.value == "+"
        assert lhs.right.op.value == "*"

    def test_invalid_var_name_rejected_at_construction(self):
        with pytest.raises(GrammarError):
            Var("and")


class TestPrint:
    def test_canonical_r1(self):
        assert print_rule(parse_rule(R1)) == "(dist_front < 5) and (ego_speed > 0)"

    def test_chained_exemplar_binary_form(self):
        assert print_rule(parse_rule(EXEMPLAR)) == \
            "((0 < ARG2) and (ARG2 < 5) and (ARG1 > 0)) or ((8 < ARG2) and (ARG2 < 12))"

    def test_single_relation(self):
        assert print_rule(parse_rule("ARG2 > 5")) == "(ARG2 > 5)"

    def test_number_formatting(self):
        assert fmt_number(5.0) == "5"
        assert fmt_number(4.1) == "4.1"
        assert fmt_number(-0.2) == "-0.2"
        assert fmt_number(1e20) == "100000000000000000000"
        assert float(fmt_number(1e-8)) == 1e-8

    def test_parenthesized_arithmetic_round_trips(self):
        text = "((a + b) * c < 2)"
        assert print_rule(parse_rule(text)) == "((a + b) * c < 2)"
        assert parse_rule(print_rule(parse_rule("a - (b - c) < 1"))) == parse_rule("a - (b - c) < 1")


class TestRoundTrip:
    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=200, deadline=None)
    def test_random_rule_round_trip(self, seed):
        from ruleforge import odd_spec
        domain = odd_spec([("ego_speed", 0.0, 30.0, 0.5), ("dist_front", 0.0, 50.0, 0.2),
                           ("lane_offset", -2.0, 2.0, 0.1)])
        ast = random_rule(seed, domain, 3, 4)
        assert parse_rule(print_rule(ast)) == ast
        assert check_vocabulary(ast, domain) == []

    @given(st.floats(allow_nan=False, allow_infinity=False))
    @settings(max_examples=200, deadline=None)
    def test_const_round_trip(self, value):
        printed = print_rule(rule([Relation(Var("x"), RelOp.LT, Const(value))]))
        reparsed = parse_rule(printed)
        assert reparsed.disjuncts[0].relations[0].rhs.value == value


class TestDesugaringSoundness:
    def test_chain_equals_conjunction_on_grid(self):
        chained = parse_rule("0 < x < 5")
        explicit = parse_rule("(0 < x) and (x < 5)")
        for i in range(-20, 30):
            binding = {"x": i / 2}
            assert evaluate(chained, binding) == evaluate(explicit, binding)

    def test_mixed_direction_chain(self):
        chained = parse_rule("x < y > z")
        explicit = parse_rule("(x < y) and (y > z)")
        grid = [-1.0, 0.0, 1.0, 2.0]
        for x in grid:
            for y in grid:
                for z in grid:
                    binding = {"x": x, "y": y, "z": z}
                    assert evaluate(chained, binding) == evaluate(explicit, binding)


class TestVocabulary:
    def test_running_example_clean(self, odd):
        assert check_vocabulary(parse_rule(R1), odd) == []

    def test_unknown_variable(self, arg_odd):
        violations = check_vocabulary(parse_rule("ARG3 > 1"), arg_odd)
        assert [str(v) for v in violations] == ["UnknownVariable ARG3"]

    def test_out_of_range_bound(self, odd):
        violations = check_vocabulary(parse_rule("(dist_front < 120)"), odd)
        assert [str(v) for v in violations] == ["OutOfRangeBound 120"]

    def test_compound_expressions_not_range_checked(self, odd):
        assert check_vocabulary(parse_rule("dist_front + 0 < 120"), odd) == []

    def test_mirrored_bound_checked(self, odd):
        violations = check_vocabulary(parse_rule("120 > dist_front"), odd)
        assert [str(v) for v in violations] == ["OutOfRangeBound 120"]


class TestRandomRule:
    def test_deterministic(self, odd):
        assert random_rule(1, odd, 2, 3) == random_rule(1, odd, 2, 3)

    def test_limits_validated(self, odd):
        with pytest.raises(ValueError):
            random_rule(1, odd, 0, 3)

    def test_corpus_closure(self, odd):
        from ruleforge import grammar_compliance
        for seed in range(200):
            ast = random_rule(seed, odd, 3, 3)
            printed = print_rule(ast)
            assert parse_rule(printed) == ast
            assert grammar_compliance(printed).gc == 1.0


# ---------------------------------------------------------------------------
# The grid facts of an ODD variable against the per-call formulas they
# replaced, kept here as the reference only.
# ---------------------------------------------------------------------------


def _ref_decimals(v):
    return max(0, -Decimal(repr(v.step)).as_tuple().exponent)


def _ref_grid_count(v):
    return int(math.floor((v.max - v.min) / v.step + 1e-9)) + 1


def _ref_grid_value(v, k):
    return round(v.min + k * v.step, _ref_decimals(v))


GRID_STEPS = [1e-7, 0.05, 0.1, 2.5, 10.0]


def _grid_variables(seed):
    """Random variables for each step: on-grid and off-grid ends, spans that
    are and are not a whole number of steps, and min == max."""
    rng = random.Random(seed)
    for step in GRID_STEPS:
        for _ in range(6):
            lo = rng.choice([round(rng.uniform(-50, 50), rng.randrange(4)),
                             rng.uniform(-50, 50),
                             rng.randrange(-20, 20) * step])
            span = rng.randrange(0, 400) * step + rng.choice([0.0, step * rng.random()])
            yield OddVariable("v", lo, lo + span, step)
        yield OddVariable("v", lo, lo, step)


def _assert_grid_facts_match(v):
    assert _ref_grid_count(v) <= 1000  # the grid is listed in full below
    assert v.decimals == _ref_decimals(v)
    assert v.grid_count == _ref_grid_count(v)
    assert v.grid_values() == [_ref_grid_value(v, k) for k in range(_ref_grid_count(v))]
    for k in (0, v.grid_count - 1, v.grid_count, -1):
        assert v.grid_value(k) == _ref_grid_value(v, k)


class TestGridFacts:
    @pytest.mark.parametrize("seed", range(4))
    def test_match_the_per_call_formulas(self, seed):
        for v in _grid_variables(seed):
            _assert_grid_facts_match(v)

    def test_degenerate_range_has_one_point(self):
        for step in GRID_STEPS:
            v = OddVariable("v", 7.25, 7.25, step)
            assert v.grid_count == 1 and v.grid_values() == [_ref_grid_value(v, 0)]

    @pytest.mark.parametrize("seed", range(2))
    def test_survive_pickling(self, seed):
        for v in _grid_variables(seed):
            v.grid_value(0)  # facts already computed before the round trip
            for copy in (pickle.loads(pickle.dumps(v)),
                         pickle.loads(pickle.dumps(OddVariable(v.name, v.min, v.max, v.step)))):
                assert copy == v and hash(copy) == hash(v) and repr(copy) == repr(v)
                _assert_grid_facts_match(copy)

    @pytest.mark.parametrize("seed", range(2))
    def test_follow_dataclasses_replace(self, seed):
        rng = random.Random(seed)
        for v in _grid_variables(seed):
            v.grid_value(0)
            step = rng.choice(GRID_STEPS)
            for changed in (dataclasses.replace(v, step=v.step * 2),
                            dataclasses.replace(v, max=v.max + rng.randrange(1, 50) * v.step),
                            dataclasses.replace(v, min=v.min - 3 * v.step),
                            dataclasses.replace(v, max=v.min + rng.randrange(300) * step,
                                                step=step)):
                _assert_grid_facts_match(changed)

    def test_equality_hash_and_repr_are_the_fields(self):
        a = OddVariable("v", -1.0, 2.0, 0.05)
        b = OddVariable("v", -1.0, 2.0, 0.05)
        a.grid_values()
        assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
        assert repr(a) == "OddVariable(name='v', min=-1.0, max=2.0, step=0.05)"
        assert a != OddVariable("v", -1.0, 2.0, 0.1)

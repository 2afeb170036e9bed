import dataclasses
import json
import math
import pickle
import random
import time
from decimal import Decimal
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ruleforge import (ParseError, RelOp, TokenKind, Var, check_vocabulary, evaluate,
                       parse_rule, print_rule, random_rule, tokenize)
from ruleforge.grammar import (GRAMMAR_TEXT, Conjunct, Const, GrammarError, OddVariable, Relation,
                               RuleAst, Token, fmt_number, parse_relation, rule)

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


# ---------------------------------------------------------------------------
# The character-loop scanner that the regex token table replaced, kept here
# as the reference only.
# ---------------------------------------------------------------------------

_REF_WHITESPACE = " \t\r\n\f\v"
_REF_TWO_CHAR_OPS = {"<=": TokenKind.RELOP, ">=": TokenKind.RELOP, "==": TokenKind.RELOP,
                     "!=": TokenKind.RELOP, "&&": TokenKind.LOGOP, "||": TokenKind.LOGOP}
_REF_ONE_CHAR_OPS = {"<": TokenKind.RELOP, ">": TokenKind.RELOP, "=": TokenKind.RELOP,
                     "≤": TokenKind.RELOP, "≥": TokenKind.RELOP, "≠": TokenKind.RELOP,
                     "+": TokenKind.AROP, "-": TokenKind.AROP, "*": TokenKind.AROP,
                     "/": TokenKind.AROP, "∧": TokenKind.LOGOP, "∨": TokenKind.LOGOP,
                     "(": TokenKind.LPAREN, ")": TokenKind.RPAREN}


def _ref_is_digit(ch):
    return "0" <= ch <= "9"


def _ref_is_ident_start(ch):
    return ch == "_" or ("A" <= ch <= "Z") or ("a" <= ch <= "z")


def _ref_starts_token(ch):
    return (ch in _REF_WHITESPACE or _ref_is_digit(ch) or _ref_is_ident_start(ch)
            or ch in _REF_ONE_CHAR_OPS or ch in "!&|")


def _ref_tokenize(text):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch in _REF_WHITESPACE:
            i += 1
            continue
        start = i
        if text[i:i + 2] in _REF_TWO_CHAR_OPS:
            tokens.append(Token(_REF_TWO_CHAR_OPS[text[i:i + 2]], text[i:i + 2], (i, i + 2)))
            i += 2
            continue
        if ch in _REF_ONE_CHAR_OPS:
            tokens.append(Token(_REF_ONE_CHAR_OPS[ch], ch, (i, i + 1)))
            i += 1
            continue
        if _ref_is_digit(ch):
            i += 1
            while i < n and _ref_is_digit(text[i]):
                i += 1
            if i + 1 < n and text[i] == "." and _ref_is_digit(text[i + 1]):
                i += 1
                while i < n and _ref_is_digit(text[i]):
                    i += 1
            tokens.append(Token(TokenKind.NUMBER, text[start:i], (start, i)))
            continue
        if _ref_is_ident_start(ch):
            i += 1
            while i < n and (_ref_is_ident_start(text[i]) or _ref_is_digit(text[i])):
                i += 1
            word = text[start:i]
            kind = TokenKind.LOGOP if word.lower() in ("and", "or") else TokenKind.IDENT
            tokens.append(Token(kind, word, (start, i)))
            continue
        i += 1
        while i < n and not _ref_starts_token(text[i]):
            i += 1
        tokens.append(Token(TokenKind.GARBAGE, text[start:i], (start, i)))
    return tokens


# Every operator and alias, keywords and near-keywords, ASCII digits and ".",
# the characters that are no token alone, brackets, quotes and commas, the six
# whitespace characters and four that are not whitespace to the tokenizer,
# identifier pieces (including ones that case-folding would widen), and
# non-ASCII digits and letters.
_TOKEN_PIECES = ["<", "<=", ">", ">=", "==", "!=", "=", "≤", "≥", "≠", "+", "-", "*", "/",
                 "(", ")", "&&", "||", "∧", "∨", "and", "OR", "anda", "And", "oR",
                 *"0123456789", ".", "!", "&", "|", "[", "]", "{", "}", "'", '"', ",",
                 *_REF_WHITESPACE, "\x1c", "\x85", "\xa0", "\u2028",
                 "x", "_", "K", "Z", "ſ", "\u212a", "¹", "é", "٣"]


class TestTokenizeAgainstReference:
    @given(st.lists(st.sampled_from(_TOKEN_PIECES), max_size=40).map("".join))
    @settings(max_examples=2000, deadline=None)
    def test_same_tokens_as_the_character_loop(self, text):
        assert tokenize(text) == _ref_tokenize(text)

    def test_edge_cases(self):
        for text in ["", "   ", "x < 1 \t\n", "anda < 1", "1.5.2", "1.", ".5", "!!=", "&&&",
                     "|||", "a¹b", "x<=-2", "[[('a')]]", "é٣é < ¹"]:
            assert tokenize(text) == _ref_tokenize(text), text

    def test_trailing_whitespace_is_skipped_in_one_step(self):
        # A scan that retried every trailing position would take about a
        # minute here; one pass takes well under a millisecond.
        text = "x < 1" + " \t\n" * 7000
        start = time.perf_counter()
        tokens = tokenize(text)
        assert time.perf_counter() - start < 1.0
        assert tokens == _ref_tokenize(text)


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

    @pytest.mark.parametrize("text, position", [("(a < 1 or b < 2) or c < 3", 1),
                                                ("((a < 1 and b < 2)) and c < 3", 2)])
    def test_group_nested_under_its_own_connective_rejected(self, text, position):
        with pytest.raises(ParseError, match="nested logical group") as exc:
            parse_rule(text)
        assert exc.value.position == position

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

    def test_infinite_constant_and_empty_groups_rejected_at_construction(self):
        with pytest.raises(GrammarError, match="constant must be finite, got inf"):
            Const(math.inf)
        with pytest.raises(GrammarError, match="conjunct needs at least one relation"):
            Conjunct(())
        with pytest.raises(GrammarError, match="rule needs at least one disjunct"):
            RuleAst(())

    def test_parse_relation_takes_exactly_one_relation(self):
        assert parse_relation("(a < -1)") == Relation(Var("a"), RelOp.LT, Const(-1.0))
        for text in ("(a < 1) and (b > 2)", "(a < 1) or (b > 2)", "0 < a < 1"):
            with pytest.raises(ParseError, match="expected a single relation"):
                parse_relation(text)


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


class TestPromptGrammar:
    def test_constant_production_admits_a_sign(self):
        # The parser reads "-" NUMBER as one constant, and prompts show
        # negative ranges and bindings, so the prompt's grammar says so too.
        assert 'constant = [ "-" ] , digits , [ "." , digits ] ;' in GRAMMAR_TEXT.splitlines()
        text = "(lane_offset > -1.5)"
        assert print_rule(parse_rule(text)) == text


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

    def test_odd_get_refuses_an_undeclared_name(self, odd):
        assert odd.get("dist_front").name == "dist_front"
        with pytest.raises(KeyError, match="headway"):
            odd.get("headway")


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
    return max(0, *(-Decimal(repr(x)).as_tuple().exponent for x in (v.min, v.step)))


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

    @pytest.mark.parametrize("lo,hi,step", [(0.05, 1.05, 0.1), (0.05, 1.0, 0.1),
                                            (-2.25, 3.0, 0.5), (1.125, 9.0, 2.5)])
    def test_min_with_more_decimals_than_the_step_stays_on_grid(self, lo, hi, step):
        values = OddVariable("v", lo, hi, step).grid_values()
        assert values[0] == lo and values == sorted(set(values))
        assert values[-1] <= hi

    def test_equality_hash_and_repr_are_the_fields(self):
        a = OddVariable("v", -1.0, 2.0, 0.05)
        b = OddVariable("v", -1.0, 2.0, 0.05)
        a.grid_values()
        assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
        assert repr(a) == "OddVariable(name='v', min=-1.0, max=2.0, step=0.05)"
        assert a != OddVariable("v", -1.0, 2.0, 0.1)


# ---------------------------------------------------------------------------
# Grammar corpus golden: the parse outcome and GC score of a fixed corpus of
# near-miss rule texts, recorded once and compared on every run.
# ---------------------------------------------------------------------------

CORPUS = Path(__file__).parent / "golden" / "grammar" / "corpus.json"

_SOUP_WORDS = ["<", "<=", ">", ">=", "==", "!=", "=", "≤", "≥", "≠", "+", "-", "*", "/",
               "(", ")", "and", "or", "AND", "Or", "anda", "&&", "||", "∧", "∨", "!", "&", "|",
               "dist_front", "ego_speed", "lane_offset", "x", "_a1", "0", "3.5", "12.", ".5",
               "007", "1e5", "9" * 400, "[", "]", "'", '"', ",", "¹", "é", "٣", "#", "@"]
_SEPARATORS = ["", "", " ", " ", "\t", "\n"]
_EDIT_ALIASES = [(" and ", " && "), (" and ", " ∧ "), (" or ", " || "), (" or ", " ∨ "),
                 ("<=", "≤"), (">=", "≥"), ("!=", "≠"), ("==", "="), (" and ", " AND "),
                 ("(", "["), (")", ")")]


def _perturb(rng: random.Random, text: str) -> str:
    for _ in range(rng.randint(0, 3)):
        i = rng.randrange(len(text) + 1)
        roll = rng.random()
        if roll < 0.25 and text:
            text = text[:i] + text[i + 1:]
        elif roll < 0.5:
            text = text[:i] + rng.choice(_SOUP_WORDS + _SEPARATORS) + text[i:]
        elif roll < 0.7:
            old, new = rng.choice(_EDIT_ALIASES)
            text = text.replace(old, new, 1)
        elif roll < 0.85:
            j = rng.randrange(i, len(text) + 1)
            text = text[:j] + text[i:j] + text[j:]
        elif len(text) > i + 1:
            text = text[:i] + text[i + 1] + text[i] + text[i + 2:]
    return text


def corpus_texts(seed: int = 2026, n_rules: int = 1000, n_soup: int = 1000) -> list[str]:
    """Perturbed `random_rule` prints, then token soup; fixed per seed."""
    from ruleforge import odd_spec
    domain = odd_spec([("ego_speed", 0.0, 30.0, 0.5), ("dist_front", 0.0, 50.0, 0.2),
                       ("lane_offset", -2.0, 2.0, 0.1)])
    rng = random.Random(seed)
    texts = [_perturb(rng, print_rule(random_rule(rng.randrange(10**6), domain, 3, 3)))
             for _ in range(n_rules)]
    for _ in range(n_soup):
        words = [rng.choice(_SOUP_WORDS) for _ in range(rng.randint(0, 12))]
        texts.append("".join(w + rng.choice(_SEPARATORS) for w in words))
    return texts


def corpus_record(text: str) -> dict:
    """The printed rule or [message, position, sorted expected, token_index],
    and GC's [gc, n_viol, n_tok]."""
    from ruleforge import grammar_compliance
    try:
        parse = print_rule(parse_rule(text))
    except ParseError as exc:
        parse = [str(exc), exc.position, sorted(exc.expected), exc.token_index]
    report = grammar_compliance(text)
    return {"text": text, "parse": parse, "gc": [report.gc, report.n_viol, report.n_tok]}


class TestGrammarCorpus:
    def test_corpus_matches_golden(self):
        """Every corpus text parses to the recorded rule or fails with the
        recorded ParseError, and scores the recorded GC.

        The golden file was written before the tokenizer became one regex
        table, with ``PYTHONPATH=src python3 tests/test_grammar.py``, which
        runs ``corpus_record`` over ``corpus_texts()`` (seed 2026: 1000
        perturbed ``random_rule`` prints, then 1000 token-soup strings).
        Regenerate it only for an intended change to the rule language.
        """
        golden = json.loads(CORPUS.read_text(encoding="utf-8"))
        assert len(golden) == 2000
        for entry in golden:
            assert corpus_record(entry["text"]) == entry, entry["text"]


if __name__ == "__main__":
    CORPUS.parent.mkdir(parents=True, exist_ok=True)
    CORPUS.write_text(json.dumps([corpus_record(t) for t in corpus_texts()], indent=1,
                                 ensure_ascii=False) + "\n", encoding="utf-8")

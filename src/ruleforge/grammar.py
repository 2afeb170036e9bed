"""Rule DSL: AST types, tokenizer, parser, canonical printer, vocabulary checks.

A rule is a disjunction of conjunctions of relational predicates over
arithmetic expressions:

    rule     = disj ;
    disj     = conj , { ( "or" | "||" ) , conj } ;
    conj     = rel , { ( "and" | "&&" ) , rel } ;
    rel      = expr , relop , expr , { relop , expr } ;   (* chain = sugar *)
    expr     = term , { ( "+" | "-" ) , term } ;
    term     = primary , { ( "*" | "/" ) , primary } ;
    primary  = NUMBER | "-" NUMBER | IDENT | "(" , disj , ")" ;
    relop    = "<" | "<=" | ">" | ">=" | "==" | "!=" ;
    IDENT    = letter-or-underscore , { letter-digit-underscore } ;
    NUMBER   = digits , [ "." , digits ] ;

The tokenizer is one regex table, one named group per token kind; text it
cannot read becomes GARBAGE tokens, so it never fails. Logical keywords are
case-insensitive; the unicode forms for the logical and relational operators
are accepted as aliases on input. Chained comparisons (``0 < x < 5``) are
sugar for a conjunction of binary relations and are desugared at parse time;
the canonical printed form is always binary.
Precedence, loosest first: or, and, relational, additive, multiplicative.
"""

from __future__ import annotations

import math
import random
import re
import sys
from dataclasses import dataclass
from decimal import Decimal
from enum import Enum
from functools import cached_property
from typing import Callable


class RelOp(Enum):
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="
    EQ = "=="
    NE = "!="


class ArithOp(Enum):
    ADD = "+"
    SUB = "-"
    MUL = "*"
    DIV = "/"


#: Relational operators with a strict/non-strict counterpart.
STRICTNESS_SWAP = {RelOp.LT: RelOp.LE, RelOp.LE: RelOp.LT, RelOp.GT: RelOp.GE, RelOp.GE: RelOp.GT}

#: Mirror image of a relational operator (x op y  <=>  y mirror(op) x).
MIRROR = {
    RelOp.LT: RelOp.GT,
    RelOp.LE: RelOp.GE,
    RelOp.GT: RelOp.LT,
    RelOp.GE: RelOp.LE,
    RelOp.EQ: RelOp.EQ,
    RelOp.NE: RelOp.NE,
}

IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
KEYWORDS = {"and", "or"}


class GrammarError(ValueError):
    """Structurally invalid AST construction."""


@dataclass(frozen=True)
class Var:
    name: str

    def __post_init__(self):
        if not IDENT_RE.match(self.name) or self.name.lower() in KEYWORDS:
            raise GrammarError(f"invalid variable name: {self.name!r}")


@dataclass(frozen=True)
class Const:
    value: float

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise GrammarError(f"constant must be finite, got {self.value!r}")


@dataclass(frozen=True)
class BinOp:
    op: ArithOp
    left: "Expr"
    right: "Expr"


Expr = Var | Const | BinOp


@dataclass(frozen=True)
class Relation:
    lhs: Expr
    op: RelOp
    rhs: Expr


@dataclass(frozen=True)
class Conjunct:
    relations: tuple[Relation, ...]

    def __post_init__(self):
        if not self.relations:
            raise GrammarError("conjunct needs at least one relation")


@dataclass(frozen=True)
class RuleAst:
    disjuncts: tuple[Conjunct, ...]

    def __post_init__(self):
        if not self.disjuncts:
            raise GrammarError("rule needs at least one disjunct")

    def relations(self):
        """All relations with their (disjunct, relation) positions."""
        for d, conj in enumerate(self.disjuncts):
            for j, rel in enumerate(conj.relations):
                yield (d, j), rel

    def variables(self) -> set[str]:
        names: set[str] = set()
        for _, rel in self.relations():
            names |= expr_variables(rel.lhs) | expr_variables(rel.rhs)
        return names

    def __getstate__(self):
        # The fields only: what is cached on the AST (the compiled rule of
        # semantics.compile_rule) cannot be pickled and is rebuilt on use.
        return {"disjuncts": self.disjuncts}


def expr_variables(expr: Expr) -> set[str]:
    if isinstance(expr, Var):
        return {expr.name}
    if isinstance(expr, Const):
        return set()
    return expr_variables(expr.left) | expr_variables(expr.right)


def rule(*disjuncts) -> RuleAst:
    """Build a RuleAst from lists of relations, one list per disjunct."""
    return RuleAst(tuple(Conjunct(tuple(rels)) for rels in disjuncts))


class _Memo(dict):
    """A dict that makes a missing key's value with `make(key)` on first
    lookup, and keeps it."""
    __slots__ = ("make",)

    @classmethod
    def of(cls, make: Callable) -> _Memo:
        memo = cls()
        memo.make = make
        return memo

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


# ---------------------------------------------------------------------------
# ODD: the declared input domain, one bounded stepped range per variable.
# ---------------------------------------------------------------------------

# How far outside its declared range a value may lie and still be in the domain.
DOMAIN_TOL = 1e-9


@dataclass(frozen=True)
class OddVariable:
    name: str
    min: float
    max: float
    step: float

    def __post_init__(self):
        if not IDENT_RE.match(self.name) or self.name.lower() in KEYWORDS:
            raise GrammarError(f"invalid ODD variable name: {self.name!r}")
        if not (math.isfinite(self.min) and math.isfinite(self.max)) or self.min > self.max:
            raise GrammarError(f"bad range for {self.name}: [{self.min}, {self.max}]")
        if not (math.isfinite(self.step) and self.step > 0):
            raise GrammarError(f"step for {self.name} must be positive")
        # index_of finds every grid value's index only where 8 ulps at the range's ends are
        # finer than the step and the grid's decimal places (or DOMAIN_TOL, if they are finer)
        if 8 * math.ulp(max(abs(self.min), abs(self.max))) > min(
                self.step, max(10.0 ** -self.decimals, DOMAIN_TOL)):
            raise GrammarError(f"the step grid of {self.name} is finer than floats resolve "
                               f"over [{self.min}, {self.max}]")
        # Interned, as the names in compiled rule and label code are: a dict
        # lookup of one by the other then matches by identity.
        object.__setattr__(self, "name", sys.intern(self.name))

    # The grid facts are pure functions of the fields and are read for every
    # coordinate drawn: each is computed on first use and kept on the
    # instance (outside the fields, so equality, hash and repr ignore it).
    @cached_property
    def decimals(self) -> int:
        """Decimal places of min and step, the most a grid value min + k*step
        can have; grid values are rounded to this."""
        return max(0, *(-Decimal(repr(x)).as_tuple().exponent for x in (self.min, self.step)))

    @cached_property
    def grid_count(self) -> int:
        """Number of grid points in [min, max] at step spacing, none past max + DOMAIN_TOL."""
        count = int(math.floor((self.max - self.min) / self.step + 1e-9)) + 1
        return count - (self.grid_value(count - 1) > self.max + DOMAIN_TOL)

    def grid_value(self, k: int) -> float:
        """The grid value at index k: the memo's one float, shared by every caller."""
        return self.points[k]

    @cached_property
    def points(self) -> dict[int, float]:
        """Grid values by index: k's is rounded on first lookup and kept, so
        every caller of grid_value(k), each run drawn at k, each run loaded
        at it and each search probe of it, holds the one float. The memo
        gains an entry per distinct index the process looks up and drops
        none. A load's cells add none of their own: index_of looks up each
        distinct value's index anyway. So it holds at most grid_count
        entries, plus any index past the ends a caller asks for. n runs
        drawn over a grid much finer than n add about n entries per
        variable, of about 90 bytes."""
        return _Memo.of(self._round_point)

    def _round_point(self, k: int) -> float:
        # A method, not a lambda: the memo keeps it and must pickle.
        return round(self.min + k * self.step, self.decimals)

    def grid_values(self) -> list[float]:
        return list(map(self.points.__getitem__, range(self.grid_count)))

    def index_of(self, value: float) -> int | None:
        """The index k of the grid point within DOMAIN_TOL of value, if value is
        within DOMAIN_TOL of the range as the oracle label admits it; else None."""
        if not self.min - DOMAIN_TOL <= value <= self.max + DOMAIN_TOL:
            return None
        k = round((value - self.min) / self.step)
        return k if 0 <= k < self.grid_count and abs(value - self.points[k]) <= DOMAIN_TOL else None

    def index_range(self, lo: float, hi: float) -> range:
        """The indices of the grid values in [lo, hi], and at most one more at either end.
        lo and hi are first held within a step of the range, so that no quotient overflows."""
        below, above = self.min - self.step, self.max + self.step
        lo = below if lo < below else above if lo > above else lo
        hi = below if hi < below else above if hi > above else hi
        return range(max(0, math.floor((lo - self.min) / self.step)),
                     min(self.grid_count, math.ceil((hi - self.min) / self.step) + 1))


def exact_moves(x: dict[str, float], x_cf: dict[str, float], names) -> tuple[dict, float]:
    """x_cf - x for each of names and the sum of their magnitudes, exact to the reprs."""
    moves = {name: Decimal(repr(x_cf[name])) - Decimal(repr(x[name])) for name in names}
    return {name: float(d) for name, d in moves.items()}, float(sum(map(abs, moves.values())))


@dataclass(frozen=True)
class OddSpec:
    variables: tuple[OddVariable, ...]

    def __post_init__(self):
        names = [v.name for v in self.variables]
        if len(set(names)) != len(names):
            raise GrammarError("ODD variable names must be unique")

    @property
    def names(self) -> list[str]:
        return [v.name for v in self.variables]

    def get(self, name: str) -> OddVariable:
        for v in self.variables:
            if v.name == name:
                return v
        raise KeyError(name)

    def __contains__(self, name: str) -> bool:
        return any(v.name == name for v in self.variables)


def odd_spec(variables: list[tuple[str, float, float, float]]) -> OddSpec:
    return OddSpec(tuple(OddVariable(n, lo, hi, step) for n, lo, hi, step in variables))


# ---------------------------------------------------------------------------
# Tokenizer. Total: anything unrecognizable becomes a GARBAGE token run.
# ---------------------------------------------------------------------------


class TokenKind(Enum):
    IDENT = "IDENT"
    NUMBER = "NUMBER"
    RELOP = "RELOP"
    AROP = "AROP"
    LOGOP = "LOGOP"
    LPAREN = "LPAREN"
    RPAREN = "RPAREN"
    GARBAGE = "GARBAGE"


@dataclass(frozen=True)
class Token:
    kind: TokenKind
    lexeme: str
    span: tuple[int, int]  # character offsets [start, end)


#: Input aliases normalized to the canonical operator spelling.
NORMALIZED_LEXEMES = {"=": "==", "≤": "<=", "≥": ">=", "≠": "!=",
                      "&&": "and", "||": "or", "∧": "and", "∨": "or"}

# One named group per token kind, tried in order after any leading
# whitespace. Every non-space character starts some token, so the matches
# tile the text; the last match takes the trailing whitespace in one step.
# NUMBER and IDENT are ASCII only. GARBAGE is one character and then every
# character that cannot start a token, so `!`, `&` and `|` end a run.
_TOKEN_RE = re.compile(r"""[ \t\r\n\f\v]*(?:
    (?P<IDENT>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<NUMBER>[0-9]+(?:\.[0-9]+)?)
  | (?P<LPAREN>\()
  | (?P<RPAREN>\))
  | (?P<RELOP>[<>=!]=|[<>=≤≥≠])
  | (?P<LOGOP>&&|\|\||[∧∨])
  | (?P<AROP>[-+*/])
  | (?P<GARBAGE>[^ \t\r\n\f\v][^ \t\r\n\f\vA-Za-z_0-9()<>=≤≥≠!&|∧∨+*/-]*)
  | \Z)""", re.VERBOSE)


def tokenize(text: str) -> list[Token]:
    """Split rule text into tokens. Never fails; unknown runs become GARBAGE.

    Concatenating the lexemes and the skipped whitespace reconstructs the
    input exactly.
    """
    tokens: list[Token] = []
    for match in _TOKEN_RE.finditer(text):
        kind = match.lastgroup
        if kind is None:  # the end of the text, after any trailing whitespace
            break
        lexeme, span = match[kind], match.span(kind)
        if kind == "IDENT" and lexeme.lower() in KEYWORDS:
            kind = "LOGOP"
        tokens.append(Token(TokenKind[kind], lexeme, span))
    return tokens


# ---------------------------------------------------------------------------
# Parser. Recursive descent over the token list; chains desugar to
# conjunctions; parenthesized groups may be logical or arithmetic and are
# checked for shape when the tree is assembled.
# ---------------------------------------------------------------------------


class ParseError(ValueError):
    def __init__(self, message: str, position: int, expected: set[str], token_index: int):
        super().__init__(f"{message} at position {position} (expected {', '.join(sorted(expected))})")
        self.position = position
        self.expected = expected
        self.token_index = token_index


@dataclass(frozen=True)
class _Group:
    word: str  # "or" | "and"
    items: tuple
    span: tuple[int, int]


@dataclass(frozen=True)
class _Chain:
    operands: tuple  # k+1 expressions
    ops: tuple[RelOp, ...]  # k operators
    span: tuple[int, int]


class _Parser:
    def __init__(self, tokens: list[Token], text_len: int):
        self.tokens = tokens
        self.pos = 0
        self.text_len = text_len

    def _peek(self) -> Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _here(self) -> int:
        tok = self._peek()
        return tok.span[0] if tok is not None else self.text_len

    def _behind(self) -> int:
        return self.tokens[self.pos - 1].span[1] if self.pos > 0 else 0

    def _error(self, expected: set[str]):
        tok = self._peek()
        if tok is None:
            raise ParseError("unexpected end of input", self.text_len, expected, len(self.tokens))
        raise ParseError(f"unexpected {tok.kind.value} {tok.lexeme!r}", tok.span[0], expected, self.pos)

    def _at_logop(self, word: str) -> bool:
        tok = self._peek()
        if tok is None or tok.kind is not TokenKind.LOGOP:
            return False
        return NORMALIZED_LEXEMES.get(tok.lexeme, tok.lexeme).lower() == word

    def parse_rule(self) -> RuleAst:
        node = self.parse_or()
        if self._peek() is not None:
            self._error({"end of input", "'and'", "'or'"})
        return _shape(node)

    def parse_or(self):
        return self._logical("or", self.parse_and)

    def parse_and(self):
        return self._logical("and", self.parse_cmp)

    def _logical(self, word: str, operand):
        start = self._here()
        items = [operand()]
        while self._at_logop(word):
            self.pos += 1
            items.append(operand())
        if len(items) == 1:
            return items[0]
        return _Group(word, tuple(items), (start, self._behind()))

    def parse_cmp(self):
        start = self._here()
        first = self.parse_add()
        operands, ops = [first], []
        while (tok := self._peek()) is not None and tok.kind is TokenKind.RELOP:
            self.pos += 1
            ops.append(RelOp(NORMALIZED_LEXEMES.get(tok.lexeme, tok.lexeme)))
            operands.append(self.parse_add())
        if not ops:
            return first
        for operand in operands:
            self._require_expr(operand, "relational operand")
        return _Chain(tuple(operands), tuple(ops), (start, self._behind()))

    def parse_add(self):
        return self._arithmetic("+-", self.parse_mul)

    def parse_mul(self):
        return self._arithmetic("*/", self.parse_primary)

    def _arithmetic(self, ops: str, operand):
        node = operand()
        while (tok := self._peek()) is not None and tok.kind is TokenKind.AROP and tok.lexeme in ops:
            self.pos += 1
            self._require_expr(node, "arithmetic operand")
            right = operand()
            self._require_expr(right, "arithmetic operand")
            node = BinOp(ArithOp(tok.lexeme), node, right)
        return node

    def parse_primary(self):
        tok = self._peek()
        if tok is None:
            self._error({"number", "identifier", "'('"})
        if tok.kind is TokenKind.NUMBER:
            self.pos += 1
            return self._literal(tok, 1.0)
        if tok.kind is TokenKind.AROP and tok.lexeme == "-":
            nxt = self.tokens[self.pos + 1] if self.pos + 1 < len(self.tokens) else None
            if nxt is not None and nxt.kind is TokenKind.NUMBER:
                self.pos += 2
                return self._literal(nxt, -1.0)
            self._error({"number"})
        if tok.kind is TokenKind.IDENT:
            self.pos += 1
            return Var(tok.lexeme)
        if tok.kind is TokenKind.LPAREN:
            self.pos += 1
            node = self.parse_or()
            closing = self._peek()
            if closing is None or closing.kind is not TokenKind.RPAREN:
                self._error({"')'"})
            self.pos += 1
            return node
        self._error({"number", "identifier", "'('"})

    def _literal(self, tok: Token, sign: float) -> Const:
        value = sign * float(tok.lexeme)
        if not math.isfinite(value):
            raise ParseError("number literal out of range", tok.span[0],
                             {"finite number"}, self.pos - 1)
        return Const(value)

    def _require_expr(self, node, context: str):
        if isinstance(node, (_Group, _Chain)):
            raise ParseError(f"logical group used as {context}", node.span[0],
                             {"arithmetic expression"}, self.pos)


def _shape(node) -> RuleAst:
    """Coerce a parse tree into disjunctive-over-conjunctive rule shape."""
    disjunct_nodes = node.items if isinstance(node, _Group) and node.word == "or" else (node,)
    disjuncts = []
    for dnode in disjunct_nodes:
        parts = dnode.items if isinstance(dnode, _Group) and dnode.word == "and" else (dnode,)
        relations: list[Relation] = []
        for part in parts:
            if isinstance(part, _Group):
                raise ParseError("nested logical group is not a relation", part.span[0],
                                 {"relation"}, -1)
            if isinstance(part, _Chain):
                for k, op in enumerate(part.ops):
                    relations.append(Relation(part.operands[k], op, part.operands[k + 1]))
            else:
                span = dnode.span if isinstance(dnode, (_Group, _Chain)) else (0, 0)
                raise ParseError("expected a relation, found a bare expression", span[0],
                                 {"relational operator"}, -1)
        disjuncts.append(Conjunct(tuple(relations)))
    return RuleAst(tuple(disjuncts))


def parse_rule(text: str) -> RuleAst:
    """Parse rule text into an AST, desugaring chained comparisons.

    Raises ParseError (with position and the expected-token set) on any
    malformed input, including garbage characters.
    """
    return parse_tokens(tokenize(text), len(text))


def parse_tokens(tokens: list[Token], text_len: int = 0) -> RuleAst:
    for idx, tok in enumerate(tokens):
        if tok.kind is TokenKind.GARBAGE:
            raise ParseError(f"unrecognized text {tok.lexeme!r}", tok.span[0], {"token"}, idx)
    return _Parser(tokens, text_len).parse_rule()


def parse_relation(text: str) -> Relation:
    """Parse a single binary relation (used to replay change-log fragments)."""
    ast = parse_rule(text)
    if len(ast.disjuncts) != 1 or len(ast.disjuncts[0].relations) != 1:
        raise ParseError("expected a single relation", 0, {"relation"}, -1)
    return ast.disjuncts[0].relations[0]


# ---------------------------------------------------------------------------
# Canonical printer.
# ---------------------------------------------------------------------------


def fmt_number(value: float) -> str:
    """Canonical decimal form: no exponent, no trailing zeros."""
    if value == int(value) and abs(value) < 1e16:
        return str(int(value))
    text = repr(value)
    if "e" in text or "E" in text:
        text = format(Decimal(text), "f")
    if "." in text:
        text = text.rstrip("0").rstrip(".")
    return text or "0"


#: Binding strength of the arithmetic operators.
_PRECEDENCE = {ArithOp.ADD: 1, ArithOp.SUB: 1, ArithOp.MUL: 2, ArithOp.DIV: 2}


def print_expr(expr: Expr, parent_prec: int = 0, var: Callable[[str], str] = str,
               const: Callable[[float], str] = fmt_number) -> str:
    """The expression with var(name) for each variable and const(value) for
    each constant, parenthesised only where left-to-right grouping at these
    precedences would differ from the AST's. The rule compiler prints its
    Python source with this same function."""
    if isinstance(expr, Var):
        return var(expr.name)
    if isinstance(expr, Const):
        return const(expr.value)
    prec = _PRECEDENCE[expr.op]
    left = print_expr(expr.left, prec, var, const)
    text = f"{left} {expr.op.value} {print_expr(expr.right, prec + 1, var, const)}"
    return f"({text})" if prec < parent_prec else text


def print_relation(rel: Relation) -> str:
    return f"({print_expr(rel.lhs)} {rel.op.value} {print_expr(rel.rhs)})"


def print_conjunct(conj: Conjunct, wrap: bool) -> str:
    text = " and ".join(print_relation(r) for r in conj.relations)
    return f"({text})" if wrap and len(conj.relations) > 1 else text


def print_rule(ast: RuleAst) -> str:
    """Deterministic canonical text: binary relations, each parenthesized."""
    many = len(ast.disjuncts) > 1
    return " or ".join(print_conjunct(c, wrap=many) for c in ast.disjuncts)


# ---------------------------------------------------------------------------
# Vocabulary checking against an ODD.
# ---------------------------------------------------------------------------


def direct_bound(rel: Relation) -> tuple[str, RelOp, float] | None:
    """(variable, op-with-variable-on-the-left, constant) for Var-vs-Const
    relations, or None for compound shapes."""
    if isinstance(rel.lhs, Var) and isinstance(rel.rhs, Const):
        return (rel.lhs.name, rel.op, rel.rhs.value)
    if isinstance(rel.lhs, Const) and isinstance(rel.rhs, Var):
        return (rel.rhs.name, MIRROR[rel.op], rel.lhs.value)
    return None


def check_vocabulary(ast: RuleAst, odd: OddSpec) -> list[str]:
    """One violation text per unknown variable occurrence ("UnknownVariable
    <name>") and per constant that is directly compared to a variable but
    lies outside that variable's range ("OutOfRangeBound <constant>").
    Compound arithmetic is not range-checked."""
    violations: list[str] = []
    for _, rel in ast.relations():
        for side in (rel.lhs, rel.rhs):
            for name in sorted(expr_variables(side)):
                if name not in odd:
                    violations.append(f"UnknownVariable {name}")
        bound = direct_bound(rel)
        if bound is not None:
            name, _, value = bound
            if name in odd:
                var = odd.get(name)
                if not (var.min <= value <= var.max):
                    violations.append(f"OutOfRangeBound {fmt_number(value)}")
    return violations


# ---------------------------------------------------------------------------
# Random rule generation (test corpus). Deterministic per seed; outputs are
# vocabulary-clean and round-trip through print/parse.
# ---------------------------------------------------------------------------

_COMPARE_OPS = [RelOp.LT, RelOp.LE, RelOp.GT, RelOp.GE, RelOp.EQ, RelOp.NE]


def _random_const(rng: random.Random, var: OddVariable) -> Const:
    return Const(var.grid_value(rng.randrange(var.grid_count)))


def _random_relation(rng: random.Random, odd: OddSpec) -> Relation:
    var = odd.variables[rng.randrange(len(odd.variables))]
    op = _COMPARE_OPS[rng.randrange(len(_COMPARE_OPS))]
    roll = rng.random()
    if roll < 0.70:
        lhs, rhs = Var(var.name), _random_const(rng, var)
    elif roll < 0.80:
        lhs, rhs = _random_const(rng, var), Var(var.name)
    elif roll < 0.90:
        other = odd.variables[rng.randrange(len(odd.variables))]
        lhs, rhs = Var(var.name), Var(other.name)
    else:
        # Compound arithmetic side; not range-checked by the vocabulary rules.
        other = odd.variables[rng.randrange(len(odd.variables))]
        aop = list(ArithOp)[rng.randrange(4)]
        lhs = BinOp(aop, Var(var.name), _random_const(rng, other))
        rhs = _random_const(rng, var)
    return Relation(lhs, op, rhs)


def random_rule(seed: int, odd: OddSpec, max_disjuncts: int, max_relations: int) -> RuleAst:
    if max_disjuncts < 1 or max_relations < 1:
        raise ValueError("limits must be >= 1")
    rng = random.Random(seed)
    disjuncts = []
    for _ in range(rng.randint(1, max_disjuncts)):
        relations = tuple(_random_relation(rng, odd) for _ in range(rng.randint(1, max_relations)))
        disjuncts.append(Conjunct(relations))
    return RuleAst(tuple(disjuncts))


#: Grammar rendering used in prompts and docs.
GRAMMAR_TEXT = """\
rule     = disj ;
disj     = conj , { "or" , conj } ;
conj     = rel , { "and" , rel } ;
rel      = expr , relop , expr ;
expr     = expr , ( "+" | "-" | "*" | "/" ) , expr | constant | variable ;
relop    = "<" | "<=" | ">" | ">=" | "==" | "!=" ;
variable = letter-or-underscore , { letter-digit-underscore } ;
constant = [ "-" ] , digits , [ "." , digits ] ;
Chained comparisons like (0 < x < 5) are accepted shorthand for
(0 < x) and (x < 5). Parentheses group."""

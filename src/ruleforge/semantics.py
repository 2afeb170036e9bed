"""Rule evaluation on input vectors and rule/outcome consistency accounting.

A rule carries a polarity: a pass rule asserts the Pass verdict wherever it
holds, a fail rule asserts Fail. Holding-but-wrong is Inconsistent; not
holding is Inconclusive and the observed outcome is ignored.

Every evaluation goes through one function per rule, generated from its AST
on first use (compile_rule). == and != hold within EPS_EQ; a division by
zero makes its relation false and appends "division by zero in <relation>"
to the diagnostics, in rule order; a variable missing from the input raises
UnboundVariable. The oracle's safe region is built the same way, once, into
a label that checks the domain first (compile_label) and itself raises
OutOfDomain, defined here, for a point outside it; a label given no domain
checks nothing before the rule. Constants never enter the
generated source, so rules that differ only in constants share one compiled
code object from a bounded table (_code): a refine compiles each rule shape
once, however many thresholds it tries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from types import CodeType
from typing import Callable, NamedTuple

from .grammar import ArithOp, BinOp, Expr, Relation, RelOp, RuleAst, print_expr, print_relation

#: The tolerance of == and != in every rule, the oracle's safe region included.
EPS_EQ = 1e-9


class Outcome(Enum):
    PASS = "Pass"
    FAIL = "Fail"


class Polarity(Enum):
    PASS_RULE = "pass"
    FAIL_RULE = "fail"

    @property
    def verdict(self) -> Outcome:
        return Outcome.PASS if self is Polarity.PASS_RULE else Outcome.FAIL


class LabeledRun(NamedTuple):
    """One run: its input vector and observed outcome. A named tuple that
    equals the plain tuple (x, y). Its constructor is a Python function, so
    a dataset load, which builds one run per row, calls tuple.__new__ on the
    class instead."""
    x: dict[str, float]
    y: Outcome


@dataclass(frozen=True)
class PolarizedRule:
    id: str
    polarity: Polarity
    ast: RuleAst


class UnboundVariable(KeyError):
    def __init__(self, name: str):
        super().__init__(name)
        self.name = name

    def __str__(self) -> str:
        return f"variable {self.name!r} is not bound by the input vector"


class EmptyDataset(ValueError):
    pass


class OutOfDomain(ValueError):
    """A point an oracle label refuses: it lacks a variable of the domain or
    lies outside its declared ranges."""


#: A compiled rule: holds(x, diagnostics) -> bool.
Holds = Callable[[dict[str, float], list[str] | None], bool]
#: A compiled oracle label: label(x) -> Outcome.
Label = Callable[[dict[str, float]], Outcome]
#: Domain bounds of a label: (name, lo, hi) per variable.
Bounds = tuple[tuple[str, float, float], ...]


def _has_division(expr: Expr) -> bool:
    return isinstance(expr, BinOp) and (expr.op is ArithOp.DIV or _has_division(expr.left)
                                        or _has_division(expr.right))


def _build(ast: RuleAst, bounds: Bounds | None = None) -> Holds | Label:
    """Generate and return the Python function of one rule: its
    holds(x, diag), or given bounds, the label(x) of compile_label. The
    source is compiled by _code, once per shape.

    Variables read x[name] (the name is a validated identifier, quoted with
    repr); constants, bounds and diagnostic texts are bound as named slots,
    never written into the source. Arithmetic is printed by
    grammar.print_expr, whose grouping is the AST's and Python's alike, so
    every float operation is the one the rule spells. The slots are
    parameters of a factory whose closures are the rule, so no reference
    cycle holds a dead rule's code."""
    slots: dict[str, object] = {"UnboundVariable": UnboundVariable, "eps": EPS_EQ}
    helpers: list[str] = []

    def slot(value) -> str:
        name = f"_k{len(slots)}"
        slots[name] = value
        return name

    def source(expr: Expr, parent_prec: int = 0) -> str:
        return print_expr(expr, parent_prec, lambda name: f"x[{name!r}]", slot)

    def relation(rel: Relation) -> str:
        if rel.op in (RelOp.EQ, RelOp.NE):
            cmp = "<=" if rel.op is RelOp.EQ else ">"
            test = f"abs({source(rel.lhs, 1)} - {source(rel.rhs, 2)}) {cmp} eps"
        else:
            test = f"{source(rel.lhs)} {rel.op.value} {source(rel.rhs)}"
        if not (_has_division(rel.lhs) or _has_division(rel.rhs)):
            return test
        # A zero divisor makes this relation false and records a diagnostic.
        name = f"_r{len(helpers)}"
        message = slot(f"division by zero in {print_relation(rel)}")
        helpers.append(f"    def {name}(x, diag):\n"
                       f"        try:\n"
                       f"            return {test}\n"
                       f"        except ZeroDivisionError:\n"
                       f"            if diag is not None:\n"
                       f"                diag.append({message})\n"
                       f"            return False\n")
        return f"{name}(x, diag)"

    body = " or ".join("(" + " and ".join(relation(rel) for rel in conj.relations) + ")"
                       for conj in ast.disjuncts)
    if bounds is None:
        name, params, guard, verdicts = "holds", "x, diag", "", ("True", "False")
    else:
        # The label keeps no diagnostics: its division helpers get diag=None.
        slots.update(OutOfDomain=OutOfDomain, PASS=Outcome.PASS, FAIL=Outcome.FAIL, diag=None)
        inside = " and ".join(f"{slot(lo)} <= x[{var!r}] <= {slot(hi)}"
                              for var, lo, hi in bounds)
        name, params, verdicts = "label", "x", ("PASS", "FAIL")
        refusal = 'raise OutOfDomain(f"input outside declared ranges: {x}")'
        guard = ("        try:\n"
                 f"            if not ({inside}):\n"
                 f"                {refusal}\n"
                 "        except KeyError:\n"
                 f"            {refusal} from None\n") if inside else ""
    source = (f"def make({', '.join(slots)}):\n" + "".join(helpers)
              + f"    def {name}({params}):\n" + guard
              + "        try:\n"
              + f"            return {verdicts[0]} if {body} else {verdicts[1]}\n"
                "        except KeyError as exc:\n"
                "            raise UnboundVariable(exc.args[0]) from None\n"
              + f"    return {name}\n")
    namespace: dict[str, object] = {}
    exec(_code(source, "<rule>" if bounds is None else "<label>"), namespace)
    return namespace.pop("make")(**slots)


#: How many generated sources keep their compiled code: a job sees a few
#: rule shapes, a whole test run thousands.
CODE_TABLE_SIZE = 256


@lru_cache(maxsize=CODE_TABLE_SIZE)
def _code(source: str, filename: str) -> CodeType:
    """The compiled code of one generated source, shared by every rule of
    its shape: rules that differ only in constants, bounds or diagnostic
    texts generate the same source and differ only in their slots."""
    return compile(source, filename, "exec")


def compile_rule(ast: RuleAst) -> Holds:
    """The rule as one function holds(x, diagnostics).

    Built on the first call for an AST object and kept on that object, so a
    later call is one attribute read: the AST is never hashed, and an AST
    of a shape already compiled compiles nothing. Relations short-circuit in
    rule order, equality holds within EPS_EQ, a division by zero makes its
    relation false and appends a diagnostic (when diagnostics is a list),
    and a missing binding raises UnboundVariable."""
    try:
        return ast._holds
    except AttributeError:
        holds = _build(ast)
        object.__setattr__(ast, "_holds", holds)  # RuleAst is frozen
        return holds


def compile_label(ast: RuleAst, bounds: Bounds) -> Label:
    """The safe region ast as one oracle label over a domain.

    label(x) raises OutOfDomain("input outside declared ranges: {x}") unless
    x binds every name of bounds within its [lo, hi] (NaN and infinities are
    outside), and then returns Outcome.PASS where the rule holds and
    Outcome.FAIL elsewhere, as compile_rule's function decides it. With no
    bounds there is no guard: a variable the rule reads and x lacks raises
    UnboundVariable. The guard and the rule are one generated function,
    compiled once per shape; nothing is kept on the AST."""
    return _build(ast, bounds)


def evaluate(ast: RuleAst, x: dict[str, float],
             diagnostics: list[str] | None = None) -> bool:
    """Disjunction over conjunctions of relations.

    Raises UnboundVariable if x misses a variable appearing in the rule.
    """
    return compile_rule(ast)(x, diagnostics)


@dataclass(frozen=True)
class DecisivenessReport:
    dg: float
    n: int
    n_mismatch: int
    mismatches: tuple[int, ...]  # run indices, in dataset order
    fully_inconclusive: bool
    diagnostics: tuple[str, ...] = field(default=())


def decisiveness(rule: PolarizedRule, dataset: list[LabeledRun]) -> DecisivenessReport:
    """dg = 1 - n_mismatch / n over the dataset.

    A rule that never holds scores dg = 1.0 by the formula; such rules are
    flagged fully_inconclusive so reports can call out vacuous refinements.
    """
    if not dataset:
        raise EmptyDataset("decisiveness needs a non-empty dataset")
    holds = compile_rule(rule.ast)
    verdict = rule.polarity.verdict
    diagnostics: list[str] = []
    mismatches = []
    definitive = 0
    for idx, run in enumerate(dataset):
        if holds(run.x, diagnostics):
            definitive += 1
            if run.y is not verdict:
                mismatches.append(idx)
    n = len(dataset)
    return DecisivenessReport(
        dg=1.0 - len(mismatches) / n,
        n=n,
        n_mismatch=len(mismatches),
        mismatches=tuple(mismatches),
        fully_inconclusive=definitive == 0,
        diagnostics=tuple(diagnostics),
    )

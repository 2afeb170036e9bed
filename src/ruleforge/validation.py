"""Candidate acceptance gates and the bounded refine-validate loop.

A candidate replaces its target only after it clears, in order: the
vocabulary whitelist, satisfiability of overlap with every opposite-polarity
rule (no point in the domain may trigger a pass rule and a fail rule at
once), strict reduction of the target's mismatch count, and preservation.
Rules classify runs independently of one another, so swapping the target
leaves every historical rule's verdicts unchanged and preservation reduces
to "no new inconsistencies": no run may become inconsistent under the
candidate that was not inconsistent under the target. The target and each
candidate are scored once, and every gate after the contradiction check
reads those two reports; the accepted outcome carries both decisiveness
scores, so no caller scores the rules again. A report's contradiction
verdict is the first non-Clear ContradictionResult, or an all-Clear one with
no opposing rule id.
Overlap checking is decided over the bounded domain box: a concrete witness
(dataset points first, then the step grid, then seeded grid sampling) flags
a contradiction; recursive interval-arithmetic subdivision proves clearance;
anything undecided within budget stays Unknown and is treated as a
rejection.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from enum import Enum

from .counterfactual import EvidenceFile, Oracle, SearchLimits, build_evidence
from .generation import Edit, GenerationFailure, RefinementContext, generate_candidate
from .grammar import (Const, Expr, GRAMMAR_TEXT, OddSpec, Relation, RelOp, RuleAst, Var,
                      check_vocabulary, print_rule)
from .semantics import (DEFAULT_EPS_EQ, DecisivenessReport, LabeledRun, PolarizedRule,
                        decisiveness, evaluate)


class ContradictionStatus(Enum):
    CLEAR = "Clear"
    FLAGGED = "Flagged"
    UNKNOWN = "Unknown"


@dataclass(frozen=True)
class ContradictionBudget:
    grid_cap: int = 100_000  # max deterministic grid probes
    subdivision_depth: int = 12
    samples: int = 10_000
    seed: int = 0


@dataclass(frozen=True)
class ContradictionResult:
    opposing_rule_id: str | None  # None for the all-Clear verdict of a report
    status: ContradictionStatus
    witness: dict[str, float] | None = None


class TargetNotInRuleset(ValueError):
    pass


# ---------------------------------------------------------------------------
# Interval arithmetic over a box: three-valued truth of rules.
# ---------------------------------------------------------------------------

_FULL_LINE = (-math.inf, math.inf, True)


def _interval(expr: Expr, box: dict[str, tuple[float, float]]) -> tuple[float, float, bool]:
    """(lo, hi, tainted): bounds of the expression over the box. tainted
    means a division by zero is possible inside, so no truth value may be
    concluded from the bounds."""
    if isinstance(expr, Const):
        return (expr.value, expr.value, False)
    if isinstance(expr, Var):
        lo, hi = box[expr.name]
        return (lo, hi, False)
    llo, lhi, ltaint = _interval(expr.left, box)
    rlo, rhi, rtaint = _interval(expr.right, box)
    if ltaint or rtaint:
        return _FULL_LINE
    op = expr.op.value
    if op == "+":
        return (llo + rlo, lhi + rhi, False)
    if op == "-":
        return (llo - rhi, lhi - rlo, False)
    if op == "*":
        products = [_safe_mul(a, b) for a in (llo, lhi) for b in (rlo, rhi)]
        return (min(products), max(products), False)
    if rlo <= 0 <= rhi:
        return _FULL_LINE
    quotients = [a / b for a in (llo, lhi) for b in (rlo, rhi)]
    return (min(quotients), max(quotients), False)


def _safe_mul(a: float, b: float) -> float:
    if a == 0 or b == 0:
        return 0.0
    return a * b


def _relation_truth(rel: Relation, box, eps_eq: float) -> bool | None:
    llo, lhi, ltaint = _interval(rel.lhs, box)
    rlo, rhi, rtaint = _interval(rel.rhs, box)
    if ltaint or rtaint:
        return None
    lo, hi = llo - rhi, lhi - rlo  # bounds of lhs - rhs
    if not (math.isfinite(lo) and math.isfinite(hi)):
        return None
    if rel.op is RelOp.LT:
        return True if hi < 0 else (False if lo >= 0 else None)
    if rel.op is RelOp.LE:
        return True if hi <= 0 else (False if lo > 0 else None)
    if rel.op is RelOp.GT:
        return True if lo > 0 else (False if hi <= 0 else None)
    if rel.op is RelOp.GE:
        return True if lo >= 0 else (False if hi < 0 else None)
    if rel.op is RelOp.EQ:
        return True if (-eps_eq <= lo and hi <= eps_eq) else (False if (lo > eps_eq or hi < -eps_eq) else None)
    # NE
    inner = True if (-eps_eq <= lo and hi <= eps_eq) else (False if (lo > eps_eq or hi < -eps_eq) else None)
    return None if inner is None else not inner


def _and3(values) -> bool | None:
    result: bool | None = True
    for v in values:
        if v is False:
            return False
        if v is None:
            result = None
    return result


def _or3(values) -> bool | None:
    result: bool | None = False
    for v in values:
        if v is True:
            return True
        if v is None:
            result = None
    return result


def _rule_truth(ast: RuleAst, box, eps_eq: float) -> bool | None:
    return _or3(_and3(_relation_truth(r, box, eps_eq) for r in conj.relations)
                for conj in ast.disjuncts)


def _grid_point_in_box(box, odd: OddSpec) -> dict[str, float] | None:
    point = {}
    for v in odd.variables:
        lo, hi = box[v.name]
        k_lo = max(0, math.ceil((lo - v.min) / v.step - 1e-9))
        k_hi = min(v.grid_count - 1, math.floor((hi - v.min) / v.step + 1e-9))
        if k_lo > k_hi:
            return None
        point[v.name] = v.grid_value(k_lo)
    return point


def _satisfies_both(a: RuleAst, b: RuleAst, x: dict[str, float], eps_eq: float) -> bool:
    return evaluate(a, x, eps_eq) and evaluate(b, x, eps_eq)


def _refute(a: RuleAst, b: RuleAst, box, odd: OddSpec, depth: int, eps_eq: float):
    """'refuted' | ('witness', point) | 'unknown' over the box."""
    truth = _and3((_rule_truth(a, box, eps_eq), _rule_truth(b, box, eps_eq)))
    if truth is False:
        return "refuted"
    if truth is True:
        point = _grid_point_in_box(box, odd)
        if point is not None and _satisfies_both(a, b, point, eps_eq):
            return ("witness", point)
        return "unknown"  # satisfiable off-grid; nothing reportable
    if depth <= 0:
        return "unknown"
    name, (lo, hi) = max(box.items(), key=lambda kv: kv[1][1] - kv[1][0])
    if hi - lo <= 0:
        return "unknown"
    mid = (lo + hi) / 2
    results = []
    for sub in ((lo, mid), (mid, hi)):
        child = dict(box)
        child[name] = sub
        results.append(_refute(a, b, child, odd, depth - 1, eps_eq))
    for r in results:
        if isinstance(r, tuple):
            return r
    if all(r == "refuted" for r in results):
        return "refuted"
    return "unknown"


def _grid_strides(odd: OddSpec, cap: int) -> list[int]:
    counts = [v.grid_count for v in odd.variables]
    total = math.prod(counts)
    if total <= cap:
        return [1] * len(counts)
    per_dim = max(1, int(cap ** (1.0 / len(counts))))
    return [max(1, math.ceil(c / per_dim)) for c in counts]


def _coarse_grid(odd: OddSpec, cap: int):
    strides = _grid_strides(odd, cap)
    axes = [[v.grid_value(k) for k in range(0, v.grid_count, stride)]
            for v, stride in zip(odd.variables, strides)]

    def walk(i, binding):
        if i == len(axes):
            yield dict(binding)
            return
        name = odd.variables[i].name
        for value in axes[i]:
            binding[name] = value
            yield from walk(i + 1, binding)

    yield from walk(0, {})


def check_contradiction(candidate: PolarizedRule, opposing: list[PolarizedRule],
                        odd: OddSpec, budget: ContradictionBudget = ContradictionBudget(),
                        dataset: list[LabeledRun] | None = None,
                        eps_eq: float = DEFAULT_EPS_EQ) -> list[ContradictionResult]:
    """Per opposing rule: Flagged with a grid witness where both rules hold,
    Clear when interval subdivision refutes joint satisfiability over the
    whole domain box, Unknown otherwise."""
    results = []
    for other in opposing:
        if other.polarity is candidate.polarity:
            raise ValueError(f"rule {other.id!r} has the same polarity as the candidate")
        results.append(ContradictionResult(other.id, *_decide_pair(
            candidate.ast, other.ast, odd, budget, dataset, eps_eq)))
    return results


def _decide_pair(a: RuleAst, b: RuleAst, odd: OddSpec, budget: ContradictionBudget,
                 dataset, eps_eq) -> tuple[ContradictionStatus, dict[str, float] | None]:
    for run in dataset or []:
        if _satisfies_both(a, b, run.x, eps_eq):
            return (ContradictionStatus.FLAGGED, dict(run.x))
    for point in _coarse_grid(odd, budget.grid_cap):
        if _satisfies_both(a, b, point, eps_eq):
            return (ContradictionStatus.FLAGGED, point)
    rng = random.Random(budget.seed)
    for _ in range(budget.samples):
        point = {v.name: v.grid_value(rng.randrange(v.grid_count)) for v in odd.variables}
        if _satisfies_both(a, b, point, eps_eq):
            return (ContradictionStatus.FLAGGED, point)
    box = {v.name: (v.min, v.max) for v in odd.variables}
    outcome = _refute(a, b, box, odd, budget.subdivision_depth, eps_eq)
    if outcome == "refuted":
        return (ContradictionStatus.CLEAR, None)
    if isinstance(outcome, tuple):
        return (ContradictionStatus.FLAGGED, outcome[1])
    return (ContradictionStatus.UNKNOWN, None)


# ---------------------------------------------------------------------------
# Preservation check.
# ---------------------------------------------------------------------------


def check_preserved_consistency(before: DecisivenessReport,
                                after: DecisivenessReport) -> tuple[int, ...]:
    """Runs inconsistent under the candidate (after) but not under its target
    (before); the preservation gate passes when this is empty."""
    old = set(before.mismatches)
    return tuple(idx for idx in after.mismatches if idx not in old)


# ---------------------------------------------------------------------------
# The refinement loop.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ValidationReport:
    attempt: int
    accepted: bool
    failure_summary: str | None
    candidate_text: str | None = None
    contradiction: ContradictionResult | None = None  # first non-Clear, else all-Clear
    new_inconsistencies: int = 0
    mismatch_before: int | None = None
    mismatch_after: int | None = None
    diagnostics: tuple[str, ...] = field(default=())


@dataclass(frozen=True)
class RefinementOutcome:
    refined: RuleAst
    change_log: tuple[Edit, ...]
    explanation: str
    attempts: int
    reports: tuple[ValidationReport, ...]
    evidence: EvidenceFile
    dg_before: float | None = None  # decisiveness of the target
    dg_after: float | None = None  # decisiveness of the refined rule


class Exhausted(Exception):
    def __init__(self, reports: tuple[ValidationReport, ...]):
        super().__init__(f"no candidate accepted in {len(reports)} attempts")
        self.reports = reports


DEFAULT_MAX_ATTEMPTS = 5


def refine_loop(target: PolarizedRule, ruleset: list[PolarizedRule],
                dataset: list[LabeledRun], oracle: Oracle, odd: OddSpec, generator,
                max_attempts: int = DEFAULT_MAX_ATTEMPTS, *,
                eps_eq: float = DEFAULT_EPS_EQ,
                limits: SearchLimits = SearchLimits(),
                budget: ContradictionBudget = ContradictionBudget(),
                grammar_doc: str = GRAMMAR_TEXT) -> RefinementOutcome:
    """Generate-validate loop: evidence is built once, failed attempts feed
    their failure summaries back into the next prompt, and the first
    candidate to clear every gate is returned. Unknown contradiction status
    counts as a rejection. Raises TargetNotInRuleset before any work when no
    rule in ruleset has the target's id, and Exhausted after max_attempts
    rejections.
    """
    if max_attempts < 1:
        raise ValueError("max_attempts must be >= 1")
    if not any(r.id == target.id for r in ruleset):
        raise TargetNotInRuleset(f"no rule with id {target.id!r} in the rule set")
    evidence = build_evidence(target, dataset, oracle, odd, limits, eps_eq=eps_eq)
    historical = tuple(r for r in ruleset if r.id != target.id)
    opposing = [r for r in historical if r.polarity is not target.polarity]
    before = decisiveness(target, dataset, eps_eq)
    reports: list[ValidationReport] = []
    summaries: list[str] = []

    def reject(attempt: int, summary: str, **fields) -> None:
        reports.append(ValidationReport(attempt=attempt, accepted=False,
                                        failure_summary=summary, **fields))
        summaries.append(f"attempt {attempt}: {summary}")

    for attempt in range(1, max_attempts + 1):
        ctx = RefinementContext(
            grammar_doc=grammar_doc,
            target=target,
            historical=historical,
            evidence=evidence,
            failure_summary="\n".join(summaries) if summaries else None,
        )
        try:
            candidate = generate_candidate(generator, ctx)
        except GenerationFailure as exc:
            reject(attempt, exc.summary)
            continue
        candidate_text = print_rule(candidate.ast)
        violations = check_vocabulary(candidate.ast, odd)
        if violations:
            reject(attempt, "; ".join(str(v) for v in violations),
                   candidate_text=candidate_text)
            continue
        as_rule = PolarizedRule(target.id, target.polarity, candidate.ast)
        contradiction = next(
            (r for r in check_contradiction(as_rule, opposing, odd, budget, dataset, eps_eq)
             if r.status is not ContradictionStatus.CLEAR),
            ContradictionResult(None, ContradictionStatus.CLEAR))
        if contradiction.status is not ContradictionStatus.CLEAR:
            reject(attempt, f"contradiction {contradiction.status.value} against rule "
                            f"{contradiction.opposing_rule_id}"
                            + (f" at {contradiction.witness}" if contradiction.witness else ""),
                   candidate_text=candidate_text, contradiction=contradiction)
            continue
        after = decisiveness(as_rule, dataset, eps_eq)
        new_indices = check_preserved_consistency(before, after)
        scores = dict(candidate_text=candidate_text, contradiction=contradiction,
                      mismatch_before=before.n_mismatch, mismatch_after=after.n_mismatch,
                      new_inconsistencies=len(new_indices), diagnostics=after.diagnostics)
        if after.n_mismatch >= before.n_mismatch:
            reject(attempt, f"does not reduce mismatches ({before.n_mismatch} -> "
                            f"{after.n_mismatch})", **scores)
            continue
        if new_indices:
            reject(attempt, f"introduces {len(new_indices)} new inconsistencies "
                            f"at runs {list(new_indices)}", **scores)
            continue
        reports.append(ValidationReport(attempt=attempt, accepted=True, failure_summary=None,
                                        **scores))
        return RefinementOutcome(
            refined=candidate.ast,
            change_log=tuple(candidate.change_log),
            explanation=candidate.explanation,
            attempts=attempt,
            reports=tuple(reports),
            evidence=evidence,
            dg_before=before.dg,
            dg_after=after.dg,
        )
    raise Exhausted(tuple(reports))

"""Candidate acceptance gates and the bounded refine-validate loop.

A candidate replaces its target only after it clears, in order: the
vocabulary whitelist (its one copy, for every generator), satisfiability of
overlap with every opposite-polarity rule (no grid point of the domain may
trigger a pass rule and a fail rule at once), strict reduction of the
target's mismatch count, and preservation. Rules classify runs
independently of one another, so swapping the target leaves every
historical rule's verdicts unchanged and preservation reduces to "no new
inconsistencies": no run may become inconsistent under the candidate that
was not inconsistent under the target. The target and each candidate that
reaches the gates are scored in full once, here, and every gate after the
contradiction check reads those two reports; the accepted outcome carries
both decisiveness scores, so no caller scores the rules again. Its change
log is rebuilt here, once, by diff_rules from the target, whichever
generator wrote the rule. A report's contradiction verdict is the first
non-Clear ContradictionResult, or an all-Clear one with no opposing rule id.
Overlap is decided over the step grid of the domain, the one domain of the
gate: Clear means no grid point satisfies both rules, Flagged comes with a
point that does, and Unknown means NODE_BUDGET ran out. Each pair of
conjuncts, one from each rule, is one depth-first branch and bound over
boxes of grid indices: its direct bounds cut the root box, and interval
bounds over a box's grid values prove each other relation true, false or
neither there. A false one refutes the box, a true one is dropped from it,
and the box is split at an index midpoint of a variable of an undecided
one, or, with none to split, flags its least point when no relation is
left undecided or the pair's own relations, compiled, hold there.
The pairs are searched in order, each once, until one is Flagged. Only a
verdict that is not Clear reads the dataset: a run (a grid point, as the
loader reads it) where both rules hold flags them and is the witness in
place of the searched point. Unknown is treated as a rejection.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from enum import Enum

from .counterfactual import EvidenceFile, Oracle, SearchLimits, build_evidence
from .generation import (Edit, GenerationFailure, RefinementContext, diff_rules,
                         generate_candidate)
from .grammar import (Const, Expr, OddSpec, Relation, RelOp, RuleAst, Var, check_vocabulary,
                      direct_bound, expr_variables, print_rule, rule)
from .semantics import (EPS_EQ, DecisivenessReport, LabeledRun, PolarizedRule, compile_rule,
                        decisiveness)


class ContradictionStatus(Enum):
    CLEAR = "Clear"
    FLAGGED = "Flagged"
    UNKNOWN = "Unknown"


NODE_BUDGET = 10_000  # max index boxes searched per pair of conjuncts


@dataclass(frozen=True)
class ContradictionResult:
    opposing_rule_id: str | None  # None for the all-Clear verdict of a report
    status: ContradictionStatus
    witness: dict[str, float] | None = None


class TargetNotInRuleset(ValueError):
    pass


# ---------------------------------------------------------------------------
# Interval arithmetic over a box: three-valued truth of relations.
# ---------------------------------------------------------------------------

_FULL_LINE = (-math.inf, math.inf, True)


def _interval(expr: Expr, box: dict[str, tuple[float, float]]
              ) -> tuple[float, float, bool] | None:
    """(lo, hi, tainted): bounds of the expression over the box. tainted
    means a division by zero or a nan (inf * 0, inf / inf) is possible
    inside, so the bounds decide no truth value. None means some divisor
    is 0 everywhere in the box, so it divides by zero at every point."""
    if isinstance(expr, Const):
        return (expr.value, expr.value, False)
    if isinstance(expr, Var):
        lo, hi = box[expr.name]
        return (lo, hi, False)
    left, right = _interval(expr.left, box), _interval(expr.right, box)
    if left is None or right is None:
        return None
    (llo, lhi, ltaint), (rlo, rhi, rtaint) = left, right
    if ltaint or rtaint:
        return _FULL_LINE
    op = expr.op.value
    if op == "+":
        return (llo + rlo, lhi + rhi, False)
    if op == "-":
        if expr.left == expr.right and math.isfinite(llo) and math.isfinite(lhi):
            return (0.0, 0.0, False)  # e - e is exactly 0 wherever e is finite
        return (llo - rhi, lhi - rlo, False)
    if op == "/" and rlo <= 0 <= rhi:
        return None if rlo == rhi == 0 else _FULL_LINE
    corners = [a * b if op == "*" else a / b for a in (llo, lhi) for b in (rlo, rhi)]
    if any(map(math.isnan, corners)):
        return _FULL_LINE
    return (min(corners), max(corners), False)


def _relation_truth(rel: Relation, box) -> bool | None:
    if rel.lhs == rel.rhs and rel.op in (RelOp.LT, RelOp.GT, RelOp.NE):
        return False  # e < e, e > e and e != e hold nowhere, nor where e divides by zero
    left, right = _interval(rel.lhs, box), _interval(rel.rhs, box)
    if left is None or right is None:
        return False  # a division by zero makes the relation false
    (llo, lhi, ltaint), (rlo, rhi, rtaint) = left, right
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
    # The band abs(lhs - rhs) <= EPS_EQ, tested on the rounded difference as
    # the compiled relation tests it: its least and greatest are lo and hi.
    inner = (True if -EPS_EQ <= lo and hi <= EPS_EQ
             else (False if lo > EPS_EQ or hi < -EPS_EQ else None))
    if rel.op is RelOp.EQ or inner is None:
        return inner
    return not inner  # NE


# ---------------------------------------------------------------------------
# Branch and bound over boxes of grid indices.
# ---------------------------------------------------------------------------

#: x op c as a compiled direct bound tests it, either way round.
_CUT_TEST = {RelOp.LT: operator.lt, RelOp.LE: operator.le, RelOp.GT: operator.gt,
             RelOp.GE: operator.ge, RelOp.EQ: lambda x, c: abs(x - c) <= EPS_EQ}


def _cut_box(relations, odd: OddSpec):
    """(box, residual): the box {name: (lo, hi)} of grid indices lo <= k < hi,
    in ODD order, that the direct bounds among the relations cut out of the
    grid, and the relations that are no cut (!= and compound sides).

    Every index below near holds a value < c, and every one above it a value
    > c, each further from c than EPS_EQ; only near's values are tested, and
    those that pass are a prefix of near (< and <=), a suffix (> and >=) or a
    run within it (==)."""
    box = {v.name: (0, v.grid_count) for v in odd.variables}
    residual = []
    for rel in relations:
        bound = direct_bound(rel)
        if bound is None or bound[1] is RelOp.NE:
            residual.append(rel)
            continue
        name, op, c = bound
        v, test = odd.get(name), _CUT_TEST[op]
        near = v.index_range(c - EPS_EQ, c + EPS_EQ)
        hits = [k for k in near if test(v.points[k], c)]
        if op is RelOp.EQ:
            lo, hi = (hits[0], hits[-1] + 1) if hits else (0, 0)
        elif op in (RelOp.LT, RelOp.LE):
            lo, hi = 0, near.start + len(hits)
        else:
            lo, hi = near.stop - len(hits), v.grid_count
        box[name] = (max(box[name][0], lo), min(box[name][1], hi))
    return box, residual


def _undecided(relations, box, odd: OddSpec) -> list[Relation] | None:
    """The relations that interval bounds over the grid values of the index
    box do not prove true throughout it, or None when they prove one false."""
    hull = {v.name: (v.points[lo], v.points[hi - 1])
            for v, (lo, hi) in zip(odd.variables, box.values())}
    undecided = []
    for rel in relations:
        truth = _relation_truth(rel, hull)
        if truth is False:
            return None
        if truth is None:
            undecided.append(rel)
    return undecided


def _search(box, relations, odd: OddSpec):
    """Depth first over the box, each carrying down the relations still
    undecided (_undecided) over its parent: a refuted box is dropped; any
    other is split at the index midpoint of the first variable (in ODD
    order) of its undecided relations that spans more than one index,
    lower half first; with no such variable, the box's least point is
    found when no relation is left undecided, or else when the search's
    own relations, compiled once, hold there. So the first point found is
    the least in ODD order where the relations hold. (Flagged, point) for
    it, Clear when there is none, Unknown once NODE_BUDGET boxes were
    visited."""
    holds = None
    stack = [(box, relations)]
    for _ in range(NODE_BUDGET):
        if not stack:
            break
        node, undecided = stack.pop()
        undecided = _undecided(undecided, node, odd)
        if undecided is None:
            continue
        names = {n for rel in undecided for side in (rel.lhs, rel.rhs)
                 for n in expr_variables(side)}
        split = next((v.name for v in odd.variables
                      if v.name in names and node[v.name][1] - node[v.name][0] > 1), None)
        if split is None:
            point = {v.name: v.points[lo] for v, (lo, _) in zip(odd.variables, node.values())}
            if undecided:
                holds = holds or compile_rule(rule(relations))
            if not undecided or holds(point, None):
                return (ContradictionStatus.FLAGGED, point)
        else:
            lo, hi = node[split]
            mid = (lo + hi) // 2
            stack += (({**node, split: (mid, hi)}, undecided),
                      ({**node, split: (lo, mid)}, undecided))
    return (ContradictionStatus.UNKNOWN if stack else ContradictionStatus.CLEAR, None)


def check_contradiction(candidate: PolarizedRule, opposing: list[PolarizedRule], odd: OddSpec,
                        dataset: list[LabeledRun] | None = None) -> list[ContradictionResult]:
    """Per opposing rule, over the step grid of the domain: Flagged with a
    witness where both rules hold (a dataset run first, else the least grid
    point in ODD order of the first pair of conjuncts that has one), Clear
    when no grid point satisfies both, Unknown when the search of some pair
    of conjuncts, one from each rule, visits NODE_BUDGET boxes without
    deciding it.

    Each pair, in order, is cut to the box of grid indices its direct bounds
    allow and, unless that box is empty, searched there by its other
    relations (_search); the first Flagged pair ends the rule's search. Only
    a verdict that is not Clear reads the dataset: the first run where both
    rules hold, both compiled, flags them and replaces the search's point as
    witness. Runs passed in must be grid points, as load_dataset(path, odd)
    returns them, so no run can flag rules the search clears; a Clear
    verdict says nothing of a point off the grid."""
    results = []
    for other in opposing:
        if other.polarity is candidate.polarity:
            raise ValueError(f"rule {other.id!r} has the same polarity as the candidate")
        status, witness = ContradictionStatus.CLEAR, None
        for ca, cb in itertools.product(candidate.ast.disjuncts, other.ast.disjuncts):
            box, residual = _cut_box(ca.relations + cb.relations, odd)
            if any(lo >= hi for lo, hi in box.values()):
                continue
            found, witness = _search(box, residual, odd)
            if found is not ContradictionStatus.CLEAR:
                status = found
            if found is ContradictionStatus.FLAGGED:
                break
        if status is not ContradictionStatus.CLEAR and dataset:
            holds_a, holds_b = compile_rule(candidate.ast), compile_rule(other.ast)
            run = next((run for run in dataset if holds_a(run.x, None) and holds_b(run.x, None)),
                       None)
            if run is not None:
                status, witness = ContradictionStatus.FLAGGED, dict(run.x)
        results.append(ContradictionResult(other.id, status, witness))
    return results

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
    dg_before: float  # decisiveness of the target
    dg_after: float  # decisiveness of the refined rule


class Exhausted(Exception):
    def __init__(self, reports: tuple[ValidationReport, ...]):
        super().__init__(f"no candidate accepted in {len(reports)} attempts")
        self.reports = reports


DEFAULT_MAX_ATTEMPTS = 5


def refine_loop(target: PolarizedRule, ruleset: list[PolarizedRule],
                dataset: list[LabeledRun], oracle: Oracle, odd: OddSpec, generator,
                max_attempts: int = DEFAULT_MAX_ATTEMPTS, *,
                limits: SearchLimits = SearchLimits()) -> RefinementOutcome:
    """Generate-validate loop: the target is scored and its evidence built
    once, failed attempts feed their failure summaries back into the next
    prompt, and the first candidate to clear every gate is returned.
    Unknown contradiction status counts as a rejection. Raises
    TargetNotInRuleset before any work when no rule in ruleset has the
    target's id, and Exhausted after max_attempts rejections.
    """
    if max_attempts < 1:
        raise ValueError("max_attempts must be >= 1")
    if not any(r.id == target.id for r in ruleset):
        raise TargetNotInRuleset(f"no rule with id {target.id!r} in the rule set")
    before = decisiveness(target, dataset)
    evidence = build_evidence(target, dataset, oracle, odd, limits, mismatches=before.mismatches)
    historical = tuple(r for r in ruleset if r.id != target.id)
    opposing = [r for r in historical if r.polarity is not target.polarity]
    reports: list[ValidationReport] = []

    def reject(attempt: int, summary: str, **fields) -> None:
        reports.append(ValidationReport(attempt=attempt, accepted=False,
                                        failure_summary=summary, **fields))

    for attempt in range(1, max_attempts + 1):
        history = "\n".join(f"attempt {r.attempt}: {r.failure_summary}" for r in reports)
        ctx = RefinementContext(target, historical, evidence, before.n_mismatch, dataset, odd,
                                history or None)
        try:
            candidate = generate_candidate(generator, ctx)
        except GenerationFailure as exc:
            reject(attempt, exc.summary)
            continue
        candidate_text = print_rule(candidate.ast)
        violations = check_vocabulary(candidate.ast, odd)
        if violations:
            reject(attempt, "; ".join(violations), candidate_text=candidate_text)
            continue
        as_rule = PolarizedRule(target.id, target.polarity, candidate.ast)
        contradiction = next(
            (r for r in check_contradiction(as_rule, opposing, odd, dataset=dataset)
             if r.status is not ContradictionStatus.CLEAR),
            ContradictionResult(None, ContradictionStatus.CLEAR))
        if contradiction.status is not ContradictionStatus.CLEAR:
            reject(attempt, f"contradiction {contradiction.status.value} against rule "
                            f"{contradiction.opposing_rule_id}"
                            + (f" at {contradiction.witness}" if contradiction.witness else ""),
                   candidate_text=candidate_text, contradiction=contradiction)
            continue
        after = decisiveness(as_rule, dataset)
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
            change_log=diff_rules(target.ast, candidate.ast),
            explanation=candidate.explanation,
            attempts=attempt,
            reports=tuple(reports),
            evidence=evidence,
            dg_before=before.dg,
            dg_after=after.dg,
        )
    raise Exhausted(tuple(reports))

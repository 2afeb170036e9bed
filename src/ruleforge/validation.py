"""Candidate acceptance gates and the bounded refine-validate loop.

A candidate replaces its target only after it clears, in order: the
vocabulary whitelist (its one copy, for every generator), satisfiability of
overlap with every opposite-polarity rule (no point in the domain may
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
Overlap is decided per pair of conjuncts, one from each rule, over the box
that the pair's direct bounds cut out of the domain: an empty box, or one in
which interval subdivision refutes the pair's other relations, proves the
pair disjoint. The proofs come first, over the declared ranges and over the
ranges widened by DOMAIN_TOL that admit a run; when both prove every pair,
the rules are Clear without being compiled or reading a run. Otherwise a
dataset run where both rules hold flags them, then a step-grid point in the
box of a pair left unproven over the declared ranges. Unknown is treated as
a rejection.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from enum import Enum

from .counterfactual import EvidenceFile, Oracle, SearchLimits, build_evidence
from .generation import (Edit, GenerationFailure, RefinementContext, diff_rules,
                         generate_candidate)
from .grammar import (Const, Expr, OddSpec, Relation, RelOp, RuleAst, Var, check_vocabulary,
                      direct_bound, expr_variables, print_rule)
from .semantics import (EPS_EQ, DecisivenessReport, LabeledRun, PolarizedRule, compile_rule,
                        decisiveness)


class ContradictionStatus(Enum):
    CLEAR = "Clear"
    FLAGGED = "Flagged"
    UNKNOWN = "Unknown"


GRID_CAP = 100_000  # max grid probes per pair of conjuncts
SUBDIVISION_DEPTH = 12


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
    means a division by zero is possible inside, so no truth value may be
    concluded from the bounds. None means some divisor is 0 everywhere in
    the box, so the expression divides by zero at every point."""
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
    if op == "*":
        products = [_safe_mul(a, b) for a in (llo, lhi) for b in (rlo, rhi)]
        return (min(products), max(products), False)
    if rlo <= 0 <= rhi:
        return None if rlo == rhi == 0 else _FULL_LINE
    quotients = [a / b for a in (llo, lhi) for b in (rlo, rhi)]
    return (min(quotients), max(quotients), False)


def _safe_mul(a: float, b: float) -> float:
    if a == 0 or b == 0:
        return 0.0
    return a * b


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


def _eq_band(c: float) -> tuple[float, float]:
    """The least and greatest floats x with abs(x - c) <= EPS_EQ, the
    difference rounded as a compiled == rounds it. The rounded difference
    grows with x, so the floats between the two are those == admits."""
    ends = []
    for start, away in ((c - EPS_EQ, -math.inf), (c + EPS_EQ, math.inf)):
        x = start
        while abs(x - c) > EPS_EQ:
            x = math.nextafter(x, c)
        while abs(math.nextafter(x, away) - c) <= EPS_EQ:
            x = math.nextafter(x, away)
        ends.append(x)
    return ends[0], ends[1]


def _and3(values) -> bool | None:
    result: bool | None = True
    for v in values:
        if v is False:
            return False
        if v is None:
            result = None
    return result


def _refute(relations: list[Relation], box, depth: int) -> bool:
    """True when interval subdivision proves that the conjunction of the
    relations holds nowhere in the closed box."""
    truth = _and3(_relation_truth(r, box) for r in relations)
    if truth is not None:
        return not truth
    if depth <= 0 or not box:
        return False
    name, (lo, hi) = max(box.items(), key=lambda kv: kv[1][1] - kv[1][0])
    mid = (lo + hi) / 2
    return all(_refute(relations, {**box, name: sub}, depth - 1)
               for sub in ((lo, mid), (mid, hi)))


# ---------------------------------------------------------------------------
# Boxes cut out of the domain by direct bounds.
# ---------------------------------------------------------------------------


def _cut_box(relations, odd: OddSpec, widened: bool = False):
    """(box, residual): the box {name: (lower end, upper end)} that the
    direct bounds among the relations cut out of the domain (its declared
    ranges, or with widened the ranges odd.bounds widens by DOMAIN_TOL), and
    the relations that are no box (!= and compound sides). == is the closed
    band of the floats it admits, _eq_band(c).

    A lower end is (value, open) and an upper end (value, closed), so tuple
    order makes max()/min() pick the tighter end, x lies inside when
    lower < (x, True) and (x, False) < upper, and the box is empty when some
    lower >= upper."""
    ranges = odd.bounds if widened else [(v.name, v.min, v.max) for v in odd.variables]
    lower = {name: (lo, False) for name, lo, _ in ranges}
    upper = {name: (hi, True) for name, _, hi in ranges}
    residual = []
    for rel in relations:
        bound = direct_bound(rel)
        if bound is None or bound[1] is RelOp.NE:
            residual.append(rel)
            continue
        name, op, c = bound
        least, greatest = _eq_band(c) if op is RelOp.EQ else (c, c)
        if op in (RelOp.GT, RelOp.GE, RelOp.EQ):
            lower[name] = max(lower[name], (least, op is RelOp.GT))
        if op in (RelOp.LT, RelOp.LE, RelOp.EQ):
            upper[name] = min(upper[name], (greatest, op is not RelOp.LT))
    return {name: (lower[name], upper[name]) for name in lower}, residual


def _grid_in_box(box, odd: OddSpec):
    """The step-grid points inside the box, lowest first, strided per axis
    to at most GRID_CAP points."""
    axes = []
    for v in odd.variables:
        lo, hi = box[v.name]
        values = map(v.grid_value, v.index_range(lo[0], hi[0]))
        axes.append([x for x in values if lo < (x, True) and (x, False) < hi])
    if math.prod(map(len, axes)) > GRID_CAP:
        per_dim = max(1, int(GRID_CAP ** (1.0 / len(axes))))
        axes = [xs[::math.ceil(len(xs) / per_dim)] for xs in axes]
    for combo in itertools.product(*axes):
        yield dict(zip(odd.names, combo))


def check_contradiction(candidate: PolarizedRule, opposing: list[PolarizedRule], odd: OddSpec,
                        dataset: list[LabeledRun] | None = None) -> list[ContradictionResult]:
    """Per opposing rule: Flagged with a witness where both rules hold (a
    dataset run first, else a step-grid point), Clear when every pair of
    conjuncts, one from each rule, is proven disjoint, Unknown otherwise.

    A pair of conjuncts is disjoint when the box its direct bounds cut out
    of the domain is empty, or when interval subdivision refutes its other
    relations over that box. Each pair is proven first over the declared
    ranges, then, if every pair is, over the ranges widened by DOMAIN_TOL
    (odd.bounds, the ranges the oracle label admits); when both prove every
    pair, the result is Clear without compiling a rule or reading a run.
    Otherwise the dataset is scanned for the first run where both rules
    hold, and then the step grid of each pair left unproven over the
    declared ranges. Runs outside the widened ranges are outside the
    check's domain and are not to be passed: no proof covers them, so such
    a run may or may not flag a pair (the CLI loads refine_loop's runs
    through a grid check that refuses them).

    A pair comes out Unknown in three ways: the subdivision depth runs out,
    a possible division by zero taints the bounds, or the rules overlap only
    off the step grid (ego_speed == 0 against ego_speed > 0)."""
    results = []
    for other in opposing:
        if other.polarity is candidate.polarity:
            raise ValueError(f"rule {other.id!r} has the same polarity as the candidate")
        results.append(ContradictionResult(other.id, *_decide_pair(
            candidate.ast, other.ast, odd, dataset)))
    return results


def _unproven_box(relations, odd: OddSpec, widened: bool = False):
    """The box that the relations' direct bounds cut out of the domain, or
    None when the relations are proven to hold nowhere in it: the box is
    empty, or interval subdivision refutes the other relations over it."""
    box, residual = _cut_box(relations, odd, widened)
    if any(lo >= hi for lo, hi in box.values()):
        return None
    # cheaper than walking the box; splits only the residual's variables
    closure = {n: (box[n][0][0], box[n][1][0])
               for rel in residual for side in (rel.lhs, rel.rhs)
               for n in expr_variables(side)}
    return None if _refute(residual, closure, SUBDIVISION_DEPTH) else box


def _decide_pair(a: RuleAst, b: RuleAst, odd: OddSpec,
                 dataset) -> tuple[ContradictionStatus, dict[str, float] | None]:
    # Clear without a scan needs both proofs: the widened one covers every
    # run within the label's ranges, so no run can flag the rules, and the
    # declared one is what the dataset-first order would have rested on.
    pairs = [ca.relations + cb.relations for ca in a.disjuncts for cb in b.disjuncts]
    open_boxes = [box for box in (_unproven_box(rels, odd) for rels in pairs)
                  if box is not None]
    if not open_boxes and all(_unproven_box(rels, odd, widened=True) is None
                              for rels in pairs):
        return (ContradictionStatus.CLEAR, None)
    holds_a, holds_b = compile_rule(a), compile_rule(b)

    def both(x: dict[str, float]) -> bool:
        return holds_a(x, None) and holds_b(x, None)

    for run in dataset or []:
        if both(run.x):
            return (ContradictionStatus.FLAGGED, dict(run.x))
    for box in open_boxes:
        for point in _grid_in_box(box, odd):
            if both(point):
                return (ContradictionStatus.FLAGGED, point)
    return (ContradictionStatus.UNKNOWN if open_boxes else ContradictionStatus.CLEAR, None)


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

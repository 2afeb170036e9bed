"""Automated evaluation metrics for rule refinements.

* Decisiveness gain (dg): fraction of runs whose observed outcome the rule's
  verdict does not contradict (from semantics.decisiveness).
* Semantic validity (sv): fraction of predicates that are vocabulary- and
  range-grounded in the declared domain. Note this is a range check, not a
  justification check: an in-range bound counts as valid even when nothing
  in the data grounds it; such tightenings surface through the change
  minimality band instead.
* Grammar compliance (gc): 1 - n_viol / n_tok over the tokenized text.
  n_viol counts garbage tokens plus tokens the recovering parser discards.
  The recovery rule is this tool's definition: on a syntax error the parser
  drops exactly one token (the offending one) and retries, so n_viol is
  well defined and grows monotonically with corruption.
* Change minimality (cm): how conservative the rewrite is, banded from
  Optimal (core-preserving pruning and threshold shifts) down to Low
  (extensive rewrites or new variables). The banding rules are this tool's
  decision-tree surrogate for an expert rating; see change_minimality.
"""

from __future__ import annotations

from dataclasses import dataclass

from .grammar import (Const, MIRROR, OddSpec, ParseError, Relation, RelOp, RuleAst, Token,
                      TokenKind, Var, check_vocabulary, direct_bound, parse_tokens,
                      print_relation, rule, tokenize)
from .semantics import DecisivenessReport


@dataclass(frozen=True)
class SvReport:
    sv: float
    n_invalid: int
    n_pred: int
    invalid_predicates: tuple[str, ...]


def semantic_validity(ast: RuleAst, odd: OddSpec) -> SvReport:
    """A predicate is invalid if it references an unknown variable or
    directly compares a variable against a constant outside that variable's
    range, that is, if check_vocabulary flags it. (Operators outside the
    whitelist cannot be represented in a parsed rule, so they never
    contribute here.)"""
    relations = [rel for _, rel in ast.relations()]
    invalid = [print_relation(rel) for rel in relations if check_vocabulary(rule([rel]), odd)]
    n_pred = len(relations)
    return SvReport(sv=1.0 - len(invalid) / n_pred, n_invalid=len(invalid),
                    n_pred=n_pred, invalid_predicates=tuple(invalid))


@dataclass(frozen=True)
class GcReport:
    gc: float
    n_viol: int
    n_tok: int


def grammar_compliance(raw: str) -> GcReport:
    """Tokenize and reparse with one-token-discard recovery.

    Empty input is flagged by n_tok = 0 and scores gc = 0.
    """
    tokens = tokenize(raw)
    n_tok = len(tokens)
    if n_tok == 0:
        return GcReport(gc=0.0, n_viol=0, n_tok=0)
    working: list[Token] = [t for t in tokens if t.kind is not TokenKind.GARBAGE]
    n_viol = n_tok - len(working)  # garbage tokens
    while working:
        try:
            parse_tokens(working)
            break
        except ParseError as exc:
            index = exc.token_index
            if index < 0 or index >= len(working):
                index = len(working) - 1
            del working[index]
            n_viol += 1
    return GcReport(gc=1.0 - n_viol / n_tok, n_viol=n_viol, n_tok=n_tok)


# ---------------------------------------------------------------------------
# Change minimality.
# ---------------------------------------------------------------------------

CM_BANDS = {"Optimal": 1.0, "Conservative": 0.75, "OverConstrained": 0.45, "Low": 0.15}

_LOWER_OPS = {RelOp.GT, RelOp.GE}
_UPPER_OPS = {RelOp.LT, RelOp.LE}


def _normalize(rel: Relation) -> Relation:
    """Orient Const-vs-Var comparisons with the variable on the left so that
    5 < x and x > 5 align."""
    if isinstance(rel.lhs, Const) and isinstance(rel.rhs, Var):
        return Relation(rel.rhs, MIRROR[rel.op], rel.lhs)
    return rel


def _predicates(ast: RuleAst) -> list[Relation]:
    return [_normalize(rel) for _, rel in ast.relations()]


def _bound_directions(preds: list[Relation]) -> dict[str, dict[str, set[float]]]:
    """Per variable, the set of direct lower/upper bound constants."""
    bounds: dict[str, dict[str, set[float]]] = {}
    for rel in preds:
        info = direct_bound(rel)
        if info is None:
            continue
        name, op, value = info
        if op in _LOWER_OPS:
            side = "lower"
        elif op in _UPPER_OPS:
            side = "upper"
        else:
            continue
        bounds.setdefault(name, {"lower": set(), "upper": set()})[side].add(value)
    return bounds


@dataclass(frozen=True)
class CmReport:
    cm: float
    band: str
    edit_stats: dict[str, int]


def change_minimality(original: RuleAst, refined: RuleAst) -> CmReport:
    """Greedy predicate alignment (exact, then variable+operator, then
    variable only) followed by band classification:

    * Low: new variables appear, or most original predicates are rewritten.
    * OverConstrained: a previously one-sided variable bound becomes
      two-sided while its original side also moved.
    * Conservative: bounds added on existing variables, or operator and
      threshold cleanup beyond the Optimal gate.
    * Optimal: only removals and threshold shifts, with at least two thirds
      of the refined predicates carried over unchanged.

    cm is the band midpoint nudged by 0.05 up or down on the unchanged
    fraction, clamped to [0, 1].
    """
    orig = _predicates(original)
    ref = _predicates(refined)
    orig_vars = original.variables()

    remaining_orig = list(orig)
    unchanged = 0
    threshold_shifted = 0
    operator_changed = 0
    added: list[Relation] = []

    def take(predicate) -> Relation | None:
        for i, rel in enumerate(remaining_orig):
            if predicate(rel):
                return remaining_orig.pop(i)
        return None

    for rel in ref:
        if take(lambda o: o == rel) is not None:
            unchanged += 1
            continue
        rb = direct_bound(rel)
        if rb is not None:
            match = take(lambda o: (db := direct_bound(o)) is not None
                         and db[0] == rb[0] and db[1] is rb[1])
            if match is not None:
                threshold_shifted += 1
                continue
            match = take(lambda o: (db := direct_bound(o)) is not None and db[0] == rb[0])
            if match is not None:
                operator_changed += 1
                continue
        added.append(rel)
    removed = len(remaining_orig)
    added_new_vars = sum(
        1 for rel in added
        if not rule([rel]).variables() <= orig_vars)
    added_existing = len(added) - added_new_vars
    rewritten = min(removed, len(added))
    removed_redundant = removed - rewritten

    n_orig, n_ref = len(orig), len(ref)
    touched_fraction = (threshold_shifted + operator_changed + rewritten) / n_orig
    unchanged_fraction = unchanged / n_ref

    if added_new_vars > 0:
        band = "Low"
    elif _over_constrained(orig, ref):
        band = "OverConstrained"
    elif touched_fraction > 0.5:
        band = "Low"
    elif added_existing > 0 or operator_changed > 0 or rewritten > 0:
        band = "Conservative"
    elif unchanged_fraction >= 2 / 3:
        band = "Optimal"
    else:
        band = "Conservative"
    cm = CM_BANDS[band] + (0.05 if unchanged_fraction >= 2 / 3 else -0.05)
    cm = min(1.0, max(0.0, cm))
    return CmReport(cm=cm, band=band, edit_stats={
        "unchanged": unchanged,
        "threshold_shifted": threshold_shifted,
        "operator_changed": operator_changed,
        "removed_redundant": removed_redundant,
        "added_existing_vars": added_existing,
        "added_new_vars": added_new_vars,
        "rewritten": rewritten,
        "n_original": n_orig,
        "n_refined": n_ref,
    })


def _over_constrained(orig: list[Relation], ref: list[Relation]) -> bool:
    """A one-sided bound became two-sided and the original side moved."""
    before = _bound_directions(orig)
    after = _bound_directions(ref)
    for name, sides in before.items():
        one_sided = bool(sides["lower"]) != bool(sides["upper"])
        if not one_sided or name not in after:
            continue
        now = after[name]
        if not (now["lower"] and now["upper"]):
            continue
        old_side = "lower" if sides["lower"] else "upper"
        if now[old_side] != sides[old_side]:
            return True
    return False


# ---------------------------------------------------------------------------
# Aggregate report.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MetricsReport:
    dg_before: float
    dg_after: float
    dg_gain: float
    sv: SvReport
    gc: GcReport
    cm: CmReport


def build_metrics_report(before: DecisivenessReport, after: DecisivenessReport,
                         refined: RuleAst, original: RuleAst, odd: OddSpec,
                         raw_text: str) -> MetricsReport:
    return MetricsReport(
        dg_before=before.dg,
        dg_after=after.dg,
        dg_gain=after.dg - before.dg,
        sv=semantic_validity(refined, odd),
        gc=grammar_compliance(raw_text),
        cm=change_minimality(original, refined),
    )


def metrics_table(report: MetricsReport, label: str = "refined") -> str:
    """Plain-text table with one row per run, mirroring the GC / SV / I / CM
    column layout. Interpretability is an expert judgment and is reported
    as n/a."""
    header = f"{'rule':<12} {'GC':>6} {'SV':>6} {'I':>6} {'CM':>6}  band"
    row = (f"{label:<12} {report.gc.gc:>6.2f} {report.sv.sv:>6.2f} {'n/a':>6} "
           f"{report.cm.cm:>6.2f}  {report.cm.band}")
    return header + "\n" + row

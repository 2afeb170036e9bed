"""Refinement candidate generation.

Three interchangeable generators produce candidate rewrites of an
inconsistent rule from counterfactual evidence:

* DeterministicGenerator enumerates single edits (threshold moves to the
  midpoint between a mismatching input and its counterfactual, strictness
  swaps, midpoint bounds on the perturbed feature, removals) and picks the
  one with the fewest remaining mismatches.
* LlmGenerator sends the assembled prompt to a chat-completion endpoint and
  runs the reply through strict parsing.
* MockGenerator replays scripted response texts through the same parsing
  path, for offline loop tests.

Generators propose and refine_loop decides. A generator reads the loop's
dataset and domain from the context it is given, and returns a rule and an
explanation only. The loop applies the vocabulary whitelist and every other
gate to each candidate, whichever generator wrote it, and rebuilds the change
log of the accepted rule with diff_rules, the one producer of change logs.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from decimal import Decimal
from enum import Enum

from .counterfactual import CounterfactualPair, EvidenceFile
from .grammar import (GRAMMAR_TEXT, Const, Conjunct, OddSpec, ParseError, Relation, RelOp,
                      RuleAst, STRICTNESS_SWAP, Var, direct_bound, fmt_number, parse_relation,
                      parse_rule, print_conjunct, print_relation, print_rule, rule)
from .semantics import LabeledRun, PolarizedRule, compile_rule

FORMAT_EXEMPLAR = "(0<ARG2<5) and (ARG1>0) or (8<ARG2<12)"


class EditKind(Enum):
    THRESHOLD_ADJUST = "ThresholdAdjust"
    OPERATOR_REPLACE = "OperatorReplace"
    ADD_CONJUNCT = "AddConjunct"
    REMOVE_CONJUNCT = "RemoveConjunct"
    ADD_DISJUNCT = "AddDisjunct"
    REMOVE_DISJUNCT = "RemoveDisjunct"


@dataclass(frozen=True)
class Edit:
    """One change-log entry. Paths index the rule as it stands when the edit
    is applied, so replaying the log in order reproduces the candidate."""
    kind: EditKind
    path: tuple[int, ...]
    before: str
    after: str


@dataclass(frozen=True)
class RefinementContext:
    target: PolarizedRule
    historical: tuple[PolarizedRule, ...]
    evidence: EvidenceFile
    mismatch_before: int  # the target's mismatch count over the dataset
    dataset: list[LabeledRun]  # the runs refine_loop scores and gates with
    odd: OddSpec  # the domain refine_loop gates with
    failure_summary: str | None = None

    def __post_init__(self):
        if any(r.id == self.target.id for r in self.historical):
            raise ValueError("target rule must not appear among historical rules")


@dataclass(frozen=True)
class RefinementCandidate:
    ast: RuleAst
    explanation: str


class GenerationFailure(Exception):
    def __init__(self, summary: str):
        super().__init__(summary)
        self.summary = summary


# ---------------------------------------------------------------------------
# Prompt assembly.
# ---------------------------------------------------------------------------


def _binding_text(x: dict[str, float], odd: OddSpec) -> str:
    parts = [f"{name}={fmt_number(x[name])}" for name in odd.names if name in x]
    return "(" + ", ".join(parts) + ")"


def build_prompt(ctx: RefinementContext) -> str:
    """Deterministic prompt text; two builds of the same context are
    byte-identical."""
    lines: list[str] = []
    lines.append("You refine safety operational rules. Work strictly inside the grammar below.")
    lines.append("")
    lines.append("Grammar:")
    lines.append(GRAMMAR_TEXT)
    lines.append("")
    lines.append("Allowed vocabulary (whitelist):")
    lines.append("- variables: " + ", ".join(
        f"{v.name} in [{fmt_number(v.min)}, {fmt_number(v.max)}]" for v in ctx.odd.variables))
    lines.append("- relational operators: < <= > >= == !=")
    lines.append("- logical operators: and or")
    lines.append("- arithmetic operators: + - * /")
    lines.append("")
    lines.append(f"Inconsistent rule ({ctx.target.polarity.value} rule, id {ctx.target.id}):")
    lines.append(print_rule(ctx.target.ast))
    lines.append("")
    lines.append("Historical rules to respect:")
    if ctx.historical:
        for r in ctx.historical:
            lines.append(f"- [{r.polarity.value}] {r.id}: {print_rule(r.ast)}")
    else:
        lines.append("- (none)")
    lines.append("")
    lines.append("Counterfactual evidence (observed outcome flips under a minimal perturbation):")
    for pair in ctx.evidence.pairs:
        delta = ", ".join(f"{k}={fmt_number(v)}" for k, v in pair.delta.items())
        lines.append(f"- x={_binding_text(pair.x, ctx.odd)} observed {pair.y.value}; "
                     f"x'={_binding_text(pair.x_cf, ctx.odd)} observed {pair.y_cf.value}; "
                     f"delta={{{delta}}}")
    lines.append("")
    lines.append("Format exemplar:")
    lines.append(FORMAT_EXEMPLAR)
    lines.append("")
    lines.append("Task: Return a refined rule in the grammar above that restores consistency "
                 "with the observed outcomes using minimal changes (threshold adjustments, "
                 "operator replacements, or adding/removing conjuncts or disjuncts). "
                 "Reply with exactly two labeled sections:")
    lines.append("Rule: <the refined rule on one line>")
    lines.append("Explanation: <short justification of each change>")
    if ctx.failure_summary:
        lines.append("")
        lines.append("Previous attempt failed validation:")
        lines.append(ctx.failure_summary)
        lines.append("Regenerate a corrected rule.")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Response parsing and bounded repair.
# ---------------------------------------------------------------------------

_FENCE_RE = re.compile(r"```[A-Za-z0-9_-]*\n?|```")
_TUPLE_FORM_RE = re.compile(r"\[\s*[\[(]|\(\s*['\"]")


def _strip_fences(text: str) -> str:
    return _FENCE_RE.sub("", text)


def _split_sections(text: str) -> tuple[str | None, str]:
    """(rule line, explanation) from labeled sections, else (None, '')."""
    rule_line: str | None = None
    explanation_lines: list[str] = []
    in_explanation = False
    for raw_line in text.splitlines():
        line = raw_line.strip()
        lower = line.lower()
        if lower.startswith("rule:"):
            rule_line = line[len("rule:"):].strip()
            in_explanation = False
        elif lower.startswith("explanation:"):
            explanation_lines.append(line[len("explanation:"):].strip())
            in_explanation = True
        elif in_explanation:
            explanation_lines.append(line)
    explanation = "\n".join(l for l in explanation_lines if l).strip()
    return rule_line, explanation


def parse_candidate_response(raw: str) -> RefinementCandidate:
    """Strict parse of a generator reply with a single bounded repair pass.

    Repairs: markdown code fences are stripped and prose around the rule
    line is trimmed. List/tuple-shaped replies are structural violations and
    are rejected outright rather than fixed. Anything that still fails to
    parse raises GenerationFailure with a summary that feeds the next
    prompt. Names and bounds outside the domain are left to refine_loop's
    vocabulary gate, whose report keeps the rejected rule's text.
    """
    text = _strip_fences(raw).strip()
    if not text:
        raise GenerationFailure("empty response")
    rule_line, explanation = _split_sections(text)
    candidates = []
    if rule_line:
        candidates.append(rule_line)
    else:
        candidates.extend(line.strip() for line in text.splitlines() if line.strip())
    parsed: RuleAst | None = None
    parse_failure = "no rule line found"
    used_line = ""
    for line in candidates:
        if _TUPLE_FORM_RE.search(line):
            raise GenerationFailure("structural violation: list/tuple form")
        try:
            parsed = parse_rule(line)
            used_line = line
            break
        except ParseError as exc:
            parse_failure = f"parse error: {exc}"
    if parsed is None:
        raise GenerationFailure(parse_failure)
    if not explanation:
        remainder = [line.strip() for line in text.splitlines()
                     if line.strip() and line.strip() != used_line]
        explanation = "\n".join(remainder)
    return RefinementCandidate(ast=parsed, explanation=explanation)


# ---------------------------------------------------------------------------
# Change logs: diff two rules into the six edit kinds and replay them.
# ---------------------------------------------------------------------------

_INF = 10 ** 9


def _relation_edit_cost(old: Relation, new: Relation) -> int:
    if old == new:
        return 0
    ob, nb = direct_bound(old), direct_bound(new)
    if ob is not None and nb is not None and ob[0] == nb[0]:
        return 1  # threshold and/or operator change on the same variable
    return _INF  # unrelated; prefer remove + add


def _classify_substitution(old: Relation, new: Relation) -> EditKind:
    ob, nb = direct_bound(old), direct_bound(new)
    if ob is not None and nb is not None and ob[0] == nb[0] and ob[1] is nb[1]:
        return EditKind.THRESHOLD_ADJUST
    return EditKind.OPERATOR_REPLACE


def _align(old: list, new: list, sub_cost) -> list[tuple[str, int, int]]:
    """Minimal edit script between two sequences: ops are
    ('keep'|'sub'|'del'|'ins', old_index, new_index)."""
    n, m = len(old), len(new)
    dist = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(1, n + 1):
        dist[i][0] = i
    for j in range(1, m + 1):
        dist[0][j] = j
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            cost = sub_cost(old[i - 1], new[j - 1])
            dist[i][j] = min(dist[i - 1][j] + 1, dist[i][j - 1] + 1, dist[i - 1][j - 1] + cost)
    ops: list[tuple[str, int, int]] = []
    i, j = n, m
    while i > 0 or j > 0:
        if i > 0 and j > 0:
            cost = sub_cost(old[i - 1], new[j - 1])
            if dist[i][j] == dist[i - 1][j - 1] + cost:
                ops.append(("keep" if cost == 0 else "sub", i - 1, j - 1))
                i, j = i - 1, j - 1
                continue
        if i > 0 and dist[i][j] == dist[i - 1][j] + 1:
            ops.append(("del", i - 1, -1))
            i -= 1
            continue
        ops.append(("ins", -1, j - 1))
        j -= 1
    ops.reverse()
    return ops


def _conjunct_cost(old: Conjunct, new: Conjunct) -> int:
    if old == new:
        return 0
    return sum(1 if op == "sub" else (2 if op in ("del", "ins") else 0)
               for op, _, _ in _align(list(old.relations), list(new.relations), _relation_edit_cost))


def diff_rules(original: RuleAst, refined: RuleAst) -> tuple[Edit, ...]:
    """Edit script turning original into refined, using only the six allowed
    edit kinds. apply_edits(original, diff_rules(original, refined)) equals
    refined exactly."""
    edits: list[Edit] = []
    disjunct_ops = _align(list(original.disjuncts), list(refined.disjuncts), _conjunct_cost)
    d = 0  # disjunct index in the evolving rule
    for op, oi, ni in disjunct_ops:
        if op == "keep":
            d += 1
        elif op == "del":
            edits.append(Edit(EditKind.REMOVE_DISJUNCT, (d,),
                              print_conjunct(original.disjuncts[oi], wrap=False), ""))
        elif op == "ins":
            edits.append(Edit(EditKind.ADD_DISJUNCT, (d,), "",
                              print_conjunct(refined.disjuncts[ni], wrap=False)))
            d += 1
        else:  # sub: relation-level edits inside disjunct d
            rel_ops = _align(list(original.disjuncts[oi].relations),
                             list(refined.disjuncts[ni].relations), _relation_edit_cost)
            j = 0
            for rop, roi, rni in rel_ops:
                old_rel = original.disjuncts[oi].relations[roi] if roi >= 0 else None
                new_rel = refined.disjuncts[ni].relations[rni] if rni >= 0 else None
                if rop == "keep":
                    j += 1
                elif rop == "del":
                    edits.append(Edit(EditKind.REMOVE_CONJUNCT, (d, j),
                                      print_relation(old_rel), ""))
                elif rop == "ins":
                    edits.append(Edit(EditKind.ADD_CONJUNCT, (d, j), "",
                                      print_relation(new_rel)))
                    j += 1
                else:
                    edits.append(Edit(_classify_substitution(old_rel, new_rel), (d, j),
                                      print_relation(old_rel), print_relation(new_rel)))
                    j += 1
            d += 1
    return tuple(edits)


def apply_edits(original: RuleAst, edits: tuple[Edit, ...]) -> RuleAst:
    """Replay a change log against a rule."""
    work: list[list[Relation]] = [list(c.relations) for c in original.disjuncts]
    for edit in edits:
        if edit.kind is EditKind.REMOVE_DISJUNCT:
            del work[edit.path[0]]
        elif edit.kind is EditKind.ADD_DISJUNCT:
            fragment = parse_rule(edit.after)
            if len(fragment.disjuncts) != 1:
                raise ValueError(f"disjunct fragment is not a single conjunct: {edit.after!r}")
            work.insert(edit.path[0], list(fragment.disjuncts[0].relations))
        elif edit.kind is EditKind.REMOVE_CONJUNCT:
            d, j = edit.path
            del work[d][j]
        elif edit.kind is EditKind.ADD_CONJUNCT:
            d, j = edit.path
            work[d].insert(j, parse_relation(edit.after))
        else:  # ThresholdAdjust / OperatorReplace replace the whole relation
            d, j = edit.path
            work[d][j] = parse_relation(edit.after)
    return rule(*work)


# ---------------------------------------------------------------------------
# Deterministic generator.
# ---------------------------------------------------------------------------


def _midpoint(a: float, b: float, decimals: int) -> float:
    mid = (Decimal(repr(a)) + Decimal(repr(b))) / 2
    return round(float(mid), decimals)


def _changed_features(pair: CounterfactualPair, odd: OddSpec) -> list[str]:
    return [name for name in odd.names if pair.delta.get(name)]


def _var_const_positions(ast: RuleAst, feature: str) -> list[tuple[int, int, Relation]]:
    positions = []
    for (d, j), rel in ast.relations():
        bound = direct_bound(rel)
        if bound is not None and bound[0] == feature:
            positions.append((d, j, rel))
    return positions


def _adjust_threshold(rel: Relation, value: float) -> Relation:
    if isinstance(rel.rhs, Const):
        return Relation(rel.lhs, rel.op, Const(value))
    return Relation(Const(value), rel.op, rel.rhs)


def _swap_strictness(rel: Relation) -> Relation | None:
    if rel.op not in STRICTNESS_SWAP:
        return None
    return Relation(rel.lhs, STRICTNESS_SWAP[rel.op], rel.rhs)


def enumerate_single_edits(target: RuleAst, evidence: EvidenceFile,
                           odd: OddSpec) -> list[RuleAst]:
    """All single-edit candidates in the fixed generation order: midpoint
    threshold moves, strictness swaps, midpoint bounds on the perturbed
    feature, then removals. Duplicates (same resulting rule) keep their
    first position; an edit already built once (same relation at the same
    position, or the same bound on the same disjunct) is skipped before its
    rule is built."""
    out: list[RuleAst] = []
    seen: set[str] = {print_rule(target)}
    built: set[tuple] = set()

    def add(d: int, relations: tuple[Relation, ...]):
        """Keep the target with disjunct d's relations replaced (none: removed)."""
        middle = (Conjunct(relations),) if relations else ()
        ast = RuleAst(target.disjuncts[:d] + middle + target.disjuncts[d + 1:])
        key = print_rule(ast)
        if key not in seen:
            seen.add(key)
            out.append(ast)

    moves = [
        (d, j, rel, feature, pair.x_cf[feature] < pair.x[feature],
         _midpoint(pair.x[feature], pair.x_cf[feature], odd.get(feature).decimals))
        for pair in evidence.pairs
        for feature in _changed_features(pair, odd)
        for d, j, rel in _var_const_positions(target, feature)
    ]
    for d, j, rel, feature, down, mid in moves:
        new_rel = _adjust_threshold(rel, mid)
        if new_rel != rel and ("move", d, j, new_rel) not in built:
            built.add(("move", d, j, new_rel))
            rels = target.disjuncts[d].relations
            add(d, rels[:j] + (new_rel,) + rels[j + 1:])
    for d, j, rel, feature, down, mid in moves:
        swapped = _swap_strictness(rel)
        if swapped is not None and ("swap", d, j) not in built:
            built.add(("swap", d, j))
            rels = target.disjuncts[d].relations
            add(d, rels[:j] + (swapped,) + rels[j + 1:])
    for d, j, rel, feature, down, mid in moves:
        new_rel = Relation(Var(feature), RelOp.LT if down else RelOp.GT, Const(mid))
        if ("bound", d, new_rel) in built or new_rel in target.disjuncts[d].relations:
            continue
        built.add(("bound", d, new_rel))
        add(d, target.disjuncts[d].relations + (new_rel,))
    for (d, j), rel in target.relations():
        rels = target.disjuncts[d].relations
        if len(rels) > 1:
            add(d, rels[:j] + rels[j + 1:])
    if len(target.disjuncts) > 1:
        for d in range(len(target.disjuncts)):
            add(d, ())
    return out


class DeterministicGenerator:
    """Offline generator: best single edit by (fewest mismatches, fewest
    edits, enumeration order). Fails when no edit strictly reduces the
    target's mismatch count (`mismatch_before`), over the context's dataset
    and domain, which are refine_loop's own.

    Only a run whose label differs from the target's verdict can mismatch,
    so candidates are counted over those runs alone. A later candidate wins
    only with fewer mismatches than the best so far, so each count stops at
    that best (at `mismatch_before` before any best exists), a candidate
    that reaches it is cut, and the search ends at a count of 0. Only the
    chosen candidate's count is exact; refine_loop scores it in full."""

    def generate(self, ctx: RefinementContext) -> RefinementCandidate:
        if not ctx.evidence.pairs:
            raise GenerationFailure("no counterfactual evidence pairs")
        target = ctx.target
        base = ctx.mismatch_before
        verdict = target.polarity.verdict
        wrong = [run.x for run in ctx.dataset if run.y is not verdict]
        cap, best = base, None
        for ast in enumerate_single_edits(target.ast, ctx.evidence, ctx.odd):
            if cap == 0:
                break
            holds, n_mismatch = compile_rule(ast), 0
            for x in wrong:
                if holds(x, None):
                    n_mismatch += 1
                    if n_mismatch == cap:
                        break
            else:
                cap, best = n_mismatch, ast
        if best is None:
            raise GenerationFailure("no improving edit")
        (edit,) = diff_rules(target.ast, best)
        explanation = (f"Applied {edit.kind.value} at {edit.path}: "
                       f"{edit.before or '(none)'} -> {edit.after or '(removed)'}; "
                       f"mismatches {base} -> {cap}.")
        return RefinementCandidate(ast=best, explanation=explanation)


# ---------------------------------------------------------------------------
# LLM-backed and scripted generators.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LlmConfig:
    base_url: str
    api_key: str
    model: str
    timeout: float = 60.0


@dataclass
class TranscriptEntry:
    prompt: str
    response: str


class LlmGenerator:
    """One blocking chat-completion call per candidate, temperature 0.

    Every prompt/response pair is kept in ``transcript`` for audit.
    """

    def __init__(self, config: LlmConfig):
        self.config = config
        self.transcript: list[TranscriptEntry] = []

    def generate(self, ctx: RefinementContext) -> RefinementCandidate:
        # Imported here so that only the llm path loads the HTTP stack.
        import http.client
        import json
        import urllib.request

        prompt = build_prompt(ctx)
        request = urllib.request.Request(
            self.config.base_url.rstrip("/") + "/chat/completions",
            data=json.dumps({
                "model": self.config.model,
                "messages": [{"role": "user", "content": prompt}],
                "temperature": 0,
            }).encode("utf-8"),
            headers={"Content-Type": "application/json",
                     "Authorization": f"Bearer {self.config.api_key}"},
            method="POST")
        # URLError (HTTPError, for status >= 400, included) and timeouts are OSErrors.
        try:
            with urllib.request.urlopen(request, timeout=self.config.timeout) as response:
                body = response.read()
        except (OSError, http.client.HTTPException) as exc:
            raise GenerationFailure(f"transport error: {exc}") from exc
        try:
            content = json.loads(body)["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            raise GenerationFailure(f"malformed backend response: {exc}") from exc
        if not isinstance(content, str):
            raise GenerationFailure(f"malformed backend response: content is {content!r}")
        self.transcript.append(TranscriptEntry(prompt=prompt, response=content))
        return parse_candidate_response(content)


class MockGenerator:
    """Scripted responses, consumed in order, through the strict parser;
    refine_loop's gates, the vocabulary whitelist first, judge each rule."""

    def __init__(self, responses: list[str]):
        self.responses = list(responses)
        self._cursor = 0

    def generate(self, ctx: RefinementContext) -> RefinementCandidate:
        if self._cursor >= len(self.responses):
            raise GenerationFailure("mock script exhausted")
        raw = self.responses[self._cursor]
        self._cursor += 1
        return parse_candidate_response(raw)


def generate_candidate(generator, ctx: RefinementContext) -> RefinementCandidate:
    """Dispatch to a generator's generate() method (kept as the documented
    single entry point)."""
    return generator.generate(ctx)

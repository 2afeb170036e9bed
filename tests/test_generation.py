import io
import json
import random
import urllib.error
import urllib.request
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ruleforge import (DeterministicGenerator, EditKind, EvidenceFile, Exhausted,
                       GenerationFailure, LabeledRun, LlmConfig, LlmGenerator, MockGenerator,
                       NoInconsistency, Oracle, Outcome, PolarizedRule, Polarity,
                       RefinementCandidate, RefinementContext, SearchLimits, apply_edits,
                       build_evidence, build_prompt, diff_rules, evaluate, generate_candidate,
                       make_oracle, odd_spec, parse_candidate_response, parse_rule, print_rule,
                       random_rule, refine_loop, search_counterfactual)
from ruleforge import generation
from ruleforge.generation import (FORMAT_EXEMPLAR, Edit, _adjust_threshold, _changed_features,
                                  _midpoint, _swap_strictness, _var_const_positions,
                                  enumerate_single_edits)
from ruleforge.grammar import (GRAMMAR_TEXT, Const, Relation, RelOp, Var, print_conjunct,
                               print_relation, rule)
from ruleforge.semantics import compile_rule, decisiveness

X1 = {"ego_speed": 8.0, "dist_front": 4.2, "lane_offset": 0.1}


@pytest.fixture(scope="module")
def x1_context(fixture42):
    oracle = make_oracle(fixture42.config)
    pair = search_counterfactual(X1, Outcome.FAIL, oracle, fixture42.config.odd, 20)
    evidence = EvidenceFile(rule_id=fixture42.baseline_rule.id,
                            rule_text=print_rule(fixture42.baseline_rule.ast),
                            dataset_ref="fixture", pairs=(pair,), unresolved=())
    return RefinementContext(target=fixture42.baseline_rule, historical=(), evidence=evidence,
                             mismatch_before=decisiveness(fixture42.baseline_rule,
                                                          fixture42.dataset).n_mismatch,
                             dataset=fixture42.dataset, odd=fixture42.config.odd)


class TestBuildPrompt:
    def test_first_attempt_lacks_failure_section(self, x1_context):
        prompt = build_prompt(x1_context)
        assert "Previous attempt failed" not in prompt
        assert GRAMMAR_TEXT in prompt
        assert FORMAT_EXEMPLAR in prompt
        assert "(dist_front < 5) and (ego_speed > 0)" in prompt
        assert "dist_front=-0.2" in prompt  # the evidence delta

    def test_failure_summary_verbatim(self, x1_context):
        import dataclasses
        ctx = dataclasses.replace(x1_context, failure_summary="out-of-vocabulary token ARG3")
        prompt = build_prompt(ctx)
        assert "out-of-vocabulary token ARG3" in prompt
        assert "Previous attempt failed" in prompt

    def test_byte_identical(self, x1_context):
        assert build_prompt(x1_context) == build_prompt(x1_context)

    def test_sections_in_order(self, x1_context):
        prompt = build_prompt(x1_context)
        anchors = ["Grammar:", "Allowed vocabulary", "Inconsistent rule",
                   "Historical rules", "Counterfactual evidence", "Format exemplar:", "Task:"]
        positions = [prompt.index(a) for a in anchors]
        assert positions == sorted(positions)

    def test_historical_rules_listed_in_rule_order(self, x1_context):
        import dataclasses
        historical = (PolarizedRule("far-0", Polarity.FAIL_RULE, parse_rule("(dist_front > 40)")),
                      PolarizedRule("stopped", Polarity.PASS_RULE,
                                    parse_rule("(ego_speed == 0) or (lane_offset<=-1.5)")))
        lines = build_prompt(dataclasses.replace(x1_context, historical=historical)).splitlines()
        start = lines.index("Historical rules to respect:")
        assert lines[start + 1:start + 4] == [
            "- [fail] far-0: (dist_front > 40)",
            "- [pass] stopped: (ego_speed == 0) or (lane_offset <= -1.5)",
            ""]
        assert "- (none)" not in lines

    def test_target_not_in_historical(self, fixture42, x1_context):
        with pytest.raises(ValueError):
            RefinementContext(target=fixture42.baseline_rule,
                              historical=(fixture42.baseline_rule,),
                              evidence=x1_context.evidence,
                              mismatch_before=x1_context.mismatch_before,
                              dataset=x1_context.dataset, odd=x1_context.odd)


class TestParseCandidateResponse:
    def test_fenced_code_block_repaired(self):
        raw = "```\nRule: (dist_front < 4.1) and (ego_speed > 0)\nExplanation: tightened\n```"
        result = parse_candidate_response(raw)
        assert print_rule(result.ast) == "(dist_front < 4.1) and (ego_speed > 0)"
        assert result.explanation == "tightened"

    def test_tuple_list_form_rejected(self):
        with pytest.raises(GenerationFailure) as excinfo:
            parse_candidate_response("[[('greater_than_func','ARG1','0')]]")
        assert excinfo.value.summary == "structural violation: list/tuple form"

    def test_clean_rule_with_explanation(self):
        raw = ("Rule: (dist_front < 4.1) and (ego_speed > 0)\n"
               "Explanation: Tightened the distance threshold toward the counterfactual\n"
               "boundary to exclude the failing neighborhood.")
        result = parse_candidate_response(raw)
        assert "Tightened the distance threshold" in result.explanation

    def test_prose_trimmed_without_labels(self):
        raw = ("Sure! Here is the refined rule.\n"
               "(dist_front < 4.1) and (ego_speed > 0)\n"
               "This keeps the speed condition untouched.")
        result = parse_candidate_response(raw)
        assert print_rule(result.ast) == "(dist_front < 4.1) and (ego_speed > 0)"

    # Names and bounds outside the domain parse; refine_loop's vocabulary
    # gate rejects them, and its report keeps the rejected rule's text.
    def test_out_of_vocabulary_rejected(self, fixture42):
        assert _first_report(fixture42, "Rule: (ARG3 > 1)") == (
            "UnknownVariable ARG3", "(ARG3 > 1)")

    def test_out_of_range_bound_rejected(self, fixture42):
        assert _first_report(fixture42, "Rule: (dist_front < 120)") == (
            "OutOfRangeBound 120", "(dist_front < 120)")

    def test_unparseable_rejected(self):
        with pytest.raises(GenerationFailure, match="^parse error: "):
            parse_candidate_response("I could not find a refinement.")

    def test_empty_rejected(self):
        with pytest.raises(GenerationFailure) as excinfo:
            parse_candidate_response("   \n")
        assert excinfo.value.summary == "empty response"


def _first_report(fixture, reply):
    """(failure summary, candidate text) of refine_loop's one attempt at a
    scripted reply on the reference fixture."""
    target = fixture.baseline_rule
    with pytest.raises(Exhausted) as excinfo:
        refine_loop(target, [target], fixture.dataset, make_oracle(fixture.config),
                    fixture.config.odd, MockGenerator([reply]), max_attempts=1)
    (report,) = excinfo.value.reports
    return report.failure_summary, report.candidate_text


class TestDeterministicGenerator:
    def test_worked_example_threshold(self, fixture42, x1_context):
        gen = DeterministicGenerator()
        candidate = generate_candidate(gen, x1_context)
        assert print_rule(candidate.ast) == "(dist_front < 4.1) and (ego_speed > 0)"
        assert [e.kind for e in diff_rules(fixture42.baseline_rule.ast, candidate.ast)] == [
            EditKind.THRESHOLD_ADJUST]
        assert candidate.explanation.startswith(
            "Applied ThresholdAdjust at (0, 0): (dist_front < 5) -> (dist_front < 4.1); "
            "mismatches ")

    def test_deterministic(self, fixture42, x1_context):
        gen = DeterministicGenerator()
        assert generate_candidate(gen, x1_context) == generate_candidate(gen, x1_context)

    def test_change_log_replays(self, fixture42, x1_context):
        gen = DeterministicGenerator()
        candidate = generate_candidate(gen, x1_context)
        (edit,) = diff_rules(fixture42.baseline_rule.ast, candidate.ast)
        assert apply_edits(fixture42.baseline_rule.ast, (edit,)) == candidate.ast
        assert candidate.explanation.startswith(f"Applied {edit.kind.value} at {edit.path}: "
                                                f"{edit.before} -> {edit.after}; ")

    def test_no_evidence_fails(self, fixture42, x1_context):
        import dataclasses
        empty = dataclasses.replace(x1_context.evidence, pairs=())
        ctx = dataclasses.replace(x1_context, evidence=empty)
        gen = DeterministicGenerator()
        with pytest.raises(GenerationFailure):
            generate_candidate(gen, ctx)

    def test_removal_edits_enumerated(self, arg_odd):
        target = parse_rule("(ARG2 > 3) and (ARG2 > 5)")
        pair_evidence = EvidenceFile(
            rule_id="r", rule_text=print_rule(target), dataset_ref="",
            pairs=(_pair({"ARG1": 1.0, "ARG2": 7.0}, {"ARG1": 1.0, "ARG2": 9.0},
                         {"ARG2": 2.0}),),
            unresolved=())
        candidates = enumerate_single_edits(target, pair_evidence, arg_odd)
        removals = [(print_rule(ast), edit.kind) for ast in candidates
                    for edit in diff_rules(target, ast)
                    if edit.kind is EditKind.REMOVE_CONJUNCT]
        assert ("(ARG2 > 5)", EditKind.REMOVE_CONJUNCT) in removals
        assert ("(ARG2 > 3)", EditKind.REMOVE_CONJUNCT) in removals

    def test_no_improving_edit(self, arg_odd):
        # compound-expression relations admit no single allowed edit; verified
        # below by an exhaustive sweep of the generator's own candidate space
        target_rule = PolarizedRule("sum", Polarity.PASS_RULE, parse_rule("(ARG1 + ARG2 > 5)"))
        oracle = Oracle(lambda x: Outcome.PASS if x["ARG1"] + x["ARG2"] <= 5 else Outcome.FAIL)
        data = [LabeledRun({"ARG1": 3.0, "ARG2": 4.0}, Outcome.FAIL),
                LabeledRun({"ARG1": 1.0, "ARG2": 2.0}, Outcome.PASS)]
        evidence = build_evidence(target_rule, data, oracle, arg_odd)
        assert evidence.pairs
        base = decisiveness(target_rule, data).n_mismatch
        swept = enumerate_single_edits(target_rule.ast, evidence, arg_odd)
        assert all(
            decisiveness(PolarizedRule("c", Polarity.PASS_RULE, ast), data).n_mismatch >= base
            for ast in swept)
        ctx = RefinementContext(target=target_rule, historical=(), evidence=evidence,
                                mismatch_before=base, dataset=data, odd=arg_odd)
        gen = DeterministicGenerator()
        with pytest.raises(GenerationFailure, match="no improving edit"):
            generate_candidate(gen, ctx)

    def test_phase_order_thresholds_first(self, fixture42, x1_context):
        target = fixture42.baseline_rule.ast
        candidates = enumerate_single_edits(target, x1_context.evidence, fixture42.config.odd)
        kinds = [edit.kind for ast in candidates for edit in diff_rules(target, ast)]
        assert len(kinds) == len(candidates)
        first_add = kinds.index(EditKind.ADD_CONJUNCT)
        assert EditKind.THRESHOLD_ADJUST in kinds[:first_add]
        assert all(k is not EditKind.THRESHOLD_ADJUST for k in kinds[first_add:])


def _pair(x, x_cf, delta):
    from ruleforge import CounterfactualPair
    l1 = sum(abs(v) for v in delta.values())
    return CounterfactualPair(x=x, y=Outcome.FAIL, x_cf=x_cf, y_cf=Outcome.PASS,
                              delta=delta, l1=l1, l1_steps=int(l1))


class TestChangeLog:
    def test_replay_on_random_rule_pairs(self, odd):
        for seed in range(200):
            original = random_rule(seed, odd, 3, 3)
            refined = random_rule(seed + 10_000, odd, 3, 3)
            edits = diff_rules(original, refined)
            assert apply_edits(original, edits) == refined
            assert all(e.kind in EditKind for e in edits)

    def test_every_enumerated_edit_replays(self, fixture42, evidence27):
        # random_rule targets with the fixture's evidence: each candidate's
        # diff is exactly the one edit the reference enumeration builds
        odd = fixture42.config.odd
        kinds = set()
        for seed in range(300):
            target = random_rule(seed, odd, 3, 3)
            for edit in _assert_diff_is_the_enumerated_edit(target, evidence27, odd):
                kinds.add(edit.kind)
        assert kinds >= {EditKind.THRESHOLD_ADJUST, EditKind.OPERATOR_REPLACE,
                         EditKind.ADD_CONJUNCT, EditKind.REMOVE_CONJUNCT,
                         EditKind.REMOVE_DISJUNCT}

    def test_identity_diff_is_empty(self, odd):
        ast = random_rule(5, odd, 2, 3)
        assert diff_rules(ast, ast) == ()

    def test_threshold_adjust_classified(self):
        a = parse_rule("(x < 5) and (y > 0)")
        b = parse_rule("(x < 4.1) and (y > 0)")
        edits = diff_rules(a, b)
        assert [e.kind for e in edits] == [EditKind.THRESHOLD_ADJUST]
        assert edits[0].path == (0, 0)
        assert edits[0].before == "(x < 5)" and edits[0].after == "(x < 4.1)"

    def test_operator_replace_classified(self):
        a = parse_rule("(x < 5)")
        b = parse_rule("(x <= 5)")
        edits = diff_rules(a, b)
        assert [e.kind for e in edits] == [EditKind.OPERATOR_REPLACE]

    def test_conjunct_add_remove(self):
        a = parse_rule("(x < 5) and (y > 0)")
        b = parse_rule("(x < 5)")
        assert [e.kind for e in diff_rules(a, b)] == [EditKind.REMOVE_CONJUNCT]
        assert [e.kind for e in diff_rules(b, a)] == [EditKind.ADD_CONJUNCT]

    def test_disjunct_add_remove(self):
        a = parse_rule("(x < 5) or (y > 0)")
        b = parse_rule("(x < 5)")
        assert [e.kind for e in diff_rules(a, b)] == [EditKind.REMOVE_DISJUNCT]
        assert [e.kind for e in diff_rules(b, a)] == [EditKind.ADD_DISJUNCT]

    def test_added_disjunct_of_two_disjuncts_refused(self):
        edit = Edit(EditKind.ADD_DISJUNCT, (1,), "", "(y > 0) or (y < -1)")
        with pytest.raises(ValueError, match="disjunct fragment is not a single conjunct: "
                                             r"'\(y > 0\) or \(y < -1\)'"):
            apply_edits(parse_rule("(x < 5)"), (edit,))


class TestMockGenerator:
    def test_scripted_sequence(self, fixture42):
        gen = MockGenerator(["Rule: (ARG3 > 1)",
                             "Rule: (dist_front < 4.1) and (ego_speed > 0)"])
        target = fixture42.baseline_rule
        outcome = refine_loop(target, [target], fixture42.dataset,
                              make_oracle(fixture42.config), fixture42.config.odd, gen)
        first, accepted = outcome.reports
        assert (first.failure_summary, first.candidate_text) == (
            "UnknownVariable ARG3", "(ARG3 > 1)")
        assert accepted.accepted and outcome.attempts == 2
        assert print_rule(outcome.refined) == "(dist_front < 4.1) and (ego_speed > 0)"

    def test_exhausted_script(self, x1_context):
        gen = MockGenerator([])
        with pytest.raises(GenerationFailure, match="mock script exhausted"):
            generate_candidate(gen, x1_context)


def _reply(content):
    return json.dumps({"choices": [{"message": {"content": content}}]}).encode("utf-8")


def _fake_urlopen(monkeypatch, *replies):
    """Replace urlopen with a fake that answers its calls in order, each
    with a body (bytes) or by raising an exception. Returns the list of
    (request, timeout) it was called with."""
    calls = []
    pending = list(replies)

    def fake_urlopen(request, timeout=None):
        calls.append((request, timeout))
        reply = pending.pop(0)
        if isinstance(reply, Exception):
            raise reply
        return io.BytesIO(reply)  # readable, and usable as a context manager

    monkeypatch.setattr(urllib.request, "urlopen", fake_urlopen)
    return calls


def _llm(fixture42, base_url="http://llm.example"):
    return LlmGenerator(LlmConfig(base_url, "key", "m", timeout=12.5))


class TestLlmGenerator:
    def test_parses_backend_reply(self, fixture42, x1_context, monkeypatch):
        _fake_urlopen(monkeypatch, _reply("Rule: (dist_front < 4.1) and (ego_speed > 0)\n"
                                          "Explanation: tightened"))
        gen = _llm(fixture42)
        candidate = generate_candidate(gen, x1_context)
        assert candidate == RefinementCandidate(
            ast=parse_rule("(dist_front < 4.1) and (ego_speed > 0)"), explanation="tightened")
        assert [e.kind for e in diff_rules(fixture42.baseline_rule.ast, candidate.ast)] == [
            EditKind.THRESHOLD_ADJUST]
        assert len(gen.transcript) == 1
        assert gen.transcript[0].response.startswith("Rule:")

    def test_request_sent(self, fixture42, x1_context, monkeypatch):
        calls = _fake_urlopen(monkeypatch, _reply("Rule: (dist_front < 4.1)"))
        generate_candidate(_llm(fixture42, "http://llm.example/v1/"), x1_context)
        [(request, timeout)] = calls
        assert request.full_url == "http://llm.example/v1/chat/completions"
        assert request.get_method() == "POST"
        assert request.get_header("Content-type") == "application/json"
        assert request.get_header("Authorization") == "Bearer key"
        assert timeout == 12.5
        payload = json.loads(request.data)
        assert payload == {"model": "m", "temperature": 0,
                           "messages": [{"role": "user",
                                         "content": build_prompt(x1_context)}]}

    def test_transport_error_is_generation_failure(self, fixture42, x1_context, monkeypatch):
        _fake_urlopen(monkeypatch, urllib.error.URLError("refused"))
        gen = _llm(fixture42)
        with pytest.raises(GenerationFailure, match="transport error"):
            generate_candidate(gen, x1_context)
        assert gen.transcript == []

    @pytest.mark.parametrize("error", [
        urllib.error.HTTPError("http://llm.example/chat/completions", 500,
                               "Internal Server Error", {}, None),
        TimeoutError("timed out"),
    ], ids=["http-500", "timeout"])
    def test_http_error_and_timeout_are_transport_errors(self, fixture42, x1_context,
                                                         monkeypatch, error):
        _fake_urlopen(monkeypatch, error)
        with pytest.raises(GenerationFailure, match="transport error"):
            generate_candidate(_llm(fixture42), x1_context)

    @pytest.mark.parametrize("body", [
        b"<html>busy</html>",
        json.dumps({"choices": []}).encode(),
        json.dumps([{"message": {"content": "Rule: (dist_front < 4.1)"}}]).encode(),
        _reply(None),
    ], ids=["not-json", "no-choices", "list-body", "null-content"])
    def test_malformed_reply_is_generation_failure(self, fixture42, x1_context, monkeypatch,
                                                   body):
        _fake_urlopen(monkeypatch, body)
        gen = _llm(fixture42)
        with pytest.raises(GenerationFailure, match="malformed backend response"):
            generate_candidate(gen, x1_context)
        assert gen.transcript == []

    def test_rejected_reply_is_generation_failure(self, fixture42, x1_context, monkeypatch):
        _fake_urlopen(monkeypatch, _reply("[[('gt','ARG1','0')]]"))
        gen = _llm(fixture42)
        with pytest.raises(GenerationFailure, match="structural violation"):
            generate_candidate(gen, x1_context)
        assert len(gen.transcript) == 1  # audit trail kept even for rejects

    def test_malformed_reply_feeds_the_next_attempt(self, fixture42, monkeypatch):
        calls = _fake_urlopen(monkeypatch, _reply(None),
                              _reply("Rule: (dist_front < 4.1) and (ego_speed > 0)"))
        outcome = refine_loop(fixture42.baseline_rule, [fixture42.baseline_rule],
                              fixture42.dataset, make_oracle(fixture42.config),
                              fixture42.config.odd, _llm(fixture42))
        assert outcome.attempts == 2
        assert outcome.reports[0].failure_summary.startswith("malformed backend response")
        second_prompt = json.loads(calls[1][0].data)["messages"][0]["content"]
        assert "attempt 1: malformed backend response" in second_prompt


# ---------------------------------------------------------------------------
# Capped candidate scoring against the full-decisiveness reference.
# ---------------------------------------------------------------------------

def _reference_single_edits(target, evidence, odd):
    """The enumeration that builds every edit before deduplicating by rule
    text, each with the Edit it applies: the reference for
    enumerate_single_edits and for diff_rules on its candidates."""
    from ruleforge.generation import (Edit, _adjust_threshold, _changed_features, _midpoint,
                                      _swap_strictness, _var_const_positions)
    from ruleforge.grammar import Const, Relation, RelOp, Var, print_conjunct, print_relation, rule

    def _replace_relation(ast, d, j, new_rel):
        work = [list(c.relations) for c in ast.disjuncts]
        work[d][j] = new_rel
        return rule(*work)

    out = []
    seen = {print_rule(target)}

    def add(ast, edit):
        key = print_rule(ast)
        if key not in seen:
            seen.add(key)
            out.append((ast, edit))

    pair_feature_rel = [
        (pair, feature, d, j, rel)
        for pair in evidence.pairs
        for feature in _changed_features(pair, odd)
        for d, j, rel in _var_const_positions(target, feature)
    ]
    for pair, feature, d, j, rel in pair_feature_rel:
        mid = _midpoint(pair.x[feature], pair.x_cf[feature], odd.get(feature).decimals)
        new_rel = _adjust_threshold(rel, mid)
        if new_rel != rel:
            add(_replace_relation(target, d, j, new_rel),
                Edit(EditKind.THRESHOLD_ADJUST, (d, j), print_relation(rel), print_relation(new_rel)))
    for pair, feature, d, j, rel in pair_feature_rel:
        swapped = _swap_strictness(rel)
        if swapped is not None:
            add(_replace_relation(target, d, j, swapped),
                Edit(EditKind.OPERATOR_REPLACE, (d, j), print_relation(rel), print_relation(swapped)))
    for pair, feature, d, j, rel in pair_feature_rel:
        mid = _midpoint(pair.x[feature], pair.x_cf[feature], odd.get(feature).decimals)
        op = RelOp.LT if pair.x_cf[feature] < pair.x[feature] else RelOp.GT
        new_rel = Relation(Var(feature), op, Const(mid))
        work = [list(c.relations) for c in target.disjuncts]
        if new_rel in work[d]:
            continue
        insert_at = len(work[d])
        work[d].append(new_rel)
        add(rule(*work),
            Edit(EditKind.ADD_CONJUNCT, (d, insert_at), "", print_relation(new_rel)))
    for (d, j), rel in target.relations():
        if len(target.disjuncts[d].relations) > 1:
            work = [list(c.relations) for c in target.disjuncts]
            del work[d][j]
            add(rule(*work),
                Edit(EditKind.REMOVE_CONJUNCT, (d, j), print_relation(rel), ""))
    if len(target.disjuncts) > 1:
        for d, conj in enumerate(target.disjuncts):
            work = [list(c.relations) for c in target.disjuncts]
            del work[d]
            add(rule(*work),
                Edit(EditKind.REMOVE_DISJUNCT, (d,), print_conjunct(conj, wrap=False), ""))
    return out


def _assert_diff_is_the_enumerated_edit(target, evidence, odd):
    """Every enumerated candidate's diff from the target is exactly the one
    Edit the reference enumeration built for it, and replays to it. Returns
    those edits."""
    reference = _reference_single_edits(target, evidence, odd)
    assert enumerate_single_edits(target, evidence, odd) == [ast for ast, _ in reference]
    for ast, edit in reference:
        assert diff_rules(target, ast) == (edit,)
        assert apply_edits(target, (edit,)) == ast
    return [edit for _, edit in reference]


def _reference_generate(dataset, odd, ctx):
    """Every candidate scored by a full decisiveness pass; the same key and
    texts as DeterministicGenerator.generate. Returns the candidate or the
    failure summary, and the full count of every candidate."""
    if not ctx.evidence.pairs:
        return "no counterfactual evidence pairs", []
    target = ctx.target
    base = ctx.mismatch_before
    candidates = _reference_single_edits(target.ast, ctx.evidence, odd)
    scores = [decisiveness(PolarizedRule(target.id, target.polarity, ast), dataset).n_mismatch
              for ast, _ in candidates]
    best = min(((n, 1, order) for order, n in enumerate(scores)), default=None)
    if best is None or best[0] >= base:
        return "no improving edit", scores
    ast, edit = candidates[best[2]]
    explanation = (f"Applied {edit.kind.value} at {edit.path}: "
                   f"{edit.before or '(none)'} -> {edit.after or '(removed)'}; "
                   f"mismatches {base} -> {best[0]}.")
    return RefinementCandidate(ast=ast, explanation=explanation), scores


_WORLD_DOMAINS = (
    odd_spec([("a", 0.0, 10.0, 1.0)]),
    odd_spec([("a", 0.0, 10.0, 1.0), ("b", -2.0, 2.0, 0.5)]),
    odd_spec([("a", 0.0, 4.0, 0.5), ("b", -1.0, 1.0, 0.25), ("c", 0.0, 30.0, 5.0)]),
)


def _small_world(seed):
    """A random oracle (safe region), a pass or fail target, 5-60 grid runs
    labelled by the oracle with about 10% of labels flipped, and the
    target's evidence; None when the target has no inconsistent run."""
    rng = random.Random(seed)
    odd = _WORLD_DOMAINS[rng.randrange(len(_WORLD_DOMAINS))]
    safe = random_rule(rng.randrange(10 ** 6), odd, 2, 2)
    polarity = rng.choice([Polarity.PASS_RULE, Polarity.FAIL_RULE])
    target = PolarizedRule("t", polarity, random_rule(rng.randrange(10 ** 6), odd, 2, 3))

    def label(x):
        return Outcome.PASS if evaluate(safe, x) else Outcome.FAIL

    data = []
    for _ in range(rng.randint(5, 60)):
        x = {v.name: v.grid_value(rng.randrange(v.grid_count)) for v in odd.variables}
        y = label(x)
        if rng.random() < 0.1:
            y = Outcome.FAIL if y is Outcome.PASS else Outcome.PASS
        data.append(LabeledRun(x, y))
    before = decisiveness(target, data)
    try:
        evidence = build_evidence(target, data, Oracle(label), odd, SearchLimits(6, 300),
                                  mismatches=before.mismatches)
    except NoInconsistency:
        return None
    return odd, data, RefinementContext(target=target, historical=(), evidence=evidence,
                                        mismatch_before=before.n_mismatch, dataset=data,
                                        odd=odd)


def _generate_or_summary(generator, ctx):
    try:
        return generator.generate(ctx)
    except GenerationFailure as exc:
        return exc.summary


class TestCappedScoring:
    @given(st.integers(min_value=0, max_value=10 ** 6))
    @settings(max_examples=150, deadline=None)
    @example(172)  # the best count stays above 0: later candidates are cut, not skipped
    def test_same_candidates_and_choice_as_full_scoring(self, seed):
        world = _small_world(seed)
        assume(world is not None)
        odd, data, ctx = world
        assert (enumerate_single_edits(ctx.target.ast, ctx.evidence, odd)
                == [ast for ast, _ in _reference_single_edits(ctx.target.ast, ctx.evidence, odd)])
        expected, _ = _reference_generate(data, odd, ctx)
        assert _generate_or_summary(DeterministicGenerator(), ctx) == expected

    def _counting_generator(self, monkeypatch):
        """A generator whose compiled candidates count their evaluations."""
        calls = []

        def counting_compile(ast):
            holds = compile_rule(ast)
            calls.append(0)
            slot = len(calls) - 1

            def counted(x, diag):
                calls[slot] += 1
                return holds(x, diag)
            return counted

        monkeypatch.setattr(generation, "compile_rule", counting_compile)
        return DeterministicGenerator(), calls

    def test_cap_cuts_without_ending_the_search(self, monkeypatch):
        odd, data, ctx = _small_world(179)
        expected, scores = _reference_generate(data, odd, ctx)
        best = min(scores)
        assert 0 < best < ctx.mismatch_before
        assert any(n > best for n in scores[scores.index(best) + 1:])
        generator, calls = self._counting_generator(monkeypatch)
        assert generator.generate(ctx) == expected
        assert len(calls) == len(scores)  # no count reached 0, so every candidate ran
        wrong = sum(run.y is not ctx.target.polarity.verdict for run in data)
        assert sum(calls) < len(scores) * wrong

    def test_search_ends_at_a_count_of_zero(self, fixture42, x1_context, monkeypatch):
        _, scores = _reference_generate(fixture42.dataset, fixture42.config.odd, x1_context)
        first_zero = scores.index(0)
        assert first_zero < len(scores) - 1
        generator, calls = self._counting_generator(monkeypatch)
        generator.generate(x1_context)
        assert len(calls) == first_zero + 1  # the candidates after it are never compiled


class TestEnumeratedEditsAreTheirDiffs:
    @given(st.integers(min_value=0, max_value=10 ** 6))
    @settings(max_examples=150, deadline=None)
    def test_random_worlds(self, seed):
        world = _small_world(seed)
        assume(world is not None)
        odd, _, ctx = world
        _assert_diff_is_the_enumerated_edit(ctx.target.ast, ctx.evidence, odd)


class _LibraryGenerator:
    """A generator written against the public contract alone: it returns a
    rule and an explanation, and no change log."""

    def __init__(self, text):
        self.text = text

    def generate(self, ctx):
        return RefinementCandidate(ast=parse_rule(self.text), explanation="library")


MULTI_EDIT_REPLY = ("Rule: (dist_front < 4.2) and (ego_speed > 0) and (lane_offset < 2)\n"
                    "Explanation: tightened the headway and bounded the lane offset")


class TestGeneratorContract:
    """Whatever produced the accepted rule, the outcome's change log is
    rebuilt by the loop and replays from the target to the refined rule."""

    @pytest.mark.parametrize("kind", ["local", "mock", "llm", "library"])
    def test_accepted_change_log_replays(self, fixture42, monkeypatch, kind):
        odd = fixture42.config.odd
        if kind == "local":
            generator = DeterministicGenerator()
        elif kind == "mock":
            generator = MockGenerator([MULTI_EDIT_REPLY])
        elif kind == "llm":
            _fake_urlopen(monkeypatch, _reply(MULTI_EDIT_REPLY))
            generator = _llm(fixture42)
        else:
            generator = _LibraryGenerator(MULTI_EDIT_REPLY.splitlines()[0][len("Rule: "):])
        target = fixture42.baseline_rule
        outcome = refine_loop(target, [target], fixture42.dataset, make_oracle(fixture42.config),
                              odd, generator)
        assert outcome.change_log
        assert outcome.change_log == diff_rules(target.ast, outcome.refined)
        assert apply_edits(target.ast, outcome.change_log) == outcome.refined
        if kind != "local":
            assert [e.kind for e in outcome.change_log] == [EditKind.ADD_DISJUNCT,
                                                            EditKind.REMOVE_DISJUNCT]


def test_readme_library_example_runs():
    """The fenced python block under "Library entry points" in README.md runs
    as written and repairs the fixture."""
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme[readme.index("## Library entry points"):]
    start = section.index("```python\n") + len("```python\n")
    namespace = {}
    exec(section[start:section.index("```", start)], namespace)
    assert namespace["outcome"].dg_after == 1.0

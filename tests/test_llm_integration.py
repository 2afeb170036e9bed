"""Optional live-backend check. Runs only when the RULEFORGE_LLM_* variables
point at a reachable chat-completion endpoint; everything else in the suite
stays offline."""

import os

import pytest

from ruleforge import (EvidenceFile, LlmConfig, LlmGenerator, Outcome, RefinementContext,
                       check_vocabulary, generate_candidate, make_oracle, make_reference_fixture,
                       print_rule, search_counterfactual)
from ruleforge.scenario import FIXTURE_MISMATCHES

REQUIRED = ("RULEFORGE_LLM_BASE_URL", "RULEFORGE_LLM_API_KEY", "RULEFORGE_LLM_MODEL")

pytestmark = [
    pytest.mark.llm,
    pytest.mark.skipif(not all(os.environ.get(v) for v in REQUIRED),
                       reason="RULEFORGE_LLM_* environment not configured"),
]


def test_live_backend_produces_grammar_valid_candidate():
    fixture = make_reference_fixture(42)
    x1 = {"ego_speed": 8.0, "dist_front": 4.2, "lane_offset": 0.1}
    pair = search_counterfactual(x1, Outcome.FAIL, make_oracle(fixture.config),
                                 fixture.config.odd, 20)
    evidence = EvidenceFile(rule_id=fixture.baseline_rule.id,
                            rule_text=print_rule(fixture.baseline_rule.ast),
                            dataset_ref="fixture", pairs=(pair,), unresolved=())
    ctx = RefinementContext(target=fixture.baseline_rule, historical=(), evidence=evidence,
                            mismatch_before=FIXTURE_MISMATCHES, dataset=fixture.dataset,
                            odd=fixture.config.odd)
    generator = LlmGenerator(
        LlmConfig(base_url=os.environ[REQUIRED[0]], api_key=os.environ[REQUIRED[1]],
                  model=os.environ[REQUIRED[2]]))
    candidate = generate_candidate(generator, ctx)
    # whatever the model proposed, it parsed and passes refine_loop's vocabulary gate
    assert print_rule(candidate.ast)
    assert not check_vocabulary(candidate.ast, fixture.config.odd)
    assert len(generator.transcript) == 1

"""ruleforge: detect, localize, and repair inconsistent safety operational rules.

Pipeline: evaluate polarized rules against labeled runs, search minimal
counterfactual perturbations for the inconsistent ones, synthesize
grammar-valid refinement candidates (offline deterministic generator, or an
LLM backend with strict output validation), and accept a refinement only
after contradiction, preservation, and resolution checks.
"""

from .counterfactual import (CounterfactualNotFound, CounterfactualPair, EvidenceFile,
                             NoInconsistency, Oracle, OracleBudgetExceeded, SearchLimits,
                             build_evidence, search_counterfactual)
from .generation import (DeterministicGenerator, Edit, EditKind, GenerationFailure, LlmConfig,
                         LlmGenerator, MockGenerator, RefinementCandidate, RefinementContext,
                         apply_edits, build_prompt, diff_rules, generate_candidate,
                         parse_candidate_response)
from .grammar import (ArithOp, BinOp, Conjunct, Const, GRAMMAR_TEXT, OddSpec, OddVariable,
                      ParseError, RelOp, Relation, RuleAst, Token, TokenKind, Var, Violation,
                      check_vocabulary, odd_spec, parse_rule, print_rule, random_rule, tokenize)
from .metrics import (CmReport, GcReport, MetricsReport, SvReport, build_metrics_report,
                      change_minimality, grammar_compliance, semantic_validity)
from .scenario import (Fixture, OracleConfig, OutOfDomain, default_config, make_oracle,
                       make_reference_fixture, oracle_label, sample_dataset)
from .semantics import (DecisivenessReport, EmptyDataset, LabeledRun, Outcome, PolarizedRule,
                        Polarity, UnboundVariable, decisiveness, evaluate)
from .validation import (ContradictionBudget, ContradictionResult, ContradictionStatus,
                         Exhausted, RefinementOutcome, TargetNotInRuleset, ValidationReport,
                         check_contradiction, check_preserved_consistency, refine_loop)

__version__ = "0.1.0"

__all__ = [
    "ArithOp", "BinOp", "CmReport", "Conjunct", "Const",
    "ContradictionBudget", "ContradictionResult", "ContradictionStatus",
    "CounterfactualNotFound", "CounterfactualPair", "DecisivenessReport",
    "DeterministicGenerator", "Edit", "EditKind", "EmptyDataset", "EvidenceFile",
    "Exhausted", "Fixture", "GRAMMAR_TEXT", "GcReport", "GenerationFailure", "LabeledRun",
    "LlmConfig", "LlmGenerator", "MetricsReport", "MockGenerator", "NoInconsistency",
    "OddSpec", "OddVariable", "Oracle", "OracleBudgetExceeded", "OracleConfig", "Outcome",
    "OutOfDomain", "ParseError", "PolarizedRule", "Polarity", "RefinementCandidate",
    "RefinementContext", "RefinementOutcome", "RelOp", "Relation",
    "RuleAst", "SearchLimits", "SvReport", "TargetNotInRuleset", "Token", "TokenKind",
    "UnboundVariable", "ValidationReport", "Var", "Violation", "apply_edits",
    "build_evidence", "build_metrics_report",
    "build_prompt", "change_minimality", "check_contradiction",
    "check_preserved_consistency", "check_vocabulary",
    "decisiveness", "default_config", "diff_rules", "evaluate",
    "generate_candidate", "grammar_compliance", "make_oracle", "make_reference_fixture",
    "odd_spec", "oracle_label", "parse_candidate_response", "parse_rule", "print_rule",
    "random_rule", "refine_loop", "sample_dataset", "search_counterfactual",
    "semantic_validity", "tokenize",
]

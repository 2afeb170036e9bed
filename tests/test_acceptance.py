"""Acceptance suite: one test per release criterion, each printing a summary
line. Everything here runs offline (the deterministic and mock generators
only); the live backend is exercised solely by the separately-marked
integration test module."""

import itertools
import random
import socket
import time

import pytest

from ruleforge import (ContradictionStatus, CounterfactualNotFound, DeterministicGenerator,
                       EditKind, EvidenceFile, GenerationFailure, LabeledRun, MockGenerator,
                       Oracle, Outcome, PolarizedRule, Polarity, RefinementContext,
                       check_contradiction, decisiveness, evaluate, grammar_compliance,
                       change_minimality, make_oracle, make_reference_fixture, odd_spec,
                       parse_candidate_response, parse_rule, print_rule, random_rule,
                       refine_loop, search_counterfactual)
from ruleforge.generation import generate_candidate
from ruleforge.scenario import FIXTURE_MISMATCHES

TUPLE_TEXT = "[[('greater_than_func','ARG1','0')]]"


def _ok(n, text):
    print(f"ACCEPTANCE PASS criterion {n}: {text}")


def test_criterion_1_dg_reproduction():
    start = time.monotonic()
    fixture = make_reference_fixture(seed=42)
    report = decisiveness(fixture.baseline_rule, fixture.dataset)
    elapsed = time.monotonic() - start
    assert report.n == 198
    assert report.n_mismatch == 27
    assert round(report.dg, 4) == 0.8636
    assert round(report.dg, 2) == 0.86
    assert elapsed < 1.0, f"took {elapsed:.3f}s"
    _ok(1, f"n=198, n_mismatch=27, dg={report.dg:.4f} in {elapsed:.3f}s")


def test_criterion_2_end_to_end_refinement():
    start = time.monotonic()
    fixture = make_reference_fixture(seed=42)
    generator = DeterministicGenerator()
    outcome = refine_loop(fixture.baseline_rule, [fixture.baseline_rule], fixture.dataset,
                          make_oracle(fixture.config), fixture.config.odd, generator,
                          max_attempts=5)
    refined = PolarizedRule("r", Polarity.PASS_RULE, outcome.refined)
    dg_before = decisiveness(fixture.baseline_rule, fixture.dataset).dg
    dg_after = decisiveness(refined, fixture.dataset).dg
    elapsed = time.monotonic() - start
    assert outcome.attempts <= 5
    assert dg_after == 1.0
    gain = dg_after - dg_before
    assert round(gain, 4) == 0.1364
    assert round(gain, 2) == 0.14
    assert elapsed < 10.0, f"took {elapsed:.3f}s"
    _ok(2, f"accepted attempt {outcome.attempts}, dg {dg_before:.4f} -> {dg_after:.4f} "
           f"(gain +{gain:.4f}) in {elapsed:.2f}s")


def test_criterion_3_worked_example_fidelity():
    fixture = make_reference_fixture(seed=42)
    x1 = {"ego_speed": 8.0, "dist_front": 4.2, "lane_offset": 0.1}
    pair = search_counterfactual(x1, Outcome.FAIL, make_oracle(fixture.config),
                                 fixture.config.odd, max_radius_steps=20)
    assert pair.x_cf["dist_front"] == 4.0
    assert pair.delta == {"dist_front": -0.2}
    evidence = EvidenceFile(rule_id=fixture.baseline_rule.id,
                            rule_text=print_rule(fixture.baseline_rule.ast),
                            dataset_ref="fixture", pairs=(pair,), unresolved=())
    ctx = RefinementContext(target=fixture.baseline_rule, historical=(), evidence=evidence,
                            mismatch_before=FIXTURE_MISMATCHES, dataset=fixture.dataset,
                            odd=fixture.config.odd)
    generator = DeterministicGenerator()
    candidate = generate_candidate(generator, ctx)
    assert print_rule(candidate.ast) == "(dist_front < 4.1) and (ego_speed > 0)"
    threshold = candidate.ast.disjuncts[0].relations[0].rhs.value
    assert threshold == 4.1
    _ok(3, "x' has dist_front=4.0, delta=-0.2; generator proposes threshold 4.1")


def test_criterion_4_consistency_table_totality():
    # Scored by decisiveness on a one-run dataset: the run is a mismatch iff
    # Inconsistent, and the rule is fully inconclusive iff Inconclusive.
    hold_rule = parse_rule("v > 0")
    expected = {
        (Polarity.PASS_RULE, True, Outcome.PASS): "Consistent",
        (Polarity.FAIL_RULE, True, Outcome.PASS): "Inconsistent",
        (Polarity.PASS_RULE, True, Outcome.FAIL): "Inconsistent",
        (Polarity.FAIL_RULE, True, Outcome.FAIL): "Consistent",
        (Polarity.PASS_RULE, False, Outcome.PASS): "Inconclusive",
        (Polarity.PASS_RULE, False, Outcome.FAIL): "Inconclusive",
        (Polarity.FAIL_RULE, False, Outcome.PASS): "Inconclusive",
        (Polarity.FAIL_RULE, False, Outcome.FAIL): "Inconclusive",
    }
    for (polarity, holds, yv), want in expected.items():
        rule = PolarizedRule("r", polarity, hold_rule)
        report = decisiveness(rule, [LabeledRun({"v": 1.0 if holds else -1.0}, yv)])
        assert (report.n_mismatch == 1) is (want == "Inconsistent")
        assert report.fully_inconclusive is (want == "Inconclusive")
    _ok(4, "all 8 (polarity x holds x outcome) cases classified exactly")


def test_criterion_5_counterfactual_minimality_oracle():
    start = time.monotonic()
    instances = 0
    flips = 0
    for seed in range(130):
        rng = random.Random(seed)
        d = rng.randint(1, 3)
        odd = odd_spec([(f"f{i}", 0.0, float(rng.randint(1, 5)), 1.0) for i in range(d)])
        labels = {
            key: Outcome.PASS if rng.random() < 0.5 else Outcome.FAIL
            for key in itertools.product(*(range(v.grid_count) for v in odd.variables))
        }
        x_key = tuple(rng.randrange(v.grid_count) for v in odd.variables)
        x = {v.name: v.grid_value(k) for v, k in zip(odd.variables, x_key)}
        y = labels[x_key]

        def label(binding, odd=odd, labels=labels):
            key = tuple(round((binding[v.name] - v.min) / v.step) for v in odd.variables)
            return labels[key]

        brute = None
        for key in labels:
            if key != x_key and labels[key] is not y:
                l1 = sum(abs(a - b) for a, b in zip(key, x_key))
                brute = l1 if brute is None else min(brute, l1)
        max_radius = sum(v.grid_count - 1 for v in odd.variables)
        if brute is None:
            with pytest.raises(CounterfactualNotFound):
                search_counterfactual(x, y, Oracle(label), odd, max_radius)
        else:
            pair = search_counterfactual(x, y, Oracle(label), odd, max_radius)
            assert pair.l1_steps == brute
            flips += 1
        instances += 1
    elapsed = time.monotonic() - start
    assert instances >= 100
    assert elapsed < 30.0, f"took {elapsed:.2f}s"
    _ok(5, f"{instances} instances ({flips} with flips) match brute force "
           f"in {elapsed:.2f}s")


def test_criterion_6_contradiction_checker_equivalence():
    rng = random.Random(6)
    domains = [
        odd_spec([("a", 0.0, 10.0, 0.5)]),                              # 21 points
        odd_spec([("a", 0.0, 10.0, 1.0), ("b", -5.0, 5.0, 0.5)]),       # 11 x 21
        odd_spec([("a", 0.0, 19.8, 0.2)]),                              # 100 points
    ]
    pairs = 0
    flagged = 0
    for trial in range(120):
        odd = domains[trial % len(domains)]
        pass_rule = PolarizedRule("p", Polarity.PASS_RULE,
                                  random_rule(rng.randrange(10**6), odd, 2, 2))
        fail_rule = PolarizedRule("f", Polarity.FAIL_RULE,
                                  random_rule(rng.randrange(10**6), odd, 2, 2))
        (result,) = check_contradiction(pass_rule, [fail_rule], odd)
        axes = [v.grid_values() for v in odd.variables]
        grid_sat = any(
            evaluate(pass_rule.ast, dict(zip(odd.names, combo)))
            and evaluate(fail_rule.ast, dict(zip(odd.names, combo)))
            for combo in itertools.product(*axes))
        if grid_sat:
            assert result.status is ContradictionStatus.FLAGGED
            assert evaluate(pass_rule.ast, result.witness)
            assert evaluate(fail_rule.ast, result.witness)
            flagged += 1
        else:
            assert result.status in (ContradictionStatus.CLEAR, ContradictionStatus.UNKNOWN)
            if result.status is ContradictionStatus.FLAGGED:
                pytest.fail("flagged a grid-unsatisfiable pair")
        pairs += 1
    assert pairs >= 100
    assert flagged >= 20  # the batch must exercise both verdicts
    _ok(6, f"{pairs} rule pairs agree with exhaustive grid enumeration "
           f"({flagged} flagged, all witnesses verified)")


def test_criterion_7_grammar_closure():
    odd = odd_spec([("ego_speed", 0.0, 30.0, 0.5), ("dist_front", 0.0, 50.0, 0.2),
                    ("lane_offset", -2.0, 2.0, 0.1)])
    for seed in range(1000):
        ast = random_rule(seed, odd, 3, 4)
        printed = print_rule(ast)
        assert parse_rule(printed) == ast
        report = grammar_compliance(printed)
        assert report.gc == 1.0, f"seed {seed}: {printed}"
    lesson1 = grammar_compliance(TUPLE_TEXT)
    assert lesson1.gc < 1.0
    with pytest.raises(GenerationFailure, match="structural violation: list/tuple form"):
        parse_candidate_response(TUPLE_TEXT)
    _ok(7, f"1000 rules round-trip at gc=1.0; tuple text scores gc={lesson1.gc:.2f} "
           f"and is rejected")


def test_criterion_8_cm_calibration():
    pruning = change_minimality(parse_rule("ARG2 > 3 and ARG2 > 5"), parse_rule("ARG2 > 5"))
    assert pruning.band == "Optimal"
    bounded = change_minimality(parse_rule("ARG2 > 5"), parse_rule("5 < ARG2 and ARG2 < 9"))
    assert bounded.band == "Conservative"
    narrowed = change_minimality(parse_rule("ARG1 > 0"), parse_rule("1 < ARG1 and ARG1 < 2"))
    assert narrowed.band == "OverConstrained"
    _ok(8, f"bands: {pruning.band} / {bounded.band} / {narrowed.band}")


def test_criterion_9_offline_completeness(monkeypatch):
    """The offline pipeline (fixture, evidence, deterministic and mock
    refinement, metrics) runs with networking disabled at the socket level."""

    def no_network(*args, **kwargs):
        raise AssertionError("network access attempted")

    monkeypatch.setattr(socket, "socket", no_network)
    monkeypatch.setattr(socket, "create_connection", no_network)
    fixture = make_reference_fixture(seed=42)
    generator = DeterministicGenerator()
    outcome = refine_loop(fixture.baseline_rule, [fixture.baseline_rule], fixture.dataset,
                          make_oracle(fixture.config), fixture.config.odd, generator)
    refined = PolarizedRule("r", Polarity.PASS_RULE, outcome.refined)
    assert decisiveness(refined, fixture.dataset).dg == 1.0
    mock = MockGenerator(["Rule: (dist_front < 4.1) and (ego_speed > 0)"])
    outcome2 = refine_loop(fixture.baseline_rule, [fixture.baseline_rule], fixture.dataset,
                           make_oracle(fixture.config), fixture.config.odd, mock)
    assert outcome2.attempts == 1
    report = change_minimality(fixture.baseline_rule.ast, outcome.refined)
    assert 0.0 <= report.cm <= 1.0
    assert all(e.kind in EditKind for e in outcome.change_log)
    _ok(9, "fixture, refinement (deterministic + mock), and metrics ran with "
           "sockets disabled")

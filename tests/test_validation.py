import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ruleforge import (ContradictionStatus, DeterministicGenerator, Exhausted, LabeledRun,
                       MockGenerator, Outcome, PolarizedRule, Polarity,
                       TargetNotInRuleset, check_contradiction, check_preserved_consistency,
                       decisiveness, evaluate, make_oracle, odd_spec, parse_rule, print_rule,
                       random_rule, refine_loop)
from ruleforge import validation
from ruleforge.grammar import (DOMAIN_TOL, ArithOp, BinOp, Const, Relation, RelOp, Var,
                               direct_bound, rule)
from ruleforge.semantics import EPS_EQ

R1_STAR = "(dist_front < 4.1) and (ego_speed > 0)"


def _pass(text, rid="p"):
    return PolarizedRule(rid, Polarity.PASS_RULE, parse_rule(text))


def _fail(text, rid="f"):
    return PolarizedRule(rid, Polarity.FAIL_RULE, parse_rule(text))


class TestCheckContradiction:
    def test_disjoint_half_lines_clear(self):
        odd = odd_spec([("dist_front", 0.0, 50.0, 0.2)])
        (result,) = check_contradiction(_pass("(dist_front < 5)"),
                                        [_fail("(dist_front > 10)")], odd)
        assert result.status is ContradictionStatus.CLEAR
        assert result.witness is None

    def test_overlapping_rules_flagged_with_witness(self):
        odd = odd_spec([("dist_front", 0.0, 50.0, 0.2)])
        (result,) = check_contradiction(_pass("(dist_front < 5)"),
                                        [_fail("(dist_front < 3)")], odd)
        assert result.status is ContradictionStatus.FLAGGED
        assert result.witness is not None
        assert result.witness["dist_front"] < 3
        assert evaluate(parse_rule("(dist_front < 5)"), result.witness)
        assert evaluate(parse_rule("(dist_front < 3)"), result.witness)

    def test_division_near_zero_with_tight_budget_is_unknown(self):
        odd = odd_spec([("ARG1", 1.0, 10.0, 1.0), ("ARG2", -1.0, 1.0, 0.5)])
        (result,) = check_contradiction(_pass("(ARG1 / ARG2 > 100)"),
                                        [_fail("(ARG1 / ARG2 > 200)")], odd)
        assert result.status is ContradictionStatus.UNKNOWN

    def test_complementary_pair_at_a_shared_boundary_is_clear(self, odd):
        (result,) = check_contradiction(_pass("(dist_front < 4.2) and (ego_speed > 0)"),
                                        [_fail("(dist_front >= 4.2)")], odd)
        assert result.status is ContradictionStatus.CLEAR

    def test_gap_pair_is_clear(self, odd):
        (result,) = check_contradiction(_pass(R1_STAR),
                                        [_fail("(dist_front >= 4.2) and (ego_speed > 0)")],
                                        odd)
        assert result.status is ContradictionStatus.CLEAR

    def test_closed_ends_meeting_are_flagged_at_the_boundary(self, odd):
        (result,) = check_contradiction(_pass("(dist_front <= 4.2)"),
                                        [_fail("(dist_front >= 4.2)")], odd)
        assert result.status is ContradictionStatus.FLAGGED
        assert result.witness["dist_front"] == 4.2

    def test_overlap_only_off_the_grid_is_unknown(self, odd):
        # both hold on 0 < ego_speed <= EPS_EQ, which holds no grid point
        (result,) = check_contradiction(_pass("(ego_speed == 0)"),
                                        [_fail("(ego_speed > 0)")], odd)
        assert result.status is ContradictionStatus.UNKNOWN
        assert result.witness is None

    @pytest.mark.parametrize("c", ["0", "1", "2.5", "3"])
    def test_equality_against_its_negation_is_clear(self, c):
        # the != band must be refuted over the == box however c +- EPS_EQ rounds
        odd = odd_spec([("a", 0.0, 4.0, 1.0)])
        (result,) = check_contradiction(_pass(f"(a == {c})"), [_fail(f"(a != {c})")], odd)
        assert result.status is ContradictionStatus.CLEAR

    def test_direct_bound_pairs_against_brute_force(self):
        _check_pairs_against_brute_force(random.Random(4), 200, same_share=0.0)

    def test_same_expression_sides_against_brute_force(self):
        # v < v, v > v and v != v hold nowhere; v <= v, v >= v and v == v everywhere
        _check_pairs_against_brute_force(random.Random(12), 200, same_share=0.2)

    def test_same_variable_relation_is_refuted(self, odd):
        (result,) = check_contradiction(
            _pass("(ego_speed <= 10.5)"),
            [_fail("(lane_offset > lane_offset) and (lane_offset >= 0.4)")], odd)
        assert result.status is ContradictionStatus.CLEAR
        (result,) = check_contradiction(
            _pass("(ego_speed < ego_speed) or (dist_front == 13.4)"),
            [_fail("(dist_front <= 14)")], odd)
        assert result.status is ContradictionStatus.FLAGGED
        assert result.witness["dist_front"] == 13.4

    @pytest.mark.parametrize("candidate", [
        "(ego_speed / 0 != 6.5) and (dist_front < 4)",
        "(dist_front < 4) and (6.5 < ego_speed / (lane_offset * 0) + 1)",
        "(ego_speed / (lane_offset / 0) >= 0) and (dist_front < 4)",
    ])
    def test_divisor_zero_everywhere_is_refuted(self, odd, candidate):
        # a division by zero makes its relation false at every point
        (result,) = check_contradiction(_pass(candidate), [_fail("(dist_front < 3)")], odd)
        assert result.status is ContradictionStatus.CLEAR
        (result,) = check_contradiction(_pass(candidate.replace(") and (", ") or (")),
                                        [_fail("(dist_front < 3)")], odd)
        assert result.status is ContradictionStatus.FLAGGED
        assert result.witness["dist_front"] < 3

    @pytest.mark.parametrize("candidate,status", [
        ("(ego_speed / (dist_front - dist_front) > 1)", ContradictionStatus.CLEAR),
        ("((dist_front - dist_front) * ego_speed > 1)", ContradictionStatus.CLEAR),
        ("(ego_speed / (dist_front - dist_front) > 1) or (dist_front < 2)",
         ContradictionStatus.FLAGGED),
    ])
    def test_same_expression_difference_is_exactly_zero(self, odd, candidate, status):
        # e - e is 0 wherever e is finite, so dividing by it is false everywhere
        (result,) = check_contradiction(_pass(candidate), [_fail("(dist_front < 3)")], odd)
        assert result.status is status
        if status is ContradictionStatus.FLAGGED:
            assert result.witness == {"ego_speed": 0.0, "dist_front": 0.0, "lane_offset": -2.0}

    def test_same_polarity_rejected(self):
        odd = odd_spec([("x", 0.0, 1.0, 1.0)])
        with pytest.raises(ValueError):
            check_contradiction(_pass("(x > 0)"), [_pass("(x < 1)", "p2")], odd)

    def test_dataset_points_seed_witness_search(self):
        odd = odd_spec([("x", 0.0, 100.0, 1.0)])
        data = [LabeledRun({"x": 2.0}, Outcome.PASS)]
        (result,) = check_contradiction(_pass("(x < 5)"), [_fail("(x < 3)")], odd,
                                        dataset=data)
        assert result.status is ContradictionStatus.FLAGGED
        assert result.witness == {"x": 2.0}

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_dataset_runs_decide_before_the_box(self, data):
        """With a dataset, a Clear verdict has no run where both rules hold,
        and a Flagged witness satisfies both; runs may lie up to DOMAIN_TOL
        outside [min, max], as the domain admits them."""
        odd = data.draw(st.sampled_from(_SMALL_DOMAINS))
        seeds = st.integers(min_value=0, max_value=10 ** 6)
        pass_rule = _pass_from_seed(data.draw(seeds), odd)
        fail_rule = _fail_from_seed(data.draw(seeds), odd)
        runs = data.draw(st.lists(st.fixed_dictionaries(
            {v.name: _domain_coordinate(v) for v in odd.variables}), max_size=8))
        (result,) = check_contradiction(pass_rule, [fail_rule], odd,
                                        dataset=[LabeledRun(x, Outcome.PASS) for x in runs])
        both = lambda x: evaluate(pass_rule.ast, x) and evaluate(fail_rule.ast, x)
        if result.status is ContradictionStatus.CLEAR:
            assert not any(both(x) for x in runs)
        elif result.status is ContradictionStatus.FLAGGED:
            assert both(result.witness)

    def test_run_just_outside_the_domain_flags_a_pair_the_box_clears(self, odd):
        # contains_point admits a run up to DOMAIN_TOL below min, but _cut_box
        # cuts at min itself: the dataset run flags what the box alone clears.
        candidate = _pass("(dist_front < 0) and (ego_speed > 0)")
        opposing = [_fail("(dist_front < 1)")]
        run = {"ego_speed": 8.0, "dist_front": -5e-10, "lane_offset": 0.0}
        assert odd.contains_point(run)
        (flagged,) = check_contradiction(candidate, opposing, odd,
                                         dataset=[LabeledRun(run, Outcome.FAIL)])
        assert flagged.status is ContradictionStatus.FLAGGED
        assert flagged.witness == run
        (clear,) = check_contradiction(candidate, opposing, odd)
        assert clear.status is ContradictionStatus.CLEAR

    def test_grid_equivalence_on_random_pairs(self):
        rng = random.Random(9)
        domains = [odd_spec([("a", 0.0, 10.0, 1.0)]),
                   odd_spec([("a", 0.0, 10.0, 1.0), ("b", -5.0, 5.0, 0.5)])]
        checked = 0
        for trial in range(120):
            odd = domains[trial % 2]
            pass_rule = _pass_from_seed(rng.randrange(10**6), odd)
            fail_rule = _fail_from_seed(rng.randrange(10**6), odd)
            (result,) = check_contradiction(pass_rule, [fail_rule], odd)
            grid_sat = _grid_sat(pass_rule.ast, fail_rule.ast, odd)
            if result.status is ContradictionStatus.FLAGGED:
                assert grid_sat
                assert evaluate(pass_rule.ast, result.witness)
                assert evaluate(fail_rule.ast, result.witness)
            elif result.status is ContradictionStatus.CLEAR:
                assert not grid_sat
            else:
                assert not grid_sat  # sat on the grid is always found
            checked += 1
        assert checked == 120


_BIG = 1e308  # a * _BIG overflows to inf for any a above 1.8
_GATE_DOMAIN = odd_spec([("a", 0.0, 4.0, 1.0), ("b", -1.0, 1.0, 0.5)])


def _recorded_intervals(monkeypatch):
    """(expr, result) of every _interval call the contradiction check makes."""
    calls = []
    interval = validation._interval

    def recording(expr, box):
        result = interval(expr, box)
        calls.append((expr, result))
        return result

    monkeypatch.setattr(validation, "_interval", recording)
    return calls


def _flagged_as_the_grid_walk(pass_rule, fail_rule, odd):
    """Flagged, so never Clear, where a walk of the whole step grid finds a
    point on which both rules hold; not Flagged where it finds none."""
    (result,) = check_contradiction(pass_rule, [fail_rule], odd)
    grid_sat = _grid_sat(pass_rule.ast, fail_rule.ast, odd)
    assert (result.status is ContradictionStatus.FLAGGED) == grid_sat


class TestIntervalGateBranches:
    """Bounds that say nothing (a possibly zero divisor under an operator,
    or an overflow to infinity) leave a relation undecided, so a pair with
    such a residual relation is never cleared where the step grid has a
    point on which both rules hold."""

    @pytest.mark.parametrize("candidate,opposing", [
        ("(a / b) + 1 > 0", "(a > 2)"),
        ("(a / b) + 1 > 0", "(b >= 0) and (a > 3)"),
        ("(a / b) + 1 > 0", "(b <= 0) and (a < 1)"),
        ("(a / b) + 1 < 0", "(b >= 0)"),
    ])
    def test_tainted_operand(self, monkeypatch, candidate, opposing):
        candidate = _pass(candidate)
        lhs = candidate.ast.disjuncts[0].relations[0].lhs
        assert validation._interval(lhs, {"a": (0.0, 4.0), "b": (-1.0, 1.0)}) == (
            -math.inf, math.inf, True)
        calls = _recorded_intervals(monkeypatch)
        _flagged_as_the_grid_walk(candidate, _fail(opposing), _GATE_DOMAIN)
        assert any(expr is lhs and result[2] for expr, result in calls if result)

    @pytest.mark.parametrize("op,rhs,opposing", [
        (RelOp.GT, Const(1.0), "(a > 2)"),
        (RelOp.GT, BinOp(ArithOp.MUL, Var("b"), Const(_BIG)), "(b > 0.5)"),
        (RelOp.GT, BinOp(ArithOp.MUL, Var("b"), Const(_BIG)), "(a > 1) and (b < 0)"),
        (RelOp.LT, Const(1.0), "(a > 0.5)"),
    ])
    def test_bounds_overflowing_to_infinity(self, monkeypatch, op, rhs, opposing):
        relation = Relation(BinOp(ArithOp.MUL, Var("a"), Const(_BIG)), op, rhs)
        candidate = PolarizedRule("p", Polarity.PASS_RULE, rule([relation]))
        # finite bounds would decide a * _BIG against 1 on a in [1, 4]
        assert validation._relation_truth(relation, {"a": (1.0, 4.0), "b": (-1.0, 1.0)}) is None
        calls = _recorded_intervals(monkeypatch)
        _flagged_as_the_grid_walk(candidate, _fail(opposing), _GATE_DOMAIN)
        assert any(expr is relation.lhs and not result[2] and math.inf in result[:2]
                   for expr, result in calls if result)


def test_grid_in_box_strides_a_box_above_the_cap():
    odd = odd_spec([("a", 0.0, 100.0, 1.0), ("b", 0.0, 100.0, 1.0), ("c", -5.0, 5.0, 0.1)])
    box, residual = validation._cut_box(
        list(parse_rule("(a > 0.5) and (b <= 90)").disjuncts[0].relations), odd)
    assert residual == []
    assert 100 * 91 * 101 > validation.GRID_CAP
    points = list(validation._grid_in_box(box, odd))
    assert 0 < len(points) <= validation.GRID_CAP
    assert all(box[name][0] < (x[name], True) and (x[name], False) < box[name][1]
               for x in points for name in odd.names)
    rows = [tuple(x[name] for name in odd.names) for x in points]
    assert rows == sorted(rows) and rows[0] == (1.0, 0.0, -5.0)
    for var in odd.variables:
        steps = sorted({round((x[var.name] - var.min) / var.step) for x in points})
        strides = {b - a for a, b in zip(steps, steps[1:])}
        assert len(strides) == 1 and strides != {1}  # one stride per axis, and not the grid's
    assert len(points) == math.prod(len({x[name] for x in points}) for name in odd.names)


_SMALL_DOMAINS = (odd_spec([("a", 0.0, 4.0, 1.0)]),
                  odd_spec([("a", 0.0, 4.0, 1.0), ("b", -1.0, 1.0, 0.5)]))


def _domain_coordinate(var):
    """A grid value, any value in the range, or one at most DOMAIN_TOL
    outside either end."""
    return st.one_of(st.integers(0, var.grid_count - 1).map(var.grid_value),
                     st.floats(var.min, var.max),
                     st.floats(0.0, DOMAIN_TOL).map(lambda d: var.min - d),
                     st.floats(0.0, DOMAIN_TOL).map(lambda d: var.max + d))


def _pass_from_seed(seed, odd):
    return PolarizedRule(f"p{seed}", Polarity.PASS_RULE, random_rule(seed, odd, 2, 2))


def _fail_from_seed(seed, odd):
    return PolarizedRule(f"f{seed}", Polarity.FAIL_RULE, random_rule(seed, odd, 2, 2))


def _grid_sat(a, b, odd):
    axes = [v.grid_values() for v in odd.variables]
    names = odd.names
    for combo in itertools.product(*axes):
        x = dict(zip(names, combo))
        if evaluate(a, x) and evaluate(b, x):
            return True
    return False


def _check_pairs_against_brute_force(rng, trials, same_share):
    """Clear iff no reference point satisfies both rules; Flagged iff some
    grid point does, with a witness that satisfies both."""
    domains = [odd_spec([("a", 0.0, 4.0, 1.0)]),
               odd_spec([("a", 0.0, 4.0, 1.0), ("b", -1.0, 1.0, 0.5)])]
    seen = set()
    for trial in range(trials):
        odd = domains[trial % 2]
        pass_rule = PolarizedRule("p", Polarity.PASS_RULE, _random_bound_rule(rng, odd, same_share))
        fail_rule = PolarizedRule("f", Polarity.FAIL_RULE, _random_bound_rule(rng, odd, same_share))
        (result,) = check_contradiction(pass_rule, [fail_rule], odd)
        both = lambda x: evaluate(pass_rule.ast, x) and evaluate(fail_rule.ast, x)
        reference_sat = any(both(x) for x in _reference_points(odd, pass_rule.ast,
                                                                fail_rule.ast))
        grid_sat = _grid_sat(pass_rule.ast, fail_rule.ast, odd)
        assert (result.status is ContradictionStatus.CLEAR) == (not reference_sat)
        assert (result.status is ContradictionStatus.FLAGGED) == grid_sat
        if grid_sat:
            assert both(result.witness)
        seen.add(result.status)
    assert seen == set(ContradictionStatus)


def _random_bound_rule(rng, odd, same_share=0.0):
    """1-2 conjuncts of 1-2 relations, each a variable against a constant on
    its grid or halfway between two grid values, either way round; with
    probability same_share a relation compares a variable with itself."""
    conjuncts = []
    for _ in range(rng.randint(1, 2)):
        relations = []
        for _ in range(rng.randint(1, 2)):
            var = rng.choice(odd.variables)
            if same_share and rng.random() < same_share:
                relations.append(Relation(Var(var.name), rng.choice(list(RelOp)), Var(var.name)))
                continue
            c = Const(round(var.min + rng.randrange(2 * var.grid_count - 1) * var.step / 2,
                            var.decimals + 1))
            op = rng.choice(list(RelOp))
            relations.append(Relation(Var(var.name), op, c) if rng.random() < 0.8
                             else Relation(c, op, Var(var.name)))
        conjuncts.append(relations)
    return rule(*conjuncts)


def _reference_points(odd, *asts):
    """Per variable: every grid value, every constant c bounding it and
    c +- EPS_EQ, and the midpoints between consecutive such values; the
    points are their product over the domain."""
    axes = []
    for var in odd.variables:
        values = set(var.grid_values())
        for ast in asts:
            for _, rel in ast.relations():
                name, _, c = direct_bound(rel) or (None, None, None)
                if name == var.name:
                    values |= {c, c - EPS_EQ, c + EPS_EQ}
        values = sorted(x for x in values if var.min <= x <= var.max)
        axes.append(values + [(lo + hi) / 2 for lo, hi in zip(values, values[1:])])
    for combo in itertools.product(*axes):
        yield dict(zip(odd.names, combo))


def _refine(fixture, text, ruleset=None, target=None):
    """refine_loop on the fixture with one scripted candidate."""
    gen = MockGenerator([f"Rule: {text}"])
    return refine_loop(target or fixture.baseline_rule, ruleset or [fixture.baseline_rule],
                       fixture.dataset, make_oracle(fixture.config), fixture.config.odd,
                       gen, max_attempts=1)


def _inconsistent(rule, run):
    """Reference: the rule holds on the run and asserts the other verdict."""
    return evaluate(rule.ast, run.x) and run.y is not rule.polarity.verdict


class TestPreservedConsistency:
    def test_refined_rule_preserves_fixture(self, fixture42):
        candidate = PolarizedRule("baseline-pass", Polarity.PASS_RULE, parse_rule(R1_STAR))
        new = check_preserved_consistency(decisiveness(fixture42.baseline_rule,
                                                       fixture42.dataset),
                                          decisiveness(candidate, fixture42.dataset))
        assert new == ()
        fail_rule = _fail("(dist_front > 30)", "hist-fail")
        outcome = _refine(fixture42, R1_STAR, [fixture42.baseline_rule, fail_rule])
        assert outcome.reports[-1].new_inconsistencies == 0

    def test_identity_candidate_adds_nothing(self, fixture42):
        report = decisiveness(fixture42.baseline_rule, fixture42.dataset)
        assert check_preserved_consistency(report, report) == ()

    def test_over_broad_candidate_counts_new_inconsistencies(self, fixture42):
        candidate = PolarizedRule("baseline-pass", Polarity.PASS_RULE,
                                  parse_rule("(ego_speed > 0)"))
        new = check_preserved_consistency(decisiveness(fixture42.baseline_rule,
                                                       fixture42.dataset),
                                          decisiveness(candidate, fixture42.dataset))
        expected = tuple(
            idx for idx, run in enumerate(fixture42.dataset)
            if run.y is Outcome.FAIL and run.x["ego_speed"] > 0
            and not _inconsistent(fixture42.baseline_rule, run))
        assert expected
        assert new == expected

    def test_target_not_in_ruleset(self, fixture42):
        stranger = PolarizedRule("nobody", Polarity.PASS_RULE, parse_rule("(ego_speed > 0)"))
        with pytest.raises(TargetNotInRuleset):
            _refine(fixture42, R1_STAR, target=stranger)


class TestTargetResolution:
    """The resolution gate: mismatch_before/after come from one scoring of
    the target and one of the candidate."""

    def test_fixture_resolution(self, fixture42):
        report = _refine(fixture42, R1_STAR).reports[-1]
        assert report.accepted
        assert report.mismatch_before == 27
        assert report.mismatch_after == 0

    def test_identity(self, fixture42):
        with pytest.raises(Exhausted) as err:
            _refine(fixture42, print_rule(fixture42.baseline_rule.ast))
        (report,) = err.value.reports
        assert report.mismatch_before == report.mismatch_after

    def test_widened_rule_regresses(self, fixture42):
        with pytest.raises(Exhausted) as err:
            _refine(fixture42, "(dist_front < 50) and (ego_speed > 0)")
        (report,) = err.value.reports
        assert report.mismatch_after > report.mismatch_before
        assert report.failure_summary == (f"does not reduce mismatches "
                                          f"({report.mismatch_before} -> "
                                          f"{report.mismatch_after})")


class TestRefineLoop:
    def test_fixture_accepts_first_attempt(self, fixture42):
        gen = DeterministicGenerator()
        outcome = refine_loop(fixture42.baseline_rule, [fixture42.baseline_rule],
                              fixture42.dataset, make_oracle(fixture42.config),
                              fixture42.config.odd, gen, max_attempts=5)
        assert outcome.attempts == 1
        refined = PolarizedRule("r", Polarity.PASS_RULE, outcome.refined)
        assert decisiveness(refined, fixture42.dataset).dg == 1.0
        report = outcome.reports[-1]
        assert report.accepted
        assert report.contradiction.status is ContradictionStatus.CLEAR
        assert report.mismatch_after < report.mismatch_before
        assert report.new_inconsistencies == 0

    def test_mock_two_step_loop(self, fixture42):
        gen = MockGenerator(["Rule: (ARG3 > 1)", f"Rule: {R1_STAR}"])
        outcome = refine_loop(fixture42.baseline_rule, [fixture42.baseline_rule],
                              fixture42.dataset, make_oracle(fixture42.config),
                              fixture42.config.odd, gen, max_attempts=5)
        assert outcome.attempts == 2
        assert print_rule(outcome.refined) == R1_STAR
        first = outcome.reports[0]
        assert not first.accepted
        assert "UnknownVariable" in first.failure_summary

    def test_mock_garbage_exhausts(self, fixture42):
        gen = MockGenerator(["[[('gt','ARG1','0')]]"] * 3)
        with pytest.raises(Exhausted) as err:
            refine_loop(fixture42.baseline_rule, [fixture42.baseline_rule],
                        fixture42.dataset, make_oracle(fixture42.config),
                        fixture42.config.odd, gen, max_attempts=3)
        assert len(err.value.reports) == 3
        assert all(not r.accepted for r in err.value.reports)

    def test_failure_summary_accumulates_into_prompts(self, fixture42, monkeypatch):
        seen = []

        class Probe:
            def generate(self, ctx):
                seen.append(ctx.failure_summary)
                from ruleforge import GenerationFailure
                raise GenerationFailure(f"boom {len(seen)}")

        with pytest.raises(Exhausted):
            refine_loop(fixture42.baseline_rule, [fixture42.baseline_rule],
                        fixture42.dataset, make_oracle(fixture42.config),
                        fixture42.config.odd, Probe(), max_attempts=3)
        assert seen[0] is None
        assert "attempt 1: boom 1" in seen[1]
        assert "attempt 1: boom 1" in seen[2] and "attempt 2: boom 2" in seen[2]

    def test_contradicting_opposite_rule_blocks_acceptance(self, fixture42):
        blocker = _fail("(dist_front < 50)", "blanket-fail")
        gen = DeterministicGenerator()
        with pytest.raises(Exhausted) as err:
            refine_loop(fixture42.baseline_rule, [fixture42.baseline_rule, blocker],
                        fixture42.dataset, make_oracle(fixture42.config),
                        fixture42.config.odd, gen, max_attempts=2)
        for report in err.value.reports:
            assert report.contradiction.status is ContradictionStatus.FLAGGED
            assert report.contradiction.opposing_rule_id == "blanket-fail"
            assert "contradiction Flagged" in report.failure_summary

    def test_non_reducing_candidate_rejected(self, fixture42):
        # same rule as the target: parses and is vocabulary-clean but cannot
        # reduce mismatches
        gen = MockGenerator(["Rule: (dist_front < 5.0) and (ego_speed > 0)"])
        with pytest.raises(Exhausted) as err:
            refine_loop(fixture42.baseline_rule, [fixture42.baseline_rule],
                        fixture42.dataset, make_oracle(fixture42.config),
                        fixture42.config.odd, gen, max_attempts=1)
        (report,) = err.value.reports
        assert "does not reduce mismatches" in report.failure_summary
        assert report.mismatch_before == report.mismatch_after == 27

    def test_new_inconsistencies_rejected(self, fixture42):
        text = "(dist_front < 4.1) and (ego_speed > 0) or (dist_front > 48)"
        candidate = PolarizedRule("baseline-pass", Polarity.PASS_RULE, parse_rule(text))
        expected = [idx for idx, run in enumerate(fixture42.dataset)
                    if _inconsistent(candidate, run)
                    and not _inconsistent(fixture42.baseline_rule, run)]
        assert expected
        with pytest.raises(Exhausted) as err:
            _refine(fixture42, text)
        (report,) = err.value.reports
        assert report.mismatch_after < report.mismatch_before
        assert report.new_inconsistencies == len(expected)
        assert report.failure_summary == (f"introduces {len(expected)} new inconsistencies "
                                          f"at runs {expected}")

    def test_loop_bounded(self, fixture42):
        gen = MockGenerator([])
        with pytest.raises(Exhausted) as err:
            refine_loop(fixture42.baseline_rule, [fixture42.baseline_rule],
                        fixture42.dataset, make_oracle(fixture42.config),
                        fixture42.config.odd, gen, max_attempts=4)
        assert len(err.value.reports) == 4
        with pytest.raises(ValueError):
            refine_loop(fixture42.baseline_rule, [fixture42.baseline_rule],
                        fixture42.dataset, make_oracle(fixture42.config),
                        fixture42.config.odd, gen, max_attempts=0)


NEAR_FAIL = _fail("(dist_front < 3)", "near-fail")
FAITHFUL = "(dist_front < 4.1) and (dist_front > 3.5) and (ego_speed > 0)"

# What can go wrong with a reply, on the reference fixture plus the fail rule
# near-fail: (mode, reply, the prefix of the summary that rejects it, whether
# the report keeps the rule's text). Only a reply that does not parse has no
# rule to keep.
FAILURE_MODES = [
    ("out-of-grammar", "dist_front <<< 4", "parse error: ", False),
    ("list-shaped", "[[('gt','ARG1','0')]]", "structural violation: list/tuple form", False),
    ("unknown-variable", "(headway < 2)", "UnknownVariable headway", True),
    ("out-of-range-bound", "(dist_front < 120) and (ego_speed > 0)", "OutOfRangeBound 120",
     True),
    ("overlaps-a-fail-rule", "(dist_front < 4.1) and (ego_speed > 0)",
     "contradiction Flagged against rule near-fail at {", True),
    ("no-fewer-mismatches", "(dist_front < 5) and (dist_front > 3.5) and (ego_speed > 0)",
     "does not reduce mismatches (27 -> 27)", True),
    ("new-mismatches", f"{FAITHFUL} or (dist_front > 49) and (ego_speed > 0)",
     "introduces 2 new inconsistencies at runs [136, 171]", True),
    ("faithful", FAITHFUL, None, True),
]


@pytest.mark.parametrize("reply,summary,kept", [row[1:] for row in FAILURE_MODES],
                         ids=[row[0] for row in FAILURE_MODES])
def test_each_failure_mode_is_stopped_by_its_gate(fixture42, reply, summary, kept):
    """Every reply runs through refine_loop's gates, whichever generator wrote
    it; the next, faithful reply is accepted."""
    target = fixture42.baseline_rule
    outcome = refine_loop(target, [target, NEAR_FAIL], fixture42.dataset,
                          make_oracle(fixture42.config), fixture42.config.odd,
                          MockGenerator([f"Rule: {reply}", f"Rule: {FAITHFUL}"]))
    first = outcome.reports[0]
    assert print_rule(outcome.refined) == FAITHFUL
    if summary is None:
        assert first.accepted and outcome.attempts == 1
    else:
        assert not first.accepted and outcome.attempts == 2
        assert first.failure_summary.startswith(summary)
    assert first.candidate_text == (print_rule(parse_rule(reply)) if kept else None)

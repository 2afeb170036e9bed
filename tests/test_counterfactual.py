import itertools
import random

import pytest

from ruleforge import (CounterfactualNotFound, NoInconsistency, Oracle,
                       OracleBudgetExceeded, Outcome, PolarizedRule, Polarity, SearchLimits,
                       build_evidence, decisiveness, make_oracle, odd_spec, parse_rule,
                       search_counterfactual)
from ruleforge.semantics import LabeledRun

X1 = {"ego_speed": 8.0, "dist_front": 4.2, "lane_offset": 0.1}


def grid_oracle(odd, labels):
    """Oracle over a finite grid from a {index-tuple: Outcome} table."""
    def label(x):
        key = tuple(round((x[v.name] - v.min) / v.step) for v in odd.variables)
        return labels[key]
    return Oracle(label)


def random_instance(seed):
    """Random small domain (d<=3, <=5 steps/feature) with random labels."""
    rng = random.Random(seed)
    d = rng.randint(1, 3)
    variables = []
    for i in range(d):
        count = rng.randint(1, 5)  # steps; count+1 grid points
        variables.append((f"f{i}", 0.0, float(count), 1.0))
    odd = odd_spec(variables)
    labels = {}
    for key in itertools.product(*(range(v.grid_count) for v in odd.variables)):
        labels[key] = Outcome.PASS if rng.random() < 0.5 else Outcome.FAIL
    x_key = tuple(rng.randrange(v.grid_count) for v in odd.variables)
    x = {v.name: v.grid_value(k) for v, k in zip(odd.variables, x_key)}
    return odd, labels, x_key, x


def brute_force_min_l1(odd, labels, x_key, y):
    """Exhaustive minimum step-unit L1 over all grid points that flip."""
    best = None
    for key in itertools.product(*(range(v.grid_count) for v in odd.variables)):
        if key == x_key or labels[key] is y:
            continue
        l1 = sum(abs(a - b) for a, b in zip(key, x_key))
        best = l1 if best is None else min(best, l1)
    return best


class TestWorkedExample:
    def test_worked_counterfactual(self, fixture42):
        oracle = make_oracle(fixture42.config)
        pair = search_counterfactual(X1, Outcome.FAIL, oracle, fixture42.config.odd, 20)
        assert pair.x_cf == {"ego_speed": 8.0, "dist_front": 4.0, "lane_offset": 0.1}
        assert pair.y_cf is Outcome.PASS
        assert pair.delta == {"dist_front": -0.2}
        assert pair.l1_steps == 1

    def test_radius_one_first_feature(self):
        odd = odd_spec([("a", 0.0, 10.0, 1.0), ("b", 0.0, 10.0, 1.0)])
        oracle = Oracle(lambda x: Outcome.PASS if x["a"] < 5 else Outcome.FAIL)
        pair = search_counterfactual({"a": 5.0, "b": 5.0}, Outcome.FAIL, oracle, odd, 5)
        assert pair.x_cf == {"a": 4.0, "b": 5.0}
        assert pair.l1_steps == 1 and pair.l1 == 1.0


class TestMinimality:
    def test_matches_brute_force_on_small_instances(self):
        found = 0
        for seed in range(120):
            odd, labels, x_key, x = random_instance(seed)
            y = labels[x_key]
            oracle = grid_oracle(odd, labels)
            max_radius = sum(v.grid_count - 1 for v in odd.variables)
            expected = brute_force_min_l1(odd, labels, x_key, y)
            if expected is None:
                with pytest.raises(CounterfactualNotFound):
                    search_counterfactual(x, y, oracle, odd, max_radius, budget=10_000)
            else:
                pair = search_counterfactual(x, y, oracle, odd, max_radius, budget=10_000)
                assert pair.l1_steps == expected
                found += 1
        assert found >= 60  # random labels flip most of the time


class TestSearchContract:
    def test_flip_guarantee_and_domain_safety(self, fixture42):
        config = fixture42.config
        oracle = make_oracle(config)
        evidence = build_evidence(fixture42.baseline_rule, fixture42.dataset, oracle,
                                  config.odd)
        assert len(evidence.pairs) == 27 and evidence.unresolved == ()
        for pair in evidence.pairs:
            assert pair.y_cf is not pair.y
            # oracle_label raises OutOfDomain on out-of-range probes, so this
            # re-check also certifies domain safety
            assert make_oracle(config).query(pair.x_cf) is pair.y_cf
            assert config.odd.contains_point(pair.x_cf)
            for name, value in pair.delta.items():
                assert abs(pair.x_cf[name] - pair.x[name] - value) < 1e-12

    def test_out_of_domain_input_rejected(self, fixture42):
        oracle = make_oracle(fixture42.config)
        with pytest.raises(ValueError):
            search_counterfactual({"ego_speed": 99.0, "dist_front": 1.0, "lane_offset": 0.0},
                                  Outcome.FAIL, oracle, fixture42.config.odd, 5)

    def test_determinism(self, fixture42):
        config = fixture42.config
        first = build_evidence(fixture42.baseline_rule, fixture42.dataset,
                               make_oracle(config), config.odd)
        second = build_evidence(fixture42.baseline_rule, fixture42.dataset,
                                make_oracle(config), config.odd)
        assert first == second

    def test_probes_stay_on_step_grid(self):
        odd = odd_spec([("a", 0.0, 3.0, 1.0)])
        probes = []

        def label(x):
            probes.append(x["a"])
            return Outcome.FAIL  # never flips

        with pytest.raises(CounterfactualNotFound):
            search_counterfactual({"a": 1.0}, Outcome.FAIL, Oracle(label), odd, 10)
        assert set(probes) == {0.0, 2.0, 3.0}  # in-range grid, x excluded


class TestBudget:
    def test_zero_budget_all_unresolved(self, fixture42):
        config = fixture42.config
        evidence = build_evidence(fixture42.baseline_rule, fixture42.dataset,
                                  make_oracle(config), config.odd,
                                  SearchLimits(max_radius_steps=20, budget=0))
        assert evidence.pairs == ()
        assert len(evidence.unresolved) == 27

    def test_budget_exceeded_mid_radius(self):
        odd = odd_spec([("a", 0.0, 10.0, 1.0), ("b", 0.0, 10.0, 1.0)])
        oracle = Oracle(lambda x: Outcome.PASS if x["b"] <= 2 else Outcome.FAIL)
        with pytest.raises(OracleBudgetExceeded):
            # flip needs b to drop by 3 (radius 3); budget dies before that
            search_counterfactual({"a": 5.0, "b": 5.0}, Outcome.FAIL, oracle, odd,
                                  max_radius_steps=5, budget=3)

    def test_not_found_when_radius_exhausted(self):
        odd = odd_spec([("a", 0.0, 10.0, 1.0)])
        oracle = Oracle(lambda x: Outcome.FAIL)
        with pytest.raises(CounterfactualNotFound):
            search_counterfactual({"a": 5.0}, Outcome.FAIL, oracle, odd, 2)

    @pytest.mark.parametrize("start", [(0, 0, 0), (4, 0, 3), (2, 1, 1), (4, 1, 2)])
    @pytest.mark.parametrize("radius", [1, 3, 6, 12])
    def test_every_in_domain_probe_is_one_query(self, start, radius):
        # two corners, an interior point and an edge point; the oracle never flips
        odd = odd_spec([("a", 0.0, 2.0, 0.5), ("b", -1.0, 1.0, 1.0), ("c", 0.0, 0.9, 0.3)])
        x = {v.name: v.grid_value(k) for v, k in zip(odd.variables, start)}
        expected = sum(
            1 for key in itertools.product(*(range(v.grid_count) for v in odd.variables))
            if 0 < sum(abs(k - k0) for k, k0 in zip(key, start)) <= radius)
        oracle = Oracle(lambda p: Outcome.PASS)
        with pytest.raises(CounterfactualNotFound):
            search_counterfactual(x, Outcome.PASS, oracle, odd, radius, budget=expected)
        assert oracle.queries == expected
        if expected:
            short = Oracle(lambda p: Outcome.PASS)
            with pytest.raises(OracleBudgetExceeded):
                search_counterfactual(x, Outcome.PASS, short, odd, radius, budget=expected - 1)
            assert short.queries == expected - 1


class TestBuildEvidence:
    def test_rule_text_is_canonical(self, fixture42):
        config = fixture42.config
        evidence = build_evidence(fixture42.baseline_rule, fixture42.dataset,
                                  make_oracle(config), config.odd, dataset_ref="runs.csv")
        assert evidence.rule_text == "(dist_front < 5) and (ego_speed > 0)"
        assert evidence.rule_id == fixture42.baseline_rule.id
        assert evidence.dataset_ref == "runs.csv"

    def test_no_inconsistency_raises(self, fixture42):
        consistent = PolarizedRule("ok", Polarity.PASS_RULE,
                                   parse_rule("(dist_front < 4.05) and (ego_speed > 0)"))
        with pytest.raises(NoInconsistency):
            build_evidence(consistent, fixture42.dataset, make_oracle(fixture42.config),
                           fixture42.config.odd)

    def test_empty_dataset_raises(self, fixture42):
        with pytest.raises(NoInconsistency):
            build_evidence(fixture42.baseline_rule, [], make_oracle(fixture42.config),
                           fixture42.config.odd)

    def test_pairs_follow_dataset_order(self, fixture42):
        config = fixture42.config
        evidence = build_evidence(fixture42.baseline_rule, fixture42.dataset,
                                  make_oracle(config), config.odd)
        expected_x = [fixture42.dataset[i].x for i in
                      decisiveness(fixture42.baseline_rule, fixture42.dataset).mismatches]
        assert [p.x for p in evidence.pairs] == expected_x


class TestPartialBudgetPartition:
    def test_pairs_plus_unresolved_partition_mismatches(self):
        # one mismatch is reachable in 1 step, the other is walled off
        odd = odd_spec([("a", 0.0, 10.0, 1.0)])
        def label(x):
            return Outcome.PASS if x["a"] in (4.0,) else Outcome.FAIL
        rule = PolarizedRule("r", Polarity.PASS_RULE, parse_rule("a > 0"))
        data = [LabeledRun({"a": 5.0}, Outcome.FAIL),   # flip at 4, radius 1
                LabeledRun({"a": 9.0}, Outcome.FAIL),   # flip at 4, radius 5
                LabeledRun({"a": 4.0}, Outcome.PASS)]
        evidence = build_evidence(rule, data, Oracle(label), odd,
                                  SearchLimits(max_radius_steps=2, budget=100))
        assert len(evidence.pairs) == 1
        assert evidence.unresolved == (1,)

import itertools
import math

import pytest

from ruleforge import (Outcome, OutOfDomain, decisiveness, default_config, evaluate,
                       make_oracle, make_reference_fixture, oracle_label, sample_dataset,
                       search_counterfactual)
from ruleforge.scenario import ConstructionFailure
from ruleforge.storage import dataset_bytes

X1 = {"ego_speed": 8.0, "dist_front": 4.2, "lane_offset": 0.1}
X1_CF = {"ego_speed": 8.0, "dist_front": 4.0, "lane_offset": 0.1}


class TestOracle:
    def test_counterfactual_point_passes(self):
        assert oracle_label(default_config(), X1_CF) is Outcome.PASS

    def test_running_example_fails(self):
        assert oracle_label(default_config(), X1) is Outcome.FAIL

    def test_out_of_domain(self):
        with pytest.raises(OutOfDomain):
            oracle_label(default_config(), {"ego_speed": -1.0, "dist_front": 0.0,
                                            "lane_offset": 0.0})

    def test_stationary_vehicle_passes(self):
        assert oracle_label(default_config(), {"ego_speed": 0.0, "dist_front": 40.0,
                                               "lane_offset": 1.0}) is Outcome.PASS

    def test_deterministic(self):
        config = default_config()
        assert oracle_label(config, X1) is oracle_label(config, X1)


class TestSampleDataset:
    def test_deterministic_per_seed(self):
        config = default_config()
        assert sample_dataset(config, 198, 42) == sample_dataset(config, 198, 42)
        assert sample_dataset(config, 50, 1) != sample_dataset(config, 50, 2)

    def test_single_run_label_consistent(self):
        config = default_config()
        (run,) = sample_dataset(config, 1, 7)
        assert run.y is oracle_label(config, run.x)

    def test_samples_on_grid_and_in_range(self):
        config = default_config()
        for run in sample_dataset(config, 200, 3):
            for v in config.odd.variables:
                value = run.x[v.name]
                assert v.contains(value)
                assert abs(value - v.snap(value)) < 1e-9

    def test_label_frequency_matches_region_volume(self):
        # Grid integration of the safe region over the variables it uses;
        # unused dimensions contribute uniformly.
        config = default_config()
        used = sorted(config.safe_region.variables())
        axes = [config.odd.get(name).grid_values() for name in used]
        total = math.prod(len(a) for a in axes)
        passing = sum(
            1 for combo in itertools.product(*axes)
            if evaluate(config.safe_region, dict(zip(used, combo)))
        )
        p = passing / total
        n = 10_000
        observed = sum(1 for run in sample_dataset(config, n, 11) if run.y is Outcome.PASS)
        sigma = math.sqrt(n * p * (1 - p))
        assert abs(observed - n * p) <= 3 * sigma


class TestReferenceFixture:
    def test_exact_counts(self, fixture42):
        report = decisiveness(fixture42.baseline_rule, fixture42.dataset)
        assert report.n == 198
        assert report.n_mismatch == 27
        assert round(report.dg, 4) == 0.8636

    @pytest.mark.parametrize("seed", [0, 1, 7, 123])
    def test_exactness_across_seeds(self, seed):
        fixture = make_reference_fixture(seed)
        report = decisiveness(fixture.baseline_rule, fixture.dataset)
        assert (report.n, report.n_mismatch) == (198, 27)

    def test_labels_agree_with_oracle(self, fixture42):
        for run in fixture42.dataset:
            assert run.y is oracle_label(fixture42.config, run.x)

    def test_byte_identical_per_seed(self):
        a, b = make_reference_fixture(42), make_reference_fixture(42)
        assert a.dataset == b.dataset
        assert dataset_bytes(a.dataset) == dataset_bytes(b.dataset)

    def test_counterfactual_reachability_within_20_steps(self, fixture42):
        config = fixture42.config
        for idx in decisiveness(fixture42.baseline_rule, fixture42.dataset).mismatches:
            run = fixture42.dataset[idx]
            pair = search_counterfactual(run.x, run.y, make_oracle(config), config.odd,
                                         max_radius_steps=20)
            assert pair.l1_steps <= 20

    def test_spot_brute_force_minimality(self, fixture42):
        # exhaustive within the L1 ball for a few mismatch runs
        config = fixture42.config
        odd = config.odd
        indices = decisiveness(fixture42.baseline_rule, fixture42.dataset).mismatches[:3]
        for idx in indices:
            run = fixture42.dataset[idx]
            pair = search_counterfactual(run.x, run.y, make_oracle(config), odd, 20)
            radius = pair.l1_steps
            base = [round((run.x[v.name] - v.min) / v.step) for v in odd.variables]
            for offsets in itertools.product(*(range(-radius, radius + 1) for _ in base)):
                if sum(abs(o) for o in offsets) >= radius or all(o == 0 for o in offsets):
                    continue
                keys = [k + o for k, o in zip(base, offsets)]
                if any(k < 0 or k >= v.grid_count for k, v in zip(keys, odd.variables)):
                    continue
                x = {v.name: v.grid_value(k) for v, k in zip(odd.variables, keys)}
                assert oracle_label(config, x) is run.y, \
                    f"closer flip exists at {x} for run {idx}"

    def test_construction_guard(self):
        from ruleforge.grammar import odd_spec
        from ruleforge.scenario import OracleConfig
        from ruleforge import parse_rule
        # safe region references a variable outside the domain: rejected
        bad_odd = odd_spec([("ego_speed", 0.0, 30.0, 0.5)])
        with pytest.raises(ConstructionFailure):
            OracleConfig(odd=bad_odd, safe_region=parse_rule("dist_front < 1"), seed=0)

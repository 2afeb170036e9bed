import builtins
import dataclasses
import itertools
import math
import pickle
import random
from pathlib import Path

import pytest

from ruleforge import (CounterfactualNotFound, DeterministicGenerator, OracleBudgetExceeded,
                       Outcome, OutOfDomain, SearchLimits, build_evidence, decisiveness,
                       default_config, evaluate, make_oracle, make_reference_fixture, odd_spec,
                       oracle_label, parse_rule, print_rule, refine_loop, sample_dataset,
                       scenario, search_counterfactual, semantics, storage)
from ruleforge.cli import main
from ruleforge.scenario import DEFAULT_ODD, ConstructionFailure, OracleConfig
from ruleforge.semantics import compile_rule
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
        assert sample_dataset(config, 198) == sample_dataset(config, 198)
        assert sample_dataset(dataclasses.replace(config, seed=1), 50) != \
            sample_dataset(dataclasses.replace(config, seed=2), 50)

    def test_refuses_an_empty_sample(self):
        with pytest.raises(ValueError, match="n must be >= 1"):
            sample_dataset(default_config(), 0)

    def test_single_run_label_consistent(self):
        config = default_config()
        (run,) = sample_dataset(dataclasses.replace(config, seed=7), 1)
        assert run.y is oracle_label(config, run.x)

    def test_samples_on_grid_and_in_range(self):
        config = default_config()
        for run in sample_dataset(dataclasses.replace(config, seed=3), 200):
            for v in config.odd.variables:
                value = run.x[v.name]
                k = round((value - v.min) / v.step)
                assert 0 <= k < v.grid_count
                assert abs(value - v.grid_value(k)) < 1e-9

    @pytest.mark.parametrize("odd", [DEFAULT_ODD, odd_spec([("a", -1.05, 1.0, 0.1),
                                                            ("b", -3.0, 3.0, 0.25),
                                                            ("c", -0.9, 0.9, 0.3)])],
                             ids=lambda odd: ",".join(odd.names))
    def test_every_coordinate_is_its_variables_grid_value(self, odd):
        """Each coordinate is the very float object of the variable's memo,
        and the sample is the one the per-call formula draws with the same
        randrange calls in the same order, signed zeros included."""
        config = OracleConfig(odd, parse_rule("(a > 0)" if "a" in odd else "(ego_speed > 0)"), 5)
        rng = random.Random(config.seed)
        runs = sample_dataset(config, 2000)
        if "c" in odd:
            assert "-0.0" in {repr(run.x["c"]) for run in runs}
        for run in runs:
            for v in odd.variables:
                value = run.x[v.name]
                assert value is v.points[v.index_of(value)]
                assert repr(value) == repr(round(v.min + rng.randrange(v.grid_count) * v.step,
                                                 v.decimals))

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
        runs = sample_dataset(dataclasses.replace(config, seed=11), n)
        observed = sum(1 for run in runs if run.y is Outcome.PASS)
        sigma = math.sqrt(n * p * (1 - p))
        assert abs(observed - n * p) <= 3 * sigma


class TestReferenceFixture:
    def test_exact_counts(self, fixture42):
        report = decisiveness(fixture42.baseline_rule, fixture42.dataset)
        assert report.n == 198
        assert report.n_mismatch == 27
        assert round(report.dg, 4) == 0.8636

    @pytest.mark.parametrize("seed", [*range(100), 123])
    def test_exactness_across_seeds(self, seed):
        # make_reference_fixture checks none of this itself: its strata are
        # built from the constant default_config, so the tests pin them.
        fixture = make_reference_fixture(seed)
        report = decisiveness(fixture.baseline_rule, fixture.dataset)
        assert (report.n, report.n_mismatch) == (198, 27)
        config = fixture.config
        for run in fixture.dataset:
            assert run.y is oracle_label(config, run.x)
            assert _ref_contains_point(config.odd, run.x)
            for v in config.odd.variables:
                assert run.x[v.name] == v.grid_value(round((run.x[v.name] - v.min) / v.step))

    @pytest.mark.parametrize("seed", range(5))
    def test_every_coordinate_is_its_variables_grid_value(self, seed):
        odd = default_config(seed).odd
        for run in make_reference_fixture(seed).dataset:
            for v in odd.variables:
                assert run.x[v.name] is v.points[v.index_of(run.x[v.name])]

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


# ---------------------------------------------------------------------------
# The domain guard on every oracle query against the per-variable predicate
# it replaced, kept here as the reference only.
# ---------------------------------------------------------------------------

GUARD_ODDS = [
    DEFAULT_ODD,
    odd_spec([(f"f{i}", -3.0 * i, 2.5 + i, 0.5) for i in range(8)]),
    odd_spec([("a", -1e-3, 1e-3, 1e-4), ("b", 7.0, 7.0, 1.0)]),  # tiny and degenerate ranges
    odd_spec([("big", -1e6, 1e9, 1000.0)]),
]
TOL = 1e-9


def _ref_contains_point(odd, x):
    return all(v.name in x and v.min - TOL <= x[v.name] <= v.max + TOL for v in odd.variables)


def _guard_values(v, rng):
    """Values for one variable: the range ends, the tolerance edges and one
    ulp past them either way, non-finite values and random draws around the
    range."""
    edges = [v.min - TOL, v.max + TOL]
    values = [v.min, v.max, *edges, math.nan, math.inf, -math.inf]
    values += [math.nextafter(e, d) for e in edges for d in (-math.inf, math.inf)]
    span = v.max - v.min or 1.0
    values += [rng.uniform(v.min - span, v.max + span) for _ in range(4)]
    return values


def _guard_points(odd, rng):
    inside = {v.name: rng.uniform(v.min, v.max) for v in odd.variables}
    for v in odd.variables:
        for value in _guard_values(v, rng):
            yield {**inside, v.name: value}
    for name in odd.names:
        yield {k: val for k, val in inside.items() if k != name}  # a variable missing
    yield {**inside, "extra": 1.0, "other": math.nan}  # extra keys are ignored
    yield {"extra": 1.0}
    for _ in range(200):
        yield {v.name: rng.choice(_guard_values(v, rng)) for v in odd.variables}


class TestDomainGuard:
    def test_default_tolerance_is_1e_9(self):
        v = DEFAULT_ODD.get("ego_speed")
        edge = {"ego_speed": v.max + 1e-9, "dist_front": 0.0, "lane_offset": 0.0}
        config = default_config()
        assert oracle_label(config, edge) in (Outcome.PASS, Outcome.FAIL)
        with pytest.raises(OutOfDomain):
            oracle_label(config, {**edge, "ego_speed": math.nextafter(v.max + 1e-9, math.inf)})

    def test_survives_pickling(self):
        odd = pickle.loads(pickle.dumps(GUARD_ODDS[1]))
        assert odd == GUARD_ODDS[1]
        assert [v.index_of(0.0) for v in odd.variables] == [6 * i for i in range(8)]
        assert odd.variables[0].index_of(math.nan) is None

    @pytest.mark.parametrize("odd", GUARD_ODDS, ids=lambda odd: ",".join(odd.names))
    def test_oracle_refuses_every_point_the_guard_refuses(self, odd):
        first = odd.variables[0]
        config = OracleConfig(odd, parse_rule(f"{first.name} >= {first.min}"), seed=0)
        rng = random.Random(6)
        refused = 0
        for x in _guard_points(odd, rng):
            if _ref_contains_point(odd, x):
                assert oracle_label(config, x) in (Outcome.PASS, Outcome.FAIL)
            else:
                refused += 1
                with pytest.raises(OutOfDomain):
                    oracle_label(config, x)
        assert refused


PICKLE_CONFIGS = [
    default_config(7),
    OracleConfig(GUARD_ODDS[1], parse_rule("(f1 + f2 < 3) and (f0 / f3 > 1) or (f7 == 2.5)"), 3),
    OracleConfig(GUARD_ODDS[2], parse_rule("(a != 0) and (a > 0.0005) or (b > 7)"), 0),
]


def _label_or_refusal(config, x):
    try:
        return oracle_label(config, x)
    except OutOfDomain as exc:
        return str(exc)


class TestOracleConfigPickling:
    @pytest.mark.parametrize("config", PICKLE_CONFIGS, ids=lambda c: ",".join(c.odd.names))
    def test_reloaded_config_compares_equal_and_labels_alike(self, config):
        oracle_label(config, {v.name: v.min for v in config.odd.variables})  # used first
        copy = pickle.loads(pickle.dumps(config))
        assert copy == config and hash(copy) == hash(config) and repr(copy) == repr(config)
        rng = random.Random(9)
        points = list(_guard_points(config.odd, rng))
        points += [{v.name: v.grid_value(rng.randrange(v.grid_count)) for v in config.odd.variables}
                   for _ in range(300)]
        labels = [_label_or_refusal(config, x) for x in points]
        assert [_label_or_refusal(copy, x) for x in points] == labels
        assert {Outcome.PASS, Outcome.FAIL} <= set(labels)

    def test_refusal_names_the_point(self):
        x = {"ego_speed": 31.0, "dist_front": 1.0, "lane_offset": 0.0}
        with pytest.raises(OutOfDomain) as excinfo:
            oracle_label(default_config(), x)
        assert str(excinfo.value) == f"input outside declared ranges: {x}"
        with pytest.raises(OutOfDomain) as excinfo:
            oracle_label(default_config(), {"ego_speed": 1.0})
        assert str(excinfo.value) == "input outside declared ranges: {'ego_speed': 1.0}"

    def test_the_label_raises_the_one_refusal_class(self):
        """semantics defines OutOfDomain, the compiled label raises it, and
        scenario and ruleforge export that same class; a missing variable's
        KeyError is not chained to it."""
        assert OutOfDomain is scenario.OutOfDomain is semantics.OutOfDomain
        label = semantics.compile_label(parse_rule("(a > 1)"), (("a", 0.0, 2.0),))
        with pytest.raises(OutOfDomain) as excinfo:
            label({"b": 1.0})
        assert str(excinfo.value) == "input outside declared ranges: {'b': 1.0}"
        assert excinfo.value.__suppress_context__

    def test_configs_compare_by_their_fields(self):
        assert default_config(3) == default_config(3)
        assert hash(default_config(3)) == hash(default_config(3))
        assert default_config(3) != default_config(4)


# ---------------------------------------------------------------------------
# The compiled label against the two-call path it replaced (the guard
# OddSpec.contains_point, written here as _ref_contains_point, then the safe
# region's compile_rule function), kept here as the reference only.
# ---------------------------------------------------------------------------

def _reference_label_or_refusal(config, x):
    if not _ref_contains_point(config.odd, x):
        return f"input outside declared ranges: {x}"
    return Outcome.PASS if compile_rule(config.safe_region)(x, None) else Outcome.FAIL


LABEL_CONFIGS = [OracleConfig(odd, parse_rule(f"{odd.variables[0].name} >= {odd.variables[0].min}"),
                              seed=0)
                 for odd in GUARD_ODDS] + PICKLE_CONFIGS


def _label_points(config, rng):
    """The guard points, grid points, and for a rule dividing by f3, points
    where f3 is zero (the division's relation is false) with and without
    the other disjunct holding."""
    points = list(_guard_points(config.odd, rng))
    points += [{v.name: v.grid_value(rng.randrange(v.grid_count)) for v in config.odd.variables}
               for _ in range(300)]
    if "f3" in config.odd:
        points += [{**x, "f3": zero, "f7": f7} for x in points[-50:]
                   for zero in (0.0, -0.0) for f7 in (2.5, 1.0)]
    return points


class TestCompiledLabel:
    @pytest.mark.parametrize("config", LABEL_CONFIGS, ids=lambda c: print_rule(c.safe_region))
    def test_matches_the_guard_then_the_safe_region(self, config):
        rng = random.Random(11)
        points = _label_points(config, rng)
        expected = [_reference_label_or_refusal(config, x) for x in points]
        assert {Outcome.PASS, Outcome.FAIL} <= set(expected)
        assert any(isinstance(e, str) for e in expected)
        for copy in (config, pickle.loads(pickle.dumps(config)),
                     dataclasses.replace(config, seed=config.seed + 1)):
            got = [_label_or_refusal(copy, x) for x in points]
            for x, label, reference in zip(points, got, expected):
                assert label is reference if isinstance(reference, Outcome) else \
                    label == reference, x

    def test_division_by_zero_makes_its_relation_false(self):
        config = PICKLE_CONFIGS[1]  # (f1 + f2 < 3) and (f0 / f3 > 1) or (f7 == 2.5)
        x = {name: 0.0 for name in config.odd.names}
        assert oracle_label(config, {**x, "f0": 2.0, "f3": 1.0}) is Outcome.PASS
        assert oracle_label(config, {**x, "f0": 2.0}) is Outcome.FAIL
        assert oracle_label(config, {**x, "f0": 2.0, "f7": 2.5}) is Outcome.PASS

    def test_the_label_is_built_once_per_config_and_not_pickled(self):
        config = default_config(5)
        assert config.label is config.label
        assert config.on_grid is config.on_grid
        assert {"label", "on_grid"} <= set(config.__dict__)
        state = pickle.loads(pickle.dumps(config)).__dict__
        assert set(state) == {"odd", "safe_region", "seed"}
        copy = dataclasses.replace(config, seed=6)
        assert copy.label is not config.label
        assert copy.on_grid is not config.on_grid and copy.on_grid.label is not config.on_grid.label


class TestOracleCallPath:
    def test_every_query_looks_up_the_module_level_label(self, fixture42, monkeypatch):
        """A wrapper installed on scenario.oracle_label after make_oracle (as
        the benchmark's tracer installs one) sees every query."""
        oracle = make_oracle(fixture42.config)
        calls = []
        original = scenario.oracle_label

        def counting(config, x):
            calls.append(x)
            return original(config, x)

        monkeypatch.setattr(scenario, "oracle_label", counting)
        build_evidence(fixture42.baseline_rule, fixture42.dataset, oracle, fixture42.config.odd)
        assert oracle.queries > 0 and len(calls) == oracle.queries

    def test_a_wrapper_put_between_two_searches_sees_the_second(self, fixture42, monkeypatch):
        """The label is looked up when a search starts: a wrapper put on
        scenario.oracle_label after one search of an oracle sees every query
        of its next search, and the first search's queries stay counted."""
        config = fixture42.config
        oracle = make_oracle(config)
        first, second = [run for run in fixture42.dataset
                         if evaluate(fixture42.baseline_rule.ast, run.x)
                         and run.y is Outcome.FAIL][:2]
        search_counterfactual(first.x, first.y, oracle, config.odd)
        before = oracle.queries
        calls = []
        original = scenario.oracle_label
        monkeypatch.setattr(scenario, "oracle_label",
                            lambda view, x: calls.append(x) or original(view, x))
        search_counterfactual(second.x, second.y, oracle, config.odd)
        assert before > 0 and len(calls) == oracle.queries - before > 0

    def test_an_assigned_label_replaces_the_lookup(self, fixture42, monkeypatch):
        """`oracle.label = f` makes f the label of every later search; the
        module-level oracle_label is then not called."""
        config = fixture42.config
        oracle = make_oracle(config)
        module_calls, calls = [], []
        original = scenario.oracle_label
        monkeypatch.setattr(scenario, "oracle_label",
                            lambda view, x: module_calls.append(x) or original(view, x))

        def label(x):
            calls.append(x)
            return Outcome.FAIL

        oracle.label = label
        assert oracle.label is label
        with pytest.raises(CounterfactualNotFound):
            search_counterfactual(X1, Outcome.FAIL, oracle, config.odd, max_radius_steps=2)
        assert module_calls == [] and len(calls) == oracle.queries > 0

    @pytest.mark.parametrize("case", ["sim/fixture", "wide"])
    def test_a_refine_labels_as_a_fresh_evidence_build(self, case, tmp_path, monkeypatch):
        """A wrapper put on scenario.oracle_label before a CLI refine counts
        exactly the queries of a fresh build_evidence of its target, the
        check the benchmark's traced mode makes, on the reference fixture
        and on the 8-feature domain."""
        directory = Path(__file__).parent / "golden" / case
        calls = []
        original = scenario.oracle_label
        monkeypatch.setattr(scenario, "oracle_label",
                            lambda view, x: calls.append(x) or original(view, x))
        assert main(["refine", "--rules", str(directory / "rules.json"),
                     "--dataset", str(directory / "dataset.csv"),
                     "--config", str(directory / "oracle_config.json"),
                     "--generator", "local", "--out", str(tmp_path)]) == 0
        monkeypatch.undo()
        config, runs, rules = _load_case(directory)
        oracle = make_oracle(config)
        build_evidence(rules[0], runs, oracle, config.odd)
        assert len(calls) == oracle.queries > 0

    def test_fixture_refine_compiles_each_rule_once(self, tmp_path, monkeypatch):
        """A fixture refine compiles one rule shape, shared by the baseline
        and the candidates scored, and the oracle's label: two compiles from
        an empty code table. A second refine compiles nothing and writes the
        same bytes."""
        assert main(["sim", "--reference-fixture", "--seed", "42", "--out", str(tmp_path)]) == 0
        names = []

        def counting(source, filename, mode):
            names.append(filename)
            return builtins.compile(source, filename, mode)

        monkeypatch.setattr(semantics, "compile", counting, raising=False)
        semantics._code.cache_clear()
        outputs = []
        for run in ("run", "run-again"):
            out = tmp_path / run
            assert main(["refine", "--rules", str(tmp_path / "rules.json"),
                         "--dataset", str(tmp_path / "dataset.csv"),
                         "--config", str(tmp_path / "oracle_config.json"),
                         "--generator", "local", "--out", str(out)]) == 0
            assert sorted(names) == ["<label>", "<rule>"]
            outputs.append([(out / name).read_bytes() for name in ("outcome.json", "report.txt")])
        assert outputs[0] == outputs[1]


# ---------------------------------------------------------------------------
# The search's oracle labels through the config's on-grid view, which has no
# domain guard: every probe must be one the guarded label admits, with the
# same verdict.
# ---------------------------------------------------------------------------

GOLDEN = Path(__file__).parent / "golden"
#: Inputs as the CLI loads them: the reference fixture and the 8-feature domain.
GRID_CASES = [GOLDEN / "sim" / "fixture", GOLDEN / "wide"]


def _load_case(directory):
    """A config fresh from its file, its dataset loaded against its ODD, and its rules."""
    config = storage.load_oracle_config(directory / "oracle_config.json")
    runs = storage.load_dataset(directory / "dataset.csv", config.odd)
    return config, runs, storage.load_rules(directory / "rules.json", config.odd.names)


def _edge_runs(odd, rng):
    """Per variable, a run at its grid index 0 and one at grid_count - 1, the
    other variables drawn on the grid; then each of them moved off its grid
    points by 4e-10 one way or the other, within DOMAIN_TOL."""
    runs = []
    for v in odd.variables:
        for k in (0, v.grid_count - 1):
            x = {w.name: w.points[rng.randrange(w.grid_count)] for w in odd.variables}
            runs.append({**x, v.name: v.points[k]})
    return runs + [{name: value + (4e-10 if (i + j) % 2 else -4e-10)
                    for j, (name, value) in enumerate(x.items())} for i, x in enumerate(runs)]


class TestOnGridOracle:
    @pytest.mark.parametrize("directory", GRID_CASES, ids=lambda d: d.name)
    def test_every_probe_gets_the_guarded_verdict(self, directory):
        config, runs, rules = _load_case(directory)
        oracle = make_oracle(config)
        probes, label = [], oracle.label

        def recording(x):
            y = label(x)
            probes.append((x, y))
            return y

        oracle.label = recording
        evidence = build_evidence(rules[0], runs, oracle, config.odd,
                                  SearchLimits(budget=2_000))
        assert "label" not in config.__dict__  # the search never built the guarded label
        searched = len(probes)
        for x in _edge_runs(config.odd, random.Random(3)):
            try:
                search_counterfactual(x, oracle_label(config, x), oracle, config.odd,
                                      max_radius_steps=6, budget=500)
            except (CounterfactualNotFound, OracleBudgetExceeded):
                pass
        assert evidence.pairs and 0 < searched < len(probes) == oracle.queries
        for x, y in probes:
            assert oracle_label(config, x) is y, x  # an OutOfDomain fails it too

    @pytest.mark.parametrize("directory", GRID_CASES, ids=lambda d: d.name)
    def test_a_refine_never_builds_the_guarded_label(self, directory):
        config, runs, rules = _load_case(directory)
        refine_loop(rules[0], rules, runs, make_oracle(config), config.odd,
                    DeterministicGenerator())
        assert "label" not in config.__dict__ and "on_grid" in config.__dict__

    def test_the_view_checks_no_domain(self):
        """Off the grid the view gives a verdict where the config refuses, and
        a variable the safe region reads and x lacks is unbound."""
        config = default_config()
        x = {"ego_speed": 31.0, "dist_front": 1.0, "lane_offset": 9.0}
        with pytest.raises(OutOfDomain):
            oracle_label(config, x)
        assert oracle_label(config.on_grid, x) is Outcome.PASS
        assert make_oracle(config).label(x) is Outcome.PASS
        with pytest.raises(semantics.UnboundVariable):
            oracle_label(config.on_grid, {"ego_speed": 1.0})

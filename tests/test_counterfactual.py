import itertools
import json
import random
from decimal import Decimal
from pathlib import Path

import pytest

from ruleforge import (CounterfactualNotFound, NoInconsistency, Oracle,
                       OracleBudgetExceeded, Outcome, PolarizedRule, Polarity, SearchLimits,
                       build_evidence, decisiveness, make_oracle, odd_spec, oracle_label,
                       parse_rule, search_counterfactual)
from ruleforge.cli import main
from ruleforge import counterfactual
from ruleforge.counterfactual import TABLE_FEATURES, _Rings
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
            # oracle_label on the config raises OutOfDomain on out-of-range
            # points, so this re-check also certifies domain safety (the
            # search's own oracle does not check the domain)
            assert oracle_label(config, pair.x_cf) is pair.y_cf
            assert all(v.index_of(pair.x_cf[v.name]) is not None for v in config.odd.variables)
            for name, value in pair.delta.items():
                assert abs(pair.x_cf[name] - pair.x[name] - value) < 1e-12

    def test_near_grid_run_moves_by_its_delta(self, fixture42):
        """A run within DOMAIN_TOL of its grid points is searched from their
        indices: the features it moves land on grid values, the others keep
        the run's values, and the pair's delta is still x_cf - x."""
        config = fixture42.config
        evidence = build_evidence(fixture42.baseline_rule, fixture42.dataset,
                                  make_oracle(config), config.odd)
        for i, pair in enumerate(evidence.pairs):
            x = {name: value + (-4e-10 if i % 2 else 4e-10) for name, value in pair.x.items()}
            near = search_counterfactual(x, pair.y, make_oracle(config), config.odd)
            assert near.x == x and near.y_cf is not near.y
            assert oracle_label(config, near.x_cf) is near.y_cf  # in the domain, as above
            for name, value in near.x_cf.items():
                if name in near.delta:
                    assert value in config.odd.get(name).grid_values()
                    assert abs(value - x[name] - near.delta[name]) < 1e-12
                else:
                    assert value == x[name]
            assert near.l1 == pytest.approx(sum(map(abs, near.delta.values())), abs=1e-12)

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


    @pytest.mark.parametrize("k", [1, 2, 9])
    def test_a_raising_label_is_counted_once(self, k):
        """A label that raises on its k-th call: the exception reaches the
        caller, and the search adds its k calls to the oracle's count."""
        odd = odd_spec([("a", 0.0, 10.0, 1.0), ("b", 0.0, 10.0, 1.0)])
        calls = []

        def label(probe):
            calls.append(probe)
            if len(calls) == k:
                raise RuntimeError("simulator crashed")
            return Outcome.FAIL

        oracle = Oracle(label)
        oracle.queries = 5  # earlier searches' queries stay counted
        with pytest.raises(RuntimeError, match="simulator crashed"):
            search_counterfactual({"a": 5.0, "b": 5.0}, Outcome.FAIL, oracle, odd, 5)
        assert len(calls) == k and oracle.queries == 5 + k

    @pytest.mark.parametrize("features,max_radius", [(6, 3), (3, 5)],
                             ids=["walk", "shared-rings"])
    def test_budget_ending_inside_a_table(self, features, max_radius):
        """On a 6-feature domain, whose last three features come from tables,
        and on a 3-feature domain, whose rings come from the shared table
        and are cut by the bounds from radius 2 on, every budget short of
        the whole search makes exactly `budget` label calls, the reference's
        first probes in order, and then raises, also where the budget runs
        out inside a table or a ring."""
        odd = odd_spec([(f"f{i}", 0.0, 3.0, 1.0) for i in range(features)])
        names = odd.names
        x = {name: 1.0 for name in names}
        expected = list(_ref_probes(x, odd, max_radius))
        radii = [round(sum(abs(probe[n] - x[n]) for n in names)) for probe in expected]
        if features > TABLE_FEATURES:
            # where the search's tables end, counted in probes
            values = [{m: 1.0 + m for m in range(-1, 3)} for _ in names]
            rings = _Rings(x, names, values, [1] * features, [2] * features)
            ends = set(itertools.accumulate(
                len(moved) for radius in range(1, max_radius + 1)
                for row in rings.walk(radius) for _, _, _, moved in row))
        else:  # a ring is checked as a whole
            ends = {k for k in range(1, len(radii)) if radii[k] != radii[k - 1]}
            ends.add(len(expected))
        assert max(ends) == len(expected)
        inside = 0
        for budget in range(len(expected) + 1):
            seen = []
            oracle = Oracle(lambda probe: seen.append(dict(probe)) or Outcome.FAIL)
            if budget < len(expected):
                with pytest.raises(OracleBudgetExceeded,
                                   match=f"budget of {budget} queries exhausted "
                                         f"at radius {radii[budget]}$"):
                    search_counterfactual(x, Outcome.FAIL, oracle, odd, max_radius, budget)
                inside += 0 < budget and budget not in ends
            else:  # the budget runs out at the last probe of the last ring
                with pytest.raises(CounterfactualNotFound):
                    search_counterfactual(x, Outcome.FAIL, oracle, odd, max_radius, budget)
            assert seen == expected[:budget] and oracle.queries == budget
        assert inside >= 50


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


# ---------------------------------------------------------------------------
# The ring walk's enumeration against the recursive generator it replaced,
# kept here as the reference only.
# ---------------------------------------------------------------------------


def _ref_offset_vectors(down, up, total):
    if not down:
        if total == 0:
            yield ()
        return
    choices = itertools.chain(range(-min(down[0], total), 0),
                              range(1, min(up[0], total) + 1), (0,))
    for m in choices:
        for tail in _ref_offset_vectors(down[1:], up[1:], total - abs(m)):
            yield (m, *tail)


def _walk_offsets(down, up, total):
    """The offset vectors of one ring, read from the walk's prefix `offsets`
    and each row entry's last leading offset and trailing moves; each probe,
    `work` with the entry's value written in as the search writes it and
    merged with one of the entry's dicts, must hold exactly the values its
    vector selects."""
    names = [f"f{i}" for i in range(len(down))]
    # distinct values per feature and offset, so a stale write shows
    values = [{m: 100.0 * i + m for m in range(-d, u + 1)}
              for i, (d, u) in enumerate(zip(down, up))]
    x = {name: table[0] for name, table in zip(names, values)}
    rings = _Rings(x, names, values, down, up)
    last = rings.lead - 1
    vectors = []
    for row in rings.walk(total):
        for m, value, moves, moved in row:
            assert len(moves) == len(moved)
            rings.work[names[last]] = value
            for trail, entry in zip(moves, moved):
                offsets = [*rings.offsets, m, *[0] * (len(down) - rings.lead)]
                for i, k in trail:
                    offsets[rings.lead + i] = k
                offsets = tuple(offsets)
                probe = rings.work | entry
                assert probe == {name: table[k] for name, table, k in zip(names, values, offsets)}
                vectors.append(offsets)
    # a ring walked to its end leaves no offset or value behind, but for the
    # last leading feature, which every row entry sets before its probes
    assert rings.offsets == [0] * last
    assert {**rings.work, names[last]: x[names[last]]} == x
    return vectors


class TestOffsetEnumeration:
    """The walk of a domain wider than TABLE_FEATURES, leading features and
    tables together, gives the reference's offset vectors in its order."""

    @pytest.mark.parametrize("down,up,total", [
        ([0] * 4, [0] * 4, 0), ([0] * 6, [0] * 6, 1),  # no room at all, at total 0 and 1
        ([3, 2, 0, 1], [1, 4, 2, 0], 0),               # total == 0
        ([0, 1, 2, 0, 3, 1, 0], [2, 0, 0, 1, 0, 0, 3], 0),
        ([0, 0, 0, 0], [2, 1, 3, 1], 3),               # no room below
        ([2, 1, 3, 1], [0, 0, 0, 0], 4),               # no room above
        ([0] * 4, [0] * 4, 1), ([0] * 5, [0] * 5, 2),  # no room at all
        ([2, 3, 3, 1], [0, 1, 3, 0], 6),               # last feature short
        ([4, 2, 4, 4, 1], [4, 0, 4, 4, 0], 5),
        ([1, 1, 1, 1], [1, 1, 1, 0], 5),               # beyond every feature's reach
    ])
    def test_edge_cases_match_the_recursive_reference(self, down, up, total):
        assert _walk_offsets(down, up, total) == list(_ref_offset_vectors(down, up, total))

    def test_random_cases_match_the_recursive_reference(self):
        rng = random.Random(7)
        nonempty = 0
        for _ in range(400):
            n = rng.randint(TABLE_FEATURES + 1, 7)
            down = [rng.choice((0, 0, 1, 2, 3, 5)) for _ in range(n)]
            up = [rng.choice((0, 0, 1, 2, 3, 5)) for _ in range(n)]
            total = rng.randint(0, 12)
            expected = list(_ref_offset_vectors(down, up, total))
            assert _walk_offsets(down, up, total) == expected, (down, up, total)
            nonempty += bool(expected)
        assert nonempty >= 200  # most cases enumerate something


class TestSharedRings:
    """A domain of at most TABLE_FEATURES features reads its rings from one
    table of the process, kept to the run's bounds."""

    def test_kept_rings_match_the_recursive_reference(self):
        """Every n up to 3 and radius up to 5, with bounds from 0 to r + 1
        per side: all of them for n <= 2, seeded samples for n = 3."""
        rng = random.Random(5)
        for n in range(TABLE_FEATURES + 1):
            for r in range(6):
                sides = range(r + 2)
                if n < TABLE_FEATURES:
                    cases = itertools.product(sides, repeat=2 * n)
                else:
                    cases = (tuple(rng.choice(sides) for _ in range(2 * n)) for _ in range(300))
                for bounds in cases:
                    down, up = list(bounds[:n]), list(bounds[n:])
                    vectors = []
                    for moves in counterfactual._within(counterfactual._RINGS[n, r], down, up):
                        vector = [0] * n
                        for i, m in moves:
                            vector[i] = m
                        vectors.append(tuple(vector))
                    assert vectors == list(_ref_offset_vectors(down, up, r)), (down, up, r)

    def test_two_searches_read_the_same_table(self, monkeypatch):
        """Two searches on different 3-feature domains, each from a corner,
        keep ring 1 of one and the same table object to their bounds."""
        read = []
        within = counterfactual._within
        monkeypatch.setattr(counterfactual, "_within",
                            lambda ring, down, up: read.append(ring) or within(ring, down, up))
        for step in (1.0, 0.5):
            odd = odd_spec([(f"f{i}", 0.0, 3.0, step) for i in range(3)])
            x = {name: 0.0 for name in odd.names}
            oracle = Oracle(lambda probe: Outcome.PASS)
            search_counterfactual(x, Outcome.FAIL, oracle, odd, max_radius_steps=1)
            assert oracle.queries == 1
        assert len(read) == 2 and read[0] is read[1] is counterfactual._RINGS[3, 1]

    def test_wide_search_reads_its_tables_from_the_shared_rings(self, monkeypatch):
        """An 8-feature search takes its last three features' vectors at
        each remainder from the shared 3-feature ring of that remainder,
        once per remainder."""
        read = []
        within = counterfactual._within
        monkeypatch.setattr(counterfactual, "_within",
                            lambda ring, down, up: read.append(ring) or within(ring, down, up))
        odd = odd_spec([(f"f{i}", 0.0, 3.0, 1.0) for i in range(8)])
        x = {name: 1.0 for name in odd.names}
        with pytest.raises(CounterfactualNotFound):
            search_counterfactual(x, Outcome.FAIL, Oracle(lambda probe: Outcome.FAIL), odd,
                                  max_radius_steps=2)
        assert len(read) == 3
        assert all(ring is counterfactual._RINGS[3, r] for ring, r in zip(read, (0, 1, 2)))


def _ref_probes(x, odd, max_radius):
    """Every probe of a search in order, built from the reference offsets
    with the Decimal expression of the search before the walk built them in
    place: a copy of x with each moved feature at float(base + step * m)."""
    def dec(value):
        return Decimal(repr(value))

    down = [int((dec(x[v.name]) - dec(v.min)) / dec(v.step)) for v in odd.variables]
    up = [int((dec(v.max) - dec(x[v.name])) / dec(v.step)) for v in odd.variables]
    for radius in range(1, max_radius + 1):
        for offsets in _ref_offset_vectors(down, up, radius):
            probe = dict(x)
            for v, m in zip(odd.variables, offsets):
                if m:
                    probe[v.name] = float(dec(x[v.name]) + dec(v.step) * m)
            yield probe


def random_stepped_instance(rng):
    """1-4 features with decimal steps and offset origins, a grid point x
    that also carries a key the domain does not declare."""
    variables = []
    for i in range(rng.randint(1, 4)):
        step = rng.choice((0.1, 0.25, 0.3, 0.5, 1.0, 2.5))
        lo = rng.choice((-1.5, -0.3, 0.0, 0.7, 12.1))
        variables.append((f"f{i}", lo, round(lo + step * rng.randint(0, 6), 6), step))
    odd = odd_spec(variables)
    x = {"tag": 7.0}
    x.update({v.name: v.grid_value(rng.randrange(v.grid_count)) for v in odd.variables})
    return odd, x


def random_wide_instance(rng):
    """4-8 features on grids of 1-6 points, and a run x on an edge or a
    corner of most of them, whose keys come in a shuffled order."""
    variables = []
    for i in range(rng.randint(4, 8)):
        step = rng.choice((0.1, 0.25, 0.3, 0.5, 1.0))
        lo = rng.choice((-1.5, -0.3, 0.0, 0.7))
        variables.append((f"f{i}", lo, round(lo + step * rng.randint(0, 5), 6), step))
    odd = odd_spec(variables)
    keys = {v.name: v.grid_value(rng.choice((0, v.grid_count - 1, rng.randrange(v.grid_count))))
            for v in odd.variables}
    keys["tag"] = 7.0
    order = list(keys)
    rng.shuffle(order)
    return odd, {name: keys[name] for name in order}


class TestProbeSequence:
    """The dicts handed to the oracle are the reference probes, in order and
    value by value; each query gets its own dict."""

    @pytest.mark.parametrize("mutate", [False, True], ids=["reader", "mutator"])
    def test_probes_match_the_reference(self, mutate):
        rng = random.Random(11)
        flipped = 0
        for _ in range(150):
            odd, x = random_stepped_instance(rng)
            max_radius = rng.randint(1, 8)
            expected = list(_ref_probes(x, odd, max_radius))
            flip_at = rng.randrange(len(expected) + 1) if expected else 0
            seen, copies = [], []

            def label(probe):
                seen.append(probe)
                copies.append(dict(probe))
                if mutate:  # a misbehaving oracle must not reach later probes or x_cf
                    for name in odd.names:
                        probe[name] = -999.0
                    probe["extra"] = 1.0
                return Outcome.PASS if len(seen) > flip_at else Outcome.FAIL

            x_before = dict(x)
            if flip_at < len(expected):
                pair = search_counterfactual(x, Outcome.FAIL, Oracle(label), odd, max_radius)
                assert pair.x_cf == expected[flip_at]
                assert list(pair.x_cf) == list(x)  # key order of the run
                assert pair.x_cf is not seen[-1]
                flipped += 1
            else:
                with pytest.raises(CounterfactualNotFound):
                    search_counterfactual(x, Outcome.FAIL, Oracle(label), odd, max_radius)
            assert copies == expected[:flip_at + 1]
            assert len({id(probe) for probe in seen}) == len(seen)
            if not mutate:  # no dict handed out was changed after its query
                assert seen == copies
            assert x == x_before
        assert flipped >= 100

    def test_wide_domains_match_the_reference(self):
        """4-8 features, where the last three features come from tables:
        every probe, the flipped pair, and where a budget cuts the search."""
        rng = random.Random(29)
        outcomes = {"flipped": 0, "budget": 0, "not found": 0}
        for _ in range(100):
            odd, x = random_wide_instance(rng)
            max_radius = rng.randint(1, 5)
            expected = list(_ref_probes(x, odd, max_radius))
            budget = rng.randrange(len(expected) + 1) if rng.random() < 0.4 else len(expected)
            never = len(expected)
            flip_at = never if rng.random() < 0.3 else rng.randrange(never + 1)
            copies = []

            def label(probe):
                copies.append(dict(probe))
                return Outcome.PASS if len(copies) > flip_at else Outcome.FAIL

            oracle = Oracle(label)
            if flip_at < min(budget, len(expected)):
                pair = search_counterfactual(x, Outcome.FAIL, oracle, odd, max_radius, budget)
                assert pair.x_cf == expected[flip_at] and list(pair.x_cf) == list(x)
                steps = {v.name: Decimal(repr(v.step)) for v in odd.variables}
                moves = {name: round((pair.x_cf[name] - x[name]) / float(steps[name]))
                         for name in odd.names if pair.x_cf[name] != x[name]}
                assert pair.delta == {name: float(steps[name] * m) for name, m in moves.items()}
                assert pair.l1 == float(sum(abs(Decimal(repr(d))) for d in pair.delta.values()))
                assert pair.l1_steps == sum(abs(m) for m in moves.values())
                outcomes["flipped"] += 1
            elif budget < len(expected):
                with pytest.raises(OracleBudgetExceeded):
                    search_counterfactual(x, Outcome.FAIL, oracle, odd, max_radius, budget)
                outcomes["budget"] += 1
            else:
                with pytest.raises(CounterfactualNotFound):
                    search_counterfactual(x, Outcome.FAIL, oracle, odd, max_radius, budget)
                outcomes["not found"] += 1
            assert copies == expected[:min(flip_at + 1, budget)]
            assert oracle.queries == len(copies)
        assert min(outcomes.values()) >= 8, outcomes


class TestWideProbeOrder:
    """Black box, through search_counterfactual alone: on domains wider than
    TABLE_FEATURES, the probes, the flip, the budget and the query count
    are those of the reference, whatever the walk's rows and tables."""

    def test_probes_and_budgets_match_the_reference(self):
        """Seeded domains of TABLE_FEATURES + 1 to 7 features, with runs at
        grid index 0, 1, grid_count - 1 and random ones: the whole search's
        probes in order; a flip; every budget up to the first 200 probes,
        which makes exactly `budget` label calls and then raises with the
        radius where it ran out; and a label that raises."""
        rng = random.Random(43)
        budgets = 0
        for case in range(16):
            variables = []
            for i in range(rng.randint(TABLE_FEATURES + 1, 7)):
                step = rng.choice((0.1, 0.25, 0.5, 1.0))
                lo = rng.choice((-1.5, 0.0, 0.7))
                variables.append((f"f{i}", lo, round(lo + step * rng.randint(1, 5), 6), step))
            odd = odd_spec(variables)
            x = {v.name: v.points[rng.choice((0, 1, v.grid_count - 1,
                                              rng.randrange(v.grid_count)))]
                 for v in odd.variables}
            max_radius = rng.randint(3, 6)
            expected = list(_ref_probes(x, odd, max_radius))
            radii = [round(sum(abs(probe[v.name] - x[v.name]) / v.step for v in odd.variables))
                     for probe in expected]

            def search(budget, flip_at=None, raise_at=None):
                seen = []

                def label(probe):
                    seen.append(dict(probe))
                    if len(seen) == raise_at:
                        raise RuntimeError("simulator crashed")
                    return Outcome.PASS if len(seen) == flip_at else Outcome.FAIL

                oracle = Oracle(label)
                try:
                    return search_counterfactual(x, Outcome.FAIL, oracle, odd, max_radius,
                                                 budget), seen, oracle
                except (CounterfactualNotFound, OracleBudgetExceeded, RuntimeError) as exc:
                    return exc, seen, oracle

            result, seen, oracle = search(len(expected))
            assert isinstance(result, CounterfactualNotFound), case
            assert seen == expected and oracle.queries == len(expected), case
            k = rng.randint(1, len(expected))
            pair, seen, oracle = search(len(expected), flip_at=k)
            assert pair.x_cf == expected[k - 1] and pair.l1_steps == radii[k - 1], case
            assert seen == expected[:k] and oracle.queries == k, case
            error, seen, oracle = search(len(expected), raise_at=k)
            assert isinstance(error, RuntimeError) and oracle.queries == len(seen) == k, case
            for budget in range(min(len(expected), 201)):
                error, seen, oracle = search(budget)
                assert isinstance(error, OracleBudgetExceeded), (case, budget)
                assert str(error) == (f"budget of {budget} queries exhausted "
                                      f"at radius {radii[budget]}"), (case, budget)
                assert seen == expected[:budget] and oracle.queries == budget, (case, budget)
                budgets += 1
        assert budgets >= 1500


GOLDEN_EVIDENCE = Path(__file__).parent / "golden" / "evidence.json"


def test_evidence_matches_golden(tmp_path, monkeypatch):
    """`sim --reference-fixture --seed 42`, then, in the output directory,
    `cf --rules rules.json --dataset dataset.csv --config oracle_config.json
    --search-budget 40 --out evidence.json` must reproduce the checked-in
    file byte for byte: 16 pairs and 11 runs unresolved within the budget.
    Regenerate it only for an intended change to the search or its file
    format, with the same commands.
    """
    monkeypatch.chdir(tmp_path)  # the file records the dataset path as given
    assert main(["sim", "--reference-fixture", "--seed", "42", "--out", "."]) == 0
    assert main(["cf", "--rules", "rules.json", "--dataset", "dataset.csv",
                 "--config", "oracle_config.json", "--search-budget", "40",
                 "--out", "evidence.json"]) == 0
    assert (tmp_path / "evidence.json").read_bytes() == GOLDEN_EVIDENCE.read_bytes()
    golden = json.loads(GOLDEN_EVIDENCE.read_text())
    assert (len(golden["pairs"]), len(golden["unresolved"])) == (16, 11)


GOLDEN_WIDE = Path(__file__).parent / "golden" / "wide"


def test_wide_evidence_matches_golden(tmp_path, monkeypatch):
    """An 8-feature search, locked byte for byte. The inputs in `golden/wide/`
    are the `perfbench` wide domain and safe region (`oracle_config.json`,
    seed 5), its baseline pass rule (`rules.json`), and the dataset of
    `sim --n 400 --seed 5 --config oracle_config.json`. In that directory,
    `cf --rules rules.json --dataset dataset.csv --config oracle_config.json
    --search-budget 2000 --out ../evidence_wide.json` must reproduce the
    checked-in file: 8 pairs, of radius 1 to 4, and 4 runs whose search ran
    out of budget. Regenerate it only for an intended change to the search
    or its file format, with the same commands.
    """
    monkeypatch.chdir(GOLDEN_WIDE)  # the file records the dataset path as given
    out = tmp_path / "evidence_wide.json"
    assert main(["cf", "--rules", "rules.json", "--dataset", "dataset.csv",
                 "--config", "oracle_config.json", "--search-budget", "2000",
                 "--out", str(out)]) == 0
    golden = GOLDEN_WIDE.parent / "evidence_wide.json"
    assert out.read_bytes() == golden.read_bytes()
    evidence = json.loads(golden.read_text())
    assert (len(evidence["pairs"]), len(evidence["unresolved"])) == (8, 4)
    assert sorted({pair["l1_steps"] for pair in evidence["pairs"]}) == [1, 2, 3, 4]

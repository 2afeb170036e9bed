"""Synthetic driving-scenario oracle and seeded dataset construction.

Stands in for an expensive simulator: a ground-truth safe region expressed
in the rule DSL labels any in-domain input deterministically. Every label
is one call of the config's label function (OracleConfig.label), which
semantics.compile_label generates from the ODD's bounds and the safe region
in one compile, on first use: it checks the point against every ODD bound
and itself raises OutOfDomain (defined in semantics, exported here) for a
point outside, then evaluates the safe region inline. The canned fixture
pairs a 198-run dataset with a baseline pass rule that mismatches the
oracle on exactly 27 runs, so refinement experiments have a stable,
reproducible starting point.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property

from .counterfactual import Oracle
from .grammar import OddSpec, RuleAst, check_vocabulary, odd_spec, parse_rule
from .semantics import (Label, LabeledRun, Outcome, OutOfDomain, PolarizedRule, Polarity,
                        compile_label, evaluate)

DEFAULT_ODD = odd_spec([
    ("ego_speed", 0.0, 30.0, 0.5),
    ("dist_front", 0.0, 50.0, 0.2),
    ("lane_offset", -2.0, 2.0, 0.1),
])

#: Safe iff the front vehicle is close while moving (following behavior under
#: test) or the vehicle is stationary.
DEFAULT_SAFE_REGION = "(dist_front < 4.05) and (ego_speed > 0) or (ego_speed == 0)"

BASELINE_RULE_TEXT = "(dist_front < 5.0) and (ego_speed > 0)"
FIXTURE_SIZE = 198
FIXTURE_MISMATCHES = 27


class ConstructionFailure(RuntimeError):
    """The safe region names a variable outside the config's ODD."""


@dataclass(frozen=True)
class OracleConfig:
    odd: OddSpec
    safe_region: RuleAst
    seed: int

    def __post_init__(self):
        violations = check_vocabulary(self.safe_region, self.odd)
        if violations:
            raise ConstructionFailure(f"safe region not vocabulary-clean: {violations}")

    @cached_property
    def label(self) -> Label:
        """The oracle label of this config, from one compile on first use.
        It is kept on the instance, outside the fields, so equality, hash
        and repr ignore it, and dataclasses.replace builds a new one."""
        return compile_label(self.safe_region, self.odd.bounds)

    def __getstate__(self):
        # The fields only: the compiled label cannot be pickled and is
        # rebuilt on use.
        return {"odd": self.odd, "safe_region": self.safe_region, "seed": self.seed}


def default_config(seed: int = 42) -> OracleConfig:
    return OracleConfig(odd=DEFAULT_ODD, safe_region=parse_rule(DEFAULT_SAFE_REGION), seed=seed)


def oracle_label(config: OracleConfig, x: dict[str, float]) -> Outcome:
    """Pass iff x satisfies the configured safe region; OutOfDomain unless x
    binds every ODD variable within its range. Deterministic. One call of
    config.label, which runs the full domain guard on every query."""
    return config.label(x)


def make_oracle(config: OracleConfig) -> Oracle:
    # oracle_label is looked up by name on every query, so a wrapper put on
    # it after the oracle is made (the benchmark's tracer) sees every query.
    return Oracle(lambda x: oracle_label(config, x))


def _random_grid_point(rng: random.Random, odd: OddSpec) -> dict[str, float]:
    return {v.name: v.grid_value(rng.randrange(v.grid_count)) for v in odd.variables}


def sample_dataset(config: OracleConfig, n: int) -> list[LabeledRun]:
    """n labeled runs sampled uniformly over the step grid of the domain,
    drawn with config.seed."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = random.Random(config.seed)
    runs = []
    for _ in range(n):
        x = _random_grid_point(rng, config.odd)
        runs.append(LabeledRun(x=x, y=oracle_label(config, x)))
    return runs


@dataclass(frozen=True)
class Fixture:
    dataset: list[LabeledRun]
    baseline_rule: PolarizedRule
    config: OracleConfig


def make_reference_fixture(seed: int = 42) -> Fixture:
    """198 runs with a baseline pass rule that is inconsistent on exactly 27.

    Stratified: 27 runs drawn from the region where the baseline holds but
    the oracle fails it (dist_front between the safe boundary and the
    baseline threshold, at positive speed), the remaining 171 from
    everywhere else; order shuffled by seed. Every seed gives exactly 27
    mismatches: the strata are built from the constant default_config, and
    the tests check the count, the labels and the grid across seeds.
    """
    config = default_config(seed)
    odd = config.odd
    baseline = PolarizedRule(id="baseline-pass", polarity=Polarity.PASS_RULE,
                             ast=parse_rule(BASELINE_RULE_TEXT))
    rng = random.Random(seed)
    ego, dist, lane = odd.get("ego_speed"), odd.get("dist_front"), odd.get("lane_offset")
    mismatch_dist = [v for v in dist.grid_values() if 4.05 <= v < 5.0]
    mismatch_ego = [v for v in ego.grid_values() if v > 0]

    def in_mismatch_region(x: dict[str, float]) -> bool:
        return (evaluate(baseline.ast, x)
                and oracle_label(config, x) is Outcome.FAIL)

    runs: list[LabeledRun] = []
    for _ in range(FIXTURE_MISMATCHES):
        x = {
            "ego_speed": mismatch_ego[rng.randrange(len(mismatch_ego))],
            "dist_front": mismatch_dist[rng.randrange(len(mismatch_dist))],
            "lane_offset": lane.grid_value(rng.randrange(lane.grid_count)),
        }
        runs.append(LabeledRun(x=x, y=Outcome.FAIL))
    while len(runs) < FIXTURE_SIZE:
        x = _random_grid_point(rng, odd)
        if not in_mismatch_region(x):
            runs.append(LabeledRun(x=x, y=oracle_label(config, x)))
    rng.shuffle(runs)
    return Fixture(dataset=runs, baseline_rule=baseline, config=config)


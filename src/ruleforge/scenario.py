"""Synthetic driving-scenario oracle and seeded dataset construction.

Stands in for an expensive simulator: a ground-truth safe region expressed
in the rule DSL labels any in-domain input deterministically. Every label
first checks the point against the ODD (OddSpec.contains_point; a refusal
is OutOfDomain), then calls the safe region's function from
semantics.compile_rule, which is compiled once and kept on the rule. The
canned fixture pairs a 198-run dataset with a baseline pass rule that
mismatches the oracle on exactly 27 runs, so refinement experiments have a
stable, reproducible starting point.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .counterfactual import Oracle
from .grammar import OddSpec, RuleAst, check_vocabulary, odd_spec, parse_rule
from .semantics import (DEFAULT_EPS_EQ, LabeledRun, Outcome, PolarizedRule, Polarity,
                        compile_rule, decisiveness, evaluate)

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


class OutOfDomain(ValueError):
    pass


class ConstructionFailure(RuntimeError):
    """A fixture stratum could not be filled; the config is unusable."""


@dataclass(frozen=True)
class OracleConfig:
    odd: OddSpec
    safe_region: RuleAst
    seed: int

    def __post_init__(self):
        violations = check_vocabulary(self.safe_region, self.odd)
        if violations:
            raise ConstructionFailure(f"safe region not vocabulary-clean: {violations}")


def default_config(seed: int = 42) -> OracleConfig:
    return OracleConfig(odd=DEFAULT_ODD, safe_region=parse_rule(DEFAULT_SAFE_REGION), seed=seed)


def oracle_label(config: OracleConfig, x: dict[str, float]) -> Outcome:
    """Pass iff x satisfies the configured safe region. Deterministic."""
    if not config.odd.contains_point(x):
        raise OutOfDomain(f"input outside declared ranges: {x}")
    return Outcome.PASS if compile_rule(config.safe_region)(x, DEFAULT_EPS_EQ, None) else Outcome.FAIL


def make_oracle(config: OracleConfig) -> Oracle:
    return Oracle(lambda x: oracle_label(config, x))


def _random_grid_point(rng: random.Random, odd: OddSpec) -> dict[str, float]:
    return {v.name: v.grid_value(rng.randrange(v.grid_count)) for v in odd.variables}


def sample_dataset(config: OracleConfig, n: int, seed: int) -> list[LabeledRun]:
    """n labeled runs sampled uniformly over the step grid of the domain."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = random.Random(seed)
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
    everywhere else; order shuffled by seed. The mismatch count is asserted
    before returning.
    """
    config = default_config(seed)
    odd = config.odd
    baseline = PolarizedRule(id="baseline-pass", polarity=Polarity.PASS_RULE,
                             ast=parse_rule(BASELINE_RULE_TEXT))
    rng = random.Random(seed)
    ego, dist, lane = odd.get("ego_speed"), odd.get("dist_front"), odd.get("lane_offset")
    mismatch_dist = [v for v in dist.grid_values() if 4.05 <= v < 5.0]
    mismatch_ego = [v for v in ego.grid_values() if v > 0]
    if not mismatch_dist or not mismatch_ego:
        raise ConstructionFailure("mismatch stratum is empty for this configuration")

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
        if not in_mismatch_region(x):
            raise ConstructionFailure(f"stratum point {x} does not mismatch the baseline")
        runs.append(LabeledRun(x=x, y=Outcome.FAIL))
    guard = 0
    while len(runs) < FIXTURE_SIZE:
        x = _random_grid_point(rng, odd)
        guard += 1
        if guard > FIXTURE_SIZE * 1000:
            raise ConstructionFailure("could not fill the consistent stratum")
        if in_mismatch_region(x):
            continue
        runs.append(LabeledRun(x=x, y=oracle_label(config, x)))
    rng.shuffle(runs)
    report = decisiveness(baseline, runs)
    if report.n_mismatch != FIXTURE_MISMATCHES:
        raise ConstructionFailure(
            f"expected {FIXTURE_MISMATCHES} mismatches, got {report.n_mismatch}")
    return Fixture(dataset=runs, baseline_rule=baseline, config=config)


"""Synthetic driving-scenario oracle and seeded dataset construction.

Stands in for an expensive simulator: a ground-truth safe region expressed
in the rule DSL labels any in-domain input deterministically. Every label
is one call of a label function that semantics.compile_label generates on
first use, compiling only a shape that no earlier label had. A config's own
(OracleConfig.label) is built from the ODD's ranges, widened by DOMAIN_TOL,
and the safe region: it raises OutOfDomain (defined in semantics, exported
here) for a point outside those ranges, then evaluates the safe region
inline. The oracle of a counterfactual search (make_oracle) labels through
the config's on-grid view instead, the safe region with no domain guard,
since every probe of the search is a point of the ODD's step grid: its label
is oracle_label bound to that view, looked up once per search. The samplers
and the fixture label through the guarded one. Samples are drawn over the
step grid, and each grid value is made once per variable
(OddVariable.points) and shared by every run drawn at it. The canned
fixture pairs a 198-run dataset with a baseline pass rule that mismatches
the oracle on exactly 27 runs, so refinement experiments have a stable,
reproducible starting point.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from types import MethodType
from typing import Callable, NamedTuple

from .counterfactual import Oracle
from .grammar import DOMAIN_TOL, OddSpec, RuleAst, check_vocabulary, odd_spec, parse_rule
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


class OnGrid(NamedTuple):
    """A config's view for the points of its ODD's step grid: its label is
    the safe region with no domain guard."""
    label: Label


@dataclass(frozen=True)
class OracleConfig:
    odd: OddSpec
    safe_region: RuleAst
    seed: int

    def __post_init__(self):
        violations = check_vocabulary(self.safe_region, self.odd)
        if violations:
            raise ConstructionFailure("safe region not vocabulary-clean: "
                                      + "; ".join(violations))

    @cached_property
    def label(self) -> Label:
        """The label over the ODD's ranges widened by DOMAIN_TOL, built on first
        use. It is kept on the instance, outside the fields, so equality, hash
        and repr ignore it, and dataclasses.replace builds a new one."""
        return compile_label(self.safe_region, tuple(
            (v.name, v.min - DOMAIN_TOL, v.max + DOMAIN_TOL) for v in self.odd.variables))

    @cached_property
    def on_grid(self) -> OnGrid:
        """The on-grid view, built on first use and kept as label is: its
        label is compile_label of the safe region with no bounds, which
        checks nothing before the rule."""
        return OnGrid(compile_label(self.safe_region, ()))

    def __getstate__(self):
        # The fields only: the compiled labels cannot be pickled and are
        # rebuilt on use.
        return {"odd": self.odd, "safe_region": self.safe_region, "seed": self.seed}


def default_config(seed: int = 42) -> OracleConfig:
    return OracleConfig(odd=DEFAULT_ODD, safe_region=parse_rule(DEFAULT_SAFE_REGION), seed=seed)


def oracle_label(config: OracleConfig | OnGrid, x: dict[str, float]) -> Outcome:
    """Pass iff x satisfies the configured safe region. Deterministic. One
    call of config.label: on an OracleConfig, that runs the full domain
    guard, so it raises OutOfDomain unless x binds every ODD variable within
    its range; on its OnGrid view, it checks nothing first."""
    return config.label(x)


class _GridOracle(Oracle):
    """make_oracle's oracle. Until a label is assigned to it, reading its
    `label` looks up the module-level oracle_label and binds it to the view."""

    def __init__(self, view: OnGrid):
        # not Oracle.__init__, which would assign a label
        self.view, self.queries = view, 0

    def __getattr__(self, name: str):
        # Called only for an attribute the instance lacks: `label` until one
        # is assigned, which then replaces this lookup.
        if name == "label":
            return MethodType(oracle_label, self.view)
        raise AttributeError(name)


def make_oracle(config: OracleConfig) -> Oracle:
    """The oracle of counterfactual searches over config.odd, and only over
    that ODD: this pairing is its contract, which every caller keeps.

    Each query labels through config.on_grid, with no domain guard.
    search_counterfactual checks its run once against the ODD it is given
    (OddVariable.index_of puts each value within DOMAIN_TOL of a grid point,
    inside the widened range the guard admits) and then probes only grid
    points of that ODD, so the guard could refuse no probe. A point off
    that grid gets a verdict, not a refusal: label it with
    oracle_label(config, x).

    The oracle's label is oracle_label bound to the view, looked up by name
    each time `label` is read, which a search does once, when it starts; a
    query then costs one call of oracle_label and no frame around it."""
    # A wrapper put on oracle_label after the oracle is made (the benchmark's
    # tracer) sees every query of each search that starts after it is put.
    return _GridOracle(config.on_grid)


def _grid_draw(rng: random.Random, odd: OddSpec) -> Callable[[], dict[str, float]]:
    """A function that draws one point uniformly over the step grid of odd
    with rng, one randrange per variable in ODD order. Each coordinate is the
    variable's own grid value object (OddVariable.points)."""
    randrange = rng.randrange
    axes = [(v.name, v.points, v.grid_count) for v in odd.variables]
    return lambda: {name: points[randrange(count)] for name, points, count in axes}


def sample_dataset(config: OracleConfig, n: int) -> list[LabeledRun]:
    """n labeled runs sampled uniformly over the step grid of the domain,
    drawn with config.seed."""
    if n < 1:
        raise ValueError("n must be >= 1")
    draw = _grid_draw(random.Random(config.seed), config.odd)
    runs = []
    for _ in range(n):
        x = draw()
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
    draw = _grid_draw(rng, odd)
    while len(runs) < FIXTURE_SIZE:
        x = draw()
        if not in_mismatch_region(x):
            runs.append(LabeledRun(x=x, y=oracle_label(config, x)))
    rng.shuffle(runs)
    return Fixture(dataset=runs, baseline_rule=baseline, config=config)


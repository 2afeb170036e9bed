"""Minimal-change counterfactual search over the stepped input domain.

For an input whose observed outcome disagrees with a rule's verdict, the
search walks outward in weighted L1 rings (one unit = one feature step) and
returns the first probe whose observed outcome flips. Enumeration order is
fixed so results are reproducible: rings of increasing total step count;
within a ring, offset vectors ordered feature-major in declared ODD order
with negative offsets before positive ones and untouched-feature
continuations last. Offsets that would leave a feature's [min, max] range
are never enumerated, so every probe stays inside the domain, each probe
costs exactly one oracle query, and the step-unit L1 of the result is exact.
A ring's probes come from one iterative walk that descends only into
prefixes whose remainder the later features can take up, so no step of the
walk is wasted. The walk builds the probes in place, in one working dict
where a feature's value is written only when its offset changes, and each
oracle query gets its own copy of it, so no oracle sees a dict that is
later changed. A feature's probe values are computed ring by ring, the
offsets +-r when ring r starts; a probe's delta is built only when its
outcome flips.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from decimal import Decimal
from typing import Callable, Iterator

from .grammar import OddSpec, print_rule
from .semantics import DEFAULT_EPS_EQ, LabeledRun, Outcome, PolarizedRule, decisiveness

DEFAULT_BUDGET = 10_000
DEFAULT_MAX_RADIUS_STEPS = 20


class CounterfactualNotFound(Exception):
    """No flip within the radius limit."""


class OracleBudgetExceeded(Exception):
    """Query budget ran out mid-search; partial results are discarded."""


class NoInconsistency(ValueError):
    """The rule has no inconsistent runs to explain."""


class Oracle:
    """Ground-truth labeling interface with a query counter.

    The wrapped function must be deterministic: equal inputs, equal outcomes.
    """

    def __init__(self, label_fn: Callable[[dict[str, float]], Outcome]):
        self._label_fn = label_fn
        self.queries = 0

    def query(self, x: dict[str, float]) -> Outcome:
        self.queries += 1
        return self._label_fn(x)


@dataclass(frozen=True)
class CounterfactualPair:
    x: dict[str, float]
    y: Outcome
    x_cf: dict[str, float]
    y_cf: Outcome
    delta: dict[str, float]  # nonzero feature perturbations, x_cf - x
    l1: float  # raw-unit L1
    l1_steps: int  # weighted L1 in per-feature step units


@dataclass(frozen=True)
class SearchLimits:
    max_radius_steps: int = DEFAULT_MAX_RADIUS_STEPS
    budget: int = DEFAULT_BUDGET  # oracle queries per search


@dataclass(frozen=True)
class EvidenceFile:
    rule_id: str
    rule_text: str
    dataset_ref: str
    pairs: tuple[CounterfactualPair, ...]
    unresolved: tuple[int, ...]  # run indices with no counterfactual in budget


def _dec(value: float) -> Decimal:
    return Decimal(repr(value))


def _ring_walk(x: dict[str, float], names: list[str], values: list[dict[int, float]],
               down: list[int], up: list[int], total: int,
               offsets: list[int]) -> Iterator[dict[str, float]]:
    """The probes of one ring: every offset vector with sum of magnitudes
    exactly `total`, each offset m within [-down[i], up[i]] for its feature
    i, in enumeration order.

    Per feature the candidate multiples are ordered ascending over the
    nonzero values (negatives first), with 0 last so vectors touching
    earlier features enumerate before those that leave them unchanged.

    Each probe is x with feature names[i] set to values[i][m], where
    values[i][0] must be x's own value. The probe is built in place in one
    working dict, which is yielded and must be copied, not kept or changed:
    a feature's value is written only when its offset changes. `offsets`,
    all 0 on entry, holds the yielded probe's vector, and is all 0 again
    once the ring is walked to its end.

    The walk is iterative: one choice iterator per feature on a stack. A
    feature is offered only the multiples whose remainder the later features
    can take up, so every choice ends in at least one vector; a vector is
    complete once its remainder is 0, and the last feature takes up what
    is left exactly. A feature whose choices run out returns to 0, so the
    features past the top of the stack are always at 0.
    """
    n = len(down)
    # reach[i]: the most steps features i.. can take up together.
    reach = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        reach[i] = reach[i + 1] + max(down[i], up[i])
    if total > reach[0]:
        return
    work = dict(x)
    if not n:
        yield work
        return
    last = n - 1
    last_name, last_values = names[last], values[last]
    # ends[r]: the last feature's offsets that take up a remainder of r.
    ends = [[0]] + [[m for m in (-r, r) if -down[last] <= m <= up[last]]
                    for r in range(1, total + 1)]

    def choices(i: int, rest: int) -> Iterator[int]:
        least = max(1, rest - reach[i + 1])
        zero = (0,) if rest <= reach[i + 1] else ()
        return itertools.chain(range(-min(down[i], rest), 1 - least),
                               range(least, min(up[i], rest) + 1), zero)

    rests = [total] * n
    stack = [choices(0, total)]
    while stack:
        i = len(stack) - 1
        name, table = names[i], values[i]
        for m in stack[i]:
            offsets[i] = m
            work[name] = table[m]
            rest = rests[i] - abs(m)
            if not rest:
                yield work
            elif i + 1 < last:
                rests[i + 1] = rest
                stack.append(choices(i + 1, rest))
                break
            else:
                for end in ends[rest]:
                    offsets[last] = end
                    work[last_name] = last_values[end]
                    yield work
                offsets[last] = 0
                work[last_name] = last_values[0]
        else:
            stack.pop()
            if offsets[i]:
                offsets[i] = 0
                work[name] = table[0]


def search_counterfactual(x: dict[str, float], y: Outcome, oracle: Oracle, odd: OddSpec,
                          max_radius_steps: int = DEFAULT_MAX_RADIUS_STEPS,
                          budget: int = DEFAULT_BUDGET) -> CounterfactualPair:
    """First in-domain probe, in ring-then-enumeration order, whose observed
    outcome differs from y. No in-domain step-grid point with a strictly
    smaller step-unit L1 flips the outcome.

    Raises CounterfactualNotFound when the radius limit is exhausted and
    OracleBudgetExceeded when the query budget runs out mid-ring.
    """
    if not odd.contains_point(x):
        raise ValueError("input lies outside the declared domain")
    names = odd.names
    base = [_dec(x[name]) for name in names]
    steps = [_dec(v.step) for v in odd.variables]
    # Largest in-range magnitude per feature, per direction.
    down = [int((b - _dec(v.min)) / s) for v, b, s in zip(odd.variables, base, steps)]
    up = [int((_dec(v.max) - b) / s) for v, b, s in zip(odd.variables, base, steps)]
    # Per feature, the probe value of each offset m walked so far: m -> value.
    # Offset 0 is the run's own value; ring r adds its in-range -r and r.
    values = [{0: x[name]} for name in names]
    offsets = [0] * len(names)
    used = 0
    for radius in range(1, max_radius_steps + 1):
        for table, b, s, d, u in zip(values, base, steps, down, up):
            for m in (-radius, radius):
                if -d <= m <= u:
                    table[m] = float(b + s * m)
        for probe in _ring_walk(x, names, values, down, up, radius, offsets):
            if used >= budget:
                raise OracleBudgetExceeded(f"budget of {budget} queries exhausted at radius {radius}")
            used += 1
            y_cf = oracle.query(dict(probe))
            if y_cf is not y:
                delta = {name: float(s * m) for name, s, m in zip(names, steps, offsets) if m}
                l1 = float(sum((abs(_dec(d)) for d in delta.values()), Decimal(0)))
                return CounterfactualPair(x=dict(x), y=y, x_cf=dict(probe), y_cf=y_cf,
                                          delta=delta, l1=l1, l1_steps=radius)
    raise CounterfactualNotFound(f"no flip within {max_radius_steps} steps")


def build_evidence(rule: PolarizedRule, dataset: list[LabeledRun], oracle: Oracle,
                   odd: OddSpec, limits: SearchLimits = SearchLimits(),
                   dataset_ref: str = "", eps_eq: float = DEFAULT_EPS_EQ) -> EvidenceFile:
    """One counterfactual search per inconsistent run, in dataset order.

    Runs whose search exhausts the radius or budget are listed as unresolved;
    together with the pairs they partition the inconsistent set.
    """
    inconsistent = decisiveness(rule, dataset, eps_eq).mismatches if dataset else ()
    if not inconsistent:
        raise NoInconsistency(f"rule {rule.id!r} has no inconsistent runs")
    pairs: list[CounterfactualPair] = []
    unresolved: list[int] = []
    for idx in inconsistent:
        run = dataset[idx]
        try:
            pairs.append(search_counterfactual(run.x, run.y, oracle, odd,
                                               limits.max_radius_steps, limits.budget))
        except (CounterfactualNotFound, OracleBudgetExceeded):
            unresolved.append(idx)
    return EvidenceFile(rule_id=rule.id, rule_text=print_rule(rule.ast),
                        dataset_ref=dataset_ref, pairs=tuple(pairs),
                        unresolved=tuple(unresolved))

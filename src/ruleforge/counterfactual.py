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
A ring's vectors come from one iterative walk that descends only into
prefixes whose remainder the later features can take up, so no step of the
walk is wasted; a probe's delta is built only when its outcome flips.
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


def _offset_vectors(down: list[int], up: list[int], total: int) -> Iterator[tuple[int, ...]]:
    """Offset vectors with sum of magnitudes exactly `total`, feature-major,
    each offset m within [-down[i], up[i]] for its feature i.

    Per feature the candidate multiples are ordered ascending over the
    nonzero values (negatives first), with 0 last so vectors touching
    earlier features enumerate before those that leave them unchanged.

    The walk is iterative: one choice iterator per feature on a stack. A
    feature is offered only the multiples whose remainder the later features
    can take up, so every choice ends in at least one vector; a vector is
    complete once its remainder is 0, and the last feature takes up what
    is left exactly.
    """
    n = len(down)
    # reach[i]: the most steps features i.. can take up together.
    reach = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        reach[i] = reach[i + 1] + max(down[i], up[i])
    if total > reach[0]:
        return
    if not n:
        yield ()
        return
    last = n - 1
    # ends[r]: the last feature's offsets that take up a remainder of r.
    ends = [[0]] + [[m for m in (-r, r) if -down[last] <= m <= up[last]]
                    for r in range(1, total + 1)]

    def choices(i: int, rest: int) -> Iterator[int]:
        least = max(1, rest - reach[i + 1])
        zero = (0,) if rest <= reach[i + 1] else ()
        return itertools.chain(range(-min(down[i], rest), 1 - least),
                               range(least, min(up[i], rest) + 1), zero)

    vec = [0] * n
    zeros = [0] * n
    rests = [total] * n
    stack = [choices(0, total)]
    while stack:
        i = len(stack) - 1
        for m in stack[i]:
            vec[i] = m
            rest = rests[i] - abs(m)
            if not rest:  # every later feature stays at 0
                vec[i + 1:] = zeros[i + 1:]
                yield tuple(vec)
            elif i + 1 < last:
                rests[i + 1] = rest
                stack.append(choices(i + 1, rest))
                break
            else:
                for vec[last] in ends[rest]:
                    yield tuple(vec)
        else:
            stack.pop()


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
    features = list(odd.variables)
    base = {v.name: _dec(x[v.name]) for v in features}
    # Largest in-range magnitude per feature, per direction.
    down = [int((base[v.name] - _dec(v.min)) / _dec(v.step)) for v in features]
    up = [int((_dec(v.max) - base[v.name]) / _dec(v.step)) for v in features]
    names = odd.names
    # Per feature, the probe value of each in-range offset m within the
    # radius limit, computed once: m -> value.
    tables = [{m: float(base[v.name] + _dec(v.step) * m)
               for m in range(-min(d, max_radius_steps), min(u, max_radius_steps) + 1)}
              for v, d, u in zip(features, down, up)]
    used = 0
    for radius in range(1, max_radius_steps + 1):
        for offsets in _offset_vectors(down, up, radius):
            if used >= budget:
                raise OracleBudgetExceeded(f"budget of {budget} queries exhausted at radius {radius}")
            used += 1
            probe = dict(x)
            for name, table, m in zip(names, tables, offsets):
                if m:
                    probe[name] = table[m]
            y_cf = oracle.query(probe)
            if y_cf is not y:
                delta = {v.name: float(_dec(v.step) * m) for v, m in zip(features, offsets) if m}
                l1 = float(sum((abs(_dec(d)) for d in delta.values()), Decimal(0)))
                return CounterfactualPair(x=dict(x), y=y, x_cf=probe, y_cf=y_cf,
                                          delta=delta, l1=l1,
                                          l1_steps=sum(abs(m) for m in offsets))
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

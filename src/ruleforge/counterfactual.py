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
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from decimal import Decimal
from typing import Callable, Iterator

from .grammar import OddSpec, print_rule
from .semantics import LabeledRun, Outcome, PolarizedRule, decisiveness

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
    """
    if not down:
        if total == 0:
            yield ()
        return
    choices = itertools.chain(range(-min(down[0], total), 0),
                              range(1, min(up[0], total) + 1), (0,))
    for m in choices:
        for tail in _offset_vectors(down[1:], up[1:], total - abs(m)):
            yield (m, *tail)


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
    # Per feature, each in-range offset m within the radius limit, computed
    # once: m -> (probe value, delta).
    tables = [{m: (float(base[v.name] + _dec(v.step) * m), float(_dec(v.step) * m))
               for m in range(-min(d, max_radius_steps), min(u, max_radius_steps) + 1)}
              for v, d, u in zip(features, down, up)]
    used = 0
    for radius in range(1, max_radius_steps + 1):
        for offsets in _offset_vectors(down, up, radius):
            if used >= budget:
                raise OracleBudgetExceeded(f"budget of {budget} queries exhausted at radius {radius}")
            used += 1
            probe = dict(x)
            delta: dict[str, float] = {}
            for v, table, m in zip(features, tables, offsets):
                if m:
                    probe[v.name], delta[v.name] = table[m]
            y_cf = oracle.query(probe)
            if y_cf is not y:
                l1 = float(sum((abs(_dec(d)) for d in delta.values()), Decimal(0)))
                return CounterfactualPair(x=dict(x), y=y, x_cf=probe, y_cf=y_cf,
                                          delta=delta, l1=l1,
                                          l1_steps=sum(abs(m) for m in offsets))
    raise CounterfactualNotFound(f"no flip within {max_radius_steps} steps")


def build_evidence(rule: PolarizedRule, dataset: list[LabeledRun], oracle: Oracle,
                   odd: OddSpec, limits: SearchLimits = SearchLimits(),
                   dataset_ref: str = "", eps_eq: float = 1e-9) -> EvidenceFile:
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

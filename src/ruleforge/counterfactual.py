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
A search calls the oracle's `label` itself, once per probe, and adds its
probes to the oracle's `queries` when it ends, however it ends: it is the
only writer of that count. The query budget is checked once per table, not
once per probe: a table longer than the budget left is walked only that far.

A ring's probes come from two parts of the offset vector. The leading
features are walked by one iterative stack walk, which descends only into
prefixes whose remainder the later features can take up, so no step of the
walk is wasted; it writes each leading feature's value into one working
dict only when the feature's offset changes. At each complete prefix, the
trailing features (fewer than half of the domain's, and at most three) come
from a table of the search: for that remainder, every in-domain offset
vector of those features, in enumeration order, with the values it moves.
So a prefix hands out its probes without stepping the walk. A probe is the
working dict merged with one table entry, a new dict per oracle query, so
no oracle sees a dict that is later changed. A feature's offset choices at
a remainder and a remainder's table are made when first needed and kept
for the rest of the search; probe values are computed ring by ring, and a
probe's delta only when its outcome flips. The Decimal forms of an ODD
variable's bounds and step are computed once per variable.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal
from functools import partial
from itertools import islice
from typing import Callable, Iterator, Sequence

from .grammar import OddSpec, print_rule
from .semantics import Label, LabeledRun, Outcome, PolarizedRule, decisiveness

DEFAULT_BUDGET = 10_000
DEFAULT_MAX_RADIUS_STEPS = 20
# The most trailing features a search reads from per-remainder tables. A
# table over three features holds at most 4r^2 + 2 vectors at remainder r,
# so a search keeps at most about 11,500 entries up to the default radius.
TABLE_FEATURES = 3


class CounterfactualNotFound(Exception):
    """No flip within the radius limit."""


class OracleBudgetExceeded(Exception):
    """Query budget ran out mid-search; partial results are discarded."""


class NoInconsistency(ValueError):
    """The rule has no inconsistent runs to explain."""


class Oracle:
    """Ground-truth labeling interface with a query counter.

    `label` must be deterministic: equal inputs, equal outcomes. The search
    is the only writer of `queries`: it calls `label` itself, once per
    probe, and adds its probe count when it ends.
    """

    def __init__(self, label: Label):
        self.label = label
        self.queries = 0


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


class _Memo(dict):
    """A dict that makes a missing key's value with `make(key)` on first
    lookup, and keeps it."""
    __slots__ = ("make",)

    @classmethod
    def of(cls, make: Callable, known=()) -> _Memo:
        memo = cls(known)
        memo.make = make
        return memo

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


# One entry of a trailing-feature table: the offsets of the trailing
# features, and the values of those whose offset is not 0.
TableEntry = tuple[tuple[int, ...], dict[str, float]]


def _trailing(n: int) -> int:
    """How many of a domain's n features the tables cover: fewer than
    half, so that every table is reused by many prefixes, and at most
    TABLE_FEATURES."""
    return min(TABLE_FEATURES, (n - 1) // 2) if n else 0


def _choices(down: int, up: int, after: int, rest: int) -> tuple[int, ...]:
    """A feature's offsets at remainder rest, in enumeration order: those
    within [-down, up] whose remainder the later features, which take up at
    most `after` steps together, can take up."""
    least = max(1, rest - after)
    return (*range(-min(down, rest), 1 - least),
            *range(least, min(up, rest) + 1),
            *((0,) if rest <= after else ()))


def _table(name: str, values: dict[int, float], pick: Callable[[int], tuple[int, ...]],
           shorter: dict[int, list[TableEntry]], rest: int) -> list[TableEntry]:
    """Every offset vector of a feature and the features after it at
    remainder rest, in enumeration order: the feature's choices (`pick`)
    each followed by the later features' table (`shorter`)."""
    table: list[TableEntry] = []
    for m in pick(rest):
        tails = shorter[rest - abs(m)]
        if m:
            move = {name: values[m]}
            table += [((m, *vec), move | moved) for vec, moved in tails]
        else:
            table += [((0, *vec), moved) for vec, moved in tails]
    return table


class _Rings:
    """The probes of one search's rings around x, leaf by leaf.

    Feature i may move by an offset m within [-down[i], up[i]]; its probe
    value at m is values[i][m], where values[i][0] must be x's own value and
    the offsets +-r must be there before ring r is walked.

    Per feature the candidate multiples are ordered ascending over the
    nonzero values (negatives first), with 0 last so vectors touching
    earlier features enumerate before those that leave them unchanged. A
    feature is offered only the multiples whose remainder the later features
    can take up, so every choice ends in at least one vector. A feature's
    choices at a remainder, and the table of a remainder, are made on first
    use and kept for the rest of the search.
    """

    def __init__(self, x: dict[str, float], names: list[str], values: list[dict[int, float]],
                 down: list[int], up: list[int]):
        n = len(names)
        self.names, self.values = names, values
        self.lead = lead = n - _trailing(n)
        # reach[i]: the most steps features i.. can take up together.
        self.reach = reach = [0] * (n + 1)
        for i in range(n - 1, -1, -1):
            reach[i] = reach[i + 1] + max(down[i], up[i])
        picks = [partial(_choices, down[i], up[i], reach[i + 1]) for i in range(n)]
        # choices[i][r]: leading feature i's offsets at remainder r.
        self.choices = [_Memo.of(pick) for pick in picks[:lead]]
        # tables[r]: the trailing features' table at remainder r, made from
        # the tables of ever shorter suffixes of the features. Remainder 0
        # has one vector, all zeros.
        tables: dict[int, list[TableEntry]] = {0: [((), {})]}
        for f in range(n - 1, lead - 1, -1):
            tables = _Memo.of(partial(_table, names[f], values[f], picks[f], tables),
                              {0: [((0,) * (n - f), {})]})
        self.tables = tables
        #: The probe's values of the leading features, x's own elsewhere.
        self.work = dict(x)
        #: The leading features' offsets at the current leaf.
        self.offsets = [0] * lead
        self._rests = [0] * lead

    def leaves(self, total: int) -> Iterator[list[TableEntry]]:
        """The probes of ring `total`, every offset vector with sum of
        magnitudes exactly `total`, in enumeration order: one table per
        complete prefix of the leading features. Each probe is `work`, as it
        stands when the table is yielded, merged with one entry's values;
        `offsets` then holds the prefix. Once the ring is walked to its end
        both are as they were at its start.
        """
        if total > self.reach[0]:
            return
        tables = self.tables
        if not self.lead:  # no features: the empty vector
            yield tables[total]
            return
        work, names, values, choices = self.work, self.names, self.values, self.choices
        offsets, rests, last = self.offsets, self._rests, self.lead - 1
        rests[0] = total
        stack = [iter(choices[0][total])]
        while stack:
            i = len(stack) - 1
            name, table = names[i], values[i]
            for m in stack[i]:
                offsets[i] = m
                work[name] = table[m]
                rest = rests[i] - abs(m)
                if rest and i < last:
                    rests[i + 1] = rest
                    stack.append(iter(choices[i + 1][rest]))
                    break
                yield tables[rest]
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
    exact = [v.exact for v in odd.variables]
    base = [_dec(x[name]) for name in names]
    steps = [step for _, _, step in exact]
    # Largest in-range magnitude per feature, per direction.
    down = [int((b - lo) / s) for (lo, _, s), b in zip(exact, base)]
    up = [int((hi - b) / s) for (_, hi, s), b in zip(exact, base)]
    # Per feature, the probe value of each offset m walked so far: m -> value.
    # Offset 0 is the run's own value; ring r adds its in-range -r and r.
    values = [{0: x[name]} for name in names]
    rings = _Rings(x, names, values, down, up)
    work, label = rings.work, oracle.label
    used = 0
    try:
        for radius in range(1, max_radius_steps + 1):
            for table, b, s, d, u in zip(values, base, steps, down, up):
                for m in (-radius, radius):
                    if -d <= m <= u:
                        table[m] = float(b + s * m)
            for leaf in rings.leaves(radius):
                # one budget check per table: walk no more of it than is left
                left = budget - used
                short = len(leaf) > left
                for vec, moved in islice(leaf, max(left, 0)) if short else leaf:
                    used += 1
                    y_cf = label(work | moved)
                    if y_cf is not y:
                        offsets = (*rings.offsets, *vec)
                        delta = {name: float(s * m)
                                 for name, s, m in zip(names, steps, offsets) if m}
                        l1 = float(sum((abs(_dec(d)) for d in delta.values()), Decimal(0)))
                        return CounterfactualPair(x=dict(x), y=y, x_cf=work | moved, y_cf=y_cf,
                                                  delta=delta, l1=l1, l1_steps=radius)
                if short:
                    raise OracleBudgetExceeded(f"budget of {budget} queries exhausted "
                                               f"at radius {radius}")
    finally:
        oracle.queries += used
    raise CounterfactualNotFound(f"no flip within {max_radius_steps} steps")


def build_evidence(rule: PolarizedRule, dataset: list[LabeledRun], oracle: Oracle,
                   odd: OddSpec, limits: SearchLimits = SearchLimits(),
                   dataset_ref: str = "", mismatches: Sequence[int] | None = None) -> EvidenceFile:
    """One counterfactual search per inconsistent run, in dataset order.

    `mismatches` are the inconsistent runs' indices, as
    `decisiveness(rule, dataset).mismatches` gives them; a caller
    that has scored the rule passes them in, and they are computed when
    not given. Runs whose search exhausts the radius or budget are listed
    as unresolved; together with the pairs they partition the inconsistent
    set.
    """
    if mismatches is None:
        mismatches = decisiveness(rule, dataset).mismatches if dataset else ()
    if not mismatches:
        raise NoInconsistency(f"rule {rule.id!r} has no inconsistent runs")
    pairs: list[CounterfactualPair] = []
    unresolved: list[int] = []
    for idx in mismatches:
        run = dataset[idx]
        try:
            pairs.append(search_counterfactual(run.x, run.y, oracle, odd,
                                               limits.max_radius_steps, limits.budget))
        except (CounterfactualNotFound, OracleBudgetExceeded):
            unresolved.append(idx)
    return EvidenceFile(rule_id=rule.id, rule_text=print_rule(rule.ast),
                        dataset_ref=dataset_ref, pairs=tuple(pairs),
                        unresolved=tuple(unresolved))

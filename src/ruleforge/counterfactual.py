"""Minimal-change counterfactual search over the stepped input domain.

For an input whose observed outcome disagrees with a rule's verdict, the
search walks outward in weighted L1 rings (one unit = one feature step) and
returns the first probe whose observed outcome flips. Enumeration order is
fixed so results are reproducible: rings of increasing total step count;
within a ring, offset vectors ordered feature-major in declared ODD order
with negative offsets before positive ones and untouched-feature
continuations last. A feature at grid index k (OddVariable.index_of) moves
by offsets m in [-k, grid_count - 1 - k] to grid value k + m, so every probe
is a grid point of the domain, each probe costs exactly one oracle query,
and the step-unit L1 of the result is exact. The run itself is checked
against the domain once, when its grid indices are taken, and no probe is
checked again: the oracle of scenario.make_oracle labels a probe without a
domain guard, which could refuse none of them.
A search reads the oracle's `label` once, when it starts, and calls it
itself, once per probe; it adds its probes to the oracle's `queries` when it
ends, however it ends: it is the only writer of that count. The query budget
is checked once per ring (or, on a wide domain, once per table), not once per
probe: a ring or table longer than the budget left is walked only that far,
and the probes it holds are counted when its walk starts, less those left
unlabeled when a flip or a raise ends it.

Every ring's offset vectors come from one table that every search of the
process shares: ring r of an n-feature domain with no bound, as each
vector's nonzero (feature, offset) moves. It depends on n and r alone, so it
is built once, on first use. A run within r steps of a bound keeps the
vectors that stay in its range, which leaves the order as it is.

A domain of at most TABLE_FEATURES features reads its rings whole from that
table, and each probe is a copy of the run with its moves written in. A
wider domain splits the offset vector in two. The leading features are all
but the last TABLE_FEATURES. All of them but the last are walked by one
iterative stack walk, which descends only into prefixes whose remainder the
later features can take up, so no step of the walk is wasted; it writes
each walked feature's value into one working dict only when the feature's
offset changes. At each complete prefix the walk hands out the search's row
for the remainder R: each offset m of the last leading feature, with its
value and the trailing table of R - |m|, which is the shared ring of the
last TABLE_FEATURES features at that remainder, kept to their bounds, as
two parallel lists: each vector's moves and the values it moves. Rows and
tables are made when first needed and kept for the rest of the search. The
search walks a row inline: it writes the last leading feature's value into
the working dict, then labels the dict merged with each table entry, a new
dict per oracle query, so no oracle sees a dict that is later changed. A
domain with one leading feature has no stack walk and reads one row per
ring.

Either way, probe values are computed ring by ring, and a probe's delta only
when its outcome flips.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from operator import length_hint
from typing import Iterator, Sequence

from .grammar import OddSpec, _Memo, exact_moves, print_rule
from .semantics import Label, LabeledRun, Outcome, PolarizedRule, decisiveness

DEFAULT_BUDGET = 10_000
DEFAULT_MAX_RADIUS_STEPS = 20
# The most features a domain may have for its searches to read the shared
# rings whole, and how many trailing features a wider search reads from
# them. A ring over three features holds at most 4r^2 + 2 vectors at r, so
# the shared rings of three features hold at most about 11,500 entries up to
# the default radius, and so do one wider search's tables.
TABLE_FEATURES = 3


class CounterfactualNotFound(Exception):
    """No flip within the radius limit."""


class OracleBudgetExceeded(Exception):
    """Query budget ran out mid-search; partial results are discarded."""


class NoInconsistency(ValueError):
    """The rule has no inconsistent runs to explain."""


class Oracle:
    """Ground-truth labeling interface with a query counter.

    `label` must be deterministic: equal inputs, equal outcomes. A search
    reads `label` once, when it starts, and is the only writer of `queries`:
    it calls the label itself, once per probe, and adds its probe count when
    it ends.
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


def _choices(down: int, up: int, after: int, rest: int) -> tuple[int, ...]:
    """A feature's offsets at remainder rest, in enumeration order: those
    within [-down, up] whose remainder the later features, which take up at
    most `after` steps together, can take up."""
    least = max(1, rest - after)
    return (*range(-min(down, rest), 1 - least),
            *range(least, min(up, rest) + 1),
            *((0,) if rest <= after else ()))


# One offset vector of the shared rings: its nonzero (feature, offset) moves,
# in feature order.
Moves = tuple[tuple[int, int], ...]


# One row of a wide search: per offset m of its last leading feature, m, the
# feature's value at m, and a trailing table as parallel lists of each
# vector's moves and the values it moves.
Row = list[tuple[int, float, list[Moves], list[dict[str, float]]]]


#: One tuple per (feature, offset) move, which every ring that makes it holds.
_MOVES = _Memo.of(lambda move: move)


def _ring_moves(n: int, total: int, first: int = 0) -> list[Moves]:
    """Every offset vector of features first..n-1, with no bound, whose
    magnitudes sum to total, in enumeration order, as its moves."""
    if first == n:
        return [()] if total == 0 else []
    return [(_MOVES[first, m], *tail) if m else tail
            for m in _choices(total, total, total * (n - first - 1), total)
            for tail in _ring_moves(n, total - abs(m), first + 1)]


#: _RINGS[n, r]: ring r of an n-feature domain with no bound, shared by
#: every search of the process. A race at worst builds a ring twice.
_RINGS = _Memo.of(lambda key: tuple(_ring_moves(*key)))


def _within(ring: tuple[Moves, ...], down: list[int], up: list[int]) -> list[Moves]:
    """The vectors of ring that stay within [-down[i], up[i]] on every
    feature i, in the ring's order."""
    kept = []
    for moves in ring:
        for i, m in moves:
            if not -down[i] <= m <= up[i]:
                break
        else:
            kept.append(moves)
    return kept


class _Rings:
    """The probes of one search's rings around x, row by row.

    Feature i may move by an offset m within [-down[i], up[i]]; its probe
    value at m is values[i][m], where values[i][0] must be x's own value and
    the offsets +-r must be there before ring r is walked.

    The leading features, all but the last TABLE_FEATURES, are offered their
    offsets in enumeration order: per feature the nonzero offsets ascending
    (negatives first), then 0, and only those whose remainder the later
    features can take up, so every choice ends in at least one vector. All
    leading features but the last are walked; the last one is the first
    column of the rows. rows[R] holds one entry (m, value, moves, moved) per
    offset m of the last leading feature at remainder R: value is its probe
    value, and moves and moved are the trailing table of R - |m|, that
    shared ring of the trailing features kept to their bounds, as each
    vector's moves and the values it moves, in parallel lists. A leading
    feature's choices at a remainder, a row and a table are made on first
    use and kept for the rest of the search.
    """

    def __init__(self, x: dict[str, float], names: list[str], values: list[dict[int, float]],
                 down: list[int], up: list[int]):
        n = len(names)
        self.names, self.values = names, values
        self.lead = lead = n - TABLE_FEATURES
        last = lead - 1
        # reach[i]: the most steps features i.. can take up together.
        self.reach = reach = [0] * (n + 1)
        for i in range(n - 1, -1, -1):
            reach[i] = reach[i + 1] + max(down[i], up[i])
        # choices[i][r]: leading feature i's offsets at remainder r.
        self.choices = [_Memo.of(partial(_choices, down[i], up[i], reach[i + 1]))
                        for i in range(lead)]
        trail, tvalues, tdown, tup = names[lead:], values[lead:], down[lead:], up[lead:]

        def table(rest: int) -> tuple[list[Moves], list[dict[str, float]]]:
            kept = _within(_RINGS[TABLE_FEATURES, rest], tdown, tup)
            return kept, [{trail[i]: tvalues[i][m] for i, m in moves} for moves in kept]

        tables = _Memo.of(table)
        offered, lvalues = self.choices[last], values[last]
        self.rows = _Memo.of(lambda rest: [(m, lvalues[m], *tables[rest - abs(m)])
                                           for m in offered[rest]])
        #: The probe's values of the leading features, x's own elsewhere.
        self.work = dict(x)
        #: The walked features' offsets at the current prefix.
        self.offsets = [0] * last
        self._rests = [0] * last

    def walk(self, total: int) -> Iterator[Row]:
        """The rows of ring `total`, every offset vector with sum of
        magnitudes exactly `total`, in enumeration order: one row per
        complete prefix of the walked features. The probes of a row entry
        (m, value, moves, moved) are `work`, as it stands when the row is
        yielded and with the last leading feature set to value, merged with
        each dict of moved; `offsets` then holds the prefix. Once the ring is
        walked to its end both are as they were at its start, but for the
        last leading feature, which each entry sets before its probes.
        """
        if total > self.reach[0]:
            return
        rows, last = self.rows, self.lead - 2
        if last < 0:  # no walked feature: the one leading feature's row
            yield rows[total]
            return
        work, names, values, choices = self.work, self.names, self.values, self.choices
        offsets, rests = self.offsets, self._rests
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
                yield rows[rest]
            else:
                stack.pop()
                if offsets[i]:
                    offsets[i] = 0
                    work[name] = table[0]

    def moves(self, m: int, trail: Moves) -> Moves:
        """The moves of the probe at the current prefix, with the last
        leading feature at offset m and the trailing features' moves trail."""
        lead = self.lead
        return (*((i, k) for i, k in enumerate((*self.offsets, m)) if k),
                *((lead + i, k) for i, k in trail))


def _exhausted(budget: int, radius: int) -> OracleBudgetExceeded:
    """The error of a search whose budget ran out at ring `radius`."""
    return OracleBudgetExceeded(f"budget of {budget} queries exhausted at radius {radius}")


def _pair(x: dict[str, float], y: Outcome, y_cf: Outcome, names: list[str],
          values: list[dict[int, float]], radius: int, moves: Moves) -> CounterfactualPair:
    """The pair of x and its flipped probe, the copy of x that moves makes."""
    x_cf = x.copy()
    for i, m in moves:
        x_cf[names[i]] = values[i][m]
    delta, l1 = exact_moves(x, x_cf, [names[i] for i, _ in moves])
    return CounterfactualPair(x=dict(x), y=y, x_cf=x_cf, y_cf=y_cf,
                              delta=delta, l1=l1, l1_steps=radius)


def search_counterfactual(x: dict[str, float], y: Outcome, oracle: Oracle, odd: OddSpec,
                          max_radius_steps: int = DEFAULT_MAX_RADIUS_STEPS,
                          budget: int = DEFAULT_BUDGET) -> CounterfactualPair:
    """First in-domain probe, in ring-then-enumeration order, whose observed
    outcome differs from y. No in-domain step-grid point with a strictly
    smaller step-unit L1 flips the outcome.

    Raises ValueError when x lies off the step grid, CounterfactualNotFound when
    the radius limit is exhausted, OracleBudgetExceeded when the budget runs out mid-ring.
    """
    names = odd.names
    # Per feature, x's grid index, which is also the largest offset down.
    down = [v.index_of(x[v.name]) if v.name in x else None for v in odd.variables]
    if None in down:
        raise ValueError("input lies outside the declared domain's grid")
    up = [v.grid_count - 1 - k for v, k in zip(odd.variables, down)]
    # Per feature, the probe value of each offset m walked so far: m -> value.
    # Offset 0 is the run's own value; ring r adds its in-range -r and r.
    values = [{0: x[name]} for name in names]
    n = len(names)
    # a wider domain's walk; None where the shared rings serve
    rings = _Rings(x, names, values, down, up) if n > TABLE_FEATURES else None
    # the walk's working dict and the name of its last leading feature
    work, lead_name = (rings.work, names[rings.lead - 1]) if rings else (None, None)
    # the first ring that a bound cuts
    edge = min(down + up, default=max_radius_steps) + 1
    label = oracle.label
    used = 0
    # The ring or table being walked. Its probes are counted in used when its
    # walk starts; those it has left when the search ends were never labeled.
    walked = iter(())
    try:
        for radius in range(1, max_radius_steps + 1):
            for table, v, k, u in zip(values, odd.variables, down, up):
                for m in (-radius, radius):
                    if -k <= m <= u:
                        table[m] = v.points[k + m]
            if rings is None:
                ring = _RINGS[n, radius]
                if radius >= edge:
                    ring = _within(ring, down, up)
                # one budget check per ring: walk no more of it than is left
                short = len(ring) > budget - used
                if short:
                    ring = ring[:max(budget - used, 0)]
                used += len(ring)
                walked = iter(ring)
                for moves in walked:
                    probe = x.copy()
                    for i, m in moves:
                        probe[names[i]] = values[i][m]
                    y_cf = label(probe)
                    if y_cf is not y:
                        return _pair(x, y, y_cf, names, values, radius, moves)
                if short:
                    raise _exhausted(budget, radius)
                continue
            for row in rings.walk(radius):
                for m, value, trail, moved in row:
                    # one budget check per table: walk no more of it than is left
                    short = len(moved) > budget - used
                    if short:
                        moved = moved[:max(budget - used, 0)]
                    work[lead_name] = value
                    used += len(moved)
                    walked = iter(moved)
                    for entry in walked:
                        y_cf = label(work | entry)
                        if y_cf is not y:
                            j = len(moved) - 1 - length_hint(walked)
                            return _pair(x, y, y_cf, names, values, radius,
                                         rings.moves(m, trail[j]))
                    if short:
                        raise _exhausted(budget, radius)
    finally:
        oracle.queries += used - length_hint(walked)
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

"""Outside-in tracer for the ruleforge benchmark.

The tracer replaces selected public functions of the ``ruleforge`` package
with timing wrappers, in every ``ruleforge`` module namespace that binds the
same function object (``from .x import y`` makes one function reachable
under several names, and callers resolve the name in their own module).
``restore()`` puts every original attribute back, so untraced runs execute
unpatched code.

Each wrapped call becomes a span (name, start, end, parent, job id) kept in
memory; ``write()`` dumps them as JSON lines. Oracle queries are too many to
record one span each: the wrapper around ``scenario.oracle_label`` adds its
time to the enclosing span's child time and to running totals instead.
A span's self time is its duration minus its children's durations and the
oracle time spent directly inside it.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable


@dataclass
class Span:
    name: str
    job: int
    parent: int | None
    start: float
    end: float = 0.0
    child_s: float = 0.0
    error: str | None = None
    queries: int = 0  # oracle queries made inside the span
    counts: dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


# Result hooks: (tracer, span, args, kwargs, result) -> None.

def _rows(tracer, span, args, kwargs, result):
    span.counts["rows"] = len(result)


def _bytes_written(tracer, span, args, kwargs, result):
    span.counts["bytes"] = Path(args[0] if args else kwargs["path"]).stat().st_size


def _rule_runs(tracer, span, args, kwargs, result):
    span.counts["runs"] = len(args[1] if len(args) > 1 else kwargs["dataset"])


def _keep_oracle(tracer, span, args, kwargs, result):
    tracer.oracles.append(result)


def _candidates(tracer, span, args, kwargs, result):
    span.counts["candidates"] = len(result)


def _contradiction(tracer, span, args, kwargs, result):
    span.counts["pairs"] = len(result)
    for r in result:
        key = r.status.value.lower()
        span.counts[key] = span.counts.get(key, 0) + 1


def _refine_outcome(tracer, span, args, kwargs, result):
    span.counts["attempts"] = result.attempts
    span.counts["accepted"] = 1


# Error hook: (span, exception) -> None.

def _refine_exhausted(span, exc):
    reports = getattr(exc, "reports", None)
    if reports is not None:
        span.counts["attempts"] = len(reports)


@dataclass(frozen=True)
class Probe:
    """One wrapped function: where it is defined, its span name, and what
    to count from its arguments and result (or from the exception)."""
    module: str
    attr: str
    span: str
    on_result: Callable | None = None
    on_error: Callable | None = None


PROBES: tuple[Probe, ...] = (
    Probe("storage", "load_dataset", "storage.load_dataset", _rows),
    Probe("storage", "load_rules", "storage.load_rules"),
    Probe("storage", "load_oracle_config", "storage.load_oracle_config"),
    Probe("storage", "store_outcome", "storage.store_outcome", _bytes_written),
    Probe("grammar", "parse_rule", "grammar.parse_rule"),
    Probe("semantics", "decisiveness", "semantics.decisiveness", _rule_runs),
    Probe("scenario", "make_oracle", "scenario.make_oracle", _keep_oracle),
    Probe("counterfactual", "build_evidence", "counterfactual.build_evidence"),
    Probe("counterfactual", "search_counterfactual", "counterfactual.search"),
    Probe("generation", "generate_candidate", "generation.generate"),
    Probe("generation", "enumerate_single_edits", "generation.enumerate_single_edits",
          _candidates),
    Probe("validation", "check_contradiction", "validation.check_contradiction",
          _contradiction),
    Probe("validation", "check_preserved_consistency",
          "validation.check_preserved_consistency"),
    Probe("validation", "refine_loop", "validation.refine_loop", _refine_outcome,
          _refine_exhausted),
)

#: Layer names, in the order the benchmark reports them.
LAYERS = ("cli", "storage", "grammar", "semantics", "scenario", "counterfactual",
          "generation", "validation")


def ruleforge_modules() -> list:
    """The ruleforge package and its loaded submodules."""
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "ruleforge" or name.startswith("ruleforge."))]


class Tracer:
    """Records spans for calls made while a job is open.

    Calls outside ``job()`` (set-up, correctness checks) pass straight
    through, so only the timed work is traced.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._job: int | None = None
        self._patches: list[tuple[object, str, object]] = []
        self._t0 = time.perf_counter()
        self.oracle_queries = 0
        self.oracle_s = 0.0
        self.oracle_unique = 0
        self._points: set = set()
        self.oracles: list = []

    # -- patching -----------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = ruleforge_modules()
        home = {mod.__name__: mod for mod in modules}
        makers = [(p.module, p.attr, functools.partial(self._wrap, p)) for p in PROBES]
        makers.append(("scenario", "oracle_label", self._wrap_oracle))
        for module, attr, make in makers:
            original = getattr(home["ruleforge." + module], attr)
            wrapper = make(original)
            for mod in modules:
                if getattr(mod, attr, None) is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def restore(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def _wrap(self, probe: Probe, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._job is None:
                return fn(*args, **kwargs)
            span = self._open(probe.span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                if probe.on_error is not None:
                    probe.on_error(span, exc)
                raise
            finally:
                self._close(span)
            if probe.on_result is not None:
                probe.on_result(self, span, args, kwargs, result)
            return result
        return wrapper

    def _wrap_oracle(self, fn):
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(config, x):
            if self._job is None:
                return fn(config, x)
            start = clock()
            try:
                return fn(config, x)
            finally:
                elapsed = clock() - start
                self.oracle_queries += 1
                self.oracle_s += elapsed
                self._points.add(tuple(x.values()))
                if self._stack:
                    self.spans[self._stack[-1]].child_s += elapsed
        return wrapper

    # -- spans --------------------------------------------------------------

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(name=name, job=self._job, parent=parent, start=time.perf_counter(),
                    queries=-self.oracle_queries)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        span.queries += self.oracle_queries
        self._stack.pop()
        if span.parent is not None:
            self.spans[span.parent].child_s += span.duration

    @contextlib.contextmanager
    def job(self, job_id: int):
        """Spans recorded inside belong to ``job_id``."""
        self._job = job_id
        self._points = set()
        try:
            yield self
        finally:
            self.oracle_unique += len(self._points)
            self._points = set()
            self._job = None

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, around a call it makes."""
        span = self._open(name)
        try:
            yield span
        except BaseException as exc:
            span.error = type(exc).__name__
            raise
        finally:
            self._close(span)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "job": s.job, "parent": s.parent,
                    "start": s.start - self._t0, "end": s.end - self._t0,
                    "self_s": s.self_s, "queries": s.queries, "error": s.error,
                    "counts": s.counts,
                }) + "\n")


    def layer_metrics(self, n_jobs: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics over the traced jobs, as {name: (value, unit)}.

        Counts and times are per traced job; ratios are ratios of totals and
        read 0.0 when their base is empty.
        """
        by_name: dict[str, list[Span]] = {}
        layer_self = dict.fromkeys(LAYERS, 0.0)
        for s in self.spans:
            by_name.setdefault(s.name, []).append(s)
            layer_self[s.layer] += s.self_s
        layer_self["scenario"] += self.oracle_s

        def spans(name):
            return by_name.get(name, [])

        def seconds(name):
            return sum(s.duration for s in spans(name))

        def count(name, key):
            return sum(s.counts.get(key, 0) for s in spans(name))

        def ratio(num, den):
            return num / den if den else 0.0

        searches = spans("counterfactual.search")
        search_queries = sum(s.queries for s in searches)
        wasted = sum(s.queries for s in searches if s.error is not None)
        contradiction_s = seconds("validation.check_contradiction")
        pairs = count("validation.check_contradiction", "pairs")
        attempts = count("validation.refine_loop", "attempts")
        rule_runs = count("semantics.decisiveness", "runs")
        decisiveness_s = seconds("semantics.decisiveness")
        queries = sum(o.queries for o in self.oracles)
        generate = spans("generation.generate")
        per_job = {
            "storage.load_dataset.calls": (len(spans("storage.load_dataset")), "count"),
            "storage.load_dataset.s": (seconds("storage.load_dataset"), "s"),
            "storage.rows_loaded": (count("storage.load_dataset", "rows"), "count"),
            "storage.store.s": (seconds("storage.store_outcome"), "s"),
            "storage.bytes_written": (count("storage.store_outcome", "bytes"), "B"),
            "grammar.parse_rule.calls": (len(spans("grammar.parse_rule")), "count"),
            "grammar.parse_rule.s": (seconds("grammar.parse_rule"), "s"),
            "semantics.decisiveness.calls": (len(spans("semantics.decisiveness")), "count"),
            "semantics.decisiveness.s": (decisiveness_s, "s"),
            "semantics.rule_runs": (rule_runs, "count"),
            "scenario.oracle.queries": (queries, "count"),
            "scenario.oracle.s": (self.oracle_s, "s"),
            "counterfactual.build_evidence.s": (seconds("counterfactual.build_evidence"), "s"),
            "counterfactual.search.calls": (len(searches), "count"),
            "counterfactual.search.self_s": (sum(s.self_s for s in searches), "s"),
            "counterfactual.not_found": (
                sum(s.error == "CounterfactualNotFound" for s in searches), "count"),
            "counterfactual.budget_exceeded": (
                sum(s.error == "OracleBudgetExceeded" for s in searches), "count"),
            "generation.generate.calls": (len(generate), "count"),
            "generation.generate.s": (seconds("generation.generate"), "s"),
            "generation.generate.self_s": (sum(s.self_s for s in generate), "s"),
            "generation.candidates_scored": (
                count("generation.enumerate_single_edits", "candidates"), "count"),
            "generation.failures": (
                sum(s.error == "GenerationFailure" for s in generate), "count"),
            "validation.check_contradiction.calls": (
                len(spans("validation.check_contradiction")), "count"),
            "validation.check_contradiction.s": (contradiction_s, "s"),
            "validation.pairs_checked": (pairs, "count"),
            "validation.clear": (count("validation.check_contradiction", "clear"), "count"),
            "validation.flagged": (count("validation.check_contradiction", "flagged"), "count"),
            "validation.unknown": (count("validation.check_contradiction", "unknown"), "count"),
            "validation.check_preserved_consistency.s": (
                seconds("validation.check_preserved_consistency"), "s"),
            "validation.attempts": (attempts, "count"),
        }
        per_job.update({f"{layer}.self_s": (layer_self[layer], "s") for layer in LAYERS})
        metrics = {name: (value / n_jobs, unit) for name, (value, unit) in per_job.items()}
        metrics.update({
            "semantics.rule_runs_per_s": (ratio(rule_runs, decisiveness_s), "1/s"),
            "scenario.oracle.unique_ratio": (ratio(self.oracle_unique, queries), "ratio"),
            "counterfactual.queries_per_search": (ratio(search_queries, len(searches)), "count"),
            "counterfactual.wasted_query_ratio": (ratio(wasted, queries), "ratio"),
            "validation.s_per_pair": (ratio(contradiction_s, pairs), "s"),
            "validation.accept_ratio": (
                ratio(count("validation.refine_loop", "accepted"), attempts), "ratio"),
        })
        return metrics

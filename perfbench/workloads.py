"""Workload inputs and per-job correctness checks for the ruleforge benchmark.

A workload builds a pool of jobs from the run's seed. Each job is one or
more ``ruleforge`` CLI invocations over files written here, plus a check
that recomputes what the job's outputs claim. Inputs depend only on the
seed; the program sees only the generated files.

Pools are split into groups of equal composition. A run stops only at a
group boundary, so mix-dependent figures (pass ratio, the median job) do not
depend on where the clock ran out. Figures that are fixed by the inputs
(oracle queries, resolved ratio, decisiveness) are taken once per distinct
job input, so they do not depend on it either.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from ruleforge import storage
from ruleforge.cli import EXIT_OK, EXIT_REFINEMENT
from ruleforge.counterfactual import build_evidence
from ruleforge.grammar import OddSpec, odd_spec, parse_rule, random_rule
from ruleforge.scenario import (BASELINE_RULE_TEXT, DEFAULT_SAFE_REGION, OracleConfig,
                                default_config, make_oracle, make_reference_fixture,
                                oracle_label)
from ruleforge.semantics import (LabeledRun, Outcome, PolarizedRule, Polarity, decisiveness,
                                 evaluate)

#: Opposing fail rules that lie wholly beyond the safe boundary; every
#: candidate the local generator proposes clears them.
FAR_FAIL_RULES = ("dist_front > 40", "(dist_front > 30) and (lane_offset < -1.5)")
#: Shares the boundary dist_front = 4.2 with a refined threshold, so a correct
#: checker must prove the pair disjoint exactly at that value.
COMPLEMENTARY_FAIL_RULE = "(dist_front >= 4.2) and (ego_speed > 0)"
WIDE_BASELINE_TEXT = "(dist_front < 5.6) and (ego_speed > 0)"
WIDE_ODD = odd_spec([
    ("ego_speed", 0.0, 30.0, 0.5),
    ("dist_front", 0.0, 50.0, 0.2),
    ("lane_offset", -2.0, 2.0, 0.1),
    ("rel_speed", -10.0, 10.0, 0.5),
    ("accel", -5.0, 3.0, 0.25),
    ("yaw_rate", -0.5, 0.5, 0.05),
    ("road_grade", -8.0, 8.0, 0.5),
    ("visibility", 50.0, 500.0, 10.0),
])
#: Grid points sampled per opposing rule when checking a refinement for overlap.
OVERLAP_SAMPLES = 2000
#: bulk_audit: distinct inputs per pool, runs per dataset, and the share of
#: runs that the baseline gets wrong (about its share in a uniform sample).
BULK_POOL = 12
BULK_RUNS = 4_000
BULK_MISMATCH_SHARE = 0.016


@dataclass
class Check:
    """Outcome of one job's correctness check.

    ``passed`` is false for a failed job (non-zero exit, Exhausted, or a
    problem found); ``problems`` lists wrong outputs, which make the run
    incorrect. An Exhausted refinement fails the job without being a wrong
    output.
    """
    passed: bool
    problems: list[str] = field(default_factory=list)
    queries: int = 0  # oracle queries of the job's evidence build
    pairs: int = 0  # counterfactual pairs found
    searched: int = 0  # inconsistent runs searched
    dg_after: float | None = None  # decisiveness of the accepted refinement


@dataclass
class Job:
    key: str
    argvs: list[list[str]]
    out_dirs: list[Path]
    check: Callable[[list], Check]  # exit codes (or crash text) -> Check


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[int, Path, bool], list[Job]]  # (seed, input root, tiny) -> pool
    group: int = 1  # jobs per group of equal composition


def _write_inputs(folder: Path, runs, config: OracleConfig, rules) -> dict[str, Path]:
    folder.mkdir(parents=True, exist_ok=True)
    paths = {"dataset": folder / "dataset.csv", "config": folder / "oracle_config.json",
             "rules": folder / "rules.json"}
    storage.store_dataset(paths["dataset"], runs)
    storage.store_oracle_config(paths["config"], config)
    storage.store_rules(paths["rules"], rules)
    return paths


def _refine_argv(paths: dict[str, Path], rule_id: str, out_dir: Path) -> list[str]:
    return ["refine", "--rules", str(paths["rules"]), "--rule-id", rule_id,
            "--dataset", str(paths["dataset"]), "--config", str(paths["config"]),
            "--generator", "local", "--out", str(out_dir)]


def _grid_sample(odd: OddSpec, rng: random.Random, n: int):
    for _ in range(n):
        yield {v.name: v.grid_value(rng.randrange(v.grid_count)) for v in odd.variables}


def check_refine(rc: int, out_dir: Path, runs: list[LabeledRun], target: PolarizedRule,
                 opposing: list[PolarizedRule], config: OracleConfig,
                 sample_seed: int) -> Check:
    """Recompute the evidence build (for its oracle query count) and, for an
    accepted refinement, its mismatch drop, its decisiveness and its overlap
    with each opposing rule."""
    oracle = make_oracle(config)
    evidence = build_evidence(target, runs, oracle, config.odd)
    check = Check(passed=False, queries=oracle.queries, pairs=len(evidence.pairs),
                  searched=len(evidence.pairs) + len(evidence.unresolved))
    outcome_path = out_dir / "outcome.json"
    if rc == EXIT_REFINEMENT:
        if outcome_path.exists():
            check.problems.append("exhausted refinement wrote outcome.json")
        return check
    if rc != EXIT_OK:
        check.problems.append(f"refine exited with {rc!r}")
        return check
    outcome = json.loads(outcome_path.read_text(encoding="utf-8"))
    refined = PolarizedRule(target.id, target.polarity, parse_rule(outcome["refined_text"]))
    before = decisiveness(target, runs)
    after = decisiveness(refined, runs)
    if after.n_mismatch >= before.n_mismatch:
        check.problems.append(f"mismatches did not drop: {before.n_mismatch} -> "
                              f"{after.n_mismatch}")
    new = sorted(set(after.mismatches) - set(before.mismatches))
    if new:
        check.problems.append(f"refinement adds mismatches at runs {new[:5]}")
    if (outcome.get("dg_before"), outcome.get("dg_after")) != (before.dg, after.dg):
        check.problems.append("outcome.json decisiveness differs from the recomputed value")
    recorded = outcome["evidence"]
    if (len(recorded["pairs"]), recorded["unresolved"]) != (len(evidence.pairs),
                                                          list(evidence.unresolved)):
        check.problems.append("outcome.json evidence differs from a fresh evidence build")
    rng = random.Random(sample_seed)
    for rule in opposing:
        points = [run.x for run in runs]
        points += _grid_sample(config.odd, rng, OVERLAP_SAMPLES)
        witness = next((x for x in points
                        if evaluate(refined.ast, x) and evaluate(rule.ast, x)), None)
        if witness is not None:
            check.problems.append(f"refinement overlaps {rule.id} at {witness}")
    check.dg_after = after.dg
    check.passed = not check.problems
    return check


def check_eval(rc: int, report_path: Path, rules: list[PolarizedRule],
               runs: list[LabeledRun]) -> list[str]:
    """Problems with an ``eval`` report: every rule's mismatch count and
    decisiveness must equal the recomputed values."""
    if rc != EXIT_OK:
        return [f"eval exited with {rc!r}"]
    results = json.loads(report_path.read_text(encoding="utf-8"))["results"]
    problems = []
    if [r["rule_id"] for r in results] != [rule.id for rule in rules]:
        problems.append("eval report does not list every rule in order")
    for rule, result in zip(rules, results):
        report = decisiveness(rule, runs)
        if (result["n_mismatch"], result["dg"]) != (report.n_mismatch, report.dg):
            problems.append(f"eval n_mismatch for {rule.id}: {result['n_mismatch']} "
                            f"!= recomputed {report.n_mismatch}")
    return problems


def _job_seeds(seed: int, n: int) -> list[int]:
    rng = random.Random(seed)
    return [rng.randrange(2 ** 31) for _ in range(n)]


def _fail_rule(rule_id: str, text: str) -> PolarizedRule:
    return PolarizedRule(rule_id, Polarity.FAIL_RULE, parse_rule(text))


# ---------------------------------------------------------------------------
# fixture_repair: refine the reference fixture; validation-bound.
# ---------------------------------------------------------------------------


def build_fixture_repair(seed: int, root: Path, tiny: bool) -> list[Job]:
    """Refine the 198-run reference fixture, one fixture seed per job,
    against the far fail rules. Every fourth job also carries the
    complementary fail rule."""
    jobs = []
    for i, job_seed in enumerate(_job_seeds(seed, 4 if tiny else 12)):
        fixture = make_reference_fixture(job_seed)
        opposing = [_fail_rule(f"far-{k}", text) for k, text in enumerate(FAR_FAIL_RULES)]
        if i % 4 == 3:
            opposing.append(_fail_rule("complementary", COMPLEMENTARY_FAIL_RULE))
        target = fixture.baseline_rule
        paths = _write_inputs(root / "inputs" / f"{i:02d}", fixture.dataset, fixture.config,
                              [target, *opposing])
        out_dir = root / "out" / f"{i:02d}"

        def check(rcs, out_dir=out_dir, fixture=fixture, opposing=opposing, job_seed=job_seed):
            return check_refine(rcs[0], out_dir, fixture.dataset, fixture.baseline_rule,
                                opposing, fixture.config, job_seed)

        jobs.append(Job(f"fixture-{job_seed}", [_refine_argv(paths, target.id, out_dir)],
                        [out_dir], check))
    return jobs


# ---------------------------------------------------------------------------
# bulk_audit: eval a ruleset, then refine its baseline, on a large dataset.
# ---------------------------------------------------------------------------


def bulk_dataset(config: OracleConfig, n_runs: int, n_mismatch: int,
                 rng: random.Random) -> list[LabeledRun]:
    """``n_runs`` uniform step-grid samples, exactly ``n_mismatch`` of them
    where the baseline holds but the oracle says Fail. Each of the two
    strata is sampled uniformly; fixing their sizes keeps the number of
    counterfactual searches, and so a job's cost, the same from input to
    input."""
    baseline = parse_rule(BASELINE_RULE_TEXT)
    mismatching, rest = [], []
    while len(mismatching) < n_mismatch or len(rest) < n_runs - n_mismatch:
        x = next(_grid_sample(config.odd, rng, 1))
        y = oracle_label(config, x)
        stratum = mismatching if y is Outcome.FAIL and evaluate(baseline, x) else rest
        if len(stratum) < (n_mismatch if stratum is mismatching else n_runs - n_mismatch):
            stratum.append(LabeledRun(x, y))
    runs = mismatching + rest
    rng.shuffle(runs)
    return runs


def audit_rule(rng: random.Random, odd: OddSpec, relations: int):
    """A ``random_rule`` with exactly ``relations`` relations, so that every
    audit rule costs about the same to evaluate."""
    while True:
        ast = random_rule(rng.randrange(2 ** 31), odd, 2, 3)
        if sum(len(conj.relations) for conj in ast.disjuncts) == relations:
            return ast


def build_bulk_audit(seed: int, root: Path, tiny: bool) -> list[Job]:
    """Audit-then-repair on a uniformly sampled dataset: ``eval`` of the
    baseline and four random pass rules, then ``refine`` of the baseline.
    The extra rules share the baseline's polarity, so none opposes it."""
    jobs = []
    n_runs = 1000 if tiny else BULK_RUNS
    for i, job_seed in enumerate(_job_seeds(seed, 1 if tiny else BULK_POOL)):
        config = default_config(job_seed)
        rng = random.Random(job_seed)
        runs = bulk_dataset(config, n_runs, round(n_runs * BULK_MISMATCH_SHARE), rng)
        target = PolarizedRule("baseline", Polarity.PASS_RULE, parse_rule(BASELINE_RULE_TEXT))
        rules = [target] + [
            PolarizedRule(f"audit-{k}", Polarity.PASS_RULE, audit_rule(rng, config.odd, 3))
            for k in range(1, 5)]
        paths = _write_inputs(root / "inputs" / f"{i:02d}", runs, config, rules)
        out_dir = root / "out" / f"{i:02d}"

        def check(rcs, out_dir=out_dir, runs=runs, rules=rules, config=config,
                  job_seed=job_seed):
            problems = check_eval(rcs[0], out_dir / "eval.json", rules, runs)
            result = check_refine(rcs[1], out_dir / "refine", runs, rules[0], [], config,
                                  job_seed)
            result.problems[:0] = problems
            result.passed = result.passed and not problems
            return result

        jobs.append(Job(f"bulk-{job_seed}", [
            ["eval", "--rules", str(paths["rules"]), "--dataset", str(paths["dataset"]),
             "--out", str(out_dir / "eval.json")],
            _refine_argv(paths, target.id, out_dir / "refine"),
        ], [out_dir], check))
    return jobs


# ---------------------------------------------------------------------------
# wide_localize: refine on an 8-feature domain; counterfactual-bound.
# ---------------------------------------------------------------------------


def wide_dataset(config: OracleConfig, n_runs: int, per_distance: int,
                 rng: random.Random) -> list[LabeledRun]:
    """``per_distance`` mismatching runs at each dist_front grid value between
    the safe boundary (4.05) and the baseline threshold (5.6), at speeds of
    at least 4 so that dist_front sets the search radius; the rest drawn
    uniformly from outside the baseline's mismatch region."""
    odd = config.odd
    baseline = parse_rule(WIDE_BASELINE_TEXT)
    ego = odd.get("ego_speed")
    distances = [v for v in odd.get("dist_front").grid_values() if 4.05 <= v < 5.6]
    runs = []
    for distance in distances:
        for _ in range(per_distance):
            x = next(_grid_sample(odd, rng, 1))
            x["dist_front"] = distance
            x["ego_speed"] = ego.grid_value(rng.randrange(8, ego.grid_count))
            runs.append(LabeledRun(x, oracle_label(config, x)))
    while len(runs) < n_runs:
        x = next(_grid_sample(odd, rng, 1))
        y = oracle_label(config, x)
        if y is Outcome.FAIL and evaluate(baseline, x):
            continue
        runs.append(LabeledRun(x, y))
    rng.shuffle(runs)
    return runs


def build_wide_localize(seed: int, root: Path, tiny: bool) -> list[Job]:
    """Refine a baseline whose threshold (5.6) sits well past the safe
    boundary (4.05) on an 8-feature domain, against one far fail rule."""
    jobs = []
    for i, job_seed in enumerate(_job_seeds(seed, 1 if tiny else 4)):
        config = OracleConfig(WIDE_ODD, parse_rule(DEFAULT_SAFE_REGION), job_seed)
        runs = wide_dataset(config, 200 if tiny else 1000, 1 if tiny else 3,
                            random.Random(job_seed))
        target = PolarizedRule("baseline", Polarity.PASS_RULE, parse_rule(WIDE_BASELINE_TEXT))
        opposing = [_fail_rule("far-0", FAR_FAIL_RULES[0])]
        paths = _write_inputs(root / "inputs" / f"{i:02d}", runs, config, [target, *opposing])
        out_dir = root / "out" / f"{i:02d}"

        def check(rcs, out_dir=out_dir, runs=runs, target=target, opposing=opposing,
                  config=config, job_seed=job_seed):
            return check_refine(rcs[0], out_dir, runs, target, opposing, config, job_seed)

        jobs.append(Job(f"wide-{job_seed}", [_refine_argv(paths, target.id, out_dir)],
                        [out_dir], check))
    return jobs


WORKLOADS = {w.name: w for w in (
    Workload("fixture_repair", build_fixture_repair, group=4),
    # Its inputs still differ a little in cost, so only whole pools run.
    Workload("bulk_audit", build_bulk_audit, group=BULK_POOL),
    Workload("wide_localize", build_wide_localize),
)}

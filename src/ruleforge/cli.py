"""Command-line pipeline: simulate, evaluate, localize, refine, score, check.

Exit codes: 0 success, 1 usage error, 2 parse/format error, 3 refinement
exhausted or validation rejection. Each fault is raised where it is found;
main alone reports it on stderr, as "error (<kind>): <message>" or, under
--json, as one JSON line {"error", "message"}. All inputs are loaded and
validated, and an --out of the wrong kind refused, before any output file
is written.
"""

from __future__ import annotations

import itertools
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

import click
from click.core import ParameterSource

from . import storage
from .counterfactual import NoInconsistency, SearchLimits, build_evidence
from .generation import DeterministicGenerator, LlmConfig, LlmGenerator, MockGenerator
from .grammar import ParseError, check_vocabulary, parse_rule, print_rule
from .metrics import build_metrics_report, grammar_compliance, metrics_table
from .scenario import default_config, make_oracle, make_reference_fixture, sample_dataset
from .semantics import PolarizedRule, decisiveness
from .validation import DEFAULT_MAX_ATTEMPTS, Exhausted, refine_loop

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_FORMAT = 2
EXIT_REFINEMENT = 3

ENV_BASE_URL = "RULEFORGE_LLM_BASE_URL"
ENV_API_KEY = "RULEFORGE_LLM_API_KEY"
ENV_MODEL = "RULEFORGE_LLM_MODEL"


class Refusal(Exception):
    """A fault a command found; main reports it under its kind and exits
    with its code."""

    def __init__(self, message: str, kind: str = "usage", exit_code: int = EXIT_USAGE):
        super().__init__(message)
        self.kind = kind
        self.exit_code = exit_code


def _pick_rule(rules, rule_id: str | None):
    if rule_id is None:
        if len(rules) == 1:
            return rules[0]
        raise Refusal("multiple rules in file; pass --rule-id")
    for rule in rules:
        if rule.id == rule_id:
            return rule
    raise Refusal(f"no rule with id {rule_id!r}")


def _load_inputs(loader, path, *args):
    try:
        return loader(path, *args)
    except OSError as exc:  # missing, a directory, unreadable
        raise Refusal(f"cannot read {path}: {exc.strerror or exc}")


def _load_in_domain(rules_path, dataset_path, config_path):
    """Load a dataset, an oracle config and rules. A run outside the config's
    declared domain (or lacking one of its variables) cannot be searched or
    scored, nor can a rule naming a variable the domain lacks: both are
    refused as format errors."""
    runs = _load_inputs(storage.load_dataset, dataset_path)
    config = _load_inputs(storage.load_oracle_config, config_path)
    for lineno, run in enumerate(runs, start=2):
        if not config.odd.contains_point(run.x):
            raise storage.FormatError(f"{dataset_path}: line {lineno}: "
                                      f"run outside the declared domain: {run.x}")
    rules = _load_inputs(storage.load_rules, rules_path, config.odd.names)
    return rules, runs, config


def _made_parent(path: Path) -> Path:
    """path, once the directory it lies in exists: a file named by --out may
    lie under directories not made yet, as sim and refine's --out may."""
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


@click.group(no_args_is_help=False)  # no command is a usage error, one line like any other
# main reads --json itself: click may refuse the command line before any callback runs
@click.option("--json", is_flag=True, expose_value=False,
              help="Machine-readable JSON diagnostics on stderr.")
def cli():
    """Grammar-constrained refinement of safety operational rules."""


@cli.command()
@click.option("--config", "config_path", type=click.Path(path_type=Path),
              help="Oracle config JSON; defaults to the built-in scenario.")
@click.option("--n", type=click.IntRange(min=1), default=198, show_default=True,
              help="Number of runs to sample.")
@click.option("--seed", default=42, show_default=True)
@click.option("--reference-fixture", is_flag=True,
              help="Emit the canned 198-run / 27-mismatch fixture instead of sampling.")
@click.option("--out", "out_dir", type=click.Path(file_okay=False, path_type=Path),
              default=Path("."), show_default=True, help="Output directory.")
@click.pass_context
def sim(ctx, config_path, n, seed, reference_fixture, out_dir):
    """Sample a labeled dataset from the synthetic oracle."""
    if reference_fixture:
        # The fixture has its own config and run count; neither can be chosen.
        if config_path or ctx.get_parameter_source("n") is not ParameterSource.DEFAULT:
            raise click.UsageError("--reference-fixture takes neither --config nor --n", ctx)
        fixture = make_reference_fixture(seed)
        config, runs = fixture.config, fixture.dataset
        rules = [fixture.baseline_rule]
    else:
        # The runs are drawn with the seed of the config that is written.
        config = (replace(_load_inputs(storage.load_oracle_config, config_path),
                          seed=seed)
                  if config_path else default_config(seed))
        runs = sample_dataset(config, n)
        rules = None
    out_dir.mkdir(parents=True, exist_ok=True)
    storage.store_dataset(out_dir / "dataset.csv", runs)
    storage.store_oracle_config(out_dir / "oracle_config.json", config)
    if rules is not None:
        storage.store_rules(out_dir / "rules.json", rules)
    click.echo(f"wrote {len(runs)} runs to {out_dir / 'dataset.csv'}")


@cli.command("eval")
@click.option("--rules", "rules_path", type=click.Path(path_type=Path), required=True)
@click.option("--dataset", "dataset_path", type=click.Path(path_type=Path), required=True)
@click.option("--out", "out_path", type=click.Path(dir_okay=False, path_type=Path),
              help="Write the JSON report here instead of stdout.")
def eval_cmd(rules_path, dataset_path, out_path):
    """Per-rule decisiveness over a labeled dataset."""
    runs = _load_inputs(storage.load_dataset, dataset_path)
    rules = _load_inputs(storage.load_rules, rules_path, runs[0].x)
    results = []
    definitive_dgs = []
    for rule in rules:
        report = decisiveness(rule, runs)
        if not report.fully_inconclusive:
            definitive_dgs.append(report.dg)
        results.append({
            "rule_id": rule.id,
            "dg": report.dg,
            "n": report.n,
            "n_mismatch": report.n_mismatch,
            "mismatches": list(report.mismatches),
            "fully_inconclusive": report.fully_inconclusive,
        })
    payload = {
        "schema_version": storage.SCHEMA_VERSION,
        "results": results,
        # rule-set aggregate: mean over rules with at least one definitive verdict
        "aggregate_dg": (sum(definitive_dgs) / len(definitive_dgs)
                         if definitive_dgs else None),
    }
    if out_path:
        storage.write_json(_made_parent(out_path), payload)
    else:
        click.echo(storage.json_text(payload), nl=False)


@cli.command()
@click.option("--rules", "rules_path", type=click.Path(path_type=Path), required=True)
@click.option("--rule-id", default=None)
@click.option("--dataset", "dataset_path", type=click.Path(path_type=Path), required=True)
@click.option("--config", "config_path", type=click.Path(path_type=Path), required=True,
              help="Oracle config JSON (the re-execution stand-in).")
@click.option("--max-radius", type=click.IntRange(min=1),
              default=SearchLimits().max_radius_steps, show_default=True)
@click.option("--search-budget", type=click.IntRange(min=1), default=SearchLimits().budget,
              show_default=True, help="Oracle queries allowed per counterfactual search.")
@click.option("--out", "out_path", type=click.Path(dir_okay=False, path_type=Path),
              default=Path("evidence.json"), show_default=True)
def cf(rules_path, rule_id, dataset_path, config_path, max_radius, search_budget, out_path):
    """Build the counterfactual evidence file for an inconsistent rule."""
    rules, runs, config = _load_in_domain(rules_path, dataset_path, config_path)
    rule = _pick_rule(rules, rule_id)
    limits = SearchLimits(max_radius_steps=max_radius, budget=search_budget)
    evidence = build_evidence(rule, runs, make_oracle(config), config.odd, limits,
                              dataset_ref=str(dataset_path))
    storage.store_evidence(_made_parent(out_path), evidence)
    click.echo(f"wrote {len(evidence.pairs)} pairs "
               f"({len(evidence.unresolved)} unresolved) to {out_path}")


def _make_generator(generator: str, mock_script):
    if generator != "mock" and mock_script is not None:
        raise Refusal("--mock-script is only for --generator mock")
    if generator == "local":
        return DeterministicGenerator()
    if generator == "mock":
        if mock_script is None:
            raise Refusal("--generator mock requires --mock-script")
        responses = _load_inputs(storage.read_json, mock_script)
        if not isinstance(responses, list) or not all(isinstance(r, str) for r in responses):
            raise storage.FormatError(f"{mock_script}: expected a JSON list of strings")
        return MockGenerator(responses)
    missing = [name for name in (ENV_BASE_URL, ENV_API_KEY, ENV_MODEL)
               if not os.environ.get(name)]
    if missing:
        raise Refusal("llm generator needs environment variables: " + ", ".join(missing))
    config = LlmConfig(base_url=os.environ[ENV_BASE_URL], api_key=os.environ[ENV_API_KEY],
                       model=os.environ[ENV_MODEL])
    return LlmGenerator(config)


@cli.command()
@click.option("--rules", "rules_path", type=click.Path(path_type=Path), required=True)
@click.option("--rule-id", default=None)
@click.option("--dataset", "dataset_path", type=click.Path(path_type=Path), required=True)
@click.option("--config", "config_path", type=click.Path(path_type=Path), required=True)
@click.option("--generator", type=click.Choice(["local", "llm", "mock"]), default="local",
              show_default=True)
@click.option("--mock-script", type=click.Path(path_type=Path),
              help="JSON list of scripted responses for --generator mock.")
@click.option("--max-attempts", type=click.IntRange(min=1), default=DEFAULT_MAX_ATTEMPTS,
              show_default=True)
@click.option("--max-radius", type=click.IntRange(min=1),
              default=SearchLimits().max_radius_steps, show_default=True)
@click.option("--search-budget", type=click.IntRange(min=1), default=SearchLimits().budget,
              show_default=True)
@click.option("--out", "out_dir", type=click.Path(file_okay=False, path_type=Path),
              default=Path("."), show_default=True, help="Output directory.")
def refine(rules_path, rule_id, dataset_path, config_path, generator,
           mock_script, max_attempts, max_radius, search_budget, out_dir):
    """Run the refine-validate loop on an inconsistent rule."""
    gen = _make_generator(generator, mock_script)
    rules, runs, config = _load_in_domain(rules_path, dataset_path, config_path)
    target = _pick_rule(rules, rule_id)
    limits = SearchLimits(max_radius_steps=max_radius, budget=search_budget)
    try:
        outcome = refine_loop(target, rules, runs, make_oracle(config), config.odd, gen,
                              max_attempts, limits=limits)
    except Exhausted as exc:
        _write_transcripts(out_dir, gen)
        summary = "; ".join(r.failure_summary or "" for r in exc.reports)
        raise Refusal(f"exhausted after {len(exc.reports)} attempts: {summary}",
                      "refinement", EXIT_REFINEMENT)
    out_dir.mkdir(parents=True, exist_ok=True)
    storage.store_outcome(out_dir / "outcome.json", outcome, target.id)
    (out_dir / "report.txt").write_text(_render_report(target, outcome), encoding="utf-8")
    _write_transcripts(out_dir, gen)
    click.echo(f"accepted on attempt {outcome.attempts}: {print_rule(outcome.refined)}")
    click.echo(f"dg {outcome.dg_before:.4f} -> {outcome.dg_after:.4f}")


def _write_transcripts(out_dir: Path, gen) -> None:
    """Write the generator's transcript, if it keeps one, making out_dir
    only then: a generator without one leaves no directory behind."""
    transcript = getattr(gen, "transcript", None)
    if transcript is None:
        return
    payload = {
        "schema_version": storage.SCHEMA_VERSION,
        "transcripts": [{"prompt": t.prompt, "response": t.response} for t in transcript],
    }
    storage.write_json(_made_parent(out_dir / "transcripts.json"), payload)


def _render_report(target, outcome) -> str:
    lines = [
        f"rule {target.id} ({target.polarity.value})",
        f"  before: {print_rule(target.ast)}",
        f"  after:  {print_rule(outcome.refined)}",
        f"  decisiveness: {outcome.dg_before:.4f} -> {outcome.dg_after:.4f}",
        f"  attempts: {outcome.attempts}",
        "",
        "change log:",
    ]
    for edit in outcome.change_log:
        lines.append(f"  - {edit.kind.value} at {list(edit.path)}: "
                     f"{edit.before or '(none)'} -> {edit.after or '(removed)'}")
    lines += ["", "explanation:", f"  {outcome.explanation or '(none)'}", ""]
    return "\n".join(lines)


@cli.command("metrics")
@click.option("--rules", "rules_path", type=click.Path(path_type=Path), required=True)
@click.option("--rule-id", default=None)
@click.option("--dataset", "dataset_path", type=click.Path(path_type=Path), required=True)
@click.option("--config", "config_path", type=click.Path(path_type=Path), required=True)
@click.option("--outcome", "outcome_path", type=click.Path(path_type=Path), required=True)
@click.option("--raw", "raw_path", type=click.Path(path_type=Path),
              help="Raw generator text for grammar compliance; defaults to the "
                   "canonical refined rule.")
@click.option("--out", "out_path", type=click.Path(dir_okay=False, path_type=Path),
              default=Path("metrics.json"), show_default=True)
def metrics_cmd(rules_path, rule_id, dataset_path, config_path, outcome_path, raw_path,
                out_path):
    """Score a refinement: decisiveness gain, validity, compliance, minimality."""
    rules, runs, config = _load_in_domain(rules_path, dataset_path, config_path)
    refined = _load_inputs(storage.load_refined_rule, outcome_path, config.odd.names)
    target = _pick_rule(rules, rule_id)
    raw_text = (_load_inputs(storage.read_text, raw_path) if raw_path
                else print_rule(refined))
    report = build_metrics_report(
        before=decisiveness(target, runs),
        after=decisiveness(PolarizedRule(target.id, target.polarity, refined), runs),
        refined=refined, original=target.ast, odd=config.odd, raw_text=raw_text)
    storage.store_metrics(_made_parent(out_path), report)
    click.echo(metrics_table(report, label=target.id[:12]))


@cli.command()
@click.option("--rules", "rules_path", type=click.Path(path_type=Path), required=True)
@click.option("--config", "config_path", type=click.Path(path_type=Path), required=True)
def check(rules_path, config_path):
    """Parse and vet a rules file: vocabulary and grammar compliance."""
    config = _load_inputs(storage.load_oracle_config, config_path)
    failures = 0
    for rule_id, _, text in _load_inputs(storage.rule_entries, rules_path):
        gc = grammar_compliance(text)
        try:
            ast = parse_rule(text)
        except ParseError as exc:
            failures += 1
            click.echo(f"{rule_id}: PARSE ERROR ({exc}); gc={gc.gc:.3f} "
                       f"({gc.n_viol}/{gc.n_tok} violating tokens)")
            continue
        violations = check_vocabulary(ast, config.odd)
        status = "ok" if not violations else "; ".join(str(v) for v in violations)
        click.echo(f"{rule_id}: {status}; gc={gc.gc:.3f}")
        if violations:
            failures += 1
    if failures:
        raise Refusal(f"{failures} rule(s) failed validation", "check", EXIT_FORMAT)


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else list(argv)
    try:
        cli.main(args=args, standalone_mode=False)
        return EXIT_OK
    except click.UsageError as exc:
        kind, message, code = "usage", exc.format_message(), EXIT_USAGE
    except Refusal as exc:
        kind, message, code = exc.kind, str(exc), exc.exit_code
    except storage.FormatError as exc:
        kind, message, code = "format", str(exc), EXIT_FORMAT
    except NoInconsistency as exc:
        kind, message, code = "usage", str(exc), EXIT_USAGE
    as_json = "--json" in itertools.takewhile(lambda arg: arg.startswith("-"), args)
    click.echo(json.dumps({"error": kind, "message": message}) if as_json
               else f"error ({kind}): {message}", err=True)
    return code


if __name__ == "__main__":
    sys.exit(main())

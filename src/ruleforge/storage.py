"""File formats and canonical (reproducible) serialization.

* Dataset CSV: feature columns plus a final ``outcome`` column of
  Pass/Fail, UTF-8, comma separated. Numbers are written in canonical
  decimal form so store(load(path)) is byte-identical for canonical files.
  Rows are converted a block of BLOCK_ROWS at a time, a column at a time;
  a faulty block is walked row by row to name its first faulty line. A
  clean block's row dicts are filled a column at a time too, without
  generated code, and its runs are built by the tuple constructor, not
  LabeledRun's own. The header's feature names are interned, so each run's
  keys are the very strings that compiled rules, labels and ODD variables
  look up.
* Rules JSON: a bare list of {"id", "polarity": "pass"|"fail", "text"}.
* Engine-owned JSON artifacts (oracle config, evidence, outcome, metrics)
  carry a schema_version header.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
from collections import deque
from functools import partial
from itertools import islice, repeat
from operator import setitem
from pathlib import Path

from .counterfactual import EvidenceFile
from .grammar import (GrammarError, OddSpec, OddVariable, ParseError, RuleAst, fmt_number,
                      parse_rule, print_rule)
from .metrics import MetricsReport
from .scenario import ConstructionFailure, OracleConfig
from .semantics import LabeledRun, Outcome, PolarizedRule, Polarity
from .validation import RefinementOutcome, ValidationReport

SCHEMA_VERSION = 1


class FormatError(ValueError):
    """Malformed input file; the message names the offending location."""


def _fail(path, message: str):
    raise FormatError(f"{path}: {message}")


# ---------------------------------------------------------------------------
# Dataset CSV.
# ---------------------------------------------------------------------------


_OUTCOMES = {outcome.value: outcome for outcome in Outcome}

#: A run from (x, y) at a tuple's cost: LabeledRun's own constructor is a
#: Python function, one frame per row.
_run = partial(tuple.__new__, LabeledRun)

#: Rows read and converted together: each conversion is one C loop over a
#: column, and a load's peak memory exceeds what its runs retain by one
#: block's cells at most.
BLOCK_ROWS = 1024


def load_dataset(path: str | Path) -> list[LabeledRun]:
    path = Path(path)
    try:
        # utf-8-sig: a leading byte-order mark is not part of the first column name
        with path.open(newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                _fail(path, "empty dataset file")
            if not header or header[-1] != "outcome":
                _fail(path, 'last column must be "outcome"')
            features = list(map(sys.intern, header[:-1]))
            if not features:
                _fail(path, "no feature columns")
            if len(set(header)) != len(header):
                # a run keyed by column name would keep only the last copy
                duplicate = next(name for i, name in enumerate(header) if name in header[:i])
                _fail(path, f"duplicated column {duplicate!r}")
            runs = []
            while rows := list(islice(reader, BLOCK_ROWS)):
                block = _block_columns(rows, len(header))
                if block is None:
                    _row_fault(path, rows, len(runs) + 2, len(header))
                del rows  # its cells are freed before the runs take their memory
                columns, ys = block
                xs = [{} for _ in ys]
                for name, column in zip(features, columns):
                    # one C loop of x[name] = value over the block's rows
                    deque(map(setitem, xs, repeat(name), column), maxlen=0)
                runs += map(_run, zip(xs, ys))
    except UnicodeDecodeError as exc:
        _fail(path, f"not UTF-8 text: {exc.reason}")
    if not runs:
        _fail(path, "dataset has no runs")
    return runs


def _block_columns(rows: list[list[str]],
                   width: int) -> tuple[list[list[float]], list[Outcome]] | None:
    """The feature columns of a block of rows, as floats, and its outcomes,
    each converted a column at a time; None when any row is faulty, which
    _row_fault then names."""
    if set(map(len, rows)) != {width}:
        return None
    *cells, labels = zip(*rows)
    try:
        columns = [list(map(float, column)) for column in cells]
    except ValueError:
        return None
    ys = list(map(_OUTCOMES.get, labels))
    if None in ys or not all(all(map(math.isfinite, column)) for column in columns):
        return None
    return columns, ys


def _row_fault(path, rows: list[list[str]], lineno: int, width: int):
    """Refuse the first faulty row of rows, the first of which is on line
    lineno: the one place a row's fault is worded. Its checks are those of
    _block_columns, so a block that one refuses has a row that the other does."""
    for lineno, row in enumerate(rows, start=lineno):
        if len(row) != width:
            _fail(path, f"line {lineno}: expected {width} fields, got {len(row)}")
        try:
            values = list(map(float, row[:-1]))
        except ValueError:
            _fail(path, f"line {lineno}: non-numeric feature value")
        if not all(map(math.isfinite, values)):
            _fail(path, f"line {lineno}: non-finite feature value")
        if row[-1] not in _OUTCOMES:
            _fail(path, f"line {lineno}: outcome must be Pass or Fail, got {row[-1]!r}")


class _NumberText(dict):
    """fmt_number of each float looked up, formatted on its first lookup.
    Exact as a cache: the only distinct floats that compare equal, -0.0 and
    0.0, both print "0"."""

    def __missing__(self, value: float) -> str:
        text = self[value] = fmt_number(value)
        return text


def dataset_bytes(runs: list[LabeledRun]) -> bytes:
    features = list(runs[0].x.keys())
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(features + ["outcome"])
    # Grid datasets repeat a few hundred values per column: format each once.
    text = _NumberText()
    writer.writerows([text[run.x[name]] for name in features] + [run.y.value] for run in runs)
    return buffer.getvalue().encode("utf-8")


def store_dataset(path: str | Path, runs: list[LabeledRun]) -> None:
    Path(path).write_bytes(dataset_bytes(runs))


# ---------------------------------------------------------------------------
# JSON helpers.
# ---------------------------------------------------------------------------


def json_text(payload) -> str:
    """The one JSON form of every artifact: indented, non-ASCII kept as is,
    newline-terminated."""
    return json.dumps(payload, indent=2, ensure_ascii=False) + "\n"


def write_json(path: str | Path, payload) -> None:
    Path(path).write_bytes(json_text(payload).encode("utf-8"))


def read_text(path: str | Path) -> str:
    """The file's text; bytes that are not UTF-8 are a FormatError."""
    path = Path(path)
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        _fail(path, f"not UTF-8 text: {exc.reason} at byte {exc.start}")


def read_json(path: str | Path):
    try:
        return json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        _fail(path, f"invalid JSON: {exc}")


# ---------------------------------------------------------------------------
# Rules file.
# ---------------------------------------------------------------------------


def rule_entries(path: str | Path) -> list[tuple[str, Polarity, str]]:
    """The rules file's entries as (id, polarity, text), in file order, its
    structure checked and its texts not yet parsed: a non-empty JSON list of
    objects whose id, polarity and text are strings, whose polarity is
    "pass" or "fail", and whose ids are unique."""
    data = read_json(path)
    if not isinstance(data, list):
        _fail(path, "rules file must be a JSON list")
    if not data:
        _fail(path, "rules file is empty")
    entries = []
    seen_ids = set()
    for i, entry in enumerate(data):
        if not isinstance(entry, dict):
            _fail(path, f"rule {i}: expected an object")
        for key in ("id", "polarity", "text"):
            if key not in entry:
                _fail(path, f"rule {i}: missing field {key!r}")
            if not isinstance(entry[key], str):
                _fail(path, f"rule {i}: field {key!r} must be a string, got {entry[key]!r}")
        try:
            polarity = Polarity(entry["polarity"])
        except ValueError:
            _fail(path, f"rule {i}: field 'polarity' must be \"pass\" or \"fail\", "
                        f"got {entry['polarity']!r}")
        if entry["id"] in seen_ids:
            _fail(path, f"rule {i}: duplicate id {entry['id']!r}")
        seen_ids.add(entry["id"])
        entries.append((entry["id"], polarity, entry["text"]))
    return entries


def _checked_rule(path, where: str, text: str, variables) -> RuleAst:
    """The parsed rule text; text that does not parse, or that names a
    variable outside the given ones, is refused at `where` in the file."""
    try:
        ast = parse_rule(text)
    except ParseError as exc:
        _fail(path, f"{where}: {exc}")
    if not ast.variables() <= set(variables):
        _fail(path, f"{where}: unbound variable(s) {sorted(ast.variables() - set(variables))}")
    return ast


def load_rules(path: str | Path, variables) -> list[PolarizedRule]:
    """Rules in file order. variables, required, names what the rules will
    be evaluated over: a rule naming any other variable is refused, since
    it cannot be scored."""
    return [PolarizedRule(id=rule_id, polarity=polarity,
                          ast=_checked_rule(path, f"rule {i} ({rule_id})", text, variables))
            for i, (rule_id, polarity, text) in enumerate(rule_entries(path))]


def store_rules(path: str | Path, rules: list[PolarizedRule]) -> None:
    write_json(path, [
        {"id": r.id, "polarity": r.polarity.value, "text": print_rule(r.ast)}
        for r in rules
    ])


# ---------------------------------------------------------------------------
# ODD / oracle config.
# ---------------------------------------------------------------------------


def odd_to_json(odd: OddSpec) -> dict:
    return {"variables": [
        {"name": v.name, "min": v.min, "max": v.max, "step": v.step}
        for v in odd.variables
    ]}


def _odd_variable(path, i: int, v) -> OddVariable:
    """Entry i of an ODD's variables. A fault names the entry (its name when
    that is a string, else i) and the field. min, max and step must be JSON
    numbers that fit a float: float() alone would also take a bool or a
    numeric string, and raises OverflowError on a larger integer."""
    if not isinstance(v, dict):
        _fail(path, f"variable {i}: expected an object, got {v!r}")
    label = repr(v["name"]) if isinstance(v.get("name"), str) else i
    for field in ("name", "min", "max", "step"):
        if field not in v:
            _fail(path, f"variable {label}: missing field {field!r}")
    if not isinstance(v["name"], str):
        _fail(path, f"variable {label}: field 'name' must be a string, got {v['name']!r}")
    numbers = []
    for field in ("min", "max", "step"):
        if isinstance(v[field], bool) or not isinstance(v[field], (int, float)):
            _fail(path, f"variable {label}: field {field!r} must be a number, got {v[field]!r}")
        try:
            numbers.append(float(v[field]))
        except OverflowError:
            _fail(path, f"variable {label}: field {field!r} is too large for a float")
    return OddVariable(v["name"], *numbers)


def odd_from_json(data, path) -> OddSpec:
    if not isinstance(data, dict) or "variables" not in data:
        _fail(path, 'expected an object with a "variables" list')
    if not isinstance(data["variables"], list):
        _fail(path, f"field 'variables' must be a list, got {data['variables']!r}")
    try:
        odd = OddSpec(tuple(_odd_variable(path, i, v) for i, v in enumerate(data["variables"])))
    except GrammarError as exc:
        _fail(path, f"bad variable entry: {exc}")
    if not odd.variables:
        _fail(path, "the ODD declares no variables")
    return odd


def store_oracle_config(path: str | Path, config: OracleConfig) -> None:
    write_json(path, {
        "schema_version": SCHEMA_VERSION,
        "odd": odd_to_json(config.odd),
        "safe_region": print_rule(config.safe_region),
        "seed": config.seed,
    })


def load_oracle_config(path: str | Path) -> OracleConfig:
    data = read_json(path)
    if not isinstance(data, dict):
        _fail(path, "oracle config must be a JSON object")
    for key, kind, name in (("odd", dict, "an object"), ("safe_region", str, "a string"),
                            ("seed", int, "an integer")):
        if key not in data:
            _fail(path, f"missing field {key!r}")
        if not isinstance(data[key], kind) or isinstance(data[key], bool):
            _fail(path, f"field {key!r} must be {name}, got {data[key]!r}")
    odd = odd_from_json(data["odd"], path)
    try:
        return OracleConfig(odd=odd, safe_region=parse_rule(data["safe_region"]),
                            seed=data["seed"])
    except (ParseError, ConstructionFailure) as exc:
        _fail(path, f"safe_region: {exc}")


# ---------------------------------------------------------------------------
# Evidence file.
# ---------------------------------------------------------------------------


def evidence_to_json(evidence: EvidenceFile) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "rule_id": evidence.rule_id,
        "rule_text": evidence.rule_text,
        "dataset_ref": evidence.dataset_ref,
        "pairs": [
            {
                "x": pair.x,
                "y": pair.y.value,
                "x_cf": pair.x_cf,
                "y_cf": pair.y_cf.value,
                "delta": pair.delta,
                "l1": pair.l1,
                "l1_steps": pair.l1_steps,
            }
            for pair in evidence.pairs
        ],
        "unresolved": list(evidence.unresolved),
    }


def store_evidence(path: str | Path, evidence: EvidenceFile) -> None:
    write_json(path, evidence_to_json(evidence))


# ---------------------------------------------------------------------------
# Refinement outcome and validation reports.
# ---------------------------------------------------------------------------


def _report_to_json(report: ValidationReport) -> dict:
    contradiction = None
    if report.contradiction is not None:
        contradiction = {
            "status": report.contradiction.status.value,
            "witness": report.contradiction.witness,
            "opposing_rule_id": report.contradiction.opposing_rule_id,
        }
    return {
        "attempt": report.attempt,
        "candidate_text": report.candidate_text,
        "contradiction": contradiction,
        # kept constant for schema 1: rules classify runs independently, so a
        # candidate cannot break another rule (see validation)
        "preserved": {"broken_rule_ids": []},
        "resolution": {
            "mismatch_before": report.mismatch_before,
            "mismatch_after": report.mismatch_after,
        },
        "new_inconsistencies": report.new_inconsistencies,
        "accepted": report.accepted,
        "failure_summary": report.failure_summary,
        "diagnostics": list(report.diagnostics),
    }


def outcome_to_json(outcome: RefinementOutcome, rule_id: str) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "rule_id": rule_id,
        "refined_text": print_rule(outcome.refined),
        "change_log": [
            {"kind": e.kind.value, "path": list(e.path), "before": e.before, "after": e.after}
            for e in outcome.change_log
        ],
        "explanation": outcome.explanation,
        "attempts": outcome.attempts,
        "reports": [_report_to_json(r) for r in outcome.reports],
        "evidence": evidence_to_json(outcome.evidence),
        "dg_before": outcome.dg_before,
        "dg_after": outcome.dg_after,
    }


def store_outcome(path: str | Path, outcome: RefinementOutcome, rule_id: str) -> None:
    write_json(path, outcome_to_json(outcome, rule_id))


def load_refined_rule(path: str | Path, variables) -> RuleAst:
    """The refined rule of an outcome file, its only field a score needs:
    the file must be a JSON object whose "refined_text" is a string that
    parses to a rule over the given variables."""
    data = read_json(path)
    if not isinstance(data, dict):
        _fail(path, "outcome file must be a JSON object")
    if "refined_text" not in data:
        _fail(path, "missing field 'refined_text'")
    if not isinstance(data["refined_text"], str):
        _fail(path, f"field 'refined_text' must be a string, got {data['refined_text']!r}")
    return _checked_rule(path, "refined rule", data["refined_text"], variables)


# ---------------------------------------------------------------------------
# Metrics report.
# ---------------------------------------------------------------------------


def metrics_to_json(report: MetricsReport) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "dg_before": report.dg_before,
        "dg_after": report.dg_after,
        "dg_gain": report.dg_gain,
        "sv": {
            "score": report.sv.sv,
            "n_invalid": report.sv.n_invalid,
            "n_pred": report.sv.n_pred,
            "invalid_predicates": list(report.sv.invalid_predicates),
        },
        "gc": {"score": report.gc.gc, "n_viol": report.gc.n_viol, "n_tok": report.gc.n_tok},
        "cm": {"score": report.cm.cm, "band": report.cm.band,
               "edit_stats": report.cm.edit_stats},
    }


def store_metrics(path: str | Path, report: MetricsReport) -> None:
    write_json(path, metrics_to_json(report))

"""File formats and canonical (reproducible) serialization.

* Dataset CSV: feature columns plus a final ``outcome`` column of
  Pass/Fail, UTF-8, comma separated. Numbers are written in canonical
  decimal form so store(load(path)) is byte-identical for canonical files.
  Loaded with an ODD, runs are points of its step grid, each value read as
  its grid point, and list features in ODD order, then other columns in
  file order: column order changes no artifact. Each distinct value of
  an ODD variable's column is checked against its grid once per load.
  Rows are converted a block of BLOCK_ROWS at a time, a column at a time;
  a faulty block is walked row by row to name the line on which its first
  faulty record starts. A clean block's row dicts are filled a column at a
  time too, without generated code, and its runs are built by the tuple
  constructor, not LabeledRun's own. The header's feature names are
  interned, so each run's keys are the very strings that compiled rules,
  labels and ODD variables look up.
* Rules JSON: a bare list of {"id", "polarity": "pass"|"fail", "text"}.
* Engine-owned JSON artifacts (oracle config, eval report, evidence,
  outcome, metrics, transcripts) carry a schema_version header, and each
  is built here.
* Every JSON artifact has one form, that of json.dumps(indent=2,
  ensure_ascii=False) plus a newline (json_text). Containers of leaf
  values are written by the C encoder; only containers of containers are
  joined in Python.
* Every file is written by one primitive, which first makes the
  directories the file lies in.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
from collections import deque
from functools import cache, partial
from itertools import islice, repeat
from json.encoder import c_make_encoder, encode_basestring
from operator import setitem
from pathlib import Path

from .counterfactual import EvidenceFile
from .generation import TranscriptEntry
from .grammar import (GrammarError, OddSpec, OddVariable, ParseError, RuleAst, _Memo,
                      fmt_number, parse_rule, print_rule)
from .metrics import MetricsReport
from .scenario import ConstructionFailure, OracleConfig
from .semantics import DecisivenessReport, LabeledRun, Outcome, PolarizedRule, Polarity
from .validation import RefinementOutcome, ValidationReport

SCHEMA_VERSION = 1


class FormatError(ValueError):
    """Malformed input file; the message names the offending location."""


def _fail(path, message: str):
    raise FormatError(f"{path}: {message}")


def _write(path: str | Path, data: bytes) -> None:
    """Write data to path, first making the directories it lies in: every
    file is written here, so an output may name a directory not made yet."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(data)


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


def load_dataset(path: str | Path, odd: OddSpec | None = None) -> list[LabeledRun]:
    """The runs of a dataset CSV, in file order. Given odd, a run off its
    step grid cannot be searched or scored: a header without a column for
    one of its variables, and a record with a value on no grid point
    (OddVariable.index_of), are refused like any other fault of the file,
    and a value within DOMAIN_TOL of its grid point is read as that point.
    Each run's features are keyed in column order, or given odd, in ODD
    order followed by the other columns in column order."""
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
            grids = []
            for v in odd.variables if odd is not None else ():
                if v.name not in features:
                    _fail(path, f"no column for ODD variable {v.name!r}")
                grids.append((features.index(v.name), v))
            # a run's keys in ODD order, then the other columns in file order
            order = [j for j, _ in grids]
            order += [j for j in range(len(features)) if j not in order]
            checked = [{} for _ in grids]
            runs = []
            while rows := list(islice(reader, BLOCK_ROWS)):
                block = _block_columns(rows, len(header), grids, checked)
                if block is None:
                    _row_fault(path, rows, reader.line_num, features, grids)
                del rows  # its cells are freed before the runs take their memory
                columns, ys = block
                xs = [{} for _ in ys]
                for j in order:
                    # one C loop of x[name] = value over the block's rows
                    deque(map(setitem, xs, repeat(features[j]), columns[j]), maxlen=0)
                runs += map(_run, zip(xs, ys))
    except UnicodeDecodeError as exc:
        _fail(path, f"not UTF-8 text: {exc.reason}")
    except csv.Error as exc:  # a field over csv's size limit; a NUL byte before Python 3.11
        _fail(path, f"line {reader.line_num}: {exc}")
    if not runs:
        _fail(path, "dataset has no runs")
    return runs


def _block_columns(rows: list[list[str]], width: int, grids: list[tuple[int, OddVariable]],
                   checked: list[dict[float, float]]
                   ) -> tuple[list[list[float]], list[Outcome]] | None:
    """The feature columns of a block of rows, as floats, and its outcomes,
    each converted a column at a time; None when any row is faulty, which
    _row_fault then names. grids holds (column, variable) per column whose
    distinct values must each lie on the variable's grid; each such value
    is replaced by its grid point. checked holds, per entry of grids, the
    grid point of each value an earlier block of the load has checked, and
    gains this block's: a load checks each distinct value once."""
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
    for (j, v), known in zip(grids, checked):
        distinct = set(columns[j])
        if new := list(distinct.difference(known)):
            indices = list(map(v.index_of, new))
            if None in indices:
                return None
            known.update(zip(new, map(v.points.__getitem__, indices)))
        distinct = list(distinct)
        points = list(map(known.__getitem__, distinct))
        if points != distinct:  # a value off its grid point by DOMAIN_TOL at most reads as it
            snap = {x: p for x, p in zip(distinct, points) if x != p}
            columns[j] = list(map(snap.get, columns[j], columns[j]))
    return columns, ys


def _row_fault(path, rows: list[list[str]], end: int, features: list[str],
               grids: list[tuple[int, OddVariable]]):
    """Refuse the first faulty row of rows, the last of which ends on line
    end, by the line its record starts on: the one place a row's fault is
    worded. Its checks are those of _block_columns, so a block that one
    refuses has a row that the other does."""
    width = len(features) + 1
    lineno = end + 1 - sum(map(_lines, rows))
    for row in rows:
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
        if any(v.index_of(values[j]) is None for j, v in grids):
            _fail(path, f"line {lineno}: run outside the declared domain: "
                        f"{dict(zip(features, values))}")
        lineno += _lines(row)


def _lines(row: list[str]) -> int:
    """The lines a record spans: one more than the line ends in its quoted
    cells, each counted as csv counts lines (\\r\\n, \\r or \\n)."""
    return 1 + sum(cell.count("\n") + cell.count("\r") - cell.count("\r\n") for cell in row)


def dataset_bytes(runs: list[LabeledRun]) -> bytes:
    features = list(runs[0].x.keys())
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(features + ["outcome"])
    # Grid datasets repeat a few hundred values per column: format each once.
    # Exact as a cache: the only distinct floats that compare equal, -0.0 and
    # 0.0, both print "0".
    text = _Memo.of(fmt_number)
    writer.writerows([text[run.x[name]] for name in features] + [run.y.value] for run in runs)
    return buffer.getvalue().encode("utf-8")


def store_dataset(path: str | Path, runs: list[LabeledRun]) -> None:
    _write(path, dataset_bytes(runs))


# ---------------------------------------------------------------------------
# JSON helpers.
# ---------------------------------------------------------------------------


#: The exact types whose JSON text is a C encoder's, wherever they stand.
_LEAF_TYPES = frozenset((str, int, float, bool, type(None)))


def json_text(payload) -> str:
    """The one JSON form of every artifact: the text of json.dumps(payload,
    indent=2, ensure_ascii=False), newline-terminated. CPython 3.10 and
    3.11 serve any indent with the pure-Python encoder; here a container
    whose children all have leaf types is one call of the C encoder, whose
    item separator carries the children's indent, and only containers of
    containers are joined in Python. What JSON cannot hold raises stdlib's
    own TypeError: the C encoder names a refused key's class in full."""
    try:
        return _text(payload, "\n") + "\n"
    except TypeError:
        json.dumps(payload, indent=2, ensure_ascii=False)
        raise


@cache
def _encoder(newline: str):
    """The C encoder whose item separator is a comma and newline, that is
    a newline and the items' indent. It makes no circular check, as a leaf
    cannot hold itself; an unsupported value raises stdlib's TypeError."""
    return c_make_encoder(None, json.JSONEncoder().default, encode_basestring, None,
                          ": ", "," + newline, False, False, True)


def _text(o, newline: str) -> str:
    """o as json.dumps(indent=2, ensure_ascii=False) writes it inside a
    payload; newline is a newline and o's own indent, which precede its
    closing bracket."""
    kind = type(o)
    if kind is str:
        return encode_basestring(o)
    if kind is int:
        return int.__repr__(o)
    if kind is float and math.isfinite(o):
        return float.__repr__(o)
    if isinstance(o, (list, tuple, dict)) and o:
        inner = newline + "  "
        is_dict = isinstance(o, dict)
        if _LEAF_TYPES.issuperset(map(type, o.values() if is_dict else o)):
            text = "".join(_encoder(inner)(o, 0))
            return text[0] + inner + text[1:-1] + newline + text[-1]
        if is_dict:
            items = [f"{_key(k)}: {_text(v, inner)}" for k, v in o.items()]
            return "{" + inner + ("," + inner).join(items) + newline + "}"
        return "[" + inner + ("," + inner).join([_text(v, inner) for v in o]) + newline + "]"
    # None, a bool, NaN or an infinity, an empty container, a subclass of a
    # leaf type, or a value JSON cannot hold
    return "".join(_encoder(newline)(o, 0))


def _key(k) -> str:
    """The text of a key of a container of containers; a key that is not a
    str is converted, or refused, by the C encoder."""
    return encode_basestring(k) if type(k) is str else "".join(_encoder("")({k: 0}, 0))[1:-4]


def write_json(path: str | Path, payload) -> None:
    _write(path, json_text(payload).encode("utf-8"))


def write_text(path: str | Path, text: str) -> None:
    _write(path, text.encode("utf-8"))


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


#: What a field of each kind may hold; a bool is none of them.
_KINDS = {"a string": str, "an integer": int, "a number": (int, float), "an object": dict,
          "a list": list}


def _field(path, where: str, obj: dict, key: str, kind: str | None = None):
    """obj[key]; the one place a missing or mistyped field is worded. A
    fault is refused at where (no prefix when empty): a missing key, or,
    when kind is given, a value that is not of that kind."""
    at = f"{where}: " if where else ""
    if key not in obj:
        _fail(path, f"{at}missing field {key!r}")
    value = obj[key]
    if kind is not None and (isinstance(value, bool) or not isinstance(value, _KINDS[kind])):
        _fail(path, f"{at}field {key!r} must be {kind}, got {value!r}")
    return value


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
        rule_id, polarity, text = (_field(path, f"rule {i}", entry, key, "a string")
                                   for key in ("id", "polarity", "text"))
        try:
            polarity = Polarity(polarity)
        except ValueError:
            _fail(path, f"rule {i}: field 'polarity' must be \"pass\" or \"fail\", "
                        f"got {polarity!r}")
        if rule_id in seen_ids:
            _fail(path, f"rule {i}: duplicate id {rule_id!r}")
        seen_ids.add(rule_id)
        entries.append((rule_id, polarity, text))
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
    where = f"variable {v['name']!r}" if isinstance(v.get("name"), str) else f"variable {i}"
    for key in ("name", "min", "max", "step"):  # every field is present before any is typed
        _field(path, where, v, key)
    name = _field(path, where, v, "name", "a string")
    numbers = []
    for key in ("min", "max", "step"):
        try:
            numbers.append(float(_field(path, where, v, key, "a number")))
        except OverflowError:
            _fail(path, f"{where}: field {key!r} is too large for a float")
    return OddVariable(name, *numbers)


def odd_from_json(data, path) -> OddSpec:
    if not isinstance(data, dict) or "variables" not in data:
        _fail(path, 'expected an object with a "variables" list')
    variables = _field(path, "", data, "variables", "a list")
    try:
        odd = OddSpec(tuple(_odd_variable(path, i, v) for i, v in enumerate(variables)))
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
    odd = _field(path, "", data, "odd", "an object")
    safe_region = _field(path, "", data, "safe_region", "a string")
    seed = _field(path, "", data, "seed", "an integer")
    odd = odd_from_json(odd, path)
    try:
        return OracleConfig(odd=odd, safe_region=parse_rule(safe_region), seed=seed)
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


def outcome_to_json(outcome: RefinementOutcome) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "rule_id": outcome.evidence.rule_id,
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


def store_outcome(path: str | Path, outcome: RefinementOutcome) -> None:
    write_json(path, outcome_to_json(outcome))


def load_refined_rule(path: str | Path, variables) -> RuleAst:
    """The refined rule of an outcome file, its only field a score needs:
    the file must be a JSON object whose "refined_text" is a string that
    parses to a rule over the given variables."""
    data = read_json(path)
    if not isinstance(data, dict):
        _fail(path, "outcome file must be a JSON object")
    text = _field(path, "", data, "refined_text", "a string")
    return _checked_rule(path, "refined rule", text, variables)


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


# ---------------------------------------------------------------------------
# Eval report and generator transcripts.
# ---------------------------------------------------------------------------


def eval_report_to_json(reports: dict[str, DecisivenessReport]) -> dict:
    """Each rule's decisiveness by rule id, and the rule set's aggregate:
    the mean dg over the rules with at least one definitive verdict."""
    definitive = [report.dg for report in reports.values() if not report.fully_inconclusive]
    return {
        "schema_version": SCHEMA_VERSION,
        "results": [
            {
                "rule_id": rule_id,
                "dg": report.dg,
                "n": report.n,
                "n_mismatch": report.n_mismatch,
                "mismatches": list(report.mismatches),
                "fully_inconclusive": report.fully_inconclusive,
            }
            for rule_id, report in reports.items()
        ],
        "aggregate_dg": sum(definitive) / len(definitive) if definitive else None,
    }


def store_transcripts(path: str | Path, transcript: list[TranscriptEntry]) -> None:
    write_json(path, {
        "schema_version": SCHEMA_VERSION,
        "transcripts": [{"prompt": t.prompt, "response": t.response} for t in transcript],
    })

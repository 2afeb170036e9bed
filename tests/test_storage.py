import codecs
import csv
import io
import json
import math
import pickle
import random
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ruleforge import (DeterministicGenerator, build_evidence, default_config, make_oracle,
                       parse_rule, refine_loop, sample_dataset)
from ruleforge.grammar import fmt_number
from ruleforge.semantics import LabeledRun, Outcome, PolarizedRule, Polarity
from ruleforge import storage
from ruleforge.cli import main


@pytest.fixture(scope="module")
def outcome42(fixture42):
    gen = DeterministicGenerator()
    return refine_loop(fixture42.baseline_rule, [fixture42.baseline_rule],
                       fixture42.dataset, make_oracle(fixture42.config),
                       fixture42.config.odd, gen)


class TestDatasetCsv:
    def test_round_trip_bytes(self, fixture42, tmp_path):
        path = tmp_path / "dataset.csv"
        storage.store_dataset(path, fixture42.dataset)
        first = path.read_bytes()
        reloaded = storage.load_dataset(path)
        assert reloaded == fixture42.dataset
        storage.store_dataset(path, reloaded)
        assert path.read_bytes() == first

    def test_header_and_labels(self, fixture42, tmp_path):
        path = tmp_path / "dataset.csv"
        storage.store_dataset(path, fixture42.dataset)
        lines = path.read_text().splitlines()
        assert lines[0] == "ego_speed,dist_front,lane_offset,outcome"
        assert len(lines) == 199

    def test_leading_byte_order_mark_is_skipped(self, fixture42, tmp_path, capsys):
        plain, bom = tmp_path / "plain.csv", tmp_path / "bom.csv"
        storage.store_dataset(plain, fixture42.dataset)
        assert not plain.read_bytes().startswith(codecs.BOM_UTF8)
        bom.write_bytes(codecs.BOM_UTF8 + plain.read_bytes())
        assert storage.load_dataset(bom) == storage.load_dataset(plain)
        rules = tmp_path / "rules.json"
        storage.store_rules(rules, [fixture42.baseline_rule])
        printed = []
        for path in (plain, bom):
            assert main(["eval", "--rules", str(rules), "--dataset", str(path)]) == 0
            printed.append(capsys.readouterr().out)
        assert printed[0] == printed[1]

    def test_bad_outcome_value(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,outcome\n1.0,Maybe\n")
        with pytest.raises(storage.FormatError, match="outcome"):
            storage.load_dataset(path)

    def test_missing_outcome_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1.0,2.0\n")
        with pytest.raises(storage.FormatError, match="outcome"):
            storage.load_dataset(path)

    def test_non_numeric_feature(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,outcome\nx,Pass\n")
        with pytest.raises(storage.FormatError, match="line 2"):
            storage.load_dataset(path)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "Infinity", "1e999", "-1e999"])
    def test_non_finite_feature(self, tmp_path, cell):
        path = tmp_path / "bad.csv"
        path.write_text(f"a,outcome\n1.0,Pass\n{cell},Fail\n")
        with pytest.raises(storage.FormatError, match="line 3: non-finite"):
            storage.load_dataset(path)

    @pytest.mark.parametrize("text,message", [
        ("a,b,outcome\n1,2,Pass\n1,Fail\n", "line 3: expected 3 fields, got 2"),
        ("a,b,outcome\n1,2,3,Pass\n", "line 2: expected 3 fields, got 4"),
        ("a,outcome\n1,Pass\n\n", "line 3: expected 2 fields, got 0"),
        ("", "empty dataset file"),
        ("a,outcome\n", "dataset has no runs"),
        ("outcome\nPass\n", "no feature columns"),
        ("dist_front,dist_front,ego_speed,lane_offset,outcome\n4.2,30,1,0,Fail\n",
         "duplicated column 'dist_front'"),
        ("a,outcome,outcome\n1,2,Pass\n", "duplicated column 'outcome'"),
    ], ids=["short-row", "long-row", "blank-row", "empty-file", "header-only",
            "outcome-only", "duplicated-feature", "duplicated-outcome"])
    def test_refusal_names_the_fault(self, tmp_path, text, message):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(storage.FormatError) as excinfo:
            storage.load_dataset(path)
        assert str(excinfo.value) == f"{path}: {message}"

    @pytest.mark.parametrize("lineno", [storage.BLOCK_ROWS + 1, storage.BLOCK_ROWS + 2],
                             ids=["last-of-block-1", "first-of-block-2"])
    @pytest.mark.parametrize("row,message", [
        ("1,Pass,1", "expected 2 fields, got 3"),
        ("x,Pass", "non-numeric feature value"),
        ("1e999,Fail", "non-finite feature value"),
        ("1,pass", "outcome must be Pass or Fail, got 'pass'"),
    ], ids=["long-row", "non-numeric", "overflow", "outcome"])
    def test_fault_at_a_block_boundary_names_its_line(self, tmp_path, lineno, row, message):
        lines = ["a,outcome"] + ["1,Pass"] * (storage.BLOCK_ROWS + 3)
        lines[lineno - 1] = row
        path = tmp_path / "bad.csv"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(storage.FormatError) as excinfo:
            storage.load_dataset(path)
        assert str(excinfo.value) == f"{path}: line {lineno}: {message}"

    def test_bad_byte_alone_is_refused(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"a,outcome\n" + b"1,Pass\n" * (3 * storage.BLOCK_ROWS)
                         + b"1,Fail\xff\n")
        with pytest.raises(storage.FormatError) as excinfo:
            storage.load_dataset(path)
        assert str(excinfo.value) == f"{path}: not UTF-8 text: invalid start byte"

    @pytest.mark.parametrize("bad_line,reported", [
        (storage.BLOCK_ROWS, "not UTF-8 text: invalid start byte"),
        (3 * storage.BLOCK_ROWS, "line 3: non-numeric feature value"),
    ], ids=["same-block", "later-block"])
    def test_bad_byte_after_a_row_fault(self, tmp_path, bad_line, reported):
        """Rows are decoded a block at a time before any is converted: a bad
        byte in the block of an earlier row fault is reported in its place,
        one in a later block is not. The rows are wide enough that the bad
        byte of the same block lies past the first 8 KiB the reader
        decodes, where the row-by-row loader still named line 3."""
        lines = [b"a,b,outcome"] + [b"1.5,2.5,Pass"] * (3 * storage.BLOCK_ROWS)
        lines[2] = b"1.5,x,Pass"
        lines[bad_line - 1] = b"1.5,2.5,Fail\xff"
        path = tmp_path / "bad.csv"
        path.write_bytes(b"\n".join(lines) + b"\n")
        with pytest.raises(storage.FormatError) as excinfo:
            storage.load_dataset(path)
        assert str(excinfo.value) == f"{path}: {reported}"
        with pytest.raises(storage.FormatError) as excinfo:
            _ref_load_dataset(path)
        assert str(excinfo.value) == f"{path}: line 3: non-numeric feature value"

    def test_peak_memory_stays_near_the_runs(self, tmp_path):
        """Converting a block at a time keeps the load's peak near what its
        runs retain; converting the whole file at once would double it."""
        path = tmp_path / "dataset.csv"
        storage.store_dataset(path, sample_dataset(default_config(1), 20_000))
        tracemalloc.start()
        try:
            runs = storage.load_dataset(path)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(runs) == 20_000
        assert peak <= 1.25 * retained


def _ref_load_dataset(path):
    """The row-by-row loader, kept as the reference only."""
    path = Path(path)
    try:
        with path.open(newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                storage._fail(path, "empty dataset file")
            if not header or header[-1] != "outcome":
                storage._fail(path, 'last column must be "outcome"')
            features = header[:-1]
            if not features:
                storage._fail(path, "no feature columns")
            if len(set(header)) != len(header):
                duplicate = next(name for i, name in enumerate(header) if name in header[:i])
                storage._fail(path, f"duplicated column {duplicate!r}")
            runs = []
            for lineno, row in enumerate(reader, start=2):
                if len(row) != len(header):
                    storage._fail(path, f"line {lineno}: expected {len(header)} fields, "
                                        f"got {len(row)}")
                try:
                    x = dict(zip(features, map(float, row)))
                except ValueError:
                    storage._fail(path, f"line {lineno}: non-numeric feature value")
                if not all(map(math.isfinite, x.values())):
                    storage._fail(path, f"line {lineno}: non-finite feature value")
                y = storage._OUTCOMES.get(row[-1])
                if y is None:
                    storage._fail(path, f"line {lineno}: outcome must be Pass or Fail, "
                                        f"got {row[-1]!r}")
                runs.append(LabeledRun(x=x, y=y))
    except UnicodeDecodeError as exc:
        storage._fail(path, f"not UTF-8 text: {exc.reason}")
    if not runs:
        storage._fail(path, "dataset has no runs")
    return runs


_CELLS = st.one_of(st.floats(allow_nan=False, allow_infinity=False).map(repr),
                   st.integers(-10 ** 20, 10 ** 20).map(str),
                   st.sampled_from(["-0.0", "0", "4.05", "1e-7", "1_000", " 2.5"]))
#: A fault applied to one row: (kind, column it spoils, when it spoils one).
_FAULTS = st.tuples(st.sampled_from(["short", "long", "blank", "word", "nan", "inf", "-inf",
                                     "1e999", "-1e999", "outcome"]),
                    st.integers(0, 3))


def _spoil(row, kind, column):
    # at least 1: a second fault may fall on a row the first left with one cell
    features = max(len(row) - 1, 1)
    if kind == "short":
        return row[:-1]
    if kind == "long":
        return row + ["1"]
    if kind == "blank":
        return []
    if kind == "outcome":
        return row[:-1] + ["Maybe"]
    cell = {"word": "x"}.get(kind, kind)
    return row[:column % features] + [cell] + row[column % features + 1:]


@st.composite
def _dataset_texts(draw):
    """A dataset CSV text of 1-4 features, some cells quoted, with faults
    (two faults may fall in different blocks) spoiling rows at random lines."""
    features = draw(st.integers(1, 4))
    rows = [[draw(_CELLS) for _ in range(features)] + [draw(st.sampled_from(["Pass", "Fail"]))]
            for _ in range(draw(st.integers(0, 12)))]
    if rows:
        for kind, column in draw(st.lists(_FAULTS, max_size=2)):
            line = draw(st.integers(0, len(rows) - 1))
            rows[line] = _spoil(rows[line], kind, column)
    header = [f"f{i}" for i in range(features)] + ["outcome"]
    lines = [",".join(f'"{cell}"' if draw(st.booleans()) else cell for cell in row)
             for row in [header] + rows]
    return "\n".join(lines) + "\n"


class TestInternedNames:
    """Names read from files are interned, so a run's keys, the ODD's names
    and the names in compiled rule and label code are the same objects."""

    def test_dataset_keys_are_interned(self, fixture42, tmp_path):
        path = tmp_path / "dataset.csv"
        storage.store_dataset(path, fixture42.dataset)
        runs = storage.load_dataset(path)
        assert all(key is sys.intern(key) for run in runs for key in run.x)

    def test_odd_names_are_interned(self, fixture42, tmp_path):
        path = tmp_path / "config.json"
        storage.store_oracle_config(path, fixture42.config)
        names = [v.name for v in storage.load_oracle_config(path).odd.variables]
        assert names == fixture42.config.odd.names
        assert all(name is sys.intern(name) for name in names)


def test_loaded_runs_are_labeled_runs(fixture42, tmp_path):
    """A load builds its runs without LabeledRun's constructor: each is
    still exactly a LabeledRun, read by name, and pickles as one."""
    path = tmp_path / "dataset.csv"
    storage.store_dataset(path, fixture42.dataset)
    runs = storage.load_dataset(path)
    assert {type(run) for run in runs} == {LabeledRun}
    assert [(run.x, run.y) for run in runs] == [(run.x, run.y) for run in fixture42.dataset]
    copies = pickle.loads(pickle.dumps(runs))
    assert copies == runs and {type(run) for run in copies} == {LabeledRun}
    assert repr(copies[0]) == repr(runs[0]) and repr(runs[0]).startswith("LabeledRun(x={")


class TestLoadMatchesRowByRowReference:
    @settings(max_examples=300, deadline=None)
    @given(text=_dataset_texts())
    @example(text="a,b,outcome\n1,2,Pass\n-0.0,\"3\",Fail\n4,5,Pass\n1,nan,Pass\n"
                  "1,2,Pass\n1,2,Pass\n1,2\n")
    @example(text="a,outcome\n1,Pass\n2,Fail\n3,Pass\n\n4,Pass\n1e999,Fail\n")
    def test_runs_or_refusal_equal_in_blocks_of_three(self, tmp_path_factory, text):
        """Equal runs (signed zeros and key order included), or an equal
        refusal naming the first fault in line order, with blocks of 3 rows
        so that faults fall on and across block boundaries."""
        path = tmp_path_factory.getbasetemp() / "parity.csv"
        path.write_text(text, encoding="utf-8")

        def result(load):
            try:
                return [(repr(run.x), run.y) for run in load(path)]
            except storage.FormatError as exc:
                return str(exc)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(storage, "BLOCK_ROWS", 3)
            assert result(storage.load_dataset) == result(_ref_load_dataset)


def _ref_dataset_bytes(runs):
    """The writer formatting every cell on its own, kept as the reference only."""
    features = list(runs[0].x.keys())
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(features + ["outcome"])
    for run in runs:
        writer.writerow([fmt_number(run.x[name]) for name in features] + [run.y.value])
    return buffer.getvalue().encode("utf-8")


WRITER_VALUES = [0.0, -0.0, 1.0, -1.0, 1e16, -1e16, 1e17, 9999999999999998.0, 1e-7, -1e-7,
                 5e-324, 1e300, 0.1 + 0.2, 4.05, -2.0, 123456789.125, 30.5, 0.30000000000000004]


class TestDatasetWriter:
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_per_cell_formatting(self, seed):
        rng = random.Random(seed)
        names = ["a", "b_2", "lane_offset"]
        runs = [LabeledRun({name: rng.choice(WRITER_VALUES + [rng.uniform(-1e3, 1e3)])
                            for name in names}, rng.choice(list(Outcome)))
                for _ in range(300)]
        assert storage.dataset_bytes(runs) == _ref_dataset_bytes(runs)

    def test_signed_zeros_both_print_zero(self):
        runs = [LabeledRun({"a": -0.0, "b": 0.0}, Outcome.PASS),
                LabeledRun({"a": 0.0, "b": -0.0}, Outcome.FAIL)]
        assert storage.dataset_bytes(runs) == b"a,b,outcome\n0,0,Pass\n0,0,Fail\n"
        assert storage.dataset_bytes(runs) == _ref_dataset_bytes(runs)

    def test_extremes_and_fixture(self, fixture42):
        runs = [LabeledRun({"a": v, "b": w}, Outcome.FAIL)
                for v in WRITER_VALUES for w in WRITER_VALUES]
        data = storage.dataset_bytes(runs)
        assert data == _ref_dataset_bytes(runs)
        assert b"\n10000000000000000,0.0000001,Fail\n" in data
        assert storage.dataset_bytes(fixture42.dataset) == _ref_dataset_bytes(fixture42.dataset)


class TestRulesJson:
    def test_round_trip(self, fixture42, tmp_path):
        path = tmp_path / "rules.json"
        rules = [fixture42.baseline_rule,
                 PolarizedRule("f1", Polarity.FAIL_RULE, parse_rule("(dist_front > 40)"))]
        storage.store_rules(path, rules)
        assert storage.load_rules(path, fixture42.config.odd.names) == rules
        data = json.loads(path.read_text())
        assert data[0]["polarity"] == "pass" and data[1]["polarity"] == "fail"

    def test_unknown_polarity_names_field(self, tmp_path):
        path = tmp_path / "rules.json"
        path.write_text(json.dumps([{"id": "r", "polarity": "warn", "text": "(x > 0)"}]))
        with pytest.raises(storage.FormatError, match="polarity"):
            storage.load_rules(path, ["x"])

    def test_unparseable_rule_text(self, tmp_path):
        path = tmp_path / "rules.json"
        path.write_text(json.dumps([{"id": "r", "polarity": "pass", "text": "x >"}]))
        with pytest.raises(storage.FormatError):
            storage.load_rules(path, ["x"])

    @pytest.mark.parametrize("field,value", [("text", 5), ("text", None), ("id", ["r"]),
                                             ("id", 3), ("polarity", ["pass"])])
    def test_non_string_field_names_it(self, tmp_path, field, value):
        path = tmp_path / "rules.json"
        entry = {"id": "r", "polarity": "pass", "text": "(x > 0)", field: value}
        path.write_text(json.dumps([entry]))
        with pytest.raises(storage.FormatError, match=f"rule 0: field '{field}' must be a string"):
            storage.load_rules(path, ["x"])

    def test_duplicate_ids_rejected(self, tmp_path):
        path = tmp_path / "rules.json"
        entry = {"id": "r", "polarity": "pass", "text": "(x > 0)"}
        path.write_text(json.dumps([entry, entry]))
        with pytest.raises(storage.FormatError, match="duplicate"):
            storage.load_rules(path, ["x"])

    def test_store_load_store_byte_identical(self, fixture42, tmp_path):
        path = tmp_path / "rules.json"
        storage.store_rules(path, [fixture42.baseline_rule])
        first = path.read_bytes()
        storage.store_rules(path, storage.load_rules(path, fixture42.config.odd.names))
        assert path.read_bytes() == first


class TestEvidenceJson:
    def test_schema_version_and_shape(self, evidence27, tmp_path):
        path = tmp_path / "evidence.json"
        storage.store_evidence(path, evidence27)
        data = json.loads(path.read_text())
        assert data["schema_version"] == 1
        assert data["rule_id"] == "baseline-pass"
        assert len(data["pairs"]) == 27
        pair = data["pairs"][0]
        assert set(pair) == {"x", "y", "x_cf", "y_cf", "delta", "l1", "l1_steps"}
        assert data["unresolved"] == []

    def test_store_is_deterministic(self, evidence27, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        storage.store_evidence(a, evidence27)
        storage.store_evidence(b, evidence27)
        assert a.read_bytes() == b.read_bytes()

    def test_independent_builds_byte_identical(self, fixture42, evidence27, tmp_path):
        rebuilt = build_evidence(fixture42.baseline_rule, fixture42.dataset,
                                 make_oracle(fixture42.config), fixture42.config.odd,
                                 dataset_ref="dataset.csv")
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        storage.store_evidence(a, evidence27)
        storage.store_evidence(b, rebuilt)
        assert a.read_bytes() == b.read_bytes()


class TestOracleConfigJson:
    def test_round_trip(self, fixture42, tmp_path):
        path = tmp_path / "config.json"
        storage.store_oracle_config(path, fixture42.config)
        loaded = storage.load_oracle_config(path)
        assert loaded == fixture42.config
        data = json.loads(path.read_text())
        assert data["schema_version"] == 1

    def test_missing_field(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"odd": {"variables": []}}))
        with pytest.raises(storage.FormatError, match="safe_region"):
            storage.load_oracle_config(path)

    @pytest.mark.parametrize("field,value,message", [
        ("seed", "abc", "field 'seed' must be an integer"),
        ("seed", True, "field 'seed' must be an integer"),
        ("safe_region", 4, "field 'safe_region' must be a string"),
        ("safe_region", "(headway > 2)", "safe_region: .*UnknownVariable.*headway"),
    ])
    def test_bad_field_names_it(self, fixture42, tmp_path, field, value, message):
        path = tmp_path / "config.json"
        storage.store_oracle_config(path, fixture42.config)
        data = json.loads(path.read_text())
        data[field] = value
        path.write_text(json.dumps(data))
        with pytest.raises(storage.FormatError, match=message):
            storage.load_oracle_config(path)

    @pytest.mark.parametrize("field", ["min", "max", "step"])
    def test_odd_number_too_large_for_a_float(self, fixture42, tmp_path, field):
        path = tmp_path / "config.json"
        storage.store_oracle_config(path, fixture42.config)
        data = json.loads(path.read_text())
        name = data["odd"]["variables"][1]["name"]
        data["odd"]["variables"][1][field] = 10 ** 400
        path.write_text(json.dumps(data))
        with pytest.raises(storage.FormatError) as excinfo:
            storage.load_oracle_config(path)
        assert str(excinfo.value) == (f"{path}: variable {name!r}: field {field!r} "
                                      "is too large for a float")


class TestOutcomeJson:
    def test_round_trip(self, outcome42, odd, tmp_path):
        path = tmp_path / "outcome.json"
        storage.store_outcome(path, outcome42, "baseline-pass")
        assert storage.load_refined_rule(path, odd.names) == outcome42.refined
        data = json.loads(path.read_text())
        assert (data["dg_before"], data["dg_after"]) == (outcome42.dg_before, outcome42.dg_after)
        assert round(data["dg_before"], 4) == 0.8636
        assert data["schema_version"] == 1
        assert data["dg_after"] == 1.0
        assert data["reports"][0]["accepted"] is True

import codecs
import csv
import io
import json
import math
import pickle
import random
import sys
import tracemalloc
from decimal import Decimal
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ruleforge import (DeterministicGenerator, build_evidence, default_config, make_oracle,
                       parse_rule, refine_loop, sample_dataset)
from ruleforge.grammar import DOMAIN_TOL, OddVariable, fmt_number, odd_spec
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

    def test_a_value_near_a_grid_point_loads_as_that_point(self, tmp_path):
        """Against an ODD, a value within DOMAIN_TOL of a grid point is read
        as the point itself, in range or just below it; without an ODD, as
        written."""
        odd = odd_spec([("a", 0.0, 4.0, 0.5), ("b", 0.0, 4.0, 0.5)])
        path = tmp_path / "near.csv"
        path.write_text("a,b,outcome\n0.5000000004,-0.0000000005,Pass\n1,2,Fail\n")
        assert [run.x for run in storage.load_dataset(path, odd)] == [
            {"a": 0.5, "b": 0.0}, {"a": 1.0, "b": 2.0}]
        assert storage.load_dataset(path)[0].x == {"a": 0.5000000004, "b": -5e-10}

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
        # a fault is named by the line its record starts on, counting the
        # lines that earlier quoted cells span
        ('a,b,c,outcome\n"1\n",2,0,Pass\n1,x,0,Pass\n', "line 4: non-numeric feature value"),
        ('a,b,c,outcome\n1,2,0,Pass\n"1\n",2,0\n', "line 3: expected 4 fields, got 3"),
    ], ids=["short-row", "long-row", "blank-row", "empty-file", "header-only",
            "outcome-only", "duplicated-feature", "duplicated-outcome",
            "after-a-spanning-record", "spanning-record"])
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

    @pytest.mark.parametrize("lineno", [3, storage.BLOCK_ROWS + 2],
                             ids=["first-block", "second-block"])
    def test_field_over_the_csv_size_limit_names_its_line(self, tmp_path, lineno):
        limit = csv.field_size_limit()
        lines = ["a,outcome"] + ["1,Pass"] * (storage.BLOCK_ROWS + 3)
        lines[lineno - 1] = "1" * (limit + 1) + ",Pass"
        path = tmp_path / "bad.csv"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(storage.FormatError) as excinfo:
            storage.load_dataset(path)
        assert str(excinfo.value) == f"{path}: line {lineno}: field larger than field limit ({limit})"

    def test_nul_byte_names_its_line(self, tmp_path):
        # csv refuses a NUL before Python 3.11 and reads it as a character after
        path = tmp_path / "bad.csv"
        path.write_bytes(b"a,outcome\n1,Pass\n1\x00,Pass\n")
        with pytest.raises(storage.FormatError, match=r"bad\.csv: line 3: "):
            storage.load_dataset(path)

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


def _ref_load_dataset(path, odd=None):
    """The row-by-row loader, kept as the reference only; given odd, it
    refuses a run with a value on no point of its variable's step grid (the
    nearest index k in range, and the value within DOMAIN_TOL of
    grid_value(k) and of the range), reads a value that differs from
    grid_value(k) as grid_value(k), and keys each run in ODD order, then
    the other columns in file order."""
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
            for name in odd.names if odd is not None else ():
                if name not in features:
                    storage._fail(path, f"no column for ODD variable {name!r}")
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
                points = {}
                for v in odd.variables if odd is not None else ():
                    try:
                        k = round((x[v.name] - v.min) / v.step)
                    except OverflowError:  # a quotient past the floats: on no point
                        k = -1
                    if not (0 <= k < v.grid_count
                            and abs(x[v.name] - v.grid_value(k)) <= DOMAIN_TOL
                            and v.min - DOMAIN_TOL <= x[v.name] <= v.max + DOMAIN_TOL):
                        storage._fail(path, f"line {lineno}: run outside the declared "
                                            f"domain: {x}")
                    points[v.name] = v.grid_value(k)
                # a refusal names the values as written
                x.update((name, p) for name, p in points.items() if x[name] != p)
                if odd is not None:
                    x = {**{name: x[name] for name in odd.names}, **x}
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

    @settings(max_examples=300, deadline=None)
    @given(text=_dataset_texts(), ranges=st.lists(
        st.sampled_from([(-1.0, 5.0), (0.0, 4.05), (2.5, 2.5), (-1e12, 1e12)]),
        min_size=1, max_size=5), reverse=st.booleans())
    @example(text="f0,f1,f2,outcome\n1,2,3,Pass\n", ranges=[(-1.0, 5.0)] * 2, reverse=True)
    @example(text="f0,f1,outcome\n1,2.5,Pass\n1.0000000005,-0.5,Fail\n4.5,1.25,Pass\n"
                  "2,2,Fail\n", ranges=[(-1.0, 5.0)] * 2, reverse=False)
    @example(text="f0,outcome\n0.5,Pass\n4,Fail\n4.05,Pass\n", ranges=[(0.0, 4.05)],
             reverse=False)
    @example(text="f0,outcome\n0,Pass\n1e12,Fail\n2.5,Pass\n2.25,Fail\n",
             ranges=[(-1e12, 1e12)], reverse=False)
    @example(text="f0,f1,outcome\n-0,2.4999999996,Pass\n-5e-10,0.5,Fail\n0,4.0000000008,Pass\n"
                  "-0.0,1,Fail\n", ranges=[(0.0, 4.05), (0.0, 4.05)], reverse=False)
    def test_domain_refusal_equal_in_blocks_of_three(self, tmp_path_factory, text, ranges,
                                                     reverse):
        """Given an ODD over f0.. (one more variable than the file may have
        columns), in column order or reversed, equal runs (key order
        included) or an equal refusal: a missing column, or the first fault
        in line order, a run off the step grid (in range or not) included."""
        path = tmp_path_factory.getbasetemp() / "domain.csv"
        path.write_text(text, encoding="utf-8")
        variables = [(f"f{i}", lo, hi, 0.5) for i, (lo, hi) in enumerate(ranges)]
        odd = odd_spec(variables[::-1] if reverse else variables)

        def result(load):
            try:
                return [(repr(run.x), run.y) for run in load(path, odd)]
            except storage.FormatError as exc:
                return str(exc)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(storage, "BLOCK_ROWS", 3)
            assert result(storage.load_dataset) == result(_ref_load_dataset)


class TestGridCheckedOncePerLoad:
    def test_each_distinct_value_is_checked_once(self, tmp_path):
        """In blocks of 3 rows, exact values repeated across blocks, signed
        zeros and a value within DOMAIN_TOL that first appears in block 3
        load as in the row-by-row reference, and each distinct value of a
        grid column reaches index_of once in the whole load."""
        rows = ["1,2,4,Pass", "1.5,-0.0,4,Fail", "1,2,4,Pass",
                "1,2,4,Pass", "2,0,4,Fail", "1.5,2,4,Pass",
                "1.0000000004,2,4,Pass", "-0,2.4999999996,4,Fail", "1,2,4,Pass"]
        path = tmp_path / "blocks.csv"
        path.write_text("\n".join(["f0,f1,g,outcome"] + rows) + "\n", encoding="utf-8")
        odd = odd_spec([("f0", -1.0, 4.0, 0.5), ("f1", -1.0, 5.0, 0.5)])
        calls = []
        index_of = OddVariable.index_of

        def counted(v, value):
            calls.append((v.name, value))
            return index_of(v, value)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(storage, "BLOCK_ROWS", 3)
            patch.setattr(OddVariable, "index_of", counted)
            runs = storage.load_dataset(path, odd)
        assert [(repr(run.x), run.y) for run in runs] == \
            [(repr(run.x), run.y) for run in _ref_load_dataset(path, odd)]
        assert runs[6].x["f0"] == 1.0 and runs[7].x["f1"] == 2.5
        assert sorted(calls) == sorted(set(calls))
        assert set(calls) == {("f0", 1.0), ("f0", 1.5), ("f0", 2.0), ("f0", 1.0000000004),
                              ("f0", 0.0), ("f1", 2.0), ("f1", 0.0), ("f1", 2.4999999996)}


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


class TestWritersMakeTheirDirectory:
    """Every writer makes the directories its file lies in, and writes the
    same bytes there as into a directory that exists."""

    @pytest.mark.parametrize("writer", ["write_json", "write_text", "store_dataset"])
    def test_same_bytes_under_a_missing_directory(self, fixture42, tmp_path, writer):
        content = {"write_json": {"schema_version": 1, "runs": [[1.5, "Pass"], []]},
                   "write_text": "rule r (pass)\n  \u00e9t\u00e9\n",
                   "store_dataset": fixture42.dataset}[writer]
        here, deep = tmp_path / "out.txt", tmp_path / "not-yet" / "deeper" / "out.txt"
        for path in (here, deep):
            getattr(storage, writer)(path, content)
        assert deep.read_bytes() == here.read_bytes()
        if writer == "write_text":
            assert here.read_bytes() == content.encode("utf-8")


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


_MISSING = object()

#: Each file a field is read from: its sound contents and how it is loaded.
_FIELD_FILES = {
    "rules": (lambda: [{"id": "r", "polarity": "pass", "text": "(ego_speed > 0)"}],
              storage.rule_entries),
    "config": (lambda: {"schema_version": 1, "odd": storage.odd_to_json(default_config().odd),
                        "safe_region": "(ego_speed > 0)", "seed": 42},
               storage.load_oracle_config),
    "outcome": (lambda: {"refined_text": "(ego_speed > 0)"},
                lambda path: storage.load_refined_rule(path, ["ego_speed"])),
}


def _field_fault(case, file, where, key, value, message):
    return pytest.param(file, where, key, value, message, id=case)


_VARIABLE = ("odd", "variables", 0)


@pytest.mark.parametrize("file, where, key, value, message", [
    *(row for key in ("id", "polarity", "text") for row in (
        _field_fault(f"rule-{key}-missing", "rules", (0,), key, _MISSING,
                     f"rule 0: missing field {key!r}"),
        _field_fault(f"rule-{key}-int", "rules", (0,), key, 5,
                     f"rule 0: field {key!r} must be a string, got 5"))),
    _field_fault("config-odd-missing", "config", (), "odd", _MISSING, "missing field 'odd'"),
    _field_fault("config-odd-list", "config", (), "odd", [],
                 "field 'odd' must be an object, got []"),
    _field_fault("config-safe_region-missing", "config", (), "safe_region", _MISSING,
                 "missing field 'safe_region'"),
    _field_fault("config-safe_region-int", "config", (), "safe_region", 4,
                 "field 'safe_region' must be a string, got 4"),
    _field_fault("config-seed-missing", "config", (), "seed", _MISSING, "missing field 'seed'"),
    _field_fault("config-seed-bool", "config", (), "seed", True,
                 "field 'seed' must be an integer, got True"),
    _field_fault("config-seed-string", "config", (), "seed", "42",
                 "field 'seed' must be an integer, got '42'"),
    _field_fault("odd-variables-missing", "config", ("odd",), "variables", _MISSING,
                 'expected an object with a "variables" list'),
    _field_fault("odd-variables-int", "config", ("odd",), "variables", 5,
                 "field 'variables' must be a list, got 5"),
    _field_fault("odd-name-missing", "config", _VARIABLE, "name", _MISSING,
                 "variable 0: missing field 'name'"),
    _field_fault("odd-name-int", "config", _VARIABLE, "name", 5,
                 "variable 0: field 'name' must be a string, got 5"),
    *(row for key in ("min", "max", "step") for row in (
        _field_fault(f"odd-{key}-missing", "config", _VARIABLE, key, _MISSING,
                     f"variable 'ego_speed': missing field {key!r}"),
        _field_fault(f"odd-{key}-string", "config", _VARIABLE, key, "1",
                     f"variable 'ego_speed': field {key!r} must be a number, got '1'"))),
    _field_fault("odd-step-bool", "config", _VARIABLE, "step", True,
                 "variable 'ego_speed': field 'step' must be a number, got True"),
    # every field of a variable is present before any is typed
    _field_fault("odd-missing-before-mistyped", "config", ("odd", "variables"), 0,
                 {"name": 5}, "variable 0: missing field 'min'"),
    _field_fault("outcome-refined_text-missing", "outcome", (), "refined_text", _MISSING,
                 "missing field 'refined_text'"),
    _field_fault("outcome-refined_text-int", "outcome", (), "refined_text", 5,
                 "field 'refined_text' must be a string, got 5"),
])
def test_field_fault_message(tmp_path, file, where, key, value, message):
    """Each field a file's reader guards: a missing field and one of the
    wrong type are refused with one wording, naming where the field is."""
    make, load = _FIELD_FILES[file]
    data = make()
    obj = data
    for step in where:
        obj = obj[step]
    if value is _MISSING:
        del obj[key]
    else:
        obj[key] = value
    path = tmp_path / f"{file}.json"
    path.write_text(json.dumps(data))
    with pytest.raises(storage.FormatError) as excinfo:
        load(path)
    assert str(excinfo.value) == f"{path}: {message}"


class TestOutcomeJson:
    def test_round_trip(self, outcome42, odd, tmp_path):
        path = tmp_path / "outcome.json"
        storage.store_outcome(path, outcome42)
        assert storage.load_refined_rule(path, odd.names) == outcome42.refined
        data = json.loads(path.read_text())
        assert (data["dg_before"], data["dg_after"]) == (outcome42.dg_before, outcome42.dg_after)
        assert round(data["dg_before"], 4) == 0.8636
        assert data["schema_version"] == 1
        assert data["dg_after"] == 1.0
        assert data["reports"][0]["accepted"] is True


_JSON_TEXT = st.text(st.one_of(st.sampled_from('"\\/\x00\x1f\x7f\n\t\u2028é'), st.characters()),
                     max_size=6)
_JSON_LEAVES = st.one_of(st.none(), st.booleans(), st.integers(-2 ** 80, 2 ** 80), st.floats(),
                         _JSON_TEXT)
_JSON_KEYS = st.one_of(_JSON_TEXT, st.integers(-2 ** 70, 2 ** 70), st.floats(), st.booleans(),
                       st.none())
_JSON_PAYLOADS = st.recursive(_JSON_LEAVES, lambda children: st.one_of(
    st.lists(children, max_size=4), st.lists(children, max_size=4).map(tuple),
    st.dictionaries(_JSON_KEYS, children, max_size=4)), max_leaves=16)


def _stdlib_text(payload) -> str:
    return json.dumps(payload, indent=2, ensure_ascii=False) + "\n"


class _Int(int):
    pass


class _Float(float):
    pass


class _Str(str):
    pass


class _Dict(dict):
    pass


class TestJsonText:
    """json_text writes the text of json.dumps(indent=2, ensure_ascii=False)."""

    @settings(max_examples=150, deadline=None)
    @given(payload=_JSON_PAYLOADS)
    @example(payload={"x": {"a": 1.5, "b": -0.0}, "pairs": [{"d": [], "e": {}}, []], 1: [[]]})
    @example(payload={float("nan"): [float("inf"), {None: -float("inf")}], True: [{}, "\U0001f600"]})
    @example(payload={"leaf": [_Int(3), _Float(0.5), _Str("s")],
                      "mixed": _Dict(k=[_Int(4), {_Str("k"): _Float(-0.0)}], e=_Dict()),
                      _Str("tuple"): (1, [2, (3,)]), 7: [_Float("nan")]})
    def test_same_text_as_stdlib(self, payload):
        assert storage.json_text(payload) == _stdlib_text(payload)

    @pytest.mark.parametrize("payload", [
        object(), [1, {1, 2}], {"a": [{}, b"bytes"]}, {"a": {"b": [1j, []]}},
        {(1,): 1}, {"a": [], (1,): []}, {Decimal(1): 1}, {Decimal(1): [[1]]}])
    def test_an_unsupported_value_or_key_raises_stdlibs_error(self, payload):
        with pytest.raises(TypeError) as expected:
            _stdlib_text(payload)
        with pytest.raises(TypeError) as got:
            storage.json_text(payload)
        assert str(got.value) == str(expected.value)

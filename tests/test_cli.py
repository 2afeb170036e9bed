import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ruleforge
from ruleforge import storage
from ruleforge.cli import main
from ruleforge.grammar import print_rule
from ruleforge.semantics import decisiveness


@pytest.fixture()
def workspace(tmp_path):
    code = main(["sim", "--reference-fixture", "--seed", "42", "--out", str(tmp_path)])
    assert code == 0
    return tmp_path


def _args(workspace, *extra):
    return ["--rules", str(workspace / "rules.json"),
            "--dataset", str(workspace / "dataset.csv"),
            "--config", str(workspace / "oracle_config.json"), *extra]


class TestSim:
    def test_reference_fixture_artifacts(self, workspace):
        assert (workspace / "dataset.csv").exists()
        assert (workspace / "rules.json").exists()
        assert (workspace / "oracle_config.json").exists()
        rules = json.loads((workspace / "rules.json").read_text())
        assert rules[0]["text"] == "(dist_front < 5) and (ego_speed > 0)"

    def test_reproducible_across_runs(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["sim", "--reference-fixture", "--seed", "42", "--out", str(a)]) == 0
        assert main(["sim", "--reference-fixture", "--seed", "42", "--out", str(b)]) == 0
        for name in ("dataset.csv", "rules.json", "oracle_config.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_plain_sampling(self, tmp_path):
        assert main(["sim", "--n", "25", "--seed", "3", "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "dataset.csv").read_text().splitlines()
        assert len(lines) == 26

    @pytest.mark.parametrize("extra", [["--n", "5"], ["--n", "198"], ["--config", None]])
    def test_reference_fixture_takes_no_config_or_count(self, workspace, tmp_path, capsys,
                                                         extra):
        """The fixture has its own config and 198 runs; asking for others is
        a usage error, not a silent substitution."""
        extra = [value or str(_config_file(workspace, tmp_path, seed=3)) for value in extra]
        out = tmp_path / "out"
        assert main(["sim", "--reference-fixture", *extra, "--out", str(out)]) == 1
        assert not out.exists()
        assert ("error (usage): --reference-fixture takes neither --config nor --n"
                in capsys.readouterr().err)

    def test_config_records_the_seed_drawn_with(self, workspace, tmp_path):
        config = _config_file(workspace, tmp_path, seed=3)
        out = tmp_path / "out"
        assert main(["sim", "--n", "5", "--seed", "9", "--config", str(config),
                     "--out", str(out)]) == 0
        assert json.loads((out / "oracle_config.json").read_text())["seed"] == 9
        again = tmp_path / "again"
        assert main(["sim", "--n", "5", "--seed", "9", "--config", str(out / "oracle_config.json"),
                     "--out", str(again)]) == 0
        for name in ("dataset.csv", "oracle_config.json"):
            assert (again / name).read_bytes() == (out / name).read_bytes()

    def test_min_with_more_decimals_than_the_step(self, workspace, tmp_path):
        """Every run sim draws lies on the grid min + k*step, inside the domain."""
        config = json.loads((workspace / "oracle_config.json").read_text())
        (lane,) = [v for v in config["odd"]["variables"] if v["name"] == "lane_offset"]
        lane.update(min=-1.95, max=1.95, step=0.1)
        path = _text_file(tmp_path / "config.json", json.dumps(config))
        out = tmp_path / "out"
        assert main(["sim", "--n", "200", "--config", str(path), "--out", str(out)]) == 0
        lanes = {run.x["lane_offset"] for run in storage.load_dataset(out / "dataset.csv")}
        assert lanes <= {round(-1.95 + k * 0.1, 2) for k in range(40)}


class TestEval:
    def test_fixture_decisiveness(self, workspace, capsys):
        assert main(["eval", "--rules", str(workspace / "rules.json"),
                     "--dataset", str(workspace / "dataset.csv")]) == 0
        payload = json.loads(capsys.readouterr().out)
        (entry,) = payload["results"]
        assert entry["n"] == 198 and entry["n_mismatch"] == 27
        assert round(entry["dg"], 4) == 0.8636
        assert payload["aggregate_dg"] == entry["dg"]

    def test_writes_file(self, workspace, tmp_path):
        out = tmp_path / "eval.json"
        assert main(["eval", "--rules", str(workspace / "rules.json"),
                     "--dataset", str(workspace / "dataset.csv"), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["schema_version"] == 1


class TestCf:
    def test_evidence_file(self, workspace, tmp_path):
        out = tmp_path / "evidence.json"
        assert main(["cf", *_args(workspace), "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert len(data["pairs"]) == 27 and data["unresolved"] == []

    def test_consistent_rule_is_usage_error(self, workspace, tmp_path):
        rules = [{"id": "ok", "polarity": "pass",
                  "text": "(dist_front < 4.05) and (ego_speed > 0)"}]
        rules_path = tmp_path / "rules.json"
        rules_path.write_text(json.dumps(rules))
        code = main(["cf", "--rules", str(rules_path),
                     "--dataset", str(workspace / "dataset.csv"),
                     "--config", str(workspace / "oracle_config.json"),
                     "--out", str(tmp_path / "e.json")])
        assert code == 1


class TestRefine:
    def test_local_generator_end_to_end(self, workspace, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(["refine", *_args(workspace), "--generator", "local",
                     "--out", str(out)])
        assert code == 0
        outcome = json.loads((out / "outcome.json").read_text())
        assert outcome["dg_after"] == 1.0
        assert outcome["attempts"] == 1
        assert (out / "report.txt").exists()
        assert "dg 0.8636 -> 1.0000" in capsys.readouterr().out

    def test_byte_identical_artifacts_across_runs(self, workspace, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["refine", *_args(workspace), "--generator", "local",
                         "--out", str(out)]) == 0
        assert (a / "outcome.json").read_bytes() == (b / "outcome.json").read_bytes()
        assert (a / "report.txt").read_bytes() == (b / "report.txt").read_bytes()

    def test_complementary_fail_rule_is_clear(self, workspace, tmp_path):
        # the fail rule shares the boundary dist_front = 4.2 with the refined rule
        rules = json.loads((workspace / "rules.json").read_text())
        rules.append({"id": "complementary", "polarity": "fail",
                      "text": "(dist_front >= 4.2) and (ego_speed > 0)"})
        rules_path = _rules_file(tmp_path, rules)
        out = tmp_path / "run"
        code = main(["refine", "--rules", str(rules_path), "--rule-id", "baseline-pass",
                     "--dataset", str(workspace / "dataset.csv"),
                     "--config", str(workspace / "oracle_config.json"),
                     "--generator", "local", "--out", str(out)])
        assert code == 0
        outcome = json.loads((out / "outcome.json").read_text())
        assert outcome["refined_text"] == "(dist_front < 4.2) and (ego_speed > 0)"
        assert outcome["reports"][-1]["contradiction"] == {
            "status": "Clear", "witness": None, "opposing_rule_id": None}

    def test_consistent_rule_exits_1_without_out_dir(self, workspace, tmp_path, capsys):
        rules_path = _rules_file(tmp_path, [{"id": "ok", "polarity": "pass",
                                             "text": "(dist_front < 4.05) and (ego_speed > 0)"}])
        out = tmp_path / "run"
        code = main(["refine", "--rules", str(rules_path),
                     "--dataset", str(workspace / "dataset.csv"),
                     "--config", str(workspace / "oracle_config.json"),
                     "--generator", "local", "--out", str(out)])
        assert code == 1
        assert not out.exists()
        assert "rule 'ok' has no inconsistent runs" in capsys.readouterr().err

    def test_mock_bad_candidate_exhausts_with_exit_3(self, workspace, tmp_path):
        script = tmp_path / "script.json"
        script.write_text(json.dumps(["[[('gt','ARG1','0')]]"]))
        out = tmp_path / "run"
        code = main(["refine", *_args(workspace), "--generator", "mock",
                     "--mock-script", str(script), "--max-attempts", "1",
                     "--out", str(out)])
        assert code == 3
        assert not (out / "outcome.json").exists()

    def test_exhausted_mock_leaves_no_out(self, workspace, tmp_path):
        # mock keeps no transcript, so an exhausted run has nothing to write
        script = tmp_path / "script.json"
        script.write_text(json.dumps(["", "no rule here"]))
        out = tmp_path / "mock-rejected"
        code = main(["refine", *_args(workspace), "--generator", "mock",
                     "--mock-script", str(script), "--max-attempts", "2",
                     "--out", str(out)])
        assert code == 3
        assert not out.exists()

    def test_mock_recovers_on_second_attempt(self, workspace, tmp_path):
        script = tmp_path / "script.json"
        script.write_text(json.dumps([
            "Rule: (ARG3 > 1)",
            "Rule: (dist_front < 4.1) and (ego_speed > 0)",
        ]))
        out = tmp_path / "run"
        code = main(["refine", *_args(workspace), "--generator", "mock",
                     "--mock-script", str(script), "--out", str(out)])
        assert code == 0
        outcome = json.loads((out / "outcome.json").read_text())
        assert outcome["attempts"] == 2
        assert outcome["refined_text"] == "(dist_front < 4.1) and (ego_speed > 0)"

    def test_llm_without_environment_is_usage_error(self, workspace, tmp_path, monkeypatch):
        for name in ("RULEFORGE_LLM_BASE_URL", "RULEFORGE_LLM_API_KEY",
                     "RULEFORGE_LLM_MODEL"):
            monkeypatch.delenv(name, raising=False)
        code = main(["refine", *_args(workspace), "--generator", "llm",
                     "--out", str(tmp_path / "run")])
        assert code == 1

    def test_mock_without_script_is_usage_error(self, workspace, tmp_path):
        code = main(["refine", *_args(workspace), "--generator", "mock",
                     "--out", str(tmp_path / "run")])
        assert code == 1

    @pytest.mark.parametrize("generator", ["local", "llm"])
    def test_mock_script_without_mock_generator_is_usage_error(self, workspace, tmp_path,
                                                                capsys, monkeypatch, generator):
        """Only the mock generator reads a script; any other would ignore it."""
        for name, value in (("RULEFORGE_LLM_BASE_URL", "http://llm.invalid"),
                            ("RULEFORGE_LLM_API_KEY", "key"), ("RULEFORGE_LLM_MODEL", "m")):
            monkeypatch.setenv(name, value)

        def no_network(request, timeout=None):
            raise OSError("no network in tests")

        monkeypatch.setattr("urllib.request.urlopen", no_network)
        out = tmp_path / "run"
        code = main(["refine", *_args(workspace), "--generator", generator,
                     "--mock-script", str(tmp_path / "missing.json"), "--out", str(out)])
        assert code == 1
        assert not out.exists()
        assert ("error (usage): --mock-script is only for --generator mock"
                in capsys.readouterr().err)


class TestMetricsCommand:
    def test_end_to_end(self, workspace, tmp_path, capsys):
        run_dir = tmp_path / "run"
        assert main(["refine", *_args(workspace), "--generator", "local",
                     "--out", str(run_dir)]) == 0
        capsys.readouterr()
        out = tmp_path / "metrics.json"
        code = main(["metrics", *_args(workspace),
                     "--outcome", str(run_dir / "outcome.json"), "--out", str(out)])
        assert code == 0
        data = json.loads(out.read_text())
        assert data["dg_after"] == 1.0
        assert data["gc"]["score"] == 1.0
        assert data["sv"]["score"] == 1.0
        assert "CM" in capsys.readouterr().out

    def test_refined_rule_with_unbound_variable_is_format_error(self, workspace, tmp_path,
                                                                capsys):
        data = json.loads(GOLDEN_OUTCOME.read_text())
        data["refined_text"] = "(dist_front < 4.2) and (headway > 0)"
        outcome_path = tmp_path / "outcome.json"
        outcome_path.write_text(json.dumps(data))
        out = tmp_path / "metrics.json"
        code = main(["metrics", *_args(workspace), "--outcome", str(outcome_path),
                     "--out", str(out)])
        assert code == 2
        assert not out.exists()
        assert (f"{outcome_path}: refined rule: unbound variable(s) ['headway']"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("corrupt,message", [
        (lambda data: {k: v for k, v in data.items() if k != "refined_text"},
         "missing field 'refined_text'"),
        (lambda data: {**data, "refined_text": ["(dist_front < 4.1)"]},
         "field 'refined_text' must be a string"),
        (lambda data: {**data, "refined_text": "(dist_front < < 4.1)"}, "refined rule: "),
        (lambda data: [data], "outcome file must be a JSON object"),
    ], ids=["refined-text-missing", "refined-text-not-a-string", "refined-text-unparsable",
            "top-level-list"])
    def test_malformed_outcome_is_format_error(self, workspace, tmp_path, capsys, corrupt,
                                               message):
        outcome_path = tmp_path / "outcome.json"
        outcome_path.write_text(json.dumps(corrupt(json.loads(GOLDEN_OUTCOME.read_text()))))
        out = tmp_path / "metrics.json"
        code = main(["metrics", *_args(workspace), "--outcome", str(outcome_path),
                     "--out", str(out)])
        assert code == 2
        assert not out.exists()
        assert f"{outcome_path}: {message}" in capsys.readouterr().err


class TestCheck:
    def test_clean_rules_pass(self, workspace, capsys):
        code = main(["check", "--rules", str(workspace / "rules.json"),
                     "--config", str(workspace / "oracle_config.json")])
        assert code == 0
        assert "gc=1.000" in capsys.readouterr().out

    def test_invalid_json_rules_file_is_format_error(self, workspace, tmp_path):
        rules_path = tmp_path / "rules.json"
        rules_path.write_text("{not json")
        code = main(["check", "--rules", str(rules_path),
                     "--config", str(workspace / "oracle_config.json")])
        assert code == 2

    def test_tuple_rule_text_exits_2_with_gc(self, workspace, tmp_path, capsys):
        rules_path = tmp_path / "rules.json"
        rules_path.write_text(json.dumps([
            {"id": "bad", "polarity": "pass",
             "text": "[[('greater_than_func','ARG1','0')]]"},
        ]))
        code = main(["check", "--rules", str(rules_path),
                     "--config", str(workspace / "oracle_config.json")])
        assert code == 2
        out = capsys.readouterr().out
        assert "PARSE ERROR" in out
        assert "gc=1.000" not in out  # reported gc is below 1


class TestOneRulesFileReader:
    """check reads a rules file's structure as every other command does: a
    file eval refuses, check refuses with the same exit code and message."""

    @pytest.mark.parametrize("entries", [
        [{"id": "r", "polarity": "maybe", "text": "(dist_front < 5)"}],
        [{"id": "r", "polarity": "pass", "text": "(dist_front < 5)"},
         {"id": "r", "polarity": "fail", "text": "(dist_front > 5)"}],
        ["(dist_front < 5)"],
        [{"polarity": "pass", "text": "(dist_front < 5)"}],
        [],
    ], ids=["polarity", "duplicate-id", "bare-string", "no-id", "empty"])
    def test_eval_and_check_refuse_alike(self, workspace, tmp_path, capsys, entries):
        rules = str(_rules_file(tmp_path, entries))
        assert main(["eval", "--rules", rules, "--dataset", str(workspace / "dataset.csv")]) == 2
        from_eval = capsys.readouterr()
        assert main(["check", "--rules", rules,
                     "--config", str(workspace / "oracle_config.json")]) == 2
        from_check = capsys.readouterr()
        assert from_check.err == from_eval.err
        assert from_check.err.startswith(f"error (format): {rules}: ")
        assert from_check.out == ""


class TestArtifactsAgree:
    """refine, eval, metrics and cf judge a rule under one semantics, so the
    figures they write for the same rule and data are equal."""

    @pytest.mark.parametrize("text", [
        "(dist_front < 5) and (ego_speed > 0)",
        "(dist_front < 5.0) and (ego_speed > 0) or (ego_speed == 0.5)",
    ])
    def test_dg_and_evidence(self, workspace, tmp_path, text):
        rules = _rules_file(tmp_path, [{"id": "r", "polarity": "pass", "text": text}])
        inputs = ["--rules", str(rules), *_args(workspace)[2:]]
        run, ev, mx, report = (tmp_path / "run", tmp_path / "evidence.json",
                               tmp_path / "metrics.json", tmp_path / "eval.json")
        assert main(["refine", *inputs, "--out", str(run)]) == 0
        assert main(["cf", *inputs, "--out", str(ev)]) == 0
        assert main(["metrics", *inputs, "--outcome", str(run / "outcome.json"),
                     "--out", str(mx)]) == 0
        assert main(["eval", *inputs[:4], "--out", str(report)]) == 0
        outcome, evidence, metrics, evaluated = (
            json.loads(path.read_text()) for path in (run / "outcome.json", ev, mx, report))
        (result,) = evaluated["results"]
        assert outcome["dg_before"] == metrics["dg_before"] == result["dg"]
        assert outcome["dg_after"] == metrics["dg_after"]
        assert outcome["dg_after"] > outcome["dg_before"]
        for key in ("pairs", "unresolved"):
            assert outcome["evidence"][key] == evidence[key]
        assert len(evidence["pairs"]) == result["n_mismatch"]


class TestOutUnderMissingDirectory:
    """Every verb creates the parent of the file --out names, as `sim` and
    `refine` create their output directory."""

    def test_eval(self, workspace, tmp_path):
        out = tmp_path / "no" / "dir" / "e.json"
        assert main(["eval", "--rules", str(workspace / "rules.json"),
                     "--dataset", str(workspace / "dataset.csv"), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["results"][0]["n_mismatch"] == 27

    def test_cf(self, workspace, tmp_path):
        out = tmp_path / "no" / "dir" / "evidence.json"
        assert main(["cf", *_args(workspace), "--out", str(out)]) == 0
        assert len(json.loads(out.read_text())["pairs"]) == 27

    def test_metrics(self, workspace, tmp_path):
        out = tmp_path / "no" / "dir" / "metrics.json"
        assert main(["metrics", *_args(workspace), "--outcome", str(GOLDEN_OUTCOME),
                     "--out", str(out)]) == 0
        assert json.loads(out.read_text())["dg_after"] == 1.0


class TestExitCodesAndFailFast:
    def test_missing_file_is_usage_error(self, workspace, tmp_path):
        code = main(["eval", "--rules", str(tmp_path / "absent.json"),
                     "--dataset", str(workspace / "dataset.csv")])
        assert code == 1

    def test_bad_flag_is_usage_error(self, workspace):
        assert main(["refine", *_args(workspace), "--generator", "telepathy"]) == 1

    @pytest.mark.parametrize("command,count", [("sim", "--n"), ("refine", "--max-attempts")])
    def test_count_below_one_is_usage_error(self, workspace, tmp_path, capsys, command, count):
        inputs = _args(workspace) if command == "refine" else []
        out = tmp_path / "out"
        assert main([command, *inputs, count, "0", "--out", str(out)]) == 1
        assert not out.exists()
        assert f"Invalid value for '{count}'" in capsys.readouterr().err

    @pytest.mark.parametrize("command,option,value", [
        (command, option, value) for command in ("cf", "refine")
        for option in ("--max-radius", "--search-budget") for value in ("0", "-1")
    ])
    def test_meaningless_numeric_option_is_usage_error(self, workspace, tmp_path, capsys,
                                                       command, option, value):
        inputs = _args(workspace)[:4] if command == "eval" else _args(workspace)
        out = tmp_path / "out"
        assert main([command, *inputs, option, value, "--out", str(out)]) == 1
        assert not out.exists()
        assert f"Invalid value for '{option}'" in capsys.readouterr().err

    @pytest.mark.parametrize("option", ["--max-radius", "--search-budget"])
    def test_numeric_option_at_its_bound_is_accepted(self, workspace, tmp_path, option):
        assert main(["cf", *_args(workspace), option, "1", "--out", str(tmp_path / "out")]) == 0

    @pytest.mark.parametrize("command", ["eval", "refine"])
    def test_equality_tolerance_is_not_an_option(self, workspace, tmp_path, capsys, command):
        """== and != hold within one fixed tolerance in every command."""
        inputs = _args(workspace)[:4] if command == "eval" else _args(workspace)
        out = tmp_path / "out"
        assert main([command, *inputs, "--eps-eq", "0", "--out", str(out)]) == 1
        assert not out.exists()
        assert "No such option '--eps-eq'" in capsys.readouterr().err

    def test_malformed_dataset_is_format_error(self, workspace, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,2\n")
        code = main(["eval", "--rules", str(workspace / "rules.json"),
                     "--dataset", str(bad)])
        assert code == 2

    def test_no_outputs_on_invalid_input(self, workspace, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("garbage")
        out = tmp_path / "run"
        code = main(["refine", "--rules", str(workspace / "rules.json"),
                     "--dataset", str(bad),
                     "--config", str(workspace / "oracle_config.json"),
                     "--out", str(out)])
        assert code == 2
        assert not out.exists() or not list(out.iterdir())

    def test_json_diagnostics_flag(self, workspace, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,2\n")
        code = main(["--json", "eval", "--rules", str(workspace / "rules.json"),
                     "--dataset", str(bad)])
        assert code == 2
        err = capsys.readouterr().err
        payload = json.loads(err.strip().splitlines()[-1])
        assert payload["error"] == "format"

    def test_non_finite_dataset_is_format_error(self, workspace, tmp_path, capsys):
        bad = tmp_path / "nan.csv"
        bad.write_text("ego_speed,dist_front,lane_offset,outcome\n"
                       "1,4.4,0,Fail\nnan,4.4,0,Fail\n")
        code = main(["eval", "--rules", str(workspace / "rules.json"),
                     "--dataset", str(bad)])
        assert code == 2
        assert "line 3: non-finite" in capsys.readouterr().err

    def test_duplicated_dataset_column_is_format_error(self, workspace, tmp_path, capsys):
        # the first dist_front makes this run a mismatch for the baseline; the
        # second would hide it
        bad = tmp_path / "dup.csv"
        bad.write_text("dist_front,dist_front,ego_speed,lane_offset,outcome\n"
                       "4.2,30,1,0,Fail\n")
        out = tmp_path / "out"
        code = main(["eval", "--rules", str(workspace / "rules.json"),
                     "--dataset", str(bad), "--out", str(out)])
        assert code == 2
        assert not out.exists()
        assert "duplicated column 'dist_front'" in capsys.readouterr().err


GOLDEN_OUTCOME = Path(__file__).parent / "golden" / "outcome.json"


class TestOutOfDomainRows:
    """A run outside the config's domain is refused before any output, by
    every command that loads a dataset and a config."""

    @pytest.fixture()
    def off_domain(self, workspace, tmp_path):
        # an inconsistent run for the baseline (holds, observed Fail) at a
        # speed past the declared 0..30 range
        text = (workspace / "dataset.csv").read_text() + "99,4.4,0,Fail\n"
        path = tmp_path / "off_domain.csv"
        path.write_text(text)
        return path, len(text.splitlines())

    @pytest.mark.parametrize("command,extra", [
        ("cf", []),
        ("refine", ["--generator", "local"]),
        ("metrics", ["--outcome", str(GOLDEN_OUTCOME)]),
    ])
    def test_exit_2_and_no_output(self, workspace, tmp_path, capsys, off_domain,
                                  command, extra):
        dataset, last_line = off_domain
        out = tmp_path / "out"
        code = main([command, "--rules", str(workspace / "rules.json"),
                     "--dataset", str(dataset),
                     "--config", str(workspace / "oracle_config.json"),
                     *extra, "--out", str(out)])
        assert code == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert f"line {last_line}: run outside the declared domain" in err


def _rules_file(tmp_path, entries):
    path = tmp_path / "rules.json"
    path.write_text(json.dumps(entries))
    return path


def _config_file(workspace, tmp_path, **fields):
    data = json.loads((workspace / "oracle_config.json").read_text())
    data.update(fields)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    return path


class TestMalformedFiles:
    """A malformed rules or config file is a format error (exit 2) that names
    the offending entry, never a traceback."""

    @pytest.mark.parametrize("command", ["eval", "check"])
    def test_rule_text_not_a_string(self, workspace, tmp_path, capsys, command):
        rules = _rules_file(tmp_path, [{"id": "r1", "polarity": "pass", "text": 5}])
        extra = (["--dataset", str(workspace / "dataset.csv")] if command == "eval"
                 else ["--config", str(workspace / "oracle_config.json")])
        assert main([command, "--rules", str(rules), *extra]) == 2
        assert "rule 0" in capsys.readouterr().err

    def test_rule_id_is_a_list(self, workspace, tmp_path, capsys):
        rules = _rules_file(tmp_path, [{"id": ["r1"], "polarity": "pass",
                                        "text": "(dist_front < 5)"}])
        assert main(["eval", "--rules", str(rules),
                     "--dataset", str(workspace / "dataset.csv")]) == 2
        assert "rule 0: field 'id' must be a string" in capsys.readouterr().err

    def test_config_seed_not_an_integer(self, workspace, tmp_path, capsys):
        config = _config_file(workspace, tmp_path, seed="abc")
        out = tmp_path / "run"
        assert main(["refine", "--rules", str(workspace / "rules.json"),
                     "--dataset", str(workspace / "dataset.csv"), "--config", str(config),
                     "--out", str(out)]) == 2
        assert not out.exists()
        assert "field 'seed' must be an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["sim", "cf"])
    def test_config_odd_without_variables(self, workspace, tmp_path, capsys, command):
        config = _config_file(workspace, tmp_path, odd={"variables": []}, safe_region="1 < 2")
        out = tmp_path / "out"
        argv = (["sim", "--n", "3", "--config", str(config), "--out", str(out)]
                if command == "sim" else
                ["cf", "--rules", str(workspace / "rules.json"),
                 "--dataset", str(workspace / "dataset.csv"), "--config", str(config),
                 "--out", str(out / "evidence.json")])
        assert main(argv) == 2
        assert not out.exists()
        assert "the ODD declares no variables" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value", [("min", True), ("max", "5"), ("step", " 0.5 ")],
                             ids=["bool-min", "string-max", "padded-string-step"])
    @pytest.mark.parametrize("command", ["sim", "refine"])
    def test_config_odd_bound_not_a_number(self, workspace, tmp_path, capsys, command, field,
                                           value):
        data = json.loads((workspace / "oracle_config.json").read_text())
        name = data["odd"]["variables"][0]["name"]
        data["odd"]["variables"][0][field] = value
        config = tmp_path / "config.json"
        config.write_text(json.dumps(data))
        out = tmp_path / "out"
        argv = (["sim", "--n", "3", "--config", str(config), "--out", str(out)]
                if command == "sim" else
                ["refine", *_args(workspace)[:4], "--config", str(config), "--out", str(out)])
        assert main(argv) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert f"variable {name!r}: field {field!r} must be a number, got {value!r}" in err
        assert "Traceback" not in err

    def test_config_odd_bound_too_large_for_a_float(self, workspace, tmp_path, capsys):
        data = json.loads((workspace / "oracle_config.json").read_text())
        name = data["odd"]["variables"][0]["name"]
        data["odd"]["variables"][0]["max"] = 10 ** 400
        config = tmp_path / "config.json"
        config.write_text(json.dumps(data))
        out = tmp_path / "out"
        assert main(["sim", "--n", "3", "--config", str(config), "--out", str(out)]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert f"variable {name!r}: field 'max' is too large for a float" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("fault, message", [
        ("no-min", "variable {name!r}: missing field 'min'"),
        ("int-name", "variable 0: field 'name' must be a string, got 5"),
        ("entry-not-object", "variable 0: expected an object, got 5"),
        ("variables-not-list", "field 'variables' must be a list, got {{'name': {name!r}}}"),
    ], ids=["no-min", "int-name", "entry-not-object", "variables-not-list"])
    def test_config_odd_entry_named_with_its_field(self, workspace, tmp_path, capsys, fault,
                                                   message):
        data = json.loads((workspace / "oracle_config.json").read_text())
        variables = data["odd"]["variables"]
        name = variables[0]["name"]
        if fault == "no-min":
            del variables[0]["min"]
        elif fault == "int-name":
            variables[0]["name"] = 5
        elif fault == "entry-not-object":
            variables[0] = 5
        else:
            data["odd"]["variables"] = {"name": name}
        config = tmp_path / "config.json"
        config.write_text(json.dumps(data))
        out = tmp_path / "out"
        assert main(["sim", "--n", "3", "--config", str(config), "--out", str(out)]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert message.format(name=name) in err
        assert "Traceback" not in err

    def test_config_safe_region_outside_its_odd(self, workspace, tmp_path, capsys):
        config = _config_file(workspace, tmp_path, safe_region="(headway > 2)")
        assert main(["check", "--rules", str(workspace / "rules.json"),
                     "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert "safe_region" in err and "headway" in err


def _odd_fault(fault):
    """A copy of a config whose ODD has one fault."""
    def spoil(data):
        variables = data["odd"]["variables"]
        if fault == "no-variables":
            del data["odd"]["variables"]
        elif fault == "min-above-max":
            variables[0]["min"], variables[0]["max"] = variables[0]["max"], variables[0]["min"]
        elif fault == "zero-step":
            variables[0]["step"] = 0
        elif fault == "name-not-identifier":
            variables[0]["name"] = "ego speed"
        elif fault == "name-keyword":
            variables[0]["name"] = "And"
        else:
            variables[1]["name"] = variables[0]["name"]
        return data
    return spoil


_INPUT_REFUSALS = {
    "odd-without-variables": (2, "format", 'expected an object with a "variables" list',
                              lambda ws, tmp: _sim_on(ws, tmp, _odd_fault("no-variables"))),
    "odd-min-above-max": (2, "format", "bad variable entry: bad range for ego_speed: [30.0, 0.0]",
                          lambda ws, tmp: _sim_on(ws, tmp, _odd_fault("min-above-max"))),
    "odd-zero-step": (2, "format", "bad variable entry: step for ego_speed must be positive",
                      lambda ws, tmp: _sim_on(ws, tmp, _odd_fault("zero-step"))),
    "odd-name-twice": (2, "format", "bad variable entry: ODD variable names must be unique",
                       lambda ws, tmp: _sim_on(ws, tmp, _odd_fault("name-twice"))),
    "odd-name-not-identifier": (
        2, "format", "bad variable entry: invalid ODD variable name: 'ego speed'",
        lambda ws, tmp: _sim_on(ws, tmp, _odd_fault("name-not-identifier"))),
    "odd-name-keyword": (2, "format", "bad variable entry: invalid ODD variable name: 'And'",
                         lambda ws, tmp: _sim_on(ws, tmp, _odd_fault("name-keyword"))),
    "config-a-list": (2, "format", "oracle config must be a JSON object",
                      lambda ws, tmp: _sim_on(ws, tmp, lambda data: [data])),
    "rules-an-object": (2, "format", "rules file must be a JSON list", lambda ws, tmp: [
        "eval", "--rules", str(_text_file(tmp / "object.json", json.dumps(
            {"id": "r", "polarity": "pass", "text": "(dist_front < 5)"}))),
        "--dataset", str(ws / "dataset.csv"), "--out", str(tmp / "eval.json")]),
    "cf-two-rules-no-id": (1, "usage", "multiple rules in file; pass --rule-id", lambda ws, tmp: [
        "cf", "--rules", str(_rules_file(tmp, [
            {"id": "a", "polarity": "pass", "text": "(dist_front < 5)"},
            {"id": "b", "polarity": "fail", "text": "(dist_front > 40)"}])),
        *_args(ws)[2:], "--out", str(tmp / "e.json")]),
    "mock-script-an-object": (2, "format", "expected a JSON list of strings", lambda ws, tmp: [
        "refine", *_args(ws), "--generator", "mock", "--mock-script", str(_text_file(
            tmp / "script.json", json.dumps({"responses": ["(dist_front < 4)"]}))),
        "--out", str(tmp / "run")]),
    "mock-script-not-strings": (2, "format", "expected a JSON list of strings", lambda ws, tmp: [
        "refine", *_args(ws), "--generator", "mock", "--mock-script", str(_text_file(
            tmp / "script.json", json.dumps(["(dist_front < 4)", 5]))),
        "--out", str(tmp / "run")]),
}


def _sim_on(workspace, tmp_path, spoil):
    data = json.loads((workspace / "oracle_config.json").read_text())
    config = _text_file(tmp_path / "config.json", json.dumps(spoil(data)))
    return ["sim", "--n", "3", "--config", str(config), "--out", str(tmp_path / "out")]


@pytest.mark.parametrize("case", list(_INPUT_REFUSALS))
def test_external_input_refusal_writes_nothing(workspace, tmp_path, capsys, case):
    """Each refusal of a faulty input file exits with its code and one
    stderr line naming the fault, and writes nothing."""
    code, kind, message, argv = _INPUT_REFUSALS[case]
    argv = argv(workspace, tmp_path)
    before = _tree(tmp_path)
    assert main(argv) == code
    assert _tree(tmp_path) == before
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith(f"error ({kind}): ") and line.endswith(message)


class TestUnboundRuleVariables:
    """A rule naming a variable the dataset (eval) or the config's domain (cf,
    refine, metrics) lacks is refused before any output."""

    UNBOUND = [{"id": "baseline-pass", "polarity": "pass",
                "text": "(dist_front < 5) and (headway > 0)"}]

    def test_eval(self, workspace, tmp_path, capsys):
        out = tmp_path / "eval.json"
        assert main(["eval", "--rules", str(_rules_file(tmp_path, self.UNBOUND)),
                     "--dataset", str(workspace / "dataset.csv"), "--out", str(out)]) == 2
        assert not out.exists()
        assert "rule 0 (baseline-pass): unbound variable(s) ['headway']" in capsys.readouterr().err

    @pytest.mark.parametrize("command,extra", [
        ("cf", []),
        ("refine", ["--generator", "local"]),
        ("metrics", ["--outcome", str(GOLDEN_OUTCOME)]),
    ])
    def test_exit_2_and_no_output(self, workspace, tmp_path, capsys, command, extra):
        out = tmp_path / "out"
        code = main([command, "--rules", str(_rules_file(tmp_path, self.UNBOUND)),
                     "--dataset", str(workspace / "dataset.csv"),
                     "--config", str(workspace / "oracle_config.json"),
                     *extra, "--out", str(out)])
        assert code == 2
        assert not out.exists()
        assert "unbound variable(s) ['headway']" in capsys.readouterr().err


def test_refine_takes_its_scores_from_the_outcome(workspace, tmp_path, monkeypatch):
    def no_rescoring(*args, **kwargs):
        raise AssertionError("cli.refine scored a rule itself")

    monkeypatch.setattr("ruleforge.cli.decisiveness", no_rescoring)
    out = tmp_path / "run"
    assert main(["refine", *_args(workspace), "--generator", "local", "--out", str(out)]) == 0
    outcome = json.loads((out / "outcome.json").read_text())
    assert round(outcome["dg_before"], 4) == 0.8636 and outcome["dg_after"] == 1.0
    assert "decisiveness: 0.8636 -> 1.0000" in (out / "report.txt").read_text()


def test_refine_scores_the_target_once(workspace, tmp_path, monkeypatch):
    """A local refine scores its target over the dataset once: the evidence
    build and the generator reuse refine_loop's report. The generator counts
    its candidates without a decisiveness pass, so the accepted candidate is
    scored once too, by refine_loop."""
    scored = []

    def counting(rule, *args, **kwargs):
        scored.append(print_rule(rule.ast))
        return decisiveness(rule, *args, **kwargs)

    for module in list(sys.modules.values()):
        if module.__name__.startswith("ruleforge") and \
                getattr(module, "decisiveness", None) is decisiveness:
            monkeypatch.setattr(module, "decisiveness", counting)
    assert main(["refine", *_args(workspace), "--generator", "local",
                 "--out", str(tmp_path / "run")]) == 0
    outcome = json.loads((tmp_path / "run" / "outcome.json").read_text())
    assert scored == ["(dist_front < 5) and (ego_speed > 0)", outcome["refined_text"]]


def test_import_loads_no_http_stack_and_no_third_party_module_but_click():
    """Only LlmGenerator.generate needs HTTP, so importing the CLI loads
    neither the stdlib HTTP client nor any third-party package except click."""
    probe = ("import sys; before = set(sys.modules); import ruleforge.cli; "
             "new = set(sys.modules) - before; "
             "print(sorted(new & {'urllib.request', 'http.client'})); "
             "print(sorted({m.split('.')[0] for m in new} - set(sys.stdlib_module_names)))")
    src = str(Path(ruleforge.__file__).resolve().parents[1])
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": src}, check=True)
    assert result.stdout.splitlines() == ["[]", "['click', 'ruleforge']"]


class TestUnreadableInput:
    """Bytes that are not UTF-8 are a format error (exit 2) naming the file;
    a path that cannot be read is a usage error (exit 1). Neither escapes as
    an exception."""

    def test_undecodable_dataset(self, workspace, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"ego_speed,dist_front,lane_offset,outcome\n1,4.4,0,Fail\xff\n")
        assert main(["eval", "--rules", str(workspace / "rules.json"),
                     "--dataset", str(bad)]) == 2
        assert f"{bad}: not UTF-8 text" in capsys.readouterr().err

    def test_undecodable_rules(self, workspace, tmp_path, capsys):
        bad = tmp_path / "rules.json"
        bad.write_bytes(b'[{"id": "r\xff", "polarity": "pass", "text": "ego_speed > 0"}]')
        assert main(["eval", "--rules", str(bad),
                     "--dataset", str(workspace / "dataset.csv")]) == 2
        assert f"{bad}: not UTF-8 text" in capsys.readouterr().err

    @pytest.mark.parametrize("option", ["--rules", "--dataset", "--config", "--mock-script"])
    def test_directory_as_input(self, workspace, tmp_path, capsys, option):
        script, folder = tmp_path / "script.json", tmp_path / "folder"
        script.write_text('["Rule: (dist_front < 4.2) and (ego_speed > 0)"]')
        folder.mkdir()
        args = _args(workspace, "--generator", "mock", "--mock-script", str(script),
                     "--out", str(tmp_path / "run"))
        args[args.index(option) + 1] = str(folder)
        assert main(["refine", *args]) == 1
        assert not (tmp_path / "run").exists()
        assert f"cannot read {folder}" in capsys.readouterr().err

    @pytest.mark.parametrize("raw,code", [(None, 1), (b"(dist_front < 4.2)\xff", 2)],
                             ids=["missing", "undecodable"])
    def test_unreadable_raw_text(self, workspace, tmp_path, capsys, raw, code):
        raw_path = tmp_path / "raw.txt"
        if raw is not None:
            raw_path.write_bytes(raw)
        out = tmp_path / "metrics.json"
        assert main(["metrics", *_args(workspace), "--outcome", str(GOLDEN_OUTCOME),
                     "--raw", str(raw_path), "--out", str(out)]) == code
        assert not out.exists()
        assert str(raw_path) in capsys.readouterr().err


def _tree(root: Path) -> dict:
    return {path: path.read_bytes() if path.is_file() else None for path in root.rglob("*")}


class TestOutOfTheWrongKind:
    """An --out naming a directory where a file is written (eval, cf,
    metrics), or a file where a directory is made (sim, refine), is a usage
    error found before any work: nothing is written, no oracle is built and
    no traceback escapes."""

    @pytest.mark.parametrize("command", ["sim", "eval", "cf", "refine", "metrics"])
    def test_exit_1_and_nothing_written(self, workspace, tmp_path, capsys, monkeypatch,
                                        command):
        built = []
        monkeypatch.setattr("ruleforge.cli.make_oracle", built.append)
        inputs = {"sim": ["--reference-fixture"], "eval": _args(workspace)[:4],
                  "cf": _args(workspace), "refine": _args(workspace, "--generator", "local"),
                  "metrics": _args(workspace, "--outcome", str(GOLDEN_OUTCOME))}[command]
        taken = tmp_path / "taken"
        taken.mkdir()
        out = workspace / "rules.json" if command in ("sim", "refine") else taken
        before = _tree(tmp_path)
        assert main([command, *inputs, "--out", str(out)]) == 1
        assert _tree(tmp_path) == before
        assert built == []
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith("error (usage): Invalid value for '--out'")


class TestOneJsonWriter:
    """eval's report and transcripts.json are written as every other JSON
    artifact is: UTF-8, non-ASCII text kept as is."""

    def test_eval_report_keeps_non_ascii_rule_ids(self, workspace, tmp_path, capsys):
        rules = _rules_file(tmp_path, [{"id": "règle", "polarity": "pass",
                                        "text": "(dist_front < 5) and (ego_speed > 0)"}])
        out = tmp_path / "eval.json"
        argv = ["eval", "--rules", str(rules), "--dataset", str(workspace / "dataset.csv")]
        assert main([*argv, "--out", str(out)]) == 0
        assert main(argv) == 0
        text = out.read_text(encoding="utf-8")
        assert '"rule_id": "règle"' in text
        assert capsys.readouterr().out == text
        assert text == storage.json_text(json.loads(text))

    def test_transcripts_keep_non_ascii_text(self, workspace, tmp_path, monkeypatch):
        for name, value in (("RULEFORGE_LLM_BASE_URL", "http://llm.invalid"),
                            ("RULEFORGE_LLM_API_KEY", "key"), ("RULEFORGE_LLM_MODEL", "m")):
            monkeypatch.setenv(name, value)
        reply = ("Rule: (dist_front < 4.2) and (ego_speed > 0)\n"
                 "Explanation: seuil resserré")
        body = json.dumps({"choices": [{"message": {"content": reply}}]}).encode("utf-8")
        monkeypatch.setattr("urllib.request.urlopen",
                            lambda request, timeout=None: io.BytesIO(body))
        out = tmp_path / "run"
        assert main(["refine", *_args(workspace), "--generator", "llm", "--out", str(out)]) == 0
        text = (out / "transcripts.json").read_text(encoding="utf-8")
        assert "seuil resserré" in text
        assert text == storage.json_text(json.loads(text))

    def test_exhausted_llm_still_writes_its_transcripts(self, workspace, tmp_path,
                                                        monkeypatch):
        for name, value in (("RULEFORGE_LLM_BASE_URL", "http://llm.invalid"),
                            ("RULEFORGE_LLM_API_KEY", "key"), ("RULEFORGE_LLM_MODEL", "m")):
            monkeypatch.setenv(name, value)
        body = json.dumps({"choices": [{"message": {"content": "no rule here"}}]})
        monkeypatch.setattr("urllib.request.urlopen",
                            lambda request, timeout=None: io.BytesIO(body.encode("utf-8")))
        out = tmp_path / "not-yet" / "run"
        assert main(["refine", *_args(workspace), "--generator", "llm",
                     "--max-attempts", "2", "--out", str(out)]) == 3
        assert sorted(p.name for p in out.iterdir()) == ["transcripts.json"]
        assert len(json.loads(out.joinpath("transcripts.json").read_text())["transcripts"]) == 2


_REFUSALS = {
    "click-usage-error": (1, "usage", lambda ws, tmp: [
        "cf", *_args(ws), "--max-radius", "0"]),
    "missing-command": (1, "usage", lambda ws, tmp: []),
    "unknown-command": (1, "usage", lambda ws, tmp: ["bogus"]),
    "unknown-group-option": (1, "usage", lambda ws, tmp: ["--nope"]),
    "fixture-with-config": (1, "usage", lambda ws, tmp: [
        "sim", "--reference-fixture", "--config", str(ws / "oracle_config.json"),
        "--out", str(tmp / "out")]),
    "check-bad-polarity": (2, "format", lambda ws, tmp: [
        "check", "--rules", str(_rules_file(tmp, [{
            "id": "r", "polarity": "maybe", "text": "(dist_front < 5)"}])),
        "--config", str(ws / "oracle_config.json")]),
    "unknown-rule-id": (1, "usage", lambda ws, tmp: [
        "refine", *_args(ws), "--rule-id", "nope", "--out", str(tmp / "run")]),
    "consistent-rule": (1, "usage", lambda ws, tmp: [
        "cf", "--rules", str(_rules_file(tmp, [{
            "id": "ok", "polarity": "pass",
            "text": "(dist_front < 4.05) and (ego_speed > 0)"}])),
        *_args(ws)[2:], "--out", str(tmp / "e.json")]),
    "malformed-dataset": (2, "format", lambda ws, tmp: [
        "eval", "--rules", str(ws / "rules.json"), "--dataset", str(_text_file(
            tmp / "bad.csv", "a,b\n1,2\n"))]),
    "exhausted-mock-script": (3, "refinement", lambda ws, tmp: [
        "refine", *_args(ws), "--generator", "mock", "--mock-script", str(_text_file(
            tmp / "script.json", json.dumps(["", "no rule here"]))),
        "--max-attempts", "2", "--out", str(tmp / "run")]),
    "failing-check": (2, "check", lambda ws, tmp: [
        "check", "--rules", str(_rules_file(tmp, [{
            "id": "bad", "polarity": "pass", "text": "(headway > 2)"}])),
        "--config", str(ws / "oracle_config.json")]),
}


def _text_file(path: Path, text: str) -> Path:
    path.write_text(text)
    return path


@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
@pytest.mark.parametrize("case", list(_REFUSALS))
def test_each_refusal_is_one_stderr_line(workspace, tmp_path, capsys, case, as_json):
    """Every kind of refusal is reported once, by main, with its exit code;
    under --json as one JSON object."""
    code, kind, argv = _REFUSALS[case]
    assert main([*(["--json"] if as_json else []), *argv(workspace, tmp_path)]) == code
    (line,) = capsys.readouterr().err.splitlines()
    if as_json:
        payload = json.loads(line)
        assert payload["error"] == kind and payload["message"]
    else:
        assert line.startswith(f"error ({kind}): ")


@pytest.mark.parametrize("argv,as_json", [
    (["--nope", "--json"], True),
    (["refine", "--json"], False),
], ids=["json-after-unknown-option", "json-after-command"])
def test_json_is_read_from_the_options_before_the_command(capsys, argv, as_json):
    """--json is a group option: it counts before the command name, wherever
    click stops parsing, and not after it."""
    assert main(argv) == 1
    (line,) = capsys.readouterr().err.splitlines()
    if as_json:
        assert json.loads(line)["error"] == "usage"
    else:
        assert line.startswith("error (usage): ")


def test_public_names_resolve_once():
    names = ruleforge.__all__
    assert len(set(names)) == len(names)
    assert all(hasattr(ruleforge, name) for name in names)
    namespace = {}
    exec("from ruleforge import *", namespace)
    assert set(names) <= namespace.keys()

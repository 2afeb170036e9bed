"""Golden artifacts: `sim --reference-fixture --seed 42` then `refine` must
reproduce the checked-in outcome.json and report.txt byte for byte.

* `golden/`: `refine --generator local` on the fixture's rules.
* `golden/flagged/`: `refine --generator mock` on the fixture's rules plus the
  fail rule `(dist_front < 3)`. The first scripted reply overlaps that rule and
  is rejected as Flagged with a witness; the second is accepted. It locks the
  serialization of a rejected report with a witness.
* `golden/sim/`: the files `sim` writes (sampler, oracle label and CSV
  writer bytes) for `--reference-fixture --seed 42` (`fixture/`), for
  `--n 500 --seed 7` on the default config (`n500/`), and for `--n 300` on
  `steps/oracle_config.json`, whose steps 0.05, 0.25 and 10 run over
  negative ranges (`steps/`).

Regenerate the golden files only for an intended artifact change, with the
same commands, and say why in the change log.
"""

import json
from pathlib import Path

import pytest

from ruleforge.cli import main

GOLDEN = Path(__file__).parent / "golden"

NEAR_FAIL_RULE = {"id": "near-fail", "polarity": "fail", "text": "(dist_front < 3)"}
MOCK_SCRIPT = [
    "Rule: (dist_front < 4.1) and (ego_speed > 0)\n"
    "Explanation: tighten the headway bound to the observed flip.",
    "Rule: (dist_front < 4.1) and (dist_front > 3.5) and (ego_speed > 0)\n"
    "Explanation: tighten the headway bound and stay clear of near-fail.",
]


@pytest.fixture(scope="module")
def refine_out(tmp_path_factory):
    ws = tmp_path_factory.mktemp("ws")
    out = tmp_path_factory.mktemp("out")
    assert main(["sim", "--reference-fixture", "--seed", "42", "--out", str(ws)]) == 0
    assert main(["refine", "--rules", str(ws / "rules.json"),
                 "--dataset", str(ws / "dataset.csv"),
                 "--config", str(ws / "oracle_config.json"),
                 "--generator", "local", "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def flagged_out(tmp_path_factory):
    ws = tmp_path_factory.mktemp("flagged")
    assert main(["sim", "--reference-fixture", "--seed", "42", "--out", str(ws)]) == 0
    rules = ws / "rules_with_near_fail.json"
    rules.write_text(json.dumps(json.loads((ws / "rules.json").read_text())
                                + [NEAR_FAIL_RULE]))
    script = ws / "script.json"
    script.write_text(json.dumps(MOCK_SCRIPT))
    out = ws / "run"
    assert main(["refine", "--rules", str(rules), "--rule-id", "baseline-pass",
                 "--dataset", str(ws / "dataset.csv"),
                 "--config", str(ws / "oracle_config.json"),
                 "--generator", "mock", "--mock-script", str(script),
                 "--out", str(out)]) == 0
    return out


@pytest.mark.parametrize("name", ["outcome.json", "report.txt"])
def test_reference_refine_artifacts_match_golden(refine_out, name):
    assert (refine_out / name).read_bytes() == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("name", ["outcome.json", "report.txt"])
def test_flagged_attempt_artifacts_match_golden(flagged_out, name):
    assert (flagged_out / name).read_bytes() == (GOLDEN / "flagged" / name).read_bytes()


def test_flagged_golden_holds_a_witnessed_rejection():
    reports = json.loads((GOLDEN / "flagged" / "outcome.json").read_text())["reports"]
    assert [r["accepted"] for r in reports] == [False, True]
    contradiction = reports[0]["contradiction"]
    assert contradiction["status"] == "Flagged"
    assert contradiction["opposing_rule_id"] == "near-fail"
    assert contradiction["witness"]["dist_front"] < 3


SIM_CASES = {
    "fixture": ["--reference-fixture", "--seed", "42"],
    "n500": ["--n", "500", "--seed", "7"],
    "steps": ["--n", "300", "--config", str(GOLDEN / "sim" / "steps" / "oracle_config.json")],
}


@pytest.mark.parametrize("case", sorted(SIM_CASES))
def test_sim_files_match_golden(tmp_path, case):
    expected = GOLDEN / "sim" / case
    assert main(["sim", *SIM_CASES[case], "--out", str(tmp_path)]) == 0
    names = sorted(path.name for path in expected.iterdir())
    assert sorted(path.name for path in tmp_path.iterdir()) == names
    for name in names:
        assert (tmp_path / name).read_bytes() == (expected / name).read_bytes(), name

"""Golden artifacts: `sim --reference-fixture --seed 42` then `refine --generator
local` must reproduce the checked-in outcome.json and report.txt byte for byte.

Regenerate the golden files only for an intended artifact change, with the
same two commands, and say why in the change log.
"""

from pathlib import Path

import pytest

from ruleforge.cli import main

GOLDEN = Path(__file__).parent / "golden"


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


@pytest.mark.parametrize("name", ["outcome.json", "report.txt"])
def test_reference_refine_artifacts_match_golden(refine_out, name):
    assert (refine_out / name).read_bytes() == (GOLDEN / name).read_bytes()

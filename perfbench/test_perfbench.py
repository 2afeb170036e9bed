"""Self-tests of the benchmark: run with ``python3 -m pytest perfbench``.

A tiny-size run of each workload, traced and untraced, must print every
metric that BENCHMARK.json names, with its unit. The tracer must put back
every attribute it wrapped. The host-speed meter must sample inside the
region it times and leave no timer running.
"""

from __future__ import annotations

import json
import signal
import statistics
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace, section, tmp_path,
                                                    capsys):
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                     "--trace", str(trace)], tiny=True, work_root=tmp_path)
    assert code == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == expected
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_tracer_restores_every_wrapped_attribute():
    run._import_ruleforge()
    from tracer import PROBES, Tracer, ruleforge_modules

    def snapshot():
        return {(mod.__name__, name): value for mod in ruleforge_modules()
                for name, value in vars(mod).items()}

    before = snapshot()
    tracer = Tracer()
    tracer.install()
    patched = {(mod.__name__, attr) for mod, attr, _ in tracer._patches}
    during = snapshot()
    tracer.restore()
    after = snapshot()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    # Every probe was found, and wrapped wherever its function is bound.
    for probe in PROBES:
        home = ("ruleforge." + probe.module, probe.attr)
        assert home in patched
        bound = {key for key, value in before.items() if value is before[home]}
        assert bound <= patched
        assert all(during[key] is not before[key] for key in bound)
    assert ("ruleforge.validation", "check_contradiction") in patched
    assert ("ruleforge.cli", "make_oracle") in patched


def test_meter_samples_inside_the_region_and_disarms_its_timer():
    with hostspeed.Meter() as meter:
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass
    inside = len(meter.samples) - 2 * hostspeed.EDGE_SAMPLES
    assert inside >= 0.3 / hostspeed.INTERVAL_S / 2
    assert 0 < meter.seconds < 0.3
    assert meter.scaled == pytest.approx(
        meter.seconds * hostspeed.NOMINAL_S / statistics.harmonic_mean(meter.samples))
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)

"""Tests of the benchmark itself, at smoke size.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
from workloads import DesignedEval, DesignRoundtrip, NarrowbandGrid  # noqa: E402

SMOKE = {
    "designed_eval": DesignedEval(name="smoke-designed_eval", cases=((16, 32), (32, 64))),
    "design_roundtrip": DesignRoundtrip(name="smoke-design_roundtrip", sizes=(16, 32),
                                        aod_n=16, aod_beams=2),
    "narrowband_grid": NarrowbandGrid(name="smoke-narrowband_grid", sizes=(10, 20),
                                      bands=(2e9, 18e9)),
}


def _declared(kind):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def test_every_workload_is_declared():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(harness.WORKLOADS)
    assert set(SMOKE) == set(harness.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(SMOKE))
def test_smoke_run_emits_every_metric_with_its_unit(name, trace, capsys):
    result = harness.main(SMOKE[name], seed=3, seconds=0, trace=bool(trace))
    last = capsys.readouterr().out.strip().splitlines()[-1]
    assert json.loads(last) == result
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = _declared("per_layer" if trace else "end_to_end")
    assert {k: m["unit"] for k, m in result["metrics"].items()} == declared
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_wrong_pinned_value_raises_error_rate():
    right = DesignedEval(cases=((16, 32),))
    wrong = replace(right, pins=((16, 8.6576449182099 + 1e-6),))
    metrics, checks, _ = harness.measure(right, seed=0, seconds=0, trace=False)
    assert not checks.failures and metrics["pass_rate"] == 1.0
    metrics, checks, _ = harness.measure(wrong, seed=0, seconds=0, trace=False)
    assert checks.failures and all("pinned" in f for f in checks.failures)
    assert metrics["pass_rate"] < 1.0


def test_scipy_share_counts_only_outermost_scipy_imports():
    log = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:        10 |         10 |       scipy._lib",
        "import time:        20 |         30 |     scipy",
        "import time:         5 |          5 |       json.decoder",
        "import time:        40 |         45 |     scipy.linalg",
        "import time:         7 |          7 |     numpy.fft",
        "import time:         1 |         83 |   widebeam.alm",
    ])
    assert harness.scipy_import_share(log) == pytest.approx(75e-6)

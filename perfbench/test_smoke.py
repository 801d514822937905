"""Smoke test of the benchmark harness on a small report.

    python3 -m pytest perfbench/test_smoke.py

Runs quantum-plane-2 with every FULL check at -d 4, untraced and traced,
against a reference written by the harness itself, and checks that a
tampered reference is caught.
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

SMOKE = run.Workload("quantum-plane-2", "F32003", 4, run.FULL, "1/(1-t)^2")


@pytest.fixture
def reference(monkeypatch, tmp_path):
    monkeypatch.setitem(run.WORKLOADS, "smoke", SMOKE)
    monkeypatch.setattr(run, "REFERENCE_DIR", tmp_path)
    return run.write_reference("smoke")


def bench(capsys, trace: int):
    code = run.main(["--workload", "smoke", "--seed", "3", "--seconds", "0",
                     "--trace", str(trace)])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    printed = {line.split()[0]: line.split()[1:3] for line in lines[:-1]
               if line.startswith("  ") and not line.startswith("  error")}
    return printed, json.loads(lines[-1])


def failed_frac(printed) -> float:
    value, unit = printed["failed_frac"]
    assert unit == "fraction"
    return float(value)


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_prints_with_its_unit(reference, capsys, trace, kind):
    printed, result = bench(capsys, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert failed_frac(printed) == 0.0
    spec = run.benchmark_spec()[kind]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert printed[m["name"]] == [repr(result["metrics"][m["name"]]["value"]),
                                      m["unit"]]


def test_tampered_reference_raises_failed_frac(reference, capsys):
    doc = json.loads(reference.read_text())
    doc["hilbert"]["dims"][2] += 1
    reference.write_text(json.dumps(doc))
    printed, result = bench(capsys, 0)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1
    assert failed_frac(printed) == 1.0

"""Smoke test of the benchmark harness at tiny problem sizes.

Run from the root of the checkout:

    python3 -m pytest -q bench/test_smoke.py
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

from harness import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload, trace):
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, cwd=ROOT, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_reported_with_its_unit(workload, trace):
    record, result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [metric["name"] for metric in expected]
    for metric in expected:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert isinstance(reported["value"], (int, float))
    assert record["absent_spans" if trace else "latency_samples"] is not None
    assert len(record["digest_unit0"]) == 64


def test_absent_span_is_reported_not_fatal():
    import prodest.estimators

    tracer = Tracer([
        ("estimators.no_such_function", "prodest.estimators", "no_such_function"),
        ("estimators.estimate_biased", "prodest.estimators", "estimate_biased"),
    ])
    tracer.install()
    try:
        matrix = prodest.estimators.PotentialMatrix([[0.0, -1.0]])
        prodest.estimators.estimate_biased(matrix)
    finally:
        tracer.uninstall()
    assert tracer.absent == ["estimators.no_such_function"]
    metrics = tracer.span_metrics(estimates=1)
    assert metrics["estimators.estimate_biased.calls"] == 1
    assert metrics["estimators.no_such_function.calls"] == 0
    assert "traced" not in repr(prodest.estimators.estimate_biased)

"""A one-second run of each workload prints every metric with its unit."""

import json
import subprocess
import sys

import pytest

from common import ROOT
from run import WORKLOADS


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_prints_every_metric(workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "5", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    with open(ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    expected = spec["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {metric["name"] for metric in expected}
    for metric in expected:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert _reported(lines, metric["name"], metric["unit"])
    if workload == "serve-steady" and not trace:
        for name, unit in (("open_loop_ms_p50", "ms"),
                           ("open_loop_ms_tail", "ms"),
                           ("deadline_met_share", "ratio")):
            assert _reported(lines, name, unit)


def _reported(lines, name, unit):
    return any(line.split()[:1] == [name] and line.split()[2] == unit
               for line in lines)

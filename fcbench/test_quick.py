"""Self-check of the benchmark: one quick run of each workload.

The quick mode uses reduced cutoffs and grids; its figures are not
comparable with full runs.  Run from the root of the checkout:
python3 -m pytest -q fcbench
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Operations per round that fail under a named fault while it stands.
EXPECTED_FAULTS = {"gate-suite": {"D2"}, "loss-sweeps": {"D1", "slope-window"}, "loss-crossval": {"D1"}}


@pytest.mark.parametrize("workload", sorted(EXPECTED_FAULTS))
@pytest.mark.parametrize("trace", [0, 1])
def test_quick_run(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--quick"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics", "comparable"}
    assert result["correct"] is True and result["comparable"] is False
    faults = {line.split()[1].rstrip(":") for line in lines if line.startswith("fault ")}
    assert faults <= EXPECTED_FAULTS[workload]
    info = json.loads(next(line[5:] for line in lines if line.startswith("info ")))
    assert result["attempted"] == info["rounds"] * info["ops_per_round"]
    assert result["failed"] % info["rounds"] == 0
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = spec["per_layer"] if trace else [m for m in spec["end_to_end"] if m["name"] != "setup_s"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}


def test_refuses_a_directory_without_fouriercat(tmp_path):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "gate-suite", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and not proc.stdout.strip()

"""Self-test of the benchmark: every workload at minimal length.

    python3 -m pytest -q perfbench/test_perfbench.py

Each workload runs untraced and traced with --seconds 1, which still runs
every program seed of the workload seed twice.
The tests check that every metric named in BENCHMARK.json is emitted with
its unit, that no operation fails, that the traced counts have their known
values (the trace run is only correct when traced and untraced report
digests match and every wrapped name was restored), and that another
workload seed changes the program's inputs and outputs.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# Per program seed, on the seed commit of the benchmark.
EXPECTED_COUNTS = {
    "convergence": {
        "adapt.train_source.calls": 2,
        "adapt.train_source.distinct_frac": 1 / 2,
        "objectives.mmd_rbf.calls": 201,
        "objectives.mmd_rbf_grad.calls": 2000,
        "bench.run_scenario.calls": 2,
        "cli.main.calls": 0,
    },
    "fusion": {
        "adapt.train_source.calls": 27,
        "adapt.train_source.distinct_frac": 1 / 9,
        "objectives.mmd_rbf.calls": 0,
        "objectives.mmd_rbf_grad.calls": 0,
        "bench.run_scenario.calls": 9,
        "mea.estimate.calls": 3,
    },
    "cli-pipeline": {
        "adapt.train_source.calls": 3,
        "adapt.train_source.distinct_frac": 1.0,
        "objectives.mmd_rbf.calls": 0,
        "bench.run_scenario.calls": 0,
        "cli.main.calls": 13,
        "mea.estimate.calls": 1,
    },
}

_runs: dict = {}


def run(workload: str, seed: int, trace: int):
    """(result JSON, comment lines) of one minimal benchmark run, cached."""
    key = (workload, seed, trace)
    if key not in _runs:
        out = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
            capture_output=True, text=True, cwd=ROOT, timeout=180,
        )
        assert out.returncode == 0, out.stderr
        lines = out.stdout.strip().splitlines()
        _runs[key] = json.loads(lines[-1]), lines[:-1]
    return _runs[key]


def units(result) -> dict:
    return {name: m["unit"] for name, m in result["metrics"].items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    result, lines = run(workload, 0, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert units(result) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert any(ln.startswith("# metric failed_frac=0.0 ratio") for ln in lines)
    assert any(ln.startswith("# env ") and '"SHIFTLAB_THREADS": "unset"' in ln for ln in lines)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics(workload):
    result, _ = run(workload, 0, 1)
    assert result["correct"] and result["failed"] == 0
    assert units(result) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for name, expected in EXPECTED_COUNTS[workload].items():
        assert result["metrics"][name]["value"] == pytest.approx(expected, rel=1e-12), name


def test_trace_leaves_reports_unchanged():
    untraced = [ln for ln in run("fusion", 0, 0)[1] if ln.startswith("# report_sha256")]
    traced = [ln for ln in run("fusion", 0, 1)[1] if ln.startswith("# report_sha256")]
    assert untraced and untraced == traced


def test_seed_changes_inputs():
    def digests(seed):
        line = next(ln for ln in run("cli-pipeline", seed, 0)[1] if ln.startswith("# report_sha256"))
        return dict(f.split("=", 1) for f in line.split()[2:])

    a, b = digests(0), digests(1)
    assert a["inputs_sha256"] != b["inputs_sha256"]
    assert a["sha256"] != b["sha256"]

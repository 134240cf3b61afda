"""Smoke test of the benchmark itself, on a copy of the checkout.

Every workload runs at a tiny simulated horizon: the untraced run must print
every end-to-end metric of BENCHMARK.json with its unit and pass the output
checks, the traced run must print every per-layer metric and a non-zero
value for each metric that applies to the workload.  Without the simulator
sources the benchmark must fail without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SCALE = "0.04"

#: Layer metrics every workload exercises.
COMMON = {
    "generator.share",
    "generator.self_ns_per_req",
    "generator.calls",
    "ledger.share",
    "ledger.self_ns_per_req",
    "controller.self_us_per_window",
    "controller.share",
    "scenario.self_share",
    "scenario.windows",
    "engine.events",
    "engine.events_per_req",
    "monitor.summary_ms",
    "monitor.share",
}
#: Layer metrics that apply only to some workloads.
APPLIES = {
    "psd-single": {
        "server.share",
        "server.drain.self_ns_per_req",
        "server.submit.self_ns_per_req",
    },
    "cluster-jsq": {
        "server.share",
        "server.drain.self_ns_per_req",
        "cluster.walk.self_ns_per_req",
        "cluster.member_drains",
        "cluster.member_drains_per_req",
        "cluster.share",
        "dispatch.scalar_decisions",
        "dispatch.share",
        "partition.calls",
        "partition.self_us_per_call",
        "partition.share",
    },
    "cluster-control": {
        "server.share",
        "server.drain.self_ns_per_req",
        "cluster.walk.self_ns_per_req",
        "cluster.member_drains",
        "cluster.member_drains_per_req",
        "cluster.empty_drain_frac",
        "cluster.share",
        "dispatch.vectorised_frac",
        "dispatch.share",
        "partition.calls",
        "partition.self_us_per_call",
        "partition.share",
        "admission.decide.self_ns_per_req",
        "admission.observe.self_us_per_window",
        "admission.shed_frac",
        "admission.share",
        "autoscale.self_us_per_window",
        "autoscale.events",
        "autoscale.share",
    },
    "per-event-wfq": {
        "server.share",
        "server.submit.self_ns_per_req",
        "scheduling.self_ns_per_req",
        "scheduling.share",
    },
}
WORKLOADS = [entry["name"] for entry in SPEC["workloads"]]


@pytest.fixture(scope="module")
def checkout(tmp_path_factory) -> Path:
    """The files a benchmark checkout holds: BENCHMARK.json, src, simbench."""
    root = tmp_path_factory.mktemp("checkout")
    ignore = shutil.ignore_patterns("__pycache__", "*.pyc")
    shutil.copy(ROOT / "BENCHMARK.json", root)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, root / path, ignore=ignore)
    shutil.copytree(ROOT / "src", root / "src", ignore=ignore)
    return root


def _run(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    command = [sys.executable, *SPEC["command"][1:]]
    args = ["--workload", workload, "--seed", "7", "--seconds", "0.2", "--trace", str(trace)]
    return subprocess.run(
        [*command, *args, "--scale", SCALE],
        cwd=root,
        capture_output=True,
        text=True,
        timeout=170,
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(checkout, workload):
    proc = _run(checkout, workload, 0)
    metrics = _result(proc)["metrics"]
    expected = {entry["name"]: entry["unit"] for entry in SPEC["end_to_end"]}
    assert {name: m["unit"] for name, m in metrics.items()} == expected
    assert all(m["value"] > 0 for m in metrics.values()), metrics
    assert "failed_frac  0.0000" in proc.stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layer_metrics(checkout, workload):
    proc = _run(checkout, workload, 1)
    metrics = _result(proc)["metrics"]
    expected = {entry["name"]: entry["unit"] for entry in SPEC["per_layer"]}
    assert {name: m["unit"] for name, m in metrics.items()} == expected
    zero = sorted(name for name in COMMON | APPLIES[workload] if metrics[name]["value"] <= 0)
    assert not zero, zero
    assert "largest self share" in proc.stdout


def test_fails_without_the_simulator(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path)
    proc = _run(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

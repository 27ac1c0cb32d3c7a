"""Tests of the benchmark itself.

    python3 -m pytest bench/tests -q

The smoke runs use `--seconds 1`; a run still completes whole cycles and
at least 100 calls, so the mc_ccdf ones take about a minute each.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import spans  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(workload: str, trace: int, cwd: Path = ROOT, seed: int = 3):
    cmd = SPEC["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_self_times_subtract_union_of_children():
    # root [0, 100] has children a [10, 40] and b [30, 60], which overlap;
    # a has a grandchild [15, 20].
    start = [0, 10, 30, 15]
    end = [100, 40, 60, 20]
    parent = [-1, 0, 0, 1]
    assert spans.self_times(start, end, parent).tolist() == [50, 25, 30, 5]


def test_self_times_clip_children_to_parent():
    # child [5, 30] sticks out of its parent [10, 20]; the disjoint child
    # [40, 45] of the second root counts in full.
    start = [10, 5, 35, 40]
    end = [20, 30, 50, 45]
    parent = [-1, 0, -1, 2]
    assert spans.self_times(start, end, parent).tolist() == [0, 25, 10, 5]


def test_per_layer_declaration_matches_the_tracer():
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert declared == {name: unit for name, (unit, _) in spans.PER_LAYER.items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_end_to_end_metrics(workload):
    proc = run_bench(workload, 0)
    result = result_of(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in result["metrics"].values())
    failed_frac = [line.split() for line in proc.stdout.splitlines()
                   if line.startswith("# failed_frac")]
    assert failed_frac == [["#", "failed_frac", "0", "frac"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_prints_per_layer_metrics(workload):
    result = result_of(run_bench(workload, 1))
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in metrics.items()} == declared
    for name, (_, mapped) in spans.PER_LAYER.items():
        if workload in mapped:
            assert metrics[name]["value"] > 0, name
    for layer in spans.LAYERS:
        assert metrics[f"{layer}.errors"]["value"] == 0
    if workload == "rician_model":
        assert metrics["waveform.slot_data.cells_per_trial"]["value"] == 0
        assert metrics["analysis.mc.calls_per_op"]["value"] == 0


def test_same_work_counts_repeat_across_seeds():
    runs = [result_of(run_bench("preamble_design", 1, seed=s))["metrics"] for s in (4, 5)]
    for name in spans.SAME_WORK:
        assert runs[0][name]["value"] == runs[1][name]["value"], name


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())

"""BENCHMARK.json, the metric catalog and the printed result agree."""

import json
import shutil
import subprocess
import sys

import pytest

import catalog
import hostspeed
import workloads
from conftest import ROOT
from run import tail_percentile

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_names_every_catalog_metric_with_its_unit():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == catalog.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == catalog.PER_LAYER
    assert [w["name"] for w in SPEC["workloads"]] == list(catalog.WORKLOADS)
    assert tuple(workloads.WORKLOADS) == catalog.WORKLOADS
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert max(bounds.values()) <= 0.25
    assert bounds["setup_s"] == max(bounds.values())


def test_tail_percentile_leaves_ten_samples_beyond():
    for n in (11, 12, 21, 42, 804):
        samples = list(range(n))
        pct, value = tail_percentile(samples)
        assert sum(1 for x in samples if x > value) >= 10
        assert pct == 100 * (n - 10) // n
    assert tail_percentile([3.0, 1.0]) == (100, 3.0)


def _run(cwd, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "hard-sweep", "--seed", "0",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metrics_are_the_ones_benchmark_json_names(trace):
    proc = _run(ROOT, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    expected = catalog.PER_LAYER if trace else catalog.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(tmp_path, 0)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_host_speed_scaling_uses_the_kernel_timings_around_each_solve():
    ref = hostspeed.REFERENCE_S
    assert hostspeed.scales([ref, ref, 3 * ref]) == [1.0, 0.5]
    outcomes = [workloads.Outcome(0.1, True, []), workloads.Outcome(0.3, True, []),
                workloads.Outcome(0.2, True, ["broken"]), workloads.Outcome(0.2, True, [])]
    batch = workloads.Batch(outcomes, [1.0, 0.5, 2.0, 2.0], rounds=2)
    assert batch.wall == pytest.approx(0.8)
    assert batch.scaled_wall == pytest.approx(1.05)
    assert batch.scaled_round_rates() == pytest.approx([2 / 0.25, 1 / 0.8])

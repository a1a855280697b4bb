"""Smoke test of the benchmark itself at a tiny length; not a timing gate.

    python -m pytest bench/test_smoke.py

Checks that every workload runs with no failed op and prints each metric it
owns by name with its unit, that the traced run reports every per-layer
metric with call counts that repeat exactly at one seed, and that the
benchmark refuses to run without the program's sources.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# metrics of the human-readable report, by workload: (name, unit)
NAMED = {
    "train-identity": [("step_ms.p50", "ms"), ("step_ms.p90", "ms")],
    "train-control": [("step_ms.p50", "ms"), ("step_ms.p90", "ms")],
    "sample-sweep": [("sample_ms.p50", "ms"), ("sample_ms.p90", "ms")],
    "cli-walkthrough": [("walkthrough_s", "s")],
}
COMMON = [("setup_s", "s"), ("peak_rss_mb", "MB")]


def run(workload, trace, cwd=ROOT, seed=1):
    cmd = [sys.executable, str(Path(cwd) / "bench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    return result


def test_workloads_match_the_spec():
    assert sorted(NAMED) == sorted(w["name"] for w in SPEC["workloads"])


@pytest.mark.parametrize("workload", sorted(NAMED))
def test_untraced_run_prints_every_metric(workload):
    proc = run(workload, 0)
    result = result_of(proc)
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0
    for name, unit in COMMON + NAMED[workload]:
        assert re.search(rf"^{re.escape(name)} += [0-9.]+ {unit} ", proc.stdout, re.M), name
    assert re.search(r"\(.*n=\d+, one per ", proc.stdout)
    assert re.search(r"^ops_failed_ratio += 0 \(0 failed / \d+ attempted\)", proc.stdout, re.M)
    assert re.search(r"^machine: .*OPENBLAS_NUM_THREADS=1", proc.stdout, re.M)


def test_traced_run_reports_every_layer_and_repeats_counts():
    first, second = (result_of(run("train-identity", 1)) for _ in range(2))
    for m in SPEC["per_layer"]:
        assert first["metrics"][m["name"]]["unit"] == m["unit"], m["name"]
    calls = [name for name in first["metrics"] if name.endswith(".calls")]
    assert {n: first["metrics"][n]["value"] for n in calls} == \
        {n: second["metrics"][n]["value"] for n in calls}
    assert first["metrics"]["attention.attention_backward.calls"]["value"] > 0
    assert 0 < first["metrics"]["training.useful_grad_ratio"]["value"] < 1


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("sample-sweep", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

"""Smoke test: the whole benchmark at its tiny sizes, so that it cannot rot.

Each case runs ``run.py`` as BENCHMARK.json's command does and checks the
result line against BENCHMARK.json. There is no timing gate.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCHMARK = json.load(_fh)
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def run_benchmark(root, workload, trace):
    return subprocess.run(
        [
            sys.executable, os.path.join(root, "perfbench", "run.py"),
            "--workload", workload, "--seed", "0", "--seconds", "1",
            "--trace", str(trace), "--size", "tiny",
        ],
        cwd=root, capture_output=True, text=True, timeout=300,
    )


# the traced verify run is left out: the diagnostics suite has no size knob
# below its 4096-step reference sweep, and traced it takes tens of seconds
@pytest.mark.parametrize(
    "workload,trace",
    [(w, t) for w in WORKLOADS for t in (0, 1) if (w, t) != ("verify", 1)],
)
def test_run_reports_every_metric_and_passes_its_gate(workload, trace):
    proc = run_benchmark(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"], proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 2
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in declared)
    for metric in declared:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_benchmark(str(tmp_path), "cloud", 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

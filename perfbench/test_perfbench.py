"""The benchmark's own checks (about two minutes):

    python3 -m pytest -q perfbench/test_perfbench.py
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (pins BLAS threads before numpy loads)
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def rc():
    # run_experiment writes to the workload's output_dir, relative to the root
    os.chdir(run.ROOT)
    return run.import_package()


def test_benchmark_json_names_the_workloads():
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == \
        [(w.name, w.why) for w in WORKLOADS.values()]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_exact_counts_repeat_across_traced_runs(rc, name):
    import tracer as tracing

    workload = WORKLOADS[name]
    tables = []
    for run_id in (1, 2):
        tracer = tracing.Tracer(run_id)
        result = run.one_run(rc, workload, DEFAULT_SEED, tracer)
        assert result["ok"]
        # tracing must not change what the run computes
        assert result["digest"] == workload.reference_digest
        tables.append(tracer.metrics())
    first, second = tables
    for count in tracing.EXACT_COUNTS:
        assert first[count] > 0, count
        assert first[count] == second[count], count
    layer_names = {m["name"] for m in SPEC["per_layer"]}
    assert layer_names - {"trace.run_s", "trace.overhead_s"} <= set(first)


def test_refuses_a_directory_without_the_package(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "flair-desk",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

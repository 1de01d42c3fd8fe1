"""`tools/bench_pairs.py` refuses a benchmark run that reads as incorrect.

`subprocess.run` is stubbed with `perfbench/run.py`'s output lines, so no
benchmark starts.
"""
import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_pairs",
                                               ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


@pytest.mark.parametrize("correct, failed", [(False, 0), (True, 1)],
                         ids=["incorrect", "failed-run"])
def test_bench_pairs_stops_at_an_incorrect_run(tmp_path, monkeypatch, correct, failed):
    parent = tmp_path / "parent"
    (parent / "perfbench").mkdir(parents=True)
    (parent / "perfbench" / "run.py").write_text("")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = {m["name"]: {"value": 1.0, "unit": m["unit"]} for m in spec["end_to_end"]}
    result = {"correct": correct, "attempted": 3, "failed": failed, "metrics": metrics}
    stdout = "\n".join(json.dumps(line) for line in ({"machine": {}}, {}, result))
    calls = []

    def fake_run(cmd, **kwargs):
        calls.append(kwargs["cwd"])
        return subprocess.CompletedProcess(cmd, 0, stdout=stdout + "\n", stderr="")
    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(["--parent", str(parent), "--workload", "der-replay",
                          "--seeds", "3", "--pairs", "2", "--tag", "never-written"])
    message = str(exc.value)
    assert f"{parent.resolve()}: der-replay seed 3 pair 1" in message
    assert f"correct={correct} and failed={failed}" in message
    assert len(calls) == 2   # both sides of pair 1 ran, pair 2 never started
    assert not (ROOT / "BENCH_never-written.json").exists()

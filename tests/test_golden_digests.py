"""Byte-identity gate: each method's report, checkpoints and CSVs against a golden file.

`golden_digests.txt` holds the output of `tools/report_digests.py` at the
seeds its `# --seed N` lines name. A change that moves a report, a
checkpoint or a CSV on purpose regenerates the file (keeping its header and
seed lines), so the moved digests show up in that change's diff.
"""
import difflib
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).with_name("golden_digests.txt")


def golden_runs() -> tuple[str, dict[str, list[str]]]:
    """The golden file's header line and its digest lines per seed."""
    header, *lines = GOLDEN.read_text(encoding="utf-8").splitlines()
    runs: dict[str, list[str]] = {}
    for line in lines:
        if line.startswith("# --seed "):
            block = runs.setdefault(line.removeprefix("# --seed "), [])
        else:
            block.append(line)
    return header, runs


def test_report_digests_match_golden_file():
    header, runs = golden_runs()
    assert runs and all(runs.values())
    # conftest pins one BLAS thread per process, so the seeds run side by side
    procs = {seed: subprocess.Popen(
        [sys.executable, str(ROOT / "tools" / "report_digests.py"), "--seed", seed],
        stdout=subprocess.PIPE, text=True) for seed in runs}
    diff = []
    try:
        for seed, proc in procs.items():
            out, _ = proc.communicate(timeout=600)
            assert proc.returncode == 0, f"report_digests.py --seed {seed} failed"
            diff += difflib.unified_diff(runs[seed], out.splitlines(), lineterm="",
                                         fromfile=f"golden --seed {seed}",
                                         tofile=f"now --seed {seed}")
    finally:
        for proc in procs.values():
            proc.kill()
    assert not diff, (f"{header}\nthis run: numpy {np.__version__}\n"
                      + "\n".join(diff))

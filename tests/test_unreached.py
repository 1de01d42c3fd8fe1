"""`tools/unreached.py` lists only the functions that no run or CLI command enters.

The three names below are the ones the benchmark's tracer still resolves,
so they stay until it stops: `autodiff.matmul` and `forward_graph` build the
reference graph the tests compare against, and `hessian_input` is the
per-example Hessian that `fd_probes` and `fd_hessian` batch in the
flatness stage. Any other function that only tests reach fails here.
"""
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

EXPECTED = ["autodiff.matmul", "network.Network.forward_graph", "network.hessian_input"]


def test_only_the_traced_names_go_unreached():
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "unreached.py")],
                          capture_output=True, text=True, timeout=300, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == EXPECTED

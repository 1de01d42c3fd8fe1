"""Steadiness check: repeat the benchmark and compare spreads with the bounds.

    python3 perfbench/steady.py --workloads der-replay --seeds 1-5
    python3 perfbench/steady.py --seeds 1-10 --passes 2

Runs `perfbench/run.py --trace 0` once per (pass, workload, seed), one
process at a time, and prints per end-to-end metric the median, the
first and third quartiles and the spread (Q3 - Q1) / median, beside the
metric's bound from BENCHMARK.json. A spread above the bound is flagged
OVER; with two or more passes, so is a later pass whose median is worse
than the first pass's by more than the bound. setup_s is exempt from the
spread flag, as in the acceptance rule. Exits 1 when anything is flagged.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: "
                           f"{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> tuple[float, float, float, float]:
    """(median, Q1, Q3, spread) with quartiles as statistics.quantiles gives."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--passes", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)

    # results[workload][pass] = list of metric dicts, one per seed
    results: dict[str, list[list[dict]]] = {w: [] for w in args.workloads}
    incorrect = []
    for p in range(args.passes):
        for w in args.workloads:
            results[w].append([])
            for seed in seeds:
                out = run_once(w, seed, args.seconds)
                if not out["correct"]:
                    incorrect.append((w, seed))
                results[w][p].append(out["metrics"])
                print(f"pass {p + 1} {w} seed {seed}: run_s "
                      f"{out['metrics']['run_s']['value']:.3f}", file=sys.stderr)

    flagged = [f"{w} seed {s}: result not correct" for w, s in incorrect]
    summary = {}
    print(f"{'workload':14s} {'metric':22s} {'pass':>4s} {'median':>12s} "
          f"{'q1':>12s} {'q3':>12s} {'spread':>7s} {'bound':>6s}")
    for w in args.workloads:
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            first = None
            for p, runs in enumerate(results[w]):
                med, q1, q3, spread = summarize([r[name]["value"] for r in runs])
                notes = []
                if name != "setup_s" and spread > bound:
                    notes.append("OVER: spread")
                if first is None:
                    first = med
                else:
                    worse = (med - first) / first if m["better"] == "lower" \
                        else (first - med) / first
                    if worse > bound:
                        notes.append(f"OVER: median {worse:+.3f} vs pass 1")
                flagged += [f"{w} {name} pass {p + 1}: {n}" for n in notes]
                summary.setdefault(w, {}).setdefault(name, []).append(
                    {"median": med, "q1": q1, "q3": q3, "spread": spread,
                     "bound": bound})
                print(f"{w:14s} {name:22s} {p + 1:4d} {med:12.6g} {q1:12.6g} "
                      f"{q3:12.6g} {spread:7.3f} {bound:6.2f} {' '.join(notes)}")
    out_path = ROOT / ".perfbench_runs" / "steady.json"
    out_path.parent.mkdir(exist_ok=True)
    out_path.write_text(json.dumps({"seeds": seeds, "runs": results,
                                    "summary": summary, "flagged": flagged}, indent=2) + "\n",
                        encoding="utf-8")
    for line in flagged:
        print(line)
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())

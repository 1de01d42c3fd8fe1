"""Compare this checkout with a parent checkout over alternating benchmark runs.

    python3 tools/bench_pairs.py --parent ../parent --workload flair-desk \\
        --seeds 1 3 --pairs 10 --tag mytag

For each workload and seed, runs `perfbench/run.py --trace 0` N times in
each checkout, alternating between them (the side that goes first
alternates too, so neither always runs on a cooler or warmer machine).
Every invocation is a fresh process. For each end-to-end metric of
`BENCHMARK.json` it prints each side's median and quartiles and the
number of pairs in which this checkout did better, and it writes every
run and the summary to `BENCH_<tag>.json` in this checkout's root.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def bench_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One `perfbench/run.py` invocation in `checkout`; its result record."""
    cmd = [sys.executable, str(checkout / "perfbench" / "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=checkout)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    return {"machine": json.loads(lines[0])["machine"], "correct": result["correct"],
            "failed": result["failed"], "attempted": result["attempted"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(pairs: list[dict], spec: list[dict]) -> dict:
    """Per metric: each side's median and quartiles, and this side's wins."""
    out = {}
    for m in spec:
        name = m["name"]
        parent = [p["parent"]["metrics"][name] for p in pairs]
        change = [p["change"]["metrics"][name] for p in pairs]
        sign = -1.0 if m["better"] == "lower" else 1.0
        out[name] = {"unit": m["unit"], "better": m["better"],
                     "parent": spread(parent), "change": spread(change),
                     "wins": sum(sign * (c - p) > 0 for p, c in zip(parent, change)),
                     "pairs": len(pairs)}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path,
                        help="checkout of the commit to compare against")
    parser.add_argument("--workload", action="append", required=True,
                        help="benchmark workload; repeat for several")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float,
                        help="measuring time of each invocation; default: "
                             "run_seconds in BENCHMARK.json")
    parser.add_argument("--tag", required=True, help="writes BENCH_<tag>.json")
    args = parser.parse_args(argv)
    parent = args.parent.resolve()
    if not (parent / "perfbench" / "run.py").is_file():
        raise SystemExit(f"no perfbench/run.py under {parent}")
    if args.pairs < 2:
        raise SystemExit("--pairs must be at least 2")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sides = {"parent": parent, "change": ROOT}
    seconds = args.seconds or spec["run_seconds"]

    record = {"seconds": seconds, "comparisons": []}
    for workload in args.workload:
        for seed in args.seeds:
            pairs = []
            for i in range(args.pairs):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                pair = {side: bench_once(sides[side], workload, seed, seconds)
                        for side in order}
                pairs.append(pair)
                print(f"{workload} seed {seed} pair {i + 1}: " + ", ".join(
                    f"{side} {pair[side]['metrics']['run_cpu_s']:.3f}"
                    for side in sides), "s cpu", flush=True)
            summary = summarize(pairs, spec["end_to_end"])
            record["comparisons"].append({"workload": workload, "seed": seed,
                                          "summary": summary, "pairs": pairs})
            print(f"{workload} seed {seed}: median [q1, q3], wins of {args.pairs}")
            for name, s in summary.items():
                p, c = s["parent"], s["change"]
                print(f"  {name:22s} parent {p['median']:.4g} [{p['q1']:.4g}, "
                      f"{p['q3']:.4g}]  change {c['median']:.4g} [{c['q1']:.4g}, "
                      f"{c['q3']:.4g}]  wins {s['wins']}")
    out = ROOT / f"BENCH_{args.tag}.json"
    out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

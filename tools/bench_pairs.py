"""Compare this checkout with a parent checkout over alternating benchmark runs.

    python3 tools/bench_pairs.py --parent ../parent --workload flair-desk \\
        --seeds 1 3 --pairs 10 --tag mytag

For each workload and seed, runs `perfbench/run.py --trace 0` N times in
each checkout, alternating between them (the side that goes first
alternates too, so neither always runs on a cooler or warmer machine).
Every invocation is a fresh process. For each end-to-end metric of
`BENCHMARK.json` it prints each side's median and quartiles, the
number of pairs in which this checkout did better, and two verdicts read
against that file's bounds (it never edits them): `gain` when this
checkout won at least 9 pairs in 10 and its median is better by more
than the parent's interquartile range, and `regression` when its median
is worse than the parent's by more than the metric's bound, a fraction
of the parent's median. It writes every run and the summary to
`BENCH_<tag>.json` in this checkout's root. It
stops at the first run that reads `"correct": false` or a nonzero
`failed`, naming its checkout, workload, seed and pair.

`--setup-pairs N` also times set-up alone, the benchmark's `setup_s`: N
alternating pairs of calls to each checkout's own `perfbench/run.py`
`time_setup`, which imports robustcl and parses the workload's config in
7 fresh processes. It prints and records each side's median and quartiles
over all of its samples. `--pairs 0` skips the full runs:

    python3 tools/bench_pairs.py --parent ../parent --workload der-replay \\
        --pairs 0 --setup-pairs 10 --tag mytag
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# run with a checkout as the working directory: that checkout's set-up timer
SETUP_CHILD = """
import json, sys
sys.path.insert(0, "perfbench")
import run, workloads
print(json.dumps(run.time_setup(workloads.WORKLOADS[sys.argv[1]].config(int(sys.argv[2])))))
"""


def pair_order(i: int) -> tuple[str, str]:
    """The side that runs first alternates from pair to pair."""
    return ("parent", "change") if i % 2 == 0 else ("change", "parent")


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


def setup_once(checkout: Path, workload: str, seed: int) -> list[float]:
    """One `time_setup` call in `checkout`: 7 fresh-process set-up timings."""
    cmd = [sys.executable, "-c", SETUP_CHILD, workload, str(seed)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=checkout)
    if proc.returncode != 0:
        raise SystemExit(f"set-up timing in {checkout} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def compare_setup(sides: dict, workload: str, seed: int, n: int) -> dict:
    """Each side's set-up timings over n alternating pairs, with their spread."""
    samples = {side: [] for side in sides}
    for i in range(n):
        for side in pair_order(i):
            samples[side] += setup_once(sides[side], workload, seed)
    summary = {side: spread(values) for side, values in samples.items()}
    print(f"{workload} seed {seed} set-up s over {n} pairs: " + "  ".join(
        f"{side} {s['median']:.4f} [{s['q1']:.4f}, {s['q3']:.4f}]"
        for side, s in summary.items()), flush=True)
    return {"workload": workload, "seed": seed, "pairs": n, "summary": summary,
            "samples": samples}


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(pairs: list[dict], spec: list[dict]) -> dict:
    """Per metric: each side's median and quartiles, this side's wins (ties
    count for neither side), and the `gain` and `regression` verdicts."""
    out = {}
    for m in spec:
        name = m["name"]
        parent = [p["parent"]["metrics"][name] for p in pairs]
        change = [p["change"]["metrics"][name] for p in pairs]
        sign = -1.0 if m["better"] == "lower" else 1.0
        wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
        p, c = spread(parent), spread(change)
        better_by = sign * (c["median"] - p["median"])
        out[name] = {"unit": m["unit"], "better": m["better"], "bound": m["bound"],
                     "parent": p, "change": c, "wins": wins, "pairs": len(pairs),
                     "gain": 10 * wins >= 9 * len(pairs) and better_by > p["q3"] - p["q1"],
                     "regression": -better_by > m["bound"] * abs(p["median"])}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path,
                        help="checkout of the commit to compare against")
    parser.add_argument("--workload", action="append", required=True,
                        help="benchmark workload; repeat for several")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1])
    parser.add_argument("--pairs", type=int, default=10,
                        help="full-run pairs per workload and seed; 0 skips them")
    parser.add_argument("--setup-pairs", type=int, default=0,
                        help="set-up timing pairs per workload and seed (default 0)")
    parser.add_argument("--seconds", type=float,
                        help="measuring time of each invocation; default: "
                             "run_seconds in BENCHMARK.json")
    parser.add_argument("--tag", required=True, help="writes BENCH_<tag>.json")
    args = parser.parse_args(argv)
    parent = args.parent.resolve()
    if not (parent / "perfbench" / "run.py").is_file():
        raise SystemExit(f"no perfbench/run.py under {parent}")
    if args.pairs == 1 or args.pairs < 0 or args.setup_pairs < 0:
        raise SystemExit("--pairs must be 0 or at least 2, --setup-pairs at least 0")
    if args.pairs == args.setup_pairs == 0:
        raise SystemExit("nothing to run: --pairs and --setup-pairs are both 0")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sides = {"parent": parent, "change": ROOT}
    seconds = args.seconds or spec["run_seconds"]

    record = {"seconds": seconds, "comparisons": [], "setup": []}
    for workload in args.workload:
        for seed in args.seeds:
            if args.setup_pairs:
                record["setup"].append(compare_setup(sides, workload, seed,
                                                     args.setup_pairs))
            if not args.pairs:
                continue
            pairs = []
            for i in range(args.pairs):
                pair = {side: bench_once(sides[side], workload, seed, seconds)
                        for side in pair_order(i)}
                for side, run in pair.items():
                    if not run["correct"] or run["failed"]:
                        raise SystemExit(
                            f"{sides[side]}: {workload} seed {seed} pair {i + 1} read "
                            f"correct={run['correct']} and failed={run['failed']} of "
                            f"{run['attempted']}; its timings are not comparable")
                pairs.append(pair)
                print(f"{workload} seed {seed} pair {i + 1}: " + ", ".join(
                    f"{side} {pair[side]['metrics']['run_cpu_s']:.3f}"
                    for side in sides), "s cpu", flush=True)
            summary = summarize(pairs, spec["end_to_end"])
            record["comparisons"].append({"workload": workload, "seed": seed,
                                          "summary": summary, "pairs": pairs})
            print(f"{workload} seed {seed}: median [q1, q3], wins of {args.pairs}, "
                  "verdicts")
            for name, s in summary.items():
                p, c = s["parent"], s["change"]
                print(f"  {name:22s} parent {p['median']:.4g} [{p['q1']:.4g}, "
                      f"{p['q3']:.4g}]  change {c['median']:.4g} [{c['q1']:.4g}, "
                      f"{c['q3']:.4g}]  wins {s['wins']}  "
                      f"gain {'yes' if s['gain'] else 'no'}  "
                      f"regression {'YES' if s['regression'] else 'no'} "
                      f"(bound {s['bound']:g})")
    out = ROOT / f"BENCH_{args.tag}.json"
    out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

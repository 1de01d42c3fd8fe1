"""robustcl benchmark: whole `run_experiment` calls on fixed workloads.

    python3 perfbench/run.py --workload flair-desk --seed 1 --seconds 40 --trace 0

Run from anywhere; it works in the checkout that holds this file and
imports robustcl from that checkout's `src/`. One experiment runs at a
time in this process, closed loop, with BLAS pinned to one thread.

--trace 0 times set-up (import + config parse, in fresh processes) and
then runs the workload back to back for --seconds, reporting medians of
the end-to-end metrics. --trace 1 alternates untraced and traced runs
and reports the per-module split (see perfbench/MODULES.md).

Every run's report.json, with wall_clock_sec stripped, is hashed. At the
default seed the hash must equal the workload's pinned digest; at any
other seed all runs of the invocation must agree. Machine facts go to
stdout before the result; the last stdout line is the JSON result.
"""
from __future__ import annotations

import os

# before numpy is imported anywhere: single-threaded BLAS keeps
# reductions bit-reproducible and the load to one core
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

import argparse
import gc
import hashlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from workloads import DEFAULT_SEED, RUNS_DIR, WORKLOADS, train_examples  # noqa: E402

SETUP_REPEATS = 7
MIN_RUNS = 2          # an unpinned seed needs two runs to compare digests
HARD_LIMIT_S = 140.0  # never start a run that would end past this

SETUP_CHILD = """
import json, sys, time
t0 = time.perf_counter()
import robustcl
robustcl.config_from_dict(json.loads(sys.argv[1]))
print(time.perf_counter() - t0)
"""


class BenchError(Exception):
    """The benchmark cannot run here (missing package, bad arguments)."""


def import_package():
    """Import robustcl from this checkout's src/, nowhere else."""
    if not (SRC / "robustcl" / "__init__.py").is_file():
        raise BenchError(f"no robustcl package under {SRC}")
    sys.path.insert(0, str(SRC))
    import robustcl
    if Path(robustcl.__file__).resolve().parent != (SRC / "robustcl").resolve():
        raise BenchError(f"robustcl imported from {robustcl.__file__}, not {SRC}")
    return robustcl


def machine_facts() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "loadavg_at_start": list(os.getloadavg()),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
    }


def report_digest(out_dir: Path) -> tuple[str, dict]:
    report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
    report.pop("wall_clock_sec")
    text = json.dumps(report, indent=2)
    return hashlib.sha256(text.encode()).hexdigest(), report


def time_setup(cfg: dict) -> list[float]:
    """Seconds to import robustcl and parse `cfg`, each in a fresh process."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-c", SETUP_CHILD, json.dumps(cfg)],
                              env=env, capture_output=True, text=True, timeout=60,
                              cwd=ROOT)
        if proc.returncode != 0:
            raise BenchError(f"set-up child failed: {proc.stderr.strip()}")
        times.append(float(proc.stdout))
    return times


def one_run(rc, workload, seed: int, tracer=None) -> dict:
    """One run_experiment call; returns its timings, digest and outcome."""
    cfg_dict = workload.config(seed)
    out_dir = ROOT / cfg_dict["output_dir"]
    shutil.rmtree(out_dir, ignore_errors=True)
    cfg = rc.config_from_dict(cfg_dict)
    gc.collect()
    if tracer is not None:
        tracer.install()
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        rc.runner.run_experiment(cfg)
        run_s, cpu_s = time.perf_counter() - t0, time.process_time() - c0
        digest, report = report_digest(out_dir)
    except Exception as exc:  # a failed run is counted, not fatal
        print(f"run failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return {"ok": False, "run_s": time.perf_counter() - t0}
    finally:
        if tracer is not None:
            tracer.restore()
    return {"ok": True, "run_s": run_s, "cpu_s": cpu_s, "digest": digest,
            "examples": train_examples(workload, cfg_dict, report)}


def measure(rc, workload, seed: int, seconds: float, make_tracer=None) -> list[dict]:
    """Closed loop of runs for `seconds`, at least MIN_RUNS of them.

    With `make_tracer`, runs alternate untraced and traced.
    """
    runs: list[dict] = []
    t_start = time.perf_counter()
    while True:
        traced = make_tracer is not None and len(runs) % 2 == 1
        tracer = make_tracer(len(runs)) if traced else None
        run = one_run(rc, workload, seed, tracer)
        run["tracer"] = tracer
        runs.append(run)
        elapsed = time.perf_counter() - t_start
        longest = max(r["run_s"] for r in runs)
        if elapsed + longest > HARD_LIMIT_S:
            break
        if len(runs) >= MIN_RUNS and elapsed + longest > seconds:
            break
    return runs


def grade(workload, seed: int, runs: list[dict]) -> tuple[int, list[str]]:
    """(failed runs, problems). A run fails when it raised or its report
    digest is not the pinned one (default seed) or the one most runs of
    this invocation agree on (any other seed)."""
    digests = [r["digest"] for r in runs if r["ok"]]
    if seed == DEFAULT_SEED:
        expected = workload.reference_digest
    else:
        expected = statistics.mode(digests) if len(digests) >= MIN_RUNS else None
    failed = sum(1 for r in runs if not r["ok"] or r["digest"] != expected)
    problems = []
    if expected is None:
        problems.append(f"{len(digests)} completed runs are too few to compare "
                        "report digests")
    elif failed:
        problems.append(f"{failed} of {len(runs)} runs raised or wrote a report "
                        f"whose digest is not {expected}")
    return failed, problems


def end_to_end(rc, workload, seed: int, seconds: float):
    setup = time_setup(workload.config(seed))
    runs = measure(rc, workload, seed, seconds)
    done = [r for r in runs if r["ok"]]
    med = statistics.median
    values = {
        "setup_s": med(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if done:
        values["run_s"] = med(r["run_s"] for r in done)
        values["run_cpu_s"] = med(r["cpu_s"] for r in done)
        values["train_examples_per_s"] = med(r["examples"] / r["run_s"] for r in done)
    info = {"runs_s": [r["run_s"] for r in runs], "setup_s": setup,
            "train_examples_per_run": done[0]["examples"] if done else None}
    return values, runs, info, []


def per_layer(rc, workload, seed: int, seconds: float):
    import tracer as tracing

    runs = measure(rc, workload, seed, seconds, make_tracer=tracing.Tracer)
    traced = [r for r in runs if r["tracer"] is not None and r["ok"]]
    plain = [r for r in runs if r["tracer"] is None and r["ok"]]
    tables = [r["tracer"].metrics() for r in traced]
    problems = [f"traced runs disagree on {name}: {[t[name] for t in tables]}"
                for name in tracing.EXACT_COUNTS
                if len({t[name] for t in tables}) > 1]
    values = {name: statistics.median(t[name] for t in tables)
              for name in (tables[0] if tables else ())}
    if traced and plain:
        values["trace.run_s"] = statistics.median(r["run_s"] for r in traced)
        values["trace.overhead_s"] = (values["trace.run_s"]
                                      - statistics.median(r["run_s"] for r in plain))
    spans_path = ROOT / RUNS_DIR / f"spans-{workload.name}-seed{seed}.jsonl"
    with open(spans_path, "w", encoding="utf-8") as fh:
        for r in traced:
            r["tracer"].write_spans(fh)
    info = {"runs_s": [r["run_s"] for r in runs],
            "traced": [r["tracer"] is not None for r in runs],
            "spans_file": str(spans_path.relative_to(ROOT))}
    return values, runs, info, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        help="measuring time; default: run_seconds in BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        rc = import_package()
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (BenchError, ImportError, OSError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    (ROOT / RUNS_DIR).mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload]
    facts = machine_facts()
    print(json.dumps({"machine": facts}))

    collect = per_layer if args.trace else end_to_end
    seconds = args.seconds or spec["run_seconds"]
    values, runs, info, problems = collect(rc, workload, args.seed, seconds)
    failed, graded = grade(workload, args.seed, runs)
    problems += graded
    values["ok_frac"] = 1.0 - failed / len(runs)
    metrics = {}
    for m in spec["per_layer" if args.trace else "end_to_end"]:
        if m["name"] in values:
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        else:
            problems.append(f"metric {m['name']} was not measured")
    for line in problems:
        print(f"perfbench: {line}", file=sys.stderr)

    result = {"correct": not problems, "attempted": len(runs), "failed": failed,
              "metrics": metrics}
    # the record keeps every measured value, also those BENCHMARK.json omits
    record = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
              "machine": facts, "info": info, "values": values,
              "problems": problems, **result}
    name = f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json"
    (ROOT / RUNS_DIR / name).write_text(json.dumps(record, indent=2) + "\n",
                                        encoding="utf-8")
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

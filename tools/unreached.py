"""Print every robustcl function that no run and no CLI command enters.

Traces, under `sys.setprofile`, every run of `tools/report_digests.py` at
seed 1 and one call of each CLI command, each with seed 1: `run` with an
alpha grid on the digest runs' tiny config, read from a CSV file, then
`eval`, `landscape` and `flatness` on that run's checkpoints. It then
prints, one per line as `module.qualname`, every function and method
defined in a robustcl module that none of them entered. Code that only
tests reach shows up here:

    python3 tools/unreached.py

Takes a few seconds.
"""
from __future__ import annotations

import contextlib
import csv
import importlib
import inspect
import io
import json
import os
import pkgutil
import sys
import tempfile
from pathlib import Path

import report_digests

SEED = 1


def defined_functions(rc) -> dict:
    """code object -> `module.qualname` of each function and method written in
    a robustcl module (not imported into it, not generated by a decorator)."""
    out = {}
    for info in pkgutil.iter_modules(rc.__path__):
        module = importlib.import_module(f"robustcl.{info.name}")
        owners = [module] + [obj for obj in vars(module).values()
                             if inspect.isclass(obj) and obj.__module__ == module.__name__]
        for owner in owners:
            for obj in vars(owner).values():
                if isinstance(obj, (staticmethod, classmethod)):
                    obj = obj.__func__
                parts = [obj.fget, obj.fset] if isinstance(obj, property) else [obj]
                for fn in parts:
                    if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                            and fn.__code__.co_filename == module.__file__):
                        out[fn.__code__] = f"{info.name}.{fn.__qualname__}"
    return out


def write_csv(ds, path: Path) -> None:
    """`ds` in the `label,f0,f1,...` format that `load_csv_dataset` reads."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["label"] + [f"f{i}" for i in range(ds.input_dim)])
        writer.writerows([int(y)] + [repr(float(v)) for v in row]
                         for y, row in zip(ds.labels, ds.inputs))


def cli_calls(rc) -> list[list[str]]:
    """Write the CLI's inputs into the working directory; its argument lists."""
    spec = report_digests.tiny_config("flair", "none", seed=SEED)
    data, tasks = spec["dataset"], spec["tasks"]
    # one pool serves as train and test set: only what runs matters here
    pool = rc.gen_gaussian_tasks(data["n_classes"], data["dim"], data["separation"],
                                 data["train_per_class"], seed=SEED)
    write_csv(pool, Path("pool.csv"))
    Path("tasks").mkdir()
    for t, task in enumerate(rc.split_dataset(rc.load_csv_dataset("pool.csv"),
                                              tasks["n_tasks"], tasks["classes_per_task"],
                                              seed=SEED), 1):
        write_csv(task, Path("tasks", f"task_{t:03d}.csv"))
    spec.update(dataset={"kind": "csv", "train": "pool.csv", "test": "pool.csv"},
                grid={"alpha": [0.5, 1.0]})
    Path("cli.json").write_text(json.dumps(spec), encoding="utf-8")
    ckpts = f"{rc.expand_grid(rc.config_from_dict(spec))[0][1].output_dir}/checkpoints"
    final = f"{ckpts}/task_{tasks['n_tasks']:03d}"
    seed = ["--seed", str(SEED)]
    return [["run", "--config", "cli.json"],
            ["eval", "--checkpoint", final, "--dataset", "pool.csv", *seed],
            ["landscape", "--checkpoint", final, "--dataset", "pool.csv", "--index", "0",
             "--extent", "0.1", "--n", "3", "--out", "grid.csv", *seed],
            ["flatness", "--checkpoints", ckpts, "--datasets", "tasks",
             "--subsample", "4", *seed]]


def main() -> int:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    entered = set()

    def hook(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    sys.setprofile(hook)  # calls at import time (the config schema's) count too
    rc = report_digests.import_robustcl(str(report_digests.DEFAULT_SRC))
    from robustcl.cli import main as cli_main
    functions = defined_functions(rc)
    sys.setprofile(None)
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        calls = cli_calls(rc)
        sys.setprofile(hook)
        try:
            for _, cfg in report_digests.all_runs(rc, SEED):
                rc.run_experiment(rc.config_from_dict(cfg))
            for argv in calls:
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli_main(argv)
                if code != 0:
                    raise SystemExit(f"robustcl {' '.join(argv)} exited {code}")
        finally:
            sys.setprofile(None)
    for name in sorted(name for code, name in functions.items() if code not in entered):
        print(name)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Print every robustcl function, or line, that no run and no CLI command reaches.

Traces every run of `tools/report_digests.py` at seed 1 and one call of
each CLI command, each with seed 1: `run` with an alpha grid on the digest
runs' tiny config, read from a CSV file, then `eval`, `landscape` and
`flatness` on that run's checkpoints. Importing robustcl is traced too.
By default it traces calls under `sys.setprofile` and prints, one per
line as `module.qualname`, every function and method defined in a
robustcl module that none of them entered. Code that only tests reach
shows up here:

    python3 tools/unreached.py            # takes a few seconds

`--lines` traces lines under `sys.settrace` instead and prints
`module.py:LINE source` for each executable line that none of them runs,
leaving out lines inside a `raise` statement or an `except` body:

    python3 tools/unreached.py --lines    # a few seconds more
"""
from __future__ import annotations

import argparse
import ast
import contextlib
import csv
import dis
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


def executable_lines(path: Path) -> dict[int, str]:
    """line number -> stripped source of each line of `path` that starts some
    bytecode, leaving out lines inside a `raise` statement or an `except` body."""
    source = path.read_text(encoding="utf-8")
    starts, codes = set(), [compile(source, str(path), "exec")]
    while codes:
        code = codes.pop()
        starts.update(line for _, line in dis.findlinestarts(code) if line)
        codes.extend(c for c in code.co_consts if inspect.iscode(c))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Raise, ast.ExceptHandler)):
            starts.difference_update(range(node.lineno, node.end_lineno + 1))
    text = source.splitlines()
    return {line: text[line - 1].strip() for line in sorted(starts)}


def recorder(hits: set, lines: bool, package: str):
    """(start, stop) of a tracer that adds to `hits` the code object of each
    call or, with `lines`, the (file, line) of each line run in `package`."""
    if not lines:
        def profile(frame, event, arg):
            if event == "call":
                hits.add(frame.f_code)
        return lambda: sys.setprofile(profile), lambda: sys.setprofile(None)

    def local(frame, event, arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def trace(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(package) else None
    return lambda: sys.settrace(trace), lambda: sys.settrace(None)


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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--lines", action="store_true",
                        help="print each executable line nothing runs, not each function")
    args = parser.parse_args(argv)
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    package = str(report_digests.DEFAULT_SRC / "robustcl")
    hits = set()
    start, stop = recorder(hits, args.lines, package)

    start()  # what runs at import time (the config schema's calls) counts too
    rc = report_digests.import_robustcl(str(report_digests.DEFAULT_SRC))
    from robustcl.cli import main as cli_main
    functions = defined_functions(rc)
    stop()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        calls = cli_calls(rc)
        start()
        try:
            for _, cfg in report_digests.all_runs(rc, SEED):
                rc.run_experiment(rc.config_from_dict(cfg))
            for argv in calls:
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli_main(argv)
                if code != 0:
                    raise SystemExit(f"robustcl {' '.join(argv)} exited {code}")
        finally:
            stop()
    if args.lines:
        for path in sorted(Path(package).glob("*.py")):
            for line, text in executable_lines(path).items():
                if (str(path), line) not in hits:
                    print(f"{path.name}:{line} {text}")
        return 0
    for name in sorted(name for code, name in functions.items() if code not in hits):
        print(name)
    return 0


if __name__ == "__main__":
    sys.exit(main())

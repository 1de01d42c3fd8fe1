"""Print one digest line per method x buffer run of a tiny experiment.

Every registered method runs once with each buffer kind that
`make_method_config` accepts for it, on a tiny Gaussian config (6 classes
in 3 tasks, d = 8, hidden [16, 16], 2 epochs, 3 PGD steps, buffer
capacity 20, flatness subsample 4) with relu hidden layers.
A few non-flair methods also run with augmentation switched on,
pgd-at, trades and flair also run with each other hidden activation,
a few methods run with method settings that reach loss branches their
defaults skip, two herding runs use a capacity below the class count,
so the later tasks' quotas reach zero, pgd-at and flair also run
their robust accuracy over three restarts, at an evaluation radius (1/5)
where the restarts move the robust matrix, and flair also trains on the
`bce-newslice` attack objective. Each line reads
`method/buffer[+augment][@activation][:key=value] <report> <checkpoints> <csvs>`:
three sha256 prefixes, one of `report.json` with `wall_clock_sec` removed,
one of every file under `checkpoints/` (name, manifest and blob bytes, in
name order) and one of `ca_matrix.csv`, `ra_matrix.csv` and
`task_logs.csv` (name and bytes, in that order).

Run it against two source trees and diff the output to check that a
refactor leaves reports, checkpoints and CSVs byte-identical:

    python3 tools/report_digests.py > after.txt
    python3 tools/report_digests.py --src ../parent/src > before.txt
    diff before.txt after.txt

`--seed N` sets every run's experiment seed (default 1), so the same
comparison can run at seeds other than the one the runs were tuned on.

All runs write under one temporary directory with the same relative
`output_dir`, so the echoed config text is the same on both sides.
"""
from __future__ import annotations

import argparse
import hashlib
import os
import re
import sys
import tempfile
from pathlib import Path

DEFAULT_SRC = Path(__file__).resolve().parent.parent / "src"

BUFFER_KINDS = ("none", "herding", "reservoir", "reservoir-with-logits")
CAPACITY = 20        # buffer capacity of every run not listed in CAPACITIES
CSVS = ("ca_matrix.csv", "ra_matrix.csv", "task_logs.csv")   # in digest order

# (method, buffer kind) pairs that also run with augmentation on
AUGMENTED = [("pgd-at", "none"), ("trades", "herding"), ("i-rslad", "herding"),
             ("r-si", "none"), ("r-der++", "reservoir-with-logits"),
             ("r-icarl", "herding")]

# methods that also run with each non-relu hidden activation
ACTIVATION_METHODS = ("pgd-at", "trades", "flair")
OTHER_ACTIVATIONS = ("tanh", "softplus", "identity")

# (method, buffer kind, method settings): both i-rslad/i-adaad distillation
# branches, FLAIR's MSE flatness distillation, and r-der++'s replay CE alone
SETTINGS = [("i-rslad", "none", {"alpha": 0.5}), ("i-adaad", "none", {"alpha": 0.5}),
            ("flair", "none", {"fpd_metric": "mse"}),
            ("r-der++", "reservoir-with-logits", {"alpha": 0.0})]

# (method, buffer kind, buffer capacity): herding quotas below one per class
CAPACITIES = [("pgd-at", "herding", 3), ("r-icarl", "herding", 3)]

# (method, buffer kind, eval_attack keys): robust accuracy over several starts
EVAL_ATTACKS = [("pgd-at", "none", {"epsilon": "1/5", "n_restarts": 3}),
                ("flair", "none", {"epsilon": "1/5", "n_restarts": 3})]

# (method, buffer kind, training attack keys): objectives no method defaults to
TRAIN_ATTACKS = [("flair", "none", {"objective": "bce-newslice"})]


def tiny_config(method: str, buffer_kind: str, augment: bool = False,
                activation: str = "relu", seed: int = 1,
                settings: dict | None = None, capacity: int = CAPACITY,
                eval_attack: dict | None = None, attack: dict | None = None) -> dict:
    cfg = {
        "seed": seed,
        "output_dir": "run",
        "dataset": {"kind": "gaussian", "n_classes": 6, "dim": 8,
                    "separation": 8.0, "train_per_class": 30,
                    "test_per_class": 10},
        "tasks": {"n_tasks": 3, "classes_per_task": 2},
        "model": {"hidden": [16, 16], "activation": activation},
        "method": {"name": method, "buffer_kind": buffer_kind, **(settings or {})},
        "attack": {"epsilon": "1/20", "n_steps": 3, **(attack or {})},
        "eval_attack": {"n_steps": 3, **(eval_attack or {})},
        "training": {"epochs": 2, "lr": 0.1, "batch_size": 16},
        "buffer": {"capacity": 0 if buffer_kind == "none" else capacity},
        "flatness": {"subsample": 4},
    }
    if augment:
        cfg["augment"] = {"enabled": True}
    return cfg


def accepted_kinds(rc, name: str) -> list[str]:
    """The buffer kinds `make_method_config` accepts for method `name`."""
    attack = rc.AttackConfig(epsilon=0.05, step_size=0.0125, n_steps=3)
    kinds = []
    for kind in BUFFER_KINDS:
        try:
            rc.methods.make_method_config(name, attack, buffer_kind=kind)
        except rc.errors.ConfigurationError:
            continue
        kinds.append(kind)
    return kinds


def files_digest(paths) -> str:
    """sha256 prefix over each file's name and bytes, in the given order."""
    digest = hashlib.sha256()
    for path in paths:
        digest.update(path.name.encode("utf-8") + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def run_digests(rc, cfg: dict) -> tuple[str, str, str]:
    """(report digest, checkpoint digest, CSV digest) of one run."""
    rc.runner.run_experiment(rc.config_from_dict(cfg))
    out = Path(cfg["output_dir"])
    text = (out / "report.json").read_text(encoding="utf-8")
    text = re.sub(r'\n  "wall_clock_sec": [^\n]*', "", text)
    return (hashlib.sha256(text.encode("utf-8")).hexdigest()[:16],
            files_digest(sorted((out / "checkpoints").iterdir())),
            files_digest(out / name for name in CSVS))


def label(method: str, buffer_kind: str, augment: bool = False,
          activation: str = "relu", settings: dict | None = None,
          capacity: int = CAPACITY, eval_attack: dict | None = None,
          attack: dict | None = None) -> str:
    """`method/buffer[+augment][@activation][:key=value]` of one run."""
    return (f"{method}/{buffer_kind}" + ("+augment" if augment else "")
            + ("" if activation == "relu" else f"@{activation}")
            + "".join(f":{k}={v}" for k, v in (settings or {}).items())
            + ("" if capacity == CAPACITY else f":capacity={capacity}")
            + "".join(f":eval_{k}={v}" for k, v in (eval_attack or {}).items())
            + "".join(f":attack_{k}={v}" for k, v in (attack or {}).items()))


def all_runs(rc, seed: int) -> list[tuple[str, dict]]:
    """(label, config) of every run, in output order."""
    runs = [dict(method=name, buffer_kind=kind)
            for name in rc.methods.REGISTRY for kind in accepted_kinds(rc, name)]
    runs += [dict(method=name, buffer_kind=kind, augment=True) for name, kind in AUGMENTED]
    runs += [dict(method=name, buffer_kind="none", activation=act)
             for act in OTHER_ACTIVATIONS for name in ACTIVATION_METHODS]
    runs += [dict(method=name, buffer_kind=kind, settings=settings)
             for name, kind, settings in SETTINGS]
    runs += [dict(method=name, buffer_kind=kind, capacity=cap)
             for name, kind, cap in CAPACITIES]
    runs += [dict(method=name, buffer_kind=kind, eval_attack=keys)
             for name, kind, keys in EVAL_ATTACKS]
    runs += [dict(method=name, buffer_kind=kind, attack=keys)
             for name, kind, keys in TRAIN_ATTACKS]
    return [(label(**run), tiny_config(**run, seed=seed)) for run in runs]


def import_robustcl(src: str):
    """The robustcl package of source tree `src`, checked to come from there."""
    sys.path.insert(0, str(Path(src).resolve()))
    import robustcl as rc
    if Path(rc.__file__).resolve().parent != Path(src, "robustcl").resolve():
        raise SystemExit(f"robustcl imported from {rc.__file__}, not {src}")
    return rc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(DEFAULT_SRC),
                        help="source tree holding the robustcl package")
    parser.add_argument("--seed", type=int, default=1,
                        help="experiment seed of every run (default 1)")
    args = parser.parse_args(argv)
    rc = import_robustcl(args.src)
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        for name, cfg in all_runs(rc, args.seed):
            print(name, *run_digests(rc, cfg), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

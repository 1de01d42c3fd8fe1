"""Print one digest line per run of a tiny experiment.

Every registered method runs once with each buffer kind its `MethodInfo.buffers`
lists, on a tiny Gaussian config (6 classes in 3 tasks, d = 8, hidden
[16, 16], 2 epochs, 3 PGD steps, buffer capacity 20, flatness subsample 4)
with relu hidden layers. Each entry of `VARIANTS` then runs once more with
some config keys changed, to reach what the default runs skip. Each line
reads `method/buffer[tags] <report> <checkpoints> <csvs>`, where `label`
writes one tag per changed key, and holds three sha256 prefixes: one of
`report.json` with `wall_clock_sec` removed, one of every file under
`checkpoints/` (name, manifest and blob bytes, in name order) and one of
`ca_matrix.csv`, `ra_matrix.csv` and `task_logs.csv` (name and bytes, in
that order).

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

CSVS = ("ca_matrix.csv", "ra_matrix.csv", "task_logs.csv")   # in digest order

# (method, buffer kind, {config section: changed keys}) of each run beyond the
# default ones, in output order: augmentation on; each non-relu hidden
# activation; method settings that reach loss branches the defaults skip (both
# i-rslad/i-adaad distillation branches, FLAIR's MSE flatness distillation,
# r-der++'s replay CE alone); herding quotas below one per class; robust
# accuracy over three starts at a radius (1/5) where the restarts move the
# robust matrix; and a training attack objective no method defaults to
VARIANTS = [
    *[(name, kind, {"augment": {"enabled": True}}) for name, kind in [
        ("pgd-at", "none"), ("trades", "herding"), ("i-rslad", "herding"),
        ("r-si", "none"), ("r-der++", "reservoir-with-logits"), ("r-icarl", "herding")]],
    *[(name, "none", {"model": {"activation": act}})
      for act in ("tanh", "softplus", "identity") for name in ("pgd-at", "trades", "flair")],
    ("i-rslad", "none", {"method": {"alpha": 0.5}}),
    ("i-adaad", "none", {"method": {"alpha": 0.5}}),
    ("flair", "none", {"method": {"fpd_metric": "mse"}}),
    ("r-der++", "reservoir-with-logits", {"method": {"alpha": 0.0}}),
    ("pgd-at", "herding", {"buffer": {"capacity": 3}}),
    ("r-icarl", "herding", {"buffer": {"capacity": 3}}),
    *[(name, "none", {"eval_attack": {"epsilon": "1/5", "n_restarts": 3}})
      for name in ("pgd-at", "flair")],
    ("flair", "none", {"attack": {"objective": "bce-newslice"}}),
]

# the tag `label` writes for each changed key, by config section
TAGS = {"augment": "+augment", "model": "@{v}", "method": ":{k}={v}",
        "buffer": ":{k}={v}", "eval_attack": ":eval_{k}={v}",
        "attack": ":attack_{k}={v}"}


def tiny_config(method: str, buffer_kind: str, seed: int = 1,
                changes: dict | None = None) -> dict:
    cfg = {
        "seed": seed,
        "output_dir": "run",
        "dataset": {"kind": "gaussian", "n_classes": 6, "dim": 8,
                    "separation": 8.0, "train_per_class": 30,
                    "test_per_class": 10},
        "tasks": {"n_tasks": 3, "classes_per_task": 2},
        "model": {"hidden": [16, 16], "activation": "relu"},
        "method": {"name": method, "buffer_kind": buffer_kind},
        "attack": {"epsilon": "1/20", "n_steps": 3},
        "eval_attack": {"n_steps": 3},
        "training": {"epochs": 2, "lr": 0.1, "batch_size": 16},
        "buffer": {"capacity": 0 if buffer_kind == "none" else 20},
        "flatness": {"subsample": 4},
    }
    for section, keys in (changes or {}).items():
        cfg[section] = {**cfg.get(section, {}), **keys}
    return cfg


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


def label(method: str, buffer_kind: str, changes: dict | None = None) -> str:
    """`method/buffer` of one run, then one `TAGS` tag per changed key."""
    return f"{method}/{buffer_kind}" + "".join(
        TAGS[section].format(k=k, v=v)
        for section, keys in (changes or {}).items() for k, v in keys.items())


def all_runs(rc, seed: int) -> list[tuple[str, dict]]:
    """(label, config) of every run, in output order."""
    runs = [(name, kind, None) for name, info in rc.methods.REGISTRY.items()
            for kind in info.buffers] + VARIANTS
    return [(label(name, kind, changes), tiny_config(name, kind, seed, changes))
            for name, kind, changes in runs]


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

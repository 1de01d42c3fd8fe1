"""The benchmark's workloads: full `run_experiment` configs built from a seed.

Each workload is one experiment config. The benchmark seed becomes the
config `seed`; everything else is fixed here, so the same seed always
gives the same inputs and, with single-threaded BLAS, the same report.
"""
from __future__ import annotations

import copy
from dataclasses import dataclass

# A verbatim copy of configs/flair.json: the paper's headline setup. It is
# copied rather than read so that the benchmark's inputs stay fixed even
# if the example config is edited later.
FLAIR_JSON = {
    "seed": 1,
    "output_dir": "runs/flair-s1",
    "dataset": {"kind": "gaussian", "n_classes": 10, "dim": 16,
                "separation": 12.0, "train_per_class": 200, "test_per_class": 100},
    "tasks": {"n_tasks": 5, "classes_per_task": 2},
    "model": {"hidden": [64, 64], "activation": "tanh"},
    "method": {"name": "flair", "alpha": 0.5, "beta": 2.0},
    "attack": {"epsilon": "1/10", "step_size": "1/40", "n_steps": 10,
               "random_start": True},
    "eval_attack": {"n_steps": 20},
    "training": {"epochs": 15, "lr": 0.2, "batch_size": 64, "weight_decay": 1e-5},
    "buffer": {"capacity": 0},
    "flatness": {"subsample": 64, "scalar": "ce"},
}

DEFAULT_SEED = FLAIR_JSON["seed"]

# Where run_experiment writes checkpoints and reports, relative to the
# checkout root. The path is part of the config text that report.json
# echoes, so it is fixed per workload for the pinned digests to hold.
RUNS_DIR = ".perfbench_runs"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    overrides: dict
    # the training pool is the task's data plus the herding buffer
    merged_replay: bool
    # sha256 of report.json without wall_clock_sec, at DEFAULT_SEED
    reference_digest: str

    def config(self, seed: int) -> dict:
        cfg = copy.deepcopy(FLAIR_JSON)
        for section, values in self.overrides.items():
            # a method section replaces flair's, whose alpha and beta
            # would not fit another method; other sections are merged
            cfg[section] = values if section == "method" else {**cfg[section], **values}
        cfg["seed"] = int(seed)
        cfg["output_dir"] = f"{RUNS_DIR}/{self.name}"
        return cfg


WORKLOADS = {w.name: w for w in [
    Workload(
        name="flair-desk",
        why=("configs/flair.json as is: the paper's headline run; the flatness "
             "stage (512 input Hessians) does about half the work and "
             "training PGD about a third"),
        overrides={},
        merged_replay=False,
        reference_digest=(
            "590e00a5d726b752d458090bf552a24f"
            "324db5df56ad1e0d9c24a34885ff23d3")),
    Workload(
        name="der-replay",
        why=("r-der++ with a 200-slot reservoir and flatness subsample 8: "
             "a second PGD per batch on replay samples, so attacks and "
             "autodiff dominate and flatness is small"),
        overrides={"method": {"name": "r-der++"},
                   "buffer": {"capacity": 200},
                   "flatness": {"subsample": 8}},
        merged_replay=False,
        reference_digest=(
            "33594c7c4669cb3d7691c84df597a3ff"
            "abd57508414ceab32cd61dc96a19287d")),
    Workload(
        name="wide-herding",
        why=("d=64, hidden [256, 256], batch 128, pgd-at with a 400-slot "
             "herding pool: fewer, larger graphs whose time goes to BLAS, "
             "not to Python work per graph node"),
        overrides={"dataset": {"dim": 64, "separation": 16.0},
                   "model": {"hidden": [256, 256]},
                   "method": {"name": "pgd-at", "buffer_kind": "herding"},
                   "buffer": {"capacity": 400},
                   "attack": {"epsilon": "1/40", "step_size": "1/160"},
                   "training": {"epochs": 6, "lr": 0.1, "batch_size": 128},
                   "flatness": {"subsample": 4}},
        merged_replay=True,
        reference_digest=(
            "08bbc68d72af2350c89840597af84d17"
            "6fff04f5df25f52e74a5d5bd2fcee46d")),
]}


def train_examples(workload: Workload, cfg: dict, report: dict) -> int:
    """Epochs x training-pool examples, summed over tasks.

    The pool of task t is its own training split plus, for merged replay,
    the buffer as it stood after task t-1.
    """
    per_task = cfg["dataset"]["train_per_class"] * cfg["tasks"]["classes_per_task"]
    stored = [0, *report["buffer_stored_per_task"][:-1]]
    total = 0
    for t in range(cfg["tasks"]["n_tasks"]):
        pool = per_task + (stored[t] if workload.merged_replay else 0)
        total += cfg["training"]["epochs"] * pool
    return total

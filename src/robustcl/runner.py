"""Experiment orchestration: config parsing, the task loop, reports.

Configs are JSON with exact-rational attack radii ("8/255"). One table,
`_SCHEMA`, states each key's parser, minimum and default; parsing walks
it, then checks the few rules that cross keys. A run trains task after
task (expand head, freeze the teacher, train, update the replay buffer,
evaluate the new accuracy-matrix row), checkpoints every per-task model,
and finally computes backward transfer and flatness drift. Reports are
deterministic for a fixed (config, seed) apart from the wall-clock field.
"""
from __future__ import annotations

import hashlib
import json
import os
import sys
import time
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .attacks import AttackConfig, parse_rational
from .continual import (ReservoirBuffer, Schedule, buffer_update_herding,
                        run_task, split_dataset, split_order)
from .data import Dataset, gen_gaussian_tasks, load_csv_dataset
from .errors import ArgumentError, ConfigurationError, DimensionError, IntegrityError
from .methods import MethodConfig, RegState, make_method_config
from .metrics import (FLATNESS_SCALARS, FlatnessReport, accuracy, flatness_forgetting,
                      r_bwt, robust_accuracy)
from .network import ACTIVATIONS, Layer, Network, expand_head, snapshot
from .seeding import derive_seed

Array = np.ndarray

CHECKPOINT_VERSION = 1
_REPORT_FILE = "report.json"
_REQUIRED = object()   # the default of a config key that must be given


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class DatasetSpec:
    kind: str                          # gaussian | csv
    n_classes: int | None              # gaussian keys; None for csv
    dim: int | None
    separation: float | None
    train_per_class: int | None
    test_per_class: int | None
    train_path: str | None             # csv keys; None for gaussian
    test_path: str | None


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int
    output_dir: str
    dataset: DatasetSpec
    n_tasks: int
    classes_per_task: int
    class_order: tuple[int, ...] | None
    hidden: tuple[int, ...]
    activation: str
    method: MethodConfig
    eval_attack: AttackConfig
    schedule: Schedule
    buffer_capacity: int
    flatness_subsample: int
    flatness_scalar: str
    raw_text: str
    sha256: str
    grid: dict | None = None


def _int(value, what: str, minimum: int = 0) -> int:
    """An exact JSON integer (not a bool or a float) of at least `minimum`."""
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise ConfigurationError(f"{what} must be an integer >= {minimum}, "
                                 f"got {value!r}")
    return value


def _ints(value, what: str, minimum: int = 0) -> tuple[int, ...]:
    """A JSON list of exact integers, each at least `minimum`."""
    if not isinstance(value, list):
        raise ConfigurationError(f"{what} must be a list of integers, got {value!r}")
    return tuple(_int(v, f"{what} entry", minimum) for v in value)


def _float(value, what: str, minimum: float = -np.inf) -> float:
    """A finite JSON number (not a bool, a string, NaN or infinite), >= `minimum`."""
    number = float("nan")
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        # an integer too large for a float counts as infinite
        number = float(value) if abs(value) <= sys.float_info.max else float("inf")
    if not np.isfinite(number) or number < minimum:
        bound = "" if minimum == -np.inf else f" >= {minimum}"
        raise ConfigurationError(f"{what} must be a finite number{bound}, "
                                 f"got {value!r}")
    return number


def _bool(value, what: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigurationError(f"{what} must be true or false, got {value!r}")
    return value


def _str(value, what: str) -> str:
    if not isinstance(value, str) or not value:
        raise ConfigurationError(f"{what} must be a nonempty string, got {value!r}")
    return value


def _one_of(value, what: str, options: tuple[str, ...]) -> str:
    if value not in options:
        raise ConfigurationError(f"{what} must be one of {options}, got {value!r}")
    return value


def _or_null(parse):
    """`parse` for a key whose JSON null means "not set" (None)."""
    return lambda value, *args: None if value is None else parse(value, *args)


def _grid_values(value, what: str) -> list[float]:
    if not isinstance(value, list) or not value:
        raise ConfigurationError(f"{what} must be a nonempty list")
    values = [_float(v, f"{what} value") for v in value]
    # each value names its run's output directory (see `expand_grid`)
    tags = [f"{v:g}" for v in values]
    if len(set(tags)) != len(tags):
        raise ConfigurationError(f"{what} values {tags} repeat an output "
                                 "directory tag")
    return values


def _dataset(value, what: str, kinds: dict) -> DatasetSpec:
    """A dataset object, read by the rows of its `kind`."""
    if not isinstance(value, dict):
        raise ConfigurationError(f"{what} must be a JSON object")
    kind = _str(value.get("kind"), f"{what} kind")
    d = _fields(value, what, kinds[_one_of(kind, f"{what} kind", tuple(kinds))])
    if kind == "csv":
        for path in (d["train"], d["test"]):
            if not Path(path).exists():
                raise ConfigurationError(f"dataset file does not exist: {path}")
        return DatasetSpec("csv", None, None, None, None, None, d["train"], d["test"])
    return DatasetSpec(**d, train_path=None, test_path=None)


def _fields(value, where: str, rows: dict) -> dict:
    """The JSON object `value` read by `rows` (see `_SCHEMA`)."""
    if not isinstance(value, dict):
        raise ConfigurationError(f"{where} must be a JSON object")
    unknown = set(value) - set(rows)
    if unknown:
        raise ConfigurationError(f"unknown keys in {where}: {sorted(unknown)}")
    out = {}
    for key, row in rows.items():
        what = key if where == "config" else f"{where} {key}"
        if isinstance(row, dict):
            out[key] = _fields(value.get(key, {}), what, row)
        elif key in value:
            out[key] = row[0](value[key], what, *row[2:])
        elif row[1] is _REQUIRED:
            raise ConfigurationError(f"missing key {key!r} in {where}")
        else:
            out[key] = row[1]
    return out


def _attack_rows(epsilon, n_steps: int, min_steps: int, **extra) -> dict:
    # a None radius or step is filled in by `parse_config_text`
    return {"epsilon": (parse_rational, epsilon), "step_size": (parse_rational, None),
            "n_steps": (_int, n_steps, min_steps), "random_start": (_bool, True),
            **extra}


# key -> (parser, default or _REQUIRED, further parser arguments); each parser
# takes (JSON value, key name for messages, those arguments). A given value is
# parsed, an absent key takes its default as is. A dict is a nested section,
# read as {} when absent, so a required key in it makes it required.
_SCHEMA = {
    "seed": (_int, _REQUIRED),
    "output_dir": (_str, _REQUIRED),
    "dataset": (_dataset, _REQUIRED, {
        "gaussian": {"kind": (_str, _REQUIRED), "n_classes": (_int, _REQUIRED),
                     "dim": (_int, _REQUIRED), "separation": (_float, 6.0),
                     "train_per_class": (_int, 200, 1),
                     "test_per_class": (_int, 100, 1)},
        "csv": {"kind": (_str, _REQUIRED), "train": (_str, _REQUIRED),
                "test": (_str, _REQUIRED)}}),
    "tasks": {"n_tasks": (_int, _REQUIRED, 1), "classes_per_task": (_int, _REQUIRED, 1),
              # "identity" is the order 0, 1, 2, ...
              "class_order": (lambda value, what: None if value == "identity"
                              else _ints(value, what), None)},
    "model": {"hidden": (_ints, (64, 64), 1),
              "activation": (_one_of, "relu", ACTIVATIONS)},
    "method": {"name": (_str, _REQUIRED), "alpha": (_or_null(_float), None),
               "beta": (_or_null(_float), None), "buffer_kind": (_or_null(_str), None),
               "fpd_metric": (_str, None)},
    # training attacks from one start, with the method's objective unless named;
    # robust accuracy is CE for every method and needs a step
    "attack": _attack_rows(_REQUIRED, 10, 0, objective=(_str, "ce")),
    "eval_attack": _attack_rows(None, 20, 1, n_restarts=(_int, 1, 1)),
    "training": {"epochs": (_int, _REQUIRED, 1), "lr": (_float, _REQUIRED, 0),
                 "batch_size": (_int, _REQUIRED, 1), "weight_decay": (_float, 1e-5, 0),
                 "milestones": (_or_null(_ints), None)},
    "buffer": {"capacity": (_int, 0)},
    "augment": {"enabled": (_or_null(_bool), None)},
    "flatness": {"subsample": (_int, 64, 1),
                 "scalar": (_one_of, "ce", FLATNESS_SCALARS)},
    "grid": {"alpha": (_grid_values, None), "beta": (_grid_values, None)},
}


def parse_config_text(text: str) -> ExperimentConfig:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"config is not valid JSON: {exc}") from exc
    c = _fields(raw, "config", _SCHEMA)
    tasks, attack, eval_attack = c["tasks"], c["attack"], c["eval_attack"]
    if c["dataset"].kind == "gaussian":  # CSV class counts are known once read
        try:
            split_order(c["dataset"].n_classes, tasks["n_tasks"],
                        tasks["classes_per_task"], tasks["class_order"])
        except ArgumentError as exc:
            raise ConfigurationError(str(exc)) from exc
    if eval_attack["epsilon"] is None:
        eval_attack["epsilon"] = attack["epsilon"]
    for atk in (attack, eval_attack):
        if atk["step_size"] is None:
            atk["step_size"] = atk["epsilon"] / 4.0
    method = make_method_config(attack=AttackConfig(**attack),
                                augment=c["augment"]["enabled"],
                                explicit_objective="objective" in raw["attack"],
                                **c["method"])
    capacity = c["buffer"]["capacity"]
    if (method.buffer_kind != "none") != (capacity > 0):
        raise ConfigurationError(
            f"method {method.name!r} has buffer kind {method.buffer_kind!r} and "
            f"capacity {capacity}; the capacity must be positive exactly when the "
            "kind is not 'none'")
    grid = {key: values for key, values in c["grid"].items() if values is not None}
    lacking = [key for key in grid if getattr(method, key) is None]
    if lacking:
        raise ConfigurationError(f"method {method.name!r} has no setting "
                                 f"{' or '.join(lacking)}")
    return ExperimentConfig(
        seed=c["seed"], output_dir=c["output_dir"], dataset=c["dataset"], **tasks,
        **c["model"], method=method, eval_attack=AttackConfig(**eval_attack),
        schedule=Schedule(**c["training"]), buffer_capacity=capacity,
        flatness_subsample=c["flatness"]["subsample"],
        flatness_scalar=c["flatness"]["scalar"], raw_text=text,
        sha256=hashlib.sha256(text.encode("utf-8")).hexdigest(), grid=grid or None)


def load_config(path: str) -> ExperimentConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
    return parse_config_text(text)


def config_from_dict(d: dict) -> ExperimentConfig:
    return parse_config_text(json.dumps(d, indent=2, sort_keys=True))


def expand_grid(cfg: ExperimentConfig) -> list[tuple[str, ExperimentConfig]]:
    """Enumerate (tag, config) pairs over the configured alpha/beta grid; each
    tag names every weight the method has (`alpha_0.5_beta_2`, `alpha_6`). A
    grid over a weight the method lacks never gets here: parsing rejects it."""
    if not cfg.grid:
        return [("single", cfg)]
    out = []
    for a in cfg.grid.get("alpha", [cfg.method.alpha]):
        for b in cfg.grid.get("beta", [cfg.method.beta]):
            weights = {w: v for w, v in (("alpha", a), ("beta", b)) if v is not None}
            raw = json.loads(cfg.raw_text)
            raw["method"].update(weights)
            raw.pop("grid", None)
            tag = "_".join(f"{w}_{v:g}" for w, v in weights.items())
            raw["output_dir"] = str(Path(cfg.output_dir) / tag)
            out.append((tag, parse_config_text(json.dumps(raw, indent=2,
                                                          sort_keys=True))))
    return out


# ---------------------------------------------------------------------------
# checkpoints


def save_checkpoint(net: Network, path: str) -> None:
    """Write `<path>.manifest` (text) and `<path>.blob` (LE float64).

    The manifest records the blob's SHA-256, so `load_checkpoint` detects
    corruption that keeps the blob length.
    """
    path = str(path)
    lines = [f"format_version={CHECKPOINT_VERSION}",
             f"input_dim={net.input_dim}",
             f"seed={net.seed if net.seed is not None else ''}",
             f"head_boundaries={','.join(str(b) for b in net.head_boundaries)}",
             f"n_layers={len(net.layers)}"]
    for i, layer in enumerate(net.layers):
        lines.append(f"layer{i}={layer.weight.shape[0]}x{layer.weight.shape[1]},"
                     f"{layer.activation}")
    blob = net.flatten().astype("<f8").tobytes()
    lines.append(f"blob_len={net.n_params}")
    lines.append(f"blob_sha256={hashlib.sha256(blob).hexdigest()}")
    _atomic_write_bytes(path + ".manifest", ("\n".join(lines) + "\n").encode())
    _atomic_write_bytes(path + ".blob", blob)


def load_checkpoint(path: str) -> Network:
    path = str(path)
    try:
        text = Path(path + ".manifest").read_text(encoding="utf-8")
        blob = Path(path + ".blob").read_bytes()
    except OSError as exc:
        raise IntegrityError(f"cannot read checkpoint {path}: {exc}") from exc
    fields: dict[str, str] = {}
    for line in text.splitlines():
        if line.strip():
            key, _, value = line.partition("=")
            fields[key] = value
    try:
        if int(fields["format_version"]) != CHECKPOINT_VERSION:
            raise IntegrityError(f"unsupported checkpoint version "
                                 f"{fields['format_version']}")
        input_dim = int(fields["input_dim"])
        boundaries = [int(b) for b in fields["head_boundaries"].split(",")]
        n_layers = int(fields["n_layers"])
        blob_len = int(fields["blob_len"])
        digest = fields["blob_sha256"]
        seed = int(fields["seed"]) if fields.get("seed") else None
        shapes = []
        for i in range(n_layers):
            dims, _, act = fields[f"layer{i}"].partition(",")
            fan_in, _, fan_out = dims.partition("x")
            shapes.append(((int(fan_in), int(fan_out)), act))
    except (KeyError, ValueError) as exc:
        raise IntegrityError(f"malformed checkpoint manifest {path}") from exc
    if any(min(dims) < 1 for dims, _ in shapes):
        raise IntegrityError(f"manifest {path} lists a layer dimension below 1")
    expected = sum(fi * fo + fo for (fi, fo), _ in shapes)
    if expected != blob_len or len(blob) != 8 * blob_len:
        raise IntegrityError(
            f"checkpoint blob length mismatch: manifest {blob_len}, "
            f"expected {expected}, blob holds {len(blob) // 8}")
    if digest != hashlib.sha256(blob).hexdigest():
        raise IntegrityError(f"checkpoint blob {path}.blob does not match its "
                             "manifest's SHA-256")
    if not shapes or shapes[-1][0][1] != boundaries[-1]:
        raise IntegrityError(f"manifest {path} lists no layers or a mismatched head")
    layers = [Layer(np.empty(shape), np.empty(shape[1]), act) for shape, act in shapes]
    try:
        net = Network(layers, boundaries, input_dim, seed=seed)
    except (ArgumentError, DimensionError) as exc:
        raise IntegrityError(f"manifest {path} lists an invalid network: {exc}") from exc
    net.load_params(np.frombuffer(blob, dtype="<f8"))
    return net


# ---------------------------------------------------------------------------
# run report


@dataclass
class RunReport:
    """One run's results, with report.json's keys in file order as fields; None
    where a crash, a single task or `network.HESSIAN_DIM_CAP` (HF) left no value."""
    version: str
    config_sha256: str
    method: str
    seed: int
    final_clean_acc: float | None
    final_robust_acc: float | None
    r_bwt: float | None
    gf: float | None
    hf: float | None
    per_task_gf: tuple[float, ...] | None
    per_task_hf: tuple[float, ...] | None
    clean_matrix: list[list[float | None]]   # n_tasks x n_tasks, None where unset
    robust_matrix: list[list[float | None]]
    buffer_capacity: int
    buffer_stored_per_task: list[int]
    task_logs: list[dict]
    config_echo: str
    wall_clock_sec: float


def _round6(value):
    if isinstance(value, float):
        return float(f"{value:.6g}")
    if isinstance(value, dict):
        return {k: _round6(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_round6(v) for v in value]
    return value


def _atomic_write_bytes(path: str, payload: bytes) -> None:
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as fh:
        fh.write(payload)
    os.replace(tmp, path)


def _csv(header: tuple[str, ...] | None, rows) -> bytes:
    """`header` (if any), then one line per row: floats at %.6g, None empty."""
    lines = [] if header is None else [",".join(header)]
    lines += [",".join("" if v is None else f"{v:.6g}" if isinstance(v, float)
                       else str(v) for v in row) for row in rows]
    return ("\n".join(lines) + "\n").encode()


def emit_report(report: RunReport, out_dir: str) -> None:
    """Write report.json plus matrix and log CSVs, atomically."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    payload = _round6(asdict(report))
    payload["wall_clock_sec"] = report.wall_clock_sec
    _atomic_write_bytes(str(out / _REPORT_FILE),
                        (json.dumps(payload, indent=2) + "\n").encode())
    _atomic_write_bytes(str(out / "ca_matrix.csv"), _csv(None, report.clean_matrix))
    _atomic_write_bytes(str(out / "ra_matrix.csv"), _csv(None, report.robust_matrix))
    header = ("task", "epoch", "train_loss", "clean_acc", "robust_acc")
    logs = ([row[k] for k in header] for row in report.task_logs)
    _atomic_write_bytes(str(out / "task_logs.csv"), _csv(header, logs))


# ---------------------------------------------------------------------------
# the experiment loop


def _build_streams(cfg: ExperimentConfig) -> tuple[list[Dataset], list[Dataset]]:
    if cfg.dataset.kind == "gaussian":
        per_class = cfg.dataset.train_per_class + cfg.dataset.test_per_class
        pool = gen_gaussian_tasks(cfg.dataset.n_classes, cfg.dataset.dim,
                                  cfg.dataset.separation, per_class,
                                  seed=derive_seed(cfg.seed, purpose="data"))
        train_idx, test_idx = [], []
        for c in range(cfg.dataset.n_classes):
            idx = pool.class_indices(c)
            train_idx.append(idx[:cfg.dataset.train_per_class])
            test_idx.append(idx[cfg.dataset.train_per_class:])
        train = pool.subset(np.concatenate(train_idx))
        test = pool.subset(np.concatenate(test_idx))
    else:
        train = load_csv_dataset(cfg.dataset.train_path)
        test = load_csv_dataset(cfg.dataset.test_path)
        if train.n_classes != test.n_classes:
            raise ConfigurationError("train/test class counts disagree")
    train_stream = split_dataset(train, cfg.n_tasks, cfg.classes_per_task,
                                 cfg.class_order, seed=cfg.seed)
    test_stream = split_dataset(test, cfg.n_tasks, cfg.classes_per_task,
                                cfg.class_order, seed=cfg.seed)
    for t, (train_t, test_t) in enumerate(zip(train_stream, test_stream), 1):
        for split, task in (("train", train_t), ("test", test_t)):
            if len(task) == 0:
                raise ConfigurationError(f"task {t} has no {split} examples")
    return train_stream, test_stream


def _make_buffer(cfg: ExperimentConfig):
    # herding exemplars first exist after task 1
    kind = cfg.method.buffer_kind
    if kind in ("none", "herding"):
        return None
    return ReservoirBuffer(cfg.buffer_capacity,
                           with_logits=(kind == "reservoir-with-logits"),
                           seed=derive_seed(cfg.seed, purpose="reservoir"))


def evaluate_row(cfg: ExperimentConfig, model: Network,
                 test_tasks: list[Dataset]) -> tuple[list[float], list[float]]:
    """Row `model.n_tasks` of both accuracy matrices: clean and robust accuracy on
    each task learned, under `cfg.eval_attack` seeded by (row, task)."""
    t = model.n_tasks
    return ([accuracy(model, task) for task in test_tasks[:t]],
            [robust_accuracy(model, task, replace(
                cfg.eval_attack, clamp_range=task.value_range,
                seed=derive_seed(cfg.seed, t, 0, "eval-attack", extra=j)))
             for j, task in enumerate(test_tasks[:t])])


def run_experiment(cfg: ExperimentConfig) -> RunReport:
    """Full task loop; writes checkpoints and the report into output_dir."""
    start = time.time()
    train_tasks, test_tasks = _build_streams(cfg)
    # only after the split succeeded: a bad split leaves no output behind
    ckpt_dir = Path(cfg.output_dir) / "checkpoints"
    try:
        ckpt_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigurationError(f"cannot create output directory {ckpt_dir}: "
                                 f"{exc}") from exc
    t_count = cfg.n_tasks
    buffer = _make_buffer(cfg)
    info = cfg.method.info
    reg = None

    clean_rows: list[list[float]] = []      # row t: tasks 0..t after task t
    robust_rows: list[list[float]] = []
    logs: list[dict] = []
    stored_per_task: list[int] = []
    snapshots: list[Network] = []
    bwt: float | None = None
    drift = dict.fromkeys(f.name for f in fields(FlatnessReport))  # not yet measured

    def square(rows: list[list[float]]) -> list[list[float | None]]:
        padded = rows + [[]] * (t_count - len(rows))
        return [row + [None] * (t_count - len(row)) for row in padded]

    def report(complete: bool) -> RunReport:
        return RunReport(
            version=__version__, config_sha256=cfg.sha256, method=cfg.method.name,
            seed=cfg.seed,
            final_clean_acc=float(np.mean(clean_rows[-1])) if complete else None,
            final_robust_acc=float(np.mean(robust_rows[-1])) if complete else None,
            r_bwt=bwt, **drift, clean_matrix=square(clean_rows),
            robust_matrix=square(robust_rows), buffer_capacity=cfg.buffer_capacity,
            buffer_stored_per_task=stored_per_task, task_logs=logs,
            config_echo=cfg.raw_text, wall_clock_sec=time.time() - start)

    input_dim = train_tasks[0].input_dim
    try:
        for t in range(t_count):
            # the teacher is the last task's frozen model; the student widens it
            teacher = snapshots[-1] if snapshots else None
            if teacher is None:
                net = Network.init_mlp(input_dim, cfg.hidden, cfg.classes_per_task,
                                       activation=cfg.activation,
                                       seed=derive_seed(cfg.seed, 0, 0, "model-init"))
            else:
                net = expand_head(teacher, cfg.classes_per_task,
                                  seed=derive_seed(cfg.seed, t, 0, "head-init"))
            if info.reg is not None:
                reg = RegState.zeros(net) if reg is None else reg.expand_to(net)
            net, task_log = run_task(net, teacher, train_tasks[t], buffer,
                                     cfg.method, cfg.schedule, reg=reg,
                                     root_seed=cfg.seed, task_index=t + 1)
            logs.extend(task_log)
            if cfg.method.buffer_kind == "herding":
                buffer = buffer_update_herding(buffer, net, train_tasks[t],
                                               cfg.buffer_capacity)
            stored_per_task.append(len(buffer) if buffer is not None else 0)
            snapshots.append(snapshot(net))
            save_checkpoint(snapshots[-1], str(ckpt_dir / f"task_{t + 1:03d}"))
            clean_row, robust_row = evaluate_row(cfg, snapshots[-1], test_tasks)
            clean_rows.append(clean_row)
            robust_rows.append(robust_row)
        if t_count >= 2:
            bwt = r_bwt(robust_rows)
            drift = vars(flatness_forgetting(snapshots, test_tasks[:t_count - 1],
                                             scalar_def=cfg.flatness_scalar,
                                             subsample=cfg.flatness_subsample,
                                             seed=cfg.seed))
    except Exception:
        # flush whatever is complete so a crashed run still leaves evidence
        emit_report(report(complete=False), cfg.output_dir)
        raise
    final = report(complete=True)
    emit_report(final, cfg.output_dir)
    return final

"""Experiment orchestration: config parsing, the task loop, reports.

Configs are JSON with exact-rational attack radii ("8/255"). A run
trains task after task (expand head, freeze the teacher, train, update
the replay buffer, evaluate the new accuracy-matrix row), checkpoints
every per-task model, and finally computes backward transfer and
flatness drift. Reports are deterministic for a fixed (config, seed)
apart from the wall-clock field.
"""
from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any

import numpy as np

from . import __version__
from .attacks import AttackConfig, parse_rational
from .continual import (HerdingBuffer, ReservoirBuffer, Schedule, TaskStream,
                        buffer_update_herding, run_task, split_dataset)
from .data import gen_gaussian_tasks, load_csv_dataset
from .errors import ConfigurationError, IntegrityError
from .methods import REGISTRY, MethodConfig, RegState, make_method_config
from .metrics import (FLATNESS_SCALARS, AccuracyMatrix, FlatnessReport, accuracy,
                      flatness_forgetting, r_bwt, robust_accuracy)
from .network import Layer, Network, expand_head, snapshot
from .seeding import derive_seed

Array = np.ndarray

CHECKPOINT_VERSION = 1
_REPORT_FILE = "report.json"


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class DatasetSpec:
    kind: str                          # gaussian | csv
    n_classes: int = 10
    dim: int = 16
    separation: float = 6.0
    train_per_class: int = 200
    test_per_class: int = 100
    train_path: str | None = None
    test_path: str | None = None


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int
    output_dir: str
    dataset: DatasetSpec
    n_tasks: int
    classes_per_task: int
    class_order: list[int] | None
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


def _need(d: dict, key: str, where: str):
    if key not in d:
        raise ConfigurationError(f"missing key {key!r} in {where}")
    return d[key]


_TOP_KEYS = {"seed", "output_dir", "dataset", "tasks", "model", "method",
             "attack", "eval_attack", "training", "buffer", "augment",
             "flatness", "grid"}


def parse_config_text(text: str) -> ExperimentConfig:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigurationError("config root must be a JSON object")
    unknown = set(raw) - _TOP_KEYS
    if unknown:
        raise ConfigurationError(f"unknown config keys: {sorted(unknown)}")

    ds_raw = _need(raw, "dataset", "config")
    kind = _need(ds_raw, "kind", "dataset")
    if kind == "gaussian":
        dataset = DatasetSpec(kind="gaussian",
                              n_classes=int(_need(ds_raw, "n_classes", "dataset")),
                              dim=int(_need(ds_raw, "dim", "dataset")),
                              separation=float(ds_raw.get("separation", 6.0)),
                              train_per_class=int(ds_raw.get("train_per_class", 200)),
                              test_per_class=int(ds_raw.get("test_per_class", 100)))
    elif kind == "csv":
        train_path = _need(ds_raw, "train", "dataset")
        test_path = _need(ds_raw, "test", "dataset")
        for p in (train_path, test_path):
            if not Path(p).exists():
                raise ConfigurationError(f"dataset file does not exist: {p}")
        dataset = DatasetSpec(kind="csv", train_path=train_path, test_path=test_path)
    else:
        raise ConfigurationError(f"unknown dataset kind {kind!r}")

    tasks = _need(raw, "tasks", "config")
    n_tasks = int(_need(tasks, "n_tasks", "tasks"))
    cpt = int(_need(tasks, "classes_per_task", "tasks"))
    order_raw = tasks.get("class_order", "identity")
    class_order = None if order_raw == "identity" else [int(c) for c in order_raw]

    model = raw.get("model", {})
    hidden = tuple(int(h) for h in model.get("hidden", [64, 64]))
    activation = model.get("activation", "relu")

    atk_raw = _need(raw, "attack", "config")
    epsilon = parse_rational(_need(atk_raw, "epsilon", "attack"))
    attack = AttackConfig(
        epsilon=epsilon,
        step_size=parse_rational(atk_raw.get("step_size", epsilon / 4.0)),
        n_steps=int(atk_raw.get("n_steps", 10)),
        random_start=bool(atk_raw.get("random_start", True)),
        objective=atk_raw.get("objective", "ce"),
        n_restarts=int(atk_raw.get("n_restarts", 1)))

    ev_raw = raw.get("eval_attack", {})
    eval_epsilon = parse_rational(ev_raw.get("epsilon", epsilon))
    eval_attack = AttackConfig(
        epsilon=eval_epsilon,
        step_size=parse_rational(ev_raw.get("step_size", eval_epsilon / 4.0)),
        n_steps=int(ev_raw.get("n_steps", 20)),
        random_start=bool(ev_raw.get("random_start", True)),
        objective=ev_raw.get("objective", "ce"),
        n_restarts=int(ev_raw.get("n_restarts", 1)))

    train_raw = _need(raw, "training", "config")
    milestones = train_raw.get("milestones")
    schedule = Schedule(epochs=int(_need(train_raw, "epochs", "training")),
                        lr=float(_need(train_raw, "lr", "training")),
                        batch_size=int(_need(train_raw, "batch_size", "training")),
                        weight_decay=float(train_raw.get("weight_decay", 1e-5)),
                        milestones=None if milestones is None else
                        tuple(int(m) for m in milestones))

    buffer_capacity = int(raw.get("buffer", {}).get("capacity", 0))
    if buffer_capacity < 0:
        raise ConfigurationError("buffer capacity must be nonnegative")

    m_raw = _need(raw, "method", "config")
    name = _need(m_raw, "name", "method")
    aug_raw = raw.get("augment", {})
    augment_enabled = aug_raw.get("enabled")
    buffer_kind = m_raw.get("buffer_kind")
    if buffer_kind is None and buffer_capacity == 0:
        info = REGISTRY.get(name)
        if info is not None and "none" in info.allowed_buffers:
            buffer_kind = "none"
    method = make_method_config(
        name, attack,
        alpha=m_raw.get("alpha"), beta=m_raw.get("beta"),
        buffer_kind=buffer_kind,
        augment=augment_enabled,
        fpd_metric=m_raw.get("fpd_metric", "kl"))
    if method.buffer_kind != "none" and buffer_capacity == 0:
        raise ConfigurationError(
            f"method {name!r} with buffer kind {method.buffer_kind!r} "
            "needs a positive buffer capacity")

    flat_raw = raw.get("flatness", {})
    flatness_subsample = flat_raw.get("subsample", 64)
    if (isinstance(flatness_subsample, bool) or not isinstance(flatness_subsample, int)
            or flatness_subsample < 1):
        raise ConfigurationError(f"flatness subsample must be a positive integer, "
                                 f"got {flatness_subsample!r}")
    flatness_scalar = flat_raw.get("scalar", "ce")
    if flatness_scalar not in FLATNESS_SCALARS:
        raise ConfigurationError(f"flatness scalar must be one of {FLATNESS_SCALARS}, "
                                 f"got {flatness_scalar!r}")

    text_hash = hashlib.sha256(text.encode("utf-8")).hexdigest()
    return ExperimentConfig(
        seed=int(_need(raw, "seed", "config")),
        output_dir=str(_need(raw, "output_dir", "config")),
        dataset=dataset, n_tasks=n_tasks, classes_per_task=cpt,
        class_order=class_order, hidden=hidden, activation=activation,
        method=method, eval_attack=eval_attack, schedule=schedule,
        buffer_capacity=buffer_capacity,
        flatness_subsample=flatness_subsample, flatness_scalar=flatness_scalar,
        raw_text=text, sha256=text_hash, grid=raw.get("grid"))


def load_config(path: str) -> ExperimentConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
    return parse_config_text(text)


def config_from_dict(d: dict) -> ExperimentConfig:
    return parse_config_text(json.dumps(d, indent=2, sort_keys=True))


def expand_grid(cfg: ExperimentConfig) -> list[tuple[str, ExperimentConfig]]:
    """Enumerate (tag, config) pairs over the configured alpha/beta grid."""
    if not cfg.grid:
        return [("single", cfg)]
    alphas = [float(a) for a in cfg.grid.get("alpha", [cfg.method.alpha])]
    betas = [float(b) for b in cfg.grid.get("beta", [cfg.method.beta])]
    out = []
    for a in alphas:
        for b in betas:
            raw = json.loads(cfg.raw_text)
            raw.setdefault("method", {})
            raw["method"]["alpha"] = a
            raw["method"]["beta"] = b
            raw.pop("grid", None)
            tag = f"alpha_{a:g}_beta_{b:g}"
            raw["output_dir"] = str(Path(cfg.output_dir) / tag)
            out.append((tag, parse_config_text(json.dumps(raw, indent=2,
                                                          sort_keys=True))))
    return out


# ---------------------------------------------------------------------------
# checkpoints


def save_checkpoint(net: Network, path: str) -> None:
    """Write `<path>.manifest` (text) and `<path>.blob` (LE float64)."""
    path = str(path)
    lines = [f"format_version={CHECKPOINT_VERSION}",
             f"input_dim={net.input_dim}",
             f"seed={net.seed if net.seed is not None else ''}",
             f"head_boundaries={','.join(str(b) for b in net.head_boundaries)}",
             f"n_layers={len(net.layers)}"]
    for i, layer in enumerate(net.layers):
        lines.append(f"layer{i}={layer.weight.shape[0]}x{layer.weight.shape[1]},"
                     f"{layer.activation}")
    blob = bytearray()
    count = 0
    for layer in net.layers:
        blob += np.ascontiguousarray(layer.weight, dtype="<f8").tobytes()
        blob += np.ascontiguousarray(layer.bias, dtype="<f8").tobytes()
        count += layer.weight.size + layer.bias.size
    lines.append(f"blob_len={count}")
    _atomic_write_bytes(path + ".manifest", ("\n".join(lines) + "\n").encode())
    _atomic_write_bytes(path + ".blob", bytes(blob))


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
        seed = int(fields["seed"]) if fields.get("seed") else None
        shapes = []
        for i in range(n_layers):
            dims, _, act = fields[f"layer{i}"].partition(",")
            fan_in, _, fan_out = dims.partition("x")
            shapes.append(((int(fan_in), int(fan_out)), act))
    except (KeyError, ValueError) as exc:
        raise IntegrityError(f"malformed checkpoint manifest {path}") from exc
    expected = sum(fi * fo + fo for (fi, fo), _ in shapes)
    if expected != blob_len or len(blob) != 8 * blob_len:
        raise IntegrityError(
            f"checkpoint blob length mismatch: manifest {blob_len}, "
            f"expected {expected}, blob holds {len(blob) // 8}")
    if shapes[-1][0][1] != boundaries[-1]:
        raise IntegrityError("manifest head_boundaries disagree with layer shapes")
    flat = np.frombuffer(blob, dtype="<f8").astype(np.float64)
    layers = []
    pos = 0
    for (fan_in, fan_out), act in shapes:
        w = flat[pos:pos + fan_in * fan_out].reshape(fan_in, fan_out).copy()
        pos += fan_in * fan_out
        b = flat[pos:pos + fan_out].copy()
        pos += fan_out
        layers.append(Layer(w, b, act))
    return Network(layers, boundaries, input_dim, seed=seed)


# ---------------------------------------------------------------------------
# run report


@dataclass
class RunReport:
    version: str
    config_sha256: str
    method: str
    seed: int
    clean_matrix: AccuracyMatrix
    robust_matrix: AccuracyMatrix
    r_bwt: float | None
    flatness: FlatnessReport | None
    final_clean: float | None
    final_robust: float | None
    buffer_capacity: int
    buffer_stored_per_task: list[int]
    task_logs: list[dict]
    config_text: str
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


def _matrix_csv(matrix: AccuracyMatrix) -> str:
    lines = []
    for row in matrix.to_rows():
        lines.append(",".join("" if v is None else f"{v:.6g}" for v in row))
    return "\n".join(lines) + "\n"


def emit_report(report: RunReport, out_dir: str) -> None:
    """Write report.json plus matrix and log CSVs, atomically."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    flat = report.flatness
    payload: dict[str, Any] = {
        "version": report.version,
        "config_sha256": report.config_sha256,
        "method": report.method,
        "seed": report.seed,
        "final_clean_acc": report.final_clean,
        "final_robust_acc": report.final_robust,
        "r_bwt": report.r_bwt,
        "gf": None if flat is None else flat.gf,
        "hf": None if flat is None or flat.hf is None else flat.hf,
        "per_task_gf": None if flat is None else list(flat.per_task_gf),
        "per_task_hf": None if flat is None or flat.per_task_hf is None
                       else list(flat.per_task_hf),
        "clean_matrix": report.clean_matrix.to_rows(),
        "robust_matrix": report.robust_matrix.to_rows(),
        "buffer_capacity": report.buffer_capacity,
        "buffer_stored_per_task": report.buffer_stored_per_task,
        "task_logs": report.task_logs,
        "config_echo": report.config_text,
        "wall_clock_sec": report.wall_clock_sec,
    }
    rounded = {k: (_round6(v) if k != "wall_clock_sec" else v)
               for k, v in payload.items()}
    _atomic_write_bytes(str(out / _REPORT_FILE),
                        (json.dumps(rounded, indent=2) + "\n").encode())
    _atomic_write_bytes(str(out / "ca_matrix.csv"),
                        _matrix_csv(report.clean_matrix).encode())
    _atomic_write_bytes(str(out / "ra_matrix.csv"),
                        _matrix_csv(report.robust_matrix).encode())
    log_lines = ["task,epoch,train_loss,clean_acc,robust_acc"]
    for row in report.task_logs:
        log_lines.append(f"{row['task']},{row['epoch']},{row['train_loss']:.6g},"
                         f"{row['clean_acc']:.6g},{row['robust_acc']:.6g}")
    _atomic_write_bytes(str(out / "task_logs.csv"),
                        ("\n".join(log_lines) + "\n").encode())


# ---------------------------------------------------------------------------
# the experiment loop


def _build_streams(cfg: ExperimentConfig) -> tuple[TaskStream, TaskStream]:
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
    return train_stream, test_stream


def _make_buffer(cfg: ExperimentConfig):
    kind = cfg.method.buffer_kind
    if kind == "none" or cfg.buffer_capacity == 0:
        return None
    if kind == "herding":
        return HerdingBuffer(cfg.buffer_capacity)
    return ReservoirBuffer(cfg.buffer_capacity,
                           with_logits=(kind == "reservoir-with-logits"),
                           seed=derive_seed(cfg.seed, purpose="reservoir"))


def run_experiment(cfg: ExperimentConfig) -> RunReport:
    """Full task loop; writes checkpoints and the report into output_dir."""
    start = time.time()
    out_dir = Path(cfg.output_dir)
    ckpt_dir = out_dir / "checkpoints"
    ckpt_dir.mkdir(parents=True, exist_ok=True)
    train_stream, test_stream = _build_streams(cfg)
    t_count = cfg.n_tasks
    buffer = _make_buffer(cfg)
    info = cfg.method.info
    reg = None

    clean_m = AccuracyMatrix(t_count)
    robust_m = AccuracyMatrix(t_count)
    logs: list[dict] = []
    stored_per_task: list[int] = []
    snapshots: list[Network] = []
    net: Network | None = None
    teacher: Network | None = None
    bwt: float | None = None
    flat: FlatnessReport | None = None

    input_dim = train_stream.tasks[0].input_dim
    try:
        for t in range(t_count):
            if net is None:
                net = Network.init_mlp(input_dim, cfg.hidden, cfg.classes_per_task,
                                       activation=cfg.activation,
                                       seed=derive_seed(cfg.seed, 0, 0, "model-init"))
            else:
                teacher = snapshot(net)
                net = expand_head(net, cfg.classes_per_task,
                                  seed=derive_seed(cfg.seed, t, 0, "head-init"))
            if info.reg is not None:
                reg = RegState.zeros(net) if reg is None else reg.expand_to(net)
                reg.anchor = net.flatten().vector.copy()
            net, task_log = run_task(net, teacher, train_stream.tasks[t], buffer,
                                     cfg.method, cfg.schedule, reg=reg,
                                     root_seed=cfg.seed, task_index=t + 1)
            logs.extend(task_log)
            if cfg.method.buffer_kind == "herding" and buffer is not None:
                buffer_update_herding(buffer, net, train_stream.tasks[t])
            stored_per_task.append(len(buffer) if buffer is not None else 0)
            snap = snapshot(net)
            snapshots.append(snap)
            save_checkpoint(snap, str(ckpt_dir / f"task_{t + 1:03d}"))
            for j in range(t + 1):
                clean_m.set(t, j, accuracy(snap, test_stream.tasks[j]))
                atk = replace(cfg.eval_attack,
                              clamp_range=test_stream.tasks[j].value_range,
                              seed=derive_seed(cfg.seed, t + 1, 0, "eval-attack",
                                               extra=j))
                robust_m.set(t, j, robust_accuracy(snap, test_stream.tasks[j], atk))
        if t_count >= 2:
            bwt = r_bwt(robust_m)
            flat = flatness_forgetting(snapshots, test_stream.tasks[:t_count - 1],
                                       scalar_def=cfg.flatness_scalar,
                                       subsample=cfg.flatness_subsample,
                                       seed=cfg.seed)
    except Exception:
        # flush whatever is complete so a crashed run still leaves evidence
        partial = RunReport(
            version=__version__, config_sha256=cfg.sha256,
            method=cfg.method.name, seed=cfg.seed, clean_matrix=clean_m,
            robust_matrix=robust_m, r_bwt=bwt, flatness=None,
            final_clean=None, final_robust=None,
            buffer_capacity=cfg.buffer_capacity,
            buffer_stored_per_task=stored_per_task, task_logs=logs,
            config_text=cfg.raw_text, wall_clock_sec=time.time() - start)
        emit_report(partial, cfg.output_dir)
        raise

    report = RunReport(
        version=__version__, config_sha256=cfg.sha256, method=cfg.method.name,
        seed=cfg.seed, clean_matrix=clean_m, robust_matrix=robust_m,
        r_bwt=bwt, flatness=flat,
        final_clean=clean_m.final_row_mean(),
        final_robust=robust_m.final_row_mean(),
        buffer_capacity=cfg.buffer_capacity,
        buffer_stored_per_task=stored_per_task, task_logs=logs,
        config_text=cfg.raw_text, wall_clock_sec=time.time() - start)
    emit_report(report, cfg.output_dir)
    return report

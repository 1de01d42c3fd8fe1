"""Task streams, replay buffers, and the per-task training loop.

A task stream is an ordered list of class-disjoint datasets. Replay
comes in two flavours: herding exemplars, a plain `Dataset` rebuilt at
each task end and appended to the next task's training pool, and an
online reservoir, sampled as a separate replay batch, that can also pin
the model's logits at insertion time. `run_task` drives one task of
adversarial training for any registered method.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from . import autodiff as ad
from . import losses, methods
from .attacks import AttackConfig, pgd
from .data import VALUE_RANGE, Dataset, augment
from .errors import (ArgumentError, ConfigurationError, ContractError,
                     DimensionError, LabelError, NumericError)
from .methods import MethodConfig, RegState
from .metrics import accuracy
# snapshot is kept as a module name: perfbench/tracer.py wraps it here
from .network import Network, Passes, sgd_step, snapshot  # noqa: F401
from .seeding import derive_rng, derive_seed

Array = np.ndarray


# ---------------------------------------------------------------------------
# task streams


def split_order(n_classes: int, n_tasks: int, classes_per_task: int,
                class_order: Sequence[int] | None = None) -> list[int]:
    """The class order of a valid split; raises ArgumentError otherwise."""
    if n_tasks < 1 or classes_per_task < 1:
        raise ArgumentError("n_tasks and classes_per_task must be positive")
    if n_tasks * classes_per_task != n_classes:
        raise ArgumentError(
            f"{n_classes} classes do not divide into {n_tasks} tasks "
            f"of {classes_per_task}")
    order = list(range(n_classes)) if class_order is None else [int(c) for c in class_order]
    if sorted(order) != list(range(n_classes)):
        raise ArgumentError("class_order must be a permutation of all classes")
    return order


def split_dataset(dataset: Dataset, n_tasks: int, classes_per_task: int,
                  class_order: Sequence[int] | None = None,
                  seed: int = 0) -> list[Dataset]:
    """Partition a dataset into class-disjoint tasks.

    `class_order` permutes the original class ids; labels are remapped to
    their position in that order so heads grow contiguously. The class
    count must split exactly into n_tasks * classes_per_task.
    """
    n_classes = dataset.n_classes
    order = split_order(n_classes, n_tasks, classes_per_task, class_order)
    position = {orig: pos for pos, orig in enumerate(order)}
    new_labels = np.asarray([position[int(c)] for c in dataset.labels], dtype=np.int64)
    tasks = []
    for t in range(n_tasks):
        lo, hi = t * classes_per_task, (t + 1) * classes_per_task
        idx = np.nonzero((new_labels >= lo) & (new_labels < hi))[0]
        rng = derive_rng(seed, task=t, purpose="shuffle")
        idx = idx[rng.permutation(idx.size)]
        tasks.append(Dataset(dataset.inputs[idx], new_labels[idx], n_classes))
    return tasks


# ---------------------------------------------------------------------------
# herding exemplar selection


def herding_select(features: Array, m: int) -> list[int]:
    """Greedy herding order: each pick keeps the running mean closest
    (L2) to the class mean; ties go to the lowest index."""
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[0] == 0:
        raise ArgumentError("herding needs a nonempty (n, d) feature matrix")
    n = features.shape[0]
    if not 0 < m <= n:
        raise ArgumentError(f"cannot select {m} of {n} examples")
    target = features.mean(axis=0)
    selected: list[int] = []
    running = np.zeros(features.shape[1])
    available = np.ones(n, dtype=bool)
    for k in range(1, m + 1):
        cand_means = (running + features) / k
        dists = np.linalg.norm(target - cand_means, axis=1)
        dists[~available] = np.inf
        pick = int(np.argmin(dists))
        selected.append(pick)
        running += features[pick]
        available[pick] = False
    return selected


def buffer_update_herding(exemplars: Dataset | None, model: Network,
                          task_dataset: Dataset, capacity: int) -> Dataset:
    """The exemplar set after a finished task, at most `capacity` rows.

    Every head class of `model` gets a quota of floor(capacity / classes),
    with the remainder going to the lowest class ids. A class of the task
    is herded from the task; any other class keeps a prefix of its stored
    herding order. Rows are grouped by ascending class id.
    """
    if capacity < 1:
        raise ArgumentError("capacity must be positive")
    n_classes = model.out_dim
    task_classes = set(np.unique(task_dataset.labels).tolist())
    if task_classes and max(task_classes) >= n_classes:
        raise LabelError(f"task labels reach past the model's {n_classes} classes")
    base, rem = divmod(capacity, n_classes)
    parts: list[Dataset] = []
    for c in range(n_classes):
        quota = base + (1 if c < rem else 0)
        if c in task_classes:
            idx = task_dataset.class_indices(c)
            m = min(quota, idx.size)
            order = herding_select(model.features(task_dataset.inputs[idx]), m) if m else []
            parts.append(task_dataset.subset(idx[np.asarray(order, dtype=np.intp)]))
        elif exemplars is not None:
            parts.append(exemplars.subset(exemplars.class_indices(c)[:quota]))
    kept = Dataset(np.concatenate([p.inputs for p in parts]),
                   np.concatenate([p.labels for p in parts]), task_dataset.n_classes)
    if len(kept) > capacity:
        raise ContractError("herding exemplars exceeded their capacity")
    return kept


# ---------------------------------------------------------------------------
# reservoir buffer


class ReservoirBuffer:
    """Classic reservoir sampler over a stream, optionally pinning logits.
    Each stored row is one `(x, y, logits)` tuple, logits None when unpinned."""

    def __init__(self, capacity: int, with_logits: bool = False, seed: int = 0):
        if capacity < 1:
            raise ArgumentError("capacity must be positive")
        self.capacity = int(capacity)
        self.with_logits = with_logits
        self.seen_count = 0
        self._rows: list[tuple[Array, int, Array | None]] = []
        self._rng = derive_rng(seed, purpose="reservoir")

    def __len__(self) -> int:
        return len(self._rows)

    def sample_batch(self, n: int, rng: np.random.Generator
                     ) -> tuple[Array, Array, list[Array | None]]:
        k = min(n, len(self._rows))
        rows = [self._rows[i] for i in rng.choice(len(self._rows), size=k, replace=False)]
        xs = np.stack([x for x, _, _ in rows]) if k else np.zeros((0, 0))
        ys = np.asarray([y for _, y, _ in rows], dtype=np.int64)
        return xs, ys, [z for _, _, z in rows]


def reservoir_update(buffer: ReservoirBuffer, sample: tuple[Array, int],
                     logits: Array | None = None) -> ReservoirBuffer:
    """Offer one stream element; retention follows capacity/seen_count."""
    x, y = sample
    x = np.asarray(x, dtype=np.float64).copy()
    if buffer._rows and x.shape != buffer._rows[0][0].shape:
        raise DimensionError(f"row shape {x.shape} != stored shape "
                             f"{buffer._rows[0][0].shape}")
    y = int(losses._integer_labels([y])[0])
    z = None if logits is None else np.asarray(logits, dtype=np.float64).copy()
    if buffer.with_logits and z is None:
        raise ConfigurationError("this reservoir stores logits; none were given")
    buffer.seen_count += 1
    if len(buffer) < buffer.capacity:
        buffer._rows.append((x, y, z))
        return buffer
    j = int(buffer._rng.integers(0, buffer.seen_count))
    if j < buffer.capacity:
        buffer._rows[j] = (x, y, z)
    return buffer


# ---------------------------------------------------------------------------
# schedules and the task loop

LR_DECAY = 0.1             # learning-rate factor at each milestone
LOG_SUBSAMPLE = 64         # examples in each per-epoch clean/robust log
FISHER_EXAMPLES = 256      # attacked examples behind each EWC Fisher refresh


@dataclass(frozen=True)
class Schedule:
    epochs: int
    lr: float
    batch_size: int
    weight_decay: float = 1e-5
    milestones: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.batch_size < 1:
            raise ArgumentError(f"batch_size must be at least 1, got {self.batch_size}")
        if not all(np.isfinite(v) and v >= 0 for v in (self.lr, self.weight_decay)):
            raise ArgumentError("lr and weight_decay must be finite and nonnegative")

    # reference milestones (24, 31, 40) assume a 50-epoch task; scale them,
    # never below epoch 1, so the first epoch always trains at `lr`
    def resolved_milestones(self) -> tuple[int, ...]:
        if self.milestones is not None:
            return tuple(self.milestones)
        return tuple(max(1, round(self.epochs * m / 50)) for m in (24, 31, 40))

    def lr_at(self, epoch: int) -> float:
        drops = sum(1 for m in self.resolved_milestones() if epoch >= m)
        return self.lr * (LR_DECAY ** drops)


def _params_digest(net: Network) -> str:
    return hashlib.sha256(net.flatten().tobytes()).hexdigest()


def run_task(student: Network, teacher: Network | None, task_data: Dataset,
             buffer, method_cfg: MethodConfig, schedule: Schedule, *,
             reg: RegState | None = None, root_seed: int = 0,
             task_index: int = 1) -> tuple[Network, list[dict]]:
    """Train the (already head-expanded) student on one task.

    Per batch: optional augmentation, PGD with the method's attack
    config, the method loss, one SGD step. An attack with `clamp_range`
    None is clamped to `VALUE_RANGE` all the same: the per-epoch evaluation
    wraps the attacked points in a `Dataset`, which rejects points outside
    it. A herding `Dataset` joins the training pool; a reservoir gives each
    batch a separate replay batch, attacked in the batch's own PGD call.
    Returns the trained network and per-epoch rows (task, epoch,
    train_loss, clean_acc, robust_acc). The teacher is never touched; this
    is checked by hashing. A non-finite loss, or a numpy fault trapped by
    `np.errstate` (`run_experiment` traps them), raises `NumericError`
    naming the task, epoch and batch.
    """
    if len(task_data) == 0:
        raise ArgumentError(f"task {task_index} has no training examples")
    if student.frozen:
        raise ContractError("cannot train a frozen network")
    if teacher is not None and not teacher.frozen:
        raise ContractError("the teacher must be a frozen snapshot")
    teacher_digest = _params_digest(teacher) if teacher is not None else None

    info = method_cfg.info
    pool_x, pool_y = task_data.inputs, task_data.labels
    if isinstance(buffer, Dataset):
        pool_x = np.concatenate([pool_x, buffer.inputs])
        pool_y = np.concatenate([pool_y, buffer.labels])
    n_pool = pool_x.shape[0]
    attack_base = method_cfg.attack
    if attack_base.clamp_range is None:
        attack_base = replace(attack_base, clamp_range=VALUE_RANGE)

    log: list[dict] = []
    for epoch in range(schedule.epochs):
        lr = schedule.lr_at(epoch)
        order = derive_rng(root_seed, task_index, epoch, "shuffle").permutation(n_pool)
        buffer_rng = derive_rng(root_seed, task_index, epoch, "buffer-draw")
        epoch_losses: list[float] = []
        for b, start in enumerate(range(0, n_pool, schedule.batch_size)):
            idx = order[start:start + schedule.batch_size]
            x, y = pool_x[idx], pool_y[idx]
            try:
                if method_cfg.augment:
                    x = augment(x, derive_rng(root_seed, task_index, epoch,
                                              "augment", extra=b))
                atk = replace(attack_base, seed=derive_seed(root_seed, task_index,
                                                            epoch, "attack", b))
                replay = None
                if isinstance(buffer, ReservoirBuffer) and len(buffer) > 0:
                    xb, yb, zb = buffer.sample_batch(schedule.batch_size, buffer_rng)
                    # one call attacks the batch and the replay batch, each
                    # part with its own seed and batch mean
                    parts = ((len(x), atk.seed), (len(xb), derive_seed(
                        root_seed, task_index, epoch, "attack-buffer", b)))
                    both = pgd(student, np.concatenate([x, xb]),
                               np.concatenate([y, yb]), atk, parts=parts)
                    x_adv, replay = both[:len(x)], (both[len(x):], yb, zb)
                else:
                    x_adv = pgd(student, x, y, atk)

                passes = Passes(student)
                loss, terms = methods.build_training_loss(
                    method_cfg, passes, teacher, x, y, x_adv, replay, reg)
                if not np.isfinite(float(loss.value)):
                    raise NumericError(f"non-finite loss; terms {terms}")
                ad.backward(loss)
                grads = passes.grads()
                before = passes.params.value
                after = sgd_step(before, grads, lr, schedule.weight_decay)
                student.load_params(after)
                if info.reg == "si" and reg is not None:
                    methods.si_step(reg, grads, after - before)
                if (epoch == 0 and isinstance(buffer, ReservoirBuffer)):
                    z_batch = student.forward(x) if buffer.with_logits else None
                    for i in range(x.shape[0]):
                        reservoir_update(buffer, (x[i], int(y[i])),
                                         None if z_batch is None else z_batch[i])
            except (NumericError, FloatingPointError) as exc:
                raise NumericError(f"task {task_index} epoch {epoch} "
                                   f"batch {b}: {exc}") from exc
            epoch_losses.append(float(loss.value))

        row = {"task": task_index, "epoch": epoch, "train_loss": float(np.mean(epoch_losses))}
        row.update(_epoch_eval(student, task_data, attack_base, root_seed,
                               task_index, epoch))
        log.append(row)

    if info.reg == "ewc" and reg is not None and schedule.epochs > 0:
        _refresh_fisher(student, task_data, attack_base, reg, root_seed,
                        task_index, schedule.batch_size)
    if info.reg == "si" and reg is not None and schedule.epochs > 0:
        methods.si_consolidate(reg, student)

    if teacher is not None and _params_digest(teacher) != teacher_digest:
        raise ContractError("teacher parameters changed during training")
    return student, log


def _epoch_eval(student: Network, task_data: Dataset, attack: AttackConfig,
                root_seed: int, task_index: int, epoch: int) -> dict:
    n = len(task_data)
    rng = derive_rng(root_seed, task_index, epoch, "log-subsample")
    sub = task_data.subset(rng.choice(n, size=min(LOG_SUBSAMPLE, n), replace=False))
    atk = replace(attack, objective="ce",
                  seed=derive_seed(root_seed, task_index, epoch, "eval-attack"))
    x_adv = pgd(student, sub.inputs, sub.labels, atk)
    return {"clean_acc": accuracy(student, sub),
            "robust_acc": accuracy(student, replace(sub, inputs=x_adv))}


def _refresh_fisher(student: Network, task_data: Dataset, attack: AttackConfig,
                    reg: RegState, root_seed: int, task_index: int,
                    batch_size: int) -> None:
    rng = derive_rng(root_seed, task_index, 0, "fisher-attack")
    n = len(task_data)
    idx = rng.choice(n, size=min(FISHER_EXAMPLES, n), replace=False)
    batches = []
    for start in range(0, idx.size, batch_size):
        part = idx[start:start + batch_size]
        x, y = task_data.inputs[part], task_data.labels[part]
        atk = replace(attack, seed=derive_seed(root_seed, task_index, 0,
                                               "fisher-attack", extra=start + 1))
        batches.append((pgd(student, x, y, atk), y))
    methods.refresh_fisher(reg, student, batches)

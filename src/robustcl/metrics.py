"""Evaluation protocol: accuracies, backward transfer, flatness, landscapes.

Robust accuracy attacks every example with PGD; with several restarts an
example only counts as correct when it survives all of them. Gradient and
Hessian forgetting compare input-space derivatives of the cross-entropy
at the true label, of the final model against each per-task model, on
that task's test data. The loss is a row sum of per-example CE, so each
row's input gradient is that example's own: the gradients of a whole
subsample come from one `grad_input` call, and each input Hessian batches
its 2d probes, at `HESSIAN_STEP` and up to `HESSIAN_DIM_CAP` inputs, into
one call per point. Landscape grids sweep the loss along an adversarial direction and
a random sign direction.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from . import autodiff as ad
from . import losses
from .attacks import AttackConfig, pgd
from .data import Dataset
from .errors import ArgumentError, UndefinedValueError
from .network import (HESSIAN_DIM_CAP, HESSIAN_STEP, Network, fd_hessian, fd_probes,
                      grad_input)
# kept as module names: perfbench/tracer.py wraps each name it traces here
from .network import hessian_input, snapshot  # noqa: F401
from .seeding import derive_rng, derive_seed

Array = np.ndarray


# ---------------------------------------------------------------------------
# accuracies


def accuracy(model: Network, dataset: Dataset) -> float:
    """Percentage of argmax-correct predictions (ties go to the lowest class)."""
    if len(dataset) == 0:
        raise UndefinedValueError("accuracy is undefined on an empty dataset")
    preds = np.argmax(model.forward(dataset.inputs), axis=1)
    return float(np.mean(preds == dataset.labels) * 100.0)


def robust_accuracy(model: Network, dataset: Dataset, attack_cfg: AttackConfig) -> float:
    """Accuracy under per-example PGD; restarts are AND-ed per example."""
    if len(dataset) == 0:
        raise UndefinedValueError("robust accuracy is undefined on an empty dataset")
    if attack_cfg.n_steps < 1:
        raise ArgumentError("robust accuracy needs at least one attack step")
    x, y = dataset.inputs, dataset.labels
    correct = np.ones(len(dataset), dtype=bool)
    base = replace(attack_cfg, n_restarts=1)
    for restart in range(attack_cfg.n_restarts):
        cfg = replace(base, seed=derive_seed(attack_cfg.seed, purpose="eval-attack",
                                             extra=restart))
        x_adv = pgd(model, x, y, cfg)
        correct &= np.argmax(model.forward(x_adv), axis=1) == y
    return float(np.mean(correct) * 100.0)


# ---------------------------------------------------------------------------
# backward transfer


def r_bwt(rows: Sequence[Sequence[float]]) -> float:
    """Robust backward transfer from the complete robust accuracy-matrix rows
    (row i holds tasks 0..i): mean over past tasks of (final - when-learned)."""
    if len(rows) < 2:
        raise UndefinedValueError("backward transfer needs at least two tasks")
    return float(np.mean([rows[-1][j] - rows[j][j] for j in range(len(rows) - 1)]))


# ---------------------------------------------------------------------------
# gradient / Hessian forgetting


@dataclass(frozen=True)
class FlatnessReport:
    gf: float
    hf: float | None
    per_task_gf: tuple[float, ...]
    per_task_hf: tuple[float, ...] | None


def _ce_row_sum(z, y):
    # a row sum of per-example CE: row k's input gradient is example k's own,
    # so one call serves a whole batch
    return ad.sum_all(losses.ce_rows(z, y))


def _probe_hessian(model: Network, x_row: Array, label) -> Array:
    """Input Hessian of the CE at one point from one gradient over its 2d probes."""
    probes = fd_probes(x_row, HESSIAN_STEP)
    return fd_hessian(grad_input(model, _ce_row_sum, probes,
                                 np.full(len(probes), label)), HESSIAN_STEP)


def flatness_forgetting(models: Sequence[Network], task_testsets: Sequence[Dataset],
                        subsample: int = 64, seed: int = 0) -> FlatnessReport:
    """Mean input-gradient and input-Hessian drift of the final model.

    For each past task i, draws a seeded subsample of its test set and
    averages ||grad_x CE_T(x, y) - grad_x CE_i(x, y)||_2 at the true label;
    the Hessian counterpart uses the Frobenius norm. Hessians are skipped
    (hf=None) above `HESSIAN_DIM_CAP`. Per model, the gradients take one
    `grad_input` call over the whole subsample and each Hessian one over
    its point's probes.
    """
    if subsample < 1:
        raise ArgumentError(f"flatness subsample must be at least 1, got {subsample}")
    if len(models) < 2:
        raise UndefinedValueError("flatness forgetting needs at least two models")
    if len(task_testsets) < len(models) - 1:
        raise ArgumentError("need one test set per past task")
    final = models[-1]
    input_dim = final.input_dim
    if any(m.input_dim != input_dim for m in models):
        raise ArgumentError("all models must share input_dim")
    hf_ok = input_dim <= HESSIAN_DIM_CAP
    gf_per: list[float] = []
    hf_per: list[float] = []
    for i, past in enumerate(models[:-1]):
        ds = task_testsets[i]
        if len(ds) == 0:
            raise UndefinedValueError("empty test set for flatness estimation")
        rng = derive_rng(seed, task=i, purpose="subsample")
        idx = rng.choice(len(ds), size=min(subsample, len(ds)), replace=False)
        x, y = ds.inputs[idx], ds.labels[idx]
        g_drift = np.linalg.norm(grad_input(final, _ce_row_sum, x, y)
                                 - grad_input(past, _ce_row_sum, x, y), axis=1)
        gf_per.append(float(np.mean(g_drift)))
        if hf_ok:
            h_drift = [np.linalg.norm(_probe_hessian(final, x_row, label)
                                      - _probe_hessian(past, x_row, label), ord="fro")
                       for x_row, label in zip(x, y)]
            hf_per.append(float(np.mean(h_drift)))
    gf = float(np.mean(gf_per))
    hf = float(np.mean(hf_per)) if hf_ok else None
    return FlatnessReport(gf, hf, tuple(gf_per), tuple(hf_per) if hf_ok else None)


# ---------------------------------------------------------------------------
# loss-landscape grids


def landscape_grid(model: Network, x: Array, y: int, attack_cfg: AttackConfig,
                   extent: float, n: int) -> Array:
    """Cross-entropy over a 2-D slice of input space around `x`.

    Axis u is the (max-normalized) PGD perturbation direction at x; axis v
    is a seeded random sign direction. Entry [a, b] is the loss at
    x + u * s_a + v * s_b with s = linspace(-extent, extent, n).
    """
    if n < 2:
        raise ArgumentError("grid needs n >= 2")
    x = np.asarray(x, dtype=np.float64)
    y_arr = np.asarray([int(y)])
    x_adv = pgd(model, x[None, :], y_arr, attack_cfg)[0]
    delta = x_adv - x
    peak = np.abs(delta).max()
    u = delta / peak if peak > 0 else np.zeros_like(delta)
    rng = derive_rng(attack_cfg.seed, purpose="landscape")
    v = rng.integers(0, 2, size=x.shape).astype(np.float64) * 2.0 - 1.0
    s = np.linspace(-extent, extent, n)
    points = (x[None, None, :] + s[:, None, None] * u[None, None, :]
              + s[None, :, None] * v[None, None, :]).reshape(n * n, -1)
    logits = model.forward(points)
    rows = losses.ce_rows(logits, np.full(n * n, int(y), dtype=np.int64))
    return rows.value.reshape(n, n).copy()

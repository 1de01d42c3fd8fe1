"""L-infinity PGD attacks with pluggable objectives.

The solver ascends the sign of the objective's input gradient, projects
back into the epsilon ball (and the data range, when declared), and
tracks the best-objective iterate per example. With several restarts it
keeps, per example, the restart point with the highest objective value.
Everything is deterministic given the config seed.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from . import autodiff as ad
from . import losses
from .errors import ArgumentError, ConfigurationError, ContractError
from .network import Network

Array = np.ndarray
Objective = Callable[[ad.Node], ad.Node]  # input node -> per-example values

OBJECTIVES = ("ce", "kl-vs-clean", "bce-newslice")


def parse_rational(value) -> float:
    """Accept numbers or exact rational strings such as "8/255"."""
    if isinstance(value, (int, float)):
        return float(value)
    try:
        return float(Fraction(str(value)))
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigurationError(f"cannot parse rational literal {value!r}") from exc


@dataclass(frozen=True)
class AttackConfig:
    epsilon: float
    step_size: float
    n_steps: int
    random_start: bool = True
    objective: str = "ce"
    clamp_range: tuple[float, float] | None = None
    n_restarts: int = 1
    seed: int = 0

    def __post_init__(self):
        if not np.isfinite(self.epsilon) or self.epsilon < 0:
            raise ConfigurationError("epsilon must be finite and nonnegative")
        if not np.isfinite(self.step_size) or self.step_size < 0:
            raise ConfigurationError("step_size must be finite and nonnegative")
        if self.n_steps < 0:
            raise ConfigurationError("n_steps must be nonnegative")
        if self.n_restarts < 1:
            raise ConfigurationError("n_restarts must be positive")
        if self.objective not in OBJECTIVES:
            raise ConfigurationError(f"unknown attack objective {self.objective!r}")
        if self.clamp_range is not None:
            lo, hi = self.clamp_range
            if not lo < hi:
                raise ConfigurationError("clamp_range must satisfy lo < hi")


# ---------------------------------------------------------------------------
# objectives: per-example values (maximized) as a graph of the input node


def _make_objective(model: Network, x_clean: Array, y: Array,
                    cfg: AttackConfig) -> Objective:
    if cfg.objective == "ce":
        return lambda xn: losses.ce_rows(model.forward_graph(xn), y)

    if cfg.objective == "kl-vs-clean":
        clean_logits = model.forward(x_clean)
        return lambda xn: losses.kl_rows(model.forward_graph(xn), clean_logits)

    # bce-newslice: multilabel BCE on the most recent task's columns
    if model.n_tasks < 2:
        raise ConfigurationError("bce-newslice objective needs at least two task heads")
    start, end = losses.slice_bounds(model.head_boundaries, model.n_tasks - 1, model.n_tasks)
    targets = losses.one_hot_in_slice(y, start, end)
    return lambda xn: losses.bce_rows(
        ad.take_cols(model.forward_graph(xn), slice(start, end)), targets)


def _values_and_grad(objective: Objective, x_cur: Array) -> tuple[Array, Array]:
    """Per-example objective values and the input gradient of their mean."""
    xn = ad.Node(x_cur)
    rows = objective(xn)
    ad.backward(ad.mean_all(rows))
    return rows.value, xn.grad


def _project(x_cur: Array, x: Array, cfg: AttackConfig) -> Array:
    x_cur = np.clip(x_cur, x - cfg.epsilon, x + cfg.epsilon)
    if cfg.clamp_range is not None:
        lo, hi = cfg.clamp_range
        x_cur = np.clip(x_cur, lo, hi)
    return x_cur


def _restart_attack(objective: Objective, x: Array, cfg: AttackConfig,
                    restart: int) -> tuple[Array, Array]:
    """One restart; returns (best points, best per-example objective values)."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=cfg.seed,
                                                       spawn_key=(restart,)))
    if cfg.random_start:
        x_cur = _project(x + rng.uniform(-cfg.epsilon, cfg.epsilon, size=x.shape), x, cfg)
    else:
        x_cur = x.copy()
    best_x = x_cur.copy()
    best_v = np.full(x.shape[0], -np.inf)
    for _ in range(cfg.n_steps):
        values, grad = _values_and_grad(objective, x_cur)
        improved = values > best_v
        best_v[improved] = values[improved]
        best_x[improved] = x_cur[improved]
        x_cur = _project(x_cur + cfg.step_size * np.sign(grad), x, cfg)
    # the last iterate's gradient would go unused: evaluate it as a constant
    values = objective(ad.lift(x_cur)).value
    improved = values > best_v
    best_v[improved] = values[improved]
    best_x[improved] = x_cur[improved]
    return best_x, best_v


def pgd(model: Network, x: Array, y, cfg: AttackConfig) -> Array:
    """Projected gradient ascent inside the L-inf epsilon ball around `x`.

    Returns, per example, the visited point with the highest objective
    value; with several restarts, the best point across restarts.
    """
    if not model.frozen:
        raise ContractError("attacks require a frozen model; use snapshot() first")
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if cfg.clamp_range is not None:
        lo, hi = cfg.clamp_range
        if x.size and (x.min() < lo or x.max() > hi):
            raise ArgumentError("inputs must lie inside the clamp range")
    objective = _make_objective(model, x, y, cfg)
    best_x, best_v = _restart_attack(objective, x, cfg, 0)
    for restart in range(1, cfg.n_restarts):
        cand_x, cand_v = _restart_attack(objective, x, cfg, restart)
        improved = cand_v > best_v
        best_v[improved] = cand_v[improved]
        best_x[improved] = cand_x[improved]
    return best_x


def fgsm(model: Network, x: Array, y, epsilon: float, objective: str = "ce",
         clamp_range: tuple[float, float] | None = None) -> Array:
    """Single-step signed-gradient attack: PGD with one full-size step."""
    cfg = AttackConfig(epsilon=epsilon, step_size=epsilon, n_steps=1,
                       random_start=False, objective=objective,
                       clamp_range=clamp_range, n_restarts=1, seed=0)
    return pgd(model, x, y, cfg)


def attack_objective_values(model: Network, x_points: Array, x_clean: Array, y,
                            cfg: AttackConfig) -> Array:
    """Per-example objective values at given points (for tests and tracking)."""
    if not model.frozen:
        raise ContractError("attacks require a frozen model; use snapshot() first")
    objective = _make_objective(model, np.asarray(x_clean, dtype=np.float64),
                                np.asarray(y, dtype=np.int64), cfg)
    return objective(ad.lift(np.asarray(x_points, dtype=np.float64))).value


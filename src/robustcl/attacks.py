"""L-infinity PGD attacks with pluggable objectives.

The solver ascends the sign of the objective's input gradient from one
start, projects back into the epsilon ball (and the data range, when
declared), and tracks the best-objective iterate per example. Restarts are
an evaluation device: `metrics.robust_accuracy` runs one attack per start.
Everything is deterministic given the config seed. One call can also
attack several batches stacked in `x` (`pgd`'s `parts`): each keeps its
own seed and batch mean, so its rows come out as a call of their own
would return them.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from . import autodiff as ad
from . import losses
from .errors import ArgumentError, ConfigurationError, DimensionError
from .network import Network

Array = np.ndarray
# logits -> (per-example objective values, d sum(w * values) / d logits),
# where w weights each row by 1 / the rows of its part
Head = Callable[[Array], tuple[Array, Array]]

OBJECTIVES = ("ce", "kl-vs-clean", "bce-newslice")


def parse_rational(value, what: str = "a radius") -> float:
    """Accept numbers (not booleans) or exact rational strings such as "8/255"."""
    if isinstance(value, bool):
        raise ConfigurationError(f"{what} must be a number, got {value!r}")
    try:
        if isinstance(value, (int, float)):
            return float(value)
        return float(Fraction(str(value)))
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise ConfigurationError(f"{what} must be a rational, got {value!r}") from exc


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
# objectives: heads that map logits to per-example values (maximized) and
# the gradient of their per-part means w.r.t. the logits. `Network.input_vjp`
# carries that gradient back to the input, so no attack step builds a graph
# through the network.


def _ce_head(y: Array, w: Array) -> Head:
    """Cross-entropy in closed form: the ops of the graph's VJP chain."""
    def head(logits: Array) -> tuple[Array, Array]:
        out = ad._log_softmax(logits)
        rows = np.arange(logits.shape[0])
        g = np.zeros(logits.shape)
        g[rows, y] = -w
        return -out[rows, y], g - np.exp(out) * g.sum(axis=1, keepdims=True)

    return head


def _graph_head(rows_of: Callable[[ad.Node], ad.Node], w: Array) -> Head:
    """A per-row loss graph, differentiated on a logits leaf only."""
    def head(logits: Array) -> tuple[Array, Array]:
        z = ad.Node(logits)
        rows = rows_of(z)
        ad.backward(ad.sum_all(ad.mul(rows, w)))
        return rows.value, z.grad

    return head


def _make_head(model: Network, x_clean: Array, y: Array, cfg: AttackConfig,
               w: Array | None = None) -> Head:
    """The objective's head; row weights `w` default to one batch mean."""
    if w is None:
        w = np.full(len(y), 1.0 / len(y))
    if cfg.objective == "ce":
        return _ce_head(losses._check_labels(y, model.out_dim), w)

    if cfg.objective == "kl-vs-clean":
        clean_logits = model.forward(x_clean)
        return _graph_head(lambda z: losses.kl_rows(z, clean_logits), w)

    # bce-newslice: multilabel BCE on the newest task's columns, which on a
    # single-task head are the whole head
    start, end = losses.slice_bounds(model.head_boundaries, model.n_tasks - 1, model.n_tasks)
    targets = losses.one_hot_in_slice(y, start, end)
    return _graph_head(lambda z: losses.bce_rows(ad.take_cols(z, slice(start, end)),
                                                 targets), w)


def _values_and_grad(model: Network, head: Head, x_cur: Array) -> tuple[Array, Array]:
    """Per-example objective values and the input gradient of their mean."""
    logits, vjp = model.input_vjp(x_cur)
    values, grad = head(logits)
    return values, vjp(grad)


def _keep_best(best_x: Array, best_v: Array, x: Array, values: Array) -> None:
    """Per row, keep (x, values) in place of the best point where higher."""
    improved = values > best_v
    best_v[improved] = values[improved]
    best_x[improved] = x[improved]


def _start(x: Array, lo: Array, hi: Array, cfg: AttackConfig,
           parts: Sequence[tuple[int, int]]) -> Array:
    """The first iterate; each part draws its own random start."""
    if not cfg.random_start:
        return x.copy()
    noise = np.concatenate([
        np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(0,)))
        .uniform(-cfg.epsilon, cfg.epsilon, size=(rows, x.shape[1]))
        for rows, seed in parts])
    return np.clip(x + noise, lo, hi)


def pgd(model: Network, x: Array, y, cfg: AttackConfig, *,
        parts: Sequence[tuple[int, int]] | None = None) -> Array:
    """Projected gradient ascent inside the L-inf epsilon ball around `x`.

    Returns, per example, the visited point with the highest objective value.
    It only reads `model`, live or not. It attacks from one start: restarts
    go through `metrics.robust_accuracy`, so `cfg.n_restarts` must be 1.

    `parts` stacks several attacks in one call: `(rows, seed)` pairs that
    tile `x` in order, each with at least one row. Part p draws its random
    start from `seed_p` in place of `cfg.seed`, and its objective is the
    mean over its own rows, so its rows equal those of a separate call
    with that seed (up to the rounding of the stacked matrix products,
    which the sign steps absorb in practice). The default is one part:
    all of `x` with `cfg.seed`.
    """
    if cfg.n_restarts != 1:
        raise ArgumentError(f"pgd attacks from one start, got n_restarts="
                            f"{cfg.n_restarts}; robust_accuracy runs restarts")
    x = model._check_input(x)
    y = np.asarray(y)
    if y.shape != (len(x),):
        raise DimensionError(f"expected {len(x)} labels, got shape {y.shape}")
    y = losses._integer_labels(y)
    if parts is None:
        parts = ((len(x), cfg.seed),) if len(x) else ()
    if any(rows < 1 for rows, _ in parts) or sum(rows for rows, _ in parts) != len(x):
        raise ArgumentError(f"parts {parts} do not tile {len(x)} rows")
    lo, hi = x - cfg.epsilon, x + cfg.epsilon
    if cfg.clamp_range is not None:
        c_lo, c_hi = cfg.clamp_range
        if x.size and (x.min() < c_lo or x.max() > c_hi):
            raise ArgumentError("inputs must lie inside the clamp range")
        # x lies in both boxes, so one clip to their intersection equals
        # clipping to the ball and then to the range
        lo, hi = np.maximum(lo, c_lo), np.minimum(hi, c_hi)
    if len(x) == 0:  # the objectives' batch mean is undefined
        return x.copy()
    w = np.concatenate([np.full(rows, 1.0 / rows) for rows, _ in parts])
    head = _make_head(model, x, y, cfg, w)
    x_cur = _start(x, lo, hi, cfg, parts)
    best_x, best_v = x_cur.copy(), np.full(len(x), -np.inf)
    for _ in range(cfg.n_steps):
        values, grad = _values_and_grad(model, head, x_cur)
        _keep_best(best_x, best_v, x_cur, values)
        x_cur = np.clip(x_cur + cfg.step_size * np.sign(grad), lo, hi)
    # the last iterate's input gradient would go unused
    _keep_best(best_x, best_v, x_cur, head(model.input_vjp(x_cur)[0])[0])
    return best_x

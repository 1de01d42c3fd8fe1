"""Elementary loss primitives over logits.

Every loss consumes pre-softmax logits (plain arrays or graph nodes) and
returns a scalar `Node`, so the same code serves evaluation and training.
The `*_rows` variants return one value per batch row; attack objectives
and per-sample reweighting build on those. All softmax/sigmoid terms are
log-sum-exp stabilized and stay finite for logit magnitudes up to 1e4.
"""
from __future__ import annotations

from typing import Union

import numpy as np

from . import autodiff as ad
from .autodiff import Node
from .errors import ArgumentError, DimensionError, LabelError
from .network import _ACTIVATIONS

Array = np.ndarray
Logits = Union[Node, Array]
_SOFTPLUS = _ACTIVATIONS["softplus"]


def _width(x: Logits) -> int:
    v = x.value if isinstance(x, Node) else np.asarray(x)
    if v.ndim != 2:
        raise DimensionError("logits must be 2-D (batch, classes)")
    return v.shape[1]


def _integer_labels(y) -> Array:
    """`y` as a 1-D int64 array; LabelError if an entry is not an integer."""
    y = np.asarray(y)
    if y.ndim != 1:
        raise DimensionError("labels must be a 1-D integer array")
    if not np.issubdtype(y.dtype, np.integer):
        if not (np.all(np.isfinite(y)) and np.all(y == y.astype(np.int64))):
            raise LabelError("labels must be integers")
    return y.astype(np.int64)


def _check_labels(y, width: int) -> Array:
    y = _integer_labels(y)
    if y.size and (y.min() < 0 or y.max() >= width):
        raise LabelError(f"label outside [0, {width}) range")
    return y


def one_hot(y, width: int) -> Array:
    return one_hot_in_slice(_check_labels(y, width), 0, width)


def one_hot_in_slice(y, start: int, end: int) -> Array:
    """One-hot targets restricted to columns [start, end).

    Labels outside the slice produce an all-zero target row, which is how
    replayed old-class examples enter a new-task multilabel term.
    """
    y = _integer_labels(y)
    t = np.zeros((y.size, end - start))
    inside = (y >= start) & (y < end)
    t[np.nonzero(inside)[0], y[inside] - start] = 1.0
    return t


# ---------------------------------------------------------------------------
# per-row losses


def ce_rows(logits: Logits, y) -> Node:
    """Softmax cross-entropy per row."""
    z = ad.lift(logits)
    y = _check_labels(y, _width(z))
    return ad.neg(ad.take_per_row(ad.log_softmax(z), y))


def bce_rows(logits: Logits, targets: Array) -> Node:
    """Multilabel binary cross-entropy per row, mean over classes.

    Uses -[t*log(sig(z)) + (1-t)*log(1-sig(z))] = t*softplus(-z) +
    (1-t)*softplus(z), which never under/overflows.
    """
    z = ad.lift(logits)
    t = np.asarray(targets, dtype=np.float64)
    if t.shape != z.value.shape:
        raise DimensionError(f"target shape {t.shape} != logits shape {z.value.shape}")
    if t.size and (t.min() < 0.0 or t.max() > 1.0):
        raise ArgumentError("BCE targets must lie in [0, 1]")
    elem = ad.add(ad.mul(ad.pointwise(ad.neg(z), *_SOFTPLUS), t),
                  ad.mul(ad.pointwise(z, *_SOFTPLUS), 1.0 - t))
    return ad.sum_axis1(elem) / z.value.shape[1]


def kl_rows(target_logits: Logits, pred_logits: Logits) -> Node:
    """KL(softmax(target) || softmax(pred)) per row.

    Gradients flow through both arguments when both are graph nodes.
    """
    t, p = ad.lift(target_logits), ad.lift(pred_logits)
    if _width(t) != _width(p):
        raise DimensionError("KL arguments must have equal widths")
    lt = ad.log_softmax(t)
    lp = ad.log_softmax(p)
    return ad.sum_axis1(ad.mul(ad.exp(lt), ad.sub(lt, lp)))


def mse_rows(a: Logits, b: Logits) -> Node:
    an, bn = ad.lift(a), ad.lift(b)
    if an.value.shape != bn.value.shape:
        raise DimensionError("MSE arguments must have equal shapes")
    d = ad.sub(an, bn)
    return ad.sum_axis1(ad.mul(d, d)) / an.value.shape[1]


def ace_rows(logits: Logits, y, present_classes) -> Node:
    """Cross-entropy with the softmax denominator restricted to `present_classes`."""
    z = ad.lift(logits)
    width = _width(z)
    present = np.unique(np.asarray(sorted(present_classes), dtype=np.int64))
    if present.size == 0:
        raise ArgumentError("present_classes must be nonempty")
    if present.min() < 0 or present.max() >= width:
        raise ArgumentError("present class outside head range")
    y = _check_labels(y, width)
    pos = np.searchsorted(present, y)
    if np.any(pos >= present.size) or np.any(present[np.minimum(pos, present.size - 1)] != y):
        raise LabelError("label outside the present class set")
    return ce_rows(ad.take_cols(z, present), pos)


# ---------------------------------------------------------------------------
# batch-mean losses


def ce(logits: Logits, y) -> Node:
    """Mean softmax cross-entropy over the batch."""
    return ad.mean_all(ce_rows(logits, y))


def bce_multilabel(logits: Logits, targets: Array) -> Node:
    """Mean multilabel BCE over batch and classes."""
    return ad.mean_all(bce_rows(logits, targets))


def kl_div(target_logits: Logits, pred_logits: Logits) -> Node:
    """Mean KL(softmax(target) || softmax(pred)) over the batch."""
    return ad.mean_all(kl_rows(target_logits, pred_logits))


def mse(a: Logits, b: Logits) -> Node:
    """Mean squared difference over all entries."""
    return ad.mean_all(mse_rows(a, b))


def ace(logits: Logits, y, present_classes) -> Node:
    """Mean asymmetric cross-entropy over the batch."""
    return ad.mean_all(ace_rows(logits, y, present_classes))


def sigmoid(x: Array) -> Array:
    """Stable logistic, used to squash frozen-teacher logits into BCE targets."""
    return ad._sigmoid(np.asarray(x, dtype=np.float64))

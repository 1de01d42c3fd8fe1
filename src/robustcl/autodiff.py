"""Minimal reverse-mode automatic differentiation over numpy float64 arrays.

The op set covers what logit-space losses and parameter penalties need
(broadcasting add/mul, `pointwise`, a stabilized log-softmax, column,
row-slice and per-row gathers, reductions) plus `matmul` for the reference
graph of `network.Network.forward_graph`. Graphs are built per evaluation
and discarded afterwards. A leaf built with ``Node(value)`` is a variable
and keeps the gradient of the last `backward` call; a raw value wrapped by
`lift` (as ops do with array operands) is a constant. A derived node
requires a gradient when a parent does. `backward` works only along paths
to variables: constants (frozen weights, data, teacher logits) cost it
nothing and keep ``.grad is None``. Losses are built on logits leaves;
`network.Network.input_vjp` and `network.Passes` carry a leaf's gradient
back to the input and the parameters.

Gradients are exact (no numerical approximation) and accumulate correctly
when a node is consumed by several downstream ops, including when the
same node appears twice in one op (e.g. ``mul(a, a)``).
"""
from __future__ import annotations

from typing import Callable, Union

import numpy as np

from .errors import ArgumentError, DimensionError

Array = np.ndarray
NodeLike = Union["Node", Array, float, int]


def _as_f64(x) -> Array:
    return np.asarray(x, dtype=np.float64)


class Node:
    """One value in the computation graph plus its local backward rules."""

    __slots__ = ("value", "grad", "requires_grad", "_parents", "_vjps")

    def __init__(self, value, parents: tuple = (), vjps: tuple = ()):
        self.value: Array = _as_f64(value)
        self.grad: Array | None = None
        self.requires_grad: bool = not parents or any(p.requires_grad for p in parents)
        self._parents: tuple[Node, ...] = parents
        self._vjps: tuple[Callable[[Array], Array], ...] = vjps

    def __repr__(self) -> str:
        return f"Node(shape={self.value.shape})"

    def __float__(self) -> float:
        if self.value.size != 1:
            raise DimensionError("only size-1 nodes convert to float")
        return float(self.value)

    # operator sugar; the right-hand side may be a plain array or scalar
    def __add__(self, other): return add(self, other)
    def __radd__(self, other): return add(other, self)
    def __sub__(self, other): return sub(self, other)
    def __rsub__(self, other): return sub(other, self)
    def __mul__(self, other): return mul(self, other)
    def __rmul__(self, other): return mul(other, self)
    def __neg__(self): return neg(self)

    def __truediv__(self, other):
        if isinstance(other, Node):
            raise ArgumentError("node/node division is not supported")
        return mul(self, 1.0 / float(other))


def lift(x: NodeLike) -> Node:
    """Wrap a raw value as a constant leaf; Nodes pass through."""
    if isinstance(x, Node):
        return x
    const = Node(x)
    const.requires_grad = False
    return const


def _unbroadcast(g: Array, shape: tuple[int, ...]) -> Array:
    """Reduce a broadcast gradient back to the parent's shape."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def _sigmoid(x: Array) -> Array:
    # overflow-safe logistic for |x| up to ~1e4 and beyond
    t = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + t), t / (1.0 + t))


# ---------------------------------------------------------------------------
# arithmetic


def add(a: NodeLike, b: NodeLike) -> Node:
    a, b = lift(a), lift(b)
    av, bv = a.value, b.value
    return Node(av + bv, (a, b),
                (lambda g: _unbroadcast(g, av.shape),
                 lambda g: _unbroadcast(g, bv.shape)))


def sub(a: NodeLike, b: NodeLike) -> Node:
    a, b = lift(a), lift(b)
    av, bv = a.value, b.value
    return Node(av - bv, (a, b),
                (lambda g: _unbroadcast(g, av.shape),
                 lambda g: _unbroadcast(-g, bv.shape)))


def neg(a: NodeLike) -> Node:
    a = lift(a)
    return Node(-a.value, (a,), (lambda g: -g,))


def mul(a: NodeLike, b: NodeLike) -> Node:
    a, b = lift(a), lift(b)
    av, bv = a.value, b.value
    return Node(av * bv, (a, b),
                (lambda g: _unbroadcast(g * bv, av.shape),
                 lambda g: _unbroadcast(g * av, bv.shape)))


def matmul(a: NodeLike, b: NodeLike) -> Node:
    a, b = lift(a), lift(b)
    av, bv = a.value, b.value
    return Node(av @ bv, (a, b),
                (lambda g: g @ bv.T,
                 lambda g: av.T @ g))


# ---------------------------------------------------------------------------
# pointwise nonlinearities


def pointwise(a: NodeLike, fn: Callable[[Array], Array],
              deriv: Callable[[Array, Array], Array]) -> Node:
    """Elementwise `fn`; the VJP multiplies by `deriv(input, output)`."""
    a = lift(a)
    pre = a.value
    out = fn(pre)
    return Node(out, (a,), (lambda g: g * deriv(pre, out),))


def exp(a: NodeLike) -> Node:
    a = lift(a)
    e = np.exp(a.value)
    return Node(e, (a,), (lambda g: g * e,))


def _log_softmax(v: Array) -> Array:
    shifted = v - v.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def log_softmax(a: NodeLike) -> Node:
    """Row-wise log-softmax over axis 1, stabilized by the row max."""
    a = lift(a)
    if a.value.ndim != 2:
        raise DimensionError("log_softmax expects a 2-D (batch, classes) array")
    out = _log_softmax(a.value)
    soft = np.exp(out)
    return Node(out, (a,),
                (lambda g: g - soft * g.sum(axis=1, keepdims=True),))


# ---------------------------------------------------------------------------
# gathers and reductions


def take_cols(a: NodeLike, cols) -> Node:
    """Select columns of a 2-D node; `cols` is a slice or unique index array."""
    a = lift(a)
    if a.value.ndim != 2:
        raise DimensionError("take_cols expects a 2-D array")
    if not isinstance(cols, slice):
        cols = np.asarray(cols, dtype=np.intp)
        if cols.size != np.unique(cols).size:
            raise ArgumentError("take_cols requires unique column indices")
    shape = a.value.shape

    def vjp(g: Array) -> Array:
        z = np.zeros(shape)
        z[:, cols] = g
        return z

    return Node(a.value[:, cols], (a,), (vjp,))


def take_rows(a: NodeLike, rows: slice) -> Node:
    """Select a slice of the rows of a 2-D node."""
    a = lift(a)
    if a.value.ndim != 2:
        raise DimensionError("take_rows expects a 2-D array")
    if not isinstance(rows, slice):
        raise ArgumentError("take_rows takes a slice")
    shape = a.value.shape

    def vjp(g: Array) -> Array:
        z = np.zeros(shape)
        z[rows] = g
        return z

    return Node(a.value[rows], (a,), (vjp,))


def take_per_row(a: NodeLike, idx) -> Node:
    """Pick entry `idx[i]` from row i of a 2-D node; returns a 1-D node."""
    a = lift(a)
    if a.value.ndim != 2:
        raise DimensionError("take_per_row expects a 2-D array")
    idx = np.asarray(idx, dtype=np.intp)
    n, k = a.value.shape
    if idx.shape != (n,):
        raise DimensionError("index vector must have one entry per row")
    if idx.size and (idx.min() < 0 or idx.max() >= k):
        raise ArgumentError("row index out of range")
    rows = np.arange(n)
    shape = a.value.shape

    def vjp(g: Array) -> Array:
        z = np.zeros(shape)
        z[rows, idx] = g
        return z

    return Node(a.value[rows, idx], (a,), (vjp,))


def sum_axis1(a: NodeLike) -> Node:
    a = lift(a)
    if a.value.ndim != 2:
        raise DimensionError("sum_axis1 expects a 2-D array")
    shape = a.value.shape
    return Node(a.value.sum(axis=1), (a,),
                (lambda g: np.broadcast_to(g[:, None], shape).copy(),))


def sum_all(a: NodeLike) -> Node:
    a = lift(a)
    shape = a.value.shape
    return Node(a.value.sum(), (a,),
                (lambda g: np.full(shape, float(g)),))


def mean_all(a: NodeLike) -> Node:
    a = lift(a)
    shape = a.value.shape
    size = a.value.size
    return Node(a.value.mean(), (a,),
                (lambda g: np.full(shape, float(g) / size),))


# ---------------------------------------------------------------------------
# backward pass


def backward(root: Node) -> None:
    """Accumulate d(root)/d(node) into `.grad` of every node that requires it.

    `root` must be a scalar. Grads of those nodes are reset first, so leaves
    reused across several forward passes within one graph sum their
    contributions, while stale state from earlier graphs is cleared.
    """
    if root.value.size != 1:
        raise ArgumentError("backward expects a scalar root")
    if not root.requires_grad:
        return
    topo: list[Node] = []
    seen: set[int] = set()
    stack: list[tuple[Node, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        node.grad = None
        stack.append((node, True))
        for parent in node._parents:
            if parent.requires_grad and id(parent) not in seen:
                stack.append((parent, False))
    root.grad = np.ones_like(root.value)
    for node in reversed(topo):
        g = node.grad
        for parent, vjp in zip(node._parents, node._vjps):
            if parent.requires_grad:  # VJPs may return `g` itself: add out of place
                c = vjp(g)
                parent.grad = c if parent.grad is None else parent.grad + c

"""Dense feed-forward networks with a growable, task-partitioned head.

A `Network` is a stack of (weight, bias, activation) layers in float64.
The final layer emits pre-softmax logits; `head_boundaries` records the
cumulative class count after each task so losses can slice the head by
task range. Each activation is one `(fn, deriv)` entry of `_ACTIVATIONS`
that `forward`, `_backward` and `forward_graph` (via `autodiff.pointwise`)
all apply. Every exact gradient is a forward walk that keeps each layer's
activations plus a backward walk through them (`_backward`), to the input
(`input_vjp`) or to the parameters (`Passes`); only the loss on the
logits is a graph, and the gradients equal those of `backward` through
`forward_graph` bit for bit. Input Hessians are central finite
differences of exact input gradients.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Node
from .errors import (ArgumentError, CapacityError, ContractError,
                     DimensionError, NumericError)

Array = np.ndarray

# name -> (fn, deriv(pre-activation, activation)), or None for identity.
# `forward`, `_backward`, `forward_graph` and `losses.bce_rows` all read
# this one entry.
_ACTIVATIONS: dict[str, tuple[Callable, Callable] | None] = {
    "relu": (lambda x: np.maximum(x, 0.0), lambda pre, out: pre > 0),
    "tanh": (np.tanh, lambda pre, out: 1.0 - out * out),
    "softplus": (lambda x: np.logaddexp(0.0, x), lambda pre, out: ad._sigmoid(pre)),
    "identity": None,
}
ACTIVATIONS = tuple(_ACTIVATIONS)

HESSIAN_DIM_CAP = 128
HESSIAN_STEP = 1e-4


@dataclass
class Layer:
    weight: Array       # (fan_in, fan_out)
    bias: Array         # (fan_out,)
    activation: str


def _check_finite(x: Array, what: str) -> None:
    if not np.isfinite(x).all():
        bad = np.argwhere(~np.isfinite(x))
        raise NumericError(f"non-finite values in {what} (first at index {bad[0].tolist()})")


def _walk(h: Array, layers: Sequence[Layer]) -> tuple[Array, list]:
    """Output of `layers` on `h`, plus each layer's (weight, activation
    entry, pre-activation, activation)."""
    kept = []
    for layer in layers:
        act = _ACTIVATIONS[layer.activation]
        pre = h @ layer.weight + layer.bias
        h = pre if act is None else act[0](pre)
        kept.append((layer.weight, act, pre, h))
    return h, kept


def _backward(kept: list, g: Array, x: Array | None = None):
    """Logit gradient `g` walked back through `_walk`'s kept layers: the
    input gradient, or, given the walk's input `x`, the parameter
    gradients in `layout()` order (skipping the first layer's `g @ W.T`)."""
    blocks: list[Array] = []
    for i in reversed(range(len(kept))):
        weight, act, pre, out = kept[i]
        if act is not None:
            g = g * act[1](pre, out)
        if x is not None:
            blocks[:0] = [(kept[i - 1][3] if i else x).T @ g, g.sum(axis=0)]
            if i == 0:
                return blocks
        g = g @ weight.T
    return g


class Network:
    """Feed-forward dense stack; frozen copies serve as immutable teachers."""

    def __init__(self, layers: Sequence[Layer], head_boundaries: Sequence[int],
                 input_dim: int, seed: int | None = None, frozen: bool = False):
        if input_dim <= 0:
            raise ArgumentError("input_dim must be positive")
        if not layers:
            raise ArgumentError("network needs at least one layer")
        prev = input_dim
        for i, layer in enumerate(layers):
            if layer.activation not in ACTIVATIONS:
                raise ArgumentError(f"unknown activation {layer.activation!r}")
            if layer.weight.ndim != 2 or layer.weight.shape[0] != prev:
                raise DimensionError(f"layer {i}: weight shape {layer.weight.shape} "
                                     f"does not accept input of width {prev}")
            if layer.bias.shape != (layer.weight.shape[1],):
                raise DimensionError(f"layer {i}: bias shape {layer.bias.shape} mismatch")
            prev = layer.weight.shape[1]
        bounds = [int(b) for b in head_boundaries]
        if not bounds or any(b <= 0 for b in bounds):
            raise ArgumentError("head_boundaries must be positive")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ArgumentError("head_boundaries must be strictly increasing")
        if bounds[-1] != prev:
            raise DimensionError("final layer width must equal the last head boundary")
        self.layers = list(layers)
        self.head_boundaries = bounds
        self.input_dim = int(input_dim)
        self.seed = seed
        self.frozen = frozen

    # ------------------------------------------------------------------
    @classmethod
    def init_mlp(cls, input_dim: int, hidden: Sequence[int], n_classes: int,
                 activation: str = "relu", seed: int = 0) -> "Network":
        """Seeded MLP: hidden layers use `activation`, the head is linear.

        Weights are uniform in +-1/sqrt(fan_in), biases start at zero.
        """
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        dims = [input_dim, *hidden, n_classes]
        layers = []
        for i, (fan_in, fan_out) in enumerate(zip(dims, dims[1:])):
            scale = 1.0 / np.sqrt(fan_in)
            w = rng.uniform(-scale, scale, size=(fan_in, fan_out))
            b = np.zeros(fan_out)
            act = activation if i < len(dims) - 2 else "identity"
            layers.append(Layer(w, b, act))
        return cls(layers, [n_classes], input_dim, seed=seed)

    @property
    def out_dim(self) -> int:
        return self.layers[-1].weight.shape[1]

    @property
    def n_tasks(self) -> int:
        return len(self.head_boundaries)

    # ------------------------------------------------------------------
    def _check_input(self, x: Array) -> Array:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.input_dim:
            raise DimensionError(f"expected (batch, {self.input_dim}) input, got {x.shape}")
        _check_finite(x, "network input")
        return x

    def forward(self, x: Array) -> Array:
        """Logits for a (batch, input_dim) array. Pure and deterministic."""
        h = _walk(self._check_input(x), self.layers)[0]
        _check_finite(h, "logits")
        return h

    def features(self, x: Array) -> Array:
        """Penultimate-layer activations (input to the final linear head)."""
        return _walk(self._check_input(x), self.layers[:-1])[0]

    def input_vjp(self, x: Array) -> tuple[Array, Callable[[Array], Array]]:
        """Logits of `x` and the map from a logit gradient to the input gradient.

        The forward pass is `forward`'s walk (without its checks); the
        returned map is `_backward` through its kept layers. Weights are
        constants: this is the input gradient of a frozen network.
        """
        h, kept = _walk(x, self.layers)
        return h, lambda g: _backward(kept, g)

    def forward_graph(self, x, leaves: Sequence[Node] | None = None) -> Node:
        """Forward pass as a graph on `leaves` (one per array, `layout()`
        order; default: constant weights): the kernels' reference."""
        h = ad.lift(x)
        if h.value.ndim != 2 or h.value.shape[1] != self.input_dim:
            raise DimensionError(f"expected (batch, {self.input_dim}) input, "
                                 f"got {h.value.shape}")
        leaves = leaves or [a for l in self.layers for a in (l.weight, l.bias)]
        for layer, w, b in zip(self.layers, leaves[::2], leaves[1::2]):
            act = _ACTIVATIONS[layer.activation]
            h = ad.add(ad.matmul(h, w), b)
            h = h if act is None else ad.pointwise(h, *act)
        return h

    # ------------------------------------------------------------------
    def flatten(self) -> Array:
        """All parameters as one plain float64 vector in `layout()` order."""
        parts = []
        for layer in self.layers:
            parts.append(layer.weight.ravel())
            parts.append(layer.bias)
        return np.concatenate(parts)

    def layout(self) -> tuple[tuple[int, ...], ...]:
        shapes: list[tuple[int, ...]] = []
        for layer in self.layers:
            shapes.append(layer.weight.shape)
            shapes.append(layer.bias.shape)
        return tuple(shapes)

    def load_params(self, vec: Array) -> None:
        if self.frozen:
            raise ContractError("cannot load parameters into a frozen network")
        vec = np.asarray(vec, float)
        if vec.shape != (self.n_params,):
            raise DimensionError(f"expected {self.n_params} parameters, got {vec.shape}")
        blocks = split(vec, self.layout())
        for layer, w, b in zip(self.layers, blocks[::2], blocks[1::2]):
            layer.weight, layer.bias = w.copy(), b.copy()

    @property
    def n_params(self) -> int:
        return sum(l.weight.size + l.bias.size for l in self.layers)

    def copy(self, frozen: bool = False) -> "Network":
        layers = [Layer(l.weight.copy(), l.bias.copy(), l.activation) for l in self.layers]
        if frozen:
            for layer in layers:
                layer.weight.setflags(write=False)
                layer.bias.setflags(write=False)
        return Network(layers, list(self.head_boundaries), self.input_dim,
                       seed=self.seed, frozen=frozen)


# ---------------------------------------------------------------------------
# flat parameter vectors and leaves


def split(vector: Array, layout: Sequence[tuple[int, ...]]) -> list[Array]:
    """Per-array blocks of a flat vector in layer order (weight, bias,
    weight, ...): the one walk over the vector's offsets."""
    out, end = [], 0
    for shape in layout:
        start, end = end, end + math.prod(shape)
        out.append(vector[start:end].reshape(shape))
    return out


class Passes:
    """Forward passes of one network whose parameter gradients are summed.

    `logits(x)` is one `_walk` with its logits as a graph leaf; `params`
    is one variable leaf holding the flat parameter vector, for losses on
    the parameters themselves. After `autodiff.backward`, `grads()` adds to
    `params`' gradient, in call order, each reached logits leaf's gradient
    walked back through its pass (`_backward`)."""

    def __init__(self, net: Network):
        self.net = net
        self.params = Node(net.flatten())
        self._passes: list[tuple[Array, list, Node]] = []

    def logits(self, x: Array) -> Node:
        x = self.net._check_input(x)
        h, kept = _walk(x, self.net.layers)
        self._passes.append((x, kept, Node(h)))
        return self._passes[-1][2]

    def grads(self) -> Array:
        """The sum as one vector in `layout()` order (zeros where no loss reached)."""
        total = self.params.grad
        for x, kept, z in self._passes:
            if z.grad is not None:
                g = np.concatenate([b.ravel() for b in _backward(kept, z.grad, x)])
                total = g if total is None else total + g
        return np.zeros_like(self.params.value) if total is None else total


# ---------------------------------------------------------------------------
# exported differentiation operations


def grad_params(net: Network, scalar_loss: Callable, batch: tuple) -> Array:
    """Exact gradient of `scalar_loss(logits, aux)` w.r.t. every parameter,
    as one plain vector in `layout()` order."""
    x, aux = batch
    passes = Passes(net)
    _backward_loss(scalar_loss, passes.logits(x), aux)
    grads = passes.grads()
    _check_finite(grads, "parameter gradient")
    return grads


def grad_input(net: Network, scalar_loss: Callable, x: Array, aux) -> Array:
    """Exact gradient of the loss w.r.t. each input coordinate.

    The loss is a graph on a logits leaf only; `input_vjp` carries its
    gradient back through the network.
    """
    logits, vjp = net.input_vjp(net._check_input(x))
    z = Node(logits)
    _backward_loss(scalar_loss, z, aux)
    grad = vjp(z.grad)
    _check_finite(grad, "input gradient")
    return grad


def _backward_loss(scalar_loss: Callable, z: Node, aux) -> None:
    """`ad.backward(scalar_loss(z, aux))` once `z`'s rows and the loss are finite."""
    bad = ~np.isfinite(z.value).all(axis=1)
    if bad.any():
        raise NumericError(f"non-finite logits for batch index {int(np.argmax(bad))}")
    loss = scalar_loss(z, aux)
    if not np.isfinite(loss.value).all():
        raise NumericError(f"non-finite loss value {float(loss.value)!r}")
    ad.backward(loss)


def hessian_input(net: Network, scalar_loss: Callable, x: Array, aux,
                  step: float = HESSIAN_STEP) -> Array:
    """Input-space Hessian by central differences of exact gradients.

    Returns the symmetrized matrix (H + H^T)/2 for a single example.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.shape[0] != net.input_dim:
        raise DimensionError(f"expected a ({net.input_dim},) input, got {x.shape}")
    d = x.shape[0]
    if d > HESSIAN_DIM_CAP:
        raise CapacityError(f"input dim {d} exceeds Hessian cap {HESSIAN_DIM_CAP}")
    grads = np.stack([grad_input(net, scalar_loss, p[None, :], aux)[0]
                      for p in fd_probes(x, step)])
    return fd_hessian(grads, step)


def fd_probes(x: Array, step: float) -> Array:
    """The 2d central-difference probes of a (d,) point, one per row.

    Row k is x + step * e_k and row d + k is x - step * e_k.
    """
    e = step * np.eye(x.shape[0])
    return np.concatenate([x + e, x - e])


def fd_hessian(grads: Array, step: float) -> Array:
    """Symmetrized Hessian (H + H^T)/2 from input gradients at `fd_probes` rows."""
    d = grads.shape[1]
    cols = ((grads[:d] - grads[d:]) / (2.0 * step)).T
    h = 0.5 * (cols + cols.T)
    _check_finite(h, "input Hessian")
    return h


def sgd_step(params: Array, grads: Array, lr: float,
             weight_decay: float = 0.0) -> Array:
    """One plain SGD update on vectors in `layout()` order:
    theta <- theta - lr * (g + weight_decay * theta)."""
    if len(params) != len(grads):
        raise DimensionError("parameter and gradient vectors differ in length")
    if lr < 0 or weight_decay < 0:
        raise ArgumentError("lr and weight_decay must be nonnegative")
    return params - lr * (grads + weight_decay * params)


# ---------------------------------------------------------------------------
# head growth and snapshots


def expand_head(net: Network, n_new_classes: int, seed: int = 0) -> Network:
    """Widen the output layer by `n_new_classes` columns.

    Existing logits are preserved bit-for-bit; new weight columns and bias
    entries are seeded uniform(-1/sqrt(fan_in), 1/sqrt(fan_in)).
    """
    if n_new_classes <= 0:
        raise ArgumentError("n_new_classes must be positive")
    out = net.copy(frozen=False)
    last = out.layers[-1]
    fan_in = last.weight.shape[0]
    scale = 1.0 / np.sqrt(fan_in)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    new_w = rng.uniform(-scale, scale, size=(fan_in, n_new_classes))
    new_b = rng.uniform(-scale, scale, size=n_new_classes)
    last.weight = np.concatenate([last.weight, new_w], axis=1)
    last.bias = np.concatenate([last.bias, new_b])
    out.head_boundaries = [*net.head_boundaries, net.head_boundaries[-1] + n_new_classes]
    return out


def snapshot(net: Network) -> Network:
    """Deep frozen copy usable as an immutable teacher."""
    return net.copy(frozen=True)

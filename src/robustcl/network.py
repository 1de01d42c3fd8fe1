"""Dense feed-forward networks with a growable, task-partitioned head.

A `Network` is a stack of (weight, bias, activation) layers in float64.
The final layer emits pre-softmax logits; `head_boundaries` records the
cumulative class count after each task so losses can slice the head by
task range. Exact gradients with respect to parameters and inputs come
from the reverse-mode engine in `autodiff`; input Hessians are central
finite differences of those exact gradients.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Node
from .errors import (ArgumentError, CapacityError, ContractError,
                     DimensionError, NumericError)

Array = np.ndarray

ACTIVATIONS = ("relu", "tanh", "softplus", "identity")

_ACT_OPS: dict[str, Callable[[Node], Node]] = {
    "relu": ad.relu,
    "tanh": ad.tanh,
    "softplus": ad.softplus,
    "identity": lambda n: n,
}

_ACT_FNS: dict[str, Callable[[Array], Array]] = {
    "relu": lambda x: np.maximum(x, 0.0),
    "tanh": np.tanh,
    "softplus": lambda x: np.logaddexp(0.0, x),
    "identity": lambda x: x,
}

HESSIAN_DIM_CAP = 128


@dataclass
class Layer:
    weight: Array       # (fan_in, fan_out)
    bias: Array         # (fan_out,)
    activation: str


def _check_finite(x: Array, what: str) -> None:
    if not np.isfinite(x).all():
        bad = np.argwhere(~np.isfinite(x))
        raise NumericError(f"non-finite values in {what} (first at index {bad[0].tolist()})")


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
        h = self._check_input(x)
        for layer in self.layers:
            h = _ACT_FNS[layer.activation](h @ layer.weight + layer.bias)
        _check_finite(h, "logits")
        return h

    def features(self, x: Array) -> Array:
        """Penultimate-layer activations (input to the final linear head)."""
        h = self._check_input(x)
        for layer in self.layers[:-1]:
            h = _ACT_FNS[layer.activation](h @ layer.weight + layer.bias)
        return h

    def forward_graph(self, x, params: "ParamNodes | None" = None) -> Node:
        """Differentiable forward pass; reuses `params` leaves when given."""
        h = ad.lift(x)
        if h.value.ndim != 2 or h.value.shape[1] != self.input_dim:
            raise DimensionError(f"expected (batch, {self.input_dim}) input, "
                                 f"got {h.value.shape}")
        pairs = params.pairs if params is not None else \
            [(ad.lift(l.weight), ad.lift(l.bias)) for l in self.layers]
        for layer, (w, b) in zip(self.layers, pairs):
            h = _ACT_OPS[layer.activation](ad.add(ad.matmul(h, w), b))
        return h

    # ------------------------------------------------------------------
    def flatten(self) -> "ParamView":
        parts = []
        for layer in self.layers:
            parts.append(layer.weight.ravel())
            parts.append(layer.bias)
        return ParamView(np.concatenate(parts), self.layout())

    def layout(self) -> tuple[tuple[int, ...], ...]:
        shapes: list[tuple[int, ...]] = []
        for layer in self.layers:
            shapes.append(layer.weight.shape)
            shapes.append(layer.bias.shape)
        return tuple(shapes)

    def load_params(self, params: "ParamView | Array") -> None:
        if self.frozen:
            raise ContractError("cannot load parameters into a frozen network")
        vec = params.vector if isinstance(params, ParamView) else np.asarray(params, float)
        if vec.shape != (self.n_params,):
            raise DimensionError(f"expected {self.n_params} parameters, got {vec.shape}")
        pos = 0
        for layer in self.layers:
            n = layer.weight.size
            layer.weight = vec[pos:pos + n].reshape(layer.weight.shape).copy()
            pos += n
            n = layer.bias.size
            layer.bias = vec[pos:pos + n].copy()
            pos += n

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
# parameter views and leaves


@dataclass(frozen=True)
class ParamView:
    """Flat float64 parameter vector plus the per-array layout."""

    vector: Array
    layout: tuple[tuple[int, ...], ...]

    def __len__(self) -> int:
        return self.vector.size

    def split(self) -> list[Array]:
        """Per-array blocks in layer order (weight, bias, weight, ...)."""
        out, pos = [], 0
        for shape in self.layout:
            n = int(np.prod(shape))
            out.append(self.vector[pos:pos + n].reshape(shape))
            pos += n
        return out


class ParamNodes:
    """Leaf nodes for every parameter array of a network.

    Reusing one `ParamNodes` across several forward passes makes the
    backward pass accumulate gradients from all of them, which is what
    composite losses need.
    """

    def __init__(self, net: Network):
        self.pairs = [(Node(l.weight), Node(l.bias)) for l in net.layers]
        self._layout = net.layout()

    def grads(self) -> ParamView:
        parts = []
        for w, b in self.pairs:
            parts.append((w.grad if w.grad is not None else np.zeros_like(w.value)).ravel())
            parts.append(b.grad if b.grad is not None else np.zeros_like(b.value))
        return ParamView(np.concatenate(parts), self._layout)


# ---------------------------------------------------------------------------
# exported differentiation operations


def grad_params(net: Network, scalar_loss: Callable, batch: tuple) -> ParamView:
    """Exact gradient of `scalar_loss(logits, aux)` w.r.t. every parameter."""
    x, aux = batch
    params = ParamNodes(net)
    logits = net.forward_graph(net._check_input(x), params)
    _raise_on_bad_rows(logits.value)
    loss = scalar_loss(logits, aux)
    if not np.isfinite(loss.value).all():
        raise NumericError(f"non-finite loss value {float(loss.value)!r}")
    ad.backward(loss)
    grads = params.grads()
    _check_finite(grads.vector, "parameter gradient")
    return grads


def grad_input(net: Network, scalar_loss: Callable, x: Array, aux) -> Array:
    """Exact gradient of the loss w.r.t. each input coordinate."""
    xn = Node(net._check_input(x))
    logits = net.forward_graph(xn)
    _raise_on_bad_rows(logits.value)
    loss = scalar_loss(logits, aux)
    if not np.isfinite(loss.value).all():
        raise NumericError(f"non-finite loss value {float(loss.value)!r}")
    ad.backward(loss)
    _check_finite(xn.grad, "input gradient")
    return xn.grad.copy()


def _raise_on_bad_rows(logits: Array) -> None:
    bad = ~np.isfinite(logits).all(axis=1)
    if bad.any():
        raise NumericError(f"non-finite logits for batch index {int(np.argmax(bad))}")


def hessian_input(net: Network, scalar_loss: Callable, x: Array, aux,
                  step: float = 1e-4, dim_cap: int = HESSIAN_DIM_CAP) -> Array:
    """Input-space Hessian by central differences of exact gradients.

    Returns the symmetrized matrix (H + H^T)/2 for a single example.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.shape[0] != net.input_dim:
        raise DimensionError(f"expected a ({net.input_dim},) input, got {x.shape}")
    d = x.shape[0]
    if d > dim_cap:
        raise CapacityError(f"input dim {d} exceeds Hessian cap {dim_cap}")
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


def sgd_step(params: ParamView, grads: ParamView, lr: float,
             weight_decay: float = 0.0) -> ParamView:
    """One plain SGD update: theta <- theta - lr * (g + weight_decay * theta)."""
    if len(params) != len(grads):
        raise DimensionError("parameter and gradient vectors differ in length")
    if lr < 0 or weight_decay < 0:
        raise ArgumentError("lr and weight_decay must be nonnegative")
    new = params.vector - lr * (grads.vector + weight_decay * params.vector)
    return ParamView(new, params.layout)


# ---------------------------------------------------------------------------
# head growth and snapshots


def expand_head(net: Network, n_new_classes: int, init_scale: float | None = None,
                seed: int = 0) -> Network:
    """Widen the output layer by `n_new_classes` columns.

    Existing logits are preserved bit-for-bit; new weight columns and bias
    entries are seeded uniform(-init_scale, init_scale), defaulting to
    1/sqrt(fan_in).
    """
    if n_new_classes <= 0:
        raise ArgumentError("n_new_classes must be positive")
    out = net.copy(frozen=False)
    last = out.layers[-1]
    fan_in = last.weight.shape[0]
    scale = init_scale if init_scale is not None else 1.0 / np.sqrt(fan_in)
    if scale < 0:
        raise ArgumentError("init_scale must be nonnegative")
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

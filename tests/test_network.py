import numpy as np
import pytest

import robustcl as rc
from robustcl import autodiff as ad
from robustcl.errors import (ArgumentError, CapacityError, ContractError,
                             DimensionError, NumericError)
from robustcl.network import ACTIVATIONS

from conftest import finite_difference_input_grad, finite_difference_param_grad


def identity_net(weight, bias=None, boundaries=None):
    weight = np.asarray(weight, dtype=float)
    bias = np.zeros(weight.shape[1]) if bias is None else np.asarray(bias, float)
    boundaries = boundaries or [weight.shape[1]]
    return rc.Network([rc.Layer(weight, bias, "identity")], boundaries,
                      weight.shape[0])


def ce_adapter(z, aux):
    return rc.ce(z, aux)


# ---------------------------------------------------------------------------
# forward


def test_forward_identity_layer():
    net = identity_net(np.eye(2))
    assert np.array_equal(net.forward([[1.0, 2.0]]), [[1.0, 2.0]])


def test_forward_zero_network():
    net = rc.Network([rc.Layer(np.zeros((3, 4)), np.zeros(4), "relu"),
                      rc.Layer(np.zeros((4, 2)), np.zeros(2), "identity")],
                     [2], 3)
    x = np.random.default_rng(0).normal(size=(5, 3))
    assert np.array_equal(net.forward(x), np.zeros((5, 2)))


def test_network_rejects_a_zero_width_layer():
    # a zero-width hidden layer would leave the head its bias alone
    with pytest.raises(DimensionError, match="layer 0"):
        rc.Network([rc.Layer(np.zeros((6, 0)), np.zeros(0), "tanh"),
                    rc.Layer(np.zeros((0, 2)), np.zeros(2), "identity")], [2], 6)
    with pytest.raises(DimensionError, match="layer 0"):
        rc.Network.init_mlp(4, [0], 2)


def test_forward_matches_straight_line_reevaluation():
    # independent oracle: re-run the same arithmetic without the class
    net = rc.Network.init_mlp(3, [6], 4, activation="tanh", seed=5)
    x = np.random.default_rng(7).uniform(size=(4, 3))
    h = np.tanh(x @ net.layers[0].weight + net.layers[0].bias)
    expected = h @ net.layers[1].weight + net.layers[1].bias
    assert np.allclose(net.forward(x), expected, atol=0, rtol=0)


def test_forward_result_survives_a_later_forward(small_tanh_net):
    x, x2 = np.random.default_rng(15).uniform(size=(2, 5, 4))
    z = small_tanh_net.forward(x)
    kept = z.tobytes()
    z2 = small_tanh_net.forward(x2)
    assert z.tobytes() == kept and not np.array_equal(z, z2)


def test_features_of_a_one_layer_net_is_its_input():
    x = np.random.default_rng(8).uniform(size=(3, 2))
    assert np.array_equal(identity_net(np.eye(2)).features(x), x)


def test_forward_shape_mismatch():
    net = identity_net(np.eye(2))
    with pytest.raises(DimensionError):
        net.forward(np.ones((1, 3)))


def test_forward_rejects_nonfinite_input():
    net = identity_net(np.eye(2))
    with pytest.raises(NumericError):
        net.forward(np.array([[np.nan, 0.0]]))


# ---------------------------------------------------------------------------
# gradients


def test_grad_params_constant_loss_is_zero(small_tanh_net):
    x = np.random.default_rng(0).uniform(size=(4, 4))
    g = rc.grad_params(small_tanh_net, lambda z, aux: ad.mul(ad.mean_all(z), 0.0),
                       (x, None))
    assert np.array_equal(g, np.zeros(len(g)))


def test_grad_params_single_weight_chain_rule():
    # f(x) = w * x with w=3, x=2; loss = f^2 / 2 -> d/dw = f * x = 12
    net = identity_net(np.array([[3.0]]))
    loss = lambda z, aux: ad.mul(ad.sum_all(ad.mul(z, z)), 0.5)
    g = rc.grad_params(net, loss, (np.array([[2.0]]), None))
    assert g[0] == pytest.approx(12.0)


def test_grad_params_matches_finite_differences(small_tanh_net):
    rng = np.random.default_rng(2)
    x = rng.uniform(size=(6, 4))
    y = rng.integers(0, 3, size=6)
    g = rc.grad_params(small_tanh_net, ce_adapter, (x, y))
    fd = finite_difference_param_grad(
        small_tanh_net, lambda net: float(rc.ce(net.forward(x), y).value))
    assert np.max(np.abs(g - fd)) / max(np.max(np.abs(fd)), 1e-12) < 1e-4


def test_grad_input_closed_form_linear_ce():
    # at the uniform point the CE input gradient is (w2 - w1) / 2 for class 1 of 2
    w = np.array([[1.0, -2.0], [0.5, 3.0]])   # columns are class weight vectors
    net = identity_net(w)
    g = rc.grad_input(net, ce_adapter, np.zeros((1, 2)), np.array([0]))
    assert np.allclose(g[0], 0.5 * (w[:, 1] - w[:, 0]))


def test_grad_input_constant_loss_zero(small_tanh_net):
    x = np.random.default_rng(3).uniform(size=(2, 4))
    g = rc.grad_input(small_tanh_net, lambda z, aux: ad.mul(ad.mean_all(z), 0.0),
                      x, None)
    assert np.array_equal(g, np.zeros_like(x))


def test_grad_input_result_survives_a_later_call(small_tanh_net):
    rng = np.random.default_rng(14)
    x, x2 = rng.uniform(size=(2, 5, 4))
    y = rng.integers(0, 3, size=5)
    g = rc.grad_input(small_tanh_net, ce_adapter, x, y)
    kept = g.tobytes()
    g2 = rc.grad_input(small_tanh_net, ce_adapter, x2, y)
    assert g.tobytes() == kept and not np.array_equal(g, g2)


def test_grad_input_matches_finite_differences(small_tanh_net):
    rng = np.random.default_rng(4)
    x = rng.uniform(size=(3, 4))
    y = rng.integers(0, 3, size=3)
    g = rc.grad_input(small_tanh_net, ce_adapter, x, y)
    fd = finite_difference_input_grad(
        small_tanh_net, lambda net, xv: float(rc.ce(net.forward(xv), y).value), x)
    assert np.max(np.abs(g - fd)) / max(np.max(np.abs(fd)), 1e-12) < 1e-4


# row sums of a per-row scalar: the CE of GF/HF, and each row's largest logit
ROW_SUM_LOSSES = {"ce": lambda z, y: ad.sum_all(rc.losses.ce_rows(z, y)),
                  "max-logit": lambda z, c: ad.sum_all(ad.take_per_row(z, c))}


@pytest.mark.parametrize("scalar", ROW_SUM_LOSSES)
@pytest.mark.parametrize("activation", ACTIVATIONS)
def test_grad_input_equals_the_graph_bit_for_bit(activation, scalar):
    # reference: the whole graph from an input node through forward_graph
    net = rc.expand_head(rc.Network.init_mlp(4, [8, 8], 2, activation=activation,
                                             seed=3), 2, seed=4)
    rng = np.random.default_rng(12)
    x = rng.uniform(size=(6, 4))
    loss = ROW_SUM_LOSSES[scalar]
    aux = rng.integers(0, 4, size=6) if scalar == "ce" else \
        np.argmax(net.forward(x), axis=1)
    xn = ad.Node(x)
    logits = net.forward_graph(xn)
    ad.backward(loss(logits, aux))
    g = rc.grad_input(net, loss, x, aux)
    assert np.array_equal(g, xn.grad) and np.any(g != 0.0)
    # the walk and the graph apply the one activation entry
    assert np.array_equal(net.forward(x), logits.value)


@pytest.mark.parametrize("passes_of", ["one-pass", "two-passes", "x-adv-and-x"])
@pytest.mark.parametrize("activation", ACTIVATIONS)
def test_passes_grads_equal_the_graph_bit_for_bit(activation, passes_of):
    # reference: backward through forward_graph, every pass on the same
    # parameter leaves; two addends per leaf sum the same in either order
    net = rc.expand_head(rc.Network.init_mlp(4, [8, 8], 2, activation=activation,
                                             seed=3), 2, seed=4)
    rng = np.random.default_rng(13)
    batches = [(rng.uniform(size=(6, 4)), rng.integers(0, 4, size=6))
               for _ in range(1 if passes_of == "one-pass" else 2)]
    if passes_of == "x-adv-and-x":
        # FLAIR's two live passes: an attacked batch, then the clean batch
        x, y = batches[0]
        attack = rc.AttackConfig(epsilon=0.1, step_size=0.025, n_steps=3, seed=2)
        batches = [(rc.pgd(net, x, y, attack), y), (x, y)]

    def total(logits_of):
        losses = [rc.ce(logits_of(x), y) for x, y in batches]
        return losses[0] if len(losses) == 1 else ad.add(*losses)

    leaves = [ad.Node(a) for layer in net.layers for a in (layer.weight, layer.bias)]
    ad.backward(total(lambda x: net.forward_graph(x, leaves)))
    passes = rc.Passes(net)
    ad.backward(total(passes.logits))
    got = passes.grads()
    assert np.array_equal(got, np.concatenate([leaf.grad.ravel() for leaf in leaves]))
    assert np.any(got != 0.0)
    assert np.array_equal(passes.grads(), got)


def test_grad_params_reports_offending_batch_index():
    net = identity_net(np.eye(2))
    x = np.array([[0.0, 0.0], [np.inf, 1.0]])
    with pytest.raises(NumericError):
        net.forward(x)


# ---------------------------------------------------------------------------
# input Hessians


def test_hessian_quadratic_form():
    a = np.array([[2.0, 1.0], [0.0, 2.0]])
    net = identity_net(np.eye(2))
    quad = lambda z, aux: ad.sum_all(ad.mul(ad.matmul(z, a), z))
    h = rc.hessian_input(net, quad, np.array([0.3, -0.4]), None)
    assert np.allclose(h, a + a.T, atol=1e-6)


def test_hessian_linear_loss_is_zero():
    net = identity_net(np.array([[1.5, -0.5], [2.0, 0.25]]))
    lin = lambda z, aux: ad.sum_all(z)
    h = rc.hessian_input(net, lin, np.array([0.1, 0.2]), None)
    assert np.allclose(h, np.zeros((2, 2)), atol=1e-9)


def test_hessian_step_halving_converges():
    net = rc.Network.init_mlp(3, [10], 3, activation="softplus", seed=9)
    x = np.array([0.4, 0.5, 0.6])
    y = np.array([1])
    h1 = rc.hessian_input(net, ce_adapter, x, y, step=2e-4)
    h2 = rc.hessian_input(net, ce_adapter, x, y, step=1e-4)
    scale = np.max(np.abs(h2))
    assert np.max(np.abs(h1 - h2)) / scale < 1e-3


def test_hessian_symmetry_and_finite(small_tanh_net):
    x = np.random.default_rng(5).uniform(size=4)
    h = rc.hessian_input(small_tanh_net, ce_adapter, x, np.array([0]))
    assert np.array_equal(h, h.T)
    assert np.isfinite(h).all()


def test_hessian_dimension_cap():
    net = rc.Network.init_mlp(130, [4], 2, seed=0)
    with pytest.raises(CapacityError):
        rc.hessian_input(net, ce_adapter, np.zeros(130), np.array([0]))


# ---------------------------------------------------------------------------
# sgd, flatten round-trip


def test_sgd_step_formulas():
    p = np.array([1.0, 1.0, 1.0])
    g = np.array([2.0, 0.0, 2.0])
    out = rc.sgd_step(p, g, lr=0.1, weight_decay=0.0)
    assert out[0] == pytest.approx(0.8)
    out = rc.sgd_step(p, np.zeros(3), lr=0.1, weight_decay=1e-5)
    assert out[0] == pytest.approx(0.999999)
    out = rc.sgd_step(p, g, lr=0.0, weight_decay=0.5)
    assert np.array_equal(out, p)


def test_sgd_step_length_mismatch():
    with pytest.raises(DimensionError):
        rc.sgd_step(np.zeros(3), np.zeros(4), 0.1)


def test_flatten_roundtrip_identity(small_tanh_net):
    before = small_tanh_net.flatten()
    small_tanh_net.load_params(before)
    after = small_tanh_net.flatten()
    assert np.array_equal(before, after)


# ---------------------------------------------------------------------------
# expand_head / snapshot


def test_expand_head_preserves_old_logits():
    net = rc.Network.init_mlp(4, [8], 2, seed=3)
    wide = rc.expand_head(net, 2, seed=17)
    xs = np.random.default_rng(6).uniform(size=(100, 4))
    assert np.array_equal(wide.forward(xs)[:, :2], net.forward(xs))
    assert wide.head_boundaries == [2, 4]


def test_expand_head_rejects_zero_classes():
    net = rc.Network.init_mlp(4, [8], 2, seed=3)
    with pytest.raises(ArgumentError):
        rc.expand_head(net, 0)


def test_snapshot_isolated_from_mutation():
    net = rc.Network.init_mlp(4, [8], 2, seed=3)
    frozen = rc.snapshot(net)
    x = np.random.default_rng(9).uniform(size=(5, 4))
    before = frozen.forward(x)
    vec = net.flatten() + 1.0
    net.load_params(vec)
    assert np.array_equal(frozen.forward(x), before)


def test_snapshot_idempotent_and_matches_student():
    net = rc.Network.init_mlp(4, [8], 2, seed=3)
    s1 = rc.snapshot(net)
    s2 = rc.snapshot(s1)
    x = np.random.default_rng(10).uniform(size=(5, 4))
    assert np.array_equal(s1.forward(x), s2.forward(x))
    assert np.array_equal(s1.forward(x), net.forward(x))


def test_snapshot_rejects_parameter_load():
    frozen = rc.snapshot(rc.Network.init_mlp(4, [8], 2, seed=3))
    with pytest.raises(ContractError):
        frozen.load_params(frozen.flatten())

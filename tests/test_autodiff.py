import numpy as np
import pytest

import robustcl as rc
from robustcl import autodiff as ad
from robustcl.errors import ArgumentError
from robustcl.network import _ACTIVATIONS


def numeric_grad(fn, x, step=1e-6):
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        xp = x.copy()
        xp[idx] += step
        xm = x.copy()
        xm[idx] -= step
        g[idx] = (fn(xp) - fn(xm)) / (2 * step)
        it.iternext()
    return g


def check_grad(build, x, tol=1e-6):
    node = ad.Node(x)
    out = build(node)
    ad.backward(out)
    fd = numeric_grad(lambda v: float(build(ad.Node(v)).value), x)
    assert np.max(np.abs(node.grad - fd)) < tol * max(1.0, np.max(np.abs(fd)))


def test_add_mul_matmul_grads():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(4, 2))
    bias = rng.normal(size=2)

    def build(node):
        return ad.sum_all(ad.mul(ad.add(ad.matmul(node, b), bias), 2.0))

    check_grad(build, a)


def test_broadcast_bias_grad_sums_over_batch():
    a = np.ones((5, 3))
    b = ad.Node(np.zeros(3))
    out = ad.sum_all(ad.add(ad.Node(a), b))
    ad.backward(out)
    assert np.array_equal(b.grad, np.full(3, 5.0))


def test_repeated_parent_accumulates():
    x = ad.Node(np.array([3.0]))
    out = ad.sum_all(ad.mul(x, x))
    ad.backward(out)
    assert np.allclose(x.grad, [6.0])


@pytest.mark.parametrize("op", [lambda n: ad.pointwise(n, *_ACTIVATIONS["tanh"]),
                                lambda n: ad.pointwise(n, *_ACTIVATIONS["softplus"]),
                                ad.exp], ids=["tanh", "softplus", "exp"])
def test_smooth_unary_grads(op):
    rng = np.random.default_rng(3)
    x = rng.normal(size=(4, 3))
    check_grad(lambda n: ad.sum_all(op(n)), x)


def test_relu_grad_away_from_kink():
    x = np.array([[-1.0, 0.5, 2.0, -0.2]])
    node = ad.Node(x)
    ad.backward(ad.sum_all(ad.pointwise(node, *_ACTIVATIONS["relu"])))
    assert np.array_equal(node.grad, [[0.0, 1.0, 1.0, 0.0]])


def test_log_softmax_grad_and_shift_invariance():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(3, 5))
    weights = rng.standard_normal((3, 5))
    check_grad(lambda n: ad.sum_all(ad.mul(ad.log_softmax(n), weights)), x)
    shifted = ad.log_softmax(ad.Node(x + 7.5)).value
    assert np.allclose(shifted, ad.log_softmax(ad.Node(x)).value, atol=1e-12)


def test_log_softmax_stable_at_large_logits():
    z = np.array([[1e4, 0.0, -1e4]])
    out = ad.log_softmax(ad.Node(z))
    assert np.isfinite(out.value).all()


def test_take_cols_slice_and_index_array():
    x = np.arange(12.0).reshape(3, 4)
    node = ad.Node(x)
    sl = ad.take_cols(node, slice(1, 3))
    assert np.array_equal(sl.value, x[:, 1:3])
    ad.backward(ad.sum_all(sl))
    expected = np.zeros_like(x)
    expected[:, 1:3] = 1.0
    assert np.array_equal(node.grad, expected)

    node2 = ad.Node(x)
    picked = ad.take_cols(node2, [0, 3])
    ad.backward(ad.sum_all(picked))
    expected = np.zeros_like(x)
    expected[:, [0, 3]] = 1.0
    assert np.array_equal(node2.grad, expected)


def test_take_rows_slice_grad():
    x = np.random.default_rng(3).normal(size=(5, 3))
    w = np.arange(6.0).reshape(2, 3)
    check_grad(lambda n: ad.sum_all(ad.mul(ad.take_rows(n, slice(1, 3)), w)), x)
    # two slices of one node, as in a stacked forward pass, accumulate
    node = ad.Node(x)
    head, tail = ad.take_rows(node, slice(0, 2)), ad.take_rows(node, slice(2, None))
    assert np.array_equal(tail.value, x[2:])
    ad.backward(ad.add(ad.sum_all(ad.mul(head, 2.0)), ad.sum_all(tail)))
    assert np.array_equal(node.grad, np.repeat([[2.0], [2.0], [1.0], [1.0], [1.0]], 3, 1))
    with pytest.raises(ArgumentError):
        ad.take_rows(node, [0, 1])


def test_take_cols_rejects_duplicate_indices():
    with pytest.raises(ArgumentError):
        ad.take_cols(ad.Node(np.ones((2, 3))), [1, 1])


def test_take_per_row():
    x = np.arange(6.0).reshape(2, 3)
    node = ad.Node(x)
    picked = ad.take_per_row(node, [2, 0])
    assert np.array_equal(picked.value, [2.0, 3.0])
    ad.backward(ad.sum_all(picked))
    assert np.array_equal(node.grad, [[0, 0, 1], [1, 0, 0]])


def test_reductions():
    x = np.arange(6.0).reshape(2, 3)
    assert float(ad.mean_all(ad.Node(x)).value) == pytest.approx(2.5)
    assert np.array_equal(ad.sum_axis1(ad.Node(x)).value, [3.0, 12.0])
    node = ad.Node(x)
    ad.backward(ad.mean_all(node))
    assert np.allclose(node.grad, np.full((2, 3), 1 / 6))


def test_backward_requires_scalar_root():
    with pytest.raises(ArgumentError):
        ad.backward(ad.Node(np.ones(3)))


def test_shared_leaf_across_two_passes_accumulates():
    w = ad.Node(np.array([[2.0]]))
    x1 = ad.Node(np.array([[3.0]]))
    x2 = ad.Node(np.array([[5.0]]))
    out = ad.add(ad.sum_all(ad.matmul(x1, w)), ad.sum_all(ad.matmul(x2, w)))
    ad.backward(out)
    assert np.allclose(w.grad, [[8.0]])


# ---------------------------------------------------------------------------
# pruning: constants get no gradient work


def _leaves(root):
    seen, stack, leaves = {id(root)}, [root], []
    while stack:
        node = stack.pop()
        if not node._parents:
            leaves.append(node)
        for parent in node._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return leaves


def test_constants_and_frozen_weights_keep_no_grad(small_tanh_net):
    frozen = rc.snapshot(small_tanh_net)
    x = ad.Node(np.random.default_rng(2).uniform(size=(3, 4)))
    const = ad.lift(np.full((3, 3), 0.5))
    out = ad.sum_all(ad.mul(frozen.forward_graph(x), const))
    ad.backward(out)
    assert x.requires_grad and x.grad is not None
    assert const.grad is None and not const.requires_grad
    weights = [leaf for leaf in _leaves(out) if leaf is not x and leaf is not const]
    assert len(weights) == 2 * len(frozen.layers)
    assert all(w.grad is None and not w.requires_grad for w in weights)


def test_vjps_into_constants_are_never_called():
    def boom(g):
        raise AssertionError("VJP into a constant was called")

    # a derived node whose parents are all constants ...
    dead = ad.Node(np.array([2.0]), (ad.lift(np.array([1.0])),), (boom,))
    assert not dead.requires_grad
    # ... and a live node's edge into a constant parent
    x = ad.Node(np.array([3.0]))
    mixed = ad.Node(2.0 * x.value, (x, ad.lift(np.array([5.0]))),
                    (lambda g: 2.0 * g, boom))
    ad.backward(ad.sum_all(ad.mul(mixed, dead)))
    assert np.array_equal(x.grad, [4.0])
    ad.backward(ad.sum_all(dead))  # a constant root does no work at all
    assert dead.grad is None


def test_shared_parent_grads_are_exact_and_unaliased():
    a = ad.Node(np.array([[1.0, -2.0]]))
    s = ad.add(a, a)
    ad.backward(ad.sum_all(s))
    assert np.array_equal(a.grad, [[2.0, 2.0]])
    assert np.array_equal(s.grad, [[1.0, 1.0]])
    d = ad.sub(a, a)
    ad.backward(ad.sum_all(ad.mul(d, 3.0)))
    assert np.array_equal(a.grad, [[0.0, 0.0]])
    assert np.array_equal(d.grad, [[3.0, 3.0]])

    # one leaf feeding both an add (whose VJP returns g itself) and a matmul
    x = ad.Node(np.array([[1.0, 2.0]]))
    w = np.array([[3.0, 0.5], [4.0, -1.0]])
    h = ad.add(x, np.array([0.5, -0.5]))
    m = ad.matmul(x, w)
    ad.backward(ad.sum_all(ad.mul(h, m)))
    assert np.array_equal(h.grad, m.value)
    assert np.array_equal(x.grad, m.value + h.value @ w.T)


def test_grad_read_after_backward_is_not_mutated_later():
    x = ad.Node(np.array([[1.0, 2.0]]))
    ad.backward(ad.sum_all(ad.add(x, x)))
    first = x.grad
    kept = first.copy()
    ad.backward(ad.sum_all(ad.mul(ad.add(x, x), 3.0)))
    assert np.array_equal(first, kept)
    assert np.array_equal(x.grad, [[6.0, 6.0]])

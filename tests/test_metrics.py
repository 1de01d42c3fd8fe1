import numpy as np
import pytest

import robustcl as rc
from robustcl import losses
from robustcl.errors import ArgumentError, UndefinedValueError
from robustcl.network import HESSIAN_DIM_CAP
from robustcl.seeding import derive_rng

ATTACK = rc.AttackConfig(epsilon=0.05, step_size=0.0125, n_steps=5,
                         random_start=False, clamp_range=(0.0, 1.0), seed=0)


def linear_net(w, b=None):
    w = np.asarray(w, dtype=float)
    b = np.zeros(w.shape[1]) if b is None else np.asarray(b, float)
    return rc.Network([rc.Layer(w, b, "identity")], [w.shape[1]], w.shape[0])


def balanced_dataset(k=4, per_class=5, d=3, seed=0):
    rng = np.random.default_rng(seed)
    xs = rng.uniform(size=(k * per_class, d))
    ys = np.repeat(np.arange(k), per_class)
    return rc.Dataset(xs, ys, k)


# ---------------------------------------------------------------------------
# accuracy


def test_accuracy_perfect_predictor():
    # logits = one-hot embedding of the input's argmax coordinate
    net = linear_net(np.eye(3))
    ds = rc.Dataset(np.eye(3) * 0.9 + 0.05, np.array([0, 1, 2]), 3)
    assert rc.accuracy(net, ds) == 100.0


def test_accuracy_constant_model_counting_oracle():
    net = linear_net(np.zeros((3, 4)))
    ds = balanced_dataset(k=4)
    expected = np.mean(ds.labels == 0) * 100.0     # argmax ties pick class 0
    assert rc.accuracy(net, ds) == expected == 25.0


def test_accuracy_single_example_is_0_or_100():
    net = linear_net(np.eye(2))
    one = rc.Dataset(np.array([[0.9, 0.1]]), np.array([0]), 2)
    assert rc.accuracy(net, one) in (0.0, 100.0)


def test_accuracy_empty_dataset_undefined():
    net = linear_net(np.eye(2))
    empty = rc.Dataset(np.zeros((0, 2)), np.zeros(0, dtype=int), 2)
    with pytest.raises(UndefinedValueError):
        rc.accuracy(net, empty)


# ---------------------------------------------------------------------------
# robust accuracy


def test_robust_accuracy_epsilon_zero_equals_clean():
    net = rc.Network.init_mlp(3, [8], 4, activation="tanh", seed=2)
    ds = balanced_dataset(k=4)
    cfg = rc.AttackConfig(epsilon=0.0, step_size=0.0, n_steps=5,
                          random_start=True, clamp_range=(0, 1), seed=1)
    assert rc.robust_accuracy(net, ds, cfg) == rc.accuracy(net, ds)


def test_robust_accuracy_dominated_by_clean():
    net = rc.Network.init_mlp(3, [8], 4, activation="tanh", seed=3)
    ds = balanced_dataset(k=4, seed=5)
    assert rc.robust_accuracy(net, ds, ATTACK) <= rc.accuracy(net, ds)


def test_robust_accuracy_monotone_in_restarts():
    net = rc.Network.init_mlp(3, [8], 4, activation="tanh", seed=4)
    ds = balanced_dataset(k=4, seed=6)
    base = dict(epsilon=0.08, step_size=0.02, n_steps=5, random_start=True,
                clamp_range=(0.0, 1.0), seed=2)
    r1 = rc.robust_accuracy(net, ds, rc.AttackConfig(**base, n_restarts=1))
    r5 = rc.robust_accuracy(net, ds, rc.AttackConfig(**base, n_restarts=5))
    assert r5 <= r1


def test_robust_accuracy_needs_steps():
    net = linear_net(np.eye(2))
    ds = balanced_dataset(k=2, d=2)
    with pytest.raises(ArgumentError):
        rc.robust_accuracy(net, ds, rc.AttackConfig(epsilon=0.1, step_size=0.1,
                                                    n_steps=0))


# ---------------------------------------------------------------------------
# backward transfer


def test_r_bwt_zero_without_forgetting():
    assert rc.r_bwt([[70.0] * (i + 1) for i in range(3)]) == 0.0


def test_r_bwt_hand_computed_fixture():
    # tasks 1..3: RA[1][1]=60, RA[3][1]=40, RA[2][2]=50, RA[3][2]=45
    rows = [[60.0], [55.0, 50.0], [40.0, 45.0, 80.0]]
    assert rc.r_bwt(rows) == pytest.approx(-12.5)


def test_r_bwt_undefined_for_single_task():
    with pytest.raises(UndefinedValueError):
        rc.r_bwt([[50.0]])


# ---------------------------------------------------------------------------
# gradient / Hessian forgetting


def test_flatness_zero_for_identical_models():
    net = rc.Network.init_mlp(3, [8], 2, activation="tanh", seed=7)
    a, b = rc.snapshot(net), rc.snapshot(net)
    ds = balanced_dataset(k=2, d=3)
    report = rc.flatness_forgetting([a, b], [ds], subsample=6, seed=0)
    assert report.gf == 0.0 and report.hf == 0.0


def test_flatness_linear_models_match_analytic_gradient_difference():
    rng = np.random.default_rng(8)
    w1 = rng.normal(size=(3, 2))
    w2 = w1 + rng.normal(size=(3, 2)) * 0.5
    m1, m2 = linear_net(w1), linear_net(w2)
    ds = balanced_dataset(k=2, d=3, per_class=8, seed=9)
    report = rc.flatness_forgetting([rc.snapshot(m1), rc.snapshot(m2)], [ds],
                                    subsample=len(ds), seed=0)

    def softmax(w, x):
        z = x @ w
        p = np.exp(z - z.max())
        return p / p.sum()

    def ce_grad(w, x, y):
        p = softmax(w, x)
        e = np.zeros(2)
        e[y] = 1.0
        return w @ (p - e)

    def ce_hess(w, x):
        p = softmax(w, x)
        return w @ (np.diag(p) - np.outer(p, p)) @ w.T

    g_diffs = [np.linalg.norm(ce_grad(w2, ds.inputs[i], ds.labels[i])
                              - ce_grad(w1, ds.inputs[i], ds.labels[i]))
               for i in range(len(ds))]
    h_diffs = [np.linalg.norm(ce_hess(w2, ds.inputs[i]) - ce_hess(w1, ds.inputs[i]),
                              ord="fro")
               for i in range(len(ds))]
    assert report.gf == pytest.approx(np.mean(g_diffs), rel=1e-9)
    assert report.hf == pytest.approx(np.mean(h_diffs), rel=1e-5)


def test_flatness_estimator_stability_under_subsample_doubling():
    net1 = rc.Network.init_mlp(3, [10], 2, activation="tanh", seed=10)
    net2 = rc.Network.init_mlp(3, [10], 2, activation="tanh", seed=11)
    ds = balanced_dataset(k=2, d=3, per_class=64, seed=12)
    r32 = rc.flatness_forgetting([rc.snapshot(net1), rc.snapshot(net2)], [ds],
                                 subsample=32, seed=5)
    r64 = rc.flatness_forgetting([rc.snapshot(net1), rc.snapshot(net2)], [ds],
                                 subsample=64, seed=5)
    assert abs(r64.gf - r32.gf) / r32.gf < 0.05


def test_flatness_hf_unavailable_above_cap():
    d = HESSIAN_DIM_CAP + 1
    net1 = rc.snapshot(rc.Network.init_mlp(d, [6], 2, seed=1))
    net2 = rc.snapshot(rc.Network.init_mlp(d, [6], 2, seed=2))
    ds = balanced_dataset(k=2, d=d)
    report = rc.flatness_forgetting([net1, net2], [ds], subsample=4)
    assert report.hf is None and report.per_task_hf is None
    assert report.gf > 0


def test_flatness_rejects_unknown_scalar_and_empty_subsample():
    net1 = rc.snapshot(rc.Network.init_mlp(3, [6], 2, seed=3))
    net2 = rc.snapshot(rc.Network.init_mlp(3, [6], 2, seed=4))
    ds = balanced_dataset(k=2, d=3)
    # the scalar is the CE at the true label; there is no other to choose
    with pytest.raises(TypeError):
        rc.flatness_forgetting([net1, net2], [ds], scalar_def="max-logit")
    with pytest.raises(ArgumentError):
        rc.flatness_forgetting([net1, net2], [ds], subsample=0)


def per_point_flatness(models, testsets, subsample, seed):
    """Oracle: one single-row CE graph and one hessian_input per example."""
    final = models[-1]
    gf_per, hf_per = [], []
    for i, past in enumerate(models[:-1]):
        ds = testsets[i]
        rng = derive_rng(seed, task=i, purpose="subsample")
        idx = rng.choice(len(ds), size=min(subsample, len(ds)), replace=False)
        g_drift, h_drift = [], []
        for k in idx:
            x = ds.inputs[k]
            y = np.array([ds.labels[k]])
            derivs = [(rc.grad_input(m, losses.ce, x[None, :], y)[0],
                       rc.hessian_input(m, losses.ce, x, y)) for m in (final, past)]
            (g_f, h_f), (g_p, h_p) = derivs
            g_drift.append(np.linalg.norm(g_f - g_p))
            h_drift.append(np.linalg.norm(h_f - h_p, ord="fro"))
        gf_per.append(np.mean(g_drift))
        hf_per.append(np.mean(h_drift))
    return gf_per, hf_per


# each id names the scalar too: the CE at the true label
@pytest.mark.parametrize("activation", ["relu", "tanh", "softplus"],
                         ids=lambda activation: f"ce-{activation}")
def test_flatness_batched_graphs_match_per_point_oracle(activation):
    # d = 5 gives 10 probes per Hessian; an odd subsample of 7 out of 15
    models = [rc.snapshot(rc.Network.init_mlp(5, [7], 3, activation=activation,
                                              seed=20 + s)) for s in range(3)]
    testsets = [balanced_dataset(k=3, d=5, seed=30 + s) for s in range(2)]
    report = rc.flatness_forgetting(models, testsets, subsample=7, seed=4)
    gf_per, hf_per = per_point_flatness(models, testsets, 7, seed=4)
    np.testing.assert_allclose(report.per_task_gf, gf_per, rtol=1e-9)
    np.testing.assert_allclose(report.per_task_hf, hf_per, rtol=1e-9)
    assert report.gf == pytest.approx(np.mean(gf_per), rel=1e-9)
    assert report.hf == pytest.approx(np.mean(hf_per), rel=1e-9)


# ---------------------------------------------------------------------------
# landscape grids


def test_landscape_center_is_loss_at_x():
    net = rc.Network.init_mlp(3, [8], 3, activation="tanh", seed=13)
    x = np.array([0.4, 0.5, 0.6])
    grid = rc.landscape_grid(net, x, 1, ATTACK, extent=0.1, n=5)
    center = float(losses.ce_rows(net.forward(x[None, :]), [1]).value[0])
    assert grid[2, 2] == pytest.approx(center, abs=1e-12)
    assert grid.shape == (5, 5)


def test_landscape_constant_model_is_constant():
    net = linear_net(np.zeros((3, 2)))
    grid = rc.landscape_grid(net, np.full(3, 0.5), 0, ATTACK, extent=0.2, n=4)
    assert np.allclose(grid, grid[0, 0])


def test_landscape_convex_along_axes_for_linear_model():
    rng = np.random.default_rng(14)
    net = linear_net(rng.normal(size=(4, 3)))
    x = rng.uniform(0.3, 0.7, size=4)
    atk = rc.AttackConfig(epsilon=0.05, step_size=0.0125, n_steps=5,
                          random_start=False, clamp_range=None, seed=3)
    grid = rc.landscape_grid(net, x, 0, atk, extent=0.3, n=9)
    for line in list(grid) + list(grid.T):
        second = np.diff(line, 2)
        assert np.all(second >= -1e-9)

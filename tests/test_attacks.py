import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import robustcl as rc
from robustcl import autodiff as ad
from robustcl import losses
from robustcl.attacks import OBJECTIVES, _make_head, _values_and_grad, parse_rational
from robustcl.errors import (ArgumentError, ConfigurationError, DimensionError,
                             LabelError)
from robustcl.network import ACTIVATIONS

from conftest import attack_values


def linear_model(w, boundaries=None):
    w = np.asarray(w, dtype=float)
    net = rc.Network([rc.Layer(w, np.zeros(w.shape[1]), "identity")],
                     boundaries or [w.shape[1]], w.shape[0])
    return rc.snapshot(net)


@pytest.fixture
def frozen_tanh(small_tanh_net):
    return rc.snapshot(small_tanh_net)


def cfg(**kw):
    base = dict(epsilon=0.1, step_size=0.025, n_steps=5, random_start=True,
                objective="ce", clamp_range=None, n_restarts=1, seed=0)
    base.update(kw)
    return rc.AttackConfig(**base)


# ---------------------------------------------------------------------------
# config parsing / validation


def test_parse_rational_exact():
    assert parse_rational("8/255") == 8 / 255
    assert parse_rational("0.1") == 0.1
    assert parse_rational(0.25) == 0.25
    with pytest.raises(ConfigurationError):
        parse_rational("eight/255")


@pytest.mark.parametrize("value", [True, False, "1e400", 10 ** 400],
                         ids=["true", "false", "string-1e400", "int-10**400"])
def test_parse_rational_rejects_booleans_and_overflow(value):
    with pytest.raises(ConfigurationError):
        parse_rational(value)


def test_config_validation():
    with pytest.raises(ConfigurationError):
        cfg(epsilon=-1.0)
    with pytest.raises(ConfigurationError):
        cfg(clamp_range=(1.0, 0.0))
    with pytest.raises(ConfigurationError):
        cfg(objective="carlini")
    with pytest.raises(ConfigurationError):
        cfg(n_restarts=0)


# ---------------------------------------------------------------------------
# core PGD behaviour


@pytest.mark.parametrize("objective", OBJECTIVES)
def test_pgd_on_an_empty_batch_returns_an_empty_batch(frozen_tanh, objective):
    x = np.zeros((0, 4))
    out = rc.pgd(frozen_tanh, x, np.zeros(0, dtype=np.int64),
                 cfg(objective=objective, clamp_range=(0.0, 1.0)))
    assert out.shape == (0, 4) and out is not x


def test_pgd_attacks_from_one_start(frozen_tanh):
    # restarts are robust_accuracy's: an example must survive every start
    with pytest.raises(ArgumentError, match="robust_accuracy"):
        rc.pgd(frozen_tanh, np.zeros((2, 4)), [0, 1], cfg(n_restarts=2))


@pytest.mark.parametrize("objective", OBJECTIVES)
@pytest.mark.parametrize("n_labels", [3, 7])
def test_pgd_needs_one_label_per_row(frozen_tanh, objective, n_labels):
    x = np.random.default_rng(12).uniform(size=(5, 4))
    with pytest.raises(DimensionError):
        rc.pgd(frozen_tanh, x, np.zeros(n_labels, dtype=np.int64), cfg(objective=objective))


@pytest.mark.parametrize("objective", OBJECTIVES)
def test_pgd_rejects_non_integer_labels(frozen_tanh, objective):
    x = np.random.default_rng(12).uniform(size=(3, 4))
    with pytest.raises(LabelError):
        rc.pgd(frozen_tanh, x, np.array([0.5, 1.7, 2.2]), cfg(objective=objective))


def test_epsilon_zero_returns_input_exactly(frozen_tanh):
    x = np.random.default_rng(0).uniform(size=(4, 4))
    y = np.array([0, 1, 2, 0])
    out = rc.pgd(frozen_tanh, x, y, cfg(epsilon=0.0, step_size=0.0))
    assert np.array_equal(out, x)


def test_one_step_closed_form_linear():
    # class columns w1=(1,0), w2=(-1,0); CE gradient at the uniform point is
    # (w2 - w1)/2 = (-1, 0); one signed step of 0.1 moves x to (-0.1, 0)
    model = linear_model(np.array([[1.0, -1.0], [0.0, 0.0]]))
    x = np.zeros((1, 2))
    out = rc.pgd(model, x, [0], cfg(epsilon=0.1, step_size=0.1, n_steps=1,
                                    random_start=False))
    assert np.allclose(out, [[-0.1, 0.0]])


def test_objective_never_decreases_without_random_start(frozen_tanh):
    rng = np.random.default_rng(1)
    x = rng.uniform(size=(6, 4))
    y = rng.integers(0, 3, size=6)
    c = cfg(random_start=False, n_steps=7)
    out = rc.pgd(frozen_tanh, x, y, c)
    before = attack_values(frozen_tanh, x, x, y, c)
    after = attack_values(frozen_tanh, out, x, y, c)
    assert np.all(after >= before)


def test_projection_bound_and_clamp(frozen_tanh):
    rng = np.random.default_rng(2)
    x = rng.uniform(0.05, 0.95, size=(8, 4))
    y = rng.integers(0, 3, size=8)
    out = rc.pgd(frozen_tanh, x, y, cfg(epsilon=0.07, step_size=0.05,
                                        n_steps=10, clamp_range=(0.0, 1.0)))
    assert np.max(np.abs(out - x)) <= 0.07 + 1e-12
    assert out.min() >= 0.0 and out.max() <= 1.0


@settings(max_examples=20, deadline=None, derandomize=True)
@given(st.integers(0, 2 ** 31 - 1), st.floats(0.0, 0.2))
def test_projection_invariant_property(seed, epsilon):
    net = rc.snapshot(rc.Network.init_mlp(3, [6], 2, activation="tanh", seed=3))
    rng = np.random.default_rng(seed)
    x = rng.uniform(size=(3, 3))
    y = rng.integers(0, 2, size=3)
    out = rc.pgd(net, x, y, cfg(epsilon=epsilon, step_size=epsilon / 2 or 0.0,
                                n_steps=4, clamp_range=(0.0, 1.0), seed=seed))
    assert np.max(np.abs(out - x)) <= epsilon + 1e-12
    assert out.min() >= -1e-12 and out.max() <= 1.0 + 1e-12


def test_seed_determinism(frozen_tanh):
    rng = np.random.default_rng(3)
    x = rng.uniform(size=(5, 4))
    y = rng.integers(0, 3, size=5)
    a = rc.pgd(frozen_tanh, x, y, cfg(seed=42))
    b = rc.pgd(frozen_tanh, x, y, cfg(seed=42))
    c = rc.pgd(frozen_tanh, x, y, cfg(seed=43))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("objective", OBJECTIVES)
def test_pgd_reads_a_live_model_without_writing_it(objective):
    # a network in training is attacked as it stands: the same bits as on
    # its frozen snapshot, and its parameters untouched
    live = rc.expand_head(rc.Network.init_mlp(4, [8, 8], 2, activation="tanh",
                                              seed=3), 2, seed=4)
    rng = np.random.default_rng(11)
    x = rng.uniform(size=(6, 4))
    y = rng.integers(0, 4, size=6)
    c = cfg(objective=objective, clamp_range=(0.0, 1.0))
    before = live.flatten().tobytes()
    out = rc.pgd(live, x, y, c)
    assert not live.frozen
    assert live.flatten().tobytes() == before
    assert out.tobytes() == rc.pgd(rc.snapshot(live), x, y, c).tobytes()


def test_rejects_input_outside_clamp_range(frozen_tanh):
    with pytest.raises(ArgumentError):
        rc.pgd(frozen_tanh, np.full((1, 4), 2.0), [0],
               cfg(clamp_range=(0.0, 1.0)))


# ---------------------------------------------------------------------------
# objectives


def test_kl_vs_clean_objective_runs(frozen_tanh):
    rng = np.random.default_rng(5)
    x = rng.uniform(size=(3, 4))
    y = rng.integers(0, 3, size=3)
    out = rc.pgd(frozen_tanh, x, y, cfg(objective="kl-vs-clean", n_steps=5))
    assert np.max(np.abs(out - x)) <= 0.1 + 1e-12
    c = cfg(objective="kl-vs-clean", n_steps=5, random_start=False)
    adv = rc.pgd(frozen_tanh, x, y, c)
    assert np.all(attack_values(frozen_tanh, adv, x, y, c) >= 0.0)


def test_bce_newslice_on_a_single_head_attacks_the_whole_head(frozen_tanh):
    # one task: the newest slice is the whole head, as in the first-task loss
    rng = np.random.default_rng(10)
    x = rng.uniform(size=(5, 4))
    y = rng.integers(0, 3, size=5)
    c = cfg(objective="bce-newslice", n_steps=4)
    out = rc.pgd(frozen_tanh, x, y, c)
    assert np.max(np.abs(out - x)) <= 0.1 + 1e-12
    whole_head = losses.bce_rows(frozen_tanh.forward(out), losses.one_hot(y, 3)).value
    assert np.array_equal(attack_values(frozen_tanh, out, x, y, c), whole_head)


def test_bce_newslice_objective_on_two_task_head():
    net = rc.expand_head(rc.Network.init_mlp(3, [6], 2, seed=1), 2, seed=2)
    model = rc.snapshot(net)
    x = np.random.default_rng(6).uniform(size=(4, 3))
    y = np.array([2, 3, 2, 3])
    out = rc.pgd(model, x, y, cfg(objective="bce-newslice", n_steps=4))
    assert np.max(np.abs(out - x)) <= 0.1 + 1e-12


@pytest.mark.parametrize("objective", ["ce", "kl-vs-clean", "bce-newslice"])
def test_objective_values_equal_the_gradient_path_bit_for_bit(objective):
    # PGD takes gradients at all but its last iterate, which it evaluates on
    # a constant input like attack_values: both must agree exactly
    net = rc.expand_head(rc.Network.init_mlp(4, [8, 8], 2, activation="tanh",
                                             seed=3), 2, seed=4)
    model = rc.snapshot(net)
    rng = np.random.default_rng(9)
    x = rng.uniform(size=(6, 4))
    y = rng.integers(0, 4, size=6)
    points = x + rng.uniform(-0.1, 0.1, size=x.shape)
    c = cfg(objective=objective)
    values, grad = _values_and_grad(model, _make_head(model, x, y, c), points)
    assert np.array_equal(attack_values(model, points, x, y, c), values)
    assert grad.shape == points.shape and np.any(grad != 0.0)


# ---------------------------------------------------------------------------
# the input-gradient kernel against the autodiff graph


def expanded_net(activation):
    """Two hidden layers and a two-task head, frozen."""
    return rc.snapshot(rc.expand_head(rc.Network.init_mlp(
        4, [8, 8], 2, activation=activation, seed=3), 2, seed=4))


def graph_rows(model, xn, x_clean, y, objective):
    """Per-row objective as one graph from the input node through the network."""
    logits = model.forward_graph(xn)
    if objective == "ce":
        return losses.ce_rows(logits, y)
    if objective == "kl-vs-clean":
        return losses.kl_rows(logits, model.forward(x_clean))
    start, end = losses.slice_bounds(model.head_boundaries, model.n_tasks - 1,
                                     model.n_tasks)
    return losses.bce_rows(ad.take_cols(logits, slice(start, end)),
                           losses.one_hot_in_slice(y, start, end))


def graph_values_and_grad(model, x_cur, x_clean, y, objective):
    xn = ad.Node(x_cur)
    rows = graph_rows(model, xn, x_clean, y, objective)
    ad.backward(ad.mean_all(rows))
    return rows.value, xn.grad


def reference_pgd(model, x, y, c):
    """PGD differentiated through the graph, projecting onto each box in turn."""
    def project(v):
        v = np.clip(v, x - c.epsilon, x + c.epsilon)
        return v if c.clamp_range is None else np.clip(v, *c.clamp_range)

    rng = np.random.default_rng(np.random.SeedSequence(entropy=c.seed, spawn_key=(0,)))
    x_cur = project(x + rng.uniform(-c.epsilon, c.epsilon, size=x.shape)) \
        if c.random_start else x.copy()
    best_x, best_v = x_cur.copy(), np.full(x.shape[0], -np.inf)
    for step in range(c.n_steps + 1):
        values, grad = graph_values_and_grad(model, x_cur, x, y, c.objective)
        improved = values > best_v
        best_v[improved] = values[improved]
        best_x[improved] = x_cur[improved]
        if step < c.n_steps:
            x_cur = project(x_cur + c.step_size * np.sign(grad))
    return best_x


@pytest.mark.parametrize("objective", OBJECTIVES)
@pytest.mark.parametrize("activation", ACTIVATIONS)
def test_input_kernel_equals_the_graph_bit_for_bit(activation, objective):
    model = expanded_net(activation)
    rng = np.random.default_rng(11)
    x = rng.uniform(size=(7, 4))   # some coordinates sit within epsilon of the range
    y = rng.integers(0, 4, size=7)
    points = x + rng.uniform(-0.05, 0.05, size=x.shape)
    c = cfg(objective=objective, epsilon=0.05, step_size=0.02, n_steps=4,
            clamp_range=(0.0, 1.0), seed=6)
    values, grad = _values_and_grad(model, _make_head(model, x, y, c), points)
    ref_values, ref_grad = graph_values_and_grad(model, points, x, y, objective)
    assert np.array_equal(values, ref_values)
    assert np.array_equal(grad, ref_grad) and np.any(grad != 0.0)
    assert np.array_equal(rc.pgd(model, x, y, c), reference_pgd(model, x, y, c))


# ---------------------------------------------------------------------------
# stacked calls: several batches attacked in one call through `parts`


def stacked_inputs():
    """(model, x, y): 8 rows in [0, 1], some within epsilon of the range."""
    rng = np.random.default_rng(13)
    return expanded_net("tanh"), rng.uniform(size=(8, 4)), rng.integers(0, 4, size=8)


# `pgd` attacks from one start; the parameter keeps the case ids
@pytest.mark.parametrize("n_restarts", [1])
@pytest.mark.parametrize("clamp", [None, (0.0, 1.0)], ids=["free", "clamped"])
@pytest.mark.parametrize("objective", OBJECTIVES)
def test_stacked_parts_equal_separate_calls(objective, clamp, n_restarts):
    model, x, y = stacked_inputs()
    c = cfg(objective=objective, epsilon=0.05, step_size=0.02, n_steps=4,
            clamp_range=clamp, n_restarts=n_restarts, seed=0)
    stacked = rc.pgd(model, x, y, c, parts=((5, 7), (3, 11)))
    assert np.array_equal(stacked[:5], rc.pgd(model, x[:5], y[:5], replace(c, seed=7)))
    assert np.array_equal(stacked[5:], rc.pgd(model, x[5:], y[5:], replace(c, seed=11)))


@pytest.mark.parametrize("objective", OBJECTIVES)
def test_swapping_parts_permutes_the_result(objective):
    model, x, y = stacked_inputs()
    c = cfg(objective=objective, epsilon=0.05, step_size=0.02, n_steps=4)
    out = rc.pgd(model, x, y, c, parts=((5, 7), (3, 11)))
    swapped = rc.pgd(model, np.concatenate([x[5:], x[:5]]),
                     np.concatenate([y[5:], y[:5]]), c, parts=((3, 11), (5, 7)))
    assert np.array_equal(swapped, np.concatenate([out[5:], out[:5]]))


@pytest.mark.parametrize("parts", [((5, 7), (2, 11)), ((5, 7), (4, 11)),
                                   ((8, 7), (0, 11)), ((9, 7), (-1, 11)), ()],
                         ids=["short", "long", "empty-part", "negative-part", "none"])
def test_parts_that_do_not_tile_the_rows_are_rejected(parts):
    model, x, y = stacked_inputs()
    with pytest.raises(ArgumentError):
        rc.pgd(model, x, y, cfg(), parts=parts)


# ---------------------------------------------------------------------------
# FGSM: one full-size signed step, i.e. PGD with step_size = epsilon,
# n_steps = 1 and no random start


def fgsm_cfg(eps):
    return cfg(epsilon=eps, step_size=eps, n_steps=1, random_start=False)


def test_fgsm_epsilon_zero_identity(frozen_tanh):
    x = np.random.default_rng(7).uniform(size=(2, 4))
    assert np.array_equal(rc.pgd(frozen_tanh, x, [0, 1], fgsm_cfg(0.0)), x)


def grid_search_corner_optimum(model, x, y, epsilon, c):
    """Exhaustive oracle: evaluate the objective at every epsilon-ball corner."""
    d = x.shape[1]
    best = -np.inf
    for signs in itertools.product((-1.0, 1.0), repeat=d):
        cand = x + epsilon * np.asarray(signs)
        best = max(best, float(attack_values(model, cand, x, y, c)[0]))
    return best


@pytest.mark.parametrize("seed", range(6))
def test_fgsm_attains_linear_model_corner_optimum(seed):
    # two-class linear model: CE is monotone in (w2 - w1) . delta, so the
    # box maximum sits at the corner FGSM reaches in one signed step
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 5))
    w = rng.normal(size=(d, 2))
    while np.any(np.abs(w[:, 0] - w[:, 1]) < 1e-3):
        w = rng.normal(size=(d, 2))
    model = linear_model(w)
    x = rng.uniform(-1.0, 1.0, size=(1, d))
    y = np.array([int(rng.integers(0, 2))])
    eps = 0.3
    c = fgsm_cfg(eps)
    achieved = float(attack_values(model, rc.pgd(model, x, y, c), x, y, c)[0])
    oracle = grid_search_corner_optimum(model, x, y, eps, c)
    assert achieved == pytest.approx(oracle, rel=1e-12)

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import robustcl as rc
from robustcl.attacks import (_make_objective, _values_and_grad,
                              attack_objective_values, parse_rational)
from robustcl.errors import ArgumentError, ConfigurationError, ContractError


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
    before = attack_objective_values(frozen_tanh, x, x, y, c)
    after = attack_objective_values(frozen_tanh, out, x, y, c)
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


def test_restarts_return_best_objective(frozen_tanh):
    rng = np.random.default_rng(4)
    x = rng.uniform(size=(4, 4))
    y = rng.integers(0, 3, size=4)
    single = cfg(seed=5, n_restarts=1)
    multi = cfg(seed=5, n_restarts=4)
    v1 = attack_objective_values(frozen_tanh, rc.pgd(frozen_tanh, x, y, single),
                                 x, y, single)
    v4 = attack_objective_values(frozen_tanh, rc.pgd(frozen_tanh, x, y, multi),
                                 x, y, multi)
    assert np.all(v4 >= v1)


def test_requires_frozen_model(small_tanh_net):
    with pytest.raises(ContractError):
        rc.pgd(small_tanh_net, np.zeros((1, 4)), [0], cfg())


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
    assert np.all(attack_objective_values(frozen_tanh, adv, x, y, c) >= 0.0)


def test_bce_newslice_needs_two_tasks(frozen_tanh):
    with pytest.raises(ConfigurationError):
        rc.pgd(frozen_tanh, np.zeros((1, 4)), [0], cfg(objective="bce-newslice"))


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
    # a constant input like attack_objective_values: both must agree exactly
    net = rc.expand_head(rc.Network.init_mlp(4, [8, 8], 2, activation="tanh",
                                             seed=3), 2, seed=4)
    model = rc.snapshot(net)
    rng = np.random.default_rng(9)
    x = rng.uniform(size=(6, 4))
    y = rng.integers(0, 4, size=6)
    points = x + rng.uniform(-0.1, 0.1, size=x.shape)
    c = cfg(objective=objective)
    values, grad = _values_and_grad(_make_objective(model, x, y, c), points)
    assert np.array_equal(attack_objective_values(model, points, x, y, c), values)
    assert grad.shape == points.shape and np.any(grad != 0.0)


# ---------------------------------------------------------------------------
# FGSM


def test_fgsm_epsilon_zero_identity(frozen_tanh):
    x = np.random.default_rng(7).uniform(size=(2, 4))
    assert np.array_equal(rc.fgsm(frozen_tanh, x, [0, 1], 0.0), x)


def test_fgsm_equals_single_step_pgd(frozen_tanh):
    rng = np.random.default_rng(8)
    x = rng.uniform(size=(3, 4))
    y = rng.integers(0, 3, size=3)
    direct = rc.pgd(frozen_tanh, x, y, cfg(epsilon=0.05, step_size=0.05,
                                           n_steps=1, random_start=False, seed=0))
    assert np.array_equal(rc.fgsm(frozen_tanh, x, y, 0.05), direct)


def grid_search_corner_optimum(model, x, y, epsilon, c):
    """Exhaustive oracle: evaluate the objective at every epsilon-ball corner."""
    d = x.shape[1]
    best = -np.inf
    for signs in itertools.product((-1.0, 1.0), repeat=d):
        cand = x + epsilon * np.asarray(signs)
        best = max(best, float(attack_objective_values(model, cand, x, y, c)[0]))
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
    c = cfg(epsilon=eps, step_size=eps, n_steps=1, random_start=False)
    adv = rc.fgsm(model, x, y, eps)
    achieved = float(attack_objective_values(model, adv, x, y, c)[0])
    oracle = grid_search_corner_optimum(model, x, y, eps, c)
    assert achieved == pytest.approx(oracle, rel=1e-12)

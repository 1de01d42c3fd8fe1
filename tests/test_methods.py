import dataclasses

import numpy as np
import pytest

import robustcl as rc
from robustcl import autodiff as ad
from robustcl import losses, methods
from robustcl.errors import ConfigurationError, ContractError, LabelError
from robustcl.network import split

from conftest import finite_difference_param_grad

ATTACK = rc.AttackConfig(epsilon=0.05, step_size=0.0125, n_steps=3,
                         random_start=False, clamp_range=None, seed=0)


def val(node):
    return float(node.value)


def make_cfg(name, **kw):
    return methods.make_method_config(name, ATTACK, **kw)


def build(cfg, student, teacher, batch, x_adv, replay=None, reg=None):
    """(loss node, {term: value}) from the training-loop entry point."""
    return methods.build_training_loss(cfg, rc.Passes(student), teacher, *batch,
                                       x_adv, replay, reg)


def fpd(student, teacher, x, x_adv, metric="kl"):
    """`flatness_distill_loss` with the student's and teacher's logits at x_adv."""
    passes = rc.Passes(student)
    return rc.flatness_distill_loss(passes, teacher, x, passes.logits(x_adv),
                                    teacher.forward(x_adv), metric)


@pytest.fixture
def two_task_pair():
    """(student with 2+2 head, frozen 2-class teacher) sharing a trunk."""
    teacher_net = rc.Network.init_mlp(4, [8, 6], 2, activation="tanh", seed=21)
    teacher = rc.snapshot(teacher_net)
    student = rc.expand_head(teacher_net, 2, seed=22)
    return student, teacher


@pytest.fixture
def batch():
    rng = np.random.default_rng(31)
    x = rng.uniform(size=(6, 4))
    y = np.array([2, 3, 2, 3, 2, 3])
    x_adv = np.clip(x + rng.uniform(-0.05, 0.05, size=x.shape), 0, 1)
    return x, y, x_adv


# ---------------------------------------------------------------------------
# config defaults and validation


def test_registry_covers_all_listed_methods():
    expected = {"pgd-at", "trades", "mart", "i-ard", "i-rslad", "i-adaad",
                "r-lwf", "r-lwf-mc", "r-ewc-on", "r-si", "r-er", "r-er-ace",
                "r-der", "r-der++", "r-icarl", "flair", "flair+"}
    assert set(methods.REGISTRY) == expected


def test_defaults_follow_published_settings():
    assert make_cfg("trades").alpha == 6.0
    assert make_cfg("i-adaad").alpha == 1.0 and make_cfg("i-adaad").beta == 1.0
    assert make_cfg("r-der").alpha == 0.3
    assert make_cfg("r-der++").alpha == 0.1 and make_cfg("r-der++").beta == 0.5
    assert make_cfg("flair").alpha == 0.5 and make_cfg("flair").beta == 2.0
    assert make_cfg("flair+").augment is True
    assert make_cfg("trades").attack.objective == "kl-vs-clean"
    assert make_cfg("pgd-at").attack.objective == "ce"


def test_buffer_kind_validation():
    with pytest.raises(ConfigurationError):
        make_cfg("r-der", buffer_kind="reservoir")
    with pytest.raises(ConfigurationError):
        make_cfg("r-icarl", buffer_kind="none")
    with pytest.raises(ConfigurationError):
        make_cfg("pgd-at", buffer_kind="fifo")
    with pytest.raises(ConfigurationError):
        make_cfg("unknown-method")


# ---------------------------------------------------------------------------
# plain adversarial training (endpoint reductions are bit-exact)


def test_pgd_at_equals_direct_ce(two_task_pair, batch):
    student, _ = two_task_pair
    x, y, x_adv = batch
    loss, _ = build(make_cfg("pgd-at"), student, None, (x[:1], y[:1]), x_adv[:1])
    assert val(loss) == val(rc.ce(student.forward(x_adv[:1]), y[:1]))


def test_trades_alpha_zero_is_clean_ce(two_task_pair, batch):
    student, _ = two_task_pair
    x, y, x_adv = batch
    loss, _ = build(make_cfg("trades", alpha=0.0), student, None, (x, y), x_adv)
    assert val(loss) == val(rc.ce(student.forward(x), y))


def test_trades_kl_term_vanishes_when_adv_equals_clean(two_task_pair, batch):
    student, _ = two_task_pair
    x, y, _ = batch
    loss, _ = build(make_cfg("trades", alpha=3.0), student, None, (x, y), x)
    assert val(loss) == pytest.approx(val(rc.ce(student.forward(x), y)), abs=1e-15)


def test_mart_terms(two_task_pair, batch):
    student, _ = two_task_pair
    x, y, x_adv = batch
    cfg = make_cfg("mart", alpha=2.0)
    _, terms = build(cfg, student, None, (x, y), x_adv)
    assert set(terms) == {"bce_adv", "weighted_kl"}
    onehot = losses.one_hot(y, student.out_dim)
    assert terms["bce_adv"] == val(rc.bce_multilabel(student.forward(x_adv), onehot))
    # hand-rolled weighted KL oracle
    clean = student.forward(x)
    p_true = np.exp(clean - np.log(np.exp(clean).sum(axis=1, keepdims=True)))[
        np.arange(len(y)), y]
    kl_rows = losses.kl_rows(student.forward(x_adv), clean).value
    assert terms["weighted_kl"] == pytest.approx(
        2.0 * np.mean((1 - p_true) * kl_rows), rel=1e-12)


def test_missing_adversarial_batch_is_contract_error(two_task_pair, batch):
    student, _ = two_task_pair
    x, y, _ = batch
    with pytest.raises(ContractError):
        build(make_cfg("pgd-at"), student, None, (x, y), None)


# ---------------------------------------------------------------------------
# incremental adversarial distillation


def test_iad_beta_zero_reduces_to_adv_ce(two_task_pair, batch):
    student, teacher = two_task_pair
    x, y, x_adv = batch
    for kind in ("i-ard", "i-rslad", "i-adaad"):
        loss, _ = build(make_cfg(kind, beta=0.0), student, teacher, (x, y), x_adv)
        assert val(loss) == val(rc.ce(student.forward(x_adv), y))


def test_iad_zero_distillation_when_student_matches_teacher(batch):
    teacher_net = rc.Network.init_mlp(4, [8, 6], 2, activation="tanh", seed=21)
    teacher = rc.snapshot(teacher_net)
    student = rc.expand_head(teacher_net, 2, seed=22)
    x, y, _ = batch
    # old slice equals the teacher right after expansion; with x_adv = x every
    # compared pair of distributions coincides, so each KL term vanishes
    for kind in ("i-ard", "i-rslad", "i-adaad"):
        _, terms = build(make_cfg(kind), student, teacher, (x, y), x)
        assert terms["distill"] == pytest.approx(0.0, abs=1e-12)
    # i-adaad compares adversarial outputs against the adversarial teacher,
    # so it stays at zero even for a genuinely perturbed input
    x_adv = np.clip(x + 0.03, 0.0, 1.0)
    _, terms = build(make_cfg("i-adaad", alpha=1.0), student, teacher, (x, y), x_adv)
    assert terms["distill"] == pytest.approx(0.0, abs=1e-12)


def test_i_rslad_alpha_one_keeps_only_adversarial_branch(two_task_pair, batch):
    student, teacher = two_task_pair
    x, y, x_adv = batch
    cfg = make_cfg("i-rslad", alpha=1.0, beta=2.0)
    _, terms = build(cfg, student, teacher, (x, y), x_adv)
    w = teacher.out_dim
    manual = 2.0 * val(rc.kl_div(student.forward(x_adv)[:, :w], teacher.forward(x)))
    assert terms["distill"] == pytest.approx(manual, rel=1e-12)


def test_i_adaad_uses_adversarial_teacher_reference(two_task_pair, batch):
    student, teacher = two_task_pair
    x, y, x_adv = batch
    cfg = make_cfg("i-adaad", alpha=1.0, beta=1.0)
    _, terms = build(cfg, student, teacher, (x, y), x_adv)
    w = teacher.out_dim
    manual = val(rc.kl_div(student.forward(x_adv)[:, :w], teacher.forward(x_adv)))
    assert terms["distill"] == pytest.approx(manual, rel=1e-12)


def test_teacher_width_mismatch_is_contract_error(batch):
    student = rc.expand_head(rc.Network.init_mlp(4, [8, 6], 2, seed=1), 2, seed=2)
    wrong_teacher = rc.snapshot(rc.Network.init_mlp(4, [8, 6], 3, seed=3))
    x, y, x_adv = batch
    with pytest.raises(ContractError):
        build(make_cfg("i-ard"), student, wrong_teacher, (x, y), x_adv)


# ---------------------------------------------------------------------------
# non-rehearsal CIL


def test_r_lwf_alpha_zero(two_task_pair, batch):
    student, teacher = two_task_pair
    x, y, x_adv = batch
    loss, _ = build(make_cfg("r-lwf", alpha=0.0), student, teacher, (x, y), x_adv)
    assert val(loss) == val(rc.ce(student.forward(x_adv), y))


def test_r_lwf_mc_term_isolation(two_task_pair, batch):
    student, teacher = two_task_pair
    x, y, x_adv = batch
    total, terms = build(make_cfg("r-lwf-mc"), student, teacher, (x, y), x_adv)
    w = teacher.out_dim
    new_bce = rc.bce_multilabel(student.forward(x_adv)[:, w:],
                                losses.one_hot_in_slice(y, w, student.out_dim))
    distill = rc.bce_multilabel(student.forward(x)[:, :w],
                                rc.sigmoid(teacher.forward(x)))
    assert terms["bce_new"] == pytest.approx(val(new_bce), rel=1e-12)
    assert terms["bce_distill"] == pytest.approx(val(distill), rel=1e-12)
    assert val(total) == pytest.approx(val(new_bce) + val(distill), rel=1e-12)


def test_ewc_penalty_zero_at_anchor(two_task_pair, batch):
    student, teacher = two_task_pair
    x, y, x_adv = batch
    reg = methods.RegState.zeros(student)
    reg.importance = np.ones(student.n_params)
    reg.anchor = student.flatten()
    cfg = make_cfg("r-ewc-on", alpha=1.0)
    _, terms = build(cfg, student, teacher, (x, y), x_adv, reg=reg)
    assert terms["penalty"] == 0.0


def test_ewc_penalty_quadratic_value(two_task_pair, batch):
    student, teacher = two_task_pair
    x, y, x_adv = batch
    reg = methods.RegState.zeros(student)
    rng = np.random.default_rng(5)
    reg.importance = rng.uniform(size=student.n_params)
    reg.anchor = student.flatten() + rng.normal(size=student.n_params)
    cfg = make_cfg("r-ewc-on", alpha=0.7)
    _, terms = build(cfg, student, teacher, (x, y), x_adv, reg=reg)
    theta = student.flatten()
    expected = 0.7 * np.sum(reg.importance * (theta - reg.anchor) ** 2)
    assert terms["penalty"] == pytest.approx(expected, rel=1e-12)


def test_reg_state_required(two_task_pair, batch):
    student, teacher = two_task_pair
    x, y, x_adv = batch
    with pytest.raises(ContractError):
        build(make_cfg("r-si"), student, teacher, (x, y), x_adv)


def test_update_reg_state_ewc():
    net = rc.Network.init_mlp(3, [4], 2, activation="tanh", seed=2)
    reg = methods.RegState.zeros(net)
    rng = np.random.default_rng(6)
    x_adv = rng.uniform(size=(4, 3))
    y = rng.integers(0, 2, size=4)
    # from a zero Fisher only the fresh batch statistic remains
    methods.refresh_fisher(reg, net, [(x_adv, y)])
    g = rc.grad_params(net, lambda z, aux: rc.ce(z, aux), (x_adv, y))
    assert np.allclose(reg.importance, g ** 2)
    # decay-only when gradients vanish: zero inputs kill the weight grads and
    # label-balanced uniform logits cancel the bias grads
    zero_net = rc.Network([rc.Layer(np.zeros((3, 4)), np.zeros(4), "identity"),
                           rc.Layer(np.zeros((4, 2)), np.zeros(2), "identity")],
                          [2], 3)
    reg2 = methods.RegState.zeros(zero_net)
    reg2.importance = np.full(zero_net.n_params, 2.0)
    balanced = (np.zeros((2, 3)), np.array([0, 1]))
    methods.refresh_fisher(reg2, zero_net, [balanced])
    assert np.allclose(reg2.importance, methods.EWC_GAMMA * 2.0)


def test_update_reg_state_si_frozen_params_leave_omega_unchanged():
    net = rc.Network.init_mlp(3, [4], 2, seed=2)
    reg = methods.RegState.zeros(net)
    g = np.ones(net.n_params)
    methods.si_step(reg, g, np.zeros(net.n_params))
    methods.si_consolidate(reg, net)
    assert np.array_equal(reg.importance, np.zeros(net.n_params))


def test_update_reg_state_si_accumulates_path():
    net = rc.Network.init_mlp(3, [4], 2, seed=2)
    reg = methods.RegState.zeros(net)
    delta = np.full(net.n_params, -0.1)
    grads = np.ones(net.n_params)
    methods.si_step(reg, grads, delta)
    assert np.allclose(reg.si_path, 0.1)
    net.load_params(net.flatten() + delta)
    methods.si_consolidate(reg, net)
    assert np.all(reg.importance > 0)
    assert np.allclose(reg.importance, 0.1 / (0.01 + methods.SI_XI))


def test_reg_state_expands_with_head():
    net = rc.Network.init_mlp(3, [4], 2, seed=2)
    reg = methods.RegState.zeros(net)
    reg.importance = np.arange(net.n_params, dtype=float)
    wide = rc.expand_head(net, 2, seed=3)
    grown = reg.expand_to(wide)
    assert grown.importance.shape == (wide.n_params,)
    # old entries preserved blockwise, new output columns get zero weight
    blocks_old = split(reg.importance, net.layout())
    blocks_new = split(grown.importance, wide.layout())
    assert np.array_equal(blocks_new[-2][:, :2], blocks_old[-2])
    assert np.array_equal(blocks_new[-2][:, 2:], np.zeros((4, 2)))


# ---------------------------------------------------------------------------
# rehearsal CIL


def test_r_er_empty_buffer_equals_pgd_at(two_task_pair, batch):
    student, teacher = two_task_pair
    x, y, x_adv = batch
    cfg = methods.make_method_config("r-er", ATTACK)
    loss, _ = build(cfg, student, teacher, (x, y), x_adv, None)
    assert val(loss) == val(rc.ce(student.forward(x_adv), y))


def test_r_der_alpha_zero_equals_pgd_at(two_task_pair, batch):
    student, teacher = two_task_pair
    x, y, x_adv = batch
    cfg = methods.make_method_config("r-der", ATTACK, alpha=0.0)
    replay = (x[:2], y[:2], [student.forward(x[:2])[i] for i in range(2)])
    loss, _ = build(cfg, student, teacher, (x, y), x_adv, replay)
    assert val(loss) == val(rc.ce(student.forward(x_adv), y))


def test_r_der_mse_zero_when_stored_logits_match(two_task_pair, batch):
    student, teacher = two_task_pair
    x, y, x_adv = batch
    cfg = methods.make_method_config("r-der", ATTACK, alpha=1.0)
    xb = x[:3]
    stored = [student.forward(xb)[i] for i in range(3)]
    _, terms = build(cfg, student, teacher, (x, y), x_adv, (xb, y[:3], stored))
    assert terms["mse_buffer"] == pytest.approx(0.0, abs=1e-15)


def test_r_der_handles_mixed_stored_widths(two_task_pair, batch):
    student, teacher = two_task_pair
    x, y, x_adv = batch
    cfg = methods.make_method_config("r-der", ATTACK, alpha=1.0)
    xb = x[:3]
    full = student.forward(xb)
    stored = [full[0, :2], full[1], full[2, :2]]      # two old-width entries
    _, terms = build(cfg, student, teacher, (x, y), x_adv, (xb, y[:3], stored))
    assert terms["mse_buffer"] == pytest.approx(0.0, abs=1e-15)


def test_r_der_mixed_width_mse_equals_the_per_row_formula(two_task_pair, batch):
    student, teacher = two_task_pair
    x, y, x_adv = batch
    cfg = methods.make_method_config("r-der", ATTACK, alpha=1.0)
    xb = x[:3]
    full = student.forward(xb)
    stored = [full[0, :2] + 0.3, full[1] - np.array([0.1, 0.2, 0.3, 0.4]),
              1.5 * full[2, :2]]
    _, terms = build(cfg, student, teacher, (x, y), x_adv, (xb, y[:3], stored))
    expected = np.mean([np.mean((full[i, :z.size] - z) ** 2)
                        for i, z in enumerate(stored)])
    assert expected > 0.0
    assert terms["mse_buffer"] == pytest.approx(expected, rel=1e-12)


def test_r_er_ace_masks_to_batch_classes(two_task_pair, batch):
    student, teacher = two_task_pair
    x, y, x_adv = batch
    cfg = methods.make_method_config("r-er-ace", ATTACK)
    _, terms = build(cfg, student, teacher, (x, y), x_adv, None)
    expected = rc.ace(student.forward(x_adv), y, np.unique(y))
    assert terms["ace_adv"] == pytest.approx(val(expected), rel=1e-12)


def test_r_icarl_first_task_uses_full_head(batch):
    student = rc.Network.init_mlp(4, [8, 6], 2, activation="tanh", seed=2)
    x, y, x_adv = batch
    y0 = y - 2          # labels 0/1 on the first task head
    cfg = methods.make_method_config("r-icarl", ATTACK)
    _, terms = build(cfg, student, None, (x, y0), x_adv)
    assert set(terms) == {"bce_new"}
    expected = rc.bce_multilabel(student.forward(x_adv), losses.one_hot(y0, 2))
    assert terms["bce_new"] == pytest.approx(val(expected), rel=1e-12)


# ---------------------------------------------------------------------------
# separated-logit distillation


def test_separated_logit_alpha_zero_is_new_slice_only(two_task_pair, batch):
    student, teacher = two_task_pair
    x, y, x_adv = batch
    _, terms = build(make_cfg("flair", alpha=0.0), student, teacher, (x, y), x_adv)
    assert list(terms) == ["bce_new", "fpd"]
    w = teacher.out_dim
    expected = rc.bce_multilabel(student.forward(x_adv)[:, w:],
                                 losses.one_hot_in_slice(y, w, student.out_dim))
    assert terms["bce_new"] == val(expected)


def test_separated_logit_distill_grad_zero_when_matching(two_task_pair, batch):
    student, teacher = two_task_pair
    # right after expansion the old slice equals the teacher, so the
    # distillation term sits at its stationary point for the logits
    x, y, x_adv = batch
    cfg = make_cfg("flair", alpha=1.0, beta=0.0)
    passes = rc.Passes(student)
    terms = cfg.info.terms(cfg, passes, teacher, x, y, x_adv, None, None)
    ad.backward(terms["bce_distill"])
    blocks = split(passes.grads(), student.layout())
    # the gradient through sigma(z) - sigma(z_teacher) = 0 vanishes everywhere
    assert all(np.max(np.abs(w)) < 1e-12 and np.max(np.abs(b)) < 1e-12
               for w, b in zip(blocks[::2], blocks[1::2]))


def test_new_slice_term_has_exactly_zero_grad_on_old_output_rows(two_task_pair,
                                                                 batch):
    student, teacher = two_task_pair
    x, y, x_adv = batch
    passes = rc.Passes(student)
    loss, _ = methods.build_training_loss(make_cfg("flair", alpha=0.0, beta=0.0),
                                          passes, teacher, x, y, x_adv)
    ad.backward(loss)
    w_out, b_out = split(passes.grads(), student.layout())[-2:]
    old = teacher.out_dim
    assert np.array_equal(w_out[:, :old], np.zeros_like(w_out[:, :old]))
    assert np.array_equal(b_out[:old], np.zeros(old))
    # while the new columns do receive gradient
    assert np.max(np.abs(w_out[:, old:])) > 0


@pytest.mark.parametrize("name", ["flair", "flair+", "r-lwf-mc", "r-icarl"])
def test_multilabel_losses_reject_non_integer_labels(two_task_pair, batch, name):
    # these losses build their targets with one_hot_in_slice, which must not
    # truncate 2.5 to class 2
    student, teacher = two_task_pair
    x, _, x_adv = batch
    y = np.array([2.5, 3.7, 2.2, 3.0, 2.0, 3.0])
    with pytest.raises(LabelError):
        build(make_cfg(name), student, teacher, (x, y), x_adv)


# ---------------------------------------------------------------------------
# flatness-preserving distillation


def test_fpd_zero_when_student_equals_teacher(batch):
    teacher_net = rc.Network.init_mlp(4, [8, 6], 2, activation="tanh", seed=21)
    teacher = rc.snapshot(teacher_net)
    student = rc.expand_head(teacher_net, 2, seed=22)
    x, y, x_adv = batch
    assert val(fpd(student, teacher, x, x_adv)) == pytest.approx(0.0, abs=1e-12)


def test_fpd_zero_when_adv_equals_clean(two_task_pair, batch):
    student, teacher = two_task_pair
    x, _, _ = batch
    assert val(fpd(student, teacher, x, x)) == 0.0


def test_fpd_requires_teacher(two_task_pair, batch):
    student, _ = two_task_pair
    x, _, x_adv = batch
    passes = rc.Passes(student)
    with pytest.raises(ContractError):
        rc.flatness_distill_loss(passes, None, x, passes.logits(x_adv),
                                 student.forward(x_adv)[:, :2])


def test_fpd_mse_metric(two_task_pair, batch):
    student, teacher = two_task_pair
    x, _, x_adv = batch
    w = teacher.out_dim
    ds = student.forward(x_adv)[:, :w] - student.forward(x)[:, :w]
    dt = teacher.forward(x_adv) - teacher.forward(x)
    expected = rc.mse(dt, ds)
    got = fpd(student, teacher, x, x_adv, metric="mse")
    assert val(got) == pytest.approx(val(expected), rel=1e-12)


def taylor_residual_ratio(seed, delta_norm=0.02):
    """Oracle: third-order residual of the quadratic expansion shrinks ~8x
    when the perturbation is halved."""
    rng = np.random.default_rng(seed)
    net = rc.Network.init_mlp(6, [12, 10], 4, activation="tanh", seed=seed)
    x = rng.uniform(0.2, 0.8, size=6)
    direction = rng.normal(size=6)
    delta = delta_norm * direction / np.linalg.norm(direction)
    k = net.out_dim
    grads = np.zeros((k, 6))
    hess = np.zeros((k, 6, 6))
    pick = lambda z, aux: ad.mean_all(ad.take_per_row(z, aux))
    for c in range(k):
        aux = np.array([c])
        grads[c] = rc.grad_input(net, pick, x[None, :], aux)[0]
        hess[c] = rc.hessian_input(net, pick, x, aux)

    def residual(d):
        f0 = net.forward(x[None, :])[0]
        f1 = net.forward((x + d)[None, :])[0]
        second = np.array([0.5 * d @ hess[c] @ d for c in range(k)])
        return np.linalg.norm(f1 - f0 - grads @ d - second)

    return residual(delta) / residual(delta / 2)


def test_fpd_taylor_residual_scaling_over_20_seeds():
    ratios = np.array([taylor_residual_ratio(seed) for seed in range(20)])
    mean = ratios.mean()
    assert 6.0 <= mean <= 10.0
    assert abs(mean - 8.0) <= 0.2


def test_fpd_loss_path_residual_scales_like_cube(two_task_pair):
    # through the sliced output-difference actually used by the loss
    student, teacher = two_task_pair
    rng = np.random.default_rng(77)
    x = rng.uniform(0.3, 0.7, size=(1, 4))
    d = rng.normal(size=(1, 4))
    d *= 0.02 / np.linalg.norm(d)
    w = teacher.out_dim
    pick = lambda z, aux: ad.mean_all(ad.take_per_row(z, aux))
    grads = np.stack([rc.grad_input(teacher, pick, x, np.array([c]))[0]
                      for c in range(w)])
    hess = np.stack([rc.hessian_input(teacher, pick, x[0], np.array([c]))
                     for c in range(w)])

    def residual(dd):
        delta_f = (teacher.forward(x + dd) - teacher.forward(x))[0]
        approx = grads @ dd[0] + 0.5 * np.array([dd[0] @ hess[c] @ dd[0]
                                                 for c in range(w)])
        return np.linalg.norm(delta_f - approx)

    ratio = residual(d) / residual(d / 2)
    assert 6.0 <= ratio <= 10.0


# ---------------------------------------------------------------------------
# the composite objective


def test_flair_alpha_beta_zero_is_new_slice_bce(two_task_pair, batch):
    student, teacher = two_task_pair
    x, y, x_adv = batch
    loss, terms = build(make_cfg("flair", alpha=0.0, beta=0.0), student, teacher,
                        (x, y), x_adv)
    assert set(terms) == {"bce_new"}
    w = teacher.out_dim
    expected = rc.bce_multilabel(student.forward(x_adv)[:, w:],
                                 losses.one_hot_in_slice(y, w, student.out_dim))
    assert val(loss) == val(expected)


def test_flair_beta_zero_equals_separated_logit_loss(two_task_pair, batch):
    student, teacher = two_task_pair
    x, y, x_adv = batch
    loss, _ = build(make_cfg("flair", alpha=0.5, beta=0.0), student, teacher,
                    (x, y), x_adv)
    w = teacher.out_dim
    logits = student.forward(x_adv)
    new = rc.bce_multilabel(logits[:, w:],
                            losses.one_hot_in_slice(y, w, student.out_dim))
    distill = rc.bce_multilabel(logits[:, :w], rc.sigmoid(teacher.forward(x_adv)))
    assert val(loss) == pytest.approx(val(new) + 0.5 * val(distill), rel=1e-12)


def test_flair_beta_adds_only_the_fpd_term(two_task_pair, batch):
    student, teacher = two_task_pair
    x, y, x_adv = batch
    _, without = build(make_cfg("flair", alpha=0.5, beta=0.0), student, teacher,
                       (x, y), x_adv)
    _, terms = build(make_cfg("flair", alpha=0.5, beta=2.0, fpd_metric="mse"),
                     student, teacher, (x, y), x_adv)
    assert list(without) == ["bce_new", "bce_distill"]
    assert list(terms) == ["bce_new", "bce_distill", "fpd"]
    assert {k: terms[k] for k in without} == without
    assert terms["fpd"] == 2.0 * val(fpd(student, teacher, x, x_adv, metric="mse"))


def test_flair_first_task_reduces_to_full_head_bce(batch):
    student = rc.Network.init_mlp(4, [8, 6], 2, activation="tanh", seed=2)
    x, y, x_adv = batch
    y0 = y - 2
    loss, _ = build(make_cfg("flair"), student, None, (x, y0), x_adv)
    expected = rc.bce_multilabel(student.forward(x_adv), losses.one_hot(y0, 2))
    assert val(loss) == val(expected)


@pytest.mark.parametrize("name,overrides,teacher_passes", [
    ("i-rslad", {"alpha": 0.5}, 1), ("i-adaad", {"alpha": 0.5}, 2), ("flair", {}, 2)],
    ids=["i-rslad", "i-adaad", "flair"])
def test_teacher_runs_once_per_input(two_task_pair, batch, monkeypatch, name,
                                     overrides, teacher_passes):
    student, teacher = two_task_pair
    x, y, x_adv = batch
    forward, inputs = teacher.forward, []
    monkeypatch.setattr(teacher, "forward",
                        lambda v: inputs.append(v) or forward(v))
    build(make_cfg(name, **overrides), student, teacher, (x, y), x_adv)
    assert len(inputs) == teacher_passes


def test_flair_default_coefficients_accepted_from_config():
    cfg = make_cfg("flair")
    assert (cfg.alpha, cfg.beta) == (0.5, 2.0)


def test_build_training_loss_terms_are_finite_and_deterministic(two_task_pair,
                                                                batch):
    student, teacher = two_task_pair
    x, y, x_adv = batch
    cfg = make_cfg("flair")
    loss1, terms1 = methods.build_training_loss(cfg, rc.Passes(student), teacher,
                                                x, y, x_adv)
    loss2, terms2 = methods.build_training_loss(cfg, rc.Passes(student), teacher,
                                                x, y, x_adv)
    assert np.isfinite(val(loss1))
    assert val(loss1) == val(loss2)
    assert terms1 == terms2
    assert set(terms1) == {"bce_new", "bce_distill", "fpd"}


# term names per method: (with the previous-task teacher, first task without one);
# methods that replay from a reservoir get a 3-row buffer batch in both cases
EXPECTED_TERMS = {
    "pgd-at": ({"ce_adv"}, {"ce_adv"}),
    "trades": ({"ce_clean", "kl_adv_clean"}, {"ce_clean", "kl_adv_clean"}),
    "mart": ({"bce_adv", "weighted_kl"}, {"bce_adv", "weighted_kl"}),
    "i-ard": ({"ce_adv", "distill"}, {"ce_adv"}),
    "i-rslad": ({"ce_adv", "distill"}, {"ce_adv"}),
    "i-adaad": ({"ce_adv", "distill"}, {"ce_adv"}),
    "r-lwf": ({"ce_adv", "distill"}, {"ce_adv"}),
    "r-lwf-mc": ({"bce_new", "bce_distill"}, {"bce_new"}),
    "r-ewc-on": ({"ce_adv", "penalty"}, {"ce_adv", "penalty"}),
    "r-si": ({"ce_adv", "penalty"}, {"ce_adv", "penalty"}),
    "r-er": ({"ce_adv", "ce_buffer"}, {"ce_adv", "ce_buffer"}),
    "r-er-ace": ({"ace_adv", "ce_buffer"}, {"ace_adv", "ce_buffer"}),
    "r-der": ({"ce_adv", "mse_buffer"}, {"ce_adv", "mse_buffer"}),
    "r-der++": ({"ce_adv", "mse_buffer", "ce_buffer"},
                {"ce_adv", "mse_buffer", "ce_buffer"}),
    "r-icarl": ({"bce_new", "bce_distill"}, {"bce_new"}),
    "flair": ({"bce_new", "bce_distill", "fpd"}, {"bce_new"}),
    "flair+": ({"bce_new", "bce_distill", "fpd"}, {"bce_new"}),
}


@pytest.mark.parametrize("with_teacher", [True, False], ids=["teacher", "first-task"])
@pytest.mark.parametrize("name,buffer_kind", [
    (name, kind) for name, info in methods.REGISTRY.items()
    for kind in info.buffers])
def test_build_training_loss_dispatches_every_method(two_task_pair, batch, name,
                                                     buffer_kind, with_teacher):
    student, teacher = two_task_pair
    x, y, x_adv = batch
    cfg = make_cfg(name, buffer_kind=buffer_kind)
    replay = None
    if buffer_kind.startswith("reservoir"):
        xb = x[:3] + 0.01
        stored = [student.forward(xb)[i] for i in range(3)] \
            if buffer_kind == "reservoir-with-logits" else [None] * 3
        replay = (np.clip(xb - 0.02, 0.0, 1.0), y[:3], stored)
    reg = methods.RegState.zeros(student)
    reg.importance = np.full(student.n_params, 0.5)
    reg.anchor = student.flatten() + 0.1
    loss, terms = methods.build_training_loss(
        cfg, rc.Passes(student), teacher if with_teacher else None, x, y, x_adv,
        replay, reg)
    assert np.isfinite(val(loss))
    assert set(terms) == EXPECTED_TERMS[name][0 if with_teacher else 1]


# ---------------------------------------------------------------------------
# whole-loss gradient oracle: every method's composite training loss
# against central differences over all parameters

# methods whose default coefficients leave a branch of the loss unused
ORACLE_OVERRIDES = {"i-rslad": {"alpha": 0.5}, "i-adaad": {"alpha": 0.5}}


def oracle_case(name, activation):
    """Config, student and the other arguments of `build_training_loss` for
    `name` on a [6, 5] net over 4 inputs expanded to a second task and moved
    off its teacher (so no distillation term sits at its zero-gradient
    minimum), with a 3-row replay batch whose stored logits have mixed
    widths, and a random importance (Fisher for r-ewc-on, omega for r-si)
    and anchor."""
    rng = np.random.default_rng(71)
    base = rc.Network.init_mlp(4, [6, 5], 2, activation=activation, seed=72)
    teacher = rc.snapshot(base)
    student = rc.expand_head(base, 2, seed=73)
    student.load_params(student.flatten() + np.random.default_rng(74).normal(
        scale=0.1, size=student.n_params))
    x = rng.uniform(size=(5, 4))
    y = np.array([2, 3, 2, 0, 3])
    x_adv = x + rng.uniform(-0.05, 0.05, size=x.shape)
    kind = methods.REGISTRY[name].buffers[0]
    cfg = make_cfg(name, buffer_kind=kind, **ORACLE_OVERRIDES.get(name, {}))
    replay = None
    if kind.startswith("reservoir"):
        xb = rng.uniform(size=(3, 4))
        stored = [rng.normal(size=k) for k in (2, 4, 2)] \
            if kind == "reservoir-with-logits" else [None] * 3
        replay = (xb + rng.uniform(-0.05, 0.05, size=xb.shape), np.array([0, 1, 3]),
                  stored)
    reg = methods.RegState.zeros(student)
    fisher, omega = rng.uniform(size=student.n_params), rng.uniform(size=student.n_params)
    reg.importance = omega if cfg.info.reg == "si" else fisher
    reg.anchor = student.flatten() + rng.normal(scale=0.1, size=student.n_params)
    return cfg, student, teacher, x, y, x_adv, replay, reg


@pytest.mark.parametrize("activation", ["tanh", "softplus"])
@pytest.mark.parametrize("name", sorted(methods.REGISTRY))
def test_training_loss_gradient_matches_central_differences(name, activation):
    cfg, student, *rest = oracle_case(name, activation)
    passes = rc.Passes(student)
    loss, _ = methods.build_training_loss(cfg, passes, *rest)
    ad.backward(loss)
    grads = passes.grads()

    def loss_value(net):
        return val(methods.build_training_loss(cfg, rc.Passes(net), *rest)[0])

    fd = finite_difference_param_grad(student, loss_value, step=1e-5)
    assert np.max(np.abs(grads - fd)) <= 1e-7 * np.max(np.abs(fd))


# ---------------------------------------------------------------------------
# each method's settings: the table's non-None defaults name exactly the
# settings its loss reads

SETTINGS = ("alpha", "beta", "fpd_metric")


def has_setting(name, key):
    return getattr(methods.REGISTRY[name], f"default_{key}", None) is not None


def test_setting_counts_follow_the_table():
    counts = {key: sum(has_setting(name, key) for name in methods.REGISTRY)
              for key in SETTINGS}
    assert counts == {"alpha": 11, "beta": 6, "fpd_metric": 2}


@pytest.mark.parametrize("name,key", [(name, key) for name in sorted(methods.REGISTRY)
                                      for key in SETTINGS if has_setting(name, key)])
def test_every_setting_a_method_has_changes_its_loss(name, key):
    cfg, student, *rest = oracle_case(name, "tanh")
    changed = dataclasses.replace(
        cfg, **{key: "mse" if key == "fpd_metric" else getattr(cfg, key) + 1.0})

    def loss_value(c):
        return val(methods.build_training_loss(c, rc.Passes(student), *rest)[0])

    assert loss_value(changed) != loss_value(cfg)


@pytest.mark.parametrize("name,key", [(name, key) for name in sorted(methods.REGISTRY)
                                      for key in SETTINGS if not has_setting(name, key)])
def test_a_setting_the_method_lacks_is_rejected(name, key):
    assert getattr(make_cfg(name), key) is None
    with pytest.raises(ConfigurationError, match=key):
        make_cfg(name, **{key: "kl" if key == "fpd_metric" else 1.0})

"""Per-batch training losses for adversarially robust class-incremental learning.

`REGISTRY` holds one entry per method, and that entry owns the method's
loss and settings: a term builder (a cross-entropy or multilabel term on
adversarial inputs, optional distillation against the frozen previous-task
model, replay terms and quadratic parameter penalties) and the defaults of
the only settings it reads among `alpha`, `beta` and `fpd_metric`. i-ard
is i-rslad's adversarial branch alone, r-der is r-der++ without replay CE,
and FLAIR+ is FLAIR (flatness-preserving distillation,
`flatness_distill_loss`) with augmentation on by default. Replay is merged
for a herding buffer (the stored exemplars join the task's training
pool) and separate for a reservoir: the training loop draws a replay
batch, attacks it in the batch's own PGD call and hands the builder its
attacked rows, labels and stored logits. When a replay term reads the
replay rows, the reservoir builders run the student once over the batch
and the replay rows stacked and split the logits with
`autodiff.take_rows`. Builders return graph nodes on the leaves of a
`network.Passes` recorder, one `network.Walk` per (model, input), plus
the flat parameter leaf `Passes.params` that EWC and SI penalize, so one
backward pass and `Passes.grads()` yield exact parameter gradients; zero-weighted
terms are skipped entirely, which makes endpoint reductions bit-exact.
`build_training_loss(cfg, passes, teacher, x, y, x_adv, replay, reg)` is
the one entry point: it checks the teacher against the student once and
sums the method's terms.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Sequence

import numpy as np

from . import autodiff as ad
from . import losses
from .attacks import AttackConfig
from .autodiff import Node
from .errors import ArgumentError, ConfigurationError, ContractError, DimensionError
from .network import Network, Passes, grad_params, split

Array = np.ndarray

EWC_GAMMA = 0.9      # online-EWC decay of the previous Fisher diagonal
SI_XI = 1e-3         # SI damping of the squared total parameter change


@dataclass(frozen=True)
class MethodInfo:
    name: str
    # terms(cfg, passes, teacher, x, y, x_adv, replay, reg)
    #     -> {term name: scalar node}
    terms: Callable[..., dict[str, Node]]
    # each setting's default; None: the method has no such setting
    default_alpha: float | None = None
    default_beta: float | None = None
    default_fpd_metric: str | None = None
    buffers: tuple[str, ...] = ("none",)   # allowed buffer kinds, default first
    inner_objective: str = "ce"       # default PGD objective
    reg: str | None = None            # ewc | si
    augment_default: bool = False


@dataclass(frozen=True)
class MethodConfig:
    name: str
    alpha: float | None      # None for a setting the method does not have
    beta: float | None
    buffer_kind: str
    attack: AttackConfig
    augment: bool = False
    fpd_metric: str | None = None

    @property
    def info(self) -> MethodInfo:
        return REGISTRY[self.name]


def make_method_config(name: str, attack: AttackConfig, alpha: float | None = None,
                       beta: float | None = None, buffer_kind: str | None = None,
                       augment: bool | None = None, fpd_metric: str | None = None,
                       explicit_objective: bool = False) -> MethodConfig:
    """Fill method defaults and validate the settings and buffer kind; a
    setting the method does not have is rejected. A "ce" attack objective
    stands for "not chosen" and becomes the method's `inner_objective`,
    unless `explicit_objective` says the config named it."""
    if name not in REGISTRY:
        raise ConfigurationError(f"unknown method {name!r}; known: {sorted(REGISTRY)}")
    info = REGISTRY[name]
    lacking = [key for key, value in (("alpha", alpha), ("beta", beta),
                                      ("fpd_metric", fpd_metric))
               if value is not None and getattr(info, f"default_{key}") is None]
    if lacking:
        raise ConfigurationError(f"method {name!r} has no setting {' or '.join(lacking)}")
    alpha = info.default_alpha if alpha is None else float(alpha)
    beta = info.default_beta if beta is None else float(beta)
    if any(w is not None and not (np.isfinite(w) and w >= 0) for w in (alpha, beta)):
        raise ConfigurationError("alpha and beta must be finite and nonnegative")
    buffer_kind = info.buffers[0] if buffer_kind is None else buffer_kind
    if buffer_kind not in info.buffers:
        raise ConfigurationError(
            f"method {name!r} requires buffer kind in {info.buffers}, "
            f"got {buffer_kind!r}")
    fpd_metric = info.default_fpd_metric if fpd_metric is None else fpd_metric
    if fpd_metric not in (None, "kl", "mse"):
        raise ConfigurationError("fpd_metric must be 'kl' or 'mse'")
    if not explicit_objective and attack.objective == "ce":
        attack = replace(attack, objective=info.inner_objective)
    augment = info.augment_default if augment is None else bool(augment)
    return MethodConfig(name, alpha, beta, buffer_kind, attack, augment, fpd_metric)


# ---------------------------------------------------------------------------
# regularization state (online-EWC Fisher or SI omega as the importance)


@dataclass
class RegState:
    importance: Array    # EWC's Fisher diagonal or SI's omega
    si_path: Array
    anchor: Array
    layout: tuple[tuple[int, ...], ...]

    @classmethod
    def zeros(cls, net: Network) -> "RegState":
        n = net.n_params
        return cls(np.zeros(n), np.zeros(n), net.flatten(), net.layout())

    def expand_to(self, net: Network) -> "RegState":
        """The state the next task starts from on the widened `net`: the
        importance grown into `net.layout()` (new slots zero), a zero SI
        path and the anchor at `net`'s parameters."""
        state = RegState.zeros(net)
        for old, new in zip(split(self.importance, self.layout),
                            split(state.importance, state.layout)):
            new[tuple(slice(0, n) for n in old.shape)] = old
        return state


def refresh_fisher(reg: RegState, student: Network,
                   adv_batches: Sequence[tuple[Array, Array]]) -> None:
    """Online EWC: the Fisher diagonal becomes EWC_GAMMA * old + the mean
    over the (x_adv, y) batches of squared CE parameter gradients."""
    acc = np.zeros_like(reg.importance)
    for x_adv, y in adv_batches:
        g = grad_params(student, lambda z, aux: losses.ce(z, aux), (x_adv, y))
        acc += g ** 2
    reg.importance = EWC_GAMMA * reg.importance + acc / max(len(adv_batches), 1)


def si_step(reg: RegState, grads: Array, delta: Array) -> None:
    """SI: add one optimizer step's share -grads * delta to the path integral."""
    reg.si_path += -grads * delta


def si_consolidate(reg: RegState, student: Network) -> None:
    """SI at task end: fold the path into omega (clamped nonnegative)
    against the anchor, then reset the path."""
    total_delta = student.flatten() - reg.anchor
    reg.importance += np.maximum(reg.si_path / (total_delta ** 2 + SI_XI), 0.0)
    reg.si_path = np.zeros_like(reg.si_path)


# ---------------------------------------------------------------------------
# helpers shared by the builders


def _check_teacher(student: Network, teacher: Network) -> int:
    """Width of the student's old-class slice, which the teacher must match."""
    if student.n_tasks < 2:
        raise ContractError("no previous-task slice on a single-head network")
    w = student.head_boundaries[-2]
    if teacher.out_dim != w:
        raise ContractError(f"teacher width {teacher.out_dim} != old-slice width {w}")
    return w


def _total(terms: dict[str, Node]) -> Node:
    nodes = list(terms.values())
    total = nodes[0]
    for node in nodes[1:]:
        total = ad.add(total, node)
    return total


def _new_slice_bce(passes: Passes, teacher: Network | None, adv: Node, y) -> Node:
    """Multilabel fit of the newest head slice (the whole head on the first task)."""
    k = passes.net.out_dim
    if teacher is None:
        return losses.bce_multilabel(adv, losses.one_hot_in_slice(y, 0, k))
    w = teacher.out_dim
    return losses.bce_multilabel(ad.take_cols(adv, slice(w, k)),
                                 losses.one_hot_in_slice(y, w, k))


# ---------------------------------------------------------------------------
# term builders; each has the signature of `MethodInfo.terms`, and a
# teacher, when given, has already been checked against the student


def _ce_adv(passes: Passes, x_adv: Array, y) -> dict[str, Node]:
    return {"ce_adv": losses.ce(passes.logits(x_adv), y)}


def _pgd_at(cfg, passes, teacher, x, y, x_adv, replay, reg):
    return _ce_adv(passes, x_adv, y)


def _trades(cfg, passes, teacher, x, y, x_adv, replay, reg):
    clean = passes.logits(x)
    terms = {"ce_clean": losses.ce(clean, y)}
    if cfg.alpha != 0.0:
        adv = passes.logits(x_adv)
        terms["kl_adv_clean"] = cfg.alpha * losses.kl_div(adv, clean)
    return terms


def _mart(cfg, passes, teacher, x, y, x_adv, replay, reg):
    adv = passes.logits(x_adv)
    onehot = losses.one_hot(y, passes.net.out_dim)
    terms = {"bce_adv": losses.bce_multilabel(adv, onehot)}
    if cfg.alpha != 0.0:
        clean = passes.logits(x)
        p_true = ad.exp(ad.take_per_row(ad.log_softmax(clean), np.asarray(y)))
        weight = ad.sub(1.0, p_true)
        kl = losses.kl_rows(adv, clean)
        terms["weighted_kl"] = cfg.alpha * ad.mean_all(ad.mul(weight, kl))
    return terms


def _i_rslad(cfg, passes, teacher, x, y, x_adv, replay, reg,
             adversarial_reference=False):
    """Adversarial CE plus distillation whose adversarial branch (weight
    alpha) and clean branch (1 - alpha) both match the old slice to the
    teacher; i-ard has no alpha and keeps the adversarial branch alone
    (alpha = 1), i-adaad takes the teacher at x_adv as the adversarial reference."""
    if teacher is None:
        return _ce_adv(passes, x_adv, y)
    alpha = 1.0 if cfg.alpha is None else cfg.alpha
    old = slice(0, teacher.out_dim)
    adv = passes.logits(x_adv)
    terms = {"ce_adv": losses.ce(adv, y)}
    if cfg.beta == 0.0:
        return terms
    parts: dict[str, Node] = {}
    clean_teacher = (None if adversarial_reference and alpha == 1.0
                     else teacher.forward(x))
    if alpha != 0.0:
        reference = teacher.forward(x_adv) if adversarial_reference else clean_teacher
        parts["adv"] = alpha * losses.kl_div(ad.take_cols(adv, old), reference)
    if alpha != 1.0:
        clean = passes.logits(x)
        parts["clean"] = (1.0 - alpha) * losses.kl_div(ad.take_cols(clean, old),
                                                       clean_teacher)
    if parts:
        terms["distill"] = cfg.beta * _total(parts)
    return terms


def _r_lwf(cfg, passes, teacher, x, y, x_adv, replay, reg):
    terms = _ce_adv(passes, x_adv, y)
    if cfg.alpha != 0.0 and teacher is not None:
        clean = passes.logits(x)
        terms["distill"] = cfg.alpha * losses.kl_div(
            ad.take_cols(clean, slice(0, teacher.out_dim)), teacher.forward(x))
    return terms


def _multilabel_distill(cfg, passes, teacher, x, y, x_adv, replay, reg):
    """r-lwf-mc and r-icarl: multilabel fit of the new slice at x_adv plus
    sigmoid distillation of the clean old slice; r-icarl's batch already
    holds the replayed exemplars."""
    terms = {"bce_new": _new_slice_bce(passes, teacher, passes.logits(x_adv), y)}
    if teacher is not None:
        clean = passes.logits(x)
        terms["bce_distill"] = losses.bce_multilabel(
            ad.take_cols(clean, slice(0, teacher.out_dim)),
            losses.sigmoid(teacher.forward(x)))
    return terms


def _penalized(cfg, passes, teacher, x, y, x_adv, replay, reg):
    """Adversarial CE plus alpha * sum importance * (theta - anchor)^2 on the
    flat parameter leaf, with EWC's Fisher or SI's omega as the importance."""
    if reg is None:
        raise ContractError(f"{cfg.name} needs an initialized regularization state")
    terms = _ce_adv(passes, x_adv, y)
    if cfg.alpha != 0.0:
        d = ad.sub(passes.params, reg.anchor)
        terms["penalty"] = cfg.alpha * ad.sum_all(ad.mul(ad.mul(d, d), reg.importance))
    return terms


def _batch_and_replay_logits(passes: Passes, x_adv: Array,
                             x_adv_replay: Array) -> tuple[Node, Node]:
    """Student logits of the batch and of the replay rows, from one pass
    over both stacked."""
    n = len(x_adv)
    logits = passes.logits(np.concatenate([x_adv, x_adv_replay]))
    return ad.take_rows(logits, slice(0, n)), ad.take_rows(logits, slice(n, None))


def _r_er(cfg, passes, teacher, x, y, x_adv, replay, reg, asymmetric=False):
    """CE on the current batch (r-er-ace: asymmetric CE over the classes
    present in it) plus CE on the replayed samples."""
    if replay is None:
        adv = passes.logits(x_adv)
    else:
        adv, adv_replay = _batch_and_replay_logits(passes, x_adv, replay[0])
    if asymmetric:
        present = np.unique(np.asarray(y, dtype=np.int64))
        terms = {"ace_adv": losses.ace(adv, y, present)}
    else:
        terms = {"ce_adv": losses.ce(adv, y)}
    if replay is not None:
        terms["ce_buffer"] = losses.ce(adv_replay, replay[1])
    return terms


def _der_mse(logits: Node, stored_logits: Sequence[Array]) -> Node:
    """Mean per-sample MSE between replay logits and stored logits.

    Stored vectors may be narrower than the current head (they were
    captured before later expansions); each sample is compared on its own
    stored width. The stored rows are zero-padded to the head width, and
    each squared error is weighted by a 0/1 width mask over the row's width.
    """
    n, k = logits.value.shape
    widths = np.asarray([z.shape[0] for z in stored_logits])
    if widths.max() > k:
        raise DimensionError(f"stored logits of width {widths.max()} exceed "
                             f"the head width {k}")
    mask = np.arange(k) < widths[:, None]
    padded = np.zeros((n, k))
    padded[mask] = np.concatenate(stored_logits)
    d = ad.sub(logits, padded)
    return ad.sum_all(ad.mul(ad.mul(d, d), mask / widths[:, None])) / n


def _r_der(cfg, passes, teacher, x, y, x_adv, replay, reg):
    """Adversarial CE plus alpha * MSE to the logits stored with each
    replayed sample; r-der++ adds beta * CE on replayed labels (r-der has
    no beta)."""
    if replay is None:
        return _ce_adv(passes, x_adv, y)
    x_adv_replay, y_replay, stored = replay
    if any(z is None for z in stored):
        raise ConfigurationError(f"{cfg.name} needs stored logits in the buffer")
    use_ce = cfg.beta not in (None, 0.0)
    if cfg.alpha == 0.0 and not use_ce:   # no term reads the replay rows
        return _ce_adv(passes, x_adv, y)
    adv, adv_replay = _batch_and_replay_logits(passes, x_adv, x_adv_replay)
    terms = {"ce_adv": losses.ce(adv, y)}
    if cfg.alpha != 0.0:
        terms["mse_buffer"] = cfg.alpha * _der_mse(adv_replay, stored)
    if use_ce:
        terms["ce_buffer"] = cfg.beta * losses.ce(adv_replay, y_replay)
    return terms


# ---------------------------------------------------------------------------
# FLAIR: separated-logit distillation and flatness-preserving distillation


def flatness_distill_loss(passes: Passes, teacher: Network, x, adv: Node,
                          teacher_adv: Array, metric: str = "kl") -> Node:
    """Match the clean-vs-adversarial output difference against the teacher.

    The difference f(x_adv) - f(x) carries first- and second-order
    input-space information, so matching it on the old-class slice keeps
    past gradients and Hessians close to the teacher's. `adv` is the
    student's logits node at x_adv (from `passes`) and `teacher_adv` the
    teacher's logits there; the clean logits at `x` are computed here.
    """
    if teacher is None:
        raise ContractError("flatness distillation needs a frozen teacher")
    old = slice(0, _check_teacher(passes.net, teacher))
    delta_student = ad.sub(ad.take_cols(adv, old), ad.take_cols(passes.logits(x), old))
    delta_teacher = teacher_adv - teacher.forward(x)
    if metric == "kl":
        return losses.kl_div(delta_teacher, delta_student)
    if metric == "mse":
        return losses.mse(delta_teacher, delta_student)
    raise ArgumentError(f"unknown difference metric {metric!r}")


def _flair(cfg, passes, teacher, x, y, x_adv, replay, reg):
    """Multilabel fit of the new slice at x_adv, alpha * sigmoid distillation
    of the old slice at x_adv to the teacher, and beta * flatness distillation.

    The new-slice term reads only the newest head columns, so its gradient
    w.r.t. old-class output weights is exactly zero. Student and teacher
    run once over x_adv for all three terms.
    """
    adv = passes.logits(x_adv)
    terms = {"bce_new": _new_slice_bce(passes, teacher, adv, y)}
    if teacher is None or cfg.alpha == cfg.beta == 0.0:
        return terms
    teacher_adv = teacher.forward(x_adv)
    if cfg.alpha != 0.0:
        terms["bce_distill"] = cfg.alpha * losses.bce_multilabel(
            ad.take_cols(adv, slice(0, teacher.out_dim)), losses.sigmoid(teacher_adv))
    if cfg.beta != 0.0:
        terms["fpd"] = cfg.beta * flatness_distill_loss(
            passes, teacher, x, adv, teacher_adv, cfg.fpd_metric)
    return terms


# ---------------------------------------------------------------------------
# the method table and the loss used by the training loop

_NONE_OR_HERDING = ("none", "herding")
_FLAIR = MethodInfo("flair", _flair, 0.5, 2.0, "kl", buffers=_NONE_OR_HERDING)

# name, term builder, default alpha, beta and fpd_metric, then the other facts
REGISTRY: dict[str, MethodInfo] = {m.name: m for m in [
    MethodInfo("pgd-at", _pgd_at, buffers=_NONE_OR_HERDING),
    MethodInfo("trades", _trades, 6.0, buffers=_NONE_OR_HERDING,
               inner_objective="kl-vs-clean"),
    MethodInfo("mart", _mart, 6.0, buffers=_NONE_OR_HERDING),
    MethodInfo("i-ard", _i_rslad, default_beta=1.0, buffers=_NONE_OR_HERDING),
    MethodInfo("i-rslad", _i_rslad, 1.0, 1.0, buffers=_NONE_OR_HERDING),
    MethodInfo("i-adaad", partial(_i_rslad, adversarial_reference=True), 1.0, 1.0,
               buffers=_NONE_OR_HERDING),
    MethodInfo("r-lwf", _r_lwf, 1.0),
    MethodInfo("r-lwf-mc", _multilabel_distill),
    MethodInfo("r-ewc-on", _penalized, 1.0, reg="ewc"),
    MethodInfo("r-si", _penalized, 1.0, reg="si"),
    MethodInfo("r-er", _r_er, buffers=("reservoir",)),
    MethodInfo("r-er-ace", partial(_r_er, asymmetric=True), buffers=("reservoir",)),
    MethodInfo("r-der", _r_der, 0.3, buffers=("reservoir-with-logits",)),
    MethodInfo("r-der++", _r_der, 0.1, 0.5, buffers=("reservoir-with-logits",)),
    MethodInfo("r-icarl", _multilabel_distill, buffers=("herding",)),
    _FLAIR,
    replace(_FLAIR, name="flair+", augment_default=True),
]}


def build_training_loss(cfg: MethodConfig, passes: Passes, teacher: Network | None,
                        x: Array, y: Array, x_adv: Array, replay=None,
                        reg: RegState | None = None) -> tuple[Node, dict[str, float]]:
    """Sum the configured method's terms on the student `passes.net`;
    returns (node, term values).

    `x_adv` is the attacked batch; `replay`, when a reservoir gives one, is
    (attacked replay rows, their labels, their stored logits).
    """
    if x_adv is None:
        raise ContractError("the loss needs adversarial inputs for the batch")
    if teacher is not None:
        _check_teacher(passes.net, teacher)
    terms = cfg.info.terms(cfg, passes, teacher, x, y, x_adv, replay, reg)
    return _total(terms), {k: float(v.value) for k, v in terms.items()}

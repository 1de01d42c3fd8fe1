import csv
import gzip
import os

# single-threaded BLAS keeps reductions bit-reproducible across runs
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "NUMEXPR_NUM_THREADS"):
    os.environ.setdefault(var, "1")

import numpy as np
import pytest

import robustcl as rc
from robustcl.attacks import _make_head
from robustcl.network import Walk


@pytest.fixture
def small_tanh_net():
    return rc.Network.init_mlp(4, [8, 8], 3, activation="tanh", seed=11)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def finite_difference_param_grad(net, loss_value_fn, step=1e-4):
    """Central-difference gradient of `loss_value_fn(net)` over all parameters."""
    base = net.flatten()
    fd = np.zeros(len(base))
    for k in range(len(base)):
        vp = base.copy()
        vp[k] += step
        net.load_params(vp)
        lp = loss_value_fn(net)
        vm = base.copy()
        vm[k] -= step
        net.load_params(vm)
        lm = loss_value_fn(net)
        fd[k] = (lp - lm) / (2 * step)
    net.load_params(base)
    return fd


def batch_mean_head(model, x, y, cfg):
    """`cfg`'s objective head around clean `x`, weighting rows by one batch
    mean as a single-part `pgd` call does."""
    return _make_head(model, x, np.asarray(y, dtype=np.int64), cfg,
                      np.full(len(y), 1.0 / len(y)))


def attack_values(model, points, x, y, cfg):
    """Per-example values of `cfg`'s objective at `points`, around clean `x`:
    the evaluation `pgd` applies to its last iterate."""
    logits = Walk(model.layers, len(points)).forward(points)
    return batch_mean_head(model, x, y, cfg)(logits)[0]


def kernel_values_and_grad(model, head, points):
    """`head`'s values at `points` and the input gradient of their weighted
    sum, through one `Walk` as a `pgd` step takes them."""
    walk = Walk(model.layers, len(points))
    values, grad = head(walk.forward(points))
    return values, walk.vjp(grad)


def finite_difference_input_grad(net, loss_value_fn, x, step=1e-4):
    """Central-difference gradient w.r.t. each input coordinate."""
    fd = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        xp = x.copy()
        xp[idx] += step
        xm = x.copy()
        xm[idx] -= step
        fd[idx] = (loss_value_fn(net, xp) - loss_value_fn(net, xm)) / (2 * step)
        it.iternext()
    return fd


def save_csv_dataset(ds, path):
    """Write a dataset in the format `load_csv_dataset` reads (gzipped when
    `path` ends in `.gz`)."""
    opener = gzip.open if str(path).endswith(".gz") else open
    with opener(path, "wt", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["label"] + [f"f{i}" for i in range(ds.input_dim)])
        for y, row in zip(ds.labels, ds.inputs):
            writer.writerow([int(y)] + [repr(float(v)) for v in row])

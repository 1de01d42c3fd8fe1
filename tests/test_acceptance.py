"""Acceptance suite: one pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines live.
The desk-scale comparison (criterion 7) trains four method variants over
five seeds each and is shared through a session fixture.
"""
import itertools
import json
import re
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import robustcl as rc
from robustcl import autodiff as ad
from robustcl.errors import IntegrityError
from robustcl.network import split

from conftest import attack_values


def report_line(cid, desc, ok, extra=""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {cid}] {desc}: {status} {extra}".rstrip())
    assert ok, f"criterion {cid} failed: {desc} {extra}"


# ---------------------------------------------------------------------------
# criterion 1: gradient oracle


def test_criterion_1_gradient_oracle():
    start = time.monotonic()
    worst_param = 0.0
    worst_input = 0.0
    step = 1e-4
    for trial in range(50):
        rng = np.random.default_rng(1000 + trial)
        depth = int(rng.integers(2, 4))
        widths = [int(rng.integers(4, 33)) for _ in range(depth - 1)]
        d_in = int(rng.integers(3, 9))
        k = int(rng.integers(2, 6))
        act = ("tanh", "softplus")[trial % 2]
        net = rc.Network.init_mlp(d_in, widths, k, activation=act, seed=trial)
        x = rng.uniform(size=(4, d_in))
        y = rng.integers(0, k, size=4)
        loss = lambda z, aux: rc.ce(z, aux)

        g = rc.grad_params(net, loss, (x, y))
        base = net.flatten()
        fd = np.zeros_like(g)
        for i in range(len(base)):
            vp = base.copy()
            vp[i] += step
            net.load_params(vp)
            up = float(rc.ce(net.forward(x), y).value)
            vm = base.copy()
            vm[i] -= step
            net.load_params(vm)
            dn = float(rc.ce(net.forward(x), y).value)
            fd[i] = (up - dn) / (2 * step)
        net.load_params(base)
        worst_param = max(worst_param,
                          np.max(np.abs(g - fd)) / max(np.max(np.abs(fd)), 1e-12))

        gi = rc.grad_input(net, loss, x, y)
        fdi = np.zeros_like(gi)
        for r in range(x.shape[0]):
            for c in range(x.shape[1]):
                xp = x.copy()
                xp[r, c] += step
                xm = x.copy()
                xm[r, c] -= step
                fdi[r, c] = (float(rc.ce(net.forward(xp), y).value)
                             - float(rc.ce(net.forward(xm), y).value)) / (2 * step)
        worst_input = max(worst_input,
                          np.max(np.abs(gi - fdi)) / max(np.max(np.abs(fdi)), 1e-12))
    elapsed = time.monotonic() - start
    ok = worst_param < 1e-4 and worst_input < 1e-4 and elapsed < 30.0
    report_line(1, "gradient oracle vs central finite differences", ok,
                f"(param {worst_param:.2e}, input {worst_input:.2e}, "
                f"{elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# criterion 2: attack invariants


def test_criterion_2_attack_invariants():
    start = time.monotonic()
    net = rc.snapshot(rc.Network.init_mlp(4, [12], 3, activation="tanh", seed=0))
    rng = np.random.default_rng(0)
    x = rng.uniform(0.1, 0.9, size=(16, 4))
    y = rng.integers(0, 3, size=16)

    cfg = rc.AttackConfig(epsilon=0.06, step_size=0.02, n_steps=10,
                          random_start=True, clamp_range=(0.0, 1.0), seed=3)
    adv = rc.pgd(net, x, y, cfg)
    projection_ok = (np.max(np.abs(adv - x)) <= 0.06 + 1e-12
                     and adv.min() >= 0.0 and adv.max() <= 1.0)

    zero_cfg = rc.AttackConfig(epsilon=0.0, step_size=0.0, n_steps=10,
                               random_start=True, clamp_range=(0.0, 1.0), seed=3)
    identity_ok = np.array_equal(rc.pgd(net, x, y, zero_cfg), x)

    determinism_ok = np.array_equal(rc.pgd(net, x, y, cfg),
                                    rc.pgd(net, x, y, cfg))

    optimum_ok = True
    for trial in range(10):
        trng = np.random.default_rng(200 + trial)
        d = int(trng.integers(2, 5))
        w = trng.normal(size=(d, 2))
        while np.any(np.abs(w[:, 0] - w[:, 1]) < 1e-3):
            w = trng.normal(size=(d, 2))
        lin = rc.snapshot(rc.Network([rc.Layer(w, np.zeros(2), "identity")],
                                     [2], d))
        x0 = trng.uniform(-1, 1, size=(1, d))
        y0 = np.array([int(trng.integers(0, 2))])
        eps = 0.25
        c = rc.AttackConfig(epsilon=eps, step_size=eps, n_steps=1,
                            random_start=False, seed=0)
        achieved = float(attack_values(lin, rc.pgd(lin, x0, y0, c), x0, y0, c)[0])
        best = max(float(attack_values(lin, x0 + eps * np.asarray(signs),
                                       x0, y0, c)[0])
            for signs in itertools.product((-1.0, 1.0), repeat=d))
        if not np.isclose(achieved, best, rtol=1e-12):
            optimum_ok = False
    elapsed = time.monotonic() - start
    ok = projection_ok and identity_ok and determinism_ok and optimum_ok \
        and elapsed < 30.0
    report_line(2, "attack projection/identity/determinism/optimality", ok,
                f"({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# criterion 3: Taylor residual scaling


def test_criterion_3_taylor_residual_scaling():
    start = time.monotonic()
    ratios = []
    for seed in range(20):
        rng = np.random.default_rng(seed)
        net = rc.Network.init_mlp(6, [12, 10], 4, activation="tanh", seed=seed)
        x = rng.uniform(0.2, 0.8, size=6)
        direction = rng.normal(size=6)
        delta = 0.02 * direction / np.linalg.norm(direction)
        k = net.out_dim
        pick = lambda z, aux: ad.mean_all(ad.take_per_row(z, aux))
        grads = np.stack([rc.grad_input(net, pick, x[None, :], np.array([c]))[0]
                          for c in range(k)])
        hess = np.stack([rc.hessian_input(net, pick, x, np.array([c]))
                         for c in range(k)])

        def residual(d):
            diff = (net.forward((x + d)[None, :]) - net.forward(x[None, :]))[0]
            quad = grads @ d + 0.5 * np.array([d @ hess[c] @ d for c in range(k)])
            return np.linalg.norm(diff - quad)

        ratios.append(residual(delta) / residual(delta / 2))
    mean_ratio = float(np.mean(ratios))
    elapsed = time.monotonic() - start
    ok = 6.0 <= mean_ratio <= 10.0 and abs(mean_ratio - 8.0) <= 0.2 \
        and elapsed < 60.0
    report_line(3, "quadratic-expansion residual shrinks ~8x per halving", ok,
                f"(mean ratio {mean_ratio:.3f}, {elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# criterion 4: separated-logit invariance


def test_criterion_4_separated_logit_invariance():
    # alpha = beta = 0 leaves FLAIR's new-slice term alone
    flair = rc.make_method_config("flair", rc.AttackConfig(0.1, 0.025, 1),
                                  alpha=0.0, beta=0.0)
    all_zero = True
    for trial in range(100):
        rng = np.random.default_rng(400 + trial)
        d_in = int(rng.integers(3, 7))
        hidden = [int(rng.integers(4, 17))]
        old_k = int(rng.integers(1, 4))
        new_k = int(rng.integers(1, 4))
        base = rc.Network.init_mlp(d_in, hidden, old_k, activation="tanh",
                                   seed=trial)
        teacher = rc.snapshot(base)
        student = rc.expand_head(base, new_k, seed=trial + 1)
        x_adv = rng.uniform(size=(5, d_in))
        y = rng.integers(old_k, old_k + new_k, size=5)
        passes = rc.Passes(student)
        loss, _ = rc.build_training_loss(flair, passes, teacher, x_adv, y, x_adv)
        ad.backward(loss)
        w_out, b_out = split(passes.grads(), student.layout())[-2:]
        if not (np.array_equal(w_out[:, :old_k], np.zeros_like(w_out[:, :old_k]))
                and np.array_equal(b_out[:old_k], np.zeros(old_k))):
            all_zero = False
    report_line(4, "new-task term has exactly zero grad on old output rows",
                all_zero, "(100 random nets)")


# ---------------------------------------------------------------------------
# criterion 5: herding oracle


def brute_force_herding(features, m):
    mu = features.mean(axis=0)
    chosen = []
    for _ in range(m):
        best, best_d = None, np.inf
        for i in range(len(features)):
            if i in chosen:
                continue
            d = float(np.linalg.norm(mu - np.mean(features[chosen + [i]], axis=0)))
            if d < best_d:
                best, best_d = i, d
        chosen.append(best)
    return chosen


def test_criterion_5_herding_oracle():
    all_match = True
    for fixture in range(100):
        rng = np.random.default_rng(500 + fixture)
        n = int(rng.integers(2, 11))
        d = int(rng.integers(1, 5))
        feats = rng.normal(size=(n, d))
        if fixture % 4 == 0 and n >= 2:
            feats[n - 1] = feats[0]            # exact duplicate forces a tie
        if fixture % 7 == 0:
            feats[:] = feats[0]                # all identical, pure tie-break
        m = int(rng.integers(1, n + 1))
        if rc.herding_select(feats, m) != brute_force_herding(feats, m):
            all_match = False
    report_line(5, "herding matches exhaustive greedy enumeration", all_match,
                "(100 fixtures incl. ties)")


# ---------------------------------------------------------------------------
# criterion 6: formula checks


def test_criterion_6_formula_checks(tmp_path):
    rows = [[60.0], [55.0, 50.0], [40.0, 45.0, 80.0]]
    bwt_ok = rc.r_bwt(rows) == pytest.approx(-12.5)

    net = rc.snapshot(rc.Network.init_mlp(4, [8], 2, activation="tanh", seed=1))
    ds = rc.gen_gaussian_tasks(2, 4, 8.0, 10, seed=1)
    flat = rc.flatness_forgetting([net, net], [ds], subsample=6)
    flat_ok = flat.gf == 0.0 and flat.hf == 0.0

    cfg = rc.config_from_dict({
        "seed": 3,
        "output_dir": str(tmp_path / "buf"),
        "dataset": {"kind": "gaussian", "n_classes": 10, "dim": 6,
                    "separation": 10.0, "train_per_class": 20,
                    "test_per_class": 5},
        "tasks": {"n_tasks": 5, "classes_per_task": 2},
        "model": {"hidden": [12], "activation": "tanh"},
        "method": {"name": "r-icarl", "buffer_kind": "herding"},
        "attack": {"epsilon": "1/20", "n_steps": 3},
        "eval_attack": {"n_steps": 5},
        "training": {"epochs": 2, "lr": 0.2, "batch_size": 16},
        "buffer": {"capacity": 20},
        "flatness": {"subsample": 4},
    })
    report = rc.run_experiment(cfg)
    buffer_ok = (report.buffer_capacity == 20
                 and all(s <= 20 for s in report.buffer_stored_per_task)
                 and all(s == 20 for s in report.buffer_stored_per_task))
    ok = bwt_ok and flat_ok and buffer_ok
    report_line(6, "backward-transfer fixture, zero-drift, buffer capacity", ok,
                f"(stored per task {report.buffer_stored_per_task})")


# ---------------------------------------------------------------------------
# criterion 7: desk-scale directional comparison


SEEDS = (1, 2, 3, 4, 5)
VARIANTS = {
    "pgd-at": {"name": "pgd-at"},
    "i-adaad": {"name": "i-adaad", "alpha": 1.0, "beta": 1.0},
    "flair": {"name": "flair", "alpha": 0.5, "beta": 2.0},
    "flair-no-fpd": {"name": "flair", "alpha": 0.5, "beta": 0.0},
}


def comparison_config(out_dir, method_spec, seed):
    return {
        "seed": seed,
        "output_dir": str(out_dir),
        "dataset": {"kind": "gaussian", "n_classes": 10, "dim": 16,
                    "separation": 12.0, "train_per_class": 200,
                    "test_per_class": 100},
        "tasks": {"n_tasks": 5, "classes_per_task": 2},
        "model": {"hidden": [64, 64], "activation": "tanh"},
        "method": method_spec,
        "attack": {"epsilon": "1/10", "step_size": "1/40", "n_steps": 10,
                   "random_start": True},
        "eval_attack": {"epsilon": "1/10", "step_size": "1/40", "n_steps": 20,
                        "random_start": True},
        "training": {"epochs": 15, "lr": 0.2, "batch_size": 64,
                     "weight_decay": 1e-5},
        "buffer": {"capacity": 0},
        "flatness": {"subsample": 64, "scalar": "ce"},
    }


@pytest.fixture(scope="session")
def desk_scale_runs(tmp_path_factory):
    base = tmp_path_factory.mktemp("comparison")
    start = time.monotonic()
    results = {}
    for tag, spec in VARIANTS.items():
        per_seed = []
        for seed in SEEDS:
            cfg = rc.config_from_dict(
                comparison_config(base / f"{tag}-s{seed}", spec, seed))
            rep = rc.run_experiment(cfg)
            per_seed.append(rep)
        results[tag] = per_seed
    elapsed = time.monotonic() - start
    return results, elapsed


def _means(reports):
    return {
        "r_bwt": float(np.mean([r.r_bwt for r in reports])),
        "robust": float(np.mean([r.final_robust_acc for r in reports])),
        "gf": float(np.mean([r.gf for r in reports])),
        "hf": float(np.mean([r.hf for r in reports])),
    }


def test_criterion_7a_backward_transfer_gap(desk_scale_runs):
    results, _ = desk_scale_runs
    flair = _means(results["flair"])
    pgd_at = _means(results["pgd-at"])
    gap = flair["r_bwt"] - pgd_at["r_bwt"]
    report_line("7a", "mean R-BWT advantage over plain adversarial training",
                gap >= 10.0,
                f"(flair {flair['r_bwt']:.2f} vs pgd-at {pgd_at['r_bwt']:.2f}, "
                f"gap {gap:.2f} >= 10)")


def test_criterion_7b_flatness_below_baselines(desk_scale_runs):
    results, _ = desk_scale_runs
    flair = _means(results["flair"])
    pgd_at = _means(results["pgd-at"])
    adaad = _means(results["i-adaad"])
    ok = (flair["gf"] < pgd_at["gf"] and flair["gf"] < adaad["gf"]
          and flair["hf"] < pgd_at["hf"] and flair["hf"] < adaad["hf"])
    report_line("7b", "mean GF and HF below both baselines", ok,
                f"(gf {flair['gf']:.3f} vs {pgd_at['gf']:.3f}/{adaad['gf']:.3f}; "
                f"hf {flair['hf']:.3f} vs {pgd_at['hf']:.3f}/{adaad['hf']:.3f})")


def test_criterion_7c_final_robust_accuracy(desk_scale_runs):
    results, _ = desk_scale_runs
    flair = _means(results["flair"])
    pgd_at = _means(results["pgd-at"])
    report_line("7c", "mean final robust accuracy above plain AT",
                flair["robust"] > pgd_at["robust"],
                f"({flair['robust']:.2f} > {pgd_at['robust']:.2f})")


def test_criterion_7d_fpd_ablation_raises_gf(desk_scale_runs):
    results, _ = desk_scale_runs
    flair = _means(results["flair"])
    ablated = _means(results["flair-no-fpd"])
    report_line("7d", "removing the flatness term strictly raises mean GF",
                ablated["gf"] > flair["gf"],
                f"({ablated['gf']:.4f} > {flair['gf']:.4f})")


def test_criterion_7e_final_robust_accuracy_under_restarts(desk_scale_runs):
    # re-score each run's final checkpoint as its last accuracy-matrix row
    # (same test tasks, same per-task seeds), with five restarts per attack
    results, _ = desk_scale_runs
    means = {}
    for tag in ("flair", "pgd-at"):
        accs = []
        for report in results[tag]:
            cfg = rc.runner.parse_config_text(report.config_echo)
            cfg = replace(cfg, eval_attack=replace(cfg.eval_attack, n_restarts=5))
            _, test_tasks = rc.runner._build_streams(cfg)
            final = rc.load_checkpoint(
                str(Path(cfg.output_dir) / "checkpoints" / f"task_{cfg.n_tasks:03d}"))
            accs += rc.evaluate_row(cfg, final, test_tasks)[1]
        means[tag] = float(np.mean(accs))
    report_line("7e", "mean final robust accuracy under 5 restarts above plain AT",
                means["flair"] > means["pgd-at"],
                f"({means['flair']:.2f} > {means['pgd-at']:.2f})")


def test_criterion_7_runtime(desk_scale_runs):
    _, elapsed = desk_scale_runs
    report_line(7, "all 20 comparison runs complete within budget",
                elapsed < 1200.0, f"({elapsed:.0f}s < 1200s)")


# ---------------------------------------------------------------------------
# criterion 8: end-to-end determinism


def strip_wall_clock(text):
    return re.sub(r'"wall_clock_sec": [0-9eE+.-]+', '"wall_clock_sec": 0', text)


def test_criterion_8_end_to_end_determinism(tmp_path):
    out = tmp_path / "det"
    cfg = rc.config_from_dict(comparison_config(out, VARIANTS["flair"], 1))
    rc.run_experiment(cfg)
    first = strip_wall_clock((out / "report.json").read_text())
    rc.run_experiment(cfg)
    second = strip_wall_clock((out / "report.json").read_text())
    report_line(8, "identical config+seed reproduces the report byte-for-byte",
                first == second, "(wall clock excluded)")


# ---------------------------------------------------------------------------
# criterion 9: checkpoints and report format


def test_criterion_9_checkpoint_and_report_conformance(tmp_path):
    net = rc.expand_head(
        rc.Network.init_mlp(5, [9, 7], 3, activation="tanh", seed=8), 2, seed=9)
    stem = tmp_path / "ckpt"
    rc.save_checkpoint(net, str(stem))
    loaded = rc.load_checkpoint(str(stem))
    xs = np.random.default_rng(0).uniform(size=(100, 5))
    roundtrip_ok = np.array_equal(loaded.forward(xs), net.forward(xs))

    blob = (tmp_path / "ckpt.blob").read_bytes()
    (tmp_path / "ckpt.blob").write_bytes(blob[:-8])
    try:
        rc.load_checkpoint(str(stem))
        corrupt_ok = False
    except IntegrityError:
        corrupt_ok = True
    (tmp_path / "ckpt.blob").write_bytes(blob)
    manifest = (tmp_path / "ckpt.manifest").read_text()
    (tmp_path / "ckpt.manifest").write_text(
        manifest.replace("head_boundaries=3,5", "head_boundaries=3,6"))
    try:
        rc.load_checkpoint(str(stem))
        mismatch_ok = False
    except IntegrityError:
        mismatch_ok = True

    out = tmp_path / "run"
    cfg = rc.config_from_dict({
        "seed": 2,
        "output_dir": str(out),
        "dataset": {"kind": "gaussian", "n_classes": 4, "dim": 6,
                    "separation": 10.0, "train_per_class": 20,
                    "test_per_class": 8},
        "tasks": {"n_tasks": 2, "classes_per_task": 2},
        "model": {"hidden": [10], "activation": "tanh"},
        "method": {"name": "flair"},
        "attack": {"epsilon": "1/20", "n_steps": 3},
        "eval_attack": {"n_steps": 5},
        "training": {"epochs": 1, "lr": 0.2, "batch_size": 16},
        "buffer": {"capacity": 0},
        "flatness": {"subsample": 4},
    })
    report = rc.run_experiment(cfg)
    payload = json.loads((out / "report.json").read_text())
    ra_rows = (out / "ra_matrix.csv").read_text().strip().split("\n")
    format_ok = (payload["config_sha256"] == cfg.sha256
                 and payload["config_echo"] == cfg.raw_text
                 and len(ra_rows) == 2
                 and ra_rows[0].split(",")[1] == ""
                 and payload["final_robust_acc"] == float(
                     f"{payload['final_robust_acc']:.6g}"))
    before = strip_wall_clock((out / "report.json").read_text())
    rc.emit_report(report, str(out))
    atomic_ok = strip_wall_clock((out / "report.json").read_text()) == before

    ok = roundtrip_ok and corrupt_ok and mismatch_ok and format_ok and atomic_ok
    report_line(9, "checkpoint round-trip and report-format conformance", ok)

import dataclasses
import hashlib
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import robustcl as rc
from robustcl.cli import main as cli_main
from robustcl.errors import ConfigurationError, IntegrityError

from conftest import save_csv_dataset


def tiny_config(out_dir, **overrides):
    cfg = {
        "seed": 5,
        "output_dir": str(out_dir),
        "dataset": {"kind": "gaussian", "n_classes": 4, "dim": 6,
                    "separation": 10.0, "train_per_class": 30,
                    "test_per_class": 10},
        "tasks": {"n_tasks": 2, "classes_per_task": 2},
        "model": {"hidden": [12], "activation": "tanh"},
        "method": {"name": "flair"},
        "attack": {"epsilon": "1/20", "n_steps": 3},
        "eval_attack": {"n_steps": 5},
        "training": {"epochs": 2, "lr": 0.2, "batch_size": 16},
        "buffer": {"capacity": 0},
        "flatness": {"subsample": 4},
    }
    cfg.update(overrides)
    return cfg


def strip_wall_clock(text):
    return re.sub(r'"wall_clock_sec": [0-9eE+.-]+', '"wall_clock_sec": 0', text)


# ---------------------------------------------------------------------------
# config parsing


def test_parse_rejects_unknown_keys(tmp_path):
    cfg = tiny_config(tmp_path)
    cfg["typo_key"] = 1
    with pytest.raises(ConfigurationError):
        rc.config_from_dict(cfg)


def test_parse_rejects_unknown_method(tmp_path):
    cfg = tiny_config(tmp_path, method={"name": "dreambooth"})
    with pytest.raises(ConfigurationError):
        rc.config_from_dict(cfg)


def test_parse_requires_existing_csv_files(tmp_path):
    cfg = tiny_config(tmp_path)
    cfg["dataset"] = {"kind": "csv", "train": str(tmp_path / "nope.csv"),
                      "test": str(tmp_path / "nope.csv")}
    with pytest.raises(ConfigurationError):
        rc.config_from_dict(cfg)


def test_parse_epsilon_rational_exact(tmp_path):
    cfg = rc.config_from_dict(tiny_config(tmp_path,
                                          attack={"epsilon": "8/255",
                                                  "n_steps": 3}))
    assert cfg.method.attack.epsilon == 8 / 255


def test_buffer_method_needs_capacity(tmp_path):
    cfg = tiny_config(tmp_path, method={"name": "r-er"})
    with pytest.raises(ConfigurationError):
        rc.config_from_dict(cfg)


@pytest.mark.parametrize("flatness", [{"scalar": "typo"}, {"subsample": 0},
                                      {"subsample": 2.7}, {"subsample": True}])
def test_parse_rejects_bad_flatness_settings(tmp_path, flatness):
    with pytest.raises(ConfigurationError):
        rc.config_from_dict(tiny_config(tmp_path, flatness=flatness))


@pytest.mark.parametrize("section,values", [
    ("training", {"epochs": 2, "lr": 0.2, "batch_size": 16, "weight_decy": 0.5}),
    ("attack", {"epsilon": "1/20", "n_steps": 3, "random_start": "false"}),
    ("attack", {"epsilon": "1/20", "n_steps": 3.0}),
    ("eval_attack", {"n_steps": True}),
    ("tasks", {"n_tasks": 2, "classes_per_task": 2.7}),
    ("tasks", {"n_tasks": 2, "classes_per_task": 2, "order": [1, 0, 3, 2]}),
    ("model", {"hidden": [0]}),
    ("model", {"hidden": [12], "activation": "relux"}),
    ("dataset", {"kind": "gaussian", "n_classes": 4, "dim": 6, "seperation": 3.0}),
    ("buffer", {"capacity": 2.5}),
    ("augment", {"enabled": "yes"}),
    ("method", {"name": "flair", "alpah": 0.5}),
    ("grid", {"alpha": [0.5], "gamma": [1]}),
    ("training", {"epochs": 2, "lr": "0.2", "batch_size": 16}),
    ("training", {"epochs": 2, "lr": True, "batch_size": 16}),
    ("training", {"epochs": 2, "lr": 0.2, "batch_size": 16, "weight_decay": "0"}),
    ("dataset", {"kind": "gaussian", "n_classes": 4, "dim": 6, "separation": True}),
    ("method", {"name": "flair", "alpha": "0.5"}),
    ("method", {"name": "flair", "beta": False}),
    ("grid", {"alpha": ["0.5"]}),
    ("grid", {"beta": [True]}),
    ("grid", {"alpha": 0.5}),
    ("tasks", {"n_tasks": 3, "classes_per_task": 2}),
    ("tasks", {"n_tasks": 2, "classes_per_task": 2, "class_order": [0, 1, 2, 2]}),
    ("tasks", {"n_tasks": 2, "classes_per_task": 2, "class_order": [0, 1, 2, 4]}),
    ("tasks", {"n_tasks": 2, "classes_per_task": 2, "class_order": 5}),
    ("training", {"epochs": 2, "lr": float("nan"), "batch_size": 16}),
    ("training", {"epochs": 2, "lr": 0.2, "batch_size": 16,
                  "weight_decay": float("inf")}),
    ("dataset", {"kind": "gaussian", "n_classes": 4, "dim": 6,
                 "separation": float("inf")}),
    ("dataset", {"kind": "gaussian", "n_classes": 4, "dim": 6,
                 "separation": float("-inf")}),
    ("grid", {"beta": [float("nan")]}),
    ("training", {"epochs": 2, "lr": -0.2, "batch_size": 16}),
    ("training", {"epochs": 2, "lr": 0.2, "batch_size": 16, "weight_decay": -1e-5}),
    ("grid", {"alpha": []}),
    ("model", {"hidden": 5}),
    ("training", {"epochs": 2, "lr": 0.2, "batch_size": 16, "milestones": 5}),
    ("dataset", 0),
    ("dataset", True),
    ("dataset", None),
    ("dataset", {"kind": "gaussian", "n_classes": 4, "dim": 6, "test_per_class": 0}),
    ("dataset", {"kind": "gaussian", "n_classes": 4, "dim": 6, "train_per_class": 0}),
    ("buffer", {"capacity": 5}),
    ("training", {"epochs": 0, "lr": 0.2, "batch_size": 16}),
    ("attack", {"epsilon": "1/20", "n_steps": 3, "n_restarts": 1}),
    ("eval_attack", {"n_steps": 5, "objective": "ce"}),
], ids=["nested-typo", "string-bool", "float-int", "bool-int", "fractional-int",
        "tasks-typo", "zero-width", "activation", "dataset-typo", "float-capacity",
        "string-augment", "method-typo", "grid-typo", "string-lr", "bool-lr",
        "string-weight-decay", "bool-separation", "string-alpha", "bool-beta",
        "string-grid-value", "bool-grid-value", "scalar-grid", "classes-dont-divide",
        "order-repeats", "order-out-of-range", "order-not-a-list", "nan-lr",
        "infinite-weight-decay", "infinite-separation", "negative-infinite-separation",
        "nan-grid-value", "negative-lr", "negative-weight-decay", "empty-grid",
        "scalar-hidden", "scalar-milestones", "int-dataset", "bool-dataset",
        "null-dataset", "no-test-examples", "no-train-examples",
        "capacity-without-buffer", "zero-epochs", "training-attack-restarts",
        "eval-attack-objective"])
def test_parse_rejects_bad_nested_values(tmp_path, section, values):
    with pytest.raises(ConfigurationError):
        rc.config_from_dict(tiny_config(tmp_path, **{section: values}))


def full_tiny_config():
    """`tiny_config` with every optional key filled in."""
    attack = {"epsilon": "1/20", "step_size": "1/80", "n_steps": 3,
              "random_start": True}
    return tiny_config(
        "unused-output-dir",
        tasks={"n_tasks": 2, "classes_per_task": 2, "class_order": [1, 0, 3, 2]},
        method={"name": "flair", "alpha": 0.5, "beta": 0.5, "buffer_kind": "none",
                "fpd_metric": "kl"},
        attack={**attack, "objective": "ce"},
        eval_attack={**attack, "n_steps": 5, "n_restarts": 1},
        training={"epochs": 2, "lr": 0.2, "batch_size": 16, "weight_decay": 1e-5,
                  "milestones": [1]},
        augment={"enabled": False}, flatness={"subsample": 4, "scalar": "ce"},
        grid={"alpha": [0.5, 1.0], "beta": [0.5]})


def config_paths(node, prefix=()):
    """Key/index path of every value below the root: sections, lists, leaves."""
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from config_paths(child, prefix + (key,))


EDGE_VALUES = [0, -1, 10 ** 400, 0.5, "x", True, None, [], {}]
MUTATIONS = [(path, value) for path in config_paths(full_tiny_config())
             for value in EDGE_VALUES]


@settings(max_examples=len(MUTATIONS), deadline=None, derandomize=True,
          database=None)
@given(st.sampled_from(MUTATIONS))
def test_one_mutated_config_value_parses_or_raises_configuration_error(mutation):
    # parse only: a mutated config may ask for unbounded work or memory
    path, value = mutation
    cfg = full_tiny_config()
    parent = cfg
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    try:
        rc.config_from_dict(cfg)
    except ConfigurationError:
        pass


def test_cli_bad_activation_exits_2_before_creating_output(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(tiny_config(
        tmp_path / "out", model={"hidden": [12], "activation": "relux"})))
    assert cli_main(["run", "--config", str(cfg_path)]) == 2
    assert "activation" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("section,values", [
    ("training", {"epochs": 2, "lr": float("nan"), "batch_size": 16}),
    ("training", {"epochs": 2, "lr": -0.2, "batch_size": 16}),
    ("grid", {"alpha": []}),
    ("seed", -1),
    ("dataset", {"kind": "gaussian", "n_classes": 4, "dim": 6, "test_per_class": 0}),
    ("training", {"epochs": 0, "lr": 0.2, "batch_size": 16}),
], ids=["nan-lr", "negative-lr", "empty-grid", "negative-seed", "no-test-examples",
        "zero-epochs"])
def test_cli_bad_number_exits_2_before_creating_output(tmp_path, section, values):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(tiny_config(tmp_path / "out", **{section: values})))
    assert cli_main(["run", "--config", str(cfg_path)]) == 2
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("kind", ["gaussian", "csv"])
def test_cli_bad_split_exits_2_before_creating_output(tmp_path, capsys, kind):
    overrides = {"tasks": {"n_tasks": 3, "classes_per_task": 2}}
    if kind == "csv":
        # the CSV class count is known only once the files are read
        ds = rc.gen_gaussian_tasks(4, 6, 10.0, 8, seed=6)
        save_csv_dataset(ds, str(tmp_path / "data.csv"))
        overrides["dataset"] = {"kind": "csv", "train": str(tmp_path / "data.csv"),
                                "test": str(tmp_path / "data.csv")}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(tiny_config(tmp_path / "out", **overrides)))
    assert cli_main(["run", "--config", str(cfg_path)]) == 2
    assert "do not divide" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("split,n_tasks,missing", [
    ("test", 2, [0, 1]), ("train", 3, [2, 3])], ids=["test-task-1", "train-task-2"])
def test_cli_empty_task_split_exits_2_before_creating_output(tmp_path, capsys, split,
                                                             n_tasks, missing):
    ds = rc.gen_gaussian_tasks(2 * n_tasks, 6, 10.0, 8, seed=6)
    save_csv_dataset(ds, str(tmp_path / "full.csv"))
    save_csv_dataset(ds.subset(~np.isin(ds.labels, missing)), str(tmp_path / "gap.csv"))
    files = {"train": str(tmp_path / "full.csv"), "test": str(tmp_path / "full.csv")}
    files[split] = str(tmp_path / "gap.csv")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(tiny_config(
        tmp_path / "out", dataset={"kind": "csv", **files},
        tasks={"n_tasks": n_tasks, "classes_per_task": 2})))
    assert cli_main(["run", "--config", str(cfg_path)]) == 2
    assert f"no {split} examples" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("overrides", [
    {"method": {"name": ["flair"]}},
    {"dataset": {"kind": {"gaussian": 1}}},
    {"dataset": {"kind": "csv", "train": 5, "test": "data.csv"}},
    {"dataset": {"kind": "csv", "train": "data.csv", "test": ["data.csv"]}},
    {"output_dir": None}, {"output_dir": 5}, {"output_dir": ""},
], ids=["list-method", "dict-kind", "int-train", "list-test", "null-output-dir",
        "int-output-dir", "empty-output-dir"])
def test_cli_non_string_field_exits_2_before_creating_output(tmp_path, monkeypatch,
                                                             capsys, overrides):
    monkeypatch.chdir(tmp_path)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(tiny_config(tmp_path / "out", **overrides)))
    assert cli_main(["run", "--config", str(cfg_path)]) == 2
    assert "must be a nonempty string" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


def test_cli_uncreatable_output_dir_exits_2_without_traceback(tmp_path, capsys):
    (tmp_path / "afile").write_text("")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(tiny_config(tmp_path / "afile" / "out")))
    assert cli_main(["run", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert "afile" in err and "Traceback" not in err


@pytest.mark.parametrize("alphas", [[0.5, 0.5], [0.1, 0.10000001]])
def test_cli_grid_values_sharing_an_output_tag_exit_2(tmp_path, capsys, alphas):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(tiny_config(tmp_path / "out", grid={"alpha": alphas})))
    assert cli_main(["run", "--config", str(cfg_path)]) == 2
    assert "output directory tag" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("method,grid", [
    ("trades", {"beta": [1.0]}), ("pgd-at", {"alpha": [0.5]}),
    ("i-ard", {"alpha": [1.0], "beta": [1.0]})],
    ids=["trades-beta", "pgd-at-alpha", "i-ard-alpha"])
def test_parse_rejects_a_grid_over_a_weight_the_method_lacks(tmp_path, method, grid):
    # a library caller that runs the parsed config must not train a bad grid
    with pytest.raises(ConfigurationError, match="has no setting"):
        rc.config_from_dict(tiny_config(tmp_path, method={"name": method}, grid=grid))


@pytest.mark.parametrize("overrides", [
    {"method": {"name": "pgd-at", "alpha": 1.0}},
    {"method": {"name": "r-lwf", "fpd_metric": "kl"}},
    {"method": {"name": "trades"}, "grid": {"beta": [1.0, 2.0]}}],
    ids=["pgd-at-alpha", "r-lwf-fpd-metric", "trades-beta-grid"])
def test_cli_setting_the_method_lacks_exits_2_before_creating_output(tmp_path, capsys,
                                                                   overrides):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(tiny_config(tmp_path / "out", **overrides)))
    assert cli_main(["run", "--config", str(cfg_path)]) == 2
    assert "has no setting" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_bad_flatness_scalar_exits_2_before_training(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(tiny_config(tmp_path / "out",
                                               flatness={"scalar": "typo"})))
    assert cli_main(["run", "--config", str(cfg_path)]) == 2
    assert "flatness scalar" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_zero_step_eval_attack_exits_2_before_creating_output(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(tiny_config(tmp_path / "out",
                                               eval_attack={"n_steps": 0})))
    assert cli_main(["run", "--config", str(cfg_path)]) == 2
    assert "eval_attack n_steps" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("objective,expected", [
    (None, "kl-vs-clean"), ("ce", "ce"), ("bce-newslice", "bce-newslice")])
def test_trades_fills_its_objective_only_when_the_config_omits_it(tmp_path, objective,
                                                                  expected):
    attack = {"epsilon": "1/20", "n_steps": 3}
    if objective is not None:
        attack["objective"] = objective
    cfg = rc.config_from_dict(tiny_config(tmp_path, method={"name": "trades"},
                                          attack=attack))
    assert cfg.method.attack.objective == expected


def test_bce_newslice_attack_run_completes(tmp_path):
    # task 1 has a single-task head: its newest slice is the whole head
    cfg = rc.config_from_dict(tiny_config(
        tmp_path / "bce", attack={"epsilon": "1/20", "n_steps": 3,
                                  "objective": "bce-newslice"}))
    assert cfg.method.attack.objective == "bce-newslice"
    report = rc.run_experiment(cfg)
    assert report.final_robust_acc is not None and report.r_bwt is not None
    assert (tmp_path / "bce" / "report.json").exists()


def test_grid_enumerates_25_runs(tmp_path):
    cfg_dict = tiny_config(tmp_path)
    cfg_dict["grid"] = {"alpha": [0, 0.5, 1, 2, 4], "beta": [0, 0.5, 1, 2, 4]}
    combos = rc.expand_grid(rc.config_from_dict(cfg_dict))
    assert len(combos) == 25
    alphas = {sub.method.alpha for _, sub in combos}
    assert alphas == {0.0, 0.5, 1.0, 2.0, 4.0}
    outs = {sub.output_dir for _, sub in combos}
    assert len(outs) == 25


@pytest.mark.parametrize("method,grid,tags", [
    ("trades", {"alpha": [3, 6]}, ["alpha_3", "alpha_6"]),
    ("i-ard", {"beta": [0, 1.5]}, ["beta_0", "beta_1.5"]),
    ("flair", {"alpha": [0.5, 1]}, ["alpha_0.5_beta_2", "alpha_1_beta_2"])])
def test_grid_tags_name_the_weights_the_method_has(tmp_path, method, grid, tags):
    cfg = rc.config_from_dict(tiny_config(tmp_path, method={"name": method}, grid=grid))
    combos = rc.expand_grid(cfg)
    assert [tag for tag, _ in combos] == tags
    assert [sub.output_dir for _, sub in combos] == [str(tmp_path / t) for t in tags]


# ---------------------------------------------------------------------------
# checkpoints


def test_checkpoint_roundtrip_forward_identical(tmp_path):
    net = rc.Network.init_mlp(5, [9, 7], 4, activation="softplus", seed=8)
    net = rc.expand_head(net, 2, seed=9)
    stem = tmp_path / "ckpt"
    rc.save_checkpoint(net, str(stem))
    loaded = rc.load_checkpoint(str(stem))
    xs = np.random.default_rng(0).uniform(size=(100, 5))
    assert np.array_equal(loaded.forward(xs), net.forward(xs))
    assert loaded.head_boundaries == net.head_boundaries
    expected = b"".join(np.asarray(a, dtype="<f8").tobytes()
                        for layer in net.layers for a in (layer.weight, layer.bias))
    assert (tmp_path / "ckpt.blob").read_bytes() == expected


def test_checkpoint_truncated_blob(tmp_path):
    net = rc.Network.init_mlp(4, [6], 2, seed=1)
    stem = tmp_path / "ckpt"
    rc.save_checkpoint(net, str(stem))
    blob = (tmp_path / "ckpt.blob").read_bytes()
    (tmp_path / "ckpt.blob").write_bytes(blob[:-16])
    with pytest.raises(IntegrityError):
        rc.load_checkpoint(str(stem))


def test_checkpoint_boundary_mismatch(tmp_path):
    net = rc.Network.init_mlp(4, [6], 2, seed=1)
    stem = tmp_path / "ckpt"
    rc.save_checkpoint(net, str(stem))
    manifest = (tmp_path / "ckpt.manifest").read_text()
    (tmp_path / "ckpt.manifest").write_text(
        manifest.replace("head_boundaries=2", "head_boundaries=3"))
    with pytest.raises(IntegrityError):
        rc.load_checkpoint(str(stem))


@pytest.mark.parametrize("n_layers", [0, -1])
def test_checkpoint_without_layers_exits_2(tmp_path, capsys, n_layers):
    # an empty blob matches a manifest that lists no layers in length and digest
    stem = tmp_path / "ckpt"
    (tmp_path / "ckpt.manifest").write_text(
        f"format_version=1\ninput_dim=6\nseed=\nhead_boundaries=2\n"
        f"n_layers={n_layers}\nblob_len=0\nblob_sha256={hashlib.sha256().hexdigest()}\n")
    (tmp_path / "ckpt.blob").write_bytes(b"")
    with pytest.raises(IntegrityError, match="no layers"):
        rc.load_checkpoint(str(stem))
    test_csv = tmp_path / "test.csv"
    save_csv_dataset(rc.gen_gaussian_tasks(2, 6, 10.0, 4, seed=5), str(test_csv))
    assert cli_main(["eval", "--checkpoint", str(stem), "--dataset",
                     str(test_csv)]) == 2
    assert "no layers" in capsys.readouterr().err


@pytest.mark.parametrize("layers, n_params", [
    (["-1x2,identity"], 0), (["6x0,tanh", "0x2,identity"], 2)],
    ids=["negative", "zero-width-hidden"])
def test_checkpoint_with_a_layer_narrower_than_1_exits_2(tmp_path, capsys, layers,
                                                         n_params):
    # the blob matches the manifest in length and digest
    stem = tmp_path / "ckpt"
    blob = bytes(8 * n_params)
    (tmp_path / "ckpt.manifest").write_text(
        f"format_version=1\ninput_dim=6\nseed=\nhead_boundaries=2\n"
        f"n_layers={len(layers)}\n"
        + "".join(f"layer{i}={layer}\n" for i, layer in enumerate(layers))
        + f"blob_len={n_params}\nblob_sha256={hashlib.sha256(blob).hexdigest()}\n")
    (tmp_path / "ckpt.blob").write_bytes(blob)
    with pytest.raises(IntegrityError, match="dimension below 1"):
        rc.load_checkpoint(str(stem))
    test_csv = tmp_path / "test.csv"
    save_csv_dataset(rc.gen_gaussian_tasks(2, 6, 10.0, 4, seed=5), str(test_csv))
    assert cli_main(["eval", "--checkpoint", str(stem), "--dataset",
                     str(test_csv)]) == 2
    assert "dimension below 1" in capsys.readouterr().err


@pytest.mark.parametrize("line, edited", [
    ("input_dim=6", "input_dim=5"), ("head_boundaries=2", "head_boundaries=3,2"),
    ("layer0=6x4,tanh", "layer0=6x4,bogus")],
    ids=["input-dim", "boundaries-not-increasing", "activation"])
def test_checkpoint_the_network_rejects_exits_2(tmp_path, capsys, line, edited):
    # one manifest field changes; the blob still matches it in length and digest
    stem = tmp_path / "ckpt"
    rc.save_checkpoint(rc.Network.init_mlp(6, [4], 2, activation="tanh", seed=1),
                       str(stem))
    manifest = (tmp_path / "ckpt.manifest").read_text()
    assert f"\n{line}\n" in manifest
    (tmp_path / "ckpt.manifest").write_text(manifest.replace(f"\n{line}\n",
                                                             f"\n{edited}\n"))
    with pytest.raises(IntegrityError, match="invalid network"):
        rc.load_checkpoint(str(stem))
    test_csv = tmp_path / "test.csv"
    save_csv_dataset(rc.gen_gaussian_tasks(4, 6, 10.0, 4, seed=5), str(test_csv))
    assert cli_main(["eval", "--checkpoint", str(stem), "--dataset",
                     str(test_csv)]) == 2
    assert "invalid network" in capsys.readouterr().err


def test_checkpoint_version_mismatch(tmp_path):
    net = rc.Network.init_mlp(4, [6], 2, seed=1)
    stem = tmp_path / "ckpt"
    rc.save_checkpoint(net, str(stem))
    manifest = (tmp_path / "ckpt.manifest").read_text()
    (tmp_path / "ckpt.manifest").write_text(
        manifest.replace("format_version=1", "format_version=9"))
    with pytest.raises(IntegrityError):
        rc.load_checkpoint(str(stem))


def test_checkpoint_blob_digest_detects_same_length_corruption(tmp_path):
    net = rc.Network.init_mlp(4, [6], 2, seed=1)
    stem = tmp_path / "ckpt"
    rc.save_checkpoint(net, str(stem))
    manifest = (tmp_path / "ckpt.manifest").read_text()
    blob = (tmp_path / "ckpt.blob").read_bytes()
    assert "blob_sha256=" in manifest
    flipped = bytearray(blob)
    flipped[3] ^= 0x01
    (tmp_path / "ckpt.blob").write_bytes(bytes(flipped))
    with pytest.raises(IntegrityError):
        rc.load_checkpoint(str(stem))
    # the digest line is required: without it even an intact blob is refused
    (tmp_path / "ckpt.blob").write_bytes(blob)
    undigested = re.sub(r"blob_sha256=\w+\n", "", manifest)
    assert "blob_sha256" not in undigested
    (tmp_path / "ckpt.manifest").write_text(undigested)
    with pytest.raises(IntegrityError):
        rc.load_checkpoint(str(stem))


# ---------------------------------------------------------------------------
# run_experiment and reports


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("tiny_run")
    cfg = rc.config_from_dict(tiny_config(out))
    report = rc.run_experiment(cfg)
    return cfg, report, out


def test_report_files_exist(tiny_run):
    _, _, out = tiny_run
    for name in ("report.json", "ca_matrix.csv", "ra_matrix.csv",
                 "task_logs.csv"):
        assert (out / name).exists()
    assert (out / "checkpoints" / "task_001.manifest").exists()
    assert (out / "checkpoints" / "task_002.blob").exists()


def test_report_config_echo_and_hash(tiny_run):
    cfg, _, out = tiny_run
    payload = json.loads((out / "report.json").read_text())
    assert payload["config_echo"] == cfg.raw_text
    assert payload["config_sha256"] == cfg.sha256


def test_report_matrix_csv_lower_triangle(tiny_run):
    _, _, out = tiny_run
    rows = (out / "ra_matrix.csv").read_text().strip().split("\n")
    assert len(rows) == 2
    assert rows[0].split(",")[1] == ""          # blank above the diagonal
    assert rows[1].split(",")[1] != ""


def test_report_buffer_capacity_echoed(tiny_run):
    _, report, _ = tiny_run
    assert report.buffer_capacity == 0
    assert report.buffer_stored_per_task == [0, 0]


def test_task_log_csv_schema(tiny_run):
    _, _, out = tiny_run
    lines = (out / "task_logs.csv").read_text().strip().split("\n")
    assert lines[0] == "task,epoch,train_loss,clean_acc,robust_acc"
    assert len(lines) == 1 + 4                   # 2 tasks x 2 epochs


def test_report_keys_are_the_run_report_fields(tiny_run):
    _, _, out = tiny_run
    payload = json.loads((out / "report.json").read_text())
    assert list(payload) == [f.name for f in dataclasses.fields(rc.RunReport)]


def test_report_csvs_hold_the_report_rows(tiny_run):
    _, report, out = tiny_run
    for name, matrix in (("ca_matrix.csv", report.clean_matrix),
                         ("ra_matrix.csv", report.robust_matrix)):
        rows = [",".join("" if v is None else f"{v:.6g}" for v in row) for row in matrix]
        assert (out / name).read_text().splitlines() == rows
    logs = report.task_logs
    rows = [",".join(f"{v:.6g}" for v in row.values()) for row in logs]
    assert (out / "task_logs.csv").read_text().splitlines() == [",".join(logs[0]), *rows]


def test_report_numbers_have_six_significant_digits(tiny_run):
    _, _, out = tiny_run
    payload = json.loads((out / "report.json").read_text())
    v = payload["final_robust_acc"]
    assert v == float(f"{v:.6g}")


def test_reemission_overwrites_atomically(tiny_run):
    _, report, out = tiny_run
    before = strip_wall_clock((out / "report.json").read_text())
    rc.emit_report(report, str(out))
    after = strip_wall_clock((out / "report.json").read_text())
    assert before == after
    assert not list(out.glob("*.tmp"))


def test_single_task_run_marks_r_bwt_undefined(tmp_path):
    cfg_dict = tiny_config(tmp_path / "one",
                           tasks={"n_tasks": 1, "classes_per_task": 4})
    report = rc.run_experiment(rc.config_from_dict(cfg_dict))
    assert report.r_bwt is None
    payload = json.loads((tmp_path / "one" / "report.json").read_text())
    assert payload["r_bwt"] is None
    assert np.asarray(payload["robust_matrix"]).shape == (1, 1)


def test_rerun_is_byte_identical_modulo_wall_clock(tmp_path):
    cfg = rc.config_from_dict(tiny_config(tmp_path / "det"))
    rc.run_experiment(cfg)
    first = strip_wall_clock((tmp_path / "det" / "report.json").read_text())
    rc.run_experiment(cfg)
    second = strip_wall_clock((tmp_path / "det" / "report.json").read_text())
    assert first == second


@pytest.mark.parametrize("method, capacity", [
    ({"name": "flair"}, 0),
    ({"name": "r-der++", "buffer_kind": "reservoir-with-logits"}, 12),
    ({"name": "pgd-at", "buffer_kind": "herding"}, 12),
], ids=["flair", "r-der++", "pgd-at-herding"])
def test_report_replays_from_its_checkpoints(tmp_path, method, capacity):
    # what report.json derives from the models follows from its checkpoints
    # and config_echo alone, without retraining
    out = tmp_path / "run"
    rc.run_experiment(rc.config_from_dict(
        tiny_config(out, method=method, buffer={"capacity": capacity})))
    payload = json.loads((out / "report.json").read_text())
    cfg = rc.runner.parse_config_text(payload["config_echo"])
    _, test_tasks = rc.runner._build_streams(cfg)
    models = [rc.load_checkpoint(str(out / "checkpoints" / f"task_{t:03d}"))
              for t in range(1, cfg.n_tasks + 1)]
    clean, robust = [], []
    for model in models:
        clean_row, robust_row = rc.evaluate_row(cfg, model, test_tasks)
        clean.append(clean_row)
        robust.append(robust_row)
    drift = rc.flatness_forgetting(models, test_tasks[:-1],
                                   scalar_def=cfg.flatness_scalar,
                                   subsample=cfg.flatness_subsample, seed=cfg.seed)

    def square(rows):  # report.json pads each row to n_tasks entries with null
        return [row + [None] * (cfg.n_tasks - len(row)) for row in rows]
    replayed = {"clean_matrix": square(clean), "robust_matrix": square(robust),
                "r_bwt": rc.r_bwt(robust), **vars(drift)}
    assert set(vars(drift)) == {"gf", "hf", "per_task_gf", "per_task_hf"}
    assert rc.runner._round6(replayed) == {key: payload[key] for key in replayed}


# ---------------------------------------------------------------------------
# CLI


def test_cli_run_and_eval_and_landscape(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(tiny_config(tmp_path / "out")))
    assert cli_main(["run", "--config", str(cfg_path)]) == 0
    out = capsys.readouterr().out
    assert "method=flair" in out

    test_csv = tmp_path / "test.csv"
    ds = rc.gen_gaussian_tasks(4, 6, 10.0, 10, seed=5)
    save_csv_dataset(ds, str(test_csv))
    ckpt = tmp_path / "out" / "checkpoints" / "task_002"
    assert cli_main(["eval", "--checkpoint", str(ckpt), "--dataset",
                     str(test_csv), "--attack", "pgd20",
                     "--epsilon", "1/20"]) == 0
    out = capsys.readouterr().out
    assert "clean_acc=" in out and "robust_acc=" in out

    grid_file = tmp_path / "grid.csv"
    assert cli_main(["landscape", "--checkpoint", str(ckpt), "--dataset",
                     str(test_csv), "--index", "0", "--extent", "0.1",
                     "--n", "5", "--epsilon", "1/20",
                     "--out", str(grid_file)]) == 0
    lines = grid_file.read_text().strip().split("\n")
    assert lines[0].startswith("# extent=")
    assert len(lines) == 6 and len(lines[1].split(",")) == 5


def test_cli_flatness(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(tiny_config(tmp_path / "out")))
    assert cli_main(["run", "--config", str(cfg_path)]) == 0
    capsys.readouterr()
    data_dir = tmp_path / "data"
    data_dir.mkdir()
    ds = rc.gen_gaussian_tasks(2, 6, 10.0, 8, seed=6)
    save_csv_dataset(ds, str(data_dir / "task_001.csv"))
    assert cli_main(["flatness", "--checkpoints",
                     str(tmp_path / "out" / "checkpoints"),
                     "--datasets", str(data_dir), "--subsample", "4"]) == 0
    out = capsys.readouterr().out
    assert "gf=" in out and "hf=" in out


def test_cli_flatness_rejects_zero_subsample(tmp_path, capsys):
    ckpt_dir, data_dir = tmp_path / "ckpt", tmp_path / "data"
    ckpt_dir.mkdir()
    data_dir.mkdir()
    for t in (1, 2):
        net = rc.Network.init_mlp(6, [5], 2, activation="tanh", seed=t)
        rc.save_checkpoint(net, str(ckpt_dir / f"task_{t:03d}"))
    save_csv_dataset(rc.gen_gaussian_tasks(2, 6, 10.0, 8, seed=6),
                        str(data_dir / "task_001.csv"))
    assert cli_main(["flatness", "--checkpoints", str(ckpt_dir),
                     "--datasets", str(data_dir), "--subsample", "0"]) == 2
    assert "subsample" in capsys.readouterr().err


@pytest.mark.parametrize("command,flags", [
    ("eval", ["--seed", "-1"]), ("landscape", ["--seed", "-1"]),
    ("flatness", ["--seed", "-1"]), ("landscape", ["--extent", "nan"]),
    ("landscape", ["--extent", "inf"])],
    ids=["eval-negative-seed", "landscape-negative-seed", "flatness-negative-seed",
         "landscape-nan-extent", "landscape-infinite-extent"])
def test_cli_bad_number_exits_2(tmp_path, capsys, command, flags):
    ckpt_dir, data_dir = tmp_path / "ckpt", tmp_path / "data"
    ckpt_dir.mkdir()
    data_dir.mkdir()
    for t in (1, 2):
        net = rc.Network.init_mlp(6, [5], 2, activation="tanh", seed=t)
        rc.save_checkpoint(net, str(ckpt_dir / f"task_{t:03d}"))
    dataset = str(data_dir / "task_001.csv")
    save_csv_dataset(rc.gen_gaussian_tasks(2, 6, 10.0, 8, seed=6), dataset)
    ckpt = str(ckpt_dir / "task_002")
    argv = {"eval": ["--checkpoint", ckpt, "--dataset", dataset, "--epsilon", "1/20"],
            "landscape": ["--checkpoint", ckpt, "--dataset", dataset, "--index", "0",
                          "--extent", "0.1", "--n", "3", "--epsilon", "1/20",
                          "--out", str(tmp_path / "grid.csv")],
            "flatness": ["--checkpoints", str(ckpt_dir), "--datasets", str(data_dir),
                         "--subsample", "4"]}[command]
    # argparse reports a bad value by exiting 2 itself
    with pytest.raises(SystemExit) as exc:
        cli_main([command, *argv, *flags])
    assert exc.value.code == 2
    assert "Traceback" not in capsys.readouterr().err
    assert not (tmp_path / "grid.csv").exists()


def test_cli_exit_code_2_on_config_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli_main(["run", "--config", str(bad)]) == 2
    missing = tmp_path / "missing.json"
    assert cli_main(["run", "--config", str(missing)]) == 2


# ---------------------------------------------------------------------------
# numeric aborts


def exploding_config(out_dir):
    # an absurd learning rate drives the parameters to overflow mid-training
    return tiny_config(out_dir, training={"epochs": 3, "lr": 1e150,
                                          "batch_size": 16})


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_numeric_abort_carries_task_context_and_flushes_partial(tmp_path):
    from robustcl.errors import NumericError
    out = tmp_path / "boom"
    cfg = rc.config_from_dict(exploding_config(out))
    with pytest.raises(NumericError, match=r"task \d+ epoch \d+ batch \d+"):
        rc.run_experiment(cfg)
    payload = json.loads((out / "report.json").read_text())
    assert payload["r_bwt"] is None
    assert payload["final_robust_acc"] is None


def test_flatness_failure_flushes_partial_report(tmp_path, monkeypatch):
    from robustcl.errors import NumericError

    def boom(*args, **kwargs):
        raise NumericError("flatness stage failed")
    monkeypatch.setattr(rc.runner, "flatness_forgetting", boom)
    out = tmp_path / "flat-boom"
    with pytest.raises(NumericError, match="flatness stage"):
        rc.run_experiment(rc.config_from_dict(tiny_config(out)))
    payload = json.loads((out / "report.json").read_text())
    for key in ("clean_matrix", "robust_matrix"):
        rows = payload[key]
        assert all(rows[i][j] is not None for i in range(2) for j in range(i + 1))
    assert payload["r_bwt"] is not None
    assert payload["gf"] is None and payload["final_robust_acc"] is None


def test_crashed_run_pads_unfinished_rows_with_null(tmp_path, monkeypatch):
    from robustcl.errors import NumericError
    calls = []

    def crash_on_second_task(*args, **kwargs):
        calls.append(1)
        if len(calls) == 2:
            raise NumericError("task 2 diverged")
        return train_task(*args, **kwargs)
    train_task = rc.runner.run_task
    monkeypatch.setattr(rc.runner, "run_task", crash_on_second_task)
    out = tmp_path / "crash"
    cfg = tiny_config(out, tasks={"n_tasks": 3, "classes_per_task": 2})
    cfg["dataset"]["n_classes"] = 6
    with pytest.raises(NumericError, match="task 2 diverged"):
        rc.run_experiment(rc.config_from_dict(cfg))
    payload = json.loads((out / "report.json").read_text())
    for key, csv in (("clean_matrix", "ca_matrix.csv"),
                     ("robust_matrix", "ra_matrix.csv")):
        # 3 rows of 3 entries, of which only [0][0] is set
        unset = [[value is None for value in row] for row in payload[key]]
        assert unset == [[False, True, True], [True] * 3, [True] * 3]
        assert len((out / csv).read_text().splitlines()) == 3
    for key in ("final_clean_acc", "final_robust_acc", "r_bwt"):
        assert payload[key] is None


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_cli_exit_code_3_on_numeric_abort(tmp_path, capsys):
    cfg_path = tmp_path / "boom.json"
    cfg_path.write_text(json.dumps(exploding_config(tmp_path / "boom")))
    assert cli_main(["run", "--config", str(cfg_path)]) == 3
    assert "numeric abort" in capsys.readouterr().err

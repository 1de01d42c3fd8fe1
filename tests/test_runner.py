import json
import re

import numpy as np
import pytest

import robustcl as rc
from robustcl.cli import main as cli_main
from robustcl.errors import ConfigurationError, IntegrityError


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


def test_cli_bad_flatness_scalar_exits_2_before_training(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(tiny_config(tmp_path / "out",
                                               flatness={"scalar": "typo"})))
    assert cli_main(["run", "--config", str(cfg_path)]) == 2
    assert "flatness scalar" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_grid_enumerates_25_runs(tmp_path):
    cfg_dict = tiny_config(tmp_path)
    cfg_dict["grid"] = {"alpha": [0, 0.5, 1, 2, 4], "beta": [0, 0.5, 1, 2, 4]}
    combos = rc.expand_grid(rc.config_from_dict(cfg_dict))
    assert len(combos) == 25
    alphas = {sub.method.alpha for _, sub in combos}
    assert alphas == {0.0, 0.5, 1.0, 2.0, 4.0}
    outs = {sub.output_dir for _, sub in combos}
    assert len(outs) == 25


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


def test_checkpoint_version_mismatch(tmp_path):
    net = rc.Network.init_mlp(4, [6], 2, seed=1)
    stem = tmp_path / "ckpt"
    rc.save_checkpoint(net, str(stem))
    manifest = (tmp_path / "ckpt.manifest").read_text()
    (tmp_path / "ckpt.manifest").write_text(
        manifest.replace("format_version=1", "format_version=9"))
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
    rc.save_csv_dataset(ds, str(test_csv))
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
    rc.save_csv_dataset(ds, str(data_dir / "task_001.csv"))
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
    rc.save_csv_dataset(rc.gen_gaussian_tasks(2, 6, 10.0, 8, seed=6),
                        str(data_dir / "task_001.csv"))
    assert cli_main(["flatness", "--checkpoints", str(ckpt_dir),
                     "--datasets", str(data_dir), "--subsample", "0"]) == 2
    assert "subsample" in capsys.readouterr().err


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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_cli_exit_code_3_on_numeric_abort(tmp_path, capsys):
    cfg_path = tmp_path / "boom.json"
    cfg_path.write_text(json.dumps(exploding_config(tmp_path / "boom")))
    assert cli_main(["run", "--config", str(cfg_path)]) == 3
    assert "numeric abort" in capsys.readouterr().err

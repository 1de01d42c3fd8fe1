import gzip
import zlib

import numpy as np
import pytest

import robustcl as rc
from robustcl.cli import main as cli_main
from robustcl.data import AUGMENT_MAGNITUDE, AUGMENT_OPS, VALUE_RANGE
from robustcl.errors import ArgumentError, ParseError
from robustcl.seeding import derive_rng

from conftest import save_csv_dataset


# ---------------------------------------------------------------------------
# gaussian task generator


def test_gaussian_determinism_and_counts():
    a = rc.gen_gaussian_tasks(4, 8, 6.0, 25, seed=3)
    b = rc.gen_gaussian_tasks(4, 8, 6.0, 25, seed=3)
    assert np.array_equal(a.inputs, b.inputs)
    assert np.array_equal(a.labels, b.labels)
    for c in range(4):
        assert (a.labels == c).sum() == 25


def test_gaussian_inputs_mapped_into_unit_box():
    ds = rc.gen_gaussian_tasks(5, 6, 10.0, 30, seed=1)
    assert ds.inputs.min() >= 0.0 and ds.inputs.max() <= 1.0


def test_gaussian_zero_separation_is_chance_level():
    # Monte-Carlo oracle: with all class means equal, any fixed classifier
    # sits at 1/n_classes expected accuracy
    ds = rc.gen_gaussian_tasks(5, 8, 0.0, 2000, seed=9)
    net = rc.Network.init_mlp(8, [16], 5, seed=4)
    preds = np.argmax(net.forward(ds.inputs), axis=1)
    acc = np.mean(preds == ds.labels)
    assert abs(acc - 0.2) < 0.03


def test_gaussian_argument_validation():
    with pytest.raises(ArgumentError):
        rc.gen_gaussian_tasks(1, 8, 1.0, 10)
    with pytest.raises(ArgumentError):
        rc.gen_gaussian_tasks(3, 8, 1.0, 0)


# ---------------------------------------------------------------------------
# CSV datasets


def test_csv_roundtrip(tmp_path):
    ds = rc.gen_gaussian_tasks(3, 4, 5.0, 7, seed=2)
    path = tmp_path / "data.csv"
    save_csv_dataset(ds, str(path))
    loaded = rc.load_csv_dataset(str(path))
    assert np.array_equal(loaded.inputs, ds.inputs)
    assert np.array_equal(loaded.labels, ds.labels)


def test_csv_gzip_roundtrip(tmp_path):
    ds = rc.gen_gaussian_tasks(2, 3, 4.0, 5, seed=2)
    path = tmp_path / "data.csv.gz"
    save_csv_dataset(ds, str(path))
    loaded = rc.load_csv_dataset(str(path))
    assert np.array_equal(loaded.inputs, ds.inputs)


def test_csv_two_row_file(tmp_path):
    path = tmp_path / "two.csv"
    path.write_text("label,f0,f1\n0,0.1,0.2\n1,0.3,0.4\n")
    ds = rc.load_csv_dataset(str(path))
    assert len(ds) == 2 and ds.n_classes == 2


def test_csv_ragged_row_names_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("label,f0,f1\n0,0.1,0.2\n1,0.3\n")
    with pytest.raises(ParseError, match=":3:"):
        rc.load_csv_dataset(str(path))


def test_csv_non_numeric_names_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("label,f0\n0,0.1\n1,abc\n")
    with pytest.raises(ParseError, match=":3:"):
        rc.load_csv_dataset(str(path))


def test_csv_out_of_range_value(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("label,f0\n0,1.5\n")
    with pytest.raises(ParseError, match=":2:"):
        rc.load_csv_dataset(str(path))


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
def test_csv_non_finite_value_names_line(tmp_path, cell):
    path = tmp_path / "nonfinite.csv"
    path.write_text(f"label,f0\n0,0.5\n1,{cell}\n")
    with pytest.raises(ParseError, match=":3: feature outside"):
        rc.load_csv_dataset(str(path))


def test_csv_empty_after_header(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("label,f0,f1\n")
    ds = rc.load_csv_dataset(str(path))
    assert len(ds) == 0


def test_csv_missing_header(tmp_path):
    path = tmp_path / "noheader.csv"
    path.write_text("0,0.1,0.2\n")
    with pytest.raises(ParseError):
        rc.load_csv_dataset(str(path))


GOOD_GZ = gzip.compress(b"label,f0\n0,0.5\n1,0.25\n", mtime=0)


@pytest.mark.parametrize("name, content, cause", [
    ("dir.csv", None, IsADirectoryError),
    ("plain.csv.gz", b"label,f0\n0,0.5\n", gzip.BadGzipFile),
    ("truncated.csv.gz", GOOD_GZ[:-12], EOFError),
    ("latin1.csv", b"label,f0\n0,0.5\xff\n", UnicodeDecodeError),
    # deflate block type 3 is reserved
    ("bad-block.csv.gz", GOOD_GZ[:10] + b"\xff" * 8, zlib.error),
], ids=["directory", "not-gzip", "truncated-gzip", "not-utf8", "corrupt-deflate"])
def test_unreadable_csv_raises_parse_error_naming_the_path(tmp_path, capsys, name,
                                                            content, cause):
    path = tmp_path / name
    if content is None:
        path.mkdir()
    else:
        path.write_bytes(content)
    with pytest.raises(ParseError, match=str(path)) as info:
        rc.load_csv_dataset(str(path))
    assert isinstance(info.value.__cause__, cause)
    stem = tmp_path / "ckpt"
    rc.save_checkpoint(rc.Network.init_mlp(1, [2], 2, seed=1), str(stem))
    assert cli_main(["eval", "--checkpoint", str(stem), "--dataset", str(path)]) == 2
    assert str(path) in capsys.readouterr().err


# ---------------------------------------------------------------------------
# augmentation


def test_output_stays_in_range_over_random_draws():
    rng = np.random.default_rng(5)
    for trial in range(50):
        x = rng.uniform(size=(20, 5))
        out = rc.augment(x, np.random.default_rng(trial))
        assert out.min() >= 0.0 and out.max() <= 1.0
        assert out.shape == x.shape


def test_augment_determinism_under_fixed_seed():
    x = np.random.default_rng(2).uniform(size=(5, 6))
    a = rc.augment(x, derive_rng(11, purpose="augment"))
    b = rc.augment(x, derive_rng(11, purpose="augment"))
    assert np.array_equal(a, b)


def test_augment_draws_op_then_its_own_randomness_per_row():
    # reports depend on this draw order, so it is pinned here
    x = np.random.default_rng(3).uniform(0.2, 0.8, size=(40, 5))
    out = rc.augment(x, np.random.default_rng(4))
    rng = np.random.default_rng(4)
    ops = set()
    for row, got in zip(x, out):
        op = AUGMENT_OPS[int(rng.integers(0, 2))]
        ops.add(op)
        if op == "gaussian-noise":
            expected = row + rng.normal(0.0, 0.1 * AUGMENT_MAGNITUDE, size=row.shape)
        else:
            factor = 1.0 + rng.uniform(-1.0, 1.0) * 0.5 * AUGMENT_MAGNITUDE
            expected = 0.5 + (row - 0.5) * factor
        assert np.array_equal(got, np.clip(expected, 0.0, 1.0))
    assert ops == set(AUGMENT_OPS)


def test_dataset_validation():
    with pytest.raises(ArgumentError):
        rc.Dataset(np.zeros((2, 3)), np.array([0, 5]), 2)
    # rounding just past an end of the value range is tolerated
    rc.Dataset(np.array([[-1e-13, 1.0 + 1e-13]]), np.array([0]), 1)


@pytest.mark.parametrize("value", [2.0, -0.5, 1.0 + 1e-9, np.nan])
def test_every_dataset_lies_in_the_value_range(value):
    assert VALUE_RANGE == (0.0, 1.0)
    with pytest.raises(ArgumentError, match="value range"):
        rc.Dataset(np.full((2, 3), value), np.array([0, 1]), 2)
